"""Parsing, implicit-feedback conversion, filtering, and the synthetic generator."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgrec.errors import CkgrecError, ConfigError, FormatError
from ckgrec.ingest import (
    SynthConfig,
    filter_min_interactions,
    merge_records,
    parse_attribute_triples,
    parse_interactions,
    synth_generate,
    to_implicit,
    verify_manifest,
    write_attribute_triples,
    write_records,
)
from ckgrec.rng import Rng
from ckgrec.table import NO_TIME

import reference as ref
from conftest import table
from reference import type_bits_reference
from tablerows import ratings_from_rows, rows_of


def ratings(*rows):
    """Ratings of (user, item, value, timestamp) rows."""
    return ratings_from_rows(rows)


class TestParseInteractions:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("")
        result = parse_interactions(p)
        assert rows_of(result.records) == [] and result.issues == []

    def test_single_tsv_row(self, tmp_path):
        p = tmp_path / "one.tsv"
        p.write_text("u1\ti1\t4.0\n")
        result = parse_interactions(p)
        assert rows_of(result.records) == [("u1", "i1", 4.0, None)]

    def test_csv_with_timestamp(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("u1,i1,like,1609459200\n")
        result = parse_interactions(p, format="csv")
        assert rows_of(result.records) == [("u1", "i1", "like", 1609459200)]

    def test_bad_line_among_hundred(self, tmp_path):
        lines = [f"u{n}\ti{n}\t1.0" for n in range(1, 51)]
        lines.append("only_two\tfields")  # line 51
        lines += [f"u{n}\ti{n}\t1.0" for n in range(51, 101)]
        p = tmp_path / "mix.tsv"
        p.write_text("\n".join(lines) + "\n")
        result = parse_interactions(p)
        assert len(result.records) == 100
        assert len(result.issues) == 1 and result.issues[0].line == 51

    def test_strict_raises_with_location(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\ti1\t1.0\nbroken\n")
        with pytest.raises(FormatError, match=r"bad\.tsv:2"):
            parse_interactions(p, strict=True)

    def test_all_lines_malformed_rejected(self, tmp_path):
        p = tmp_path / "junk.tsv"
        p.write_text("x\ny\n")
        with pytest.raises(FormatError):
            parse_interactions(p)

    def test_empty_field_reported(self, tmp_path):
        p = tmp_path / "blank.tsv"
        p.write_text("\ti1\t1.0\nu1\ti1\t2.0\n")
        result = parse_interactions(p)
        assert len(result.records) == 1 and result.issues[0].line == 1

    def test_bad_timestamp_reported(self, tmp_path):
        p = tmp_path / "ts.tsv"
        p.write_text("u1\ti1\t1.0\tnot_a_time\nu1\ti2\t1.0\t55\n")
        result = parse_interactions(p)
        assert len(result.records) == 1
        assert rows_of(result.records)[0][3] == 55
        assert result.issues[0].line == 1

    def test_timestamp_outside_64_bits_reported(self, tmp_path):
        p = tmp_path / "big.tsv"
        p.write_text(
            "u1\ti1\t1.0\t9223372036854775808\n"
            "u1\ti2\t1.0\t-9223372036854775807\n"
            "u1\ti3\t1.0\t-9223372036854775808\n"
        )
        result = parse_interactions(p)
        assert rows_of(result.records) == [("u1", "i2", 1.0, -9223372036854775807)]
        assert [i.line for i in result.issues] == [1, 3]
        assert all("64-bit range" in i.message for i in result.issues)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_interactions(tmp_path / "nope.tsv")

    def test_round_trip_exact(self, tmp_path):
        rows = [
            ("u1", "i1", frozenset({"rated"}), None),
            ("u2", "i2", frozenset({"like"}), 123),
            ("u3", "i3", frozenset({"view", "like", "rated"}), 7),
            ("u4", "i4", frozenset({"favorite", "view"}), None),
        ]
        for fmt in ("tsv", "csv"):
            p = tmp_path / f"rt.{fmt}"
            write_records(table(rows), p, fmt)
            back = parse_interactions(p, fmt)
            assert back.issues == [] and rows_of(merge_records(to_implicit(back.records))) == rows
        # one line per type, in name order, "rated" as the rating 1.0
        assert p.read_text().splitlines()[2:5] == ["u3,i3,like,7", "u3,i3,1.0,7", "u3,i3,view,7"]

    @pytest.mark.parametrize("write, good, bad", [
        (write_records, table([("u1", "i1", frozenset({"like"}))]), table([("u\ud800", "i1", frozenset({"like"}))])),
        (write_attribute_triples, [("i1", "genre", "g1")], [("i1", "genre", "\ud800")]),
    ], ids=["records", "attribute-triples"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, write, good, bad):
        path = tmp_path / "out.tsv"
        write(good, path)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails the UTF-8 encoder inside the write
            write(bad, path)
        assert before and path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    @given(st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.sets(st.sampled_from(["rated", "like", "view", "favorite"]), min_size=1),
            st.none() | st.integers(int(NO_TIME) + 1, int(np.iinfo(np.int64).max)),
        ),
        min_size=1, max_size=20, unique_by=lambda row: row[:2],
    ))
    @settings(max_examples=50)
    def test_round_trip_arbitrary_tables(self, rows):
        rows = [(f"u{u}", f"i{i}", frozenset(types), stamp) for u, i, types, stamp in rows]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "vals.tsv"
            write_records(table(rows), p)
            assert rows_of(merge_records(to_implicit(parse_interactions(p).records))) == rows


class TestAttributeTriples:
    def test_basic_and_comment(self, tmp_path):
        p = tmp_path / "a.tsv"
        p.write_text("# header comment\ni1\tgenre\tg_comedy\n")
        triples, issues, _ = parse_attribute_triples(p)
        assert triples == [("i1", "genre", "g_comedy")] and issues == []

    def test_duplicates_kept(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("i1\tgenre\tg1\ni1\tgenre\tg1\n")
        triples = parse_attribute_triples(p)[0]
        assert len(triples) == 2

    def test_malformed_line_counted(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("i1\tgenre\tg1\nshort\n")
        triples, issues, _ = parse_attribute_triples(p)
        assert len(triples) == 1 and issues[0].line == 2


# line breaks of every kind, characters that str.splitlines() or str.strip() would treat as breaks or blanks,
# a byte-order mark, and the tokens that make interaction, attribute and manifest lines
PIECES = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b", "\x0c", "\ufeff", " ", "\t", ",", "#", "=",
          "u1", "i2", "3", "like", "users", "items", "42", "x"]


def mixed_bytes():
    return st.lists(st.sampled_from(PIECES), max_size=40).map(lambda pieces: "".join(pieces).encode("utf-8"))


class TestTextModeOracle:
    """Each reader sees the lines a text-mode read gives, and the digest of the bytes it read."""

    def written(self, tmp, data: bytes) -> Path:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        return path

    @given(mixed_bytes(), st.sampled_from(["tsv", "csv"]))
    @settings(max_examples=200)
    def test_interactions(self, data, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = self.written(tmp, data)
            try:
                ratings, issues = ref.parse_interactions_records(path, fmt)
            except ref.RecordError as err:
                with pytest.raises(FormatError) as got:
                    parse_interactions(path, fmt)
                assert str(got.value) == str(err)
                return
            parsed = parse_interactions(path, fmt)
        assert [(i.line, i.message, i.raw) for i in parsed.issues] == issues
        # repr, so that a NaN rating compares equal to itself
        assert repr(rows_of(parsed.records)) == repr([(r.user, r.item, r.value, r.timestamp) for r in ratings])
        assert parsed.digest == hashlib.sha256(data).hexdigest()

    @given(mixed_bytes())
    @settings(max_examples=200)
    def test_attribute_triples(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = self.written(tmp, data)
            triples, issues, digest = parse_attribute_triples(path)
            want = ref.parse_attribute_triples_text_mode(path)
        assert (triples, [(i.line, i.message, i.raw) for i in issues]) == want
        assert digest == hashlib.sha256(data).hexdigest()

    @given(mixed_bytes())
    @settings(max_examples=200)
    def test_manifest(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = self.written(tmp, data)
            try:
                counts = ref.manifest_counts_text_mode(path)
            except ref.RecordError as err:
                with pytest.raises(CkgrecError) as got:
                    verify_manifest(path, {})
                assert str(got.value) == str(err)
                return
            # every announced count off by one: the mismatch lists each key the text-mode read found, with its value
            actual = {key: n + 1 for key, n in counts.items()}
            if counts:
                want = f"{path}: count mismatch — " + "; ".join(
                    f"{key}: manifest says {n}, parsed {n + 1}" for key, n in sorted(counts.items()))
                with pytest.raises(FormatError) as got:
                    verify_manifest(path, actual)
                assert str(got.value) == want
            assert verify_manifest(path, counts) == hashlib.sha256(data).hexdigest()


class TestToImplicit:
    def test_any_rating_positive_by_default(self):
        out = to_implicit(ratings(("u1", "i1", 4.0, None)))
        assert rows_of(out) == [("u1", "i1", frozenset({"rated"}), None)]

    def test_token_becomes_named_type(self):
        out = to_implicit(ratings(("u1", "i1", "like", None)))
        assert rows_of(out)[0][2] == frozenset({"like"})

    def test_threshold_histogram(self):
        rows = [(f"u{n}", "i1", float(v), None) for n, v in enumerate([1, 2, 3, 4, 5, 4, 5, 1])]
        out = to_implicit(ratings(*rows), threshold=4.0)
        want = sum(1 for _, _, value, _ in rows if value >= 4.0)
        assert len(out) == want == 4

    def test_never_increases_count(self):
        two = ratings(("u1", "i1", 1.0, None), ("u2", "i2", "like", None))
        for thr in [float("-inf"), 0.5, 2.0]:
            assert len(to_implicit(two, thr)) <= len(two)

    def test_bits_match_bit_by_bit_reference(self):
        rng = np.random.default_rng(11)
        for n_rows, n_names in ((0, 1), (4, 1), (6, 3), (9, 64), (9, 65), (30, 200)):
            names = [f"t{j}" for j in range(n_names)]
            picked = rng.integers(0, n_names, size=n_rows)
            rows = [(f"u{r % 5}", f"i{r % 7}", names[c], None) for r, c in enumerate(picked.tolist())]
            out = to_implicit(ratings(*rows))
            # type codes number the names in order of first appearance
            codes = [out.type_names.index(names[c]) for c in picked.tolist()]
            want = type_bits_reference(range(n_rows), codes, n_rows, len(out.type_names))
            assert out.types.dtype == np.uint64 and out.types.shape == want.shape
            assert np.array_equal(out.types, want), (n_rows, n_names)

    def test_top_bit_of_a_word(self):
        names = [f"t{j}" for j in range(128)]
        out = to_implicit(ratings(*[("u1", f"i{j}", name, None) for j, name in enumerate(names)]))
        assert out.type_names == names
        assert out.types[[63, 64, 127]].tolist() == [[2**63, 0], [0, 1], [0, 2**63]]


class TestMergeRecords:
    def test_unions_types_per_pair(self):
        records = table([
            ("u1", "i1", frozenset({"view"})),
            ("u1", "i1", frozenset({"like"})),
            ("u1", "i2", frozenset({"view"})),
        ])
        merged = merge_records(records)
        assert len(merged) == 2
        assert rows_of(merged)[0][2] == frozenset({"view", "like"})

    def test_identity_when_unique(self):
        records = table([("u1", "i1", frozenset({"view"}))])
        assert rows_of(merge_records(records)) == rows_of(records)


class TestFilterMinInteractions:
    def make(self, counts: dict):
        records = []
        for user, n in counts.items():
            records += [(user, f"i{j}", frozenset({"view"})) for j in range(n)]
        return table(records)

    def test_zero_is_identity(self):
        records = self.make({"a": 2, "b": 1})
        assert rows_of(filter_min_interactions(records, 0)) == rows_of(records)

    def test_user_below_threshold_removed(self):
        records = self.make({"a": 4, "b": 5})
        out = filter_min_interactions(records, 5)
        assert {u for u, *_ in rows_of(out)} == {"b"}

    def test_histogram_oracle_and_own_predicate(self):
        counts = {"a": 1, "b": 3, "c": 5, "d": 7, "e": 2}
        records = self.make(counts)
        for n in range(0, 9):
            out = filter_min_interactions(records, n)
            survivors = {u for u, c in counts.items() if c >= n}
            assert {u for u, *_ in rows_of(out)} == survivors
            from collections import Counter

            by_user = Counter(u for u, *_ in rows_of(out))
            assert all(c >= n for c in by_user.values())

    def test_no_cascade(self):
        # removing user 'a' leaves item i0 with one record; a cascading
        # item-side filter would drop user 'b' too — a single pass keeps it
        records = table([
            ("a", "i0", frozenset({"view"})),
            ("b", "i0", frozenset({"view"})),
            ("b", "i1", frozenset({"view"})),
        ])
        out = filter_min_interactions(records, 2)
        assert {u for u, *_ in rows_of(out)} == {"b"}


class TestManifest:
    def test_match_passes(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# counts\nusers=3\nitems=4\ninteractions=9\n")
        verify_manifest(p, {"users": 3, "items": 4, "interactions": 9})

    def test_mismatch_raises(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("users=3\nitems=4\ninteractions=9\n")
        with pytest.raises(FormatError, match="interactions"):
            verify_manifest(p, {"users": 3, "items": 4, "interactions": 10})

    def test_unknown_key_raises(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("users=3\nwidgets=1\n")
        with pytest.raises(FormatError, match="widgets"):
            verify_manifest(p, {"users": 3, "items": 0, "interactions": 0})


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(40, 30, 4, 5, noise=0.2, seed=9)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert rows_of(a[0]) == rows_of(b[0]) and a[1] == b[1] and a[2] == b[2]
        assert np.array_equal(a[3].user_factor, b[3].user_factor)

    def test_interaction_count_arithmetic(self):
        interactions, _, _, _ = synth_generate(SynthConfig(300, 200, 8, 20, noise=0.1, seed=42))
        assert len(interactions) == 300 * 20

    def test_noise_zero_stays_in_factor_block(self):
        cfg = SynthConfig(n_users=50, n_items=60, latent_dim=2, interactions_per_user=10, noise=0.0, seed=3)
        interactions, _, _, truth = synth_generate(cfg)
        item_factor = {f"i{j}": int(truth.item_factor[j]) for j in range(60)}
        user_factor = {f"u{j}": int(truth.user_factor[j]) for j in range(50)}
        for user, item, *_ in rows_of(interactions):
            assert item_factor[item] == user_factor[user]

    def test_dominant_attribute_always_present(self):
        interactions, user_attrs, item_attrs, truth = synth_generate(
            SynthConfig(30, 20, 3, 4, noise=0.0, seed=1)
        )
        user_heads = {h for h, rel, _ in user_attrs if rel == "group"}
        item_heads = {h for h, rel, _ in item_attrs if rel == "topic"}
        assert user_heads == {f"u{j}" for j in range(30)}
        assert item_heads == {f"i{j}" for j in range(20)}

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SynthConfig(0, 10, 2, 3).validate()
        with pytest.raises(ConfigError):
            SynthConfig(10, 10, 2, 3, noise=1.0).validate()
        with pytest.raises(ConfigError):
            # more draws per user than items with positive weight
            synth_generate(SynthConfig(4, 4, 2, 5, noise=0.0, seed=0))

    def test_unique_pairs_per_user(self):
        interactions, _, _, _ = synth_generate(SynthConfig(20, 40, 2, 8, noise=0.3, seed=2))
        pairs = [(user, item) for user, item, *_ in rows_of(interactions)]
        assert len(pairs) == len(set(pairs))
