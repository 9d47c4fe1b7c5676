"""Parsing, implicit-feedback conversion, filtering, and the synthetic generator."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgrec.errors import ConfigError, FormatError
from ckgrec.ingest import (
    SynthConfig,
    filter_min_interactions,
    merge_records,
    parse_attribute_triples,
    parse_interactions,
    synth_generate,
    to_implicit,
    verify_manifest,
    write_records,
)
from ckgrec.rng import Rng
from ckgrec.table import NO_TIME

from conftest import table
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
        triples, issues = parse_attribute_triples(p)
        assert triples == [("i1", "genre", "g_comedy")] and issues == []

    def test_duplicates_kept(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("i1\tgenre\tg1\ni1\tgenre\tg1\n")
        triples, _ = parse_attribute_triples(p)
        assert len(triples) == 2

    def test_malformed_line_counted(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("i1\tgenre\tg1\nshort\n")
        triples, issues = parse_attribute_triples(p)
        assert len(triples) == 1 and issues[0].line == 2


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
        verify_manifest(p, 3, 4, 9)

    def test_mismatch_raises(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("users=3\nitems=4\ninteractions=9\n")
        with pytest.raises(FormatError, match="interactions"):
            verify_manifest(p, 3, 4, 10)

    def test_unknown_key_raises(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("users=3\nwidgets=1\n")
        with pytest.raises(FormatError, match="widgets"):
            verify_manifest(p, 3, 0, 0)


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
