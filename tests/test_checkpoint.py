"""Binary checkpoint round-trips and malformed-file rejection."""

import dataclasses
import os

import numpy as np
import pytest

from ckgrec.checkpoint import MAGIC, attach, load, save
from ckgrec.errors import DimensionConflictError, FormatError

from conftest import rewrite_metadata, toy_dual
from reference import checkpoint_v1_reference


def saved_toy(tmp_path, name="m.ckgr", **kwargs):
    model, bg = toy_dual(**kwargs)
    path = tmp_path / name
    save(model, path, {"seed": 3, "epoch": 7})
    return model, path


class TestCrashSafety:
    def test_failed_replace_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        _, path = saved_toy(tmp_path)
        before = path.read_bytes()
        other, _ = toy_dual(seed=4)

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            save(other, path, {"seed": 4, "epoch": 1})
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == [path.name]

    def test_save_leaves_only_the_target(self, tmp_path):
        _, path = saved_toy(tmp_path)
        other, _ = toy_dual(seed=4)
        save(other, path, {"seed": 4, "epoch": 1})
        assert sorted(os.listdir(tmp_path)) == [path.name]
        assert np.array_equal(load(path)[0].entity, other.table_u.entity)


class TestRoundTrip:
    def test_parameters_bitwise_equal(self, tmp_path):
        model, path = saved_toy(tmp_path)
        table_u, stack_u, table_i, stack_i, meta = load(path)
        assert np.array_equal(table_u.entity, model.table_u.entity)
        assert np.array_equal(table_u.relation, model.table_u.relation)
        assert np.array_equal(table_u.projection, model.table_u.projection)
        assert np.array_equal(table_i.entity, model.table_i.entity)
        for l in range(2):
            assert np.array_equal(stack_u.w1[l], model.stack_u.w1[l])
            assert np.array_equal(stack_i.w1[l], model.stack_i.w1[l])
        assert np.array_equal(stack_u.attn[1], model.stack_u.attn[1])
        assert meta["seed"] == 3 and meta["epoch"] == 7
        assert meta["dims"] == [4, 3, 2] and meta["shared_weights"] is True

    def test_save_load_save_byte_identical(self, tmp_path):
        model, path = saved_toy(tmp_path)
        first = path.read_bytes()
        table_u, stack_u, table_i, stack_i, meta = load(path)
        clone = dataclasses.replace(
            model, table_u=table_u, stack_u=stack_u, table_i=table_i, stack_i=stack_i
        )
        again = tmp_path / "again.ckgr"
        save(clone, again, {"seed": meta["seed"], "epoch": meta["epoch"]})
        assert again.read_bytes() == first

    def test_shared_flag_re_aliases_w2(self, tmp_path):
        _, path = saved_toy(tmp_path)
        _, stack_u, _, _, _ = load(path)
        assert stack_u.shared and stack_u.w2[0] is stack_u.w1[0]

    def test_unshared_weights_survive(self, tmp_path):
        model, path = saved_toy(tmp_path, shared_weights=False)
        _, stack_u, _, _, meta = load(path)
        assert meta["shared_weights"] is False
        assert not stack_u.shared
        assert np.array_equal(stack_u.w2[0], model.stack_u.w2[0])
        assert not np.array_equal(stack_u.w1[0], stack_u.w2[0])

    def test_attach_rebinds_graphs(self, tmp_path):
        model, path = saved_toy(tmp_path)
        rebound, meta = attach(path, model.kg_u, model.kg_i, model.align)
        res_u, res_i = rebound.propagate_both()
        want_u, want_i = model.propagate_both()
        assert np.array_equal(res_u.stitched, want_u.stitched)
        assert np.array_equal(res_i.stitched, want_i.stitched)


class TestFormatOracle:
    """`save` writes the documented version-1 layout, block for block.

    A round trip cannot see a block order that `save` and `load` agree
    on; a writer that shares no code with them can.
    """

    CASES = {
        "shared-L2": {},
        "unshared-L2": {"shared_weights": False},
        "shared-L1": {"n_layers": 1, "dims": (4, 3)},
        "unshared-L1": {"n_layers": 1, "dims": (4, 3), "shared_weights": False},
        "shared-L3": {"n_layers": 3, "dims": (4, 3, 3, 2)},
        "unshared-L3": {"n_layers": 3, "dims": (4, 3, 3, 2), "shared_weights": False},
        "printed": {"d": 3, "k": 3, "dims": (3, 3, 2), "printed_attention": True},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_save_matches_the_reference_writer(self, tmp_path, case):
        model, path = saved_toy(tmp_path, **self.CASES[case])
        stack = model.stack_u
        sides = [
            (t.entity, t.relation, t.projection, s.w1, None if s.shared else s.w2, s.attn)
            for t, s in ((model.table_u, model.stack_u), (model.table_i, model.stack_i))
        ]
        metadata = {
            "seed": 3,
            "epoch": 7,
            "dims": list(stack.dims),
            "shared_weights": stack.shared,
            "printed_attention": stack.printed_attention,
            "slope": stack.slope,
            "graph_digests": {"u": model.kg_u.digest(), "i": model.kg_i.digest()},
        }
        assert path.read_bytes() == checkpoint_v1_reference(*sides, stack.dims, metadata)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        _, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load(path)

    def test_bad_version(self, tmp_path):
        _, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 0x63
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 99"):
            load(path)

    def test_corrupt_byte_six_header(self, tmp_path):
        # byte 6 sits inside the u32 entity count; blow it up
        _, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[6] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load(path)

    def test_truncation_reports_offset(self, tmp_path):
        _, path = saved_toy(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="offset"):
            load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, path = saved_toy(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError, match="trailing"):
            load(path)

    def test_metadata_garbage_rejected(self, tmp_path):
        _, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3:] = b"}}}"  # break the JSON tail
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="metadata"):
            load(path)

    @pytest.mark.parametrize("digests", [{"u": "ab"}, ["ab", "cd"], {"u": "ab", "i": 7}])
    def test_malformed_graph_digests_rejected(self, tmp_path, digests):
        _, path = saved_toy(tmp_path)
        rewrite_metadata(path, path, lambda meta: meta.update(graph_digests=digests))
        with pytest.raises(FormatError, match="graph_digests"):
            load(path)

    def test_shared_claim_with_diverged_blocks(self, tmp_path):
        model, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        # W1 layer 1 of the user side starts right after the three table blocks
        header = 4 + 1 + 7 * 4 + 3 * 4
        tables = (5 * 4 + 2 * 3 + 2 * 3 * 4) * 8
        w1_at = header + tables
        raw[w1_at: w1_at + 8] = np.array([999.0]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="W1/W2"):
            load(path)

    def test_dimension_conflict_against_graphs(self, tmp_path):
        model, path = saved_toy(tmp_path)
        other, _ = toy_dual()
        bigger = dataclasses.replace(
            other,
            kg_u=_widen(other.kg_u),
        )
        with pytest.raises(DimensionConflictError, match="entities"):
            attach(path, bigger.kg_u, model.kg_i, model.align)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent.ckgr")


def _widen(kg):
    """Same triples, one extra entity: provokes a count mismatch."""
    from ckgrec.graph import CollaborativeKG

    return CollaborativeKG(
        kg.entity_count + 1,
        kg.relations,
        kg.heads.copy(),
        kg.rels.copy(),
        kg.tails.copy(),
        kg.entity_names + [("attr", "pad")],
        kg.stats,
    )
