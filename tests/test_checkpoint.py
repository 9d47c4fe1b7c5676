"""Binary checkpoint round-trips and malformed-file rejection."""

import dataclasses
import hashlib
import json
import os
import re
import struct
import types

import numpy as np
import pytest

from ckgrec.checkpoint import BLOCK_ALIGN, MAGIC, _blocks, attach, check_keys, load, save
from ckgrec.errors import DimensionConflictError, FormatError

from conftest import checkpoint_sides, rewrite_metadata, toy_dual
from reference import checkpoint_v2_reference


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
        table_u, stack_u, table_i, stack_i, meta, _ = load(path)
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
        table_u, stack_u, table_i, stack_i, meta, _ = load(path)
        clone = dataclasses.replace(
            model, table_u=table_u, stack_u=stack_u, table_i=table_i, stack_i=stack_i
        )
        again = tmp_path / "again.ckgr"
        save(clone, again, {"seed": meta["seed"], "epoch": meta["epoch"]})
        assert again.read_bytes() == first

    def test_shared_flag_re_aliases_w2(self, tmp_path):
        _, path = saved_toy(tmp_path)
        _, stack_u, _, _, _, _ = load(path)
        assert stack_u.shared and stack_u.w2[0] is stack_u.w1[0]

    def test_unshared_weights_survive(self, tmp_path):
        model, path = saved_toy(tmp_path, shared_weights=False)
        _, stack_u, _, _, meta, _ = load(path)
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

    def test_attach_without_graphs_binds_to_the_stored_world(self, tmp_path):
        # the world keys are checked apart, before any parse (check_keys); attach checks the input files
        model, _ = toy_dual()
        data = tmp_path / "interactions.txt"
        data.write_text("u1 i1\n")
        config = {"interactions": str(data), "d": 4, "seed": 3}
        path = tmp_path / "m.ckgr"
        save(model, path, {"config": config})
        serving, meta = attach(path, config=config)
        assert np.array_equal(serving.users, load(path).serving.users)
        assert meta["config"] == config
        loaded = load(path)
        moved = tmp_path / "moved.txt"
        moved.write_bytes(data.read_bytes())
        check_keys(path, loaded.meta, {**config, "d": 8})  # a key outside WORLD_KEYS
        assert attach(path, loaded=loaded, config={**config, "d": 8})[0] is loaded.serving
        assert attach(path, loaded=loaded, config={**config, "interactions": str(moved)})[0] is loaded.serving
        with pytest.raises(DimensionConflictError, match="trained with seed=3, not seed=4"):
            check_keys(path, loaded.meta, {**config, "seed": 4})
        with pytest.raises(DimensionConflictError, match="another manifest file: .*moved.txt has sha256 "):
            attach(path, loaded=loaded, config={**config, "manifest": str(moved)})  # a file it was not trained on
        data.write_text("u1 i2\n")
        with pytest.raises(DimensionConflictError, match="another interactions file: .*interactions.txt has sha256 "):
            attach(path, loaded=loaded, config=config)  # an edited input
        # a digest the caller parsed is taken as given: the edited file is not hashed again
        parsed = {"interactions": loaded.meta["input_digests"]["interactions"]}
        assert attach(path, loaded=loaded, config=config, inputs=parsed)[0] is loaded.serving


def _root(array):
    """The object that finally owns `array`'s memory: through views, and through the memoryview they were made from."""
    while True:
        base = array.base if isinstance(array, np.ndarray) else getattr(array, "obj", None)
        if base is None:
            return array
        array = base


def _loaded_arrays(loaded) -> dict:
    """Every array `load` returned, by block name; a shared stack's W2 is its W1."""
    out = {}
    for side, table, stack in (("u", loaded.table_u, loaded.stack_u), ("i", loaded.table_i, loaded.stack_i)):
        out |= {f"{side}.{name}": getattr(table, name) for name in ("entity", "relation", "projection")}
        for l in range(1, stack.n_layers + 1):
            out |= {f"{side}.w1.{l}": stack.w1[l - 1], f"{side}.w2.{l}": stack.w2[l - 1]}
            if l >= 2:
                out[f"{side}.attn.{l}"] = stack.attn[l - 1]
    s = loaded.serving
    return out | {"serving.users": s.users, "serving.items": s.items, "serving.train_ptr": s.train_ptr,
                  "serving.train_items": s.train_items}


class TestSingleBuffer:
    """`load` reads the file into one buffer and returns views of it, not per-block copies."""

    @pytest.mark.parametrize("shared_weights", [True, False], ids=["shared", "unshared"])
    def test_every_array_is_an_aligned_writable_view_of_one_buffer(self, tmp_path, shared_weights):
        _, path = saved_toy(tmp_path, shared_weights=shared_weights)
        arrays = _loaded_arrays(load(path))
        assert len(arrays) == 20
        for name, array in arrays.items():
            assert array.flags.aligned and array.flags.writeable, name
        buffer = _root(arrays["u.entity"])
        assert all(_root(array) is buffer for array in arrays.values())
        assert isinstance(buffer, np.ndarray) and buffer.nbytes > path.stat().st_size
        assert arrays["u.entity"].ctypes.data % BLOCK_ALIGN == 0  # the first block after the header

    def test_a_written_view_changes_only_its_array(self, tmp_path):
        _, path = saved_toy(tmp_path)
        loaded, again = load(path), load(path)
        loaded.table_u.entity[0, 0] += 1.0
        assert not np.array_equal(loaded.table_u.entity, again.table_u.entity)
        assert np.array_equal(loaded.table_i.entity, again.table_i.entity)


    @pytest.mark.parametrize("change, message", [
        (lambda raw: raw[:-40], "truncated checkpoint — needed .* for metadata at offset"),  # shrank after the stat
        (lambda raw: raw + b"x" * 100, "trailing bytes after metadata"),  # grew after the stat
    ], ids=["shrank", "grew"])
    def test_a_file_changed_after_its_size_was_read_is_rejected(self, tmp_path, monkeypatch, change, message):
        _, path = saved_toy(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(change(raw))
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(raw)))
        with pytest.raises(FormatError, match=message):
            load(path)


# the toy model's blocks, in file order: two 5-entity, 2-relation graphs, widths 4, 3, 2, k=3, 2 users and 2 items
TOY_BLOCKS = _blocks([(5, 2), (5, 2)], 4, 3, [4, 3, 2], (2, 2, 2))


@pytest.mark.parametrize("block", [name for name, _, _ in TOY_BLOCKS])
def test_a_file_cut_inside_a_block_names_it(tmp_path, block):
    _, path = saved_toy(tmp_path)
    raw = path.read_bytes()
    at = 4 + 1 + 7 * 4 + 3 * 4 + 3 * 4  # magic, version, counts, three layer widths, three serving counts
    for name, shape, _ in TOY_BLOCKS:
        size = int(np.prod(shape)) * 8
        if name == block:
            break
        at += size
    path.write_bytes(raw[: at + size - 4])  # the block's last value is cut in half
    with pytest.raises(FormatError, match=rf"truncated checkpoint — needed {size} bytes for {re.escape(block)} "
                                          rf"at offset {at}, file has {at + size - 4}$"):
        load(path)


class TestFormatOracle:
    """`save` writes the documented version-2 layout, block for block.

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
        model, bg = toy_dual(**self.CASES[case])
        path = tmp_path / "m.ckgr"
        save(model, path, {"seed": 3, "epoch": 7})
        stack = model.stack_u
        sides = [
            (t.entity, t.relation, t.projection, s.w1, None if s.shared else s.w2, s.attn)
            for t, s in ((model.table_u, model.stack_u), (model.table_i, model.stack_i))
        ]
        users, items = model.representations(*model.stitched())
        # each user's training items are its bipartite edges, users in id order
        train_items = [i for u in range(bg.n_users) for i in bg.edges.item[bg.edges.user == u].tolist()]
        train_ptr = np.cumsum([0] + [int(np.sum(bg.edges.user == u)) for u in range(bg.n_users)])
        metadata = {
            "seed": 3,
            "epoch": 7,
            "dims": list(stack.dims),
            "shared_weights": stack.shared,
            "printed_attention": stack.printed_attention,
            "slope": stack.slope,
            "graph_digests": {"u": model.kg_u.digest(), "i": model.kg_i.digest()},
            "tokens": {"users": bg.user_vocab.tokens(), "items": bg.item_vocab.tokens()},
            "input_digests": {},  # the metadata names no config, so no input files
        }
        want = checkpoint_v2_reference(*sides, stack.dims, metadata, (users, items, train_ptr, train_items))
        assert path.read_bytes() == want

    def test_save_hashes_the_input_files_its_config_names(self, tmp_path):
        model, _ = toy_dual()
        inputs = {name: tmp_path / f"{name}.txt" for name in ("interactions", "manifest")}
        for name, file in inputs.items():
            file.write_text(f"{name}\n")
        path = tmp_path / "m.ckgr"
        save(model, path, {"config": {name: str(file) for name, file in inputs.items()}})
        stored = load(path).meta["input_digests"]
        assert stored == {name: hashlib.sha256(file.read_bytes()).hexdigest() for name, file in inputs.items()}


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
        for version in (0x63, 1):  # an unknown version, and the one before serving arrays were stored
            raw[4] = version
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=f"version {version} at byte 4.*train the model again"):
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

    @pytest.mark.parametrize("block", ["serving.users", "serving.items", "serving.train_ptr", "serving.train_items"])
    def test_truncated_serving_block_is_named(self, tmp_path, block):
        _, path = saved_toy(tmp_path)
        raw = path.read_bytes()
        serving, meta = load(path).serving, load(path).meta
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        order = ["serving.users", "serving.items", "serving.train_ptr", "serving.train_items"]
        arrays = dict(zip(order, (serving.users, serving.items, serving.train_ptr, serving.train_items)))
        end = len(raw) - 8 - len(blob) - sum(arrays[name].nbytes for name in order[order.index(block) + 1:])
        path.write_bytes(raw[: end - 4])  # the block's last value is cut in half
        with pytest.raises(FormatError, match=rf"for {re.escape(block)} at offset"):
            load(path)

    def test_serving_counts_beyond_the_graphs_rejected(self, tmp_path):
        _, path = saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        at = 4 + 1 + 7 * 4 + 3 * 4  # the user count follows the three layer widths
        raw[at: at + 4] = struct.pack("<I", 4)  # 4 users and 2 items in graphs of 5 entities
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="4 users and 2 items do not fit"):
            load(path)

    @pytest.mark.parametrize("change, message", [
        (lambda meta: meta["tokens"]["items"].pop(), "tokens"),
        (lambda meta: meta["tokens"].update(users=[1, 2]), "tokens"),
    ], ids=["an-item-token-short", "non-string-tokens"])
    def test_malformed_tokens_rejected(self, tmp_path, change, message):
        _, path = saved_toy(tmp_path)
        rewrite_metadata(path, path, change)
        with pytest.raises(FormatError, match=message):
            load(path)

    @pytest.mark.parametrize("key", ["dims", "shared_weights", "printed_attention", "slope", "graph_digests",
                                     "tokens", "input_digests"])
    def test_metadata_without_a_saved_key_rejected(self, tmp_path, key):
        # a file written before graph digests were stored, for one, cannot prove the graphs it was trained on
        _, path = saved_toy(tmp_path)
        rewrite_metadata(path, path, lambda meta: meta.pop(key))
        with pytest.raises(FormatError, match=f"metadata lacks {key},.*train the model again"):
            load(path)

    BOOLEANS = "shared_weights and printed_attention must be true or false"

    @pytest.mark.parametrize("change, message", [
        (lambda meta: meta.update(shared_weights="false"), BOOLEANS),
        (lambda meta: meta.update(printed_attention="no"), BOOLEANS),
        (lambda meta: meta.update(shared_weights=1), BOOLEANS),
        (lambda meta: meta.update(slope=5.0), r"slope must be a number in \(0, 1\), got 5.0"),
        (lambda meta: meta.update(slope="0.2"), r"slope must be a number in \(0, 1\), got '0.2'"),
        (lambda meta: meta.update(dims=[4, 2, 3]), r"dims \[4, 2, 3\] differ from the layer widths \[4, 3, 2\]"),
    ], ids=["string-shared-flag", "string-printed-flag", "integer-shared-flag", "slope-above-1", "string-slope",
            "dims-other-than-the-header"])
    def test_mistyped_metadata_rejected(self, tmp_path, change, message):
        _, path = saved_toy(tmp_path)
        rewrite_metadata(path, path, change)
        with pytest.raises(FormatError, match=message):
            load(path)

    @pytest.mark.parametrize("field, values", [
        ("train_ptr", [0, 2, 1]),  # falls back
        ("train_ptr", [0, 1, 3]),  # ends past the training pairs
        ("train_items", [0, 2]),  # an item id past the two items
    ])
    def test_inconsistent_training_rows_rejected(self, tmp_path, field, values):
        _, path = saved_toy(tmp_path)
        table_u, stack_u, table_i, stack_i, meta, serving = load(path)
        setattr(serving, field, np.array(values, dtype=np.int64))
        arrays = (serving.users, serving.items, serving.train_ptr, serving.train_items)
        path.write_bytes(checkpoint_v2_reference(*checkpoint_sides(table_u, stack_u, table_i, stack_i),
                                                 stack_u.dims, meta, arrays))
        with pytest.raises(FormatError, match=f"serving.{field}"):
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
        header = 4 + 1 + 7 * 4 + 3 * 4 + 3 * 4  # magic, version, counts, three layer widths, three serving counts
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
