"""The two graphs on two threads: `model.both_sides` and its callers.

Above the size gate (`DualModel.concurrent`) the user side runs on one
worker thread while the item side runs on the calling thread.  Each side
computes what it computes alone, so every result is bitwise the serial
one; below the gate no thread is started at all.
"""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from ckgrec import checkpoint, model as model_mod, training
from ckgrec.cli import main
from ckgrec.config import RunConfig
from ckgrec.evaluate import make_val_recall, model_scores
from ckgrec.model import both_sides, build_model
from ckgrec.rng import Rng


class UserError(Exception):
    pass


class ItemError(Exception):
    pass


class TestHelper:
    def test_returns_user_then_item(self):
        for concurrent in (False, True):
            assert both_sides(lambda: "u", lambda: "i", concurrent) == ("u", "i")

    def test_user_side_runs_on_the_worker_only_when_concurrent(self):
        for concurrent, elsewhere in ((False, False), (True, True)):
            here = threading.get_ident()
            user, item = both_sides(threading.get_ident, threading.get_ident, concurrent)
            assert item == here
            assert (user != here) == elsewhere

    def test_the_user_side_finishes_before_an_item_error_is_raised(self):
        done = []

        def user():
            time.sleep(0.05)
            done.append("u")

        def item():
            raise ItemError

        with pytest.raises(ItemError):
            both_sides(user, item, True)
        assert done == ["u"]

    def test_the_item_side_finishes_before_a_user_error_is_raised(self):
        done = []

        def user():
            raise UserError

        def item():
            time.sleep(0.05)
            done.append("i")

        with pytest.raises(UserError):
            both_sides(user, item, True)
        assert done == ["i"]

    @pytest.mark.parametrize("first", ["user", "item"])
    def test_when_both_raise_the_user_error_wins(self, first):
        item_raised = threading.Event()

        def user():
            if first == "item":
                assert item_raised.wait(5)
            raise UserError

        def item():
            if first == "user":
                time.sleep(0.05)
            item_raised.set()
            raise ItemError

        with pytest.raises(UserError):
            both_sides(user, item, True)

    def test_serially_a_user_error_stops_before_the_item_side(self):
        called = []

        def user():
            raise UserError

        with pytest.raises(UserError):
            both_sides(user, lambda: called.append("i"), False)
        assert called == []


def test_one_optimizer_stepped_from_both_sides_loses_no_update():
    # the two encoding phases share one Adam, each stepping its own names; threads switch as often as they can
    def stepped(concurrent):
        rng = Rng(3)
        params = {f"{side}.{j}": (rng.normal(size=(4, 3)), rng.normal(size=(4, 3))) for side in "ui" for j in range(20)}
        opt = training.Adam(0.01)

        def side(prefix):
            def run():
                for _ in range(30):
                    for name, (p, g) in params.items():
                        if name.startswith(prefix):
                            opt.step(name, p, g)
            return run

        both_sides(side("u."), side("i."), concurrent)
        return opt.t, {name: p for name, (p, _) in params.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts, params = stepped(True)
    finally:
        sys.setswitchinterval(interval)
    want_counts, want = stepped(False)
    assert counts == want_counts and set(counts.values()) == {30} and len(counts) == 40
    for name, p in params.items():
        assert np.array_equal(p, want[name])


def _fresh(world):
    return build_model(
        world["kg_u"], world["kg_i"], world["align"],
        d=16, k=16, n_layers=2, dims=(16, 8, 4), std=0.1, rng=Rng(5, (11,)),
    )


def _run(world, tmp_path, name):
    """Train with validation, then score and save: (losses, parameter digests, scores, checkpoint bytes)."""
    model = _fresh(world)
    cfg = RunConfig(lr=0.001, reg=1e-5, epochs=3, patience=3, kg_batch=512, cf_batch=1024)
    val = make_val_recall(world["train_pairs"], world["val_pairs"], 10)
    result = training.train(model, world["train_pairs"], cfg, Rng(5, (13,)), val)
    losses = [{k: v for k, v in row.items() if k != "wall_ms"} for row in result.history]
    digests = {n: hashlib.sha256(p.tobytes()).hexdigest() for n, p in model.params().items()}
    path = tmp_path / f"{name}.ckgr"
    checkpoint.save(model, path, {"seed": 5, "epoch": result.best_epoch})
    return model.concurrent, losses, digests, model_scores(model), path.read_bytes()


def test_concurrent_run_is_bitwise_the_serial_run(synth_world, tmp_path, monkeypatch):
    serial = _run(synth_world, tmp_path, "serial")
    assert serial[0] is False  # 300x200 graphs sit below the gate

    threads = {}
    real_kg_epoch = training._kg_epoch

    def kg_epoch(model, side, *args):
        threads.setdefault(side, set()).add(threading.get_ident())
        return real_kg_epoch(model, side, *args)

    monkeypatch.setattr(training, "_kg_epoch", kg_epoch)
    monkeypatch.setattr(model_mod, "EDGE_BLOCK", 0)
    concurrent = _run(synth_world, tmp_path, "concurrent")
    assert concurrent[0] is True
    assert threads["i"] == {threading.get_ident()} and threading.get_ident() not in threads["u"]

    _, losses, digests, scores, blob = serial
    assert concurrent[1] == losses
    assert concurrent[2] == digests
    assert np.array_equal(concurrent[3], scores)
    assert concurrent[4] == blob


def test_small_worlds_start_no_thread(tmp_path, monkeypatch):
    # a 300x200 train with validation, its checkpoint, a served evaluate and recommend
    monkeypatch.setattr(model_mod, "_worker", None)
    before = threading.active_count()
    data, out = tmp_path / "data", tmp_path / "run"
    synth = ["--users", "300", "--items", "200", "--factors", "8", "--per-user", "20", "--noise", "0.1"]
    assert main(["synth", "--out", str(data), *synth, "--seed", "5"]) == 0
    flags = ["--interactions", str(data / "interactions.tsv"),
             "--user-attrs", str(data / "user_attrs.tsv"), "--item-attrs", str(data / "item_attrs.tsv")]
    sets = ["--set", "d=8", "--set", "k=8", "--set", "layers=1", "--set", "dims=8", "--set", "epochs=1"]
    assert main(["train", *flags, "--out", str(out), *sets, "--seed", "5"]) == 0
    ckpt = ["--checkpoint", str(out / "checkpoint.ckgr")]
    assert main(["evaluate", *ckpt, *flags]) == 0
    assert main(["recommend", *ckpt, "--user", "u0", "--k", "5"]) == 0
    assert threading.active_count() == before
    assert model_mod._worker is None
