"""The benchmark in bench/ stays in step with the package.

bench/workloads.py builds its world from the module functions the CLI
chains, and bench/tracer.py wraps module attributes by name, so a
rename or a changed result in the package breaks the benchmark without
failing any package test.  These tests read bench/ and write nothing
there; the serving test runs the benchmark's own checks on `ckgrec
evaluate` and `ckgrec recommend` output.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ckgrec import checkpoint, cli, evaluate, training
from ckgrec.rng import Rng

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        return importlib.import_module("workloads"), importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("order", ["first-seen", "sorted"])
def test_bench_world_equals_cli_world(bench, tmp_path, order):
    workloads, _ = bench
    plan = dataclasses.replace(workloads.PLANS["serve_small"], users=60, items=40)
    cfg = dataclasses.replace(workloads.write_inputs(plan, 3, str(tmp_path)), id_order=order)
    got = workloads.build_world(cfg)
    want = cli._build_world(cfg)
    assert got.bg.user_vocab.tokens() == want.bg.user_vocab.tokens()
    assert got.bg.item_vocab.tokens() == want.bg.item_vocab.tokens()
    assert got.kg_u.digest() == want.kg_u.digest()
    assert got.kg_i.digest() == want.kg_i.digest()
    for name in ("train_pairs", "val_pairs", "test_pairs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(want.train_pairs) and len(want.test_pairs)


def test_tracer_patches_resolve(bench):
    _, tracer = bench
    for module_name, attr, _ in tracer.PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_bench_checks_pass_on_cli_serving(bench, tmp_path):
    workloads, _ = bench
    plan = dataclasses.replace(workloads.PLANS["serve_small"], users=60, items=40, epochs=1)
    cfg = workloads.write_inputs(plan, 3, str(tmp_path))
    world = workloads.build_world(cfg)
    result = training.train(workloads.fresh_model(world), world.train_pairs, workloads.settings_of(cfg), Rng(cfg.seed, (13,)))
    path = str(tmp_path / "checkpoint.ckgr")
    checkpoint.save(result.model, path, {"config": cfg.to_dict(), "seed": cfg.seed, "epoch": result.best_epoch})
    attached, _ = checkpoint.attach(path, world.kg_u, world.kg_i, world.align)
    flags = ["--checkpoint", path, "--interactions", cfg.interactions,
             "--user-attrs", cfg.user_attrs, "--item-attrs", cfg.item_attrs]

    code, text = workloads.run_cli(["evaluate", *flags], None, "cli.evaluate")
    assert code == 0
    expected = workloads.expected_evaluate(world, attached, cfg.seed)
    assert workloads.evaluate_problems(workloads.parse_evaluate(text), expected) == []

    scores = evaluate.model_scores(attached)
    train_truth = evaluate.truth_by_user(world.train_pairs)
    for token in world.bg.user_vocab.tokens()[:3]:
        code, text = workloads.run_cli(["recommend", *flags, "--user", token, "--k", str(workloads.K)], None, "cli.recommend")
        assert code == 0
        u = world.bg.user_vocab.id_of(token)
        rows = workloads.parse_recommend(text)
        assert workloads.recommend_problems(rows, world, u, scores, train_truth.get(u, set())) == []


def test_served_commands_load_the_checkpoint_once_through_the_module(bench, tmp_path, monkeypatch):
    # bench/tracer.py times the served read as `checkpoint.load_s` by swapping the module attribute
    workloads, _ = bench
    plan = dataclasses.replace(workloads.PLANS["serve_small"], users=60, items=40, epochs=1)
    cfg = workloads.write_inputs(plan, 3, str(tmp_path))
    world = workloads.build_world(cfg)
    result = training.train(workloads.fresh_model(world), world.train_pairs, workloads.settings_of(cfg),
                            Rng(cfg.seed, (13,)))
    path = str(tmp_path / "checkpoint.ckgr")
    checkpoint.save(result.model, path, {"config": cfg.to_dict(), "seed": cfg.seed, "epoch": result.best_epoch})
    calls = []
    real = checkpoint.load
    monkeypatch.setattr(checkpoint, "load", lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs))
    flags = ["--checkpoint", path, "--interactions", cfg.interactions,
             "--user-attrs", cfg.user_attrs, "--item-attrs", cfg.item_attrs]
    token = world.bg.user_vocab.tokens()[0]
    for argv, span in ((["evaluate", *flags], "cli.evaluate"),
                       (["recommend", *flags, "--user", token], "cli.recommend")):
        code, _ = workloads.run_cli(argv, None, span)
        assert code == 0 and calls == [path], argv
        calls.clear()
