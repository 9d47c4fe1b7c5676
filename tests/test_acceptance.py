"""Acceptance gate: nine checks covering gradients, fixed points,
attention normalization, oracle equivalence, graph counts, end-to-end
learning, the depth-sweep harness, determinism, and checkpoint stability.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) and then asserts the same verdict.
"""

import copy
import dataclasses
import math
import re
import time

import numpy as np
import pytest

from ckgrec.checkpoint import load, save
from ckgrec.cli import main as cli_main
from ckgrec.evaluate import (
    model_scores,
    popularity_scores,
    random_scores,
    rank_and_score,
    truth_by_user,
)
from ckgrec.graph import build_bipartite, build_graphs
from ckgrec.model import bpr_loss
from ckgrec.propagation import init_stack, propagate
from ckgrec.rng import Rng
from ckgrec.transr import EmbeddingTable, init_table, kg_loss, sample_batch

from conftest import edge_terms, fresh_table, head_edges, make_kg, rec, table, toy_cf_batch, toy_dual
from gradcheck import dense_kg_loss, finite_diff_check, total_loss
from reference import propagate_reference, softmax_reference


def _verdict(capsys, n: int, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: criterion {n} - {detail}")
    return ok


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """The canonical 300x200 synthetic dataset, written through the CLI."""
    out = tmp_path_factory.mktemp("accept_synth")
    code = cli_main([
        "synth", "--out", str(out), "--users", "300", "--items", "200",
        "--factors", "8", "--per-user", "20", "--noise", "0.1", "--seed", "42",
    ])
    assert code == 0
    return out


def test_criterion_1_gradient_fidelity(capsys):
    started = time.perf_counter()
    model, _ = toy_dual()  # 5 entities / 2 relations per side
    rng = Rng(17)
    batch_u = sample_batch(model.kg_u, np.arange(model.kg_u.n_triples), rng.split(0))
    batch_i = sample_batch(model.kg_i, np.arange(model.kg_i.n_triples), rng.split(1))
    cf = toy_cf_batch()

    def kg_fn(p):
        return dense_kg_loss(EmbeddingTable(p["entity"], p["relation"], p["projection"]), batch_u)

    table = model.table_u
    kg_report = finite_diff_check(
        kg_fn,
        {"entity": table.entity, "relation": table.relation, "projection": table.projection},
        tolerance=1e-4,
    )

    def bpr_fn(p):
        m = copy.deepcopy(model)
        m.set_params(p)
        res_u, res_i = m.propagate_both()
        return bpr_loss(m, cf, res_u, res_i)

    bpr_report = finite_diff_check(bpr_fn, model.params(), tolerance=1e-4)

    def total_fn(p):
        m = copy.deepcopy(model)
        m.set_params(p)
        total, grads, _ = total_loss(m, batch_u, batch_i, cf, lam=1e-3)
        return total, grads

    total_report = finite_diff_check(total_fn, model.params(), tolerance=1e-4)

    elapsed = time.perf_counter() - started
    reports = (kg_report, bpr_report, total_report)
    worst = max(r.max_rel_error for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 10.0
    assert _verdict(
        capsys, 1,
        ok,
        f"kg/ranking/joint losses match central differences "
        f"(max rel err {worst:.2e} <= 1e-4) in {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_fixed_points(capsys):
    # zero entities make every positive/negative energy identical
    kg = make_kg(5, [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4)])
    batch = sample_batch(kg, np.arange(4), Rng(31))
    table = fresh_table()
    table.entity[:] = 0.0
    kg_val, *_ = kg_loss(table, batch)
    kg_err = abs(kg_val - 4 * math.log(2))

    # zero embeddings give every item the same score
    model, _ = toy_dual()
    model.table_u.entity[:] = 0.0
    model.table_i.entity[:] = 0.0
    res_u, res_i = model.propagate_both()
    cf_val, _ = bpr_loss(model, toy_cf_batch(), res_u, res_i)
    cf_err = abs(cf_val - 2 * math.log(2))

    ok = kg_err <= 1e-9 and cf_err <= 1e-9
    assert _verdict(
        capsys, 2,
        ok,
        f"equal-energy kg loss and equal-score ranking loss sit at |batch|*ln2 "
        f"(off by {kg_err:.1e} and {cf_err:.1e})",
    )


def test_criterion_3_attention_normalization(capsys):
    rng = Rng(99)
    checked = 0
    worst_sum = 0.0
    worst_shift = 0.0
    graph_idx = 0
    while checked < 1000:
        g = rng.split(graph_idx)
        graph_idx += 1
        n = int(g.integers(4, 12))
        n_rel = int(g.integers(1, 4))
        triples = [
            (int(g.integers(n)), int(g.integers(n_rel)), int(g.integers(n)))
            for _ in range(int(g.integers(4, 31)))
        ]
        kg = make_kg(n, triples, n_relations=n_rel)
        table = init_table(n, n_rel, d=5, k=4, std=0.7, rng=g.split(1))
        stack = init_stack([5, 3], n_rel, 4, 0.7, g.split(2))
        layer1 = propagate(kg, table, stack).cache[0]
        pt, q = edge_terms(kg, layer1)
        for h in range(n):
            s = head_edges(kg, h)
            w = layer1.w[s]
            if not len(w) or checked >= 1000:
                continue
            checked += 1
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            logits = np.einsum("ij,ij->i", pt[s], q[s])
            shifted = np.array(softmax_reference(logits + 7.25))
            worst_shift = max(worst_shift, float(np.max(np.abs(shifted - w))))
    ok = worst_sum <= 1e-12 and worst_shift <= 1e-12
    assert _verdict(
        capsys, 3,
        ok,
        f"1000 neighborhoods: weight sums off by <= {worst_sum:.1e}, "
        f"logit shift moves weights by <= {worst_shift:.1e}",
    )


def test_criterion_4_oracle_equivalence(capsys):
    triples = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (2, 1, 4), (3, 0, 0), (0, 0, 4)]
    kg = make_kg(5, triples, n_relations=2)
    table = fresh_table(n_entities=5, n_relations=2, d=4, k=3, seed=7)
    stack = init_stack([4, 3, 2], 2, 3, 0.3, Rng(7, (22,)))
    res = propagate(kg, table, stack)
    want = propagate_reference(
        triples,
        table.entity,
        table.relation,
        table.projection,
        [table.projection, stack.attn[1]],
        stack.w1,
        stack.w2,
        0.2,
    )
    diff = float(np.max(np.abs(res.stitched - want)))
    ok = diff <= 1e-10
    assert _verdict(
        capsys, 4,
        ok,
        f"propagation matches the brute-force reference on a 5-node/6-edge graph "
        f"(max abs diff {diff:.1e})",
    )


def _random_counts_instance(rng):
    """Records plus duplicate-free attribute triples over seen entities."""
    n_u, n_i = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    types = ("view", "like", "favorite")
    records = []
    for _ in range(int(rng.integers(1, 30))):
        chosen = [t for t in types if rng.random() < 0.5] or ["view"]
        records.append(rec(f"u{int(rng.integers(n_u))}", f"i{int(rng.integers(n_i))}", *chosen))
    users = sorted({u for u, _, _ in records})
    items = sorted({i for _, i, _ in records})
    user_attrs = sorted({
        (users[int(rng.integers(len(users)))], "age", f"a{int(rng.integers(4))}")
        for _ in range(int(rng.integers(0, 8)))
    })
    item_attrs = sorted({
        (items[int(rng.integers(len(items)))], "genre", f"g{int(rng.integers(4))}")
        for _ in range(int(rng.integers(0, 8)))
    })
    return records, user_attrs, item_attrs


def test_criterion_5_graph_construction_counts(capsys):
    rng = Rng(83)
    ok = True
    for trial in range(100):
        records, user_attrs, item_attrs = _random_counts_instance(rng.split(trial))
        bg = build_bipartite(table(records))
        kg_u, kg_i, _ = build_graphs(bg, user_attrs, item_attrs)
        ok = ok and kg_u.n_triples == len(bg.edges) + len(item_attrs)
        ok = ok and kg_i.n_triples == len(bg.edges) + len(user_attrs)
    assert _verdict(
        capsys, 5,
        ok,
        "triple counts equal edges + attribute triples, exactly, on 100 random instances",
    )


def test_criterion_6_learning_works(capsys, synth_world, synth_trained):
    model = synth_trained["model"]
    wall = synth_trained["wall_s"]
    epochs = len(synth_trained["history"])
    k = 10
    train_truth = truth_by_user(synth_world["train_pairs"])
    test_truth = truth_by_user(synth_world["test_pairs"])
    n_users = synth_world["align"].n_users
    n_items = synth_world["align"].n_items

    _, model_recall = rank_and_score(model_scores(model), train_truth, test_truth, k)
    _, pop_recall = rank_and_score(
        popularity_scores(synth_world["train_pairs"], n_users, n_items),
        train_truth, test_truth, k,
    )
    _, rand_recall = rank_and_score(
        random_scores(42, n_users, n_items), train_truth, test_truth, k
    )

    # calibrated once on this dataset: popularity ~0.040, random ~0.067
    ok = (
        epochs <= 50
        and wall < 300.0
        and model_recall >= 2.0 * pop_recall
        and model_recall >= 5.0 * rand_recall
    )
    assert _verdict(
        capsys, 6,
        ok,
        f"Recall@10 {model_recall:.4f} vs 2x popularity {2 * pop_recall:.4f} "
        f"and 5x random {5 * rand_recall:.4f}, trained {epochs} epochs in {wall:.0f}s",
    )


def test_criterion_7_layer_sweep_harness(capsys, synth_dir, tmp_path):
    out = tmp_path / "sweep"
    code = cli_main([
        "sweep-layers",
        "--interactions", str(synth_dir / "interactions.tsv"),
        "--user-attrs", str(synth_dir / "user_attrs.tsv"),
        "--item-attrs", str(synth_dir / "item_attrs.tsv"),
        "--set", "d=16", "--set", "k=16", "--set", "dims=16,8,4,4",
        "--set", "epochs=5", "--set", "top_k=10",
        "--seed", "42", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    labels = [r[0] for r in rows[1:]]
    metrics = [(float(r[2]), float(r[3])) for r in rows[1:]]
    bounded = all(0.0 <= p <= 1.0 and 0.0 <= rc <= 1.0 for p, rc in metrics)
    best = re.search(r"best depth by recall: (L=\d+)", stdout)
    reported = best is not None and "reported not asserted" in stdout

    ok = code == 0 and labels == ["L=1", "L=2", "L=3", "L=4"] and bounded and reported
    assert _verdict(
        capsys, 7,
        ok,
        f"depth sweep wrote 4 rows with metrics in [0,1]; best depth "
        f"{best.group(1) if best else '?'} is data-dependent, reported not asserted",
    )


def test_criterion_8_training_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    assert cli_main([
        "synth", "--out", str(data), "--users", "20", "--items", "15",
        "--factors", "3", "--per-user", "5", "--noise", "0.1", "--seed", "7",
    ]) == 0
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "train", "--interactions", str(data / "interactions.tsv"),
            "--user-attrs", str(data / "user_attrs.tsv"),
            "--item-attrs", str(data / "item_attrs.tsv"),
            "--set", "d=8", "--set", "k=8", "--set", "layers=1", "--set", "dims=8",
            "--set", "epochs=3", "--set", "lr=0.01", "--set", "top_k=5",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        runs.append(out)
    same_ckpt = (runs[0] / "checkpoint.ckgr").read_bytes() == (runs[1] / "checkpoint.ckgr").read_bytes()
    # the last column, wall_ms, is each epoch's measured wall time; every other byte must repeat
    histories = [(run / "history.csv").read_text().splitlines() for run in runs]
    assert all(h[0].endswith(",wall_ms") for h in histories)
    losses = [[line.rsplit(",", 1)[0] for line in h] for h in histories]
    same_hist = losses[0] == losses[1]
    ok = same_ckpt and same_hist
    assert _verdict(
        capsys, 8,
        ok,
        f"two identical training runs: checkpoint bitwise equal {same_ckpt}, "
        f"loss history bitwise equal {same_hist}",
    )


def test_criterion_9_checkpoint_round_trip(capsys, tmp_path):
    ok = True
    for i in range(10):
        model, _ = toy_dual(seed=100 + i, shared_weights=(i % 2 == 0))
        first_path = tmp_path / f"a{i}.ckgr"
        save(model, first_path, {"seed": i, "epoch": i})
        first = first_path.read_bytes()
        table_u, stack_u, table_i, stack_i, meta, _ = load(first_path)
        clone = dataclasses.replace(
            model, table_u=table_u, stack_u=stack_u, table_i=table_i, stack_i=stack_i
        )
        again_path = tmp_path / f"b{i}.ckgr"
        save(clone, again_path, {"seed": meta["seed"], "epoch": meta["epoch"]})
        ok = ok and again_path.read_bytes() == first
    assert _verdict(
        capsys, 9,
        ok,
        "save -> load -> save is byte-identical across 10 random states",
    )
