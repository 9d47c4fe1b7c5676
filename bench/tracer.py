"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side, around the public calls
into each ckgrec module: `install` swaps those module attributes for
wrappers and `uninstall` puts the originals back.  A span carries its
name, start, end and parent; spans stay in memory until the run writes
them out.  A layer's self time is its span minus its child spans, so
the self times of all spans add up to the root span's wall time.

Nothing here draws random numbers or changes arguments, so a traced run
computes bit for bit what an untraced run computes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  cli imports most helpers by name, so
# both the defining module and cli's own binding are wrapped.
PATCHES = [
    ("ckgrec.ingest", "parse_interactions", "ingest.parse"),
    ("ckgrec.ingest", "parse_attribute_triples", "ingest.parse"),
    ("ckgrec.ingest", "to_implicit", "ingest.parse"),
    ("ckgrec.ingest", "merge_records", "ingest.parse"),
    ("ckgrec.ingest", "filter_min_interactions", "ingest.parse"),
    ("ckgrec.cli", "parse_interactions", "ingest.parse"),
    ("ckgrec.cli", "parse_attribute_triples", "ingest.parse"),
    ("ckgrec.cli", "to_implicit", "ingest.parse"),
    ("ckgrec.cli", "merge_records", "ingest.parse"),
    ("ckgrec.cli", "filter_min_interactions", "ingest.parse"),
    ("ckgrec.graph", "build_bipartite", "graph.build"),
    ("ckgrec.graph", "build_graphs", "graph.build"),
    ("ckgrec.cli", "build_bipartite", "graph.build"),
    ("ckgrec.cli", "build_graphs", "graph.build"),
    ("ckgrec.evaluate", "split_dataset", "evaluate.split"),
    ("ckgrec.evaluate", "pairs_of", "evaluate.split"),
    ("ckgrec.cli", "split_dataset", "evaluate.split"),
    ("ckgrec.cli", "pairs_of", "evaluate.split"),
    ("ckgrec.model", "build_model", "model.init"),
    ("ckgrec.cli", "build_model", "model.init"),
    ("ckgrec.checkpoint", "save", "checkpoint.save"),
    ("ckgrec.checkpoint", "load", "checkpoint.load"),
    ("ckgrec.checkpoint", "attach", "checkpoint.attach"),
    ("ckgrec.training", "train", "training.train"),
    ("ckgrec.training", "_kg_epoch", "training.kg"),
    ("ckgrec.training", "_cf_epoch", "training.cf"),
    ("ckgrec.training", "sample_batch", "transr.sample_batch"),
    ("ckgrec.training", "kg_loss", "transr.kg_loss"),
    ("ckgrec.training", "bpr_loss", "model.bpr_loss"),
    ("ckgrec.training", "Adam.step", "training.adam"),
    ("ckgrec.model", "propagate", "propagation.forward"),
    ("ckgrec.model", "propagate_backward", "propagation.backward"),
    ("ckgrec.evaluate", "model_scores", "evaluate.model_scores"),
    ("ckgrec.evaluate", "rank_and_score", "evaluate.rank"),
    ("ckgrec.cli", "model_scores", "evaluate.model_scores"),
    ("ckgrec.cli", "rank_and_score", "evaluate.rank"),
]


def _span_name(name: str, args) -> str:
    if name == "training.kg":  # _kg_epoch(model, side, ...) runs one graph's phase
        return f"training.kg_{args[1]}"
    return name


def _count(counts: Counter, name: str, args) -> None:
    counts[name + ".calls"] += 1
    if name == "propagation.forward":
        counts["propagation.edges"] += len(args[0].heads)
    elif name == "evaluate.rank":
        counts["evaluate.users_ranked"] += sum(1 for items in args[2].values() if items)


# span name -> per-layer metric of its summed self time
SELF_METRICS = {
    "ingest.parse": "ingest.parse_s",
    "graph.build": "graph.build_s",
    "evaluate.split": "evaluate.split_s",
    "model.init": "model.init_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s",
    "checkpoint.attach": "checkpoint.attach_s",
    "training.train": "training.self_s",
    "training.kg_u": "training.kg_u_s",
    "training.kg_i": "training.kg_i_s",
    "training.cf": "training.cf_s",
    "training.adam": "training.adam_s",
    "transr.sample_batch": "transr.sample_batch_s",
    "transr.kg_loss": "transr.kg_loss_s",
    "model.bpr_loss": "model.bpr_loss_self_s",
    "propagation.forward": "propagation.forward_s",
    "propagation.backward": "propagation.backward_s",
    "evaluate.model_scores": "evaluate.model_scores_s",
    "evaluate.rank": "evaluate.rank_s",
    "cli.evaluate": "cli.evaluate_self_s",
    "cli.recommend": "cli.recommend_self_s",
    "bench.run": "bench.self_s",
}

# counter -> per-layer metric
COUNT_METRICS = {
    "transr.sample_batch.calls": "transr.sample_batch_calls",
    "transr.kg_loss.calls": "transr.kg_loss_calls",
    "training.adam.calls": "training.adam_steps",
    "propagation.forward.calls": "propagation.forward_calls",
    "evaluate.users_ranked": "evaluate.users_ranked",
    "checkpoint.bytes": "checkpoint.bytes",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.paused = False
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def pause(self):
        """Calls made inside run untraced; their time stays with the open span."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            _count(self.counts, name, args)
            with self.span(_span_name(name, args)):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child_time in zip(self.spans, covered):
            out[name] += (end - start) - child_time
        return dict(out)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        selfs = self.self_times()
        out = {metric: (selfs.get(span, 0.0), "s") for span, metric in SELF_METRICS.items()}
        out.update({metric: (self.counts[key], "count") for key, metric in COUNT_METRICS.items()})
        calls = self.counts["propagation.forward.calls"]
        out["propagation.edges_per_call"] = (self.counts["propagation.edges"] / calls if calls else 0.0, "count")
        roots = [end - start for _, start, end, parent in self.spans if parent < 0]
        out["bench.wall_s"] = (sum(roots), "s")
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
