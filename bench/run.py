"""Benchmark entry point for ckgrec.

    python3 bench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) on the ckgrec sources in `src/` of
the checkout that holds this file, checks every output, and prints each
metric as `name value unit`, then the environment as one JSON line,
then the result as one JSON line:

    {"correct": true, "attempted": 129, "failed": 0, "metrics": {...}}

`--trace 0` measures the end-to-end metrics with nothing installed;
timings are divided by the host slowdown that a probe measures (see
workloads.py) and are also printed as measured.
`--trace 1` runs the workload twice in this process, first untraced and
then with spans around each module's public calls; it reports the
per-layer metrics and the tracing overhead, checks that both passes
produced bitwise equal results, and writes the spans to
`.bench_out/trace-<workload>-s<seed>.json`.

BLAS is pinned to one thread, and the benchmark starts no thread or
process.  Exits 0 when a result was printed and 1 when none could be.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="least time a pass measures; the workload's repeated operation fills it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_ckgrec():
    """Import ckgrec from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ckgrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no ckgrec sources at {src}")
    sys.path.insert(0, str(src))
    import ckgrec

    if Path(ckgrec.__file__).resolve().parent != src / "ckgrec":
        raise SystemExit(f"error: imported ckgrec from {ckgrec.__file__}, not from {src}")
    return ckgrec


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                fn = getattr(dll, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "os_threads": os_threads(),
        "python_threads": threading.active_count(),
    }


def measure(args, out_dir: Path) -> dict:
    """Run the workload; returns the result object printed on the last line."""
    from tracer import Tracer
    from workloads import PLANS, Pass, end_to_end, slowdown

    plan = PLANS[args.workload]
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=out_dir)
    try:
        base = Pass(plan, args.seed, _mkdir(scratch, "untraced")).run(args.seconds)
        attempted, failed, problems = base.attempted, base.failed, list(base.problems)
        if not args.trace:
            host = slowdown(base)
            metrics = end_to_end(base, host)
            measured = ", ".join(f"{name} {value!r}" for name, (value, _) in end_to_end(base, 1.0).items())
            print(f"host slowdown {host!r} (probe median over nominal); as measured: {measured}")
            print(f"test recall@10 {base.recall!r} (deterministic per seed; traced runs report it as evaluate.recall_at_10)")
        else:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("bench.run"):
                    traced = Pass(plan, args.seed, _mkdir(scratch, "traced"), tracer).run(args.seconds, base.counts)
            finally:
                tracer.uninstall()
            attempted += traced.attempted + 2
            failed += traced.failed
            problems += traced.problems
            if repr(traced.outputs) != repr(base.outputs):
                failed += 1
                problems.append("traced pass: losses, recall or recommend lists differ from the untraced pass")
            metrics = tracer.layer_metrics()
            accounted = sum(tracer.self_times().values())
            if abs(accounted - metrics["bench.wall_s"][0]) > 1e-6 * metrics["bench.wall_s"][0]:
                failed += 1
                problems.append(f"self times add up to {accounted} s, not to the wall time {metrics['bench.wall_s'][0]} s")
            metrics["trace.overhead_s"] = (traced.wall_s - base.wall_s, "s")
            metrics["evaluate.recall_at_10"] = (traced.recall, "fraction")
            spans_file = out_dir / f"trace-{args.workload}-s{args.seed}.json"
            spans_file.write_text(json.dumps({"spans": tracer.records(), "counts": dict(tracer.counts)}) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _mkdir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    os.makedirs(path)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = BLAS_THREADS
    import_ckgrec()
    from workloads import PLANS

    if args.workload not in PLANS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(PLANS)}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result = measure(args, out_dir)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {result['failed'] / result['attempted']!r} ({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
