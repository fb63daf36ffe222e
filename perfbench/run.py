"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload axioms-relabel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The load is a closed loop with one client: each repetition is a fresh
single-threaded interpreter (``worker.py``) that makes one library call at a
time, and the next repetition starts when the previous one has exited.
Repetitions run until ``--seconds`` have passed (at least one).  Three more
interpreters only build the inputs, so that set-up is measured often enough
for a median.

With ``--trace 0`` the last line of standard output is the end-to-end
result (``END_TO_END``); with ``--trace 1`` the first half of the time goes
to untraced repetitions and one traced repetition follows, and the last line
holds the per-layer metrics (``PER_LAYER``).  The line before it is the run
record.  The spans of the traced repetition are written under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, ROOT as ROOT_SPAN, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("axioms-relabel", "axioms-gluing", "algebra-residuals", "bv-master")
SETUP_ONLY_RUNS = 3
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics (``--trace 1``), derived from the traced repetition.
SPAN_CALLS = ("operads.relabel", "operads.compose", "operads.contract",
              "operads.basis", "endo.endo_compose", "endo.endo_contract",
              "kernels.precompose_entries", "kernels.koszul_sign",
              "bv.bv_bracket", "bv.herbst_residual", "bv.string_vertex_F")
SPAN_SELF = ("operads.relabel", "endo.endo_compose", "endo.endo_contract",
             "ftalgebra.ft_residual", "bv.bv_bracket", "bv.bv_delta",
             "bv.bv_diff", "bv.master_residual", "bv.herbst_residual")
HAND_RESIDUALS = ("ftalgebra.loop_residual", "ftalgebra.cyclic_residual",
                  "ftalgebra.quantum_residual", "ftalgebra.qoc_residual")
CACHES = {  # worker.cache_metrics() reports these
    "operads.compose_cache.hit_ratio": "ratio",
    "operads.compose_cache.size": "count",
    "operads.contract_cache.hit_ratio": "ratio",
    "operads.contract_cache.size": "count",
    "operads.bases_cache.size": "count",
    "bv.symmetry_cache.size": "count",
    "ftalgebra.stab_group_cache.size": "count",
}
GATE_COUNTS = ("axioms.instances", "operads.dual_terms", "endo.twisted_instances",
               "ftalgebra.residual_keys", "ftalgebra.residual_terms",
               "bv.master_components", "bv.herbst_words")
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{n}.calls": "count" for n in SPAN_CALLS},
    **{f"{n}.self_s": "s" for n in SPAN_SELF},
    "ftalgebra.hand_residual.self_s": "s",
    **CACHES,
    "gate.checks": "count",
    **{n: "count" for n in GATE_COUNTS},
}

NOTE = ("The machine is a shared sandbox. Times are CLOCK_MONOTONIC and "
        "memory is ru_maxrss of the benchmark's own worker processes; no "
        "machine-wide tracing or profiling was used.")


class BenchError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    """The environment of a CLI user: no thread fan-out, default kernels.

    The hash seed is fixed so that two runs with one seed do the same work
    in the same order.
    """
    env = dict(os.environ)
    env.pop("OPERAD_FORGE_THREADS", None)
    env.pop("OPERAD_FORGE_PURE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, deadline, *flags) -> dict:
    """One worker interpreter; returns its JSON line plus ``setup_s``."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *flags]
    t_spawn = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} exceeded the run limit") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        out = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"worker for {workload} failed ({exc}):\n"
                         f"{proc.stderr.strip()[-2000:]}") from exc
    out["setup_s"] = out["ready"] - t_spawn
    return out


def git_sha() -> str:
    """The checked-out commit, read from .git in the checkout if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """The ``PER_LAYER`` metrics of one traced repetition."""
    summary = traced["trace"]["summary"]

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for layer in LAYERS:
        rows = [r for n, r in summary.items() if layer_of(n) == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{layer}.self_s"] = sum((r["self_s"] for r in rows), 0.0)
    out["bench.self_s"] = row(ROOT_SPAN)["self_s"]
    out["trace.wall_s"] = traced["trace"]["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    out.update({f"{n}.calls": row(n)["calls"] for n in SPAN_CALLS})
    out.update({f"{n}.self_s": row(n)["self_s"] for n in SPAN_SELF})
    out["ftalgebra.hand_residual.self_s"] = sum(
        (row(n)["self_s"] for n in HAND_RESIDUALS), 0.0)
    out.update(traced["caches"])
    out["gate.checks"] = traced["attempted"]
    out.update({n: traced["counts"].get(n, 0) for n in GATE_COUNTS})
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = clock()
    deadline = start + RUN_LIMIT_S
    setups = [spawn(workload, seed, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_ONLY_RUNS)]
    window = seconds / 2 if trace else seconds
    reps = []
    while not reps or clock() - start < window:
        reps.append(spawn(workload, seed, deadline))
    traced = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        # one file pair per workload, overwritten by the next traced run,
        # so that repeated runs do not fill the disk (about 30 MB each)
        trace_out = os.path.join(OUT_DIR, workload)
        traced = spawn(workload, seed, deadline, "--trace", "--trace-out",
                       trace_out)
    runs = reps + ([traced] if traced else [])
    setups += [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts = reps[0]["counts"]
    wall = statistics.median(r["wall_s"] for r in reps)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        layers = per_layer(traced, wall)
        result["metrics"] = {n: {"value": layers[n], "unit": u}
                             for n, u in PER_LAYER.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        result["metrics"] = {n: {"value": values[n], "unit": u}
                             for n, u in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": reps[0]["backend"],
        "repetitions": len(reps),
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "checks_attempted": attempted,
        "checks_failed": failed,
        "failed_ops": failed / attempted if attempted else 1.0,
        "failures": [f for r in runs for f in r["failures"]][:20],
        "counts": counts,
        "counts_repeat": all(r["counts"] == counts for r in runs),
        "caches": reps[0]["caches"],
        "note": NOTE,
    }
    if traced:
        record["trace_spans"] = traced["trace"]["spans"]
        record["trace_file"] = os.path.relpath(trace_out, ROOT)
    return {"record": record, "result": result}


def print_table(rows) -> None:
    print(f"{'workload':18s} {'wall_s':>9s} {'setup_s':>8s} {'peak_rss_mb':>12s}"
          f" {'failed_ops':>16s}")
    for workload, m in rows:
        r, rec = m["result"]["metrics"], m["record"]
        print(f"{workload:18s} {r['wall_s']['value']:8.3f}s "
              f"{r['setup_s']['value']:7.3f}s {r['peak_rss_mb']['value']:8.1f} MiB"
              f" {rec['checks_failed']:>6d}/{rec['checks_attempted']:<9d}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="operad-forge benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "operad_forge")):
        print("perfbench: no src/operad_forge in this checkout", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            rows = [(w, measure(w, args.seed, args.seconds, False))
                    for w in WORKLOADS]
            for _, m in rows:
                print(json.dumps({"run_record": m["record"]}))
            print_table(rows)
            return 0
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": m["record"]}))
    print(json.dumps(m["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
