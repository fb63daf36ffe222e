"""One repetition of one workload, in a fresh single-threaded interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays interpreter start, ``import operad_forge`` and the cold module-level
caches, as each ``operad-forge`` command does.  It prints one JSON line:

* ``ready``: ``CLOCK_MONOTONIC`` when the inputs were built, from which
  ``run.py`` computes the set-up time;
* ``wall_s``: from the first call into the library to a fully checked
  result;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* the gate's attempted and failed checks and its work counts;
* with ``--trace``, the calls and self time of every span name.

Run from the root of a checkout:
``python3 perfbench/worker.py --workload bv-master --seed 1``
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import operad_forge  # noqa: E402
from operad_forge import _kernels, bv, ftalgebra, operads  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cache(owner, attr):
    """cache_info() of a library cache, or None once the cache is gone."""
    info = getattr(getattr(owner, attr, None), "cache_info", None)
    return info() if info else None


def cache_metrics() -> dict:
    """Hit ratios and sizes of the library's caches (``run.CACHES``)."""
    out = {}
    for name, owner, attr in (("operads.compose_cache", operads, "_compose"),
                              ("operads.contract_cache", operads, "_contract")):
        info = _cache(owner, attr)
        lookups = info.hits + info.misses if info else 0
        out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{name}.size"] = info.currsize if info else 0
    for name, owner, attr in (("operads.bases_cache", operads, "_qo_bases"),
                              ("bv.symmetry_cache", bv, "_symmetry"),
                              ("ftalgebra.stab_group_cache", ftalgebra,
                               "stab_group")):
        info = _cache(owner, attr)
        out[f"{name}.size"] = info.currsize if info else 0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(wl.BUILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "small"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None,
                    help="write the spans to TRACE_OUT.json and TRACE_OUT.bin")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and stop")
    args = ap.parse_args(argv)

    inputs = wl.BUILD[args.workload](args.seed, args.size)
    ready = clock()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    gate = wl.Gate()
    run = wl.RUN[args.workload]
    if args.trace:
        tracer = tr.Tracer()
        with tracer.installed():
            t0 = clock()
            tracer.run_root(lambda: run(inputs, gate))
            wall = clock() - t0
        out["trace"] = {"wall_s": tracer.end[0] - tracer.start[0],
                        "spans": len(tracer.sid), "summary": tracer.summary()}
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        t0 = clock()
        run(inputs, gate)
        wall = clock() - t0
    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        counts=gate.counts,
        caches=cache_metrics(),
        backend=_kernels.BACKEND,
        version=operad_forge.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
