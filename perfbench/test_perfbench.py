"""Tests of the benchmark itself, on reduced-size workloads.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from operad_forge import operads  # noqa: E402

WORKLOADS = tuple(wl.BUILD)


def _worker(workload, seed, *flags):
    cmd = [sys.executable, bench.WORKER, "--workload", workload, "--seed",
           str(seed), "--size", "small", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=bench.child_env(), text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bindings():
    """Every public library function and method binding, by owner."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != tr.PACKAGE and not name.startswith(tr.PACKAGE + "."):
            continue
        for attr, obj in vars(module).items():
            out[(name, attr)] = obj
            if isinstance(obj, type):
                for mattr, mobj in vars(obj).items():
                    out[(name, attr, mattr)] = mobj
    return out


def _small(workload, seed=5, gate=None, tracer=None):
    """A reduced-size run in this process, traced when a tracer is given."""
    gate = gate or wl.Gate()
    inputs = wl.BUILD[workload](seed, "small")
    if tracer is None:
        wl.RUN[workload](inputs, gate)
    else:
        with tracer.installed():
            tracer.run_root(lambda: wl.RUN[workload](inputs, gate))
    return gate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_cache_sizes_repeat_for_a_seed(workload):
    first = _worker(workload, 3)
    second = _worker(workload, 3)
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first["counts"] == second["counts"]
    assert first["attempted"] == second["attempted"]
    sizes = {k: v for k, v in first["caches"].items() if k.endswith(".size")}
    assert sizes == {k: second["caches"][k] for k in sizes}


def test_traced_run_reports_every_per_layer_metric():
    plain = _worker("bv-master", 4)
    traced = _worker("bv-master", 4, "--trace")
    assert traced["counts"] == plain["counts"]
    assert traced["caches"] == plain["caches"]
    layers = bench.per_layer(traced, plain["wall_s"])
    assert set(layers) == set(bench.PER_LAYER)
    assert layers["bv.bv_bracket.calls"] > 0 and layers["bv.herbst_words"] > 0
    parts = [layers[f"{layer}.self_s"] for layer in tr.LAYERS]
    assert sum(parts) + layers["bench.self_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9)


def test_tracer_restores_every_binding():
    before = _bindings()
    relabel = operads.relabel
    tracer = tr.Tracer()
    with tracer.installed():
        assert operads.relabel is not relabel
    assert _bindings() == before
    gate = _small("axioms-gluing", tracer=tracer)
    assert gate.failed == 0
    assert _bindings() == before
    spans = len(tracer.sid)
    assert spans > 0 and tracer.summary()["operads.relabel"]["calls"] > 0
    # an untraced run afterwards records nothing and gives the same counts
    again = _small("axioms-gluing")
    assert len(tracer.sid) == spans
    assert again.counts == gate.counts and again.attempted == gate.attempted


def test_self_times_add_up_to_the_root(tmp_path):
    tracer = tr.Tracer()
    _small("algebra-residuals", tracer=tracer)
    root = tracer.end[0] - tracer.start[0]
    assert sum(tracer.self_times()) == pytest.approx(root, rel=1e-9)
    assert min(tracer.self_times()) > -1e-9
    base = str(tmp_path / "spans")
    tracer.write(base)
    meta, spans = tr.read_spans(base)
    assert meta["count"] == len(spans) == len(tracer.sid)
    assert spans[0][0] == tr.ROOT and spans[0][1] == -1
    assert all(0 <= p < k for k, (_, p, _, _) in enumerate(spans) if k)


class _OneMismatch(wl.Gate):
    """A gate whose first comparison reports a mismatch."""

    def same(self, lhs, rhs):
        if not hasattr(self, "_flipped"):
            self._flipped = True
            return False
        return super().same(lhs, rhs)


@pytest.mark.parametrize("workload", ["algebra-residuals", "bv-master",
                                      "axioms-gluing"])
def test_injected_mismatch_counts_as_failed(workload):
    assert _small(workload).failed == 0
    gate = _small(workload, gate=_OneMismatch())
    assert gate.failed == 1 and gate.attempted > 1


def test_a_raising_call_counts_as_failed():
    gate = wl.Gate()
    gate.part("boom", operads.basis, "no-such-kind", (1, 2), 0)
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "KindMismatch" in gate.failures[0]


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.WORKLOADS) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
