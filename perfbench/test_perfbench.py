"""Tests of the benchmark itself: probe geometry, tracer arithmetic, transparency.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from shapeseg.descent import DescentConfig  # noqa: E402
from tracer import Tracer  # noqa: E402


def _disk_sdf(cx, cy, r, n=64):
    ys, xs = np.mgrid[0:n, 0:n].astype(np.float64)
    return np.hypot(xs - cx, ys - cy) - r


def test_probe_finds_exactly_the_marching_squares_vertices():
    phi = _disk_sdf(30.3, 31.7, 12.4)
    probe = workloads.zero_crossings(phi)
    verts = workloads.contour_vertices(phi)[:-1]     # closed: last repeats first
    assert len(probe) == len(verts)
    assert np.array_equal(np.unique(probe, axis=0), np.unique(verts, axis=0))
    circle = (30.3, 31.7, 12.4)
    gap = workloads.circle_distance(probe, circle) - workloads.circle_distance(
        workloads.contour_vertices(phi), circle)
    assert abs(gap) <= run.PROBE_AGREE_PX


def test_tracer_self_time_and_restore():
    mod = types.ModuleType("fake")
    mod.leaf = lambda x: sum(range(x))
    mod.step = lambda x: mod.leaf(x) + mod.leaf(x)
    mod.outer = lambda x: mod.step(x) + mod.leaf(x)
    originals = (mod.leaf, mod.step, mod.outer)
    tracer = Tracer()
    targets = [(mod, "leaf", lambda a, r: 1.0), (mod, "step"), (mod, "outer")]
    with tracer.installed(targets), tracer.span("root"):
        assert mod.outer(20000) == 3 * sum(range(20000))
    assert (mod.leaf, mod.step, mod.outer) == originals
    stats = tracer.layer_stats("fake.step")
    assert stats["fake.leaf"]["calls"] == 3
    assert stats["fake.leaf"]["in_step"] == 2
    assert tracer.work["fake.leaf"] == 3.0
    for s in stats.values():
        assert 0 <= s["self_ns"] <= s["total_ns"]
    assert sum(s["self_ns"] for s in stats.values()) == stats["root"]["total_ns"]


def _shortened(cls, seed, tmp_path, max_iters):
    wl = cls(seed, tmp_path)
    wl.config = DescentConfig(max_iters=max_iters)
    return wl


def _plain_and_traced(wl):
    """Untraced outcome, traced outcome, the traced step counts and the layer stats."""
    inputs = wl.setup()
    sec, raw, error = run.execute(wl, inputs)
    plain = wl.collect(inputs, raw)
    tracer = Tracer()
    with tracer.installed(run.trace_targets()), run.observed_steps(tracer, wl.circle) as counts:
        sec, raw, error = run.execute(wl, inputs, tracer.span)
    assert error is None
    traced = wl.collect(inputs, raw)
    with run.observed_steps(Tracer(), wl.circle) as probe_only:
        run.execute(wl, inputs)
    return plain, traced, counts, probe_only, tracer.layer_stats("descent.step")


@pytest.mark.parametrize("cls, max_iters", [(workloads.DiskFree, 40),
                                            (workloads.ArcModel, 2),
                                            (workloads.Pipeline, 2)])
def test_traced_run_is_bit_identical(cls, max_iters, tmp_path):
    wl = _shortened(cls, 5, tmp_path, max_iters)
    plain, traced, counts, probe_only, _stats = _plain_and_traced(wl)
    assert workloads.check(traced, plain) == []
    assert traced.iters == plain.iters == max_iters
    assert traced.totals[-1] == plain.totals[-1]
    assert wl.contour_err(traced.phi) == wl.contour_err(plain.phi)
    assert counts == probe_only


def test_layer_counts_per_step(tmp_path):
    _p, _t, counts, _o, stats = _plain_and_traced(_shortened(workloads.DiskFree, 1, tmp_path, 40))
    assert stats["descent.step"]["calls"] == counts["steps"] == 40
    assert 3 <= stats["descent.evaluate"]["in_step"] / 40 <= 4
    assert "descent.grad_params" not in stats
    assert "descent.solve_smooth_approximant" not in stats

    _p, _t, counts, _o, stats = _plain_and_traced(_shortened(workloads.ArcModel, 1, tmp_path, 2))
    assert stats["descent.grad_params"]["in_step"] == 2
    assert stats["descent.solve_smooth_approximant"]["in_step"] == 4
    assert 17 <= stats["descent.evaluate"]["in_step"] / 2 <= 18
    assert 19 <= stats["descent.prior_field"]["in_step"] / 2 <= 20
    assert counts["param_steps"] == 2


def test_check_flags_bad_traces():
    phi = np.zeros((4, 4))
    good = workloads.Outcome(iters=3, totals=[3.0, 2.0, 2.0], phi=phi, descent_s=1.0, tol=1e-6)
    assert workloads.check(good, None) == []
    rising = workloads.Outcome(iters=2, totals=[1.0, 2.0], phi=phi, descent_s=1.0, tol=1e-6)
    assert workloads.check(rising, None) == ["energy trace is not monotone"]
    nan = workloads.Outcome(iters=2, totals=[1.0, math.nan], phi=phi, descent_s=1.0, tol=1e-6)
    assert workloads.check(nan, None) == ["non-finite energy in trace"]
    other = workloads.Outcome(iters=3, totals=[3.0, 2.0, 2.0], phi=phi + 1, descent_s=1.0, tol=1e-6)
    assert workloads.check(other, good) == ["result differs from the first run of this seed"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "disk_free",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
