"""The three benchmark workloads and the geometry they are scored with.

Each workload turns the benchmark seed into inputs (``setup``), runs the
program once on them (``run``, the timed region), and reads back what the
run produced (``collect``, untimed). All scenes are 128 x 128 and every
workload is a closed loop: one caller, the next run starts only after the
previous one returned.

The seed moves each scene only a little (disk radius 20 +- 0.1 px, wedge
start +- 15 degrees). Deterministic quality figures such as the final energy
scale with the disk area and the occluded-arc miss changes with the wedge's
angle to the grid, so a wider range would make their medians depend on
which seeds were drawn rather than on the code.
"""

import contextlib
import io as _stdio
import math
import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from shapeseg import cli, contours, descent, field, io, shape_prior, synth
from shapeseg.descent import DescentConfig
from shapeseg.energy import EnergyWeights

SIZE = 128
CENTRE = (SIZE - 1) / 2.0
RADIUS = 20.0


# ---------------------------------------------------------------------------
# geometry


def zero_crossings(phi: np.ndarray) -> np.ndarray:
    """(n, 2) points where phi changes sign along grid edges, linearly interpolated.

    Uses the marching-squares convention of ``contours``: 0 counts as
    outside, and a crossing between values v0 and v1 sits at v0 / (v0 - v1).
    """
    pts = []
    for axis in (1, 0):
        a = phi[:, :-1] if axis == 1 else phi[:-1, :]
        b = phi[:, 1:] if axis == 1 else phi[1:, :]
        cross = (a < 0) != (b < 0)
        ys, xs = np.nonzero(cross)
        t = a[cross] / (a[cross] - b[cross])
        if axis == 1:
            pts.append(np.stack([xs + t, ys.astype(np.float64)], axis=1))
        else:
            pts.append(np.stack([xs.astype(np.float64), ys + t], axis=1))
    return np.concatenate(pts)


def circle_distance(points: np.ndarray, circle) -> float:
    """Mean absolute distance of points to a circle (cx, cy, r); inf without points."""
    if len(points) == 0:
        return math.inf
    cx, cy, r = circle
    return float(np.mean(np.abs(np.hypot(points[:, 0] - cx, points[:, 1] - cy) - r)))


def contour_vertices(phi: np.ndarray) -> np.ndarray:
    cs = contours.extract_contours(phi)
    if not cs:
        return np.zeros((0, 2))
    return np.concatenate([np.asarray(c.vertices) for c in cs])


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """What one run produced, as read back after the timed region."""

    iters: int
    totals: list
    phi: np.ndarray
    descent_s: float                       # wall time inside descent.segment
    tol: float                             # the run's monotonicity tolerance
    artifacts: dict = dc_field(default_factory=dict)   # file name -> bytes
    failures: list = dc_field(default_factory=list)


def disk_scene(cx, cy, r, **kw) -> synth.SceneSpec:
    return synth.SceneSpec(width=SIZE, height=SIZE, shape=("disk", cx, cy, r), **kw)


class DiskFree:
    """Criterion-5 scene, default weights and config, prior-free descent."""

    name = "disk_free"
    accuracy_px = 2.0       # criterion 5's bound on the mean radial error
    weights = EnergyWeights()
    config = DescentConfig()

    def __init__(self, seed: int, workdir):
        u = synth.splitmix64_uniforms(seed, 3)
        self.circle = (CENTRE + 2.0 * (2 * u[0] - 1), CENTRE + 2.0 * (2 * u[1] - 1),
                       RADIUS + 0.1 * (2 * u[2] - 1))

    def setup(self):
        image, _ = synth.render(disk_scene(*self.circle))
        return image

    def warmup(self, image):
        descent.segment(image, None, self.weights, replace(self.config, max_iters=2))

    def run(self, image, span=None):
        t0 = time.perf_counter()
        state = descent.segment(image, None, self.weights, self.config)
        return state, time.perf_counter() - t0

    def collect(self, image, raw) -> Outcome:
        state, seconds = raw
        return Outcome(iters=state.iter, totals=[b.total for b in state.trace],
                       phi=state.phi, descent_s=seconds, tol=self.config.tol)

    def contour_err(self, phi) -> float:
        """Mean radial error of the contour vertices, as criterion 5 measures it."""
        return circle_distance(contour_vertices(phi), self.circle)


class ArcModel:
    """Criterion-6 scene and weights with a p=2 disk model; model descent."""

    name = "arc_model"
    accuracy_px = 3.0       # criterion 6's bound on the hidden-arc miss
    weights = EnergyWeights(alpha=2.0, beta=2.5, gamma=0.5)
    config = DescentConfig(max_iters=30)
    circle = (CENTRE, CENTRE, RADIUS)

    def __init__(self, seed: int, workdir):
        u = synth.splitmix64_uniforms(seed, 1)[0]
        self.wedge = -math.pi / 6 + (math.pi / 12) * (2 * u - 1)

    def setup(self):
        image, _ = synth.render(disk_scene(CENTRE, CENTRE, RADIUS,
                                           occlusion=("arc", self.wedge, self.wedge + math.pi / 3)))
        masks = [synth.render(disk_scene(CENTRE, CENTRE, float(r)))[1] for r in range(14, 27, 2)]
        model = shape_prior.build_shape_model([shape_prior.sdf_from_mask(m) for m in masks], p=2)
        return image, model

    def warmup(self, inputs):
        image, model = inputs
        descent.segment(image, model, self.weights, replace(self.config, max_iters=1))

    def run(self, inputs, span=None):
        image, model = inputs
        t0 = time.perf_counter()
        state = descent.segment(image, model, self.weights, self.config)
        return state, time.perf_counter() - t0

    collect = DiskFree.collect

    def contour_err(self, phi) -> float:
        """Mean distance from the hidden arc to the nearest contour vertex (criterion 6)."""
        v = contour_vertices(phi)
        if len(v) == 0:
            return math.inf
        ang = np.linspace(self.wedge + 0.02, self.wedge + math.pi / 3 - 0.02, 60)
        arc = np.stack([CENTRE + RADIUS * np.cos(ang), CENTRE + RADIUS * np.sin(ang)], axis=1)
        d = np.sqrt(((arc[:, None, :] - v[None, :, :]) ** 2).sum(-1)).min(1)
        return float(d.mean())


class Pipeline:
    """In-process CLI round trip: synth, build-model, segment, energy, reinit."""

    name = "pipeline"
    accuracy_px = None
    circle = (CENTRE, CENTRE, RADIUS)
    # five model steps keep the descent under a third of the round trip
    config = DescentConfig(max_iters=5)
    mask_radii = (16, 18, 20, 22, 24)
    reinit_iters = 20
    outputs = ("run/phi.sfld", "run/contours.csv", "run/overlay.pgm",
               "run/trace.csv", "run/config.txt")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir / "pipeline"

    def setup(self):
        d = self.dir
        d.mkdir(parents=True, exist_ok=True)
        spec = disk_scene(CENTRE, CENTRE, RADIUS, noise_std=5.0, noise_seed=self.seed)
        (d / "scene.txt").write_text(synth.scene_to_kv(spec))
        (d / "config.txt").write_text(descent.config_to_kv(EnergyWeights(), self.config))
        masks = []
        for r in self.mask_radii:
            path = d / f"mask{r}.pgm"
            io.write_pgm(np.where(synth.render(disk_scene(CENTRE, CENTRE, float(r)))[1],
                                  255.0, 0.0), path)
            masks.append(str(path))
        p = {k: str(d / k) for k in ("scene.txt", "config.txt", "image.pgm", "truth.pgm",
                                     "model.smdl", "run", "run/phi.sfld", "reinit.sfld")}
        return [
            ["synth", "--spec", p["scene.txt"], "--out-image", p["image.pgm"],
             "--out-truth", p["truth.pgm"]],
            ["build-model", "--masks", *masks, "--modes", "2", "--out", p["model.smdl"]],
            ["segment", "--image", p["image.pgm"], "--model", p["model.smdl"],
             "--config", p["config.txt"], "--out-dir", p["run"]],
            ["energy", "--image", p["image.pgm"], "--phi", p["run/phi.sfld"],
             "--model", p["model.smdl"], "--config", p["config.txt"]],
            ["reinit", "--phi", p["run/phi.sfld"], "--iters", str(self.reinit_iters),
             "--out", p["reinit.sfld"]],
        ]

    def warmup(self, commands):
        self.run(commands)

    def run(self, commands, span=None):
        """Run the five subcommands; returns (exit codes, seconds in descent.segment, output)."""
        span = span or (lambda name: contextlib.nullcontext())
        inner = descent.segment
        elapsed = []

        def timed_segment(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed.append(time.perf_counter() - t0)

        codes = []
        sink = _stdio.StringIO()
        descent.segment = timed_segment
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in commands:
                    with span("cli." + argv[0]):
                        codes.append(cli.run_cli(argv))
        finally:
            descent.segment = inner
        return codes, sum(elapsed), sink.getvalue()

    def collect(self, commands, raw) -> Outcome:
        codes, seconds, log = raw
        failures = [f"{argv[0]} exited {rc}: {log.strip()[-200:]}"
                    for argv, rc in zip(commands, codes) if rc != 0]
        if failures:
            return Outcome(iters=0, totals=[], phi=np.zeros((1, 1)), descent_s=seconds,
                           tol=self.config.tol, failures=failures)
        artifacts = {n: (self.dir / n).read_bytes() for n in self.outputs}
        rows = artifacts["run/trace.csv"].decode().strip().splitlines()[1:]
        totals = [float(r.rsplit(",", 1)[1]) for r in rows]
        iters = int(rows[-1].split(",", 1)[0]) if rows else 0
        return Outcome(iters=iters, totals=totals, phi=field.read_sfld(self.dir / "run/phi.sfld"),
                       descent_s=seconds, tol=self.config.tol, artifacts=artifacts)

    def contour_err(self, phi) -> float:
        """Mean distance of the contour vertices to the true circle."""
        return circle_distance(contour_vertices(phi), self.circle)


WORKLOADS = {w.name: w for w in (DiskFree, ArcModel, Pipeline)}


def check(outcome: Outcome, reference: Optional[Outcome]) -> list:
    """Correctness failures of one run: exit codes, finite and monotone trace, determinism."""
    failures = list(outcome.failures)
    if failures:
        return failures
    totals = outcome.totals
    if not totals:
        failures.append("empty energy trace")
    elif not all(math.isfinite(t) for t in totals):
        failures.append("non-finite energy in trace")
    elif not all(b <= a + outcome.tol * max(abs(a), 1.0) for a, b in zip(totals, totals[1:])):
        failures.append("energy trace is not monotone")
    if reference is not None and not reference.failures:
        if (outcome.iters != reference.iters or outcome.totals != reference.totals
                or not np.array_equal(outcome.phi, reference.phi)):
            failures.append("result differs from the first run of this seed")
        for name, data in reference.artifacts.items():
            if outcome.artifacts.get(name) != data:
                failures.append(f"{name} differs from the first run of this seed")
    return failures
