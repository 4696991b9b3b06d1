"""End-to-end acceptance gate.

Ten criteria, each implemented as one test that prints a single
``criterion N: PASS/FAIL`` line (run with ``pytest -s`` to see them live).
The criteria cover: the master finite-difference oracle for the level-set
gradient, Richardson consistency of the shape/pose gradient, geometric
oracles (perimeter, area, perimeter-as-TV), PCA shape-model correctness,
prior-free segmentation accuracy, the occlusion-recovery payoff of the
shape prior, signed-distance preservation without re-initialization, the
re-initialization solver, pipeline determinism, and a lower-semicontinuity
spot check of total variation.
"""

import numpy as np
import pytest

from shapeseg import cli, contours, descent, energy, field, io, shape_prior, synth
from shapeseg.descent import DescentConfig, SegmentationState
from shapeseg.energy import EnergyWeights
from shapeseg.shape_prior import Pose


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _grid(n=128):
    ys, xs = np.mgrid[0:n, 0:n].astype(np.float64)
    return ys, xs


def _disk_sdf(cx, cy, r, n=128):
    ys, xs = _grid(n)
    return np.hypot(xs - cx, ys - cy) - r


def _vertices(phi):
    cs = contours.extract_contours(phi)
    if not cs:
        return np.zeros((0, 2))
    return np.concatenate([np.asarray(c.vertices) for c in cs])


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def clean_disk_run():
    """Default-config run on a clean two-phase disk; re-init must stay unused."""
    img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                          shape=("disk", 63.5, 63.5, 20.0),
                                          fg=200.0, bg=50.0))
    calls = []
    original = descent.reinitialize
    descent.reinitialize = lambda *a, **k: (calls.append(1), original(*a, **k))[1]
    try:
        state = descent.segment(img, None, EnergyWeights(), DescentConfig())
    finally:
        descent.reinitialize = original
    return state, len(calls)


@pytest.fixture(scope="module")
def occluded_disk_setup():
    spec = synth.SceneSpec(width=128, height=128, shape=("disk", 63.5, 63.5, 20.0),
                           occlusion=("arc", -np.pi / 6, np.pi / 6))
    img, _ = synth.render(spec)
    masks = [synth.truth_mask(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, float(r))))
             for r in (14, 16, 18, 20, 22, 24, 26)]
    model = shape_prior.build_shape_model(
        [shape_prior.sdf_from_mask(m) for m in masks], p=2)
    ang = np.linspace(-np.pi / 6 + 0.02, np.pi / 6 - 0.02, 60)
    arc = np.stack([63.5 + 20 * np.cos(ang), 63.5 + 20 * np.sin(ang)], axis=1)
    return img, model, arc


# ---------------------------------------------------------------------------
# criterion 1: master finite-difference oracle for the level-set gradient


def _local_integrand(phi, g, w):
    """Per-pixel integrand of the phi-dependent energy terms (no prior, no fit)."""
    m = energy.smooth_grad_magnitude(phi)
    return (0.5 * w.alpha * (m - 1.0) ** 2
            + w.xi * g * energy.dirac_eps(phi, w.eps) * m
            + w.beta * g * energy.heaviside_eps(-phi, w.eps))


def test_level_set_gradient_matches_finite_differences():
    """200 random single-pixel probes per fixture, 1e-5 rel / 1e-9 abs.

    A probe at (y, x) only changes the energy integrand at (y, x), (y, x-1)
    and (y-1, x) (forward-difference stencil), so the finite difference is
    taken on the sum over exactly those pixels; the untouched summands cancel
    identically, which keeps the oracle free of large-constant rounding.
    """
    w = EnergyWeights()
    rng = np.random.default_rng(0)
    img_disk, _ = synth.render(synth.SceneSpec(shape=("disk", 63.5, 63.5, 20.0)))
    img_ell, _ = synth.render(synth.SceneSpec(
        shape=("ellipse", 63.5, 63.5, 26.0, 16.0, 0.4)))
    img_occ, _ = synth.render(synth.SceneSpec(
        shape=("disk", 63.5, 63.5, 20.0), occlusion=("arc", 0.0, np.pi / 3)))
    img_noisy, _ = synth.render(synth.SceneSpec(
        shape=("disk", 63.5, 63.5, 20.0), noise_std=8.0, noise_seed=5))
    phi_smooth = field.gaussian_convolve(rng.normal(0, 30, (128, 128)), 4.0)
    fixtures = [
        (_disk_sdf(63.3, 64.1, 20), img_disk),
        (_disk_sdf(62.9, 63.8, 22), img_ell),
        (_disk_sdf(63.5, 63.6, 20), img_occ),
        (_disk_sdf(64.2, 63.1, 20), img_noisy),
        (phi_smooth, img_disk),
    ]
    h = 1e-5
    worst = 0.0
    for phi, img in fixtures:
        g = energy.edge_indicator(img, w.eta, w.sigma)
        an = descent.grad_phi_total(SegmentationState(phi=phi), g, None, w)
        r = np.random.default_rng(7)
        pys = r.integers(0, 128, 200)
        pxs = r.integers(0, 128, 200)
        for py, px in zip(pys, pxs):
            stencil = [(py, px)]
            if px > 0:
                stencil.append((py, px - 1))
            if py > 0:
                stencil.append((py - 1, px))
            vals = []
            for s in (h, -h):
                p2 = phi.copy()
                p2[py, px] += s
                wint = _local_integrand(p2, g, w)
                vals.append(sum(wint[q] for q in stencil))
            fd = (vals[0] - vals[1]) / (2 * h)
            got = an[py, px]
            err = abs(got - fd) / max(1e-5 * max(abs(got), abs(fd)), 1e-9)
            worst = max(worst, err)
    _report(1, worst < 1.0, f"worst error = {worst:.3f} of budget, 5 fixtures x 200 pixels")


# ---------------------------------------------------------------------------
# criterion 2: Richardson consistency of the shape/pose gradient


def test_parameter_gradient_richardson_consistency():
    """Halving h must cut the central-difference error ~4x (ratio >= 3.5).

    The fixture keeps every warped sample strictly inside the training
    domain (pose scale and shifts small enough that no corner sample hits
    the outside fill, which would be a kink) and uses globally linear
    training fields so bilinear resampling is exact.
    """
    ys, xs = _grid(64)
    train = [np.cos(t) * (xs - 31.5) + np.sin(t) * (ys - 31.5) - c
             for t, c in [(0.0, -2.0), (0.05, 0.0), (-0.04, 1.5), (0.02, 3.0)]]
    model = shape_prior.build_shape_model(train, p=2)
    w = EnergyWeights(gamma=0.5, nu=1.0)
    img, _ = synth.render(synth.SceneSpec(width=64, height=64,
                                          shape=("halfplane", 1.0, 0.0, 34.0)))
    img = field.gaussian_convolve(img, 2.0)
    g = energy.edge_indicator(img, w.eta, w.sigma)
    state = SegmentationState(
        phi=xs - 33.2, lam=np.array([1.0, 0.5]),
        pose=Pose(tau=0.85, theta=0.07, tx=0.4, ty=-0.3),
        i_in=field.gaussian_convolve(img * 0.9 + 10, 2.0),
        i_out=field.gaussian_convolve(img * 1.1 - 5, 2.0))
    gs = {h: descent.grad_params(state, img, g, model, w, fd_h=h)
          for h in (1e-3, 5e-4, 2.5e-4, 1.25e-4)}
    ref = (4 * gs[1.25e-4] - gs[2.5e-4]) / 3  # Richardson-extrapolated reference
    ratio = np.linalg.norm(gs[1e-3] - ref) / np.linalg.norm(gs[5e-4] - ref)
    _report(2, ratio >= 3.5, f"error ratio h -> h/2 = {ratio:.2f} (need >= 3.5)")


# ---------------------------------------------------------------------------
# criterion 3: geometric oracles (perimeter, area, perimeter-as-TV)


def test_geometric_oracles_on_disks():
    eps = 1.5
    w = EnergyWeights(eps=eps)
    ones = np.ones((128, 128))
    worst = []
    ok = True
    for r in (15, 20, 30):
        phi = _disk_sdf(63.5, 63.5, r)
        length = energy.curve_length(phi, eps)
        area = energy.energy_f3(phi, ones, w)
        tv = field.total_variation(energy.heaviside_eps(-phi, eps))
        e_len = abs(length - 2 * np.pi * r) / (2 * np.pi * r)
        e_area = abs(area - np.pi * r * r) / (np.pi * r * r)
        e_tv = abs(length - tv) / length
        ok = ok and e_len < 0.05 and e_area < 0.03 and e_tv < 0.05
        worst.append(max(e_len, e_area, e_tv))
    _report(3, ok, f"worst relative error over r in (15,20,30): {max(worst):.4f}")


# ---------------------------------------------------------------------------
# criterion 4: PCA shape-model correctness


def test_shape_model_pca_properties():
    masks = synth.ellipse_training_set(10, (18.0, 30.0), (12.0, 20.0), 128, 128)
    sdfs = [shape_prior.sdf_from_mask(m) for m in masks]
    model = shape_prior.build_shape_model(sdfs, p=9)
    flat = model.modes.reshape(model.p, -1)
    ortho = np.max(np.abs(flat @ flat.T - np.eye(model.p)))
    rms = 0.0
    for s in sdfs:
        lam = model.project(s)
        recon = shape_prior.synthesize_shape(model, lam)
        rms = max(rms, float(np.sqrt(np.mean((recon - s) ** 2))))
    share = model.variances[0] / model.variances.sum()
    ok = ortho < 1e-8 and rms < 1e-6 and share >= 0.90
    _report(4, ok, f"orthonormality {ortho:.2e}, reconstruction RMS {rms:.2e}, "
                   f"first-mode share {share:.3f}")


# ---------------------------------------------------------------------------
# criterion 5: prior-free segmentation on a clean disk


def test_prior_free_segmentation_accuracy(clean_disk_run):
    state, _ = clean_disk_run
    v = _vertices(state.phi)
    assert v.size > 0
    dist = np.abs(np.hypot(v[:, 0] - 63.5, v[:, 1] - 63.5) - 20.0)
    totals = [b.total for b in state.trace]
    tol = DescentConfig().tol
    mono = all(b <= a + tol * max(abs(a), 1.0) for a, b in zip(totals, totals[1:]))
    ok = dist.mean() <= 2.0 and mono and state.iter <= 2000
    _report(5, ok, f"mean contour distance {dist.mean():.2f} px, "
                   f"monotone={mono}, {state.iter} iterations")


# ---------------------------------------------------------------------------
# criterion 6: the shape prior completes an occluded boundary


def test_shape_prior_recovers_occluded_arc(occluded_disk_setup):
    img, model, arc = occluded_disk_setup
    w = EnergyWeights(alpha=2.0, beta=2.5, gamma=0.5)

    def arc_miss(state):
        v = _vertices(state.phi)
        if v.size == 0:
            return np.inf
        d = np.sqrt(((arc[:, None, :] - v[None, :, :]) ** 2).sum(-1)).min(1)
        return float(d.mean())

    free = descent.segment(img, None, w, DescentConfig(max_iters=2000))
    miss_free = arc_miss(free)
    prior = descent.segment(img, model, w, DescentConfig(max_iters=600))
    miss_prior = arc_miss(prior)
    ok = miss_free > 4.0 and miss_prior <= 3.0
    _report(6, ok, f"occluded-arc miss: prior-free {miss_free:.2f} px (> 4), "
                   f"with model {miss_prior:.2f} px (<= 3)")


# ---------------------------------------------------------------------------
# criterion 7: the distance penalty keeps phi SDF-like without re-init


def test_sdf_preserved_without_reinitialization(clean_disk_run):
    state, reinit_calls = clean_disk_run
    m = field.grad_magnitude(state.phi)
    far = np.abs(state.phi) > 3.0
    frac = np.mean((m[far] >= 0.5) & (m[far] <= 1.5))
    ok = frac >= 0.80 and reinit_calls == 0
    _report(7, ok, f"{100 * frac:.1f}% of far pixels keep |grad phi| in [0.5, 1.5]; "
                   f"re-init called {reinit_calls} times")


# ---------------------------------------------------------------------------
# criterion 8: the re-initialization solver restores the SDF property


def test_reinitialize_restores_unit_gradient():
    phi0 = 3.0 * _disk_sdf(63.5, 63.5, 20.0)
    out = descent.reinitialize(phi0, 100)
    med = float(np.median(field.grad_magnitude(out)))
    v0 = _vertices(phi0)
    v1 = _vertices(out)
    moved = np.sqrt(((v1[:, None, :] - v0[None, :, :]) ** 2).sum(-1)).min(1)
    ok = abs(med - 1.0) <= 0.05 and moved.max() <= 1.0
    _report(8, ok, f"median |grad phi| = {med:.4f}, "
                   f"max contour motion {moved.max():.2f} px")


# ---------------------------------------------------------------------------
# criterion 9: full pipeline determinism


def test_pipeline_is_deterministic(tmp_path):
    spec = synth.SceneSpec(width=64, height=64, shape=("disk", 31.5, 31.5, 12.0),
                           fg=200.0, bg=50.0, noise_std=5.0, noise_seed=3)
    (tmp_path / "scene.txt").write_text(synth.scene_to_kv(spec))
    cfg_text = descent.config_to_kv(EnergyWeights(), DescentConfig(max_iters=60))
    (tmp_path / "config.txt").write_text(cfg_text)
    mask_paths = []
    for i, r in enumerate((9, 11, 13, 15)):
        m = synth.truth_mask(synth.SceneSpec(width=64, height=64,
                                             shape=("disk", 31.5, 31.5, float(r))))
        p = tmp_path / f"mask{i}.pgm"
        io.write_pgm(np.where(m, 255.0, 0.0), p)
        mask_paths.append(str(p))

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        assert cli.run_cli(["synth", "--spec", str(tmp_path / "scene.txt"),
                            "--out-image", str(d / "image.pgm"),
                            "--out-truth", str(d / "truth.pgm")]) == 0
        assert cli.run_cli(["build-model", "--masks", *mask_paths,
                            "--modes", "2", "--out", str(d / "model.smdl")]) == 0
        assert cli.run_cli(["segment", "--image", str(d / "image.pgm"),
                            "--model", str(d / "model.smdl"),
                            "--config", str(tmp_path / "config.txt"),
                            "--out-dir", str(d / "run")]) == 0
        names = ["image.pgm", "truth.pgm", "model.smdl", "run/phi.sfld",
                 "run/contours.csv", "run/overlay.pgm", "run/trace.csv",
                 "run/config.txt"]
        return {n: (d / n).read_bytes() for n in names}

    a, b = run("a"), run("b")
    same = [n for n in a if a[n] == b[n]]
    ok = len(same) == len(a)
    _report(9, ok, f"{len(same)}/{len(a)} artifacts byte-identical across two runs")


# ---------------------------------------------------------------------------
# criterion 10: total variation is not above the mollified sequence


def test_tv_lower_semicontinuity_spot_check():
    chi = (_disk_sdf(63.5, 63.5, 30.0) < 0).astype(np.float64)
    tv_binary = field.total_variation(chi)
    mollified = [field.gaussian_convolve(chi, s) for s in (4.0, 2.0, 1.0, 0.5)]
    tv_min = min(field.total_variation(m) for m in mollified)
    ok = tv_binary <= tv_min * 1.05
    _report(10, ok, f"TV(binary) = {tv_binary:.1f} vs sequence minimum "
                    f"{tv_min:.1f} (+5% allowed)")
