import copy
import dataclasses
import re
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeseg import contours, descent, energy, field, shape_prior, synth
from shapeseg.descent import DescentConfig, SegmentationState
from shapeseg.energy import EnergyWeights
from shapeseg.shape_prior import Pose

from conftest import disk_sdf, disk_mask, grid, traced_peak


W = EnergyWeights()
# why a test of what segment holds during a step cannot pass on Python 3.10
HELD_ARGUMENTS = ("before Python 3.11 a caller holds a call's arguments until it returns, "
                  "so the state segment hands to step lives through the whole step")


def smooth_phi(h, w):
    # an SDF-ish field with symmetry deliberately broken so no pixel has an
    # accidentally vanishing gradient
    base = disk_sdf(h, w, w / 2 - 1.3, h / 2 + 0.7, min(h, w) / 4)
    xs, ys = grid(h, w)
    return base + 0.35 * np.sin(0.31 * xs + 0.5) * np.cos(0.23 * ys + 1.1)


def smooth_image(h, w, seed=7):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, size=(h, w))
    return field.gaussian_convolve(img, 2.0)


@pytest.fixture(scope="module")
def disk_model():
    masks = [disk_mask(48, 48, 23.5, 23.5, r) for r in (8, 10, 12, 14, 16)]
    sdfs = [shape_prior.sdf_from_mask(m) for m in masks]
    return shape_prior.build_shape_model(sdfs, p=2)


def fd_phi_gradient(state, image, g, model, w, pixels, h=1e-4):
    # F4 does not depend on phi (checked exactly below), so differencing the
    # total without it is the same derivative minus the rounding noise of a
    # large constant
    out = {}
    for (py, px) in pixels:
        vals = []
        f4s = []
        for s in (+h, -h):
            phi = state.phi.copy()
            phi[py, px] += s
            st = SegmentationState(phi=phi, lam=state.lam, pose=state.pose,
                                   i_in=state.i_in, i_out=state.i_out)
            bd = descent.evaluate(st, image, g, model, w)
            vals.append(0.5 * w.alpha * bd.f1 + bd.f2 + w.beta * bd.f3)
            f4s.append(bd.f4)
        assert f4s[0] == f4s[1]
        out[(py, px)] = (vals[0] - vals[1]) / (2 * h)
    return out


class TestGradPhiTotal:
    def _check(self, state, image, g, model, w):
        an = descent.grad_phi_total(state, g, model, w)
        rng = np.random.default_rng(11)
        # random pixels plus a band of near-contour ones where every term is live
        pix = [(int(y), int(x)) for y, x in
               zip(rng.integers(0, image.shape[0], 40),
                   rng.integers(0, image.shape[1], 40))]
        band = np.argwhere(np.abs(state.phi) < 2 * w.eps)
        pix += [tuple(band[i]) for i in rng.integers(0, len(band), 20)]
        fd = fd_phi_gradient(state, image, g, model, w, pix)
        for p, want in fd.items():
            got = an[p]
            assert abs(got - want) <= 1e-5 * max(abs(got), abs(want)) + 1e-9, \
                f"pixel {p}: analytic {got} vs FD {want}"

    def test_matches_fd_prior_free(self):
        h, w_ = 48, 48
        phi = smooth_phi(h, w_)
        image = smooth_image(h, w_)
        g = energy.edge_indicator(image, W.eta, W.sigma)
        self._check(SegmentationState(phi=phi), image, g, None, W)

    def test_matches_fd_with_model(self, disk_model):
        h, w_ = 48, 48
        phi = smooth_phi(h, w_)
        image = smooth_image(h, w_, seed=9)
        g = energy.edge_indicator(image, W.eta, W.sigma)
        lam = 0.4 * disk_model.lambda_box[:, 1]
        pose = Pose(tau=1.1, theta=0.2, tx=1.3, ty=-0.8)
        rng = np.random.default_rng(2)
        state = SegmentationState(phi=phi, lam=lam, pose=pose,
                                  i_in=field.gaussian_convolve(
                                      rng.uniform(0, 255, (h, w_)), 2.0),
                                  i_out=field.gaussian_convolve(
                                      rng.uniform(0, 255, (h, w_)), 2.0))
        w = EnergyWeights(gamma=0.05)
        self._check(state, image, g, disk_model, w)

    def test_nonfinite_aborts(self):
        phi = smooth_phi(16, 16)
        phi[3, 3] = np.nan
        g = np.ones_like(phi)
        with pytest.raises(descent.NumericalAbort):
            descent.grad_phi_total(SegmentationState(phi=phi), g, None, W)


class TestGradParams:
    def _state(self, disk_model, lam=None, pose=None, seed=4):
        rng = np.random.default_rng(seed)
        img = 50.0 + 150.0 * (disk_sdf(48, 48, 23.5, 23.5, 12) < 0)
        img = field.gaussian_convolve(img + rng.normal(0, 2, img.shape), 1.0)
        st = SegmentationState(
            phi=disk_sdf(48, 48, 23.5, 23.5, 12),
            lam=np.zeros(disk_model.p) if lam is None else lam,
            pose=Pose() if pose is None else pose,
            i_in=np.full_like(img, 200.0), i_out=np.full_like(img, 50.0))
        g = energy.edge_indicator(img, W.eta, W.sigma)
        return st, img, g

    def test_directional_derivative(self, disk_model):
        st, img, g = self._state(disk_model, pose=Pose(tau=1.07, theta=0.13,
                                                       tx=0.6, ty=-0.4))
        w = EnergyWeights(gamma=0.05)
        gp = descent.grad_params(st, img, g, disk_model, w, fd_h=1e-3)
        rng = np.random.default_rng(6)
        u = rng.normal(size=len(gp))
        u /= np.linalg.norm(u)
        t = 1e-3
        x0 = np.concatenate([st.lam, st.pose.as_vector()])

        def energy_at(x):
            return descent.evaluate(descent._with_params(st, x), img, g, disk_model, w).total

        dd = (energy_at(x0 + t * u) - energy_at(x0 - t * u)) / (2 * t)
        assert abs(dd - u @ gp) < 1e-2 * max(abs(dd), 1.0)

    def test_rotation_dead_for_radial_prior(self, disk_model):
        # disks are rotation-invariant about the center, so the theta
        # component must vanish next to the live tau component
        st, img, g = self._state(disk_model)
        w = EnergyWeights(gamma=0.05)
        gp = descent.grad_params(st, img, g, disk_model, w, fd_h=1e-3)
        i_tau, i_theta = disk_model.p, disk_model.p + 1
        assert abs(gp[i_theta]) < 1e-3 * max(abs(gp[i_tau]), 1.0)

    def test_boxed_probe_at_edge(self, disk_model):
        # a parameter pinned at its box edge degrades to a one-sided
        # difference and stays finite
        st, img, g = self._state(disk_model)
        st.lam = disk_model.lambda_box[:, 1].copy()
        gp = descent.grad_params(st, img, g, disk_model, W, fd_h=1e-3)
        assert np.all(np.isfinite(gp))

    def test_translation_box_spans_the_domain(self):
        # a 4x600 grid: placements along the long side need |tx| > 255
        model = shape_prior.ShapeModel(mean=np.zeros((4, 600)),
                                       modes=np.full((1, 4, 600), 1 / np.sqrt(2400)),
                                       variances=np.ones(1))
        lo, hi = descent._param_boxes(model)
        t = (1.0 + shape_prior.TAU_MAX) * np.hypot(599, 3)
        assert t > 255
        assert np.array_equal(hi[-2:], [t, t]) and np.array_equal(lo[-2:], [-t, -t])


class TestSolveSmoothApproximant:
    def _quad_matrix(self, image, wgt, mu):
        # assemble the exact quadratic 0.5 x'Ax + b'x + c from evaluations
        n = image.size
        zero = np.zeros(n)

        def q(x):
            return descent.quad_objective(x.reshape(image.shape), image, wgt, mu)

        q0 = q(zero)
        e = np.eye(n)
        qi = np.array([q(e[i]) for i in range(n)])
        a = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = q(e[i] + e[j]) - qi[i] - qi[j] + q0
        b = qi - q0 - 0.5 * np.diag(a)
        return a, b

    @pytest.mark.parametrize("shape", [(2, 2), (7, 6), (24, 20)])
    @pytest.mark.parametrize("mu", [0.0, 0.37, 1e3])
    def test_quad_objective_matches_written_out_formula(self, rng, shape, mu):
        img = rng.uniform(0, 255, size=shape)
        j = rng.uniform(0, 255, size=shape)
        wgt = rng.uniform(0.0, 1.0, size=shape)
        gx, gy = field.grad(j)
        want = float(np.sum(wgt * ((img - j) ** 2 + mu * (gx * gx + gy * gy))))
        assert descent.quad_objective(j, img, wgt, mu).hex() == want.hex()

    def test_matches_direct_solve(self, rng):
        img = rng.uniform(0, 10, size=(6, 5))
        wgt = rng.uniform(0.2, 1.0, size=(6, 5))
        mu = 0.7
        a, b = self._quad_matrix(img, wgt, mu)
        want = np.linalg.solve(a, -b).reshape(img.shape)
        got = descent.solve_smooth_approximant(img, wgt, mu, 3000, np.zeros_like(img))
        assert np.max(np.abs(got - want)) < 1e-8

    def test_mu_zero_decouples(self, rng):
        img = rng.uniform(0, 10, size=(8, 8))
        wgt = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
        warm = np.full_like(img, -3.0)
        got = descent.solve_smooth_approximant(img, wgt, 0.0, 5, warm)
        assert np.array_equal(got[wgt > 0], img[wgt > 0])
        assert np.array_equal(got[wgt == 0], warm[wgt == 0])

    def test_objective_monotone_per_sweep(self, rng):
        img = rng.uniform(0, 255, size=(16, 16))
        wgt = rng.uniform(0.0, 1.0, size=(16, 16))
        mu = 2.0
        j = rng.normal(0, 100, size=img.shape)
        vals = [descent.quad_objective(j, img, wgt, mu)]
        for _ in range(15):
            j = descent.solve_smooth_approximant(img, wgt, mu, 1, j)
            vals.append(descent.quad_objective(j, img, wgt, mu))
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(vals, vals[1:]))

    def test_large_mu_flattens(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(12, 12))
        wgt = np.ones_like(img)
        got = descent.solve_smooth_approximant(img, wgt, 1e6, 4000, img.copy())
        assert np.ptp(got) < 0.05 * np.ptp(img)
        # the flat value a weighted field settles near is the mean
        assert abs(got.mean() - img.mean()) < 5.0

    @staticmethod
    def _scalar_red_black(image, wgt, mu, sweeps, warm):
        # per-pixel reference: the same normal equation, the same operation
        # order, pixels of one colour updated from the other colour's values
        h, w = image.shape
        j = warm.astype(np.float64).copy()
        for _ in range(sweeps):
            for color in (0, 1):
                for y in range(h):
                    for x in range(w):
                        if (x + y) % 2 != color:
                            continue
                        wl = wgt[y, x - 1] if x > 0 else 0.0
                        wu = wgt[y - 1, x] if y > 0 else 0.0
                        nf = 2.0 - (x == w - 1) - (y == h - 1)
                        diag = wgt[y, x] + mu * (wgt[y, x] * nf + wl + wu)
                        if not diag > 0:
                            continue
                        jr = j[y, x + 1] if x < w - 1 else 0.0
                        jd = j[y + 1, x] if y < h - 1 else 0.0
                        jl = j[y, x - 1] if x > 0 else 0.0
                        ju = j[y - 1, x] if y > 0 else 0.0
                        rhs = wgt[y, x] * image[y, x] + mu * (
                            wgt[y, x] * (jr + jd) + wl * jl + wu * ju)
                        j[y, x] = rhs / diag
        return j

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 6), (12, 13)])
    @pytest.mark.parametrize("mu", [0.0, 0.37, 1.0, 1e3])
    def test_matches_scalar_reference(self, shape, mu):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        img = rng.uniform(0, 255, size=shape)
        wgt = rng.uniform(0.0, 1.0, size=shape)
        wgt[rng.uniform(size=shape) < 0.3] = 0.0
        warm = rng.normal(100, 50, size=shape)
        got = descent.solve_smooth_approximant(img, wgt, mu, 4, warm)
        want = self._scalar_red_black(img, wgt, mu, 4, warm)
        assert np.array_equal(got, want)

    # (shape, live block as (row, column) slices): blocks at every parity of
    # row and column offset, one live pixel at each corner and edge, thin
    # grids, and empty blocks (an all-zero weight returns the warm start)
    BLOCKS = [
        ((12, 13), (slice(2, 7), slice(4, 10))),
        ((12, 13), (slice(3, 8), slice(5, 9))),
        ((12, 13), (slice(2, 9), slice(5, 8))),
        ((12, 13), (slice(3, 6), slice(4, 11))),
        ((12, 13), (slice(5, 6), slice(7, 8))),
        ((12, 13), (slice(1, 12), slice(0, 2))),
        *[((9, 8), (slice(y, y + 1), slice(x, x + 1)))
          for y, x in ((0, 0), (0, 7), (8, 0), (8, 7), (0, 3), (8, 4), (4, 0), (3, 7))],
        ((1, 11), (slice(0, 1), slice(3, 8))),
        ((1, 11), (slice(0, 1), slice(4, 5))),
        ((11, 1), (slice(4, 9), slice(0, 1))),
        ((11, 1), (slice(3, 4), slice(0, 1))),
        ((7, 6), (slice(0, 0), slice(0, 0))),
        ((1, 9), (slice(0, 0), slice(0, 0))),
    ]

    @pytest.mark.parametrize("shape,block", BLOCKS)
    @pytest.mark.parametrize("mu", [0.0, 0.37, 1e3])
    def test_live_block_matches_scalar_reference(self, shape, block, mu):
        # the weight is zero outside the block (and in a few pixels inside it)
        rng = np.random.default_rng(shape[0] * 131 + block[0].start * 17 + block[1].start)
        img = rng.uniform(0, 255, size=shape)
        wgt = np.zeros(shape)
        wgt[block] = rng.uniform(0.05, 1.0, size=wgt[block].shape)
        wgt[block][rng.uniform(size=wgt[block].shape) < 0.2] = 0.0
        warm = rng.normal(100, 50, size=shape)
        got = descent.solve_smooth_approximant(img, wgt, mu, 4, warm)
        want = self._scalar_red_black(img, wgt, mu, 4, warm)
        assert np.array_equal(got, want) and got is not warm

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            descent.solve_smooth_approximant(np.zeros((4, 4)), np.ones((4, 4)),
                                             -1.0, 1, np.zeros((4, 4)))


def assert_matches_reference(img, wgt, mu, warm, sweeps):
    """The solver equals the reference, which never stops early, at each sweep count."""
    # the reference at each count runs on from its output at the count before
    want, done = np.array(warm, dtype=np.float64), 0
    for n in sweeps:
        want = _sublattice_reference(img, wgt, mu, n - done, want)
        done = n
        got = descent.solve_smooth_approximant(img, wgt, mu, n, warm)
        assert got.tobytes() == want.tobytes() and got is not warm


class TestSolverMatchesSublatticeReference:
    MUS = [0.0, 0.37, 1.0, 1e3]
    # the solver stops once a sweep changes no bit, which these counts reach
    # before, at and after its checks
    SWEEPS = (0, 1, 2, 3, 20, 100, 1000)

    @pytest.mark.parametrize("mu", MUS)
    def test_full_grid_weights(self, mu):
        # the arc_model prior region at its mean shape (a disk of radius 20), its
        # complement, and random weights with zeros
        img = smooth_image(128, 128)
        rng = np.random.default_rng(5)
        region = energy.heaviside_eps(-disk_sdf(128, 128, 63.5, 63.5, 20.0), W.eps)
        noisy = rng.uniform(0.0, 1.0, size=img.shape)
        noisy[rng.uniform(size=img.shape) < 0.3] = 0.0
        warm = np.full_like(img, img.mean())
        for wgt in (region, 1.0 - region, noisy):
            assert_matches_reference(img, wgt, mu, warm, self.SWEEPS)

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("shape", [(12, 13), (9, 1), (2, 2)])
    def test_fixed_point_warm_start(self, shape, mu):
        # the solver's own output run on from the exact solution, where it settles
        # within a few sweeps (from a random start, mu = 1e3 takes about 5e4)
        h, w = shape
        rng = np.random.default_rng(h * 29 + w)
        img = rng.uniform(0, 255, size=shape)
        wgt = rng.uniform(0.05, 1.0, size=shape)
        wgt[rng.uniform(size=shape) < 0.3] = 0.0
        warm = rng.normal(100, 50, size=shape)
        fixed = descent.solve_smooth_approximant(img, wgt, mu, 4 ** 6,
                                                 _direct_solution(img, wgt, mu, warm))
        assert _sublattice_reference(img, wgt, mu, 1, fixed).tobytes() == fixed.tobytes()
        assert_matches_reference(img, wgt, mu, fixed, self.SWEEPS)

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("shape", [(64, 64), (12, 13), (9, 1)])
    def test_nan_and_negative_zero_warm_starts(self, shape, mu):
        # NaN at a pixel of positive weight spreads until it too is a fixed
        # point, and -0.0 at every pixel of zero weight differs from 0.0 only in
        # its bits: the solver must stop exactly where the reference's sweeps do
        h, w = shape
        rng = np.random.default_rng(h * 31 + w)
        img = rng.uniform(0, 255, size=shape)
        if h > 16:
            wgt = 1.0 - energy.heaviside_eps(-disk_sdf(h, w, 31.5, 31.5, 10.0), W.eps)
        else:
            wgt = rng.uniform(0.05, 1.0, size=shape)
            wgt[rng.uniform(size=shape) < 0.3] = 0.0
        warm = rng.normal(100, 50, size=shape)
        nan = warm.copy()
        live = np.flatnonzero(wgt > 0)
        nan.flat[live[len(live) // 2]] = np.nan
        for start in (nan, np.where(wgt == 0, -0.0, warm)):
            assert_matches_reference(img, wgt, mu, start, self.SWEEPS)

    @pytest.mark.parametrize("mu", [0.37, 1e3])
    @pytest.mark.parametrize("shape", [(64, 64), (12, 13), (9, 1)])
    def test_warm_starts_that_fool_a_weaker_check(self, shape, mu):
        # red already the update of black (the state halfway through a sweep),
        # where a sweep leaves red as it was but not black; and zeros that differ
        # only in sign, where a sweep leaves every value equal as a float while a
        # 0.0 spreads through a field of -0.0 (the image is -0.0, so a pixel
        # stays -0.0 only while all its neighbours are)
        h, w = shape
        rng = np.random.default_rng(h * 37 + w)
        img = rng.uniform(0, 255, size=shape)
        wgt = rng.uniform(0.05, 1.0, size=shape)
        warm = rng.normal(100, 50, size=shape)
        ys, xs = np.indices(shape)
        red = (xs + ys) % 2 == 0
        half = np.where(red, _sublattice_reference(img, wgt, mu, 2, warm),
                        _sublattice_reference(img, wgt, mu, 1, warm))
        assert_matches_reference(img, wgt, mu, half, self.SWEEPS)
        zeros = np.full(shape, -0.0)
        zeros[h // 2, w // 2] = 0.0
        assert_matches_reference(np.full(shape, -0.0), wgt, mu, zeros, self.SWEEPS)
        spread = descent.solve_smooth_approximant(np.full(shape, -0.0), wgt, mu, 20, zeros)
        assert np.all(spread == 0) and np.sum(~np.signbit(spread)) > 1

    def test_fixed_point_returns_at_once(self):
        # the arc_model I_out solve once it has settled: a fixed-point warm start
        # stops after the first sweep, whatever the count
        img = smooth_image(128, 128)
        wgt = 1.0 - energy.heaviside_eps(-disk_sdf(128, 128, 63.5, 63.5, 20.0), W.eps)
        fixed = descent.solve_smooth_approximant(img, wgt, W.mu, 10 ** 4,
                                                 np.full_like(img, img.mean()))
        assert _sublattice_reference(img, wgt, W.mu, 1, fixed).tobytes() == fixed.tobytes()
        t0 = time.perf_counter()
        got = descent.solve_smooth_approximant(img, wgt, W.mu, 10 ** 5, fixed)
        # 10**5 sweeps of this grid take seconds; one takes well under a millisecond
        assert time.perf_counter() - t0 < 1.0
        assert got.tobytes() == fixed.tobytes()

    def test_negative_sweeps_rejected(self):
        # a negative count used to run no sweep and return the warm start
        with pytest.raises(ValueError, match="sweeps must be non-negative"):
            descent.solve_smooth_approximant(np.zeros((4, 4)), np.ones((4, 4)),
                                             0.5, -1, np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 8), (1, 9), (8, 1), (9, 1), (6, 7), (7, 6),
                                       (12, 13), (13, 12), (10, 10)])
    @pytest.mark.parametrize("mu", MUS)
    def test_blocks_on_small_grids(self, shape, mu):
        # blocks whose first pixel has either colour (so the sweep span starts on
        # either index parity), the whole grid, and an empty weight
        h, w = shape
        rng = np.random.default_rng(h * 37 + w)
        img = rng.uniform(0, 255, size=shape)
        warm = rng.normal(100, 50, size=shape)
        weights = [np.zeros(shape)]
        for y0, x0 in ((0, 0), (0, 1), (1, 0), (1, 1), (h // 2, w // 2)):
            wgt = np.zeros(shape)
            block = (slice(min(y0, h - 1), h - h // 3), slice(min(x0, w - 1), w - w // 4))
            wgt[block] = rng.uniform(0.05, 1.0, size=wgt[block].shape)
            wgt[rng.uniform(size=shape) < 0.2] = 0.0
            weights.append(wgt)
        for wgt in weights:
            assert_matches_reference(img, wgt, mu, warm, (0, 1, 2, 3, 20, 100))

    # (shape, box of positive weights as (row, column) slices): boxes on each
    # edge and in each corner, one-pixel boxes, the whole grid, and box origins
    # of both colours ((row + column) % 2 of the first pixel)
    CROP_BOXES = [
        *[(shape, box) for shape in ((12, 13), (13, 12)) for box in (
            (slice(0, 4), slice(3, 8)), (slice(None, -4), slice(None, 5)),
            (slice(-5, None), slice(3, 9)), (slice(3, 8), slice(-4, None)),
            (slice(0, 4), slice(0, 5)), (slice(0, 5), slice(-6, None)),
            (slice(-4, None), slice(0, 4)), (slice(-5, None), slice(-5, None)),
            (slice(2, 7), slice(3, 9)), (slice(2, 7), slice(4, 9)),
            (slice(3, 9), slice(3, 10)), (slice(3, 9), slice(4, 10)),
            (slice(None), slice(None)))],
        *[((9, 8), (slice(y, y + 1), slice(x, x + 1)))
          for y, x in ((0, 0), (0, 7), (8, 0), (8, 7), (4, 4), (4, 5), (0, 3), (5, 0))],
        ((1, 1), (slice(None), slice(None))),
        ((1, 9), (slice(0, 1), slice(3, 4))),
        ((9, 1), (slice(4, 5), slice(0, 1))),
    ]

    @pytest.mark.parametrize("shape,box", CROP_BOXES)
    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("outside", [0.0, -0.3], ids=["zero", "negative"])
    def test_weight_boxes(self, shape, box, mu, outside):
        # zeros inside the box too, and beyond it a zero or a negative weight,
        # which the solver still reads on its box's edge
        rng = np.random.default_rng(shape[0] * 7 + shape[1] + 3 * (box[0].start or 0)
                                    + (box[1].start or 0))
        img = rng.uniform(0, 255, size=shape)
        warm = rng.normal(100, 50, size=shape)
        wgt = np.full(shape, outside)
        wgt[box] = rng.uniform(0.05, 1.0, size=wgt[box].shape)
        wgt[box][rng.uniform(size=wgt[box].shape) < 0.2] = 0.0
        wgt[box][0, 0] = 0.5                    # the box is exactly the positive weights'
        wgt[box][-1, -1] = 0.5
        assert_matches_reference(img, wgt, mu, warm, (0, 1, 2, 3, 20))

    @pytest.mark.parametrize("shape", [(1, 1), (6, 7), (12, 13)])
    @pytest.mark.parametrize("outside", [0.0, -0.3], ids=["zero", "negative"])
    def test_no_positive_weight_returns_a_copy_of_the_warm_start(self, shape, outside):
        rng = np.random.default_rng(11)
        img = rng.uniform(0, 255, size=shape)
        warm = rng.normal(100, 50, size=shape)
        wgt = np.full(shape, outside)
        for sweeps in (0, 20):
            got = descent.solve_smooth_approximant(img, wgt, 0.37, sweeps, warm)
            want = _sublattice_reference(img, wgt, 0.37, sweeps, warm)
            assert got.tobytes() == want.tobytes() == warm.tobytes()
            assert not np.shares_memory(got, warm)

    def test_integer_inputs_give_a_fresh_float_array(self):
        img = np.arange(35).reshape(5, 7) * 3
        warm = np.full((5, 7), 40)
        wgt = (img % 4 > 0).astype(np.float64)
        for sweeps in (0, 3):
            got = descent.solve_smooth_approximant(img, wgt, 0.5, sweeps, warm)
            want = _sublattice_reference(img, wgt, 0.5, sweeps, warm)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _direct_solution(image, wgt, mu, warm):
    """The dense solve of the normal equations; a pixel with diag <= 0 keeps its warm value."""
    h, w = image.shape
    wl = np.zeros_like(wgt); wl[:, 1:] = wgt[:, :-1]
    wu = np.zeros_like(wgt); wu[1:, :] = wgt[:-1, :]
    nf = np.full((h, w), 2.0)
    nf[:, -1] -= 1.0
    nf[-1, :] -= 1.0
    diag = wgt + mu * (wgt * nf + wl + wu)
    a = np.zeros((h * w, h * w))
    b = np.where(diag > 0, wgt * image, warm).ravel()
    for y in range(h):
        for x in range(w):
            i = y * w + x
            if not diag[y, x] > 0:
                a[i, i] = 1.0
                continue
            a[i, i] = diag[y, x]
            for ok, k, c in ((x < w - 1, i + 1, wgt[y, x]), (y < h - 1, i + w, wgt[y, x]),
                             (x > 0, i - 1, wl[y, x]), (y > 0, i - w, wu[y, x])):
                if ok:
                    a[i, k] -= mu * c
    return np.linalg.solve(a, b).reshape(h, w)


def _sublattice_reference(image, wgt, mu, sweeps, warm):
    # red-black Gauss-Seidel over four strided sublattices: on an even grid pitch
    # one colour is two strides, rows r::2 and columns (c + r)::2
    h, w = image.shape
    jp = np.zeros((h + 2, w + 2))
    jp[1:-1, 1:-1] = warm
    wl = np.zeros_like(wgt); wl[:, 1:] = wgt[:, :-1]
    wu = np.zeros_like(wgt); wu[1:, :] = wgt[:-1, :]
    nf = np.full((h, w), 2.0)
    nf[:, -1] -= 1.0
    nf[-1, :] -= 1.0
    diag = wgt + mu * (wgt * nf + wl + wu)
    live = diag > 0
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if rows.size == 0:
        return jp[1:-1, 1:-1].copy()
    y0, y1, x0, x1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    wi = wgt * image
    subs = []
    for c in (0, 1):
        for r in (0, 1):
            ry = y0 + (r - y0) % 2
            cx = x0 + ((c + r) - x0) % 2
            views = [jp[1 + ry + dy:y1 + 1 + dy:2, 1 + cx + dx:x1 + 1 + dx:2]
                     for dy, dx in ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0))]
            s = (slice(ry, y1, 2), slice(cx, x1, 2))
            coef = [np.ascontiguousarray(a[s]) for a in (wi, wgt, wl, wu, diag)]
            subs.append((views, *coef, coef[-1] > 0))
    work = np.empty((2, max(sub[1].size for sub in subs)))
    subs = [(*sub, *(a[:sub[1].size].reshape(sub[1].shape) for a in work)) for sub in subs]
    for _ in range(sweeps):
        for (j, jr, jd, jl, ju), wi_s, wgt_s, wl_s, wu_s, diag_s, pos, rhs, t in subs:
            np.add(jr, jd, out=rhs)
            rhs *= wgt_s
            rhs += np.multiply(wl_s, jl, out=t)
            rhs += np.multiply(wu_s, ju, out=t)
            rhs *= mu
            rhs += wi_s
            np.divide(rhs, diag_s, out=j, where=pos)
    return jp[1:-1, 1:-1].copy()


class TestStepAndSegment:
    def _disk_scene(self, size=64, r=12, seed=0):
        rng = np.random.default_rng(seed)
        img = np.where(disk_sdf(size, size, (size - 1) / 2, (size - 1) / 2, r) < 0,
                       200.0, 50.0)
        return field.gaussian_convolve(img, 1.0) + rng.normal(0, 1.0, img.shape)

    def test_trace_monotone_prior_free(self):
        img = self._disk_scene()
        cfg = DescentConfig(max_iters=30)
        state = descent.segment(img, None, W, cfg)
        totals = [bd.total for bd in state.trace]
        assert len(totals) == 30
        for a, b in zip(totals, totals[1:]):
            assert b <= a + cfg.tol * abs(a)

    def test_prior_free_finds_disk(self):
        img = self._disk_scene(size=64, r=12)
        cfg = DescentConfig(max_iters=1200)
        state = descent.segment(img, None, W, cfg)
        # zero level set should approach the r=12 circle (convergence from the
        # r=16 initialization is asymptotic, so allow a 2 px radius overshoot)
        inside = state.phi < 0
        r_eff = np.sqrt(inside.sum() / np.pi)
        assert abs(r_eff - 12) < 2.0
        ys, xs = np.nonzero(inside)
        assert abs(xs.mean() - 31.5) < 2 and abs(ys.mean() - 31.5) < 2

    def test_step_with_model_monotone(self, disk_model):
        img = self._disk_scene(size=48, r=12, seed=3)
        g = energy.edge_indicator(img, W.eta, W.sigma)
        w = EnergyWeights(gamma=0.05)
        cfg = DescentConfig(max_iters=10)
        state = descent.init_state(img, disk_model, w)
        prev = None
        for _ in range(10):
            state = descent.step(state, img, g, disk_model, w, cfg)
            cur = state.trace[-1].total
            if prev is not None:
                assert cur <= prev + cfg.tol * abs(prev)
            prev = cur

    @pytest.mark.parametrize("with_model", [False, True])
    def test_step_leaves_its_input_trace_alone(self, disk_model, with_model):
        img = self._disk_scene(size=48, r=12, seed=3)
        model = disk_model if with_model else None
        w = EnergyWeights(gamma=0.05)
        g = energy.edge_indicator(img, w.eta, w.sigma)
        s0 = descent.init_state(img, model, w)
        s1 = descent.step(s0, img, g, model, w, DescentConfig())
        s2 = descent.step(s1, img, g, model, w, DescentConfig())
        assert s0.trace == [] and len(s1.trace) == 1 and len(s2.trace) == 2
        assert s2.trace[0] is s1.trace[0]

    @pytest.mark.parametrize("with_model", [False, True])
    def test_segment_hands_step_no_history(self, monkeypatch, disk_model, with_model):
        # step copies its input's trace, so a run that handed it the history would be quadratic
        img = self._disk_scene(size=48, r=12, seed=3)
        model = disk_model if with_model else None
        inner, seen, velocities = descent.step, [], []

        def step(state, *args):
            seen.append((state.iter, len(state.trace)))
            out = inner(state, *args)
            velocities.append(out.velocity)
            return out

        monkeypatch.setattr(descent, "step", step)
        out = descent.segment(img, model, EnergyWeights(gamma=0.05), DescentConfig(max_iters=5))
        assert seen == [(i, 0) for i in range(5)]
        assert out.iter == 5 and len(out.trace) == 5
        if with_model:
            # every model step restarts the heavy ball, so the run hands on no velocity
            assert out.stop_reason == "max_iters"
            assert velocities == [None] * 5 and out.velocity is None

    @pytest.mark.parametrize("with_model", [False, True])
    def test_max_iters_zero_returns_init(self, disk_model, with_model):
        # no step runs: phi is the default circle, or with a model the mean prior
        # at lambda = 0 and the identity pose
        img = self._disk_scene(size=48, r=12)
        model = disk_model if with_model else None
        state = descent.segment(img, model, W, DescentConfig(max_iters=0))
        assert state.iter == 0 and state.trace == [] and state.stop_reason == "max_iters"
        if with_model:
            assert np.array_equal(state.lam, np.zeros(model.p)) and state.pose == Pose()
            want = descent.prior_field(model, np.zeros(model.p), Pose())
        else:
            assert state.lam is None and state.pose is None
            want = descent.default_init_phi(img.shape)
        assert state.phi.tobytes() == want.tobytes()

    def test_model_grid_mismatch_is_rejected(self, disk_model):
        img = np.full((40, 56), 100.0)
        with pytest.raises(ValueError) as exc:
            descent.segment(img, disk_model, W, DescentConfig(max_iters=3))
        assert str(exc.value) == "model grid 48x48 does not match image grid 56x40"

    def test_nan_image_aborts(self):
        img = self._disk_scene(size=32, r=8)
        img[5, 5] = np.nan
        # rejected either at field validation or as a numerical abort
        with pytest.raises((ValueError, descent.NumericalAbort)):
            descent.segment(img, None, W, DescentConfig(max_iters=3))


# scripted totals per group after e_base = 100: (totals, accepted scale or None, energy)
FULL = ([99.0], 1.0, 99.0)
WITHIN_TOL = ([100.00005], 1.0, 100.00005)     # rises, but by less than tol*|e_base|
HALF = ([101.0, 99.5], 0.5, 99.5)
REVERT = ([101.0, 100.5], None, 100.0)


class TestBacktrackingGate:
    """Each update group takes the full step, else the half step, else reverts.

    ``evaluate`` returns scripted totals, so the gate alone decides the result.
    The last total is the trace record's, taken on the state the gates accepted.
    The step bound is set to a value of the test's own, so ``step`` must read
    ``DT_PHI`` when it runs.
    """

    GPHI = 0.25      # gmax 0.25: the CFL cap 0.5/gmax = 2 leaves dt = DT
    DT = 0.3
    GP = np.array([0.2, -0.1, 3.0, -2.0, 1.5, 0.5])
    CFG = DescentConfig()

    def _step(self, monkeypatch, state, model, totals, gphi=GPHI):
        seen = []
        script = iter(totals)

        def scripted(st, image, g, model, w, *fields):
            seen.append(st)
            return energy.EnergyBreakdown(0.0, 0.0, 0.0, 0.0, next(script))

        monkeypatch.setattr(descent, "DT_PHI", self.DT)
        monkeypatch.setattr(descent, "evaluate", scripted)
        monkeypatch.setattr(descent, "grad_phi_total",
                            lambda st, *a: np.full_like(st.phi, gphi))
        monkeypatch.setattr(descent, "grad_params", lambda *a: self.GP.copy())
        monkeypatch.setattr(descent, "refresh_approximants", lambda st, *a: st)
        image = np.zeros_like(state.phi)
        out = descent.step(state, image, np.ones_like(image), model, W, self.CFG)
        self.seen = seen
        assert len(seen) == len(totals) and next(script, None) is None
        # the trace records the accepted state, and that is the state step returns
        last = seen[-1]
        assert last.phi is out.phi and last.lam is out.lam and last.pose is out.pose
        assert out.iter == 1 and [bd.total for bd in out.trace] == [totals[-1]]
        assert state.trace == []
        return out

    def _phi_after(self, phi0, scale):
        if scale is None:
            return phi0
        return phi0 - scale * self.DT * np.full_like(phi0, self.GPHI)

    @pytest.mark.parametrize("phi_case", [FULL, WITHIN_TOL, HALF, REVERT])
    def test_prior_free(self, monkeypatch, phi_case):
        totals, scale, e_new = phi_case
        phi0 = smooth_phi(16, 16)
        out = self._step(monkeypatch, SegmentationState(phi=phi0.copy()), None,
                         [100.0] + totals + [e_new])
        assert np.array_equal(out.phi, self._phi_after(phi0, scale))

    @pytest.mark.parametrize("with_velocity", [False, True])
    @pytest.mark.parametrize("phi_case", [FULL, WITHIN_TOL, HALF, REVERT])
    def test_prior_free_heavy_ball(self, monkeypatch, phi_case, with_velocity):
        # the trial adds MOMENTUM times the velocity; the accepted step becomes
        # the velocity, and a revert or a rise restarts it
        totals, scale, e_new = phi_case
        phi0 = smooth_phi(16, 16)
        v0 = np.cos(phi0) if with_velocity else None
        out = self._step(monkeypatch, SegmentationState(phi=phi0.copy(), velocity=v0),
                         None, [100.0] + totals + [e_new])
        move = -self.DT * np.full_like(phi0, self.GPHI)
        if with_velocity:
            move += descent.MOMENTUM * v0
        if scale is None:
            assert np.array_equal(out.phi, phi0)
        else:
            assert np.array_equal(out.phi, phi0 + scale * move)
        if scale is None or e_new > 100.0:
            assert out.velocity is None
        else:
            assert np.array_equal(out.velocity, scale * move)
        if len(totals) == 2:
            # the half trial takes the full trial's step array, halved in place, and
            # the velocity handed in stays as it was
            full, half = self.seen[1:3]
            assert half.velocity is full.velocity
        if with_velocity:
            assert np.array_equal(v0, np.cos(phi0))

    @pytest.mark.parametrize("with_model", [False, True])
    @pytest.mark.parametrize("gphi", [GPHI, 6.0, -6.0, 0.0])
    def test_phi_step_bound(self, monkeypatch, disk_model, gphi, with_model):
        # dt = min(DT_PHI, 0.5 / max|gphi|), and DT_PHI on a zero gradient, so a
        # full step moves no pixel of phi by more than half a unit
        dt = min(self.DT, 0.5 / abs(gphi)) if gphi else self.DT
        phi0 = smooth_phi(48, 48)
        if with_model:
            # a model step ignores the velocity it is given
            state = SegmentationState(phi=phi0.copy(), lam=np.zeros(2), pose=Pose(),
                                      i_in=np.zeros((48, 48)), i_out=np.zeros((48, 48)),
                                      velocity=np.cos(phi0))
            totals = [100.0, 99.0, 98.0, 98.0]
        else:
            state, totals = SegmentationState(phi=phi0.copy()), [100.0, 99.0, 99.0]
        out = self._step(monkeypatch, state, disk_model if with_model else None,
                         totals, gphi)
        assert np.array_equal(out.phi, phi0 - dt * np.full_like(phi0, gphi))
        if with_model:
            assert out.velocity is None

    @pytest.mark.parametrize("param_case", [FULL, HALF, REVERT])
    @pytest.mark.parametrize("phi_case", [FULL, HALF, REVERT])
    def test_with_model(self, monkeypatch, disk_model, param_case, phi_case):
        p_totals, p_scale, p_energy = param_case
        # the phi group gates against the energy the parameter group left
        phi_totals = [t - 100.0 + p_energy for t in phi_case[0]]
        phi_scale, phi_energy = phi_case[1], phi_case[2] - 100.0 + p_energy
        phi0 = smooth_phi(48, 48)
        lam0 = np.array([0.3, -0.2])
        # a model step ignores the velocity it is given, and returns none
        state = SegmentationState(phi=phi0.copy(), lam=lam0.copy(), pose=Pose(),
                                  i_in=np.zeros((48, 48)), i_out=np.zeros((48, 48)),
                                  velocity=np.cos(phi0))
        out = self._step(monkeypatch, state, disk_model,
                         [100.0] + p_totals + phi_totals + [phi_energy])
        x0 = np.concatenate([lam0, Pose().as_vector()])
        x = x0
        if p_scale is not None:
            steps = np.array([descent.STEP_LAMBDA] * 2 + [descent.STEP_POSE] * 4)
            x = x0 - p_scale * steps * self.GP
        assert np.array_equal(out.lam, x[:2])
        assert out.pose == Pose(*map(float, x[2:]))
        assert np.array_equal(out.phi, self._phi_after(phi0, phi_scale))
        assert out.velocity is None
        if len(phi_case[0]) == 2:
            # the half trial takes the full trial's step array, halved in place
            full, half = self.seen[1 + len(p_totals):3 + len(p_totals)]
            assert full.velocity is not None and half.velocity is full.velocity


class TestStationaryStop:
    W = EnergyWeights(gamma=0.05)
    IMAGE = field.gaussian_convolve(
        np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0), 1.0)

    def test_band_rms_is_the_rms_on_the_band(self, rng):
        phi = smooth_phi(24, 24)
        gphi = rng.normal(size=phi.shape)
        band = np.abs(phi) < 3 * 1.5
        assert 0 < band.sum() < phi.size
        assert np.isclose(descent.band_rms(gphi, phi, 1.5), np.sqrt(np.mean(gphi[band] ** 2)),
                          rtol=1e-14, atol=0)

    def test_empty_or_overflowing_band_never_stops(self):
        phi = smooth_phi(24, 24)
        assert np.isnan(descent.band_rms(np.ones_like(phi), phi + 100.0, 1.5))
        # squaring 1e300 overflows; pyproject turns a RuntimeWarning into a failure
        assert descent.band_rms(np.full_like(phi, 1e300), phi, 1.5) == np.inf

    @pytest.mark.parametrize("with_model", [False, True])
    def test_step_records_its_gradients_band_rms(self, monkeypatch, disk_model, with_model):
        model = disk_model if with_model else None
        g = energy.edge_indicator(self.IMAGE, self.W.eta, self.W.sigma)
        state = descent.init_state(self.IMAGE, model, self.W)
        real, seen = descent.grad_phi_total, []

        def grad_phi_total(st_, *args):
            out = real(st_, *args)
            seen.append(descent.band_rms(out, st_.phi, self.W.eps))
            return out

        monkeypatch.setattr(descent, "grad_phi_total", grad_phi_total)
        for _ in range(3):
            state = descent.step(state, self.IMAGE, g, model, self.W, DescentConfig())
            assert state.phi_grad_rms == seen[-1] > 0

    @pytest.mark.parametrize("iters", [0, 10])
    def test_a_short_run_stops_at_max_iters(self, iters):
        state = descent.segment(self.IMAGE, None, self.W, DescentConfig(max_iters=iters))
        assert state.iter == iters and state.stop_reason == "max_iters"

    @pytest.fixture(scope="class")
    def criterion_5_run(self):
        img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, 20.0),
                                              fg=200.0, bg=50.0))
        return descent.segment(img, None, EnergyWeights(), DescentConfig())

    def test_criterion_5_disk_stops_at_the_contour(self, criterion_5_run):
        # plain gradient steps ran all 2000 steps on this disk and ended 1.30 px off it
        state = criterion_5_run
        assert state.stop_reason == "stationary" and state.iter < 2000
        v = np.concatenate([c.vertices for c in contours.extract_contours(state.phi)])
        assert np.mean(np.abs(np.hypot(v[:, 0] - 63.5, v[:, 1] - 63.5) - 20.0)) <= 0.6

    def test_criterion_5_disk_stops_within_700_steps(self, criterion_5_run):
        # a heavy-ball weight of 0.9 took 943 steps here, 0.93 takes 606
        assert criterion_5_run.stop_reason == "stationary" and criterion_5_run.iter < 700

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="stalls about 11 px off the disk; awaits the step bound derived "
                              "from the fields (ROADMAP direction 9)")
    @pytest.mark.parametrize("weights", [dict(alpha=10.0), dict(xi=50.0), dict(eps=0.5)])
    def test_criterion_5_disk_reached_with_stiff_weights(self, weights):
        img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, 20.0)))
        state = descent.segment(img, None, EnergyWeights(**weights), DescentConfig(max_iters=3000))
        v = np.concatenate([c.vertices for c in contours.extract_contours(state.phi)])
        assert np.mean(np.abs(np.hypot(v[:, 0] - 63.5, v[:, 1] - 63.5) - 20.0)) <= 2.0

    @pytest.mark.parametrize("dt_phi", [0.5, 0.38])
    def test_a_revert_from_rest_stops_the_run_as_stalled(self, monkeypatch, dt_phi):
        # criterion 6's scene without a model: these steps end in phi steps that
        # revert from rest, after which every step repeated the last one, at a
        # constant energy, until max_iters
        img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, 20.0),
                                              occlusion=("arc", -np.pi / 6, np.pi / 6)))
        w = EnergyWeights(alpha=2.0, beta=2.5, gamma=0.5)
        monkeypatch.setattr(descent, "DT_PHI", dt_phi)
        cfg = DescentConfig(max_iters=600)
        state = descent.segment(img, None, w, cfg)
        assert state.stop_reason == "stalled" and state.iter < 300
        assert state.velocity is None and state.trace[-1] == state.trace[-2]
        g = energy.edge_indicator(img, w.eta, w.sigma)
        out = descent.step(state, img, g, None, w, cfg)
        assert out.phi.tobytes() == state.phi.tobytes() and out.velocity is None
        assert _bits(out.trace[-1]) == _bits(state.trace[-1])

    @pytest.mark.parametrize("with_model", [False, True])
    def test_only_a_prior_free_revert_from_rest_stalls(self, monkeypatch, disk_model,
                                                       with_model):
        # a scripted step: accept (setting a velocity), revert, revert, ...; the
        # first revert started with a velocity and the second from rest
        def scripted(state, *args):
            accept = state.iter == 0
            phi = state.phi + 1.0 if accept else state.phi
            return replace(state, phi=phi, velocity=np.ones_like(phi) if accept else None,
                           iter=state.iter + 1, phi_grad_rms=1.0,
                           trace=[energy.EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)])

        monkeypatch.setattr(descent, "step", scripted)
        model = disk_model if with_model else None
        state = descent.segment(self.IMAGE, model, self.W, DescentConfig(max_iters=10))
        if with_model:
            assert state.stop_reason == "max_iters" and state.iter == 10
        else:
            assert state.stop_reason == "stalled" and state.iter == 3
        assert len(state.trace) == state.iter

    def test_model_phi_step_has_no_momentum(self, monkeypatch, disk_model):
        # each model step moves phi by exactly phi - s*dt*gphi, s in {1, 0.5}, or
        # leaves it; a velocity handed in is never used, and every step restarts it
        g = energy.edge_indicator(self.IMAGE, self.W.eta, self.W.sigma)
        cfg = DescentConfig()
        state = descent.init_state(self.IMAGE, disk_model, self.W)
        state = replace(state, velocity=np.ones_like(state.phi))
        real, grads = descent.grad_phi_total, []

        def grad_phi_total(*args):
            grads.append(real(*args))
            return grads[-1].copy()

        monkeypatch.setattr(descent, "grad_phi_total", grad_phi_total)
        moved = 0
        for _ in range(4):
            out = descent.step(state, self.IMAGE, g, disk_model, self.W, cfg)
            gphi = grads[-1]
            gmax = float(np.max(np.abs(gphi)))
            dt = min(descent.DT_PHI, 0.5 / gmax)
            plain = [state.phi] + [state.phi - s * dt * gphi for s in (1.0, 0.5)]
            assert any(out.phi.tobytes() == p.tobytes() for p in plain)
            moved += out.phi.tobytes() != state.phi.tobytes()
            assert out.velocity is None
            state = replace(out, velocity=np.ones_like(out.phi))
        assert moved == 4


def _carry_free(state):
    """A state holding copies of ``state``'s inputs, its velocity among them, and no carry."""
    def cp(a):
        return None if a is None else a.copy()
    return SegmentationState(phi=state.phi.copy(), lam=cp(state.lam),
                             pose=copy.copy(state.pose), i_in=cp(state.i_in),
                             i_out=cp(state.i_out), iter=state.iter,
                             trace=state.trace, velocity=cp(state.velocity))


def _bits(bd):
    return [float(getattr(bd, n)).hex() for n in ("f1", "f2", "f3", "f4", "total")]


class TestFieldsComputedOncePerStep:
    """A step computes each field once and hands it down; every result equals a fresh one."""

    W = EnergyWeights(gamma=0.05)

    def _scene(self, disk_model, with_model):
        img = field.gaussian_convolve(
            np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0), 1.0)
        g = energy.edge_indicator(img, self.W.eta, self.W.sigma)
        if not with_model:
            return img, g, None, SegmentationState(phi=smooth_phi(48, 48))
        state = replace(descent.init_state(img, disk_model, self.W),
                        phi=smooth_phi(48, 48), lam=np.array([0.3, -0.2]),
                        pose=Pose(1.05, 0.1, 0.4, -0.3))
        return img, g, disk_model, state

    def _checked(self, monkeypatch, seen):
        """Make every evaluate/grad_phi_total call, given the fields it is handed,
        also check itself against a fresh call on copies of its state."""
        real_eval, real_grad = descent.evaluate, descent.grad_phi_total

        def evaluate(state, image, g, model, w, phi_t=None, fits=None, f4=None):
            out = real_eval(state, image, g, model, w, phi_t, fits, f4)
            assert _bits(out) == _bits(real_eval(_carry_free(state), image, g, model, w))
            seen.append(("evaluate", phi_t, fits, f4))
            return out

        def grad_phi_total(state, g, model, w, phi_t=None):
            out = real_grad(state, g, model, w, phi_t)
            assert out.tobytes() == real_grad(_carry_free(state), g, model, w).tobytes()
            seen.append(("grad_phi_total", phi_t, None, None))
            return out

        monkeypatch.setattr(descent, "evaluate", evaluate)
        monkeypatch.setattr(descent, "grad_phi_total", grad_phi_total)

    @pytest.mark.parametrize("carried", [False, True], ids=["no_carry", "carry"])
    @pytest.mark.parametrize("with_model", [False, True])
    def test_every_call_in_a_step(self, monkeypatch, disk_model, with_model, carried):
        img, g, model, state = self._scene(disk_model, with_model)
        if carried:
            state = replace(state, _carry=[])     # as in segment
        seen = []
        self._checked(monkeypatch, seen)
        for _ in range(3):
            del seen[:]
            state = descent.step(state, img, g, model, self.W, DescentConfig())
            assert len(seen) >= (17 if with_model else 4)
            # the step hands every call its phi's fields. With a model the base
            # evaluate, the 2(p + 4) parameter probes (grad_params hands the fits on
            # to each) and the parameter trials get the fits, and the phi trials and
            # the record get the F4 of the prior the parameter gate kept, and no fits
            assert all(phi_t is not None for _, phi_t, _, _ in seen)
            # each call in order: g for grad_phi_total, 4 for an evaluate handed an F4,
            # e for one that is not
            calls = "".join("g" if kind == "grad_phi_total" else "e" if f4 is None
                            else "4" for kind, _, _, f4 in seen)
            assert re.fullmatch("e{14,15}g4{2,3}" if with_model else "eg4{2,3}", calls), calls
            for kind, _, fits, f4 in seen:
                assert (fits is not None) == (with_model and kind == "evaluate" and f4 is None)
                assert f4 is None or isinstance(f4, float)

    @pytest.mark.parametrize("revert", [False, True])
    @pytest.mark.parametrize("with_model", [False, True])
    def test_a_step_computes_each_field_once(self, monkeypatch, disk_model, with_model,
                                             revert):
        # on a state with no carry: fit_terms once, for the refreshed approximants,
        # and phi_terms once for the base phi, once per phi trial, and once more
        # for the base after a revert
        img, g, model, state = self._scene(disk_model, with_model)
        real_eval, real_phi, real_fit = descent.evaluate, energy.phi_terms, energy.fit_terms
        phis, evaluated, fits = [], [], []

        def phi_terms(phi, g, w):
            phis.append(phi)
            return real_phi(phi, g, w)

        def fit_terms(*args):
            fits.append(args)
            return real_fit(*args)

        def evaluate(st_, *args):
            out = real_eval(st_, *args)
            evaluated.append(st_.phi)
            if revert and st_.phi is not base:
                # every phi trial rises too far, so the step reverts phi
                return dataclasses.replace(out, total=out.total + 1e6)
            return out

        monkeypatch.setattr(energy, "phi_terms", phi_terms)
        monkeypatch.setattr(energy, "fit_terms", fit_terms)
        monkeypatch.setattr(descent, "evaluate", evaluate)
        for _ in range(3):
            del phis[:], evaluated[:], fits[:]
            base = state.phi
            out = descent.step(state, img, g, model, self.W, DescentConfig())
            trials = []
            for phi in evaluated:
                if phi is not base and not any(phi is t for t in trials):
                    trials.append(phi)
            assert len(trials) in ((2,) if revert else (1, 2))
            assert (out.phi is base) == revert
            assert len(fits) == (1 if with_model else 0)
            assert len(phis) == 1 + len(trials) + revert
            assert list(map(id, phis)) == list(map(id, [base, *trials, *[base] * revert]))
            state = out

    @pytest.mark.parametrize("with_model", [False, True])
    def test_carry_serves_only_its_own_phi(self, disk_model, with_model):
        # the carry holds the fields of one phi array: a step whose phi is another
        # array, equal or not, computes them afresh, and every step equals a step
        # on copies of its state
        img, g, model, state = self._scene(disk_model, with_model)
        cfg = DescentConfig()
        s = descent.step(replace(state, _carry=[]), img, g, model, self.W, cfg)
        held = list(s._carry)
        assert held[0] is s.phi
        probes = [s, replace(s, phi=s.phi.copy()), replace(s, phi=s.phi + 0.25)]
        if model is not None:
            probes += [replace(s, lam=s.lam + 0.1), replace(s, pose=Pose(1.1, 0.2, 0.5, -0.5)),
                       replace(s, i_in=s.i_in + 1.0), replace(s, i_out=s.i_out - 2.0)]
        for probe in probes:
            a = descent.step(replace(probe, _carry=list(held)), img, g, model, self.W, cfg)
            b = descent.step(_carry_free(probe), img, g, model, self.W, cfg)
            assert a.phi.tobytes() == b.phi.tobytes()
            assert [_bits(bd) for bd in a.trace] == [_bits(bd) for bd in b.trace]
            if model is not None:
                assert a.lam.tobytes() == b.lam.tobytes() and a.pose == b.pose

    @pytest.mark.parametrize("with_model", [False, True])
    def test_phi_edited_in_place_between_steps(self, disk_model, with_model):
        img, g, model, state = self._scene(disk_model, with_model)
        cfg = DescentConfig()
        s1 = descent.step(state, img, g, model, self.W, cfg)
        assert s1._carry is None     # a hand-stepped state carries nothing to the next step
        s1.phi += 0.3
        fresh = _carry_free(s1)
        a = descent.step(s1, img, g, model, self.W, cfg)
        b = descent.step(fresh, img, g, model, self.W, cfg)
        assert a.phi.tobytes() == b.phi.tobytes()
        assert [_bits(bd) for bd in a.trace] == [_bits(bd) for bd in b.trace]
        if model is not None:
            assert a.lam.tobytes() == b.lam.tobytes() and a.pose == b.pose


def _array_bytes(obj):
    """The bytes of every array reachable through tuples, lists and dicts, in order."""
    if isinstance(obj, np.ndarray):
        return [obj.tobytes()]
    if isinstance(obj, (tuple, list)):
        return [b for o in obj for b in _array_bytes(o)]
    if isinstance(obj, dict):
        return [b for k in sorted(obj) for b in _array_bytes(obj[k])]
    return []


class TestKernelsLeaveInputsUntouched:
    """No kernel writes into the state, the fields it is handed, the model, the image or g."""

    W = EnergyWeights(gamma=0.05)

    @pytest.fixture(params=[False, True], ids=["prior_free", "model"])
    def scene(self, request, disk_model):
        img = field.gaussian_convolve(
            np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0), 1.0)
        g = energy.edge_indicator(img, self.W.eta, self.W.sigma)
        if not request.param:
            state = SegmentationState(phi=smooth_phi(48, 48))
            return img, g, None, state, energy.phi_terms(state.phi, g, self.W), None
        state = replace(descent.init_state(img, disk_model, self.W),
                        phi=smooth_phi(48, 48), lam=np.array([0.3, -0.2]),
                        pose=Pose(1.05, 0.1, 0.4, -0.3))
        return (img, g, disk_model, state, energy.phi_terms(state.phi, g, self.W),
                energy.fit_terms(img, state.i_in, state.i_out, self.W))

    @staticmethod
    def _inputs(img, g, model, state, *extra):
        pose = None if state.pose is None else state.pose.as_vector()
        models = [] if model is None else [model.mean, model.modes]
        return _array_bytes([state.phi, state.lam, pose, state.i_in, state.i_out,
                             *models, img, g, *extra])

    def test_descent_kernels(self, scene):
        img, g, model, state, phi_t, fits = scene
        before = self._inputs(img, g, model, state, phi_t, fits)
        calls = [lambda: descent.evaluate(state, img, g, model, self.W),
                 lambda: descent.evaluate(state, img, g, model, self.W, phi_t, fits),
                 lambda: descent.grad_phi_total(state, g, model, self.W),
                 lambda: descent.grad_phi_total(state, g, model, self.W, phi_t)]
        if model is not None:
            calls += [lambda: descent.grad_params(state, img, g, model, self.W, 1e-3),
                      lambda: descent.grad_params(state, img, g, model, self.W, 1e-3,
                                                  phi_t, fits),
                      lambda: descent.refresh_approximants(state, img, model, self.W,
                                                           descent.SWEEPS)]
        for call in calls:
            call()
            assert self._inputs(img, g, model, state, phi_t, fits) == before

    def test_prior_free_grad_phi_total_peak(self):
        # 5 grids on 128 x 128: |grad phi| and dirac(phi), then grad(phi) and the
        # divergence, whose y-differences go into the x-flux's buffer (6 grids
        # with a difference temporary of their own); xi*g is built before the
        # gradient and again after the divergence, so no copy of it is held
        # across them (8 grids when one is). It reads 5 grids and 104 bytes: the
        # 4 KiB allowance is for array headers and NumPy's error-state objects
        phi = disk_sdf(128, 128, 60.3, 66.1, 30.0)
        img = np.where(phi < 0, 200.0, 50.0)
        g = energy.edge_indicator(img, self.W.eta, self.W.sigma)
        state = SegmentationState(phi=phi)
        peak = traced_peak(lambda: descent.grad_phi_total(state, g, None, self.W))
        assert peak <= 5 * phi.nbytes + 4096, peak / phi.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=HELD_ARGUMENTS)
    def test_prior_free_segment_peak(self):
        # the criterion-5 run on the clean disk, 606 steps: 8.24 grids on 128 x 128,
        # in grad_phi_total with g, phi, the base's velocity, |grad phi|, dirac(phi)
        # and three transients. It read 10.02 when the base's velocity lived
        # through the phi trials, the divergence made a difference temporary and
        # the run kept an EnergyBreakdown object a step (about one grid by the end)
        img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, 20.0),
                                              fg=200.0, bg=50.0))
        peak = traced_peak(lambda: descent.segment(img, None, EnergyWeights(), DescentConfig()))
        assert peak <= 8.5 * img.nbytes, peak / img.nbytes

    @pytest.fixture(scope="class")
    def arc_prior(self):
        """The occluded-arc scene's p=2 disk model on 128 x 128, at a rotated pose."""
        masks = [synth.truth_mask(synth.SceneSpec(width=128, height=128,
                                                  shape=("disk", 63.5, 63.5, float(r))))
                 for r in range(14, 27, 2)]
        model = shape_prior.build_shape_model([shape_prior.sdf_from_mask(m) for m in masks], p=2)
        phi = disk_sdf(128, 128, 60.3, 66.1, 30.0)
        img = np.where(phi < 0, 200.0, 50.0)
        g = energy.edge_indicator(img, self.W.eta, self.W.sigma)
        state = replace(descent.init_state(img, model, self.W), phi=phi,
                        pose=Pose(1.0, 0.1, 0.0, 0.0))
        return img, g, model, state

    def test_model_grad_phi_total_peak(self, monkeypatch, arc_prior):
        # 5.02 grids on 128 x 128, after the prior warp, at the gradient's own
        # arrays with the prior: the rotated warp, which runs before they exist,
        # peaks at 3.06 grids a quarter of its rows at a time (6.09 when it
        # sampled half of them, which set this call's peak); the allowance is as
        # in the prior-free test
        _, g, model, state = arc_prior
        phi_t = energy.phi_terms(state.phi, g, self.W)
        nbytes = state.phi.nbytes
        peak = traced_peak(lambda: descent.grad_phi_total(state, g, model, self.W, phi_t))
        assert peak <= 5 * nbytes + 4096, peak / nbytes
        # the same with a copy of the prior in the warp's place (it reads 5 grids
        # and 1.9 KiB), so a grid more after the warp fails either way
        pw = descent.prior_field(model, state.lam, state.pose)
        monkeypatch.setattr(descent, "prior_field", lambda *a: pw.copy())
        peak = traced_peak(lambda: descent.grad_phi_total(state, g, model, self.W, phi_t))
        assert peak <= 5 * nbytes + 4096, peak / nbytes

    def test_solve_smooth_approximant_peak(self):
        # 5.92 grids on 128 x 128 with a weight positive on the whole grid, at the
        # fixed-point test: the iterate and weight crops, the diagonals and
        # weighted images, the masks, the two right-hand-side work arrays, one copy
        # of black and the comparison's mask. It read 6.36 when the test held
        # black's bytes and took a second copy of them to compare with
        phi = disk_sdf(128, 128, 60.3, 66.1, 30.0)
        img = field.gaussian_convolve(np.where(phi < 0, 200.0, 50.0), 1.0)
        wgt = 1.0 - energy.heaviside_eps(-phi, self.W.eps)
        warm = np.full(img.shape, 120.0)
        peak = traced_peak(lambda: descent.solve_smooth_approximant(img, wgt, 1.0, 20, warm))
        assert peak <= 6 * img.nbytes, peak / img.nbytes

    def test_refresh_approximants_peak(self, arc_prior):
        # 6.93 grids on 128 x 128; a smooth Heaviside is positive everywhere, so
        # each solve's box is the whole grid. It read 7.37 when the fixed-point
        # test held black's bytes and took a second copy to compare them, 8.85
        # when the I_out solve's caller also held its weight and each solve held
        # its sweeps' work arrays while it built its output, and 10.88 when each
        # colour also copied its three weight slices out of the weight crop.
        # Before Python 3.11 the caller holds the weight it hands over until the
        # solve returns (HELD_ARGUMENTS), so there the bound stays 9 grids
        img, g, model, state = arc_prior
        peak = traced_peak(lambda: descent.refresh_approximants(state, img, model, self.W,
                                                                descent.SWEEPS))
        limit = 7 if sys.version_info >= (3, 11) else 9
        assert peak <= limit * state.phi.nbytes, peak / state.phi.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=HELD_ARGUMENTS)
    def test_model_segment_peak(self, arc_prior):
        # three steps on the criterion-6 occluded arc: 12.76 grids on 128 x 128.
        # It read 14.89, at Gauss-Seidel, when the replaced I_in lived through the
        # I_out solve, the solver held its weight argument and its work arrays to
        # the end, and a rotated warp sampled half of its rows at a time; and
        # 16.92 when segment also held the state it handed to step, which kept
        # the approximants the refresh replaced through the whole step, and the
        # solver copied its weights out of the weight crop
        _, _, model, _ = arc_prior
        img, _ = synth.render(synth.SceneSpec(width=128, height=128,
                                              shape=("disk", 63.5, 63.5, 20.0),
                                              occlusion=("arc", -np.pi / 6, np.pi / 6)))
        w = EnergyWeights(alpha=2.0, beta=2.5, gamma=0.5)
        peak = traced_peak(lambda: descent.segment(img, model, w, DescentConfig(max_iters=3)))
        assert peak <= 13 * img.nbytes, peak / img.nbytes

    def test_breakdown_and_warp(self, scene):
        img, g, model, state, phi_t, fits = scene
        pw = None if model is None else descent.prior_field(model, state.lam, state.pose)
        before = self._inputs(img, g, model, state, phi_t, fits, pw)
        for _ in range(2):
            f4 = None if pw is None else energy.energy_f4(fits, pw, self.W)
            assert self._inputs(img, g, model, state, phi_t, fits, pw) == before
            energy.breakdown(phi_t, f4, g, pw, self.W)
            assert self._inputs(img, g, model, state, phi_t, fits, pw) == before
        for _ in range(2):   # two warps through one pose
            shape_prior.warp(g, Pose(1.05, 0.1, 0.4, -0.3), 99.0)
            assert self._inputs(img, g, model, state, phi_t, fits, pw) == before


@st.composite
def _field_and_coords(draw):
    h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    f = np.array(draw(st.lists(values, min_size=h * w, max_size=h * w))).reshape(h, w)
    v = np.array(draw(st.lists(values, min_size=h * w, max_size=h * w))).reshape(h, w)
    # coordinates inside, on and beyond the grid, and NaN
    coord = st.floats(-3, max(h, w) + 2) | st.sampled_from([0.0, -0.0, w - 1.0, np.nan])
    x = np.array(draw(st.lists(coord, min_size=h * w, max_size=h * w))).reshape(h, w)
    y = np.array(draw(st.lists(coord, min_size=h * w, max_size=h * w))).reshape(h, w)
    return f, v, x, y


class TestInPlaceKernelsStayPure:
    """The kernels that work in their own buffers change no input and return no view of one."""

    @staticmethod
    def _arrays(obj):
        if isinstance(obj, np.ndarray):
            return [obj]
        return [a for o in obj for a in TestInPlaceKernelsStayPure._arrays(o)] \
            if isinstance(obj, (tuple, list)) else []

    @settings(max_examples=60, deadline=None)
    @given(_field_and_coords())
    def test_random_fields(self, case):
        f, v, x, y = case
        z = -f
        calls = [(field.grad, (f,), {}), (field.divergence, (f, v), {}),
                 (energy.smooth_grad_magnitude, (f,), {}), (energy.heaviside_eps, (f, 1.5), {}),
                 (energy.heaviside_eps, (f, 1.5), {"out": np.empty(f.shape)}),
                 (energy.heaviside_eps, (z, 1.5), {"out": z}),
                 (energy.dirac_eps, (f, 1.5), {}), (energy.dirac_eps, (f, 0.1), {}),
                 (field.bilinear_sample, (f, x, y, -7.25), {}),
                 (field.bilinear_sample, (f, x, y, -7.25), {"out": np.empty(f.shape)})]
        for kernel, args, kwargs in calls:
            # out is written, and the result lives in it; every other input stays as it was
            out = kwargs.get("out")
            inputs = [a for a in self._arrays(args) if a is not out]
            before = [a.tobytes() for a in inputs]
            outputs = self._arrays(kernel(*args, **kwargs))
            assert [a.tobytes() for a in inputs] == before, kernel.__name__
            assert not any(np.shares_memory(o, i) for o in outputs for i in inputs), \
                kernel.__name__
            assert out is None or all(np.shares_memory(o, out) for o in outputs), kernel.__name__

    @pytest.mark.parametrize("with_model", [False, True])
    def test_step_leaves_the_carry_arrays_alone(self, disk_model, with_model):
        w = EnergyWeights(gamma=0.05)
        img = field.gaussian_convolve(
            np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0), 1.0)
        g = energy.edge_indicator(img, w.eta, w.sigma)
        model = disk_model if with_model else None
        carry = []
        state = replace(descent.init_state(img, model, w), phi=smooth_phi(48, 48), _carry=carry)
        state = descent.step(state, img, g, model, w, DescentConfig())     # fills the carry
        for _ in range(2):
            held = self._arrays(carry)
            assert len(held) == 3 and held[0] is state.phi     # phi, |grad phi|, dirac(phi)
            before = [a.tobytes() for a in held]
            state = descent.step(state, img, g, model, w, DescentConfig())
            assert [a.tobytes() for a in held] == before


def _segment_carry_free(image, model, w, cfg):
    """``segment`` written out as a loop of steps on states with no carry."""
    image = field.as_field(image)
    g = energy.edge_indicator(image, w.eta, w.sigma)
    state = descent.init_state(image, model, w)
    for _ in range(cfg.max_iters):
        state = descent.step(state, image, g, model, w, cfg)
        assert state._carry is None
        if state.phi_grad_rms < descent.STATIONARY_RMS:
            break
    return state


class TestCarryAcrossSteps:
    """``segment`` keeps one carry for its whole run and computes what carry-free steps compute."""

    W = EnergyWeights(gamma=0.05)
    IMAGE = field.gaussian_convolve(
        np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0), 1.0)

    @pytest.mark.parametrize("with_model", [False, True])
    @pytest.mark.parametrize("cfg,stops", [
        (DescentConfig(max_iters=30), False),
        (DescentConfig(max_iters=1000, tol=1e-4), True),
    ], ids=["every1", "stationary"])
    def test_segment_equals_carry_free_steps(self, monkeypatch, disk_model, with_model, cfg,
                                             stops):
        model = disk_model if with_model else None
        if with_model and stops:
            # the model path is still at a band RMS of 3.6e-4 after 3000 steps
            # here; a looser threshold stops it after a few dozen
            monkeypatch.setattr(descent, "STATIONARY_RMS", 5e-3)
        got = descent.segment(self.IMAGE, model, self.W, cfg)
        want = _segment_carry_free(self.IMAGE, model, self.W, cfg)
        assert (got.iter < cfg.max_iters) == stops
        assert got.stop_reason == ("stationary" if stops else "max_iters")
        assert got.iter == want.iter
        assert got.phi.tobytes() == want.phi.tobytes()
        assert len(got.trace) == got.iter
        assert [_bits(bd) for bd in got.trace] == [_bits(bd) for bd in want.trace]
        if model is not None:
            assert got.lam.tobytes() == want.lam.tobytes() and got.pose == want.pose
        assert got._carry is None

    def test_model_step_solves_without_earlier_fits(self, monkeypatch, disk_model):
        # the fits belong to the approximants the refresh replaces, so none of
        # them is alive while the solver runs
        g = energy.edge_indicator(self.IMAGE, self.W.eta, self.W.sigma)
        real_fit, real_solve = energy.fit_terms, descent.solve_smooth_approximant
        refs, alive = [], []

        def fit_terms(*args):
            out = real_fit(*args)
            refs.extend(map(weakref.ref, out))
            return out

        def solve(*args):
            alive.append(sum(r() is not None for r in refs))
            return real_solve(*args)

        monkeypatch.setattr(energy, "fit_terms", fit_terms)
        monkeypatch.setattr(descent, "solve_smooth_approximant", solve)
        state = descent.init_state(self.IMAGE, disk_model, self.W)
        descent.evaluate(state, self.IMAGE, g, disk_model, self.W)
        state = replace(state, _carry=[])
        for _ in range(3):
            state = descent.step(state, self.IMAGE, g, disk_model, self.W, DescentConfig())
        assert len(refs) == 2 * 4 and alive == [0] * 6

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=HELD_ARGUMENTS)
    def test_model_step_frees_the_approximants_it_replaces(self, monkeypatch, disk_model):
        # segment keeps no reference to the state it hands to step, so the
        # I_in/I_out that a step's refresh replaces are gone before its first
        # evaluate, and stay gone through its probes, gates and final evaluate
        real_refresh, real_evaluate = descent.refresh_approximants, descent.evaluate
        refs, freed = [], []

        def refresh(state, *args):
            refs[:] = [weakref.ref(state.i_in), weakref.ref(state.i_out)]
            return real_refresh(state, *args)

        def evaluate(*args):
            freed.append(all(r() is None for r in refs))
            return real_evaluate(*args)

        monkeypatch.setattr(descent, "refresh_approximants", refresh)
        monkeypatch.setattr(descent, "evaluate", evaluate)
        state = descent.segment(self.IMAGE, disk_model, self.W, DescentConfig(max_iters=3))
        assert state.iter == 3
        # 1 + 2(p + 4) + 2 + 2 + 1 evaluates a step at most, with p = 2
        assert 3 * 16 <= len(freed) <= 3 * 18 and all(freed)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=HELD_ARGUMENTS)
    def test_replaced_i_in_freed_before_the_i_out_solve(self, monkeypatch, disk_model):
        # step hands its state to the refresh, which rebinds it once I_in is
        # solved, so the I_in it replaces is gone when the I_out solve starts
        real_solve = descent.solve_smooth_approximant
        warm, dead = [], []

        def solve(image, wgt, mu, sweeps, start):
            if len(warm) % 2:
                dead.append(warm[-1]() is None)
            warm.append(weakref.ref(start))
            return real_solve(image, wgt, mu, sweeps, start)

        monkeypatch.setattr(descent, "solve_smooth_approximant", solve)
        state = descent.segment(self.IMAGE, disk_model, self.W, DescentConfig(max_iters=3))
        assert state.iter == 3
        assert dead == [True] * 3

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=HELD_ARGUMENTS)
    def test_base_velocity_freed_before_the_phi_trials(self, monkeypatch):
        # a revert restarts from rest, so nothing reads the velocity of the state
        # a prior-free step starts from once the step's move is built
        real_grad, real_evaluate = descent.grad_phi_total, descent.evaluate
        refs, freed = [], []

        def grad_phi_total(state, *args):
            if state.velocity is not None:
                refs.append(weakref.ref(state.velocity))
            return real_grad(state, *args)

        def evaluate(*args):
            # the first evaluate after the phi gradient is the first phi trial's
            if refs:
                freed.append(refs.pop()() is None)
            return real_evaluate(*args)

        monkeypatch.setattr(descent, "grad_phi_total", grad_phi_total)
        monkeypatch.setattr(descent, "evaluate", evaluate)
        state = descent.segment(self.IMAGE, None, self.W, DescentConfig(max_iters=20))
        assert state.iter == 20
        assert len(freed) >= 15 and all(freed)

    def test_fits_freed_before_grad_phi_total(self, monkeypatch, disk_model):
        # the phi trials and the record take F4 from the base or the accepted
        # parameter trial, so the fits go after the parameter gate
        g = energy.edge_indicator(self.IMAGE, self.W.eta, self.W.sigma)
        real_fit, real_grad = energy.fit_terms, descent.grad_phi_total
        refs, dead = [], []

        def fit_terms(*args):
            out = real_fit(*args)
            refs[:] = map(weakref.ref, out)
            return out

        def grad_phi_total(*args):
            dead.append(len(refs) == 2 and all(r() is None for r in refs))
            return real_grad(*args)

        monkeypatch.setattr(energy, "fit_terms", fit_terms)
        monkeypatch.setattr(descent, "grad_phi_total", grad_phi_total)
        state = replace(descent.init_state(self.IMAGE, disk_model, self.W), _carry=[])
        for _ in range(3):
            state = descent.step(state, self.IMAGE, g, disk_model, self.W, DescentConfig())
        assert dead == [True] * 3

    @pytest.mark.parametrize("with_model", [False, True])
    def test_each_phis_fields_freed_when_the_next_are_computed(self, monkeypatch, disk_model,
                                                               with_model):
        # the heap layout a run settles into depends on when each phi's fields
        # go: the base phi's are alive while band_rms runs, and every earlier
        # phi's are gone before the next phi_terms call computes its own
        real_phi, real_rms = energy.phi_terms, descent.band_rms
        refs, dead_before, alive_at_rms = [], [], []

        def phi_terms(phi, g, w):
            dead_before.append(all(r() is None for r in refs[1:]))
            out = real_phi(phi, g, w)
            refs[:] = [weakref.ref(phi), weakref.ref(out[0]), weakref.ref(out[1])]
            return out

        def band_rms(gphi, phi, eps):
            alive_at_rms.append(refs[0]() is phi and all(r() is not None for r in refs))
            return real_rms(gphi, phi, eps)

        monkeypatch.setattr(energy, "phi_terms", phi_terms)
        monkeypatch.setattr(descent, "band_rms", band_rms)
        model = disk_model if with_model else None
        state = descent.segment(self.IMAGE, model, self.W, DescentConfig(max_iters=20))
        assert state.iter == 20
        assert alive_at_rms == [True] * 20
        assert len(dead_before) > 20 and all(dead_before)

    def test_step_keeps_the_carry_it_is_handed(self):
        g = energy.edge_indicator(self.IMAGE, self.W.eta, self.W.sigma)
        carry = []
        state = SegmentationState(phi=smooth_phi(48, 48), _carry=carry)
        for _ in range(2):
            state = descent.step(state, self.IMAGE, g, None, self.W, DescentConfig())
            assert state._carry is carry and carry[0] is state.phi

    def test_phi_terms_once_per_distinct_phi(self, monkeypatch):
        real = energy.phi_terms
        seen = []

        def phi_terms(phi, g, w):
            seen.append(phi.tobytes())
            return real(phi, g, w)

        monkeypatch.setattr(energy, "phi_terms", phi_terms)
        state = descent.segment(self.IMAGE, None, self.W, DescentConfig(max_iters=60))
        assert state.iter == 60
        # the initial phi, then at least one trial per step
        assert 61 <= len(seen) == len(set(seen))


class TestInitState:
    def test_default_phi_circle(self):
        phi = descent.default_init_phi((64, 80))
        assert abs(phi[31, 39] - (-16.0)) < 1.0  # center depth ~ min/4
        # zero crossing 16 px right of center
        row = phi[31]
        assert row[39 + 15] < 0 < row[39 + 17]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (2, 2), (64, 80),
                                       (80, 64), (31, 17), (128, 128)])
    def test_default_phi_matches_full_grid_reference(self, shape):
        # the same formula on full np.mgrid coordinate grids, byte for byte
        h, w = shape
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        want = np.sqrt((xs - (w - 1) / 2.0) ** 2 + (ys - (h - 1) / 2.0) ** 2) - min(w, h) / 4.0
        got = descent.default_init_phi(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_region_means(self, disk_model):
        img = np.where(disk_sdf(48, 48, 23.5, 23.5, 12) < 0, 200.0, 50.0)
        st = descent.init_state(img, disk_model, W)
        assert st.lam.shape == (disk_model.p,) and np.all(st.lam == 0)
        assert st.pose == Pose()
        assert 100 < st.i_in[0, 0] < 220
        assert 40 < st.i_out[0, 0] < 120
        assert np.ptp(st.i_in) == 0 and np.ptp(st.i_out) == 0


class TestReinitialize:
    def test_restores_unit_gradient(self):
        phi0 = 5.0 * disk_sdf(64, 64, 31.5, 31.5, 15)
        out = descent.reinitialize(phi0, iters=60)
        m = field.grad_magnitude(out)
        band = (np.abs(out) < 10) & (np.abs(out) > 0.5)
        band[:, -1] = band[-1, :] = False
        frac = np.mean((m[band] >= 0.8) & (m[band] <= 1.2))
        assert frac >= 0.95

    def test_zero_set_stays_put(self):
        phi0 = 5.0 * disk_sdf(64, 64, 31.5, 31.5, 15)
        out = descent.reinitialize(phi0, iters=60)
        # radius recovered from the sign change along the center row
        row = out[31]
        k = np.where(np.diff(np.signbit(row[32:])))[0][0]
        assert abs((k + 0.5) - 14.5) <= 1.0
        # signs may only flip within a pixel of the contour (slope is 5)
        away = np.abs(phi0) > 5.0
        assert np.all(np.signbit(out[away]) == np.signbit(phi0[away]))

    def test_exact_sdf_fixed_point(self):
        phi0 = disk_sdf(64, 64, 31.5, 31.5, 15)
        out = descent.reinitialize(phi0, iters=20)
        inner = np.abs(phi0) < 10
        assert np.max(np.abs(out[inner] - phi0[inner])) < 0.5
        near = np.abs(phi0) < 2
        assert np.max(np.abs(out[near] - phi0[near])) < 0.1

    def test_negative_iters_rejected(self):
        with pytest.raises(ValueError, match="iters"):
            descent.reinitialize(np.zeros((8, 8)), -5)
        phi0 = disk_sdf(8, 8, 3.5, 3.5, 2)
        assert np.array_equal(descent.reinitialize(phi0, 0), phi0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (5, 3), (17, 16), (48, 40)])
    def test_matches_two_branch_godunov(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for scale in (1e-300, 1e-3, 1.0, 7.0, 1e40, 1e120):
            f = scale * rng.standard_normal(shape)
            f[rng.random(shape) < 0.15] = 0.0
            f[rng.random(shape) < 0.15] = -0.0
            for iters in range(9):
                got = descent.reinitialize(f, iters)
                assert got.tobytes() == _godunov_reference(f, iters).tobytes()

    def test_criterion_8_field_matches_the_loop_with_its_invariants_inside(self):
        # -sign and dt*s are computed once, outside the loop, from the same
        # operands in the same order, so no bit moves
        xs, ys = grid(128, 128)
        phi0 = 3.0 * (np.hypot(xs - 63.5, ys - 63.5) - 20.0)
        for iters in (1, 100):
            got = descent.reinitialize(phi0, iters)
            assert got.tobytes() == _reinit_invariants_inside(phi0, iters).tobytes()

    @pytest.mark.parametrize("iters", [0, 5])
    def test_huge_field_aborts_after_any_step(self, iters):
        one_pixel = descent.default_init_phi((16, 16))
        one_pixel[3, 3] = 1e200
        signs = np.where(descent.default_init_phi((16, 16)) < 0, -1e200, 1e200)
        for phi in (one_pixel, signs):
            if iters == 0:
                assert descent.reinitialize(phi, 0).tobytes() == phi.tobytes()
            else:
                with pytest.raises(descent.NumericalAbort, match="non-finite"):
                    descent.reinitialize(phi, iters)


def _reinit_invariants_inside(phi0, iters):
    # descent.reinitialize's loop with -sign and dt * s written inside it
    dt = 0.5
    phi = field.as_field(phi0).copy()
    q = np.clip(phi, -1e150, 1e150)
    s = q / np.sqrt(q * q + 1.0)
    sign = np.sign(s)
    h, w = phi.shape
    dx, dy = np.zeros((h, w + 1)), np.zeros((h + 1, w))
    for _ in range(iters):
        np.subtract(phi[:, 1:], phi[:, :-1], out=dx[:, 1:-1])
        np.subtract(phi[1:], phi[:-1], out=dy[1:-1])
        gx = np.maximum(np.maximum(sign * dx[:, :-1], -sign * dx[:, 1:]), 0.0)
        gy = np.maximum(np.maximum(sign * dy[:-1], -sign * dy[1:]), 0.0)
        phi = phi - dt * s * (np.sqrt(gx * gx + gy * gy) - 1.0)
    return phi


def _godunov_reference(phi0, iters):
    # the two-branch form of the upwind scheme: one magnitude for each sign of s
    dt = 0.5
    phi = field.as_field(phi0).copy()
    s = phi / np.sqrt(phi * phi + 1.0)
    pos = s > 0
    neg = s < 0
    for _ in range(iters):
        p = np.pad(phi, 1, mode="edge")
        a = phi - p[1:-1, :-2]    # backward x
        b = p[1:-1, 2:] - phi     # forward x
        c = phi - p[:-2, 1:-1]    # backward y
        d = p[2:, 1:-1] - phi     # forward y
        g_pos = np.sqrt(np.maximum(np.maximum(a, 0.0) ** 2, np.minimum(b, 0.0) ** 2)
                        + np.maximum(np.maximum(c, 0.0) ** 2, np.minimum(d, 0.0) ** 2))
        g_neg = np.sqrt(np.maximum(np.minimum(a, 0.0) ** 2, np.maximum(b, 0.0) ** 2)
                        + np.maximum(np.minimum(c, 0.0) ** 2, np.maximum(d, 0.0) ** 2))
        grad_mag = np.where(pos, g_pos, np.where(neg, g_neg, 0.0))
        phi = phi - dt * s * (grad_mag - 1.0)
    return phi


# every float field of the two config classes
NUMERIC_FIELDS = ([(EnergyWeights, f.name) for f in dataclasses.fields(EnergyWeights)]
                  + [(DescentConfig, "tol")])


class TestConfigKv:
    def test_roundtrip(self):
        w = EnergyWeights(alpha=0.1, gamma=0.5)
        cfg = DescentConfig(max_iters=77, tol=1e-5)
        w2, c2 = descent.config_from_kv(descent.config_to_kv(w, cfg))
        assert w2 == w and c2 == cfg
        # NumPy scalars serialize as plain numbers too
        w = EnergyWeights(alpha=np.float64(0.1), gamma=np.float32(0.5))
        cfg = DescentConfig(max_iters=np.int64(77), tol=np.float64(1e-5))
        w2, c2 = descent.config_from_kv(descent.config_to_kv(w, cfg))
        assert w2 == w and c2 == cfg

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        pos = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
        w = EnergyWeights(**{k: data.draw(pos) for k in
                             ("alpha", "xi", "gamma", "beta", "nu", "eta", "sigma", "eps")},
                          **{k: data.draw(st.floats(0.0, 1e300)) for k in ("mu", "zeta")})
        cfg = DescentConfig(
            max_iters=data.draw(st.integers(0, 10 ** 9)),
            tol=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
        w2, c2 = descent.config_from_kv(descent.config_to_kv(w, cfg))
        assert w2 == w and c2 == cfg

    def test_comments_and_blanks(self):
        text = descent.config_to_kv(EnergyWeights(), DescentConfig())
        text = "# run config\n\n" + text + "   \n"
        w2, c2 = descent.config_from_kv(text)
        assert w2 == EnergyWeights() and c2 == DescentConfig()

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            descent.config_from_kv("bogus=1\n")

    @pytest.mark.parametrize("key", ["step_lambda", "step_pose", "fd_h",
                                     "inner_ms_iters", "record_every", "dt_phi"])
    def test_retired_keys_are_unknown(self, key):
        with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
            descent.config_from_kv(f"{key}=0.5\n")

    def test_schedule_has_two_knobs(self):
        # the phi step bound is the module constant DT_PHI, not a field
        assert [f.name for f in dataclasses.fields(DescentConfig)] == ["max_iters", "tol"]
        with pytest.raises(TypeError):
            DescentConfig(dt_phi=0.2)

    def test_every_key_written(self):
        lines = descent.config_to_kv(EnergyWeights(), DescentConfig()).splitlines()
        assert len(lines) == 12
        assert [ln.split("=")[0] for ln in lines[-2:]] == ["max_iters", "tol"]

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            descent.config_from_kv("alpha 0.1\n")

    def test_validation_applies(self):
        with pytest.raises(ValueError):
            descent.config_from_kv("alpha=-1\n")

    @pytest.mark.parametrize("text, key", [("max_iters=1.5\n", "max_iters"),
                                           ("alpha=0.1\neps=abc\n", "eps"),
                                           ("tol=\n", "tol")])
    def test_bad_value_names_its_key(self, text, key):
        with pytest.raises(ValueError, match=f"^config key '{key}': "):
            descent.config_from_kv(text)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, np.float64(3.0), "3", True, np.True_,
                                           None, 1 + 0j, np.complex128(1)])
    def test_non_integral_max_iters_rejected(self, max_iters):
        # a float count was accepted and then made segment raise a bare TypeError,
        # and a bool was written as True, which config_from_kv rejects
        with pytest.raises(ValueError, match="^max_iters must be an integer$"):
            DescentConfig(max_iters=max_iters)

    @pytest.mark.parametrize("cls, name", NUMERIC_FIELDS)
    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_rejected_in_every_numeric_field(self, cls, name, flag):
        with pytest.raises(ValueError, match=f"^{name} must be a number, not a bool$"):
            cls(**{name: flag})

    @pytest.mark.parametrize("cls, name", NUMERIC_FIELDS)
    @pytest.mark.parametrize("value, kind", [("0.2", "str"), (None, "NoneType"),
                                             (1 + 0j, "complex"), (np.complex128(1), "complex128")])
    def test_non_real_rejected_in_every_numeric_field(self, cls, name, value, kind):
        # these reached the bounds checks and raised a bare TypeError there
        with pytest.raises(ValueError, match=f"^{name} must be a real number, not {kind}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name", NUMERIC_FIELDS + [(DescentConfig, "max_iters")])
    def test_every_field_is_frozen(self, cls, name):
        # an assignment would skip __post_init__'s checks
        obj = cls()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))

    @pytest.mark.parametrize("obj, edit, match", [
        (DescentConfig(), dict(max_iters=-5), "^max_iters must be finite and >= 0$"),
        (EnergyWeights(), dict(alpha=float("nan")), "^alpha must be positive and finite$"),
    ])
    def test_replace_runs_the_checks(self, obj, edit, match):
        with pytest.raises(ValueError, match=match):
            type(obj)(**edit)
        with pytest.raises(ValueError, match=match):
            replace(obj, **edit)

    def test_integral_max_iters_round_trips_and_runs(self):
        cfg = DescentConfig(max_iters=np.int32(2))
        assert descent.config_from_kv(descent.config_to_kv(EnergyWeights(), cfg))[1] == cfg
        img = np.where(disk_mask(16, 16, 7.5, 7.5, 4.0), 200.0, 50.0)
        assert descent.segment(img, None, EnergyWeights(), cfg).iter == 2

    @pytest.mark.parametrize("text", ["alpha=nan\ntol=nan\n",
                                      "tol=nan\n", "tol=inf\n", "zeta=inf\n"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError):
            descent.config_from_kv(text)
