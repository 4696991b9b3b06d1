import itertools

import numpy as np
import pytest
from scipy.special import erf

from shapeseg import energy, field
from shapeseg.energy import EnergyWeights

from conftest import disk_sdf, grid, traced_peak


W = EnergyWeights()


def f1_of(phi):
    return energy.total_energy(phi, None, np.ones_like(phi), None, None, None, W).f1


def f2_of(phi, g, prior, w):
    z = np.zeros_like(phi)
    return energy.total_energy(phi, z, g, prior, z, z, w).f2


def f4_of(img, i_in, i_out, prior, w):
    return energy.total_energy(prior, img, np.ones_like(img), prior, i_in, i_out, w).f4


def f4_recipe(img, i_in, i_out, prior, w):
    """F4 written out in the operation order the descent's bit-identical outputs rely on."""
    gx_in, gy_in = field.grad(i_in)
    gx_out, gy_out = field.grad(i_out)
    fit_in = (img - i_in) ** 2 + w.mu * (gx_in ** 2 + gy_in ** 2)
    fit_out = (img - i_out) ** 2 + w.mu * (gx_out ** 2 + gy_out ** 2)
    h_in = energy.heaviside_eps(-prior, w.eps)
    gx, gy = field.grad(prior)
    m = np.sqrt(gx * gx + gy * gy + energy.KAPPA * energy.KAPPA)
    return (float(np.sum(fit_in * h_in + fit_out * (1.0 - h_in)))
            + w.zeta * float(np.sum(energy.dirac_eps(prior, w.eps) * m)))


class TestHeavisideDirac:
    def test_zero_is_half(self):
        assert energy.heaviside_eps(0.0, 1.5) == 0.5

    def test_limits(self):
        assert abs(energy.heaviside_eps(1e6 * 1.5, 1.5) - 1.0) < 1e-5
        assert energy.heaviside_eps(-1e6 * 1.5, 1.5) < 1e-5

    def test_odd_symmetry_exact(self, rng):
        z = rng.normal(scale=10, size=1000)
        s = energy.heaviside_eps(z, 1.5) + energy.heaviside_eps(-z, 1.5)
        assert np.max(np.abs(s - 1.0)) < 1e-15

    def test_strictly_increasing(self):
        # strict within the resolvable band, non-decreasing everywhere
        z = np.linspace(-7.5, 7.5, 400)
        assert np.all(np.diff(energy.heaviside_eps(z, 1.5)) > 0)
        wide = np.linspace(-40, 40, 400)
        assert np.all(np.diff(energy.heaviside_eps(wide, 1.5)) >= 0)

    def test_erf_saturates_below_six(self):
        # heaviside_eps writes +-1 instead of erf for |z/eps| >= 6; that is
        # exact only while binary64 erf is already +-1.0 there
        assert erf(5.9216) == 1.0 and erf(-5.9216) == -1.0

    @pytest.mark.parametrize("eps", [0.1, 1.5, 7.0])
    def test_matches_erf_formula_bit_for_bit(self, eps, rng):
        # s = z/eps either side of the erf band's edge |s| = 6 and of the s^2
        # where dirac_eps stops running exp, zeros, infinities, NaN of both signs
        band = np.linspace(5.8, 6.2, 801)
        run = np.sqrt(-np.log(np.finfo(np.float64).tiny * eps * np.sqrt(np.pi)))
        run = run * (1.0 + np.linspace(-1e-6, 1e-6, 41))
        s = np.concatenate([band, -band, run, -run, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                            rng.uniform(-8, 8, size=2000)])
        z = np.concatenate([s * eps, [1e300, -1e300]])
        fresh = energy.heaviside_eps(z, eps)
        nan = np.isnan(z)
        want = 0.5 * (1.0 + erf(z / eps))
        assert fresh[~nan].tobytes() == want[~nan].tobytes()
        assert np.isnan(fresh[nan]).all()
        # built in out, whether out is z itself or another array, with the same bytes
        for into_z in (True, False):
            out = z.copy() if into_z else np.full_like(z, 3.25)
            got = energy.heaviside_eps(out if into_z else z, eps, out=out)
            assert np.shares_memory(got, out) and got.tobytes() == fresh.tobytes()
        # a scalar z gives a scalar
        for v in (0.0, -0.0, 6.0 * eps, -6.0 * eps, run[0] * eps, 1e300, -1e300, np.nan):
            one = energy.heaviside_eps(v, eps)
            assert isinstance(one, np.float64)
            assert one.tobytes() == (0.5 * (1.0 + erf(np.float64(v) / eps))).tobytes()

    def test_dirac_at_zero(self):
        # value at 0 for the Gaussian regularization: 1/(eps*sqrt(pi))
        for eps in (0.5, 1.5, 3.0):
            assert abs(energy.dirac_eps(0.0, eps) - 1.0 / (eps * np.sqrt(np.pi))) < 1e-15

    def test_dirac_is_heaviside_derivative(self, rng):
        # central finite differences of H at 1000 random points
        z = rng.uniform(-2.5 * 1.5, 2.5 * 1.5, size=1000)
        h = 1e-5
        fd = (energy.heaviside_eps(z + h, 1.5) - energy.heaviside_eps(z - h, 1.5)) / (2 * h)
        d = energy.dirac_eps(z, 1.5)
        assert np.max(np.abs(fd - d) / np.abs(d)) < 1e-6

    def test_dirac_prime_is_dirac_derivative(self, rng):
        z = rng.normal(scale=3, size=500)
        h = 1e-6
        fd = (energy.dirac_eps(z + h, 1.5) - energy.dirac_eps(z - h, 1.5)) / (2 * h)
        dp = energy.dirac_eps_prime(z, 1.5, energy.dirac_eps(z, 1.5))
        assert np.max(np.abs(fd - dp)) < 1e-6

    def test_dirac_huge_argument_is_silent_and_exact(self, recwarn):
        z = np.array([1e155, -1e155, 1e300, -1e300, np.inf, -np.inf, 41.9, 42.0, 42.1,
                      -42.1, 0.0, -0.0, 3.7, np.nan])
        for eps in (0.1, 1.5, 7.0):
            got = energy.dirac_eps(z, eps)
            assert not recwarn.list, [str(w.message) for w in recwarn.list]
            with np.errstate(over="ignore"):
                want = np.exp(-((z / eps) ** 2)) / (eps * np.sqrt(np.pi))
            assert got.tobytes() == want.tobytes()
            assert energy.dirac_eps(1e300, eps) == 0.0 and not recwarn.list

    @staticmethod
    def _dirac_unflushed(z, eps):
        # the formula before the flush, subnormal results and all
        s = np.clip(np.asarray(z, dtype=np.float64) / eps, -28.0, 28.0)
        return np.exp(-(s * s)) / (eps * np.sqrt(np.pi))

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1 / np.sqrt(np.pi), 1.0, 1.5, 7.0, 1e150])
    def test_dirac_flushes_subnormal_results_only(self, eps, recwarn):
        # s^2 = (z/eps)^2 across the band where the result leaves the normal
        # range, both signs, with NaN, infinities, zeros and ordinary arguments
        edge = -np.log(np.finfo(np.float64).tiny * eps * np.sqrt(np.pi))
        band = eps * np.sqrt(np.linspace(edge - 20.0, min(edge + 40.0, 784.0), 20001))
        z = np.concatenate([band, -band, [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, 3.7, -0.2]])
        got = energy.dirac_eps(z, eps)
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        want = self._dirac_unflushed(z, eps)
        tiny = np.finfo(np.float64).tiny
        flushed = want < tiny
        assert np.any(flushed & (want > 0))     # the band has subnormal results
        assert got[flushed].tobytes() == np.zeros(np.count_nonzero(flushed)).tobytes()
        assert np.array_equal(np.isnan(got), np.isnan(z))
        assert got[~flushed].tobytes() == want[~flushed].tobytes()
        # one argument at a time, as a float and as a 0-d array: a scalar comes back
        for zi, wi in zip(z[::97], want[::97]):
            for arg in (float(zi), np.array(zi)):
                one = energy.dirac_eps(arg, eps)
                assert isinstance(one, np.float64)
                assert one.tobytes() == (np.float64(0.0) if wi < tiny else wi).tobytes()

    def test_dirac_unit_mass(self):
        eps = 1.5
        z = np.arange(-50 * eps, 50 * eps + eps / 200, eps / 100)
        mass = np.trapezoid(energy.dirac_eps(z, eps), z)
        assert abs(mass - 1.0) < 1e-2

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            energy.heaviside_eps(0.0, 0.0)
        with pytest.raises(ValueError):
            energy.dirac_eps(0.0, -1.0)

    @pytest.mark.parametrize("kernel", [energy.heaviside_eps, energy.dirac_eps])
    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_eps_must_be_positive_and_finite(self, kernel, eps):
        # a NaN or infinite eps used to return a field of NaN or of constants
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            kernel(np.linspace(-3.0, 3.0, 7), eps)


class TestKernelPeaks:
    """Each kernel holds one result-sized buffer, plus masks and the band's values."""

    W = EnergyWeights()
    # a signed distance on 128 x 128, whose band |phi/eps| < 6 covers 21% of the grid
    PHI = disk_sdf(128, 128, 60.3, 66.1, 30.0)
    G = energy.edge_indicator(np.where(PHI < 0, 200.0, 50.0), W.eta, W.sigma)

    @pytest.mark.parametrize("kernel, grids", [
        # 1.34 grids: the result, the band mask and the band's values (2.54 with
        # |z/eps| and erf's values held beside them)
        (lambda phi, g, w: energy.heaviside_eps(phi, w.eps), 1.75),
        # 1.14: the result and one mask (1.26 with two masks held at once, 2.26
        # with a separate exp buffer)
        (lambda phi, g, w: energy.dirac_eps(phi, w.eps), 1.15),
        # 1.34: H(-phi) built in the buffer of -phi (3.55 with a second grid)
        (lambda phi, g, w: energy.energy_f3(phi, g, w), 1.75),
        # 3.34: |grad phi| and dirac(phi), kept, and F3's 1.34 (5.55 at most before)
        (lambda phi, g, w: energy.phi_terms(phi, g, w), 3.75),
    ], ids=["heaviside_eps", "dirac_eps", "energy_f3", "phi_terms"])
    def test_peak(self, kernel, grids):
        peak = traced_peak(lambda: kernel(self.PHI, self.G, self.W))
        assert peak <= grids * self.PHI.nbytes, peak / self.PHI.nbytes

    def test_heaviside_into_z_holds_no_second_grid(self):
        # 0.34: the band mask and the band's values; z is refilled with -phi each call
        z = np.empty_like(self.PHI)
        peak = traced_peak(lambda: energy.heaviside_eps(np.negative(self.PHI, out=z), self.W.eps,
                                                        out=z))
        assert peak <= 0.5 * z.nbytes, peak / z.nbytes


class TestEdgeIndicator:
    def test_constant_image(self):
        g = energy.edge_indicator(np.full((32, 32), 7.0), 10.0, 1.5)
        assert np.allclose(g, 1.0, atol=1e-14)

    def test_range_and_flat_iff_one(self, rng):
        img = rng.uniform(0, 255, size=(32, 32))
        g = energy.edge_indicator(img, 10.0, 1.5)
        assert np.all(g > 0) and np.all(g <= 1)

    def test_step_edge_minimum_location(self):
        xs, _ = grid(32, 64)
        img = (xs >= 32).astype(np.float64)
        g = energy.edge_indicator(img, 10.0, 1.5)
        col_min = g[16].argmin()
        assert g[16].min() < 0.5
        assert abs(col_min - 31.5) <= 1.0

    @pytest.mark.parametrize("eta, sigma", [
        (0.0, 1.5), (-1.0, 1.5), (np.nan, 1.5), (np.inf, 1.5),
        (10.0, 0.0), (10.0, -1.0), (10.0, np.nan), (10.0, np.inf),
    ])
    def test_eta_and_sigma_must_be_positive_and_finite(self, eta, sigma):
        with pytest.raises(ValueError, match="eta and sigma"):
            energy.edge_indicator(np.zeros((16, 16)), eta, sigma)

    def test_eta_formula_recomputation(self, rng):
        # doubling eta reproduces 1/(1 + 2*eta*|.|^2) computed directly
        img = rng.uniform(0, 255, size=(24, 24))
        g1 = energy.edge_indicator(img, 10.0, 1.5)
        g2 = energy.edge_indicator(img, 20.0, 1.5)
        sq = 1.0 / g1 - 1.0  # eta*|grad|^2 recovered from the formula
        want = 1.0 / (1.0 + 2.0 * sq)
        assert np.max(np.abs(g2 - want)) < 1e-12


class TestEnergyF1:
    def test_halfplane_sdf_near_zero(self):
        xs, _ = grid(64, 64)
        phi = xs - 32.0
        m = energy.smooth_grad_magnitude(phi)
        contrib = (m - 1.0) ** 2
        assert np.max(contrib[:, :-1][:-1]) < 1e-6

    def test_double_slope(self):
        xs, _ = grid(64, 64)
        phi = 2.0 * (xs - 32.0)
        val = f1_of(phi)
        # (2-1)^2 on interior columns, (0-1)^2 on the zero-gradient last column
        want = 1.0 * 64 * 63 + 1.0 * 64
        assert abs(val - want) < 1e-9 * want

    def test_constant_field(self):
        # |grad| = 0 everywhere (up to the kappa smoothing floor)
        val = f1_of(np.full((32, 32), 5.0))
        assert abs(val - 32 * 32) < 1e-9 * 32 * 32
        assert abs(val - 32 * 32 * (1 - energy.KAPPA) ** 2) < 1e-14 * 32 * 32


class TestEnergyF2:
    def test_far_from_zero_level_set(self):
        phi = np.full((64, 64), 100.0)
        g = np.ones_like(phi)
        val = f2_of(phi, g, np.zeros_like(phi), W)
        assert val <= 1e-3

    def test_disk_curve_length(self):
        phi = disk_sdf(128, 128, 63.5, 63.5, 20)
        g = np.ones_like(phi)
        w = EnergyWeights(xi=1.0)
        val = f2_of(phi, g, np.zeros_like(phi), w)
        assert abs(val - 2 * np.pi * 20) / (2 * np.pi * 20) < 0.05

    def test_prior_vanishing_on_contour(self):
        phi = disk_sdf(128, 128, 63.5, 63.5, 20)
        g = np.ones_like(phi)
        w = EnergyWeights(xi=1.0, gamma=0.002)
        with_prior = f2_of(phi, g, phi, w)
        xi_only = f2_of(phi, g, np.zeros_like(phi), w)
        # term-by-term recomposition
        m = energy.smooth_grad_magnitude(phi)
        prior_term = 0.5 * w.gamma * float(np.sum(phi ** 2 * energy.dirac_eps(phi, w.eps) * m))
        assert abs(with_prior - (xi_only + prior_term)) < 1e-9
        assert abs(with_prior - xi_only) / xi_only < 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            f2_of(np.zeros((8, 8)), np.zeros((8, 9)), np.zeros((8, 8)), W)


class TestEnergyF3:
    def test_disk_area(self):
        phi = disk_sdf(128, 128, 63.5, 63.5, 20)
        val = energy.energy_f3(phi, np.ones_like(phi), W)
        assert abs(val - np.pi * 400) / (np.pi * 400) < 0.03

    def test_empty_interior(self):
        phi = np.full((64, 64), 100.0)
        assert energy.energy_f3(phi, np.ones_like(phi), W) <= 1e-3

    def test_linear_in_g(self, rng):
        phi = disk_sdf(64, 64, 31.5, 31.5, 15)
        g = rng.uniform(0.1, 1.0, size=phi.shape)
        assert abs(energy.energy_f3(phi, 0.5 * g, W)
                   - 0.5 * energy.energy_f3(phi, g, W)) < 1e-12


class TestCurveLength:
    @pytest.mark.parametrize("r", [15, 20, 30])
    def test_disk_perimeter(self, r):
        phi = disk_sdf(128, 128, 63.5, 63.5, r)
        val = energy.curve_length(phi, 1.5)
        assert abs(val - 2 * np.pi * r) / (2 * np.pi * r) < 0.05

    def test_no_zero_crossing(self):
        assert energy.curve_length(np.full((64, 64), 50.0), 1.5) <= 1e-3

    @pytest.mark.parametrize("r", [15, 20, 30])
    def test_tv_cross_oracle(self, r):
        phi = disk_sdf(128, 128, 63.5, 63.5, r)
        val = energy.curve_length(phi, 1.5)
        tv = field.total_variation(energy.heaviside_eps(-phi, 1.5))
        assert abs(val - tv) / tv < 0.05


class TestEnergyF4:
    def test_perfect_fit_zero(self):
        img = np.random.default_rng(0).uniform(0, 255, size=(32, 32))
        prior = disk_sdf(32, 32, 15.5, 15.5, 8)
        w = EnergyWeights(mu=0.0, zeta=0.0)
        val = f4_of(img, img, img, prior, w)
        assert val == 0.0

    def test_two_phase_interface_band_residual(self):
        prior = disk_sdf(128, 128, 63.5, 63.5, 20)
        img = np.where(prior < 0, 1.0, 0.0)
        w = EnergyWeights(mu=1e-12, zeta=1e-12)
        val = f4_of(img, np.ones_like(img), np.zeros_like(img), prior, w)
        band = np.sum(np.abs(prior) < 3 * w.eps)
        assert val <= 1.0 * band

    def test_zeta_length_term(self):
        prior = disk_sdf(128, 128, 63.5, 63.5, 20)
        img = np.zeros_like(prior)
        w = EnergyWeights(mu=1e-12, zeta=1.0)
        val = f4_of(img, img, img, prior, w)
        assert abs(val - 2 * np.pi * 20) / (2 * np.pi * 20) < 0.05

    def test_intensity_shift_invariance(self, rng):
        img = rng.uniform(0, 255, size=(32, 32))
        i_in = rng.uniform(0, 255, size=(32, 32))
        i_out = rng.uniform(0, 255, size=(32, 32))
        prior = disk_sdf(32, 32, 15.5, 15.5, 8)
        a = f4_of(img, i_in, i_out, prior, W)
        b = f4_of(img + 40, i_in + 40, i_out + 40, prior, W)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)

    def test_matches_written_out_recipe(self, rng):
        img = rng.uniform(0, 255, size=(24, 20))
        i_in = rng.uniform(0, 255, size=img.shape)
        i_out = rng.uniform(0, 255, size=img.shape)
        prior = disk_sdf(24, 20, 9.3, 11.6, 6.2)
        want = f4_recipe(img, i_in, i_out, prior, W)
        assert f4_of(img, i_in, i_out, prior, W).hex() == want.hex()


class TestFitTerms:
    @pytest.mark.parametrize("shape", [(2, 2), (7, 6), (24, 20)])
    @pytest.mark.parametrize("mu", [0.0, 0.37, 1e3])
    def test_matches_written_out_formula(self, rng, shape, mu):
        img, i_in, i_out = (rng.uniform(0, 255, size=shape) for _ in range(3))
        want = []
        for j in (i_in, i_out):
            gx, gy = field.grad(j)
            want.append((img - j) ** 2 + mu * (gx ** 2 + gy ** 2))
        got = energy.fit_terms(img, i_in, i_out, EnergyWeights(mu=mu))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


class TestBreakdown:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(2, 2), (7, 6), (24, 20)])
    @pytest.mark.parametrize("fit_scale", [1.0, 1e4])
    def test_matches_written_out_operation_order(self, seed, shape, fit_scale):
        # random fields and terms rather than consistent ones, so that a
        # re-associated product or sum changes some bit of the result; fits of
        # unit scale keep nu*F4 from swamping the rounding of the other terms
        r = np.random.default_rng(seed)
        m, d, g = (r.uniform(0.01, 3.0, size=shape) for _ in range(3))
        prior = r.normal(scale=4.0, size=shape)
        fit_in, fit_out = (r.uniform(0, fit_scale, size=shape) for _ in range(2))
        f1, f3 = (float(v) for v in r.uniform(0, 1e3, size=2))
        w = EnergyWeights(**{k: float(r.uniform(0.1, 3.0))
                             for k in ("alpha", "xi", "gamma", "beta", "nu", "zeta")})
        # phi_terms' prior-free F2 is not the F2 of a breakdown with a prior
        f2_free = float(r.uniform(0, 1e3))
        got_f4 = energy.energy_f4((fit_in, fit_out), prior, w)
        bd = energy.breakdown((m, d, f1, f3, f2_free), got_f4, g, prior, w)
        f2 = float(np.sum((w.xi * g + 0.5 * w.gamma * prior ** 2) * d * m))
        h_in = energy.heaviside_eps(-prior, w.eps)
        f4 = (float(np.sum(fit_in * h_in + fit_out * (1.0 - h_in)))
              + w.zeta * energy.curve_length(prior, w.eps))
        total = 0.5 * w.alpha * f1 + f2 + w.beta * f3 + w.nu * f4
        assert got_f4.hex() == f4.hex()
        assert [v.hex() for v in (bd.f1, bd.f2, bd.f3, bd.f4, bd.total)] == \
            [v.hex() for v in (f1, f2, f3, f4, total)]

    @pytest.mark.parametrize("seed", range(6))
    def test_prior_free_takes_f2_from_phi_terms(self, seed):
        # without a prior, breakdown reads no field: F2 is phi_t's, F4 is 0
        # whatever F4 it is handed
        r = np.random.default_rng(seed)
        f1, f3, f2, f4 = (float(v) for v in r.uniform(0, 1e3, size=4))
        w = EnergyWeights(**{k: float(r.uniform(0.1, 3.0)) for k in ("alpha", "beta", "nu")})
        bd = energy.breakdown((None, None, f1, f3, f2), f4, None, None, w)
        total = 0.5 * w.alpha * f1 + f2 + w.beta * f3 + w.nu * 0.0
        assert [v.hex() for v in (bd.f1, bd.f2, bd.f3, bd.f4, bd.total)] == \
            [v.hex() for v in (f1, f2, f3, 0.0, total)]


class TestPhiTerms:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(2, 2), (7, 6), (24, 20)])
    def test_matches_written_out_operation_order(self, seed, shape):
        # random fields rather than an SDF, so that a re-associated product or
        # sum changes some bit; phi of a few eps keeps most Dirac weights normal
        r = np.random.default_rng(seed)
        phi = r.normal(scale=3.0, size=shape)
        g = r.uniform(0.01, 1.0, size=shape)
        w = EnergyWeights(xi=float(r.uniform(0.1, 10.0)), eps=float(r.uniform(0.5, 3.0)))
        m, d, f1, f3, f2 = energy.phi_terms(phi, g, w)
        gx, gy = field.grad(phi)
        want_m = np.sqrt(gx * gx + gy * gy + energy.KAPPA * energy.KAPPA)
        want_d = energy.dirac_eps(phi, w.eps)
        assert m.tobytes() == want_m.tobytes() and d.tobytes() == want_d.tobytes()
        assert f1.hex() == float(np.sum((want_m - 1.0) ** 2)).hex()
        assert f3.hex() == energy.energy_f3(phi, g, w).hex()
        assert f2.hex() == float(np.sum(w.xi * g * want_d * want_m)).hex()
        # the same F2 as a breakdown with the prior-free weight built separately
        assert f2.hex() == float(np.sum(energy.f2_weight(g, None, w) * d * m)).hex()

    def test_rejects_mismatched_edge_field(self):
        with pytest.raises(ValueError, match="field dimensions differ"):
            energy.phi_terms(np.zeros((4, 4)), np.ones((4, 5)), W)


class TestTotalEnergy:
    def test_component_recomposition(self, rng):
        phi = disk_sdf(64, 64, 31.5, 31.5, 15)
        img = rng.uniform(0, 255, size=phi.shape)
        g = energy.edge_indicator(img, W.eta, W.sigma)
        prior = disk_sdf(64, 64, 31.5, 31.5, 12)
        i_in = np.full_like(img, 200.0)
        i_out = np.full_like(img, 50.0)
        bd = energy.total_energy(phi, img, g, prior, i_in, i_out, W)
        assert bd.f1 == f1_of(phi)
        assert bd.f2 == f2_of(phi, g, prior, W)
        assert bd.f3 == energy.energy_f3(phi, g, W)
        assert bd.f4 == f4_of(img, i_in, i_out, prior, W)
        composed = 0.5 * W.alpha * bd.f1 + bd.f2 + W.beta * bd.f3 + W.nu * bd.f4
        assert abs(bd.total - composed) < 1e-12 * max(abs(composed), 1.0)

    def test_nu_scaling(self, rng):
        phi = disk_sdf(64, 64, 31.5, 31.5, 15)
        img = rng.uniform(0, 255, size=phi.shape)
        g = energy.edge_indicator(img, W.eta, W.sigma)
        prior = disk_sdf(64, 64, 31.5, 31.5, 12)
        i_in = np.full_like(img, 180.0)
        i_out = np.full_like(img, 60.0)
        w2 = EnergyWeights(nu=2 * W.nu)
        bd1 = energy.total_energy(phi, img, g, prior, i_in, i_out, W)
        bd2 = energy.total_energy(phi, img, g, prior, i_in, i_out, w2)
        assert abs((bd2.total - bd1.total) - W.nu * bd1.f4) < 1e-9

    def test_trivial_zero_composition(self):
        # each term sits at its own trivial value and the total recomposes them
        phi = disk_sdf(128, 128, 63.5, 63.5, 20)  # exact SDF: F1 ~ 0
        img = np.zeros_like(phi)                   # flat image: g = 1
        g = energy.edge_indicator(img, W.eta, W.sigma)
        w = EnergyWeights(xi=1.0, gamma=1e-12, nu=1e-12)
        bd = energy.total_energy(phi, img, g, phi, img, img, w)
        L = 2 * np.pi * 20
        A = np.pi * 400
        assert abs(bd.f2 - L) / L < 0.05
        assert abs(bd.f3 - A) / A < 0.03
        want = 0.5 * w.alpha * bd.f1 + bd.f2 + w.beta * bd.f3 + w.nu * bd.f4
        assert abs(bd.total - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_matches_written_out_recipe(self, rng, with_prior):
        phi = disk_sdf(24, 20, 9.8, 11.1, 5.5) + 0.3 * rng.normal(size=(24, 20))
        img = rng.uniform(0, 255, size=phi.shape)
        g = energy.edge_indicator(img, W.eta, W.sigma)
        prior = disk_sdf(24, 20, 9.3, 11.6, 6.2) if with_prior else None
        i_in = rng.uniform(0, 255, size=phi.shape)
        i_out = rng.uniform(0, 255, size=phi.shape)
        gx, gy = field.grad(phi)
        m = np.sqrt(gx * gx + gy * gy + energy.KAPPA * energy.KAPPA)
        d = energy.dirac_eps(phi, W.eps)
        f1 = float(np.sum((m - 1.0) ** 2))
        f3 = float(np.sum(g * energy.heaviside_eps(-phi, W.eps)))
        f2w = W.xi * g if prior is None else W.xi * g + 0.5 * W.gamma * prior ** 2
        f2 = float(np.sum(f2w * d * m))
        f4 = 0.0 if prior is None else f4_recipe(img, i_in, i_out, prior, W)
        total = 0.5 * W.alpha * f1 + f2 + W.beta * f3 + W.nu * f4
        bd = energy.total_energy(phi, img, g, prior, i_in, i_out, W)
        assert [v.hex() for v in (bd.f1, bd.f2, bd.f3, bd.f4, bd.total)] == \
            [v.hex() for v in (f1, f2, f3, f4, total)]

    @pytest.mark.parametrize("handed", list(itertools.product([False, True], repeat=3)),
                             ids=lambda h: "".join("h" if x else "-" for x in h))
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_handed_fields_give_the_same_bytes(self, rng, with_prior, handed):
        # phi_t, fits and f4 are what a caller that already holds them hands over;
        # each one left None is computed, so every mix gives the same record and
        # leaves the handed fields as they were
        phi = disk_sdf(24, 20, 9.8, 11.1, 5.5) + 0.3 * rng.normal(size=(24, 20))
        img = rng.uniform(0, 255, size=phi.shape)
        g = energy.edge_indicator(img, W.eta, W.sigma)
        prior = disk_sdf(24, 20, 9.3, 11.6, 6.2) if with_prior else None
        i_in = rng.uniform(0, 255, size=phi.shape)
        i_out = rng.uniform(0, 255, size=phi.shape)
        phi_t = energy.phi_terms(phi, g, W)
        fits = energy.fit_terms(img, i_in, i_out, W)
        f4 = None if prior is None else energy.energy_f4(fits, prior, W)
        fields = [*phi_t[:2], *fits]
        before = [a.tobytes() for a in fields]
        want = energy.total_energy(phi, img, g, prior, i_in, i_out, W)
        got = energy.total_energy(phi, img, g, prior, i_in, i_out, W,
                                  *(a if h else None for a, h in zip((phi_t, fits, f4), handed)))
        assert [v.hex() for v in (got.f1, got.f2, got.f3, got.f4, got.total)] == \
            [v.hex() for v in (want.f1, want.f2, want.f3, want.f4, want.total)]
        assert [a.tobytes() for a in fields] == before


class TestWeightsValidation:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            EnergyWeights(alpha=0.0)
        with pytest.raises(ValueError):
            EnergyWeights(eps=-1.0)
        EnergyWeights(mu=0.0, zeta=0.0)  # non-negative weights may be zero
