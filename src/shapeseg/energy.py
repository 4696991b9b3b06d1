"""The four-term segmentation energy and its regularized Heaviside calculus.

Total energy of a state (phi, lambda, pose, I_in, I_out):

    total = (alpha/2)*F1 + F2 + beta*F3 + nu*F4

where F1 penalizes deviation of |grad phi| from 1 (keeps phi a signed
distance field), F2 is a geodesic length term weighted by the edge indicator
plus a quadratic pull toward the warped prior's zero set, F3 is an
edge-weighted area term, and F4 is a piecewise-smooth Mumford-Shah fit of the
image inside/outside the prior-predicted region plus a contour-length
penalty.

All integrals are plain pixel sums (unit spacing). Wherever |grad phi|
appears it is smoothed as sqrt(gx^2 + gy^2 + KAPPA^2) so the energy is
everywhere differentiable; the descent module differentiates exactly these
discrete sums.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import field

# smoothing floor for gradient magnitudes inside energies
KAPPA = 1e-10


@dataclass
class EnergyWeights:
    """All scalar hyperparameters of the energy.

    Defaults are the reference desk-scale settings used throughout the test
    fixtures; they are recorded in every resolved run config.
    """

    alpha: float = 1.0     # SDF penalty weight (applied as alpha/2); strong
                           # enough to stop the exact dirac' gradient from
                           # steepening the interface into a pinned step
    xi: float = 5.0        # geodesic edge weight in F2
    gamma: float = 0.002   # prior pull weight in F2
    beta: float = 1.5      # area term weight
    nu: float = 0.01       # Mumford-Shah term weight
    mu: float = 1.0        # smoothness weight inside F4
    zeta: float = 0.1      # contour length weight inside F4
    eta: float = 10.0      # edge indicator contrast
    sigma: float = 1.5     # Gaussian pre-smoothing std dev
    eps: float = 1.5       # Heaviside/Dirac regularization width

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN fails every check
        for name in ("alpha", "xi", "gamma", "beta", "nu", "eta", "sigma", "eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("mu", "zeta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")


@dataclass
class EnergyBreakdown:
    """Unweighted term values plus the weighted total."""

    f1: float
    f2: float
    f3: float
    f4: float
    total: float


def heaviside_eps(z, eps: float):
    """Smooth Heaviside: 0.5*(1 + erf(z/eps)).

    Globally supported and strictly increasing with H(0) = 1/2, but with
    Gaussian rather than Cauchy tails: the slowly decaying arctan variant
    inflates region integrals by several percent of the domain size, which
    breaks the area oracles this regularization must satisfy.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = np.asarray(z, dtype=np.float64) / eps
    # binary64 erf(s) is exactly +-1.0 for |s| >= 5.922, so erf runs on a band only
    e = np.sign(s, out=np.empty_like(s))
    band = np.abs(s) < 6.0
    e[band] = erf(s[band])
    return 0.5 * (1.0 + e)


def dirac_eps(z, eps: float):
    """Smooth Dirac: exp(-(z/eps)^2) / (eps*sqrt(pi)); exact derivative of heaviside_eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    # exp(-s^2) is exactly 0.0 from |s| = 28 on, so clipping s there changes
    # no value and keeps s^2 from overflowing when |z| is huge
    s = np.clip(np.asarray(z, dtype=np.float64) / eps, -28.0, 28.0)
    return np.exp(-(s * s)) / (eps * np.sqrt(np.pi))


def dirac_eps_prime(z, eps: float):
    """d/dz of dirac_eps."""
    z = np.asarray(z, dtype=np.float64)
    return -2.0 * z / (eps * eps) * dirac_eps(z, eps)


def smooth_grad_magnitude(f: np.ndarray):
    """(gx, gy, m) with m = sqrt(gx^2 + gy^2 + KAPPA^2)."""
    gx, gy = field.grad(f)
    return gx, gy, np.sqrt(gx * gx + gy * gy + KAPPA * KAPPA)


def edge_indicator(image: np.ndarray, eta: float, sigma: float) -> np.ndarray:
    """g = 1 / (1 + eta*|grad(G_sigma * I)|^2), in (0, 1], 1 on flat regions.

    ``sigma`` is the variance of the smoothing Gaussian (the model defines
    the kernel by its variance), so the kernel's standard deviation is
    sqrt(sigma).
    """
    if eta <= 0 or sigma <= 0:
        raise ValueError("eta and sigma must be positive")
    smoothed = field.gaussian_convolve(image, float(np.sqrt(sigma)))
    gx, gy = field.grad(smoothed)
    return 1.0 / (1.0 + eta * (gx * gx + gy * gy))


def _f1(m: np.ndarray) -> float:
    return float(np.sum((m - 1.0) ** 2))


def _f2(f: np.ndarray, d: np.ndarray, m: np.ndarray) -> float:
    """F2 from its weight f, dirac(phi) and |grad phi|."""
    return float(np.sum(f * d * m))


def f2_weight(g: np.ndarray, prior_warped, w: EnergyWeights) -> np.ndarray:
    """F2's weight xi*g + (gamma/2)*prior^2; xi*g alone when prior_warped is None."""
    if prior_warped is None:
        return w.xi * g
    if g.shape != prior_warped.shape:
        raise ValueError("field dimensions differ")
    return w.xi * g + 0.5 * w.gamma * prior_warped ** 2


def energy_f1(phi: np.ndarray) -> float:
    """Sum over pixels of (|grad phi| - 1)^2."""
    _, _, m = smooth_grad_magnitude(phi)
    return _f1(m)


def energy_f2(phi: np.ndarray, g: np.ndarray, prior_warped: np.ndarray,
              w: EnergyWeights) -> float:
    """Sum of [xi*g + (gamma/2)*prior^2] * dirac(phi) * |grad phi|."""
    if phi.shape != g.shape:
        raise ValueError("field dimensions differ")
    f = f2_weight(g, prior_warped, w)
    _, _, m = smooth_grad_magnitude(phi)
    return _f2(f, dirac_eps(phi, w.eps), m)


def energy_f3(phi: np.ndarray, g: np.ndarray, w: EnergyWeights) -> float:
    """Edge-weighted area of the interior: sum of g * H_eps(-phi)."""
    if phi.shape != g.shape:
        raise ValueError("field dimensions differ")
    return float(np.sum(g * heaviside_eps(-phi, w.eps)))


def curve_length(phi: np.ndarray, eps: float) -> float:
    """Regularized zero-set length: sum of dirac(phi) * |grad phi|."""
    _, _, m = smooth_grad_magnitude(phi)
    return float(np.sum(dirac_eps(phi, eps) * m))


def fit_terms(image: np.ndarray, i_in: np.ndarray, i_out: np.ndarray,
              w: EnergyWeights):
    """F4's per-pixel fits (fit_in, fit_out): (I - J)^2 + mu*|grad J|^2 for each approximant."""
    if not image.shape == i_in.shape == i_out.shape:
        raise ValueError("field dimensions differ")
    gx_in, gy_in = field.grad(i_in)
    gx_out, gy_out = field.grad(i_out)
    fit_in = (image - i_in) ** 2 + w.mu * (gx_in ** 2 + gy_in ** 2)
    fit_out = (image - i_out) ** 2 + w.mu * (gx_out ** 2 + gy_out ** 2)
    return fit_in, fit_out


def _f4(fits, prior_warped: np.ndarray, w: EnergyWeights) -> float:
    """F4 from :func:`fit_terms` and the warped prior."""
    fit_in, fit_out = fits
    if fit_in.shape != prior_warped.shape:
        raise ValueError("field dimensions differ")
    h_in = heaviside_eps(-prior_warped, w.eps)
    data = float(np.sum(fit_in * h_in + fit_out * (1.0 - h_in)))
    return data + w.zeta * curve_length(prior_warped, w.eps)


def energy_f4(image: np.ndarray, i_in: np.ndarray, i_out: np.ndarray,
              prior_warped: np.ndarray, w: EnergyWeights) -> float:
    """Piecewise-smooth fit inside/outside the prior region plus length penalty.

    The object region is H_eps(-prior_warped) under the negative-inside SDF
    convention: I_in models the image inside the prior-predicted object.
    """
    return _f4(fit_terms(image, i_in, i_out, w), prior_warped, w)


def compose_total(f1: float, f2: float, f3: float, f4: float,
                  w: EnergyWeights) -> float:
    """Weighted composition (alpha/2)*F1 + F2 + beta*F3 + nu*F4."""
    return 0.5 * w.alpha * f1 + f2 + w.beta * f3 + w.nu * f4


def phi_terms(phi: np.ndarray, g: np.ndarray, w: EnergyWeights):
    """The fields and terms that depend on phi alone: (|grad phi|, dirac(phi), F1, F3)."""
    _, _, m = smooth_grad_magnitude(phi)
    return m, dirac_eps(phi, w.eps), _f1(m), energy_f3(phi, g, w)


def breakdown(phi_t, fits, g: np.ndarray, prior_warped,
              w: EnergyWeights) -> EnergyBreakdown:
    """Every term and the total from :func:`phi_terms` and :func:`fit_terms`.

    ``prior_warped`` of None selects the prior-free reduction, and ``fits``
    is then unused.
    """
    m, d, f1, f3 = phi_t
    f2 = _f2(f2_weight(g, prior_warped, w), d, m)
    f4 = 0.0 if prior_warped is None else _f4(fits, prior_warped, w)
    return EnergyBreakdown(f1=f1, f2=f2, f3=f3, f4=f4,
                           total=compose_total(f1, f2, f3, f4, w))


def total_energy(phi: np.ndarray, image: np.ndarray, g: np.ndarray,
                 prior_warped, i_in, i_out, w: EnergyWeights) -> EnergyBreakdown:
    """Evaluate every term and the composed total.

    ``prior_warped`` of None selects the prior-free reduction: F2 carries only
    the edge weight and F4 is dropped entirely (reported as 0).
    """
    fits = None if prior_warped is None else fit_terms(image, i_in, i_out, w)
    return breakdown(phi_terms(phi, g, w), fits, g, prior_warped, w)
