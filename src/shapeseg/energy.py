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

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from . import field

# smoothing floor for gradient magnitudes inside energies
KAPPA = 1e-10
# the smallest normal float64, below which dirac_eps flushes to 0, and its log
_TINY = np.finfo(np.float64).tiny
_LOG_TINY = math.log(_TINY)


def check_real(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value is a real number other than a bool."""
    if isinstance(value, float):    # np.float64 too: the common case, without the ABC check
        return
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool")
    # a str, None or complex would reach the bounds checks and fail them with a bare TypeError
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")


def is_integer(value) -> bool:
    """Whether value is an integer other than a bool; a Python int skips the ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


@dataclass(frozen=True)
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
        # a bool passes the bounds below but would be written as True, which
        # no config reads back
        for f in fields(self):
            check_real(f.name, getattr(self, f.name))
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


def heaviside_eps(z, eps: float, out=None):
    """Smooth Heaviside: 0.5*(1 + erf(z/eps)), built in ``out`` when given.

    Globally supported and strictly increasing with H(0) = 1/2, but with
    Gaussian rather than Cauchy tails: the slowly decaying arctan variant
    inflates region integrals by several percent of the domain size, which
    breaks the area oracles this regularization must satisfy.

    ``out`` may be ``z`` itself, so a caller that negated a field for H(-f)
    hands over that temporary and the call holds no second grid.
    """
    # a chained comparison is False for NaN, so NaN fails it
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    z = np.asarray(z, dtype=np.float64)
    # z/eps may overflow to +-inf, where the clip below gives the exact limit;
    # s is a 0-d array for a scalar z
    with np.errstate(over="ignore"):
        s = np.divide(z, eps, out=np.empty_like(z) if out is None else out)
    # binary64 erf(s) is exactly +-1.0 for |s| >= 5.922, so erf runs on the
    # band |s| < 6 only (NaN and +-inf fail both comparisons), on a copy of its
    # values; beyond it s clipped to [-1, 1] is erf's value (NaN stays NaN)
    band = s < 6.0
    band &= s > -6.0
    v = s[band]    # not erf(s, out=s, where=band): SciPy 1.17.1 misplaces masked results
    erf(v, out=v)
    np.clip(s, -1.0, 1.0, out=s)
    s[band] = v
    s += 1.0
    s *= 0.5
    return s[()]    # a scalar for a scalar z


def dirac_eps(z, eps: float):
    """Smooth Dirac: exp(-(z/eps)^2) / (eps*sqrt(pi)); exact derivative of heaviside_eps.

    A result below the smallest normal float is flushed to exactly 0; every
    other result, NaN included, is the formula's. A z whose square overflows
    gets the exact limit 0, with no overflow warning.
    """
    # a chained comparison is False for NaN, so NaN fails it
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    # s^2 (or z/eps) overflowing to inf lies above the run threshold below, so
    # it skips exp and keeps the 0 that exp(-inf) would give
    with np.errstate(over="ignore"):
        s = np.asarray(np.asarray(z, dtype=np.float64) / eps)
        s *= s
    # exp is slow where its result is subnormal, so it runs only up to a hair
    # beyond the s^2 = -log(tiny*eps*sqrt(pi)) where the result leaves the
    # normal range (and on NaN, which fails every comparison)
    run = ~(s > -_LOG_TINY - math.log(eps) - 0.5 * math.log(math.pi) + 1e-6)
    # exp in s's buffer, then 0 where it did not run, as exp(-inf) would give
    np.negative(s, out=s)
    np.exp(s, out=s, where=run)
    np.copyto(s, 0.0, where=~run)
    s /= eps * np.sqrt(np.pi)
    np.copyto(s, 0.0, where=s < _TINY)
    return s[()]    # a scalar for a scalar z


def dirac_eps_prime(z, eps: float):
    """d/dz of dirac_eps."""
    z = np.asarray(z, dtype=np.float64)
    return -2.0 * z / (eps * eps) * dirac_eps(z, eps)


def smooth_grad_magnitude(f: np.ndarray) -> np.ndarray:
    """|grad f| smoothed as sqrt(gx^2 + gy^2 + KAPPA^2)."""
    gx, gy = field.grad(np.asarray(f, dtype=np.float64))
    # in gx's buffer; grad's arrays are fresh, so nothing else holds them
    gx *= gx
    gy *= gy
    gx += gy
    gx += KAPPA * KAPPA
    return np.sqrt(gx, out=gx)


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
    # an eta*|grad|^2 that overflows to inf gives the exact limit g = 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + eta * (gx * gx + gy * gy))


def f2_weight(g: np.ndarray, prior_warped, w: EnergyWeights) -> np.ndarray:
    """F2's weight xi*g + (gamma/2)*prior^2; xi*g alone when prior_warped is None."""
    if prior_warped is None:
        return w.xi * g
    if g.shape != prior_warped.shape:
        raise ValueError("field dimensions differ")
    out = np.square(prior_warped)
    out *= 0.5 * w.gamma
    out += w.xi * g
    return out


def energy_f3(phi: np.ndarray, g: np.ndarray, w: EnergyWeights) -> float:
    """Edge-weighted area of the interior: sum of g * H_eps(-phi)."""
    if phi.shape != g.shape:
        raise ValueError("field dimensions differ")
    # H(-phi) in the buffer of -phi
    h = np.negative(phi)
    h = heaviside_eps(h, w.eps, out=h)
    h *= g
    return float(np.sum(h))


def curve_length(phi: np.ndarray, eps: float) -> float:
    """Regularized zero-set length: sum of dirac(phi) * |grad phi|."""
    m = smooth_grad_magnitude(phi)
    m *= dirac_eps(phi, eps)
    return float(np.sum(m))


def smooth_fit(image: np.ndarray, j: np.ndarray, mu: float) -> np.ndarray:
    """Per-pixel fit of an approximant J to the image: (I - J)^2 + mu*|grad J|^2."""
    gx, gy = field.grad(np.asarray(j, dtype=np.float64))
    # in the buffers of image - j and gx, float even for integer fields
    fit = np.subtract(image, j, dtype=np.float64)
    fit *= fit
    gx *= gx
    gy *= gy
    gx += gy
    gx *= mu
    fit += gx
    return fit


def fit_terms(image: np.ndarray, i_in: np.ndarray, i_out: np.ndarray,
              w: EnergyWeights):
    """F4's per-pixel fits (fit_in, fit_out), one :func:`smooth_fit` per approximant."""
    if not image.shape == i_in.shape == i_out.shape:
        raise ValueError("field dimensions differ")
    return smooth_fit(image, i_in, w.mu), smooth_fit(image, i_out, w.mu)


def phi_terms(phi: np.ndarray, g: np.ndarray, w: EnergyWeights):
    """The fields and terms that depend on phi alone: (|grad phi|, dirac(phi), F1, F3, F2).

    F1 is the sum over pixels of (|grad phi| - 1)^2, and F2 is the prior-free
    one, the sum of (xi*g)*dirac(phi)*|grad phi| in the order
    :func:`breakdown` multiplies a weight by them.
    """
    if phi.shape != g.shape:
        raise ValueError("field dimensions differ")
    d = dirac_eps(phi, w.eps)
    m = smooth_grad_magnitude(phi)
    dev = m - 1.0
    dev *= dev
    f1 = float(np.sum(dev))
    # F2 in F1's buffer, free once F1 is summed, and freed before F3's temporaries
    np.multiply(w.xi, g, out=dev)
    dev *= d
    dev *= m
    f2 = float(np.sum(dev))
    del dev
    return m, d, f1, energy_f3(phi, g, w), f2


def breakdown(phi_t, fits, g: np.ndarray, prior_warped,
              w: EnergyWeights) -> EnergyBreakdown:
    """Every term and the total from :func:`phi_terms` and :func:`fit_terms`.

    F2 is the sum of its weight times dirac(phi) times |grad phi|. F4 fits
    I_in inside the prior region H_eps(-prior_warped) (negative inside) and
    I_out outside it, plus zeta times the prior's contour length. The total
    is (alpha/2)*F1 + F2 + beta*F3 + nu*F4. ``prior_warped`` of None selects
    the prior-free reduction: F2 is then the one ``phi_t`` carries, F4 is 0,
    ``fits`` is unused and nothing touches a field.
    """
    m, d, f1, f3, f2 = phi_t
    f4 = 0.0
    if prior_warped is not None:
        # f2_weight's array is fresh; d and m may be the caller's and stay untouched
        f2w = f2_weight(g, prior_warped, w)
        f2w *= d
        f2w *= m
        f2 = float(np.sum(f2w))
        del f2w
        fit_in, fit_out = fits
        if fit_in.shape != prior_warped.shape:
            raise ValueError("field dimensions differ")
        # fit_in*h_in + fit_out*(1 - h_in), built in the buffer of -prior_warped;
        # the fits may be the caller's and stay untouched
        h_in = np.negative(prior_warped)
        h_in = heaviside_eps(h_in, w.eps, out=h_in)
        fit = fit_in * h_in
        np.subtract(1.0, h_in, out=h_in)
        h_in *= fit_out
        fit += h_in
        f4 = float(np.sum(fit))
        # both freed before the prior's curve length makes its own fields
        del h_in, fit
        f4 += w.zeta * curve_length(prior_warped, w.eps)
    return EnergyBreakdown(f1=f1, f2=f2, f3=f3, f4=f4,
                           total=0.5 * w.alpha * f1 + f2 + w.beta * f3 + w.nu * f4)


def total_energy(phi: np.ndarray, image: np.ndarray, g: np.ndarray,
                 prior_warped, i_in, i_out, w: EnergyWeights) -> EnergyBreakdown:
    """Evaluate every term and the composed total.

    ``prior_warped`` of None selects the prior-free reduction: F2 carries only
    the edge weight and F4 is dropped entirely (reported as 0).
    """
    fits = None if prior_warped is None else fit_terms(image, i_in, i_out, w)
    return breakdown(phi_terms(phi, g, w), fits, g, prior_warped, w)
