"""Projected gradient descent over (phi, lambda, pose, I_in, I_out).

The level-set gradient is the exact derivative of the discrete energy (every
term of it, including the Dirac-derivative contribution most level-set codes
drop), so it can be validated against finite differences of the energy to
tight tolerance. Shape and pose gradients use central finite differences
(cheap: p + 4 scalars). The smooth approximants I_in/I_out are refreshed each
outer iteration by red-black Gauss-Seidel sweeps on their weighted
screened-Poisson normal equations.

Each outer step is: refresh approximants, projected parameter step, CFL-capped
explicit Euler step on phi, then per-group backtracking (halve once and retry;
revert the group if the energy still rises) so accepted traces are
non-increasing up to the configured tolerance.
"""

from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import List, Optional

import numpy as np

from . import energy, field, io, shape_prior
from .energy import EnergyBreakdown, EnergyWeights
from .shape_prior import TAU_MAX, TAU_MIN, Pose, ShapeModel


class NumericalAbort(RuntimeError):
    """Raised when an energy term or gradient turns non-finite."""


# the parameter step sizes and finite-difference width of ``step``
STEP_LAMBDA = 0.5
STEP_POSE = 2e-3
FD_H = 1e-3
# Gauss-Seidel sweeps per approximant refresh in ``step``
SWEEPS = 20


@dataclass
class DescentConfig:
    dt_phi: float = 0.2
    max_iters: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN fails every check
        if not 0 < self.dt_phi < np.inf:
            raise ValueError("dt_phi must be positive and finite")
        if not 0 <= self.max_iters < np.inf:
            raise ValueError("max_iters must be finite and >= 0")
        if not 0 < self.tol < 1:
            raise ValueError("tol must be in (0, 1)")


@dataclass
class SegmentationState:
    phi: np.ndarray
    lam: Optional[np.ndarray] = None
    pose: Optional[Pose] = None
    i_in: Optional[np.ndarray] = None
    i_out: Optional[np.ndarray] = None
    iter: int = 0
    trace: List[EnergyBreakdown] = dc_field(default_factory=list)
    # fields reused within one segment run: {kind: (inputs, fields)}; see _fields
    _memo: Optional[dict] = dc_field(default=None, repr=False, compare=False)


def far_outside(shape) -> float:
    """Sampling value for warped priors beyond their support: the domain diagonal."""
    h, w = shape
    return float(np.hypot(w, h))


def check_model_grid(model: Optional[ShapeModel], image: np.ndarray) -> None:
    """Raise ValueError, naming both grids, unless the model lives on the image's grid."""
    if model is not None and model.mean.shape != image.shape:
        (mh, mw), (ih, iw) = model.mean.shape, image.shape
        raise ValueError(f"model grid {mw}x{mh} does not match image grid {iw}x{ih}")


def prior_field(model: ShapeModel, lam, pose: Pose) -> np.ndarray:
    """Synthesize the shape at lam and warp it by the pose."""
    synth = shape_prior.synthesize_shape(model, lam)
    return shape_prior.warp(synth, pose, far_outside(synth.shape))


def _fields(state: SegmentationState, kind: str, compute, *inputs):
    """compute(*inputs), reused while the state's memo holds it for these very objects.

    Entries are keyed on identity, so a new array always misses. ``segment``
    seeds one memo that lives for its whole run, in which no array is edited
    in place. A ``step`` handed a memo-less state makes a fresh memo and
    returns none, so arrays a caller edits in place between steps miss too.
    Without a memo (outside ``step``) this is compute(*inputs).
    """
    memo = state._memo
    if memo is None:
        return compute(*inputs)
    hit = memo.get(kind)
    if hit is not None and all(a is b for a, b in zip(hit[0], inputs)):
        return hit[1]
    hit = memo[kind] = None     # free the old fields before computing new ones
    memo[kind] = (inputs, compute(*inputs))
    return memo[kind][1]


def evaluate(state: SegmentationState, image, g, model, w: EnergyWeights) -> EnergyBreakdown:
    """Total energy of a state; prior-free when model is None."""
    # every term is checked below, so NumPy's overflow warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        pw = None if model is None else prior_field(model, state.lam, state.pose)
        fits = None if pw is None else _fields(state, "fit", energy.fit_terms, image,
                                               state.i_in, state.i_out, w)
        bd = energy.breakdown(_fields(state, "phi", energy.phi_terms, state.phi, g, w),
                              fits, g, pw, w)
    for name in ("f1", "f2", "f3", "f4", "total"):
        if not np.isfinite(getattr(bd, name)):
            raise NumericalAbort(f"non-finite energy term {name}")
    return bd


def grad_phi_total(state: SegmentationState, image, g, model,
                   w: EnergyWeights) -> np.ndarray:
    """Exact gradient of the discrete total energy with respect to phi.

    F4 does not depend on phi, so the gradient is the F1 stencil adjoint, the
    full F2 derivative (Dirac-derivative factor plus the divergence coupling
    through |grad phi|), and the F3 area response.
    """
    # the result is checked below, so NumPy's overflow warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        # the prior first, so its warp's temporaries are gone before the phi arrays exist
        pw = None if model is None else prior_field(model, state.lam, state.pose)
        f2w = energy.f2_weight(g, pw, w)
        phi = state.phi
        m, d, _, _ = _fields(state, "phi", energy.phi_terms, phi, g, w)
        gx, gy = field.grad(phi)
        dp = -2.0 * phi / (w.eps * w.eps) * d     # energy.dirac_eps_prime, from d
        # flux through the gradient: (alpha*(m-1) + f2w*dirac) * grad(phi)/m
        scale = (w.alpha * (m - 1.0) + f2w * d) / m
        out = -field.divergence(scale * gx, scale * gy)
        out += f2w * dp * m            # d(dirac(phi))/dphi in F2
        out += -w.beta * g * d         # d(H_eps(-phi))/dphi in F3
    if not np.all(np.isfinite(out)):
        raise NumericalAbort("non-finite level-set gradient")
    return out


def _params(state: SegmentationState) -> np.ndarray:
    """The packed (lambda..., tau, theta, tx, ty) vector of a state."""
    return np.concatenate([state.lam, state.pose.as_vector()])


def _with_params(state: SegmentationState, x) -> SegmentationState:
    """The state with lambda and the pose unpacked from ``x`` (the pose clamped)."""
    p = len(state.lam)
    return replace(state, lam=x[:p], pose=Pose(*map(float, x[p:])))


def _param_boxes(model: ShapeModel):
    """(lo, hi) bounds for the packed (lambda..., tau, theta, tx, ty) vector."""
    # a placement that keeps part of the prior on the grid needs |T| of at most
    # (1 + TAU_MAX) diagonals
    h, w = model.mean.shape
    t = (1.0 + TAU_MAX) * np.hypot(w - 1, h - 1)
    box = model.lambda_box
    lo = np.concatenate([box[:, 0], [TAU_MIN, -np.pi, -t, -t]])
    hi = np.concatenate([box[:, 1], [TAU_MAX, np.pi, t, t]])
    return lo, hi


def grad_params(state: SegmentationState, image, g, model, w: EnergyWeights,
                fd_h: float) -> np.ndarray:
    """Central finite differences of the total energy in (lambda, pose).

    Probes falling outside a parameter's box are clamped to its edge, which
    degrades gracefully to a one-sided difference.
    """
    x0 = _params(state)
    lo, hi = _param_boxes(model)

    def energy_at(x):
        return evaluate(_with_params(state, x), image, g, model, w).total

    out = np.zeros_like(x0)
    for i in range(len(x0)):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] = min(x0[i] + fd_h, hi[i])
        xm[i] = max(x0[i] - fd_h, lo[i])
        if xp[i] == xm[i]:
            continue
        out[i] = (energy_at(xp) - energy_at(xm)) / (xp[i] - xm[i])
    if not np.all(np.isfinite(out)):
        raise NumericalAbort("non-finite parameter gradient")
    return out


def quad_objective(j: np.ndarray, image: np.ndarray, wgt: np.ndarray,
                   mu: float) -> float:
    """The quadratic the approximant solver minimizes: the wgt-weighted sum of energy.smooth_fit."""
    return float(np.sum(wgt * energy.smooth_fit(image, j, mu)))


def solve_smooth_approximant(image: np.ndarray, wgt: np.ndarray, mu: float,
                             sweeps: int, warm: np.ndarray) -> np.ndarray:
    """Red-black Gauss-Seidel on the normal equations of :func:`quad_objective`.

    With mu = 0 pixels decouple: the result is the image wherever the weight
    is positive and the warm start elsewhere. Each half-sweep is an exact
    block coordinate minimization, so the objective never increases.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    h, w = image.shape
    # the iterate j lives inside a zero border, so its neighbours are plain views
    jp = np.zeros((h + 2, w + 2))
    jp[1:-1, 1:-1] = warm
    # neighbor weights entering each pixel's normal equation
    wl = np.zeros_like(wgt); wl[:, 1:] = wgt[:, :-1]   # w at left neighbor
    wu = np.zeros_like(wgt); wu[1:, :] = wgt[:-1, :]   # w at upper neighbor
    nf = np.full((h, w), 2.0)
    nf[:, -1] -= 1.0
    nf[-1, :] -= 1.0
    diag = wgt + mu * (wgt * nf + wl + wu)
    live = diag > 0
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if rows.size == 0:
        return jp[1:-1, 1:-1].copy()
    # pixels with diag <= 0 are never written, so sweep only their bounding box
    y0, y1, x0, x1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    wi = wgt * image
    # colour c (red, then black) is two strided sublattices: rows r::2, columns (c + r)::2
    subs = []
    for c in (0, 1):
        for r in (0, 1):
            # the first row and column of the box with the sublattice's global parity
            ry = y0 + (r - y0) % 2
            cx = x0 + ((c + r) - x0) % 2
            # j on the sublattice, then its right, lower, left and upper neighbours
            views = [jp[1 + ry + dy:y1 + 1 + dy:2, 1 + cx + dx:x1 + 1 + dx:2]
                     for dy, dx in ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0))]
            s = (slice(ry, y1, 2), slice(cx, x1, 2))
            coef = [np.ascontiguousarray(a[s]) for a in (wi, wgt, wl, wu, diag)]
            subs.append((views, *coef, coef[-1] > 0))
    # the sweeps read only the sublattice copies: free the full-size fields, then
    # take two work arrays for the right-hand side, shared by the sublattices
    del wi, wl, wu, nf, diag, live
    work = np.empty((2, max(sub[1].size for sub in subs)))
    subs = [(*sub, *(a[:sub[1].size].reshape(sub[1].shape) for a in work)) for sub in subs]
    for _ in range(sweeps):
        for (j, jr, jd, jl, ju), wi_s, wgt_s, wl_s, wu_s, diag_s, pos, rhs, t in subs:
            # rhs = wi_s + mu*(wgt_s*(jr + jd) + wl_s*jl + wu_s*ju), in place
            np.add(jr, jd, out=rhs)
            rhs *= wgt_s
            rhs += np.multiply(wl_s, jl, out=t)
            rhs += np.multiply(wu_s, ju, out=t)
            rhs *= mu
            rhs += wi_s
            np.divide(rhs, diag_s, out=j, where=pos)
    return jp[1:-1, 1:-1].copy()


def refresh_approximants(state: SegmentationState, image, model,
                         w: EnergyWeights, sweeps: int) -> SegmentationState:
    """Gauss-Seidel refresh of I_in and I_out for the current prior region."""
    wgt = energy.heaviside_eps(-prior_field(model, state.lam, state.pose), w.eps)
    i_in = solve_smooth_approximant(image, wgt, w.mu, sweeps, state.i_in)
    i_out = solve_smooth_approximant(image, 1.0 - wgt, w.mu, sweeps, state.i_out)
    return replace(state, i_in=i_in, i_out=i_out)


def step(state: SegmentationState, image, g, model, w: EnergyWeights,
         cfg: DescentConfig) -> SegmentationState:
    """One outer iteration: approximant refresh, parameter step, phi step.

    A state carrying a memo (inside ``segment``) keeps it, so the fields of
    the phi the previous step accepted are not computed again; a memo-less
    state gets a fresh memo for this step and its result carries none.
    """
    carried = state._memo is not None
    memo = state._memo if carried else {}
    if model is not None:
        state = refresh_approximants(state, image, model, w, SWEEPS)
    # the trial states below are replace()d from this one and share its memo
    state = replace(state, _memo=memo)
    e_base = evaluate(state, image, g, model, w).total

    def gate(state, e_base, trial_at):
        """Full, else half trial, if its energy rises at most tol*|e_base|; else revert."""
        for scale in (1.0, 0.5):
            trial = trial_at(scale)
            e_trial = evaluate(trial, image, g, model, w).total
            if e_trial <= e_base + cfg.tol * abs(e_base):
                return trial, e_trial
        return state, e_base

    if model is not None:
        gp = grad_params(state, image, g, model, w, FD_H)
        lo, hi = _param_boxes(model)
        x0 = _params(state)
        steps = np.concatenate([np.full(model.p, STEP_LAMBDA), np.full(4, STEP_POSE)])
        state, e_base = gate(state, e_base, lambda s: _with_params(
            state, np.clip(x0 - s * steps * gp, lo, hi)))

    gphi = grad_phi_total(state, image, g, model, w)
    gmax = float(np.max(np.abs(gphi)))
    dt = min(cfg.dt_phi, 0.5 / gmax) if gmax > 0 else cfg.dt_phi
    state, _ = gate(state, e_base, lambda s: replace(state, phi=state.phi - s * dt * gphi))

    bd = evaluate(state, image, g, model, w)
    # a new list, so the caller's state keeps its own trace
    return replace(state, iter=state.iter + 1, trace=[*state.trace, bd],
                   _memo=memo if carried else None)


def default_init_phi(shape) -> np.ndarray:
    """Exact SDF of a centered circle with radius min(width, height)/4."""
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    r = min(w, h) / 4.0
    return np.sqrt((xs - (w - 1) / 2.0) ** 2 + (ys - (h - 1) / 2.0) ** 2) - r


def init_state(image: np.ndarray, model: Optional[ShapeModel],
               w: EnergyWeights, phi0: Optional[np.ndarray] = None) -> SegmentationState:
    """Default initialization.

    Prior-free: centered circle SDF. With a model: phi starts at the mean
    shape itself (lambda = 0, identity pose), so the prior-pull term of F2 is
    small from the first step instead of quadratically large in the distance
    to the prior; I_in/I_out start at the region means under that prior.
    """
    if model is None:
        phi = field.as_field(phi0) if phi0 is not None else default_init_phi(image.shape)
        return SegmentationState(phi=phi)
    lam = np.zeros(model.p)
    pose = Pose()
    pw = prior_field(model, lam, pose)
    phi = field.as_field(phi0) if phi0 is not None else pw.copy()
    wgt = energy.heaviside_eps(-pw, w.eps)
    m_in = float(np.sum(wgt * image) / max(np.sum(wgt), 1e-12))
    m_out = float(np.sum((1 - wgt) * image) / max(np.sum(1 - wgt), 1e-12))
    return SegmentationState(phi=phi, lam=lam, pose=pose,
                             i_in=np.full_like(image, m_in),
                             i_out=np.full_like(image, m_out))


def segment(image: np.ndarray, model: Optional[ShapeModel], w: EnergyWeights,
            cfg: DescentConfig, phi0: Optional[np.ndarray] = None) -> SegmentationState:
    """Run the descent until max_iters or sustained relative stagnation."""
    image = field.as_field(image)
    check_model_grid(model, image)
    g = energy.edge_indicator(image, w.eta, w.sigma)
    state = init_state(image, model, w, phi0)
    if cfg.max_iters == 0:
        return state
    # one memo for the whole run: each step starts from the fields the last one left
    state = replace(state, _memo={})
    prev = evaluate(state, image, g, model, w).total
    flat = 0
    for _ in range(cfg.max_iters):
        state = step(state, image, g, model, w, cfg)
        cur = state.trace[-1].total
        if abs(prev - cur) < cfg.tol * max(abs(prev), 1.0):
            flat += 1
            if flat >= 20:
                break
        else:
            flat = 0
        prev = cur
    return replace(state, _memo=None)


def reinitialize(phi0: np.ndarray, iters: int, dt: float = 0.5) -> np.ndarray:
    """Restore the SDF property by evolving the re-initialization PDE.

    Godunov upwinding on |grad phi| with the smoothed sign
    s = phi0 / sqrt(phi0^2 + 1); the zero level set stays put to within a
    pixel while |grad phi| relaxes toward 1.
    """
    if dt > 0.5 or dt <= 0:
        raise ValueError("dt must be in (0, 0.5] for stability")
    if iters < 0:
        raise ValueError("iters must be non-negative")
    phi = field.as_field(phi0).copy()
    s = phi0 / np.sqrt(phi0 * phi0 + 1.0)
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


# flat key=value run configuration (weights + schedule in one file)

def config_to_kv(w: EnergyWeights, cfg: DescentConfig) -> str:
    """Serialize a fully resolved configuration, every default materialized."""
    return "".join(f"{k}={v}\n" for k, v in {**asdict(w), **asdict(cfg)}.items())


def config_from_kv(text: str):
    """Parse a flat key=value config into (EnergyWeights, DescentConfig)."""
    w_fields = EnergyWeights.__dataclass_fields__
    c_fields = DescentConfig.__dataclass_fields__
    kv = io.parse_kv(text, "config",
                     {k: f.type for k, f in {**w_fields, **c_fields}.items()})
    return (EnergyWeights(**{k: v for k, v in kv.items() if k in w_fields}),
            DescentConfig(**{k: v for k, v in kv.items() if k in c_fields}))
