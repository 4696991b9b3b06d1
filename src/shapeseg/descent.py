"""Projected gradient descent over (phi, lambda, pose, I_in, I_out).

The level-set gradient is the exact derivative of the discrete energy (every
term of it, including the Dirac-derivative contribution most level-set codes
drop), so it can be validated against finite differences of the energy to
tight tolerance. Shape and pose gradients use central finite differences
over the p + 4 scalars, 2(p + 4) full energy evaluations, about half of a
model step. The smooth approximants I_in/I_out are refreshed each
outer iteration by red-black Gauss-Seidel sweeps on their weighted
screened-Poisson normal equations, a strictly convex quadratic whose
floating-point fixed point warm starts soon reach: a solve stops once a
sweep changes no bit of its iterate.

Each outer step is: refresh approximants, projected parameter step, CFL-capped
explicit step on phi, then per-group backtracking (halve once and retry;
revert the group if the energy still rises) so accepted traces are
non-increasing up to the configured tolerance.

The phi step is a heavy ball (Polyak): the Euler step plus MOMENTUM times
the last accepted phi step, through the same gate. The velocity restarts
from zero after a revert, after an accepted energy rise (O'Donoghue &
Candes) and, with a model, after every step, so a model step is plain Euler.
Momentum there raises the occluded-arc scene's hidden-arc miss after 30
steps, but that rise is a transient on the way to the same converged contour:
the model path waits for a benchmark that reads its quality at the run's stop
rather than after 30 steps, and for a step small enough that the heavy ball
stops there on every scene (ROADMAP.md, directions 1 and 9).

A run stops once the RMS of dE/dphi on the band around the contour falls
below STATIONARY_RMS: the relative energy change is no measure of the
contour, since the distance penalty's far-field relaxation keeps it moving
long after the contour has settled. A prior-free run also stops once a phi
step reverts from rest, since every later step would repeat it.
"""

from dataclasses import dataclass, field as dc_field, replace
from typing import List, Optional

import numpy as np

from . import energy, field, io, shape_prior
from .energy import EnergyBreakdown, EnergyWeights
from .shape_prior import TAU_MAX, TAU_MIN, Pose, ShapeModel


class NumericalAbort(RuntimeError):
    """Raised when an energy term, a gradient or a re-initialized field turns non-finite."""


# the parameter step sizes and finite-difference width of ``step``
STEP_LAMBDA = 0.5
STEP_POSE = 2e-3
FD_H = 1e-3
# Gauss-Seidel sweeps per approximant refresh in ``step``, at most
SWEEPS = 20
# the largest phi time step; ``step`` caps it at 0.5 / max|dE/dphi|
DT_PHI = 0.2
# the phi step's heavy-ball weight on the last accepted step
MOMENTUM = 0.93
# ``segment`` stops once the band RMS of dE/dphi (see band_rms) is below this
STATIONARY_RMS = 2e-4


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        # a bool passes the bounds below but would be written as True, and a
        # float count as 3.0, neither of which a config reads back
        energy.check_real("tol", self.tol)
        if not energy.is_integer(self.max_iters):
            raise ValueError("max_iters must be an integer")
        # chained comparisons are False for NaN, so NaN fails every check
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
    # the last accepted phi step, None after a restart, as after every model step (see step)
    velocity: Optional[np.ndarray] = dc_field(default=None, repr=False)
    # band_rms of the last step's phi gradient, and why segment stopped:
    # "stationary", "stalled" or "max_iters" (see segment)
    phi_grad_rms: Optional[float] = None
    stop_reason: Optional[str] = None
    # [phi, energy.phi_terms of it] for the phi the last step accepted; see step
    _carry: Optional[list] = dc_field(default=None, repr=False, compare=False)


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


def evaluate(state: SegmentationState, image, g, model, w: EnergyWeights,
             phi_t=None, fits=None) -> EnergyBreakdown:
    """Total energy of a state; prior-free when model is None.

    ``phi_t`` and ``fits`` are the state's :func:`energy.phi_terms` and
    :func:`energy.fit_terms`, which ``step`` computes once and hands down (only
    its carry crosses steps); each one left None is computed here.
    """
    # every term is checked below, so NumPy's overflow warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        pw = None if model is None else prior_field(model, state.lam, state.pose)
        if pw is not None and fits is None:
            fits = energy.fit_terms(image, state.i_in, state.i_out, w)
        bd = energy.breakdown(phi_t or energy.phi_terms(state.phi, g, w), fits, g, pw, w)
    for name in ("f1", "f2", "f3", "f4", "total"):
        if not np.isfinite(getattr(bd, name)):
            raise NumericalAbort(f"non-finite energy term {name}")
    return bd


def grad_phi_total(state: SegmentationState, image, g, model,
                   w: EnergyWeights, phi_t=None) -> np.ndarray:
    """Exact gradient of the discrete total energy with respect to phi.

    F4 does not depend on phi, so the gradient is the F1 stencil adjoint, the
    full F2 derivative (Dirac-derivative factor plus the divergence coupling
    through |grad phi|), and the F3 area response. ``phi_t`` is as in
    :func:`evaluate`.
    """
    # the result is checked below, so NumPy's overflow warnings would only repeat
    # that; so would a division by an eps*eps that underflows to 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # F2's weight: a model's first, so its warp's temporaries are gone before
        # the phi arrays exist; without one it is xi*g, built where it is needed
        # so that no copy of it is held across the gradient and the divergence
        f2w = None if model is None else energy.f2_weight(
            g, prior_field(model, state.lam, state.pose), w)
        phi = state.phi
        m, d = (phi_t or energy.phi_terms(phi, g, w))[:2]
        # each term in a buffer of its own, with the operations of the written-out
        # formula in its order; m and d may be the caller's and stay untouched
        # flux through the gradient: (alpha*(m-1) + f2w*dirac) * grad(phi)/m
        scale = m - 1.0
        scale *= w.alpha
        if f2w is None:
            t = energy.f2_weight(g, None, w)
            t *= d
        else:
            t = f2w * d
        scale += t
        del t
        scale /= m
        gx, gy = field.grad(phi)
        gx *= scale
        gy *= scale
        del scale
        out = field.divergence(gx, gy)
        np.negative(out, out=out)
        del gx, gy
        # d(dirac(phi))/dphi in F2: f2w * dp * m, dp = -2*phi/eps^2 * dirac
        # (energy.dirac_eps_prime, from d)
        dp = -2.0 * phi
        dp /= w.eps * w.eps
        dp *= d
        dp *= energy.f2_weight(g, None, w) if f2w is None else f2w
        dp *= m
        out += dp
        # d(H_eps(-phi))/dphi in F3: -beta * g * dirac, in dp's buffer
        np.multiply(g, -w.beta, out=dp)
        dp *= d
        out += dp
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
                fd_h: float, phi_t=None, fits=None) -> np.ndarray:
    """Central finite differences of the total energy in (lambda, pose).

    Probes falling outside a parameter's box are clamped to its edge, which
    degrades gracefully to a one-sided difference. ``phi_t`` and ``fits`` are
    as in :func:`evaluate`, and serve every probe.
    """
    x0 = _params(state)
    lo, hi = _param_boxes(model)

    def energy_at(x):
        return evaluate(_with_params(state, x), image, g, model, w, phi_t, fits).total

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

    Only a pixel with diag > 0 ever changes, and it has a positive weight at
    itself, its left or its upper neighbour; so the sweeps cover the box of
    positive weights grown by one pixel up and left and two down and right,
    clipped to the grid. A pixel on the grown edge has no positive weight at
    itself, its left or its upper neighbour, so its diag is not positive and
    the sweeps only read it. The box lives on one raveled layout with zeros
    around it and an odd row pitch p >= box width + 2, pixel (y, x) at index
    (y - y0 + 1) * p + x - x0 + 1 for the box origin (y0, x0). An odd pitch
    makes a pixel's colour (x + y) % 2 its index's parity, flipped when
    x0 + y0 is odd, and its four neighbours, at +-1 and +-p, the other
    parity; so each colour is one stride-2 slice, and a sweep is two passes.
    An overflow is left for the energy's finiteness check to report.

    The set-up holds the iterate's padded box, on which the sweeps run, and
    per colour the weights of the pixel and of its left and upper neighbours,
    the diagonal, the weighted image and the entries a sweep never changes.
    The padded crops it builds them from are held only while needed: the
    weight crop with a one-byte box-or-pad mask, then, once both are freed,
    the image crop.

    ``sweeps`` is an upper bound: a sweep is a deterministic function of the
    iterate, so once one leaves it bit for bit unchanged, every later one
    would too, and the solve returns. Red reads only black and black only
    red, so it is enough that a sweep leaves black's bytes as they were
    (then the next red half, and with it the next black half, repeat this
    one's). The bytes are compared, so -0.0 against 0.0 and a changed NaN
    payload count as changes, and a NaN that is truly fixed counts as fixed.
    The test runs after sweeps 1, 4, 16, 64, ..., so a solve that never
    settles pays for a few comparisons, not one per sweep. A negative
    ``sweeps`` raises ValueError.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if sweeps < 0:
        raise ValueError("sweeps must be non-negative")
    h, w = image.shape
    positive = np.asarray(wgt) > 0
    rows, cols = np.flatnonzero(positive.any(axis=1)), np.flatnonzero(positive.any(axis=0))
    del positive
    if rows.size == 0:
        return np.array(warm, dtype=np.float64)
    # the box [y0, y1) x [x0, x1)
    y0, x0 = max(rows[0] - 1, 0), max(cols[0] - 1, 0)
    y1, x1 = min(rows[-1] + 3, h), min(cols[-1] + 3, w)
    bh, bw = y1 - y0, x1 - x0
    p = bw + 3 - bw % 2

    def crop(a, dtype=np.float64):
        buf = np.zeros((bh + 2, p), dtype)
        buf[1:-1, 1:bw + 1] = np.asarray(a)[y0:y1, x0:x1]
        return buf.ravel()

    # inside is 1 on the box and 0 on the pads, one byte a pixel; not bool, whose
    # 1 + 1 would be a logical or
    jp, wp, inside = crop(warm), crop(wgt), crop(np.broadcast_to(1, (h, w)), np.uint8)
    a, last = p + 1, bh * p + bw        # the box's first and last pixel
    n = (last - a) // 2 + 1     # per colour; an odd span gains one index, a pad kept as is

    def at(buf, st, d=0):
        return buf[st + d:st + d + 2 * n:2]

    colours = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c in (0, 1):        # red ((x + y) even), then black
            st = a + (a + x0 + y0 + c) % 2
            # the weights of the pixel, its left and its upper neighbour
            wg, wl, wu = (at(wp, st, d).copy() for d in (0, -1, -p))
            diag = wg + mu * (wg * (at(inside, st, 1) + at(inside, st, p)) + wl + wu)
            # a pad right of a box on the grid's right edge has diag > 0 through
            # its left neighbour; inside is 1 on the box and 0 on the pads
            pos = np.multiply(diag, at(inside, st)) > 0
            # j, then its right, lower, left and upper neighbours
            views = [at(jp, st, d) for d in (0, 1, p, -1, -p)]
            # the entries a sweep never changes, with their start values
            keep = np.flatnonzero(~pos)
            colours.append((st, views, wg, wl, wu, diag, keep, views[0][keep]))
        # the sweeps read only the per-colour copies: free the weight crop before
        # the image is cropped, and the image crop once both colours have wg * image
        del wp, inside, pos
        imp = crop(image)
        colours = [(views, wg * at(imp, st), wg, wl, wu, diag, keep, kept)
                   for st, views, wg, wl, wu, diag, keep, kept in colours]
        del imp
        # two work arrays for the right-hand side, shared by both colours
        rhs, t = np.empty((2, n))
        # stop at the fixed point (see above): black's bytes before and after
        # sweeps 1, 4, 16, 64, ...
        black, check = colours[1][0][0], 1
        for k in range(1, sweeps + 1):
            if k == check:
                before = black.tobytes()
            for (j, jr, jd, jl, ju), wi, wg, wl, wu, diag, keep, kept in colours:
                # rhs = wi + mu*(wg*(jr + jd) + wl*jl + wu*ju), in place
                np.add(jr, jd, out=rhs)
                rhs *= wg
                rhs += np.multiply(wl, jl, out=t)
                rhs += np.multiply(wu, ju, out=t)
                rhs *= mu
                rhs += wi
                # the whole slice, then the entries with diag <= 0 (and the pads) put back
                np.divide(rhs, diag, out=j)
                j[keep] = kept
            if k == check:
                if black.tobytes() == before:
                    break
                check *= 4
    out = np.array(warm, dtype=np.float64)
    out[y0:y1, x0:x1] = jp.reshape(bh + 2, p)[1:-1, 1:bw + 1]
    return out


def refresh_approximants(state: SegmentationState, image, model,
                         w: EnergyWeights, sweeps: int) -> SegmentationState:
    """Gauss-Seidel refresh of I_in and I_out for the current prior region."""
    # H(-prior) in the buffer of -prior
    wgt = -prior_field(model, state.lam, state.pose)
    wgt = energy.heaviside_eps(wgt, w.eps, out=wgt)
    i_in = solve_smooth_approximant(image, wgt, w.mu, sweeps, state.i_in)
    # 1 - wgt in wgt's buffer, so the I_out solve holds one weight field, not two
    i_out = solve_smooth_approximant(image, np.subtract(1.0, wgt, out=wgt), w.mu, sweeps,
                                     state.i_out)
    return replace(state, i_in=i_in, i_out=i_out)


def _phi_t(carry: list, st: SegmentationState, g, w: EnergyWeights):
    """energy.phi_terms of st.phi: the one-slot carry [phi, fields]'s, else computed into it."""
    if not carry or carry[0] is not st.phi:
        # the old fields go first, so two sets are never held at once
        carry.clear()
        # evaluate and grad_phi_total check every term these fields feed
        with np.errstate(over="ignore", invalid="ignore"):
            carry.extend((st.phi, energy.phi_terms(st.phi, g, w)))
    return carry[1]


def step(state: SegmentationState, image, g, model, w: EnergyWeights,
         cfg: DescentConfig) -> SegmentationState:
    """One outer iteration: approximant refresh, parameter step, phi step.

    The returned state's ``phi_grad_rms`` is the :func:`band_rms` of the phi
    gradient this step took, and its ``velocity`` the phi step it accepted
    (None after a restart; every model step restarts, and reads none).

    Each field is computed once and handed down: the refreshed approximants'
    F4 fits and each phi's :func:`energy.phi_terms` go to every
    :func:`evaluate`, :func:`grad_phi_total` and :func:`grad_params` call that
    needs them. Only the carry crosses steps: the accepted phi's fields, in the
    ``_carry`` that ``segment`` seeds. A state without one gets a fresh slot,
    so a caller may edit its phi in place between steps.
    """
    carry = [] if state._carry is None else state._carry
    if model is not None:
        state = refresh_approximants(state, image, model, w, SWEEPS)
    # evaluate checks every term the fits feed
    with np.errstate(over="ignore", invalid="ignore"):
        fits = None if model is None else energy.fit_terms(image, state.i_in, state.i_out, w)

    e_base = evaluate(state, image, g, model, w, _phi_t(carry, state, g, w), fits).total

    def gate(state, e_base, trial_at):
        """Full, else half trial, if its energy rises at most tol*|e_base|; else revert."""
        for scale in (1.0, 0.5):
            trial = trial_at(scale)
            e_trial = evaluate(trial, image, g, model, w, _phi_t(carry, trial, g, w), fits).total
            if e_trial <= e_base + cfg.tol * abs(e_base):
                return trial, e_trial
        return state, e_base

    if model is not None:
        gp = grad_params(state, image, g, model, w, FD_H, _phi_t(carry, state, g, w), fits)
        lo, hi = _param_boxes(model)
        x0 = _params(state)
        steps = np.concatenate([np.full(model.p, STEP_LAMBDA), np.full(4, STEP_POSE)])
        state, e_base = gate(state, e_base, lambda s: _with_params(
            state, np.clip(x0 - s * steps * gp, lo, hi)))

    gphi = grad_phi_total(state, image, g, model, w, _phi_t(carry, state, g, w))
    gmax = float(np.max(np.abs(gphi)))
    dt = min(DT_PHI, 0.5 / gmax) if gmax > 0 else DT_PHI
    rms = band_rms(gphi, state.phi, w.eps)
    # heavy ball: MOMENTUM times the last accepted step, minus dt*gphi
    gphi *= dt
    if state.velocity is None or model is not None:
        move = np.negative(gphi, out=gphi)
    else:
        move = MOMENTUM * state.velocity
        move -= gphi
    del gphi

    def trial_at(s):
        # the gate tries the half step only after dropping the full one, so the
        # half can take move's buffer; a second step-sized array there can leave
        # the heap in a layout that every later step trims and regrows (page faults)
        if s != 1.0:
            np.multiply(move, s, out=move)
        return replace(state, phi=state.phi + move, velocity=move)

    trial, e_trial = gate(state, e_base, trial_at)
    # restart after every model step, a revert or a step that raised the energy
    restart = model is not None or trial is state or e_trial > e_base
    state = replace(trial, velocity=None) if restart else trial

    bd = evaluate(state, image, g, model, w, _phi_t(carry, state, g, w), fits)
    # a new list, so the caller's state keeps its own trace
    return replace(state, iter=state.iter + 1, trace=[*state.trace, bd], phi_grad_rms=rms)


def band_rms(gphi: np.ndarray, phi: np.ndarray, eps: float) -> float:
    """RMS of gphi over the band |phi| < 3 eps around the contour.

    NaN if the band is empty and inf if the sum of squares overflows, so
    neither is below a positive threshold.
    """
    g = gphi[np.abs(phi) < 3.0 * eps]
    if g.size == 0:
        return float("nan")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.dot(g, g) / g.size))


def default_init_phi(shape) -> np.ndarray:
    """Exact SDF of a centered circle with radius min(width, height)/4."""
    h, w = shape
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)
    r = min(w, h) / 4.0
    return np.sqrt((xs - (w - 1) / 2.0) ** 2 + (ys - (h - 1) / 2.0) ** 2) - r


def init_state(image: np.ndarray, model: Optional[ShapeModel],
               w: EnergyWeights) -> SegmentationState:
    """Default initialization.

    Prior-free: centered circle SDF. With a model: phi starts at the mean
    shape itself (lambda = 0, identity pose), so the prior-pull term of F2 is
    small from the first step instead of quadratically large in the distance
    to the prior; I_in/I_out start at the region means under that prior.
    """
    if model is None:
        return SegmentationState(phi=default_init_phi(image.shape))
    lam = np.zeros(model.p)
    pose = Pose()
    pw = prior_field(model, lam, pose)
    wgt = -pw
    wgt = energy.heaviside_eps(wgt, w.eps, out=wgt)
    m_in = float(np.sum(wgt * image) / max(np.sum(wgt), 1e-12))
    m_out = float(np.sum((1 - wgt) * image) / max(np.sum(1 - wgt), 1e-12))
    return SegmentationState(phi=pw.copy(), lam=lam, pose=pose,
                             i_in=np.full_like(image, m_in),
                             i_out=np.full_like(image, m_out))


def segment(image: np.ndarray, model: Optional[ShapeModel], w: EnergyWeights,
            cfg: DescentConfig) -> SegmentationState:
    """Run the descent until the contour is stationary or stalled, or for max_iters steps.

    The run stops after the first step whose phi gradient has a band RMS
    (:func:`band_rms`) below STATIONARY_RMS ("stationary"). Without a model
    it also stops after a step that reverted phi having started with no
    velocity ("stalled"): that step left a state the next one would map to
    itself, bit for bit, until max_iters. With a model the approximants and
    the shape and pose can still move, so a reverted phi step never ends the
    run. ``stop_reason`` says which ending it reached.
    """
    image = field.as_field(image)
    check_model_grid(model, image)
    g = energy.edge_indicator(image, w.eta, w.sigma)
    state = init_state(image, model, w)
    reason = "max_iters"
    # one carry for the whole run: each step starts from the fields the last one left
    state = replace(state, _carry=[])
    # the run's records; each step gets a state without them, so it copies no history
    trace = []
    for _ in range(cfg.max_iters):
        prev = state
        state = step(replace(state, trace=[]), image, g, model, w, cfg)
        trace += state.trace
        if state.phi_grad_rms < STATIONARY_RMS:
            reason = "stationary"
            break
        # a revert hands back the very phi array it was given
        if model is None and prev.velocity is None and state.phi is prev.phi:
            reason = "stalled"
            break
    return replace(state, trace=trace, stop_reason=reason, _carry=None)


def reinitialize(phi0: np.ndarray, iters: int) -> np.ndarray:
    """Restore the SDF property by evolving the re-initialization PDE.

    Godunov upwinding on |grad phi| in the Rouy-Tourin form: per axis,
    max(sign(s) D-phi, -sign(s) D+phi, 0)^2 with replicated borders, and the
    smoothed sign s = phi / sqrt(phi^2 + 1) saturating at +-1. The zero level
    set stays put to within a pixel while |grad phi| relaxes toward 1.
    Raises NumericalAbort if the result is not finite (an upwind step
    overflowed).
    """
    if iters < 0:
        raise ValueError("iters must be non-negative")
    dt = 0.5    # the upwind scheme's stability bound on a unit grid
    phi = field.as_field(phi0).copy()
    q = np.clip(phi, -1e150, 1e150)     # q * q cannot overflow; no bit moves below 1e150
    s = q / np.sqrt(q * q + 1.0)
    sign = np.sign(s)
    h, w = phi.shape
    # entry k holds phi[k] - phi[k-1]: backward at k, forward at k-1; ends stay 0
    dx, dy = np.zeros((h, w + 1)), np.zeros((h + 1, w))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            np.subtract(phi[:, 1:], phi[:, :-1], out=dx[:, 1:-1])
            np.subtract(phi[1:], phi[:-1], out=dy[1:-1])
            gx = np.maximum(np.maximum(sign * dx[:, :-1], -sign * dx[:, 1:]), 0.0)
            gy = np.maximum(np.maximum(sign * dy[:-1], -sign * dy[1:]), 0.0)
            phi = phi - dt * s * (np.sqrt(gx * gx + gy * gy) - 1.0)
    if not np.all(np.isfinite(phi)):
        raise NumericalAbort("non-finite re-initialized field")
    return phi


# flat key=value run configuration (weights + schedule in one file)

def config_to_kv(w: EnergyWeights, cfg: DescentConfig) -> str:
    """Serialize a fully resolved configuration, every default materialized."""
    return io.to_kv(w, cfg)


def config_from_kv(text: str):
    """Parse a flat key=value config into (EnergyWeights, DescentConfig)."""
    return io.from_kv(text, "config", EnergyWeights, DescentConfig)
