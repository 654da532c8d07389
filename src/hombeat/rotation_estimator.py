"""Recover beat frequency, envelope time and visibility from a dip trace.

The forward model is :func:`hombeat.hom_interference.dip_model` at
visibility ``V``, envelope time ``tau_c`` and beat ``beta`` (twice the OAM
charge times the rotation rate).  Only that product is identifiable: any
factorization of the same beat produces the same trace and therefore the
same estimate.

The fit starts from a grid over (tau_c, beta) on which ``V``, the one
linear parameter, is projected out (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413 (1973)); the cell that removes the most of the
trace's sum of squares is the start.  Damped Gauss-Newton least squares
then refines all three parameters, or only V and tau_c for a plain dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hom_interference import HomConfig, _normal_width, coincidence_rde, dip_model

MIN_FIT_SAMPLES = 32

# Joint refinement controls: bounded runtime, relative step tolerance.
MAX_ITERATIONS = 200
REL_TOL = 1e-10

# A fitted beat is reported only when at least one full beat period fits
# inside the +-tau_c envelope core, i.e. beat * tau_c >= pi; below that the
# oscillation is not separable from the envelope and zero is returned.
BEAT_RESOLUTION_RAD = math.pi

# Below this start visibility a trace holds no dip to fit.
_MIN_VISIBILITY = 0.01

# The start's grid: tau_c in steps of _TAU_C_RATIO on the trace thinned to at
# most _ENVELOPE_SAMPLES samples, then beta on at most _BEAT_SAMPLES of them.
_TAU_C_RATIO = math.sqrt(2.0)
_ENVELOPE_SAMPLES = 256
_BEAT_SAMPLES = 32_768


@dataclass(frozen=True)
class NoisyTrace:
    """Measured or synthesized coincidence trace.

    Probabilities may leave [0, 1] slightly under additive noise.
    ``noise_sigma`` is the known noise level (0 when noiseless) and
    ``rng_seed`` records the generator seed for synthesized traces.
    """

    tau: np.ndarray
    p: np.ndarray
    noise_sigma: float = 0.0
    rng_seed: int | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "p", p)
        if tau.shape != p.shape or tau.ndim != 1:
            raise ValueError("tau and p must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(p))):
            raise ValueError("delays and probabilities must be finite")
        if tau.size >= 2 and np.any(np.diff(tau) <= 0.0):
            raise ValueError("delays must be strictly increasing")
        # a fit's tau_c takes the scale of the delays, and the dip divides by 2 tau_c**2
        if tau.size and not _normal_width(np.abs(tau).max()):
            raise ValueError("delays must have 2*max|tau|**2 a normal float")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class EstimateResult:
    """Fitted beat, envelope time, visibility and fit diagnostics."""

    beat: float  # rad/s
    tau_c_hat: float  # s
    visibility_hat: float
    rms_residual: float
    converged: bool
    iterations: int
    below_resolution: bool = False


def synthesize_trace(cfg: HomConfig, noise_sigma: float, seed: int) -> NoisyTrace:
    """Model trace plus seeded additive Gaussian noise; fully deterministic."""
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")
    tau = cfg.tau_grid
    p = coincidence_rde(tau, cfg.tau_c, cfg.l, cfg.omega_rot)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        p = p + rng.normal(0.0, noise_sigma, size=p.shape)
    return NoisyTrace(tau=tau, p=p, noise_sigma=noise_sigma, rng_seed=seed)


def _damped_gauss_newton(evaluate, normal_equations, theta0, max_iter=MAX_ITERATIONS,
                         rel_tol=REL_TOL):
    """Minimize ||r(theta)||^2 with step-halving damping.

    ``evaluate(theta)`` returns the residual r and the intermediates that
    ``normal_equations(theta, r, intermediates)`` reuses, and may overwrite,
    to return J^T J and J^T r at the same theta, J being the Jacobian of r.
    The line search reads only sums of squares: it drops the intermediates
    and each rejected candidate, holding one evaluation beside the residual.
    Returns (theta, residual, converged, iterations).  A singular normal
    matrix or a step that cannot reduce the objective ends the fit
    unconverged with the best parameters found so far.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, shared = evaluate(theta)
    ssr = float(r @ r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jtj, jtr = normal_equations(theta, r, shared)
        shared = None
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            return theta, r, False, iterations
        if not np.all(np.isfinite(step)):
            return theta, r, False, iterations
        lam = 1.0
        for _ in range(30):
            candidate = theta + lam * step
            rc = shared_c = None  # the last candidate, rejected or the iterate's own
            rc, shared_c = evaluate(candidate)
            src = float(rc @ rc)
            if src <= ssr:
                break
            lam *= 0.5
        else:
            return theta, r, False, iterations
        rel_change = float(np.max(np.abs(lam * step) / np.maximum(np.abs(candidate), 1e-12)))
        theta, r, shared, ssr = candidate, rc, shared_c, src
        if rel_change < rel_tol:
            return theta, r, True, iterations
    return theta, r, False, iterations


def _fit_dip(tau, target, v0, beat0, tau_c0, free_beat):
    """Damped Gauss-Newton fit of the dip model to ``target`` samples.

    Parameters are scaled to order one as (V, beat * t0, tau_c / t0) with
    ``t0 = tau_c0``; unless ``free_beat`` is set the beat stays pinned at
    ``beat0``.  Returns (V, beat, tau_c, rms residual, converged, iterations).
    """
    t0 = tau_c0
    free = np.array([True, free_beat, True])
    start = np.array([v0, beat0 * t0, 1.0])
    x = tau / t0

    def unpack(theta):
        full = start.copy()
        full[free] = theta
        return full

    def evaluate(theta):
        v, b, u = unpack(theta)
        p, cos, env = dip_model(tau, v, b / t0, u * t0)
        return np.subtract(p, target, out=p), (cos, env)

    def normal_equations(theta, r, shared):
        # the Jacobian's columns are scales times shapes: d/dV = -cos env / 2,
        # d/db = (v/2) sin env x and d/du = -(v / (2 u^3)) cos env x^2
        v, b, u = unpack(theta)
        cos, env = shared
        shapes, scales = [cos, env], [-0.5, -0.5 * v / u**3]
        if free_beat:  # sin env x, in a buffer of its own
            sin = np.multiply(b / t0, tau)
            np.sin(sin, out=sin)
            sin *= env
            sin *= x
            shapes.insert(1, sin)
            scales.insert(1, 0.5 * v)
        cos *= env  # cos env, then cos env x^2 in the envelope's buffer
        np.multiply(cos, x, out=env)
        env *= x
        jtj = np.array([[a @ b for b in shapes] for a in shapes])
        s = np.array(scales)
        # a zero entry stays zero where the product of two scales would overflow
        return jtj * s[:, None] * s, s * [a @ r for a in shapes]

    # a trace far outside [0, 1] overflows the squares (0 * inf is NaN): the fit ends unconverged
    with np.errstate(over="ignore", invalid="ignore"):
        theta, r, converged, iterations = _damped_gauss_newton(evaluate, normal_equations,
                                                               start[free])
        rms = float(np.sqrt(np.mean(r**2)))
    v, b, u = unpack(theta)
    return float(v), abs(float(b)) / t0, abs(float(u)) * t0, rms, converged, iterations


def _fft_length(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``: a length numpy's FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _projection(tau, y, taus_c):
    """Least-squares fits of ``y = (V / 2) g``, ``g = cos(beta tau) exp(-tau^2 / (2 tau_c^2))``.

    ``y`` is ``1/2 - p`` at uniform delays ``tau`` of step h.  The betas are
    ``pi j / (half h)`` for j below ``half``, the 5-smooth length at or above
    the sample count (:func:`_fft_length`): below the Nyquist beat pi / h,
    twice as fine as the trace resolves.  Returns the betas, the visibilities
    ``V = 2 (y.g) / (g.g)`` and the sums of squares they remove,
    ``(y.g)^2 / (g.g)``; the last two have one row per tau_c and are 0 where
    V is not positive and finite.
    """
    h = float(tau[1] - tau[0])
    half = _fft_length(tau.size)
    betas = math.pi / (half * h) * np.arange(half)
    phase = np.exp(-1j * tau[0] * betas)  # y.g is Re(phase DFT(y env)) at beta
    env = np.exp(-0.5 * (tau / np.asarray(taus_c)[:, None]) ** 2)
    yg = (np.fft.rfft(y * env, 2 * half)[:, :half] * phase).real
    # cos^2 = (1 + cos 2 beta tau) / 2; at 2 beta_j, env^2's length-2 half transform
    # is its length-half one at j, since env has at most half samples
    sq = env * env
    gg = 0.5 * (sq.sum(axis=1, keepdims=True) + (np.fft.fft(sq, half) * phase * phase).real)
    a = yg / gg
    fits = (a > 0.0) & (a < math.inf)
    return betas, np.where(fits, 2.0 * a, 0.0), np.where(fits, yg * a, 0.0)


def _start(trace: NoisyTrace):
    """Starts of the fit: (beta, tau_c, V) for a beating dip and (tau_c, V) for a plain one.

    The trace is read at uniform delays, interpolated linearly where it is
    jittered.  tau_c runs in steps of ``_TAU_C_RATIO`` from 2 h to a quarter
    of the span on at most ``_ENVELOPE_SAMPLES`` of them, h being their
    step; the best cell at beta = 0 is the plain dip's start.  beta and V are
    then projected at the best cell's tau_c on at most ``_BEAT_SAMPLES``
    delays, which resolves ``_BEAT_SAMPLES / 4`` beat periods across the scan.
    """
    tau = trace.tau
    if tau.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit")
    grid = np.linspace(tau[0], tau[-1], tau.size)

    def thinned(cap):
        delays = grid[:: -(-tau.size // cap)]  # every k-th delay, at most cap of them
        return delays, 0.5 - np.interp(delays, tau, trace.p)

    # a trace far outside [0, 1] overflows the squares, and one far off-centre
    # leaves no envelope: their cells remove nothing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coarse, y = thinned(_ENVELOPE_SAMPLES)
        h = float(coarse[1] - coarse[0])
        rows = 1 + int(math.log((coarse[-1] - coarse[0]) / (8.0 * h), _TAU_C_RATIO))
        taus_c = 2.0 * h * _TAU_C_RATIO ** np.arange(rows)
        _, v, removed = _projection(coarse, y, taus_c)
        tau_c0 = float(taus_c[np.argmax(removed) // removed.shape[1]])
        dip = int(np.argmax(removed[:, 0]))
        betas, v0, removed = _projection(*thinned(_BEAT_SAMPLES), [tau_c0])
    j = int(np.argmax(removed[0]))
    return (float(betas[j]), tau_c0, float(v0[0, j])), (float(taus_c[dip]), float(v[dip, 0]))


def extract_beat(trace: NoisyTrace) -> float:
    """The beat that :func:`estimate` fits, or 0.0 when it is below resolution."""
    return estimate(trace).beat


def estimate(trace: NoisyTrace) -> EstimateResult:
    """Fit beat, envelope time and visibility from the projected grid's start.

    A start with a beat gets a fit with the beat free, reported when the
    fitted beat * tau_c is at least ``BEAT_RESOLUTION_RAD``.  Otherwise the
    trace is fitted as a plain dip from its own start, below resolution.
    """
    (beat0, tau_c0, v0), (tau_c_dip, v_dip) = _start(trace)
    if v0 < _MIN_VISIBILITY:
        rms = float(np.sqrt(np.mean((trace.p - 0.5) ** 2)))
        return EstimateResult(beat=0.0, tau_c_hat=tau_c0, visibility_hat=max(v0, 0.0),
                              rms_residual=rms, converged=False, iterations=0,
                              below_resolution=True)
    if beat0 > 0.0:
        v, beat, tau_c_hat, rms, converged, iterations = _fit_dip(
            trace.tau, trace.p, v0, beat0, tau_c0, free_beat=True)
        if beat * tau_c_hat >= BEAT_RESOLUTION_RAD:
            return EstimateResult(beat=beat, tau_c_hat=tau_c_hat, visibility_hat=max(v, 0.0),
                                  rms_residual=rms, converged=converged, iterations=iterations)
    v, _, tau_c_hat, rms, converged, iterations = _fit_dip(
        trace.tau, trace.p, v_dip, 0.0, tau_c_dip, free_beat=False)
    return EstimateResult(beat=0.0, tau_c_hat=tau_c_hat, visibility_hat=max(v, 0.0),
                          rms_residual=rms, converged=converged, iterations=iterations,
                          below_resolution=True)
