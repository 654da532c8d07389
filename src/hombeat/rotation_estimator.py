"""Recover beat frequency, envelope time and visibility from a dip trace.

The forward model is :func:`hombeat.hom_interference.dip_model` at
visibility ``V``, envelope time ``tau_c`` and beat ``beta`` (twice the OAM
charge times the rotation rate).  Only that product is identifiable: any
factorization of the same beat produces the same trace and therefore the
same estimate.

Fitting proceeds in three steps: the envelope is fitted first, the beat is
then read off a demodulated spectrum, and finally all three parameters are
refined jointly.  Every fit is the same damped Gauss-Newton least squares on
the same model; the envelope and plain-dip fits pin the beat to zero.
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

# Envelope extraction: a trace counts as oscillatory when it shows at least
# this many significant interior extrema of |p - 1/2|.
_MIN_OSCILLATION_PEAKS = 5
_MIN_DIP_DEPTH = 0.05
_MIN_VISIBILITY = 0.01

# Beat spectrum: bins are _OVERSAMPLE times finer than the trace resolves, and
# _FINE_OVERSAMPLE times where the resolution decision depends on where they
# fall.  On a non-uniform grid each sample is spread onto 2 * _SPREAD_HALF_WIDTH
# points of the FFT grid, _BLOCK_ROWS samples per step, which bounds the memory.
_OVERSAMPLE = 2
_FINE_OVERSAMPLE = 8
_SPREAD_HALF_WIDTH = 12
_BLOCK_ROWS = 4096


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
class EnvelopeFit:
    tau_c_hat: float
    visibility_hat: float
    converged: bool


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
    ``normal_equations(theta, r, intermediates)`` reuses to return J^T J and
    J^T r at the same theta, J being the Jacobian of r.  Returns (theta,
    residual, converged, iterations).  A singular normal matrix or a step
    that cannot reduce the objective ends the fit unconverged with the best
    parameters found so far.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, shared = evaluate(theta)
    ssr = float(r @ r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jtj, jtr = normal_equations(theta, r, shared)
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            return theta, r, False, iterations
        if not np.all(np.isfinite(step)):
            return theta, r, False, iterations
        lam = 1.0
        for _ in range(30):
            candidate = theta + lam * step
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
        return p - target, (cos, env)

    def normal_equations(theta, r, shared):
        # the Jacobian's columns are scales times shapes: d/dV = -cos env / 2,
        # d/db = (v/2) sin env x and d/du = -(v / (2 u^3)) cos env x^2
        v, b, u = unpack(theta)
        cos, env = shared
        ce = cos * env
        shapes = [ce, ce * x * x]
        scales = [-0.5, -0.5 * v / u**3]
        if free_beat:
            shapes.insert(1, np.sin(b / t0 * tau) * env * x)
            scales.insert(1, 0.5 * v)
        jtj = np.array([[a @ b for b in shapes] for a in shapes])
        s = np.array(scales)
        # a zero entry stays zero where the product of two scales would overflow
        return jtj * s[:, None] * s, s * [a @ r for a in shapes]

    # a trace far outside [0, 1] overflows the squares: its fit ends unconverged, rms inf
    with np.errstate(over="ignore"):
        theta, r, converged, iterations = _damped_gauss_newton(evaluate, normal_equations,
                                                               start[free])
        rms = float(np.sqrt(np.mean(r**2)))
    v, b, u = unpack(theta)
    return float(v), abs(float(b)) / t0, abs(float(u)) * t0, rms, converged, iterations


def fit_envelope(trace: NoisyTrace) -> EnvelopeFit:
    """Fit the Gaussian dip envelope, ignoring any beat oscillation.

    Oscillatory traces are reduced to their envelope touch points: the
    interior local maxima of |p - 1/2|, which fold probabilities above and
    below 1/2 onto the lower envelope.  Traces without enough significant
    extrema are fitted directly against the plain dip model.
    """
    tau = trace.tau
    p = trace.p
    if tau.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit")
    depth = np.abs(p - 0.5)
    smooth = np.convolve(depth, np.ones(5) / 5, mode="same")  # a 5-point moving average
    max_depth = float(smooth.max())
    interior = np.arange(1, tau.size - 1)
    is_peak = (smooth[interior] > smooth[interior - 1]) & (smooth[interior] >= smooth[interior + 1])
    peak_idx = interior[is_peak & (smooth[interior] >= 0.05 * max_depth)]
    oscillatory = len(peak_idx) >= _MIN_OSCILLATION_PEAKS and max_depth >= _MIN_DIP_DEPTH
    t_fit, d_fit = (tau[peak_idx], depth[peak_idx]) if oscillatory else (tau, depth)
    weights = d_fit.sum()
    span = float(tau.max() - tau.min())
    if max_depth < 1e-9 or weights <= 0.0:  # a flat trace: nothing to fit against
        return EnvelopeFit(tau_c_hat=span / 4.0, visibility_hat=0.0, converged=False)
    # the weighted rms delay, of delays scaled exactly by a power of two below 1 lest it overflow
    e = math.frexp(float(np.abs(t_fit).max()))[1]
    tau_c0 = math.ldexp(math.sqrt(float((d_fit * np.ldexp(t_fit, -e) ** 2).sum() / weights)), e)
    if tau_c0 <= 0.0:
        tau_c0 = span / 4.0
    v0 = min(1.2, 2.0 * float(d_fit.max()))

    # fitting the model to 1/2 - depth leaves the same sum of squares as
    # fitting the envelope (V/2) exp(-tau^2/(2 tau_c^2)) to the depths
    v_hat, _, tau_c_hat, _, converged, _ = _fit_dip(
        t_fit, 0.5 - d_fit, v0, 0.0, tau_c0, free_beat=False
    )
    if not math.isfinite(tau_c_hat) or tau_c_hat <= 0.0:
        return EnvelopeFit(tau_c_hat=tau_c0, visibility_hat=max(v_hat, 0.0), converged=False)
    if v_hat < _MIN_VISIBILITY:
        converged = False
    return EnvelopeFit(tau_c_hat=tau_c_hat, visibility_hat=max(v_hat, 0.0), converged=converged)


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


def _spread(x: np.ndarray, c: np.ndarray, m_grid: int, t: float) -> np.ndarray:
    """Samples ``c`` at ascending ``x`` in [0, pi] convolved with ``exp(-x^2 / (4 t))``.

    The periodic convolution is sampled on ``m_grid`` points over [0, 2 pi);
    each sample reaches the ``2 * _SPREAD_HALF_WIDTH`` points nearest to it.
    """
    w = _SPREAD_HALF_WIDTH
    h = 2.0 * math.pi / m_grid
    # the first w points catch what spreads left of x = 0; they fold onto the end
    padded = np.zeros(m_grid + w, dtype=complex)
    offsets = np.arange(1 - w, w + 1)
    for lo in range(0, x.size, _BLOCK_ROWS):
        xb = x[lo : lo + _BLOCK_ROWS]
        cb = c[lo : lo + _BLOCK_ROWS]
        m0 = np.floor(xb / h).astype(np.int64)
        d = (m0[:, None] + offsets) * h - xb[:, None]
        kernel = np.exp(-d * d / (4.0 * t))
        # ascending x: the block covers one run of points, from padded[m0[0] + 1]
        idx = ((m0 - m0[0])[:, None] + np.arange(2 * w)).ravel()
        run = slice(int(m0[0]) + 1, int(m0[-1]) + 1 + 2 * w)
        size = run.stop - run.start
        padded.real[run] += np.bincount(idx, (kernel * cb.real[:, None]).ravel(), minlength=size)
        padded.imag[run] += np.bincount(idx, (kernel * cb.imag[:, None]).ravel(), minlength=size)
    grid = padded[w:]
    grid[-w:] += padded[:w]
    return grid


def _magnitude_spectrum(tau: np.ndarray, y: np.ndarray, oversample: int = _OVERSAMPLE):
    """Hann-windowed magnitude spectrum on an angular-frequency grid ``oversample`` times fine.

    Uniform delay grids use an ``rfft`` zero-padded to the 5-smooth length
    at or above ``oversample * n`` (:func:`_fft_length`), which numpy
    transforms fast whatever n factors into.  Non-uniform grids use a
    type-1 non-uniform FFT by Gaussian gridding (Greengard & Lee, SIAM Rev.
    46, 443 (2004)) on ``oversample * n // 2 | 1`` bins, an odd count, spaced
    ``2 pi / (oversample * span)`` from zero; it matches the direct transform
    to about 1e-12 of the spectral peak.
    """
    n = tau.size
    window = np.hanning(n)
    yw = y * window
    dt = np.diff(tau)
    uniform = np.allclose(dt, dt.mean(), rtol=1e-9, atol=0.0)
    if uniform:
        n_pad = _fft_length(oversample * n)
        spectrum = np.abs(np.fft.rfft(yw, n=n_pad))
        freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=float(dt.mean()))
        return freqs, spectrum
    span = float(tau[-1] - tau[0])
    df = 2.0 * math.pi / (oversample * span)
    n_freq = oversample * n // 2 | 1  # odd, so that the modes centre on zero
    half = n_freq // 2
    # bin half + j of the samples at x = df (tau - tau_0), in [0, pi] at most, is mode j
    # of the samples times exp(-i half x); with the modes centred on zero the
    # Gaussian's deconvolution factor exp(t j^2) stays below about e^pi
    x = df * (tau - tau[0])
    # at least 2 * _SPREAD_HALF_WIDTH + 2 points, so that what a sample at x = pi
    # spreads fits _spread's buffer
    m_grid = _fft_length(max(2 * n_freq, 2 * _SPREAD_HALF_WIDTH + 2))
    r = m_grid / n_freq
    t = math.pi * _SPREAD_HALF_WIDTH / (n_freq**2 * r * (r - 0.5))
    modes = np.fft.fft(_spread(x, yw * np.exp(-1j * half * x), m_grid, t))
    spectrum = np.abs(np.concatenate((modes[m_grid - half :], modes[: half + 1])))
    j = np.arange(-half, half + 1, dtype=float)
    spectrum *= math.sqrt(math.pi / t) / m_grid * np.exp(t * j * j)
    return df * np.arange(n_freq), spectrum


def extract_beat(trace: NoisyTrace, tau_c_hat: float | None = None) -> float:
    """Dominant beat of the demodulated dip, or 0.0 when unresolvable.

    The trace is demodulated by removing the fitted envelope from
    ``1/2 - p``, restricted to delays within 2.5 envelope times (where the
    amplification of noise stays bounded), and transformed; the spectral
    peak is refined by quadratic interpolation on the log magnitude of the
    three bins around it, on bins four times finer when it is not clear on
    the coarse ones (:func:`_spectral_peak`).  Zero is returned, rather than an error, when the
    peak is indistinguishable from the zero-frequency lobe or the implied
    beat falls under the resolution threshold.
    """
    if tau_c_hat is None:
        tau_c_hat = fit_envelope(trace).tau_c_hat
    # an envelope whose 2 tau_c**2 is not a normal float leaves no beat to resolve
    if not (tau_c_hat > 0.0 and _normal_width(tau_c_hat)):
        return 0.0
    keep = np.abs(trace.tau) <= 2.5 * tau_c_hat
    if keep.sum() < 16:
        keep = np.ones_like(trace.tau, dtype=bool)
    tau = trace.tau[keep]
    # the exponent is <= 3.125 inside the kept window; the cap only matters
    # when a collapsed envelope estimate forced the keep-everything fallback
    gain = np.exp(np.minimum((tau**2) / (2.0 * tau_c_hat**2), 50.0))
    y = (0.5 - trace.p[keep]) * gain

    span = float(tau[-1] - tau[0])
    if span <= 0.0:
        return 0.0
    guard = 2.5 * 2.0 * math.pi / span
    beat, clear = _spectral_peak(*_magnitude_spectrum(tau, y), guard, tau_c_hat)
    if not clear:
        # whether a peak near the guard or the threshold is resolved depends on
        # where the bins fall: decide it on the finer grid
        beat, _ = _spectral_peak(*_magnitude_spectrum(tau, y, _FINE_OVERSAMPLE), guard, tau_c_hat)
    if beat * tau_c_hat < BEAT_RESOLUTION_RAD:
        return 0.0
    return beat


def _spectral_peak(freqs, spectrum, guard, tau_c_hat):
    """Interpolated frequency of the highest bin at or above ``guard``, and whether it is clear.

    The frequency is 0.0 when no bin reaches the guard or the highest one is
    under half the spectrum's maximum.  The peak is clear when it is the
    maximum, at least two bins above the guard, and two bins below it still
    clear the resolution threshold.  A finer grid then moves the frequency
    by a fraction of a bin, which the joint fit refines away, but leaves it
    resolved.  A zero is clear when the spectrum stays far under the half
    maximum near and above the guard, so that no finer grid reaches it.
    """
    # the first bin at or above the guard, on the ascending frequencies
    offset = int(np.searchsorted(freqs, guard))
    top = float(spectrum.max())
    if offset == freqs.size or top <= 0.0:
        return 0.0, False
    k = offset + int(np.argmax(spectrum[offset:]))
    if spectrum[k] < 0.5 * top:
        # dominant energy sits at low frequency: no resolvable beat, and clearly
        # none when nothing from two bins under the guard up reaches top / 4
        return 0.0, bool(spectrum[max(offset - 2, 0) :].max() < 0.25 * top)
    if 1 <= k < freqs.size - 1 and spectrum[k - 1] > 0.0 and spectrum[k + 1] > 0.0:
        a, b, c = np.log(spectrum[k - 1 : k + 2])
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0.0 else 0.0
        shift = min(1.0, max(-1.0, float(shift)))
    else:
        shift = 0.0
    beat = float(freqs[k] + shift * (freqs[1] - freqs[0]))
    clear = (spectrum[k] == top and k >= offset + 2
             and freqs[k - 2] * tau_c_hat >= BEAT_RESOLUTION_RAD)
    return beat, bool(clear)


def estimate(trace: NoisyTrace) -> EstimateResult:
    """Full estimation: envelope and beat initialization, then joint refinement."""
    env = fit_envelope(trace)
    if env.visibility_hat < _MIN_VISIBILITY:
        span = float(trace.tau.max() - trace.tau.min())
        rms = float(np.sqrt(np.mean((trace.p - 0.5) ** 2)))
        return EstimateResult(
            beat=0.0,
            tau_c_hat=env.tau_c_hat if env.tau_c_hat > 0 else span / 4.0,
            visibility_hat=env.visibility_hat,
            rms_residual=rms,
            converged=False,
            iterations=0,
            below_resolution=True,
        )
    beat0 = extract_beat(trace, env.tau_c_hat)
    below_resolution = beat0 == 0.0
    v, beat, tau_c_hat, rms, converged, iterations = _fit_dip(
        trace.tau, trace.p, env.visibility_hat, beat0, env.tau_c_hat, free_beat=not below_resolution
    )
    if below_resolution:
        converged = converged and env.converged
    return EstimateResult(
        beat=beat,
        tau_c_hat=tau_c_hat,
        visibility_hat=max(v, 0.0),
        rms_residual=rms,
        converged=converged,
        iterations=iterations,
        below_resolution=below_resolution,
    )
