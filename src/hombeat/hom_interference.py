"""Hong-Ou-Mandel coincidence probabilities for the entangled pair.

Two routes are provided and kept deliberately independent.  The closed
forms evaluate the Gaussian dip and its cosine-modulated variant directly.
The numeric route takes one OAM branch of the joint spectrum, the
phase-matching profile that ``jsa_grid`` also evaluates, and sums the
Fourier transform of its difference-frequency density on a uniform grid;
it must agree with the closed forms to better than 1e-6, which the test
suite enforces.

A note on bandwidth conventions: the full width at half maximum of the
spectral density, ``2 sqrt(2 ln 2) / tau_c``, is used everywhere a
bandwidth is reported here.  A narrower ``sqrt(2) / tau_c`` convention also
circulates for the same envelope; the two differ by a fixed factor of about
1.67 and must not be mixed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .joint_spectrum import PhaseMatchGaussian, _profile

FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Largest accepted error estimate of the numeric dip; leaves an order of slack under
# the 1e-6 agreement contract with the closed forms.
_QUAD_ERR_LIMIT = 1e-7
_NODE_BUDGET = 1 << 14  # uniform-grid nodes of one numeric dip
_BLOCK = 1 << 20  # cosine-matrix entries evaluated at once


@dataclass(frozen=True)
class HomConfig:
    """One coincidence scan: envelope time, plate parameters, delay grid."""

    tau_c: float  # s
    l: int
    omega_rot: float  # rad/s
    tau_grid: np.ndarray  # s, any sequence of delays is stored as a float array

    def __post_init__(self):
        if not isinstance(self.l, int) or isinstance(self.l, bool) or self.l < 0:
            raise ValueError("l must be an integer >= 0")
        if not math.isfinite(self.omega_rot):
            raise ValueError("omega_rot must be finite")
        tau_grid = np.asarray(self.tau_grid, dtype=float)
        if not np.isfinite(tau_grid).all():
            raise ValueError("tau grid must contain finite values")
        _check_dip(self.tau_c, 2.0 * self.l * self.omega_rot, tau_grid)
        object.__setattr__(self, "tau_grid", tau_grid)


def _check_dip(tau_c: float, beat: float, tau: np.ndarray) -> None:
    """Reject a dip the closed form would make NaN: 2 tau_c**2 outside the normal
    floats, or a beat or beat phase beyond the float range."""
    # the dip divides by 2 tau_c**2; one that underflows makes it 0/0 at tau = 0
    # (Python floats, which overflow to inf without a numpy warning)
    if not (tau_c > 0.0 and sys.float_info.min <= 2.0 * float(tau_c) * float(tau_c) < math.inf):
        raise ValueError("tau_c must be positive and finite, with 2*tau_c**2 a normal float")
    if not math.isfinite(beat):
        raise ValueError("beat 2*l*omega_rot must be finite")
    # the dip takes cos(beat * tau), which is NaN for a phase beyond the float range
    if not math.isfinite(float(beat) * float(np.abs(tau).max(initial=0.0))):
        raise ValueError("beat phase 2*l*omega_rot*max|tau| must be finite")


@dataclass(frozen=True)
class HomTrace:
    """Coincidence probability versus delay, plus the scan metadata.

    ``window_exceeded`` flags traces whose delays extend beyond
    ``|tau| < tau_c / 2``; the closed forms are evaluated there anyway, the
    flag only records that the scan left the narrow-delay regime.
    """

    tau: np.ndarray
    p: np.ndarray
    tau_c: float
    l: int
    omega_rot: float
    method: str
    window_exceeded: bool = False

    def __post_init__(self):
        if self.tau.shape != self.p.shape:
            raise ValueError("tau and p must have identical shapes")
        # written so that NaN, which fails every comparison, fails the test too
        if not np.all((self.p >= -1e-12) & (self.p <= 1.0 + 1e-12)):
            raise ValueError("coincidence probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class RestrictedDensityMatrix:
    """Two-by-two density matrix in the swapped-frequency coincidence basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise ValueError("matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("matrix must have unit trace")
        if np.linalg.eigvalsh(m).min() < -1e-12:
            raise ValueError("matrix must be positive semidefinite")


def dip_model(tau, v, beat, tau_c):
    """The dip ``1/2 - (v/2) cos(beat tau) exp(-tau^2 / (2 tau_c^2))`` at the delays ``tau``.

    Returns ``(p, cos, envelope)``: a fit's Jacobian reuses the cosine and
    the envelope.
    """
    cos = np.cos(beat * tau)
    with np.errstate(over="ignore"):  # a tau*tau beyond the float range is an envelope of exactly 0
        envelope = np.exp(-(tau * tau) / (2.0 * tau_c * tau_c))
    return 0.5 - 0.5 * v * cos * envelope, cos, envelope


def coincidence_plain(tau, tau_c: float):
    """Gaussian dip ``1/2 - (1/2) exp(-tau^2 / (2 tau_c^2))``: the beating dip at ``l = 0``."""
    return coincidence_rde(tau, tau_c, 0, 0.0)


def coincidence_rde(tau, tau_c: float, l: int, omega_rot: float):
    """Cosine-modulated dip: :func:`dip_model` at full visibility and beat ``2 l omega_rot``.

    ``tau`` is one delay (the result is a float) or an array of delays (the
    result is an array of the same shape).  Only the product
    ``2 l omega_rot`` enters, so any factorization of the same beat gives the
    identical value.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    tau = np.asarray(tau, dtype=float)
    beat = 2.0 * l * float(omega_rot)
    _check_dip(tau_c, beat, tau)
    p = dip_model(tau, 1.0, beat, tau_c)[0]
    return float(p) if p.ndim == 0 else p


def coincidence_numeric(tau, tau_c: float, l: int, omega_rot: float):
    """Coincidence probability from the exchange overlap of one joint-spectrum branch.

    The branch is ``joint_spectrum._profile`` shifted by ``l omega_rot``, with
    ``gamma = 1/4`` and ``A = tau_c`` so that its effective coherence time is
    ``tau_c``.  The pump envelope depends on the frequency sum only and cancels
    in the exchange overlap, so the dip is the Fourier transform of the
    difference-frequency density ``rho(d) = |profile(d/2, -d/2)|^2``, centred
    at ``d = -2 l omega_rot``:

        P(tau) = 1/2 - 1/2 * integral rho(d) cos(d tau) dd / integral rho(d) dd.

    Both integrals are sums on one uniform grid out to 8/tau_c either side of
    the centre (rho is exp(-32) there) with a step of at most
    ``h = pi / (max|tau| + 8 tau_c)``.  For this smooth, decaying integrand
    such a sum errs only by aliases 2 pi / h away.  The sum over every other
    node, the 2h rule, whose nearest alias is 8 tau_c beyond the longest
    delay, estimates that error.  A grid over the node budget or an estimate
    above 1e-7 raises :class:`QuadratureError`.  ``tau`` is one delay (float
    result) or an array of delays (array result of the same shape).
    """
    if not tau_c > 0.0:
        raise ValueError("tau_c must be positive")
    if l < 0:
        raise ValueError("l must be >= 0")
    taus = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("delays must be finite")
    longest = float(np.max(np.abs(taus), initial=0.0))
    half = 8.0 * (longest / tau_c + 8.0) / math.pi  # steps of h either side of the centre
    if not half <= (_NODE_BUDGET - 1) // 2:
        raise QuadratureError(f"delays up to {longest:.3g} s need more difference-frequency "
                              f"nodes than the budget of {_NODE_BUDGET}")
    half = math.ceil(half)
    k = np.arange(-half, half + 1)
    tag = l * omega_rot
    d = 8.0 / tau_c / half * k - 2.0 * tag
    pm = PhaseMatchGaussian(gamma=0.25, a_coef=tau_c)
    rho = _profile(0.5 * d, -0.5 * d, pm, tag) ** 2
    coarse = np.where(k % 2 == 0, rho, 0.0)  # the 2h rule, centre node included
    weights = np.column_stack((rho / rho.sum(), coarse / coarse.sum()))
    flat = taus.ravel()
    sums = np.empty((flat.size, 2))
    rows = max(1, _BLOCK // d.size)
    for i in range(0, flat.size, rows):
        sums[i : i + rows] = np.cos(np.outer(flat[i : i + rows], d)) @ weights
    err = 0.5 * float(np.max(np.abs(sums[:, 0] - sums[:, 1]), initial=0.0))
    # far from 0 the nodes round by up to half an ulp of the centre, which moves each
    # cosine's phase by up to that times |tau| and its weight by about that times tau_c
    err = max(err, 0.5 * math.ulp(2.0 * tag) * (tau_c + longest))
    if not err <= _QUAD_ERR_LIMIT:  # NaN too
        raise QuadratureError(
            f"difference-frequency sum error estimate {err:.2e} exceeds {_QUAD_ERR_LIMIT:.0e}"
        )
    p = (0.5 - 0.5 * sums[:, 0]).reshape(taus.shape)
    if p.size and (p.min() < -1e-6 or p.max() > 1.0 + 1e-6):
        raise QuadratureError("difference-frequency sum produced an out-of-range probability")
    p = np.clip(p, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def trace(cfg: HomConfig, method: str = "closed") -> HomTrace:
    """Scan the delay grid with the chosen evaluation route."""
    if method not in ("closed", "numeric"):
        raise ValueError("method must be 'closed' or 'numeric'")
    taus = cfg.tau_grid
    if method == "closed":
        p = coincidence_rde(taus, cfg.tau_c, cfg.l, cfg.omega_rot)
    else:
        p = coincidence_numeric(taus, cfg.tau_c, cfg.l, cfg.omega_rot)
    exceeded = bool(taus.size and np.max(np.abs(taus)) >= cfg.tau_c / 2.0)
    return HomTrace(
        tau=taus,
        p=p,
        tau_c=cfg.tau_c,
        l=cfg.l,
        omega_rot=cfg.omega_rot,
        method=method,
        window_exceeded=exceeded,
    )


def fwhm_bandwidth(tau_c: float) -> float:
    """Spectral density FWHM for a Gaussian envelope time: ``2 sqrt(2 ln 2) / tau_c``."""
    if not tau_c > 0.0:
        raise ValueError("tau_c must be positive")
    return FWHM_FACTOR / tau_c


def observability(l: int, omega_rot: float, tau_c: float) -> tuple[bool, float]:
    """Whether beats are resolvable inside the dip, plus the bandwidth used.

    Oscillations show up when the beat ``2 l omega_rot`` exceeds the FWHM
    bandwidth of the spectral density.
    """
    bandwidth = fwhm_bandwidth(tau_c)
    return (2.0 * l * omega_rot > bandwidth, bandwidth)


def visibility(trace_: HomTrace) -> float:
    """Dip depth against the trace's own wing baseline, clipped to [0, 1].

    The baseline is the largest probability among samples whose delay sits
    in the outer 10 percent of the scanned range (5 percent on each side).
    """
    tau = trace_.tau
    p = trace_.p
    if tau.size < 3:
        raise ValueError("trace too short to analyze")
    span = float(tau.max() - tau.min())
    if span <= 0.0:
        raise ValueError("trace delays must span a nonzero range")
    edge = 0.05 * span
    outer = (tau <= tau.min() + edge) | (tau >= tau.max() - edge)
    baseline = float(p[outer].max())
    if baseline <= 1e-12:
        raise ValueError("degenerate trace: baseline coincidence is zero")
    v = (baseline - float(p.min())) / baseline
    return min(1.0, max(0.0, v))


def restricted_density_matrix(
    visibility_value: float, population_imbalance: float = 0.0
) -> RestrictedDensityMatrix:
    """Density matrix in the swapped-frequency basis from dip observables.

    Populations follow the imbalance; the coherence magnitude is the
    visibility times the geometric mean of the populations, with zero phase
    since the dip constrains only the magnitude.
    """
    if not 0.0 <= visibility_value <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if not -1.0 <= population_imbalance <= 1.0:
        raise ValueError("population imbalance must lie in [-1, 1]")
    rho11 = 0.5 * (1.0 + population_imbalance)
    rho22 = 0.5 * (1.0 - population_imbalance)
    off = visibility_value * math.sqrt(rho11 * rho22)
    return RestrictedDensityMatrix(
        np.array([[rho11, off], [off, rho22]], dtype=complex)
    )
