"""Hong-Ou-Mandel coincidence probabilities for the entangled pair.

Two routes are provided and kept deliberately independent.  The closed
forms evaluate the Gaussian dip and its cosine-modulated variant directly.
The numeric route builds the two single-photon spectral amplitudes, one per
OAM branch, and evaluates the two-photon exchange overlap by composite
Gauss-Legendre quadrature; for Gaussian spectra it must agree with the
closed forms to better than 1e-6, which the test suite enforces.

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

FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Largest accepted quadrature error estimate; leaves an order of slack under
# the 1e-6 agreement contract with the closed forms.
_QUAD_ERR_LIMIT = 1e-7
# Composite Gauss-Legendre (Golub & Welsch 1969) on equal panels at most one
# amplitude width and two periods of cos(2 x tau) wide; there even the lower
# order is far below _QUAD_ERR_LIMIT, so the orders' difference estimates the error.
_GL_ORDERS = (20, 14)
_NODES_PER_PERIOD = 10
_PANEL_BUDGET = 4096
_BLOCK = 1 << 20  # cosine-matrix entries evaluated at once


@dataclass(frozen=True)
class HomConfig:
    """One coincidence scan: envelope time, plate parameters, delay grid."""

    tau_c: float  # s
    l: int
    omega_rot: float  # rad/s
    tau_grid: np.ndarray  # s, any sequence of delays is stored as a float array

    def __post_init__(self):
        # the dip divides by 2 tau_c**2; one that underflows makes it 0/0 at tau = 0
        if not (self.tau_c > 0.0 and sys.float_info.min <= 2.0 * self.tau_c * self.tau_c < math.inf):
            raise ValueError("tau_c must be positive and finite, with 2*tau_c**2 a normal float")
        if not isinstance(self.l, int) or isinstance(self.l, bool) or self.l < 0:
            raise ValueError("l must be an integer >= 0")
        if not math.isfinite(self.omega_rot):
            raise ValueError("omega_rot must be finite")
        if not math.isfinite(2.0 * self.l * self.omega_rot):
            raise ValueError("beat 2*l*omega_rot must be finite")
        tau_grid = np.asarray(self.tau_grid, dtype=float)
        if not np.isfinite(tau_grid).all():
            raise ValueError("tau grid must contain finite values")
        # the dip takes cos(beat * tau), which is NaN for a phase beyond the float range
        max_phase = 2.0 * self.l * self.omega_rot * float(np.abs(tau_grid).max(initial=0.0))
        if not math.isfinite(max_phase):
            raise ValueError("beat phase 2*l*omega_rot*max|tau| must be finite")
        object.__setattr__(self, "tau_grid", tau_grid)


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
        if self.p.size and (self.p.min() < -1e-12 or self.p.max() > 1.0 + 1e-12):
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


@dataclass(frozen=True)
class GaussianSpectralAmplitude:
    """Unit-norm Gaussian spectral amplitude for one OAM branch.

    ``sigma`` is the standard deviation of the intensity spectrum
    ``|amplitude|^2``; a branch with envelope time tau_c has
    ``sigma = 1 / (2 tau_c)``.
    """

    center: float  # rad/s detuning of the branch
    sigma: float  # rad/s

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("spectral width must be positive")

    def amplitude(self, nu):
        w2 = self.sigma**2
        return (2.0 * math.pi * w2) ** -0.25 * np.exp(-((nu - self.center) ** 2) / (4.0 * w2))


def make_shifted_spectra(
    tau_c: float, l: int, omega_rot: float
) -> tuple[GaussianSpectralAmplitude, GaussianSpectralAmplitude]:
    """The two branch spectra, centered at +l*omega_rot and -l*omega_rot."""
    if not tau_c > 0.0:
        raise ValueError("tau_c must be positive")
    sigma = 1.0 / (2.0 * tau_c)
    tag = l * omega_rot
    return (
        GaussianSpectralAmplitude(center=+tag, sigma=sigma),
        GaussianSpectralAmplitude(center=-tag, sigma=sigma),
    )


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
    if not tau_c > 0.0:
        raise ValueError("tau_c must be positive")
    if l < 0:
        raise ValueError("l must be >= 0")
    p = dip_model(np.asarray(tau, dtype=float), 1.0, 2.0 * l * omega_rot, tau_c)[0]
    return float(p) if p.ndim == 0 else p


def coincidence_numeric(
    tau,
    spectra: tuple[GaussianSpectralAmplitude, GaussianSpectralAmplitude],
):
    """Coincidence probability from the exchange-overlap integral.

    The two-photon amplitude has one branch per OAM tag; exchanging the
    photons maps each branch onto the other, so the interference term is the
    branch-symmetrized overlap

        1/2 - 1/2 * Re  integral  (1/2) [s+(x) s-(-x) + s-(x) s+(-x)] e^{2 i x tau} dx.

    The symmetrized product is even in x for any pair of branches, so the
    odd (sine) part integrates to zero and the cosine part is twice its
    integral over x >= 0.  The window [-reach, reach] extends eight amplitude
    widths beyond the farther branch center; its half [0, reach] is
    integrated by composite Gauss-Legendre quadrature at the node density
    the whole window needs.  A delay too long for a fixed panel budget over
    the whole window raises :class:`QuadratureError`.  ``tau`` is one delay
    (float result) or an array of delays (array result of the same shape).
    """
    s_plus, s_minus = spectra
    if abs(s_plus.sigma - s_minus.sigma) > 1e-9 * s_plus.sigma:
        raise ValueError("branch spectra must share a common width")
    amp_width = math.sqrt(2.0) * s_plus.sigma
    reach = max(abs(s_plus.center), abs(s_minus.center)) + 8.0 * amp_width

    taus = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("delays must be finite")
    # panels over the whole window [-reach, reach]; its half takes half of them
    periods = 2.0 * reach * float(np.max(np.abs(taus), initial=0.0)) / math.pi
    panels = max(2.0 * reach / amp_width, periods * _NODES_PER_PERIOD / _GL_ORDERS[0])
    if panels > _PANEL_BUDGET:
        raise QuadratureError(
            f"overlap quadrature needs {panels:.3g} panels, over the budget of {_PANEL_BUDGET}"
        )
    panels = math.ceil(0.5 * panels)
    half = 0.5 * reach / panels
    mids = half * (2.0 * np.arange(panels) + 1.0)
    flat = taus.ravel()
    overlap, check = np.empty(flat.size), np.empty(flat.size)
    for order, out in zip(_GL_ORDERS, (overlap, check)):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        x = (mids[:, None] + half * nodes).ravel()
        sym = 0.5 * (
            s_plus.amplitude(x) * s_minus.amplitude(-x)
            + s_minus.amplitude(x) * s_plus.amplitude(-x)
        )
        weighted = np.tile(2.0 * half * weights, panels) * sym
        rows = max(1, _BLOCK // x.size)
        for i in range(0, flat.size, rows):
            out[i : i + rows] = np.cos(2.0 * np.outer(flat[i : i + rows], x)) @ weighted
    err = float(np.max(np.abs(overlap - check), initial=0.0))
    if err > _QUAD_ERR_LIMIT:
        raise QuadratureError(
            f"overlap quadrature error estimate {err:.2e} exceeds {_QUAD_ERR_LIMIT:.0e}"
        )
    p = (0.5 - 0.5 * overlap).reshape(taus.shape)
    if p.size and (p.min() < -1e-6 or p.max() > 1.0 + 1e-6):
        raise QuadratureError("overlap quadrature produced an out-of-range probability")
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
        p = coincidence_numeric(taus, make_shifted_spectra(cfg.tau_c, cfg.l, cfg.omega_rot))
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
