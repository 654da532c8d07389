"""Joint spectral amplitude of the photon pair, with and without rotation.

The amplitude factorizes into a Gaussian phase-matching profile acting on
the signal/idler frequency combination and a Gaussian pump envelope acting
on their sum.  Everything here works on detunings ``nu = omega - center``,
which keeps terahertz-scale structure well conditioned at optical carriers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PumpSpectrum:
    """Gaussian pump envelope: per-photon degenerate center and spectral width."""

    center: float  # rad/s
    sigma: float  # rad/s

    def __post_init__(self):
        # the envelope divides by 2 sigma**2, which must not overflow
        if not (self.sigma > 0.0 and math.isfinite(self.sigma * self.sigma)):
            raise ValueError("pump sigma must be positive, with a finite square")


@dataclass(frozen=True)
class PhaseMatchGaussian:
    """Gaussian phase-matching profile ``exp(-gamma * (A nu1 - A nu2)^2)``.

    The coefficient of ``nu2`` is ``B = -A``, so the profile depends only on
    the frequency difference.
    """

    gamma: float
    a_coef: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not math.isfinite(self.a_coef):
            raise ValueError("phase-matching coefficients must be finite")


@dataclass(frozen=True)
class RdeShift:
    """Rotational Doppler shift parameters: OAM charge and rotation rate."""

    l: int
    omega_rot: float  # rad/s

    def __post_init__(self):
        if (not isinstance(self.l, int) or isinstance(self.l, bool)
                or not 0 <= self.l <= sys.float_info.max):
            raise ValueError("topological charge l must be an integer >= 0 within the float range")
        if not math.isfinite(self.omega_rot):
            raise ValueError("omega_rot must be finite")


@dataclass(frozen=True)
class JsaGrid:
    """Amplitude magnitude on a rectangular detuning grid, peak-normalized.

    ``values[i, j]`` belongs to ``(axis1[i], axis2[j])``.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.axis1), len(self.axis2)):
            raise ValueError("values shape must match the two axes")
        if self.values.size and self.values.max() > 0.0:
            if abs(self.values.max() - 1.0) > 1e-12:
                raise ValueError("grid must be normalized so the maximum is 1")

    def cell_size(self) -> tuple[float, float]:
        d1 = float(self.axis1[1] - self.axis1[0]) if len(self.axis1) > 1 else 0.0
        d2 = float(self.axis2[1] - self.axis2[0]) if len(self.axis2) > 1 else 0.0
        return d1, d2


def _profile(nu1, nu2, pm: PhaseMatchGaussian, tag):
    """Phase-matching profile ``exp(-gamma (A (nu1 + tag) - A (nu2 - tag))^2)`` of one branch."""
    return np.exp(-pm.gamma * (pm.a_coef * (nu1 + tag) - pm.a_coef * (nu2 - tag)) ** 2)


def _envelope(nu1, nu2, pump: PumpSpectrum):
    """Pump envelope ``exp(-(nu1 + nu2)^2 / (2 sigma^2))``: the branch shifts leave it unchanged."""
    return np.exp(-((nu1 + nu2) ** 2) / (2.0 * pump.sigma**2))


def jsa_value(nu1, nu2, pump: PumpSpectrum, pm: PhaseMatchGaussian):
    """Joint spectral amplitude at detunings (nu1, nu2); accepts arrays.

    The unshifted profile times the pump envelope, equal to 1 at the
    degenerate point, and exactly 0 wherever the envelope is 0.
    """
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    with np.errstate(over="ignore"):  # a square beyond the float range is an amplitude of 0
        envelope = _envelope(nu1, nu2, pump)
        # the amplitude is 0 where the envelope is; there A nu1 - A nu2 may be inf - inf
        dark = envelope == 0.0
        out = _profile(np.where(dark, 0.0, nu1), np.where(dark, 0.0, nu2), pm, 0.0) * envelope
    return float(out) if out.ndim == 0 else out


def jsa_grid(
    pump: PumpSpectrum,
    pm: PhaseMatchGaussian,
    shift: RdeShift | None,
    half_width: float,
    n: int,
) -> JsaGrid:
    """Evaluate the amplitude magnitude on an n-by-n detuning grid.

    The two OAM-tagged branches are the phase-matching profile at oppositely
    displaced arguments, ``tag = +-l * omega_rot`` (0 without a shift), times
    the pump envelope, which the shifts leave unchanged.  They are combined
    per point as the larger branch magnitude: the branches carry orthogonal
    OAM tags, so their intensities do not interfere.
    """
    if n < 16:
        raise ValueError("grid size n must be at least 16")
    # linspace overflows unless its span 2*half_width stays below the largest float
    if not (half_width > 0.0 and 2.0 * half_width < sys.float_info.max):
        raise ValueError("half_width must be positive and below half the float range")
    axis = np.linspace(-half_width, half_width, n)
    nu1 = axis[:, None]
    nu2 = axis[None, :]
    tag = 0.0 if shift is None else shift.l * shift.omega_rot
    with np.errstate(all="ignore"):  # the finiteness check below reports overflow and 0/0
        # taking the larger branch commutes with the common envelope, applied once
        values = _profile(nu1, nu2, pm, tag)
        np.maximum(values, _profile(nu1, nu2, pm, -tag), out=values)
        values *= _envelope(nu1, nu2, pump)
    if not np.isfinite(values).all():
        # e.g. sigma**2 underflowing to 0 makes the envelope 0/0 on the antidiagonal
        raise ValueError("joint amplitude is not finite on the grid; check sigma and the "
                         "phase-matching coefficients")
    peak = values.max()
    if peak > 0.0:
        values = values / peak
    return JsaGrid(axis1=axis, axis2=axis.copy(), values=values)


def peak_locations(grid: JsaGrid) -> list[tuple[float, float]]:
    """Interior local maxima above half the global maximum.

    A cell qualifies when none of its eight neighbors exceeds it.  When the
    true peak falls between grid points, adjacent cells can tie exactly;
    each connected plateau of qualifying cells therefore counts as a single
    peak, located at its first highest cell.  Peaks are returned as
    ``(nu1, nu2)`` pairs sorted by amplitude, largest first.
    """
    v = grid.values
    if v.size == 0:
        raise ValueError("grid is empty")
    top = v.max()
    if top <= 0.0:
        return []
    core = v[1:-1, 1:-1]
    mask = core > 0.5 * top
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= core >= v[1 + di : v.shape[0] - 1 + di, 1 + dj : v.shape[1] - 1 + dj]
    # two adjacent qualifying cells are each >= the other, so an 8-connected
    # group is a plateau of equal values: its raster-first cell is its first highest
    unseen = {tuple(cell) for cell in np.argwhere(mask).tolist()}
    peaks = []
    while unseen:
        i, j = min(unseen)  # the next group's raster-first cell
        unseen.remove((i, j))
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            for cell in [(a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]:
                if cell in unseen:
                    unseen.remove(cell)
                    stack.append(cell)
        peaks.append((float(core[i, j]), float(grid.axis1[i + 1]), float(grid.axis2[j + 1])))
    peaks.sort(key=lambda t: -t[0])
    return [(nu1, nu2) for _, nu1, nu2 in peaks]


def effective_coherence_time(pm: PhaseMatchGaussian) -> float:
    """Envelope time constant implied by the phase-matching profile.

    Along the antidiagonal the profile reduces to a Gaussian single-photon
    spectrum whose two-photon interference envelope decays as
    ``exp(-tau^2 / (2 tau_c^2))`` with ``tau_c = 2 |A| sqrt(gamma)``.
    Doubling A doubles it; quadrupling gamma doubles it.
    """
    return 2.0 * abs(pm.a_coef) * math.sqrt(pm.gamma)
