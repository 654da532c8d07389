"""Type-II emission geometry for a uniaxial beta-barium borate crystal.

Dispersion comes from a published Sellmeier set of the form
``n^2 = a + b / (lam^2 - c) - d * lam^2`` with the wavelength in micrometers.
The pump propagates extraordinary-polarized at the cut angle; all sampled
signal frequencies are solved as one array for the internal emission angle
that satisfies both components of momentum conservation, then converted to
the external angle by Snell refraction at a plane exit face normal to the pump.

Geometry convention (single azimuth, in the plane of the optic axis): the
ordinarily polarized photon of a pair leaves on the side of the pump away
from the optic axis tilt and the extraordinarily polarized photon on the
opposite side, so every extraordinary ray sees the optic axis at
``cut_angle + internal_angle``.  Reported outside angles are unsigned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError

SPEED_OF_LIGHT_UM_THZ = 299.792458  # c as um * THz

# Supported wavelength window for the shipped dispersion data, micrometers.
WAVELENGTH_WINDOW_UM = (0.3, 1.5)

# Internal emission angles are searched over [0, 10] degrees; down-conversion
# cones in this geometry stay well inside that bracket.
_MAX_INTERNAL_ANGLE_RAD = math.radians(10.0)
_COARSE_SCAN_STEPS = 128
_SCAN_ANGLES = _MAX_INTERNAL_ANGLE_RAD * np.arange(_COARSE_SCAN_STEPS + 1) / _COARSE_SCAN_STEPS
_SCAN_CHUNK = 16  # trial angles per scan step; a row stops scanning at its bracket
# Frequencies solved per step: bounds the scan's memory at any number of points.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SellmeierSet:
    """Sellmeier coefficients for the ordinary and principal extraordinary index.

    Each coefficient tuple is ``(a, b, c, d)`` in
    ``n^2 = a + b / (lam^2 - c) - d * lam^2`` with ``lam`` in micrometers.
    ``provenance`` names the published source of the numbers.  A set must
    give a real index across the whole wavelength window: finite
    coefficients, no pole and a finite ``n^2 > 0``.
    """

    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    provenance: str

    def __post_init__(self):
        lo, hi = (lam * lam for lam in WAVELENGTH_WINDOW_UM)
        for name, (a, b, c, d) in (("ordinary", self.ordinary),
                                   ("extraordinary", self.extraordinary)):
            if not all(math.isfinite(v) for v in (a, b, c, d)):
                raise ValueError(f"{name} Sellmeier coefficients must be finite")
            if lo <= c <= hi:
                raise ValueError(f"{name} Sellmeier set has a pole at {math.sqrt(c):.4g} um")
            # in x = lam^2, n^2 is extreme only at the window ends and where
            # (x - c)^2 = -b / d, so checking those points is exact
            root = math.sqrt(-b / d) if b * d < 0.0 else math.inf
            xs = [x for x in (lo, hi, c - root, c + root) if lo <= x <= hi]
            if not all(0.0 < a + b / (x - c) - d * x < math.inf for x in xs):
                raise ValueError(
                    f"{name} Sellmeier set gives n^2 <= 0 or not finite in the wavelength window")


BBO_EIMERL_1987 = SellmeierSet(
    ordinary=(2.7405, 0.0184, 0.0179, 0.0155),
    extraordinary=(2.3730, 0.0128, 0.0156, 0.0044),
    provenance="Eimerl et al., J. Appl. Phys. 62, 1968 (1987), beta-BaB2O4",
)


@dataclass(frozen=True)
class CrystalConfig:
    """Crystal cut, pump frequency and dispersion data for one solve."""

    cut_angle_deg: float
    pump_frequency_thz: float
    sellmeier: SellmeierSet = BBO_EIMERL_1987

    def __post_init__(self):
        if not 0.0 < self.cut_angle_deg < 90.0:
            raise ValueError("cut angle must lie strictly between 0 and 90 degrees")
        if not self.pump_frequency_thz > 0.0:
            raise ValueError("pump frequency must be positive")
        lam, (lo, hi) = wavelength_um(self.pump_frequency_thz), WAVELENGTH_WINDOW_UM
        if not lo <= lam <= hi:
            raise ValueError(
                f"pump wavelength {lam:.4g} um outside the supported window [{lo}, {hi}] um")


@dataclass(frozen=True, eq=False)
class EmissionCurve:
    """Outside angle versus signal frequency for one polarization of the signal."""

    ray: str  # "ordinary" or "extraordinary"
    freqs: np.ndarray  # THz, strictly increasing; both curves of a solve share it
    angles: np.ndarray  # outside angle in deg at each frequency, NaN where unsolved

    def __post_init__(self):
        if self.freqs.shape != self.angles.shape or not (np.diff(self.freqs) > 0.0).all():
            raise ValueError("a curve needs strictly increasing frequencies, one angle each")

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """The solved (frequency THz, outside angle deg) rows, in frequency order."""
        solved = ~np.isnan(self.angles)
        return tuple(zip(self.freqs[solved].tolist(), self.angles[solved].tolist()))

    @property
    def n_unsolved(self) -> int:
        return int(np.isnan(self.angles).sum())


@dataclass(frozen=True)
class IntersectionResult:
    exists: bool
    frequency_thz: float = math.nan
    outside_angle_deg: float = math.nan
    residual_deg: float = math.nan


def wavelength_um(frequency_thz: float) -> float:
    """Vacuum wavelength in micrometers for a frequency in THz."""
    return SPEED_OF_LIGHT_UM_THZ / frequency_thz


def _sellmeier_index(coef: tuple[float, float, float, float], lam_um):
    """Index from one coefficient set; NaN outside the wavelength window."""
    a, b, c, d = coef
    lo, hi = WAVELENGTH_WINDOW_UM
    n = np.sqrt(a + b / (lam_um * lam_um - c) - d * lam_um * lam_um)
    return np.where((lo <= lam_um) & (lam_um <= hi), n, np.nan)


def _ellipsoid_index(no, ne, theta_rad):
    """Index-ellipsoid index at theta_rad from the optic axis; NaN off [0, pi/2]."""
    n = 1.0 / np.sqrt((np.cos(theta_rad) / no) ** 2 + (np.sin(theta_rad) / ne) ** 2)
    if np.all((0.0 < theta_rad) & (theta_rad < math.pi / 2.0)):
        return n  # no angle on the axis, in the plane or out of range: nothing to replace
    n = np.where(theta_rad == 0.0, no, np.where(theta_rad == math.pi / 2.0, ne, n))
    return np.where((0.0 <= theta_rad) & (theta_rad <= math.pi / 2.0), n, np.nan)


def _extraordinary_index(sellmeier: SellmeierSet, lam_um, theta_rad):
    """Index-ellipsoid index at theta_rad from the optic axis; NaN off the window or [0, pi/2]."""
    return _ellipsoid_index(_sellmeier_index(sellmeier.ordinary, lam_um),
                            _sellmeier_index(sellmeier.extraordinary, lam_um), theta_rad)


def _pump_wavenumber(cfg: CrystalConfig) -> float:
    """Pump wave number in index*THz units (the common 2*pi/c factor cancels)."""
    lam = wavelength_um(cfg.pump_frequency_thz)
    n_p = _extraordinary_index(cfg.sellmeier, lam, math.radians(cfg.cut_angle_deg))
    return float(n_p) * cfg.pump_frequency_thz


def _photons(cfg: CrystalConfig, f_signal: np.ndarray) -> np.ndarray:
    """Rows: signal frequency; ordinary index of signal, idler; extraordinary of signal, idler."""
    lam = wavelength_um(np.stack([f_signal, cfg.pump_frequency_thz - f_signal]))
    return np.vstack([f_signal, _sellmeier_index(cfg.sellmeier.ordinary, lam),
                      _sellmeier_index(cfg.sellmeier.extraordinary, lam)])


def _kinematics(cfg: CrystalConfig, k_p: float, photons, extraordinary: bool, theta_s):
    """Signal index, idler internal angle and idler shell mismatch from ``_photons``; broadcasts.

    With the signal on its shell at ``theta_s``, momentum conservation fixes
    the idler wave vector; the mismatch is its length minus the idler's shell
    wave number at its angle, so a root puts both photons on shell.  NaN
    marks a wavelength or angle outside the dispersion data.
    """
    f_signal, no_s, no_i, ne_s, ne_i = photons
    cut = math.radians(cfg.cut_angle_deg)
    n_s = _ellipsoid_index(no_s, ne_s, cut + theta_s) if extraordinary else no_s
    k_s = n_s * f_signal
    k_i_trans = k_s * np.sin(theta_s)
    k_i_long = k_p - k_s * np.cos(theta_s)
    theta_i = np.arctan2(k_i_trans, k_i_long)
    n_i = no_i if extraordinary else _ellipsoid_index(no_i, ne_i, cut + theta_i)
    return n_s, theta_i, np.hypot(k_i_trans, k_i_long) - n_i * (cfg.pump_frequency_thz - f_signal)


def _brackets(cfg: CrystalConfig, k_p: float, photons, extraordinary: bool):
    """Rows ``a, b, fa, fb``: each row's bracket and its mismatches, NaN where it has none.

    See ``_solve_block``.
    """
    f_signal, no_s, no_i, ne_s, ne_i = photons
    out = np.full((4, f_signal.size), np.nan)
    scan = cfg.pump_frequency_thz - f_signal > 0.0  # rows left to the linear scan
    sure = scan & (no_s * f_signal < k_p * math.cos(_MAX_INTERNAL_ANGLE_RAD))
    sure &= (ne_s < no_s) if extraordinary else (ne_i < no_i)
    rows, ends = np.flatnonzero(sure), _SCAN_ANGLES[[0, -1]]
    v = _kinematics(cfg, k_p, photons[:, rows, None], extraordinary, ends)[2]
    finite = np.isfinite(v).all(axis=1)
    rows, v = rows[finite], v[finite]
    scan[rows] = False
    closed = (v[:, 0] == 0.0) | (v[:, 0] < 0.0) & (v[:, 1] > 0.0)  # v(0) = 0 is a root
    out[:2, rows[closed]], out[2:, rows[closed]] = ends[:, None], v[closed].T

    rows = np.flatnonzero(scan)  # the rows not certified scan linearly
    last = np.full(rows.size, np.nan)  # a NaN never closes, so angle 0 opens no bracket
    for lo in range(0, _SCAN_ANGLES.size, _SCAN_CHUNK):
        if not rows.size:
            break
        v = _kinematics(cfg, k_p, photons[:, rows, None], extraordinary,
                        _SCAN_ANGLES[lo : lo + _SCAN_CHUNK])[2]
        prev = np.concatenate([last[:, None], v[:, :-1]], axis=1)
        nan = np.isnan(v)
        stop = nan | (prev == 0.0) | (np.sign(prev) * np.sign(v) < 0.0)
        col = stop.argmax(axis=1)
        at = np.arange(rows.size), col
        done = stop[at]
        closed = done & ~nan[at]
        far = lo + col[closed]
        out[:, rows[closed]] = (_SCAN_ANGLES[far - 1], _SCAN_ANGLES[far],
                                prev[at][closed], v[at][closed])
        rows, last = rows[~done], v[~done, -1]
    return out


def _solve_block(cfg: CrystalConfig, k_p: float, f: np.ndarray, extraordinary: bool):
    """Signal angle, idler angle (rad) and outside angle (deg) per frequency, NaN if unsolved.

    *Certified rows.*  Over the scan, theta in [0, 10] deg, the idler shell
    mismatch ``v = |k_p - k_s| - n_i f_i`` strictly rises when
    ``no_s f_s < k_p cos 10deg``, the extraordinary photon's ``ne < no``
    and ``v`` is finite at both scan ends.  As the ellipsoid index is NaN
    past 90 deg, a finite ``v`` at 10 deg puts every extraordinary index
    angle, which rises over the scan, at or below 90 deg, where the index
    falls:

    - ordinary signal: ``k_s = no_s f_s`` is fixed and
      ``|k_p - k_s|^2 = k_p^2 + k_s^2 - 2 k_p k_s cos theta`` rises.  The
      derivative of ``tan theta_i = k_s sin theta / (k_p - k_s cos theta)``
      has the sign of ``k_p cos theta - k_s > 0``, so ``theta_i`` rises
      from 0 to ``theta_i(10deg)``, ``n_i`` at ``cut + theta_i`` falls and
      ``n_i f_i`` does not rise.
    - extraordinary signal: ``n_i f_i`` is fixed and
      ``k_s = n_s(cut + theta) f_s <= no_s f_s`` falls, so
      ``d|k_p - k_s|^2/dtheta = 2 k_s' (k_s - k_p cos theta) + 2 k_p k_s sin theta``
      is a sum of two terms >= 0, the second > 0 for theta > 0.

    Every angle between the finite ends gives a finite ``v`` (the indices
    are finite, and each index angle lies between its end values).  So the
    row has at most one root, and its bracket is the whole scan from its two
    end probes when ``v(0) < 0 < v(10deg)``; ``v(0) = 0`` is a root at 0,
    and any other row has none.

    *Other rows: linear scan.*  Rows the indices do not certify (a
    positive-uniaxial set, a cut near 90 deg, a NaN at a scan end) take
    ``_SCAN_CHUNK`` trial angles at a time, carrying each row's last
    mismatch.  A row brackets at the first scan step whose near-end
    mismatch is zero or changes sign by its far end; a NaN up to the far
    end leaves it unsolved.

    *Refinement.*  Every bracket is refined at once by the Illinois
    variant of regula falsi (Dowell & Jarratt, BIT 11, 168, 1971): the
    secant root of the bracket, or its midpoint where that is not strictly
    inside, replaces the end whose mismatch has its sign, and an end kept
    twice running has its mismatch halved.  Signs are compared and
    mismatches never multiplied, so no product can underflow.  A row
    stops when ``|v| <= 2**-53 (k_p + no_s f_s + no_i f_i)``, a sum that
    bounds every wave number in ``v``, when its bracket is at most 2 ulp
    wide, or at a NaN, which leaves it unsolved.  It keeps its iterate of
    least ``|v|``.
    """
    photons = _photons(cfg, f)
    a, b, fa, fb = _brackets(cfg, k_p, photons, extraordinary)
    live = np.flatnonzero(~np.isnan(a))
    photons, a, b, fa, fb = (x[..., live] for x in (photons, a, b, fa, fb))
    f_signal, no_s, no_i = photons[:3]
    tol = 2.0**-53 * (k_p + no_s * f_signal + no_i * (cfg.pump_frequency_thz - f_signal))
    near = np.abs(fa) <= np.abs(fb)  # the latest iterate (x1, f1) starts at the nearer end
    x0, x1, f0, f1 = (np.where(near, p, q) for p, q in ((b, a), (a, b), (fb, fa), (fa, fb)))
    theta_s, v = x1.copy(), f1.copy()  # each row's iterate of least |v|
    ok = np.ones(live.size, dtype=bool)
    rows = np.arange(live.size)
    while True:
        lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
        go = (np.abs(f1) > tol[rows]) & (hi - lo > 2.0 * np.spacing(hi))  # a NaN stops too
        rows, x0, x1, f0, f1, lo, hi = (x[go] for x in (rows, x0, x1, f0, f1, lo, hi))
        if not rows.size:
            break
        t = x1 + (x0 - x1) * (f1 / (f1 - f0))
        t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
        ft = _kinematics(cfg, k_p, photons[:, rows], extraordinary, t)[2]
        ok[rows] &= ~np.isnan(ft)
        better = np.abs(ft) < np.abs(v[rows])
        theta_s[rows[better]], v[rows[better]] = t[better], ft[better]
        flip = (ft < 0.0) != (f1 < 0.0)  # the root lies between x1 and t: x1 is kept
        x0, f0 = np.where(flip, x1, x0), np.where(flip, f1, 0.5 * f0)
        x1, f1 = t, ft
    n_s, theta_i, _ = _kinematics(cfg, k_p, photons, extraordinary, theta_s)
    sin_out = n_s * np.sin(theta_s)
    ok &= np.abs(sin_out) <= 1.0  # total internal reflection at the exit face; NaN fails too
    out = np.full((3, f.size), np.nan)
    out[:, live[ok]] = theta_s[ok], theta_i[ok], np.degrees(np.arcsin(sin_out[ok]))
    return out


def _solve(cfg: CrystalConfig, f_signal: np.ndarray, signal_ray: str) -> np.ndarray:
    """The emission geometry of every frequency, in blocks of ``_BLOCK_ROWS`` rows."""
    if signal_ray not in ("ordinary", "extraordinary"):
        raise ValueError("signal_ray must be 'ordinary' or 'extraordinary'")
    extraordinary = signal_ray == "extraordinary"
    out = np.empty((3, f_signal.size))
    with np.errstate(all="ignore"):  # out-of-window points become NaN and count as unsolved
        k_p = _pump_wavenumber(cfg)
        for lo in range(0, f_signal.size, _BLOCK_ROWS):
            block = f_signal[lo : lo + _BLOCK_ROWS]
            out[:, lo : lo + block.size] = _solve_block(cfg, k_p, block, extraordinary)
    return out


def frequency_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    """The exact sample frequencies emission_curves uses for a window."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return lo + (hi - lo) * np.arange(n_points) / (n_points - 1)


def emission_curves(
    cfg: CrystalConfig, freq_range: tuple[float, float], n_points: int
) -> tuple[EmissionCurve, EmissionCurve]:
    """Sample both emission curves on a shared frequency grid.

    Returns the ordinary-signal curve and the extraordinary-signal curve,
    each solved as one array.  A frequency with no real solution has the
    angle NaN.  Raises :class:`NoSolutionError` when not a single point of
    either curve is solvable.
    """
    lo, hi = freq_range
    pump = cfg.pump_frequency_thz
    if not (pump / 4.0 <= lo < hi <= 3.0 * pump / 4.0):
        raise ValueError("frequency range must lie inside [pump/4, 3*pump/4]")
    freqs = frequency_grid(lo, hi, n_points)
    if not (np.diff(freqs) > 0.0).all():
        raise ValueError(
            f"window [{lo}, {hi}] THz is too narrow for {n_points} distinct frequencies")
    o_curve, e_curve = (EmissionCurve(ray, freqs, _solve(cfg, freqs, ray)[2])
                        for ray in ("ordinary", "extraordinary"))
    if o_curve.n_unsolved == e_curve.n_unsolved == n_points:
        raise NoSolutionError(
            f"no emission geometry solvable anywhere in [{lo}, {hi}] THz "
            f"for cut angle {cfg.cut_angle_deg} deg"
        )
    return o_curve, e_curve


def find_intersection(o_curve: EmissionCurve, e_curve: EmissionCurve) -> IntersectionResult:
    """Locate the crossing of two curves on one frequency grid, if any.

    Over the rows solved on both curves, takes the first whose angle
    difference is zero or changes sign at the next row, and returns the
    exact crossing of the two piecewise-linear interpolants on that
    interval; ``residual_deg`` is their computed angle difference there.
    Absence of a crossing is encoded in the result, not raised.
    """
    if not np.array_equal(o_curve.freqs, e_curve.freqs):
        raise ValueError("curves must share one frequency grid")
    both = np.flatnonzero(np.isfinite(o_curve.angles) & np.isfinite(e_curve.angles))
    d = o_curve.angles[both] - e_curve.angles[both]
    crossing = d == 0.0
    crossing[:-1] |= d[:-1] * d[1:] < 0.0
    if not crossing.any():
        return IntersectionResult(exists=False)
    first = int(np.argmax(crossing))
    rows = both[[first, min(first + 1, both.size - 1)]]  # the last row pairs with itself
    (f1, f2), (o1, o2), (e1, e2) = (a[rows].tolist() for a in
                                    (o_curve.freqs, o_curve.angles, e_curve.angles))
    d1, d2 = o1 - e1, o2 - e2
    if d1 == 0.0:
        return IntersectionResult(True, f1, 0.5 * (o1 + e1), 0.0)
    t = d1 / (d1 - d2)
    o = o1 + t * (o2 - o1)
    e = e1 + t * (e2 - e1)
    return IntersectionResult(True, f1 + t * (f2 - f1), 0.5 * (o + e), abs(o - e))


def bandwidth_error(delta_f_thz: float, l: int, f_rot_thz: float) -> float:
    """Relative error of the rotational frequency tag against source bandwidth.

    The Doppler tag separates the pair by ``2 * l * f_rot``; a source
    bandwidth ``delta_f`` blurs that separation by ``delta_f / (2 l f_rot)``.
    Scaling bandwidth and rotation rate together leaves the result unchanged.
    """
    if not isinstance(l, int) or isinstance(l, bool) or not 1 <= l <= sys.float_info.max:
        raise ValueError("topological charge l must be an integer >= 1 within the float range")
    if not 0.0 < f_rot_thz < math.inf:
        raise ValueError("rotation frequency must be positive and finite")
    error = float(delta_f_thz) / (2.0 * l * float(f_rot_thz))  # Python floats: no numpy warning
    if not 0.0 <= error < math.inf:  # NaN, a negative or infinite bandwidth, or an overflow
        raise ValueError("bandwidth must be non-negative, with a finite relative error")
    return error
