"""Type-II emission geometry for a uniaxial beta-barium borate crystal.

Dispersion comes from a published Sellmeier set of the form
``n^2 = a + b / (lam^2 - c) - d * lam^2`` with the wavelength in micrometers.
The pump propagates extraordinary-polarized at the cut angle; each sampled
signal frequency is solved for the internal emission angle that satisfies
both components of momentum conservation, then converted to the external
angle by Snell refraction at a plane exit face normal to the pump.

Geometry convention (single azimuth, in the plane of the optic axis): the
ordinarily polarized photon of a pair leaves on the side of the pump away
from the optic axis tilt and the extraordinarily polarized photon on the
opposite side, so every extraordinary ray sees the optic axis at
``cut_angle + internal_angle``.  Reported outside angles are unsigned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT_UM_THZ = 299.792458  # c as um * THz

# Supported wavelength window for the shipped dispersion data, micrometers.
WAVELENGTH_WINDOW_UM = (0.3, 1.5)

# Internal emission angles are searched over [0, 10] degrees; down-conversion
# cones in this geometry stay well inside that bracket.
_MAX_INTERNAL_ANGLE_RAD = math.radians(10.0)
_BISECTION_TOL_RAD = 1e-10
_COARSE_SCAN_STEPS = 128


class NoSolutionError(RuntimeError):
    """No sampled frequency produced a solvable emission geometry."""


@dataclass(frozen=True)
class SellmeierSet:
    """Sellmeier coefficients for the ordinary and principal extraordinary index.

    Each coefficient tuple is ``(a, b, c, d)`` in
    ``n^2 = a + b / (lam^2 - c) - d * lam^2`` with ``lam`` in micrometers.
    ``provenance`` names the published source of the numbers.
    """

    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    provenance: str


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


@dataclass(frozen=True)
class EmissionPoint:
    """One solved emission geometry at a single signal frequency."""

    signal_frequency_thz: float
    signal_internal_angle_rad: float
    idler_internal_angle_rad: float
    outside_angle_deg: float


@dataclass(frozen=True)
class EmissionCurve:
    """Outside angle versus signal frequency for one polarization of the signal."""

    ray: str  # "ordinary" or "extraordinary"
    samples: tuple[tuple[float, float], ...]  # (frequency THz, outside angle deg)
    n_unsolved: int = 0

    def __post_init__(self):
        freqs = [f for f, _ in self.samples]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError("curve frequencies must be strictly increasing")


@dataclass(frozen=True)
class IntersectionResult:
    exists: bool
    frequency_thz: float = math.nan
    outside_angle_deg: float = math.nan
    residual_deg: float = math.nan


def wavelength_um(frequency_thz: float) -> float:
    """Vacuum wavelength in micrometers for a frequency in THz."""
    return SPEED_OF_LIGHT_UM_THZ / frequency_thz


def _check_window(lam_um: float) -> None:
    lo, hi = WAVELENGTH_WINDOW_UM
    if not lo <= lam_um <= hi:
        raise ValueError(
            f"wavelength {lam_um:.4f} um outside the supported window [{lo}, {hi}] um"
        )


def _index_from_coefficients(coef: tuple[float, float, float, float], lam_um: float) -> float:
    a, b, c, d = coef
    return math.sqrt(a + b / (lam_um * lam_um - c) - d * lam_um * lam_um)


def n_ordinary(lam_um: float, sellmeier: SellmeierSet = BBO_EIMERL_1987) -> float:
    """Ordinary refractive index at a wavelength inside the supported window."""
    _check_window(lam_um)
    return _index_from_coefficients(sellmeier.ordinary, lam_um)


def n_principal_extraordinary(lam_um: float, sellmeier: SellmeierSet = BBO_EIMERL_1987) -> float:
    """Extraordinary index for propagation perpendicular to the optic axis."""
    _check_window(lam_um)
    return _index_from_coefficients(sellmeier.extraordinary, lam_um)


def n_extraordinary(
    lam_um: float, theta_rad: float, sellmeier: SellmeierSet = BBO_EIMERL_1987
) -> float:
    """Angle-tuned extraordinary index from the index ellipsoid.

    ``theta_rad`` is the propagation angle relative to the optic axis;
    the result interpolates continuously between the ordinary index at 0
    and the principal extraordinary index at pi/2.
    """
    if not 0.0 <= theta_rad <= math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2]")
    if theta_rad == 0.0:
        return n_ordinary(lam_um, sellmeier)
    if theta_rad == math.pi / 2.0:
        return n_principal_extraordinary(lam_um, sellmeier)
    no = n_ordinary(lam_um, sellmeier)
    ne = n_principal_extraordinary(lam_um, sellmeier)
    ct = math.cos(theta_rad)
    st = math.sin(theta_rad)
    return 1.0 / math.sqrt((ct / no) ** 2 + (st / ne) ** 2)


def _pump_wavenumber(cfg: CrystalConfig) -> float:
    """Pump wave number in index*THz units (the common 2*pi/c factor cancels)."""
    lam_p = wavelength_um(cfg.pump_frequency_thz)
    n_p = n_extraordinary(lam_p, math.radians(cfg.cut_angle_deg), cfg.sellmeier)
    return n_p * cfg.pump_frequency_thz


def _index(cfg: CrystalConfig, f_thz: float, extraordinary: bool, theta: float) -> float:
    """Index of one photon: extraordinary at ``cut + theta`` from the optic axis, or ordinary."""
    lam = wavelength_um(f_thz)
    if extraordinary:
        return n_extraordinary(lam, math.radians(cfg.cut_angle_deg) + theta, cfg.sellmeier)
    return n_ordinary(lam, cfg.sellmeier)


def _idler_wavevector(
    cfg: CrystalConfig, f_signal: float, signal_ray: str, theta_s: float
) -> tuple[float, float, float]:
    """Signal index, then the idler's transverse and longitudinal wave number that
    momentum conservation requires."""
    n_s = _index(cfg, f_signal, signal_ray != "ordinary", theta_s)
    k_s = n_s * f_signal
    return n_s, k_s * math.sin(theta_s), _pump_wavenumber(cfg) - k_s * math.cos(theta_s)


def _shell_mismatch(cfg: CrystalConfig, f_signal: float, signal_ray: str, theta_s: float) -> float:
    """Idler dispersion-shell mismatch for a trial signal emission angle.

    The signal is placed on its own dispersion shell at ``theta_s``; the
    idler wave vector is whatever momentum conservation then requires.  The
    returned value is the difference between that required wave number and
    the one the idler's dispersion allows at the resulting angle; a root
    means both photons sit on shell with momentum exactly conserved.
    """
    f_idler = cfg.pump_frequency_thz - f_signal
    _, k_i_trans, k_i_long = _idler_wavevector(cfg, f_signal, signal_ray, theta_s)
    theta_i = math.atan2(k_i_trans, k_i_long)
    n_i = _index(cfg, f_idler, signal_ray == "ordinary", theta_i)
    return math.hypot(k_i_trans, k_i_long) - n_i * f_idler


def solve_emission_point(
    cfg: CrystalConfig, f_signal_thz: float, signal_ray: str
) -> EmissionPoint | None:
    """Solve one signal frequency; None when no real geometry exists.

    Brackets the single sign change of the shell mismatch over internal
    angles in [0, 10] degrees, then bisects to 1e-10 rad.
    """
    if signal_ray not in ("ordinary", "extraordinary"):
        raise ValueError("signal_ray must be 'ordinary' or 'extraordinary'")
    f_idler = cfg.pump_frequency_thz - f_signal_thz
    if f_idler <= 0.0:
        return None
    try:
        mism = lambda t: _shell_mismatch(cfg, f_signal_thz, signal_ray, t)
        lo, hi = 0.0, _MAX_INTERNAL_ANGLE_RAD
        prev_t, prev_v = lo, mism(lo)
        bracket = None
        for j in range(1, _COARSE_SCAN_STEPS + 1):
            t = hi * j / _COARSE_SCAN_STEPS
            v = mism(t)
            if prev_v == 0.0:
                bracket = (prev_t, prev_t)
                break
            if prev_v * v < 0.0:
                bracket = (prev_t, t)
                break
            prev_t, prev_v = t, v
        if bracket is None:
            return None
        a, b = bracket
        fa = mism(a)
        while b - a > _BISECTION_TOL_RAD:
            m = 0.5 * (a + b)
            fm = mism(m)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        theta_s = 0.5 * (a + b)
        n_s, k_i_trans, k_i_long = _idler_wavevector(cfg, f_signal_thz, signal_ray, theta_s)
        sin_out = n_s * math.sin(theta_s)
        if abs(sin_out) > 1.0:
            return None
        return EmissionPoint(
            signal_frequency_thz=f_signal_thz,
            signal_internal_angle_rad=theta_s,
            idler_internal_angle_rad=math.atan2(k_i_trans, k_i_long),
            outside_angle_deg=math.degrees(math.asin(sin_out)),
        )
    except ValueError:
        # wavelength left the dispersion window; treat as unsolvable
        return None


def momentum_residuals(
    cfg: CrystalConfig, point: EmissionPoint, signal_ray: str
) -> tuple[float, float]:
    """Momentum-conservation residuals, relative to the pump wave number.

    Reconstructs both photons strictly on their dispersion shells at the
    solved angles and reports the transverse and longitudinal leftovers.
    """
    f_s = point.signal_frequency_thz
    f_i = cfg.pump_frequency_thz - f_s
    ts, ti = point.signal_internal_angle_rad, point.idler_internal_angle_rad
    k_s = _index(cfg, f_s, signal_ray != "ordinary", ts) * f_s
    k_i = _index(cfg, f_i, signal_ray == "ordinary", ti) * f_i
    k_p = _pump_wavenumber(cfg)
    trans = k_s * math.sin(ts) - k_i * math.sin(ti)
    longi = k_p - k_s * math.cos(ts) - k_i * math.cos(ti)
    return abs(trans) / k_p, abs(longi) / k_p


def frequency_grid(lo: float, hi: float, n_points: int) -> list[float]:
    """The exact sample frequencies emission_curves uses for a window."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return [lo + (hi - lo) * i / (n_points - 1) for i in range(n_points)]


def emission_curves(
    cfg: CrystalConfig, freq_range: tuple[float, float], n_points: int
) -> tuple[EmissionCurve, EmissionCurve]:
    """Sample both emission curves on a shared frequency grid.

    Returns the ordinary-signal curve and the extraordinary-signal curve.
    Frequencies with no real solution are omitted from the curve and counted
    in ``n_unsolved``.  Raises :class:`NoSolutionError` when not a single
    point of either curve is solvable.
    """
    lo, hi = freq_range
    pump = cfg.pump_frequency_thz
    if not (pump / 4.0 <= lo < hi <= 3.0 * pump / 4.0):
        raise ValueError("frequency range must lie inside [pump/4, 3*pump/4]")
    freqs = frequency_grid(lo, hi, n_points)
    curves = []
    for ray in ("ordinary", "extraordinary"):
        samples = []
        failed = 0
        for f in freqs:
            point = solve_emission_point(cfg, f, ray)
            if point is None:
                failed += 1
            else:
                samples.append((f, point.outside_angle_deg))
        curves.append(EmissionCurve(ray=ray, samples=tuple(samples), n_unsolved=failed))
    o_curve, e_curve = curves
    if not o_curve.samples and not e_curve.samples:
        raise NoSolutionError(
            f"no emission geometry solvable anywhere in [{lo}, {hi}] THz "
            f"for cut angle {cfg.cut_angle_deg} deg"
        )
    return o_curve, e_curve


_INTERSECTION_TOL_DEG = 1e-6
_FREQ_MATCH_TOL_THZ = 1e-9


def find_intersection(o_curve: EmissionCurve, e_curve: EmissionCurve) -> IntersectionResult:
    """Locate the crossing of the two sampled curves, if any.

    Scans the angle difference at shared frequencies for a sign change and
    refines it by bisection on the piecewise-linear interpolants until the
    interpolated angle difference drops below 1e-6 degrees.  Absence of a
    crossing is encoded in the result, not raised.
    """
    o_map = list(o_curve.samples)
    e_map = list(e_curve.samples)
    common: list[tuple[float, float, float]] = []
    i = j = 0
    while i < len(o_map) and j < len(e_map):
        fo, ao = o_map[i]
        fe, ae = e_map[j]
        if abs(fo - fe) <= _FREQ_MATCH_TOL_THZ:
            common.append((fo, ao, ae))
            i += 1
            j += 1
        elif fo < fe:
            i += 1
        else:
            j += 1
    if len(common) < 2:
        return IntersectionResult(exists=False)

    for (f1, o1, e1), (f2, o2, e2) in zip(common, common[1:]):
        d1 = o1 - e1
        d2 = o2 - e2
        if d1 == 0.0:
            return IntersectionResult(True, f1, 0.5 * (o1 + e1), 0.0)
        if d1 * d2 >= 0.0:
            continue

        def diff(f: float) -> tuple[float, float]:
            t = (f - f1) / (f2 - f1)
            o = o1 + t * (o2 - o1)
            e = e1 + t * (e2 - e1)
            return o - e, 0.5 * (o + e)

        a, b = f1, f2
        da = d1
        mid, dm, angle = a, da, o1
        for _ in range(200):
            mid = 0.5 * (a + b)
            dm, angle = diff(mid)
            if abs(dm) < _INTERSECTION_TOL_DEG:
                break
            if da * dm <= 0.0:
                b = mid
            else:
                a, da = mid, dm
        return IntersectionResult(True, mid, angle, abs(dm))
    return IntersectionResult(exists=False)


def bandwidth_error(delta_f_thz: float, l: int, f_rot_thz: float) -> float:
    """Relative error of the rotational frequency tag against source bandwidth.

    The Doppler tag separates the pair by ``2 * l * f_rot``; a source
    bandwidth ``delta_f`` blurs that separation by ``delta_f / (2 l f_rot)``.
    Scaling bandwidth and rotation rate together leaves the result unchanged.
    """
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise ValueError("topological charge l must be an integer >= 1")
    if not f_rot_thz > 0.0:
        raise ValueError("rotation frequency must be positive")
    if delta_f_thz < 0.0:
        raise ValueError("bandwidth must be non-negative")
    return delta_f_thz / (2.0 * l * f_rot_thz)
