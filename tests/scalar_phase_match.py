"""Scalar reference for the emission-angle solve: one frequency at a time.

A plain-Python statement of the problem ``hombeat.phase_match`` solves on
whole arrays: a 128-step scan of internal angles in [0, 10] degrees for the
first sign change of the idler shell mismatch, then bisection by comparing
signs until no float lies between the ends, returning the end of least
``|mismatch|``: the float64 root, up to the mismatch's own rounding.  A
wavelength or angle the dispersion data does not cover raises, which leaves
the frequency unsolved.  Used only to check the array solve.
"""

import math

from hombeat.phase_match import SPEED_OF_LIGHT_UM_THZ, WAVELENGTH_WINDOW_UM

MAX_ANGLE_RAD = math.radians(10.0)
STEPS = 128


def sellmeier_index(coef, lam):
    lo, hi = WAVELENGTH_WINDOW_UM
    if not lo <= lam <= hi:
        raise ValueError("wavelength outside the window")
    a, b, c, d = coef
    return math.sqrt(a + b / (lam * lam - c) - d * lam * lam)


def extraordinary_index(sellmeier, lam, theta):
    if not 0.0 <= theta <= math.pi / 2.0:
        raise ValueError("theta outside [0, pi/2]")
    if theta == 0.0:
        return sellmeier_index(sellmeier.ordinary, lam)
    if theta == math.pi / 2.0:
        return sellmeier_index(sellmeier.extraordinary, lam)
    no = sellmeier_index(sellmeier.ordinary, lam)
    ne = sellmeier_index(sellmeier.extraordinary, lam)
    return 1.0 / math.sqrt((math.cos(theta) / no) ** 2 + (math.sin(theta) / ne) ** 2)


def index(cfg, f, extraordinary, theta):
    lam = SPEED_OF_LIGHT_UM_THZ / f
    if extraordinary:
        return extraordinary_index(cfg.sellmeier, lam, math.radians(cfg.cut_angle_deg) + theta)
    return sellmeier_index(cfg.sellmeier.ordinary, lam)


def idler_wavevector(cfg, f, extraordinary, theta):
    """Signal index, then the idler's transverse and longitudinal wave number."""
    k_p = index(cfg, cfg.pump_frequency_thz, True, 0.0) * cfg.pump_frequency_thz
    n_s = index(cfg, f, extraordinary, theta)
    k_s = n_s * f
    return n_s, k_s * math.sin(theta), k_p - k_s * math.cos(theta)


def mismatch(cfg, f, extraordinary, theta):
    f_idler = cfg.pump_frequency_thz - f
    _, trans, longi = idler_wavevector(cfg, f, extraordinary, theta)
    n_i = index(cfg, f_idler, not extraordinary, math.atan2(trans, longi))
    return math.hypot(trans, longi) - n_i * f_idler


def solve(cfg, f, ray):
    """(signal angle rad, idler angle rad, outside angle deg), or None if unsolved."""
    extraordinary = ray == "extraordinary"
    if cfg.pump_frequency_thz - f <= 0.0:
        return None
    try:
        prev_t, prev_v = 0.0, mismatch(cfg, f, extraordinary, 0.0)
        bracket = None
        for j in range(1, STEPS + 1):
            t = MAX_ANGLE_RAD * j / STEPS
            v = mismatch(cfg, f, extraordinary, t)
            if prev_v == 0.0 or prev_v < 0.0 < v or v < 0.0 < prev_v:
                bracket = (prev_t, t, prev_v, v)
                break
            prev_t, prev_v = t, v
        if bracket is None:
            return None
        a, b, fa, fb = bracket
        while fa != 0.0 and fb != 0.0 and a < (m := 0.5 * (a + b)) < b:
            fm = mismatch(cfg, f, extraordinary, m)
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b, fb = m, fm
        theta = a if abs(fa) <= abs(fb) else b
        n_s, trans, longi = idler_wavevector(cfg, f, extraordinary, theta)
        sin_out = n_s * math.sin(theta)
        if abs(sin_out) > 1.0:
            return None
        return theta, math.atan2(trans, longi), math.degrees(math.asin(sin_out))
    except ValueError:
        return None
