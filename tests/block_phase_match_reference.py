"""Whole-scan reference for the emission-angle solve: every trial angle of every row.

The block solve ``hombeat.phase_match`` used before its scan stopped at the
bracket: each block of 256 frequencies evaluates the idler shell mismatch at
all 129 trial angles, with the dispersion indices recomputed on every call,
takes each row's first bracketing step, then bisects the live rows by
gathering and scattering them.  Its arithmetic is the solver's operation for
operation, so the two must agree bit for bit.  Used only to check the solver.
"""

import math

import numpy as np

from hombeat.phase_match import SPEED_OF_LIGHT_UM_THZ, WAVELENGTH_WINDOW_UM

MAX_ANGLE_RAD = math.radians(10.0)
TOL_RAD = 1e-10
STEPS = 128
SCAN_ANGLES = MAX_ANGLE_RAD * np.arange(STEPS + 1) / STEPS
BLOCK_ROWS = 256


def sellmeier_index(coef, lam_um):
    a, b, c, d = coef
    lo, hi = WAVELENGTH_WINDOW_UM
    n = np.sqrt(a + b / (lam_um * lam_um - c) - d * lam_um * lam_um)
    return np.where((lo <= lam_um) & (lam_um <= hi), n, np.nan)


def extraordinary_index(sellmeier, lam_um, theta_rad):
    no = sellmeier_index(sellmeier.ordinary, lam_um)
    ne = sellmeier_index(sellmeier.extraordinary, lam_um)
    n = 1.0 / np.sqrt((np.cos(theta_rad) / no) ** 2 + (np.sin(theta_rad) / ne) ** 2)
    n = np.where(theta_rad == 0.0, no, np.where(theta_rad == math.pi / 2.0, ne, n))
    return np.where((0.0 <= theta_rad) & (theta_rad <= math.pi / 2.0), n, np.nan)


def index(cfg, f_thz, extraordinary, theta):
    lam = SPEED_OF_LIGHT_UM_THZ / f_thz
    if extraordinary:
        return extraordinary_index(cfg.sellmeier, lam, math.radians(cfg.cut_angle_deg) + theta)
    return sellmeier_index(cfg.sellmeier.ordinary, lam)


def kinematics(cfg, k_p, f_signal, extraordinary, theta_s):
    f_idler = cfg.pump_frequency_thz - f_signal
    n_s = index(cfg, f_signal, extraordinary, theta_s)
    k_s = n_s * f_signal
    k_i_trans = k_s * np.sin(theta_s)
    k_i_long = k_p - k_s * np.cos(theta_s)
    theta_i = np.arctan2(k_i_trans, k_i_long)
    n_i = index(cfg, f_idler, not extraordinary, theta_i)
    return n_s, theta_i, np.hypot(k_i_trans, k_i_long) - n_i * f_idler


def solve_block(cfg, k_p, f, extraordinary):
    v = kinematics(cfg, k_p, f[:, None], extraordinary, SCAN_ANGLES)[2]
    prev = v[:, :-1]
    closes = (prev == 0.0) | (prev * v[:, 1:] < 0.0)
    step = closes.argmax(axis=1)
    nan_so_far = np.logical_or.accumulate(np.isnan(v), axis=1)
    live = np.flatnonzero(closes.any(axis=1) & ~nan_so_far[np.arange(f.size), step + 1]
                          & (cfg.pump_frequency_thz - f > 0.0))
    step, f = step[live], f[live]
    fa = prev[live, step]
    a = SCAN_ANGLES[step]
    b = np.where(fa == 0.0, a, SCAN_ANGLES[step + 1])
    ok = np.ones(live.size, dtype=bool)
    while (rows := np.flatnonzero(b - a > TOL_RAD)).size:
        m = 0.5 * (a[rows] + b[rows])
        fm = kinematics(cfg, k_p, f[rows], extraordinary, m)[2]
        ok[rows] &= ~np.isnan(fm)
        lower = fa[rows] * fm <= 0.0
        b[rows] = np.where(lower, m, b[rows])
        a[rows] = np.where(lower, a[rows], m)
        fa[rows] = np.where(lower, fa[rows], fm)
    theta_s = 0.5 * (a + b)
    n_s, theta_i, _ = kinematics(cfg, k_p, f, extraordinary, theta_s)
    sin_out = n_s * np.sin(theta_s)
    ok &= np.abs(sin_out) <= 1.0
    out = np.full((3, v.shape[0]), np.nan)
    out[:, live[ok]] = theta_s[ok], theta_i[ok], np.degrees(np.arcsin(sin_out[ok]))
    return out


def solve(cfg, f_signal, signal_ray):
    """Signal angle, idler angle (rad) and outside angle (deg) per frequency, NaN if unsolved."""
    extraordinary = signal_ray == "extraordinary"
    out = np.empty((3, f_signal.size))
    with np.errstate(all="ignore"):
        k_p = float(index(cfg, cfg.pump_frequency_thz, True, 0.0)) * cfg.pump_frequency_thz
        for lo in range(0, f_signal.size, BLOCK_ROWS):
            block = f_signal[lo : lo + BLOCK_ROWS]
            out[:, lo : lo + block.size] = solve_block(cfg, k_p, block, extraordinary)
    return out
