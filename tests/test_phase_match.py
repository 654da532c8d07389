import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombeat import phase_match
from hombeat.phase_match import (
    BBO_EIMERL_1987,
    SPEED_OF_LIGHT_UM_THZ,
    WAVELENGTH_WINDOW_UM,
    CrystalConfig,
    EmissionCurve,
    IntersectionResult,
    NoSolutionError,
    SellmeierSet,
    _extraordinary_index,
    _sellmeier_index,
    bandwidth_error,
    emission_curves,
    find_intersection,
    wavelength_um,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import block_phase_match_reference  # noqa: E402
import scalar_phase_match  # noqa: E402

# Frozen from the published coefficient set, evaluated independently with
# 30-digit arithmetic.
N_O_405 = 1.69229938305627
N_O_810 = 1.66107240583709
N_E_PRINCIPAL_405 = 1.56796592155747

PUMP_THZ = 740.88
WINDOW = (330.0, 410.0)


def config(cut_deg):
    return CrystalConfig(cut_angle_deg=cut_deg, pump_frequency_thz=PUMP_THZ)


# ---------------------------------------------------------------------------
# dispersion


def n_ordinary(lam):
    return float(_sellmeier_index(BBO_EIMERL_1987.ordinary, lam))


def n_principal_extraordinary(lam):
    return float(_sellmeier_index(BBO_EIMERL_1987.extraordinary, lam))


def n_extraordinary(lam, theta):
    return float(_extraordinary_index(BBO_EIMERL_1987, lam, theta))


def test_ordinary_index_frozen_values():
    assert n_ordinary(0.405) == pytest.approx(N_O_405, abs=1e-12)
    assert n_ordinary(0.81) == pytest.approx(N_O_810, abs=1e-12)
    # coarse sanity windows
    assert n_ordinary(0.405) == pytest.approx(1.69, abs=0.01)
    assert n_ordinary(0.81) == pytest.approx(1.66, abs=0.01)


def test_ordinary_index_normal_dispersion():
    lams = np.array([0.4 + 0.6 * i / 200 for i in range(201)])
    values = _sellmeier_index(BBO_EIMERL_1987.ordinary, lams)
    assert np.all(values[:-1] > values[1:])


def test_index_window_enforced():
    # the array path every solve uses answers NaN outside the window
    lo, hi = WAVELENGTH_WINDOW_UM
    lams = np.array([0.2, np.nextafter(lo, 0.0), lo, 0.8, hi, np.nextafter(hi, 2.0), 1.6])
    outside = np.array([True, True, False, False, False, True, True])
    for coef in (BBO_EIMERL_1987.ordinary, BBO_EIMERL_1987.extraordinary):
        assert np.array_equal(np.isnan(_sellmeier_index(coef, lams)), outside)
    assert np.array_equal(np.isnan(_extraordinary_index(BBO_EIMERL_1987, lams, 0.5)), outside)


def test_extraordinary_index_endpoints():
    lam = 0.405
    assert n_extraordinary(lam, 0.0) == n_ordinary(lam)
    assert n_extraordinary(lam, math.pi / 2.0) == pytest.approx(
        n_principal_extraordinary(lam), abs=1e-15
    )
    assert n_principal_extraordinary(lam) == pytest.approx(N_E_PRINCIPAL_405, abs=1e-12)


def test_extraordinary_index_at_45_degrees_bracketed():
    lam = 0.405
    value = n_extraordinary(lam, math.radians(45.0))
    assert n_principal_extraordinary(lam) < value < n_ordinary(lam)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(min_value=0.35, max_value=1.4))
def test_property_extraordinary_index_monotone_in_angle(lam):
    thetas = np.array([math.pi / 2.0 * i / 64 for i in range(65)])
    values = _extraordinary_index(BBO_EIMERL_1987, lam, thetas)
    assert np.all(values[:-1] >= values[1:])
    assert values[0] == pytest.approx(n_ordinary(lam), abs=1e-15)
    assert values[-1] == pytest.approx(n_principal_extraordinary(lam), abs=1e-15)


def test_angle_out_of_range_rejected():
    # NaN off [0, pi/2]
    thetas = np.array([-0.1, -1e-300, 0.0, 1.0, math.pi / 2.0, np.nextafter(math.pi / 2.0, 4.0),
                       math.pi])
    values = _extraordinary_index(BBO_EIMERL_1987, 0.405, thetas)
    assert np.array_equal(np.isnan(values), [True, True, False, False, False, True, True])


def test_wavelength_conversion():
    assert wavelength_um(370.44) == pytest.approx(0.80928, abs=1e-4)


KATO_1986 = ((2.7359, 0.01878, 0.01822, 0.01354), (2.3753, 0.01224, 0.01667, 0.01516))
# ne > no at every wavelength, so no row's mismatch is certified monotone and
# every row takes the linear scan; indices that rise with wavelength let it phase-match
POSITIVE_UNIAXIAL = SellmeierSet((2.40, 0.0, 0.0, -0.05), (2.45, 0.0, 0.0, -0.05),
                                 provenance="synthetic positive uniaxial")


def test_sellmeier_sets_with_a_real_index_load():
    assert SellmeierSet(*KATO_1986, provenance="Kato 1986").ordinary == KATO_1986[0]
    assert BBO_EIMERL_1987.extraordinary == (2.3730, 0.0128, 0.0156, 0.0044)
    # n^2 = a + 1/lam^2 + lam^2 dips to a + 2 at lam = 1 um: 0.1 here
    SellmeierSet(KATO_1986[0], (-1.9, 1.0, 0.0, -1.0), provenance="interior minimum")


# poles and NaN coefficients are covered through the CLI in test_cli.py
@pytest.mark.parametrize(
    "extraordinary",
    [
        (2.3753, 0.01224, 0.01667, math.inf),
        (0.5, 0.01224, 0.01667, 0.5),  # n^2 < 0 at the long end of the window
        (-2.05, 1.0, 0.0, -1.0),  # n^2 > 0 at both ends, -0.05 at lam = 1 um
    ],
)
def test_sellmeier_set_without_a_real_index_rejected(extraordinary):
    with pytest.raises(ValueError):
        SellmeierSet(KATO_1986[0], extraordinary, provenance="bad")


# ---------------------------------------------------------------------------
# emission curves


def test_cut_40_curves_exist_but_never_cross():
    o_curve, e_curve = emission_curves(config(40.0), WINDOW, 401)
    assert o_curve.samples and e_curve.samples
    result = find_intersection(o_curve, e_curve)
    assert not result.exists


@pytest.mark.parametrize("cut,expected", [(45.0, 370.44), (50.0, 370.32)])
def test_intersections_near_reported_frequencies(cut, expected):
    o_curve, e_curve = emission_curves(config(cut), WINDOW, 401)
    result = find_intersection(o_curve, e_curve)
    assert result.exists
    assert result.frequency_thz == pytest.approx(expected, abs=2.0)
    assert result.residual_deg <= 1e-6


def test_intersection_stable_under_refinement():
    coarse_o, coarse_e = emission_curves(config(45.0), WINDOW, 401)
    fine_o, fine_e = emission_curves(config(45.0), WINDOW, 801)
    coarse = find_intersection(coarse_o, coarse_e)
    fine = find_intersection(fine_o, fine_e)
    assert abs(coarse.frequency_thz - fine.frequency_thz) < 0.01


def test_curves_are_continuous():
    for cut in (45.0, 50.0):
        o_curve, e_curve = emission_curves(config(cut), WINDOW, 401)
        for curve in (o_curve, e_curve):
            angles = [a for _, a in curve.samples]
            jumps = [abs(b - a) for a, b in zip(angles, angles[1:])]
            assert max(jumps) < 5.0


def test_momentum_residuals_small():
    # both photons rebuilt on their dispersion shells at the solved internal angles
    cfg = config(45.0)
    index = scalar_phase_match.index
    freqs = np.array([355.0, 370.44, 385.0])
    k_p = index(cfg, PUMP_THZ, True, 0.0) * PUMP_THZ
    for ray in ("ordinary", "extraordinary"):
        thetas_s, thetas_i, _ = phase_match._solve(cfg, freqs, ray)
        for f_s, ts, ti in zip(freqs.tolist(), thetas_s.tolist(), thetas_i.tolist()):
            f_i = PUMP_THZ - f_s
            k_s = index(cfg, f_s, ray == "extraordinary", ts) * f_s
            k_i = index(cfg, f_i, ray == "ordinary", ti) * f_i
            assert abs(k_s * math.sin(ts) - k_i * math.sin(ti)) / k_p < 1e-9
            assert abs(k_p - k_s * math.cos(ts) - k_i * math.cos(ti)) / k_p < 1e-9


def test_emission_curves_validation():
    with pytest.raises(ValueError):
        emission_curves(config(45.0), (100.0, 410.0), 101)  # below pump/4
    with pytest.raises(ValueError):
        emission_curves(config(45.0), (330.0, 410.0), 1)


def test_no_solution_raises():
    # at 40 degrees nothing phase-matches near degeneracy
    with pytest.raises(NoSolutionError):
        emission_curves(config(40.0), (365.0, 376.0), 51)


def test_unsolved_points_are_counted():
    o_curve, e_curve = emission_curves(config(40.0), WINDOW, 201)
    assert o_curve.n_unsolved > 0
    assert e_curve.n_unsolved > 0
    assert len(o_curve.samples) + o_curve.n_unsolved == 201
    assert [f for f, _ in o_curve.samples] == o_curve.freqs[~np.isnan(o_curve.angles)].tolist()


def test_array_solve_matches_scalar_reference(monkeypatch):
    # small blocks, so each call spans several blocks and a ragged last one
    monkeypatch.setattr(phase_match, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(20250601)
    cuts = [41.0, 60.0, 85.0, 89.0, *rng.uniform(40.0, 50.0, 4).tolist()]
    solved = unsolved = 0
    for cut in cuts:
        cfg = config(cut)
        for lo, hi in (WINDOW, (200.0, 540.0)):
            # the pump frequency leaves no idler photon: unsolved
            freqs = np.concatenate([[lo, hi, PUMP_THZ], rng.uniform(lo, hi, 18)])
            for ray in ("ordinary", "extraordinary"):
                got = phase_match._solve(cfg, freqs, ray)
                assert np.isnan(got[:, 2]).all()
                for f, row in zip(freqs.tolist(), got.T):
                    want = scalar_phase_match.solve(cfg, f, ray)
                    if want is None:
                        assert np.isnan(row).all(), (cut, f, ray)
                        unsolved += 1
                    else:
                        assert [f"{v:.12g}" for v in row] == [f"{v:.12g}" for v in want]
                        solved += 1
    assert solved > 100 and unsolved > 100
    with pytest.raises(ValueError):
        phase_match._solve(config(45.0), freqs, "circular")


@pytest.mark.parametrize("chunk", [1, 5, 128])
def test_chunked_scan_is_bit_identical_to_the_whole_scan(monkeypatch, chunk):
    # chunks of 1 and 5 put brackets on chunk boundaries, where the carried
    # column closes them; 128 leaves only the last angle to a second chunk
    monkeypatch.setattr(phase_match, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(phase_match, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(20261018)
    kato = SellmeierSet(*KATO_1986, provenance="Kato 1986")
    cuts = [40.0, 44.5, 85.0, 89.0, *rng.uniform(40.0, 89.0, 4).tolist()]
    solved = unsolved = 0
    for cut in cuts:
        for sellmeier in (BBO_EIMERL_1987, kato, POSITIVE_UNIAXIAL):
            cfg = CrystalConfig(cut, PUMP_THZ, sellmeier)
            for lo, hi in (WINDOW, (200.0, 540.0)):
                freqs = np.concatenate([[lo, hi, PUMP_THZ], rng.uniform(lo, hi, 18)])
                for ray in ("ordinary", "extraordinary"):
                    got = phase_match._solve(cfg, freqs, ray)
                    want = block_phase_match_reference.solve(cfg, freqs, ray)
                    assert np.array_equal(got, want, equal_nan=True), (cut, lo, ray)
                    solved += int(np.isfinite(got[2]).sum())
                    unsolved += int(np.isnan(got[2]).sum())
    assert solved > 200 and unsolved > 200


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
       ends=st.lists(st.floats(PUMP_THZ / 4.0, 3.0 * PUMP_THZ / 4.0), min_size=2, max_size=2,
                     unique=True).map(sorted),
       sellmeier=st.sampled_from([BBO_EIMERL_1987, SellmeierSet(*KATO_1986, provenance="Kato"),
                                  POSITIVE_UNIAXIAL]))
def test_property_solve_is_bit_identical_to_the_whole_scan(cut, ends, sellmeier):
    # certified rows take the binary search, the rest the chunked scan: both give the same bits
    cfg = CrystalConfig(cut, PUMP_THZ, sellmeier)
    freqs = phase_match.frequency_grid(*ends, 41)
    for ray in ("ordinary", "extraordinary"):
        got = phase_match._solve(cfg, freqs, ray)
        want = block_phase_match_reference.solve(cfg, freqs, ray)
        assert np.array_equal(got, want, equal_nan=True), ray


def _table_kinematics(offsets):
    """A stand-in for ``_kinematics``: row r's mismatch at scan angle j is ``j - offsets[r]``.

    Each row's signal frequency is its row number; the idler angle is 0.
    """
    def kinematics(cfg, k_p, photons, extraordinary, theta_s):
        j = np.rint(theta_s / phase_match._SCAN_ANGLES[1])
        v = j - np.asarray(offsets)[photons[0].astype(int)]
        return np.ones_like(v), np.zeros_like(v), v
    return kinematics


# offset: the scan's bracketing step (-1: none) and its near-end mismatch
_EXACT_ZERO_RULES = [
    (0.0, 0, 0.0),  # v_0 = 0: step 0
    (0.5, 0, -0.5),  # v_1 > 0: the step before it
    (5.0, 5, 0.0),  # v_5 = 0: its own step
    (4.5, 4, -0.5),
    (127.0, 127, 0.0),
    (127.5, 127, -0.5),
    (128.0, -1, None),  # v_128 = 0 has no step after it
    (-1.0, -1, None),  # v_0 > 0
    (128.5, -1, None),  # v_128 < 0
]


@pytest.mark.parametrize("certified", [True, False])
@pytest.mark.parametrize("extraordinary", [False, True])
def test_brackets_follow_the_scans_exact_zero_rules(monkeypatch, certified, extraordinary):
    offsets, steps, near = zip(*_EXACT_ZERO_RULES)
    monkeypatch.setattr(phase_match, "_kinematics", _table_kinematics(offsets))
    rows = np.arange(len(offsets), dtype=float)
    # no < ne on both photons certifies no row, so the scan must apply the same rules
    ne = 1.5 if certified else 2.5
    photons = np.stack([rows, *np.full((2, rows.size), 2.0), *np.full((2, rows.size), ne)])
    step, fa = phase_match._brackets(config(45.0), 1e3, photons, extraordinary)
    assert step.tolist() == list(steps)
    closed = step >= 0
    assert fa[closed].tolist() == [v for v in near if v is not None]


def test_certified_rows_take_at_most_12_scan_stage_evaluations(monkeypatch):
    # at cut 41.54 deg every Eimerl row is certified: two end probes and 7 bisection
    # probes of per-row vectors, where the chunked scan takes about 75 a row
    shapes = []  # of each mismatch array evaluated while finding brackets
    kinematics, brackets = phase_match._kinematics, phase_match._brackets

    def counting_kinematics(*args):
        result = kinematics(*args)
        shapes.append(result[2].shape)
        return result

    def counting_brackets(*args):
        phase_match._kinematics = counting_kinematics
        try:
            return brackets(*args)
        finally:
            phase_match._kinematics = kinematics

    monkeypatch.setattr(phase_match, "_brackets", counting_brackets)
    freqs = phase_match.frequency_grid(*WINDOW, 801)
    for ray in ("ordinary", "extraordinary"):
        shapes.clear()
        phase_match._solve(config(41.54), freqs, ray)
        assert all(len(shape) == 1 or shape[1] == 2 for shape in shapes), shapes
        assert sum(math.prod(shape) for shape in shapes) <= 12 * 801
        shapes.clear()
        phase_match._solve(CrystalConfig(41.54, PUMP_THZ, POSITIVE_UNIAXIAL), freqs, ray)
        assert shapes[0] == (0, 2)  # the end probes: no row certified


def test_emission_curves_memory_bounded_by_blocks():
    tracemalloc.start()
    try:
        o_curve, e_curve = emission_curves(config(45.0), WINDOW, 20001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(o_curve.samples) == len(e_curve.samples) == 20001
    assert peak <= 16 * 2**20


def columns(freqs, o_angles, e_angles):
    freqs = np.array(freqs)
    return (EmissionCurve("ordinary", freqs, np.array(o_angles)),
            EmissionCurve("extraordinary", freqs, np.array(e_angles)))


def test_find_intersection_is_the_exact_crossing_of_the_interpolants():
    # the difference goes -1 -> +3 over [10, 11]: the lines meet a quarter of the way
    o, e = columns([10.0, 11.0, 12.0], [1.0, 3.0, 4.0], [2.0, 0.0, 1.0])
    assert find_intersection(o, e) == IntersectionResult(True, 10.25, 1.5, 0.0)


def test_find_intersection_pair_spans_a_row_solved_on_one_curve():
    # 11 THz is unsolved on the e curve, so the pair of rows is (10, 12):
    # the difference goes -1 -> +3 there, so both lines reach 1.75 deg at 10.5 THz
    o, e = columns([10.0, 11.0, 12.0], [1.0, 9.0, 4.0], [2.0, math.nan, 1.0])
    assert find_intersection(o, e) == IntersectionResult(True, 10.5, 1.75, 0.0)


def test_find_intersection_exact_zero_at_the_first_row_of_a_pair():
    # equal angles at 11 THz, the first row of the pair (11, 12); the pair
    # (10, 11) has no sign change because its first difference is nonzero
    o, e = columns([10.0, 11.0, 12.0], [1.0, 2.5, 4.0], [2.0, 2.5, 1.0])
    assert find_intersection(o, e) == IntersectionResult(True, 11.0, 2.5, 0.0)


def test_find_intersection_exact_zero_at_the_last_row_solved_on_both():
    # equal angles at 11 THz, the last row solved on both, with no pair after it
    o, e = columns([10.0, 11.0], [1.0, 2.0], [2.0, 2.0])
    assert find_intersection(o, e) == IntersectionResult(True, 11.0, 2.0, 0.0)
    # the same at the only row solved on both, between rows solved on one curve
    o, e = columns([10.0, 11.0, 12.0], [1.0, 2.5, math.nan], [math.nan, 2.5, 1.0])
    assert find_intersection(o, e) == IntersectionResult(True, 11.0, 2.5, 0.0)
    # an earlier sign change is still the one reported
    o, e = columns([10.0, 11.0, 12.0], [1.0, 3.0, 2.0], [2.0, 0.0, 2.0])
    assert find_intersection(o, e) == IntersectionResult(True, 10.25, 1.5, 0.0)


def test_find_intersection_without_common_points():
    # every row is solved on one curve at most
    o, e = columns([350.0, 351.0, 360.0, 361.0], [3.0, 3.1, math.nan, math.nan],
                   [math.nan, math.nan, 4.0, 4.1])
    assert not find_intersection(o, e).exists


def test_find_intersection_rejects_curves_on_different_grids():
    o, _ = columns([10.0, 11.0], [1.0, 3.0], [2.0, 0.0])
    _, e = columns([10.0, 12.0], [1.0, 3.0], [2.0, 0.0])
    with pytest.raises(ValueError):
        find_intersection(o, e)


def test_crystal_config_validation():
    with pytest.raises(ValueError):
        CrystalConfig(cut_angle_deg=0.0, pump_frequency_thz=PUMP_THZ)
    with pytest.raises(ValueError):
        CrystalConfig(cut_angle_deg=95.0, pump_frequency_thz=PUMP_THZ)
    with pytest.raises(ValueError):
        CrystalConfig(cut_angle_deg=45.0, pump_frequency_thz=-1.0)


@pytest.mark.parametrize("pump_thz", [2200.0, 150.0, math.inf])
def test_crystal_config_rejects_pump_outside_the_dispersion_window(pump_thz):
    # 0.136 um, 2.0 um and 0 um: the Sellmeier data cover 0.3-1.5 um only
    with pytest.raises(ValueError, match=r"window \[0.3, 1.5\] um"):
        CrystalConfig(cut_angle_deg=45.0, pump_frequency_thz=pump_thz)
    lo, hi = WAVELENGTH_WINDOW_UM
    for edge in (lo, hi):
        CrystalConfig(cut_angle_deg=45.0, pump_frequency_thz=SPEED_OF_LIGHT_UM_THZ / edge)


# ---------------------------------------------------------------------------
# bandwidth error


def test_bandwidth_error_reference_point():
    assert bandwidth_error(0.08, 2, 1.0) == 0.02


def test_bandwidth_error_high_charge():
    assert bandwidth_error(0.08, 10, 1.0) == pytest.approx(0.004, abs=1e-15)


def test_bandwidth_error_zero_bandwidth():
    assert bandwidth_error(0.0, 2, 1.0) == 0.0


def test_bandwidth_error_validation():
    with pytest.raises(ValueError):
        bandwidth_error(0.08, 0, 1.0)
    with pytest.raises(ValueError):
        bandwidth_error(0.08, 2, 0.0)
    with pytest.raises(ValueError):
        bandwidth_error(-0.1, 2, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    df=st.floats(min_value=0.0, max_value=10.0),
    l=st.integers(min_value=1, max_value=100),
    f_rot=st.floats(min_value=1e-6, max_value=10.0),
    scale=st.floats(min_value=0.25, max_value=4.0),
)
def test_property_bandwidth_error_scale_invariant(df, l, f_rot, scale):
    assert bandwidth_error(df * scale, l, f_rot * scale) == pytest.approx(
        bandwidth_error(df, l, f_rot), rel=1e-12
    )
