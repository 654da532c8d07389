"""Acceptance suite: one test per release criterion, with a printed verdict.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import pathlib
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hombeat as hb
from hombeat.cli import main as cli_main

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from fixture_defs import (  # noqa: E402
    FIXTURES,
    SVG_FIXTURES,
    lines_without_timestamp,
    render_svg_fixture,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

TAU_C = 1e-12


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


def test_criterion_01_dip_floor_and_asymptote():
    assert hb.coincidence_plain(0.0, TAU_C) == 0.0
    assert abs(hb.coincidence_plain(10.0 * TAU_C, TAU_C) - 0.5) < 1e-10
    report(1, "dip floor exactly 0 at zero delay, baseline 1/2 at 10 tau_c")


def test_criterion_02_one_fifth_coincidence_point():
    assert hb.coincidence_plain(1e-12, 1e-12) == pytest.approx(0.19673, abs=1e-5)
    report(2, "coincidence at one envelope time equals 0.19673 within 1e-5")


def test_criterion_03_numeric_oracle_equivalence():
    start = time.time()
    taus = np.linspace(-3.0 * TAU_C, 3.0 * TAU_C, 601)
    worst = 0.0
    for l, omega in [(2, 0.0), (2, 2e12), (2, 4e12), (10, 0.4e12)]:
        for tau in taus:
            numeric = hb.coincidence_numeric(float(tau), TAU_C, l, omega)
            closed = hb.coincidence_rde(float(tau), TAU_C, l, omega)
            worst = max(worst, abs(numeric - closed))
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    report(3, f"difference-frequency sum vs closed forms: max |diff| = {worst:.2e} over "
              f"4 configs x 601 delays ({elapsed:.1f} s)")


def test_criterion_04_beat_structure():
    start = time.time()

    def scan(omega):
        cfg = hb.HomConfig(
            tau_c=TAU_C, l=2, omega_rot=omega,
            tau_grid=tuple(np.linspace(-3e-12, 3e-12, 1201)),
        )
        return hb.synthesize_trace(cfg, 0.0, 0)

    def extrema_inside(trace, limit=2e-12):
        inside = np.abs(trace.tau) <= limit
        d = np.diff(trace.p[inside])
        return int(np.sum(d[:-1] * d[1:] < 0))

    slow = scan(2e12)
    fast = scan(4e12)
    assert extrema_inside(fast) > extrema_inside(slow)
    beat_slow = hb.extract_beat(slow)
    beat_fast = hb.extract_beat(fast)
    assert beat_slow == pytest.approx(8e12, rel=0.005)
    assert beat_fast == pytest.approx(16e12, rel=0.005)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, f"faster rotation gives more extrema ({extrema_inside(fast)} > {extrema_inside(slow)}); "
              f"beats {beat_slow:.3e} and {beat_fast:.3e} within 0.5%")


def test_criterion_05_observability_condition():
    fwhm_fast = hb.fwhm_bandwidth(1e-12)
    fwhm_slow = hb.fwhm_bandwidth(1e-6)
    assert fwhm_fast == pytest.approx(2.355e12, rel=0.005)
    assert fwhm_slow == pytest.approx(2.36e6, rel=0.005)
    for l in (1, 2, 5):
        for tau_c in (1e-12, 1e-9, 1e-6):
            threshold = hb.fwhm_bandwidth(tau_c) / (2.0 * l)
            for omega, expected in [
                (threshold * 0.999, False),
                (threshold, False),
                (threshold * 1.001, True),
            ]:
                resolvable, bandwidth = hb.observability(l, omega, tau_c)
                assert resolvable == (2.0 * l * omega > bandwidth)
                assert resolvable is expected
    report(5, f"beats resolvable exactly when 2*l*omega exceeds {fwhm_fast:.4e} rad/s per ps "
              f"(and {fwhm_slow:.3e} rad/s per us)")


def test_criterion_06_jsa_peak_geometry():
    start = time.time()
    pump = hb.PumpSpectrum(center=2.0 * math.pi * 370.44e12, sigma=1e12)
    pm = hb.PhaseMatchGaussian(gamma=0.1, a_coef=0.7 / (1e12 * math.sqrt(0.2)))

    unshifted = hb.jsa_grid(pump, pm, None, 6e12, 256)
    cell = unshifted.cell_size()[0]
    peaks = hb.peak_locations(unshifted)
    assert len(peaks) == 1
    assert abs(peaks[0][0]) <= cell and abs(peaks[0][1]) <= cell

    for omega in (1e12, 2e12):
        tag = 2 * omega
        grid = hb.jsa_grid(pump, pm, hb.RdeShift(l=2, omega_rot=omega), 6e12, 256)
        shifted_peaks = sorted(hb.peak_locations(grid))
        assert len(shifted_peaks) == 2
        assert shifted_peaks[0][0] == pytest.approx(-tag, abs=cell)
        assert shifted_peaks[0][1] == pytest.approx(+tag, abs=cell)
        assert shifted_peaks[1][0] == pytest.approx(+tag, abs=cell)
        assert shifted_peaks[1][1] == pytest.approx(-tag, abs=cell)
        for nu1, nu2 in shifted_peaks:
            assert abs(nu1 + nu2) <= cell
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(6, "one central peak without rotation; two antidiagonal peaks at "
              "(-l*omega, +l*omega) and (+l*omega, -l*omega) with rotation")


def test_criterion_07_phase_matching_geometry():
    start = time.time()
    window = (330.0, 410.0)

    def crossing(cut, n_points=801):
        cfg = hb.CrystalConfig(cut_angle_deg=cut, pump_frequency_thz=740.88)
        o_curve, e_curve = hb.emission_curves(cfg, window, n_points)
        return hb.find_intersection(o_curve, e_curve)

    assert not crossing(40.0).exists
    at45 = crossing(45.0)
    at50 = crossing(50.0)
    assert at45.exists and at45.frequency_thz == pytest.approx(370.44, abs=2.0)
    assert at50.exists and at50.frequency_thz == pytest.approx(370.32, abs=2.0)
    refined = crossing(45.0, n_points=1601)
    assert abs(refined.frequency_thz - at45.frequency_thz) < 0.01
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(7, f"cut 40 deg never crosses; 45 deg crosses at {at45.frequency_thz:.2f} THz, "
              f"50 deg at {at50.frequency_thz:.2f} THz; refinement shift "
              f"{abs(refined.frequency_thz - at45.frequency_thz):.1e} THz ({elapsed:.1f} s)")


def test_criterion_08_bandwidth_error_value():
    assert hb.bandwidth_error(0.08, 2, 1.0) == 0.02
    report(8, "0.08 THz bandwidth over a 2-charge 1-THz rotation tags 2% exactly")


def test_criterion_09_estimator_round_trip():
    start = time.time()
    cfg = hb.HomConfig(
        tau_c=TAU_C, l=2, omega_rot=2e12,
        tau_grid=tuple(np.linspace(-3e-12, 3e-12, 1201)),
    )
    clean = hb.estimate(hb.synthesize_trace(cfg, 0.0, 0))
    assert clean.converged
    assert clean.beat == pytest.approx(8e12, rel=0.005)
    assert clean.tau_c_hat == pytest.approx(TAU_C, rel=0.01)
    assert clean.visibility_hat == pytest.approx(1.0, rel=0.01)

    hits = 0
    for seed in range(10):
        noisy = hb.estimate(hb.synthesize_trace(cfg, 0.01, seed))
        if abs(noisy.beat - 8e12) / 8e12 < 0.05:
            hits += 1
    elapsed = time.time() - start
    assert hits >= 9
    assert elapsed < 60.0
    report(9, f"noiseless recovery within (0.5%, 1%, 1%); noisy beat within 5% for "
              f"{hits}/10 seeds ({elapsed:.1f} s)")


# --- criterion 10: property suite, 4 x 250 randomized cases -----------------

_l = st.integers(min_value=0, max_value=10)
_omega = st.floats(min_value=0.0, max_value=5e12, allow_nan=False)
_center = st.floats(min_value=1e10, max_value=1e16, allow_nan=False)
_tau = st.floats(min_value=-5e-12, max_value=5e-12, allow_nan=False)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(l=_l, omega=_omega, center=_center)
def test_criterion_10a_norm_preservation(l, omega, center):
    for state in hb.run_pipeline(l, omega, center):
        assert abs(state.norm_squared() - 1.0) < 1e-12


@settings(max_examples=250, deadline=None, derandomize=True)
@given(center=_center)
def test_criterion_10b_qwp_round_trip(center):
    state = hb.new_spdc_state(center)
    round_trip = hb.apply_qwp(hb.apply_qwp(state))
    assert hb.state_overlap(state, round_trip) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(l=_l, omega=_omega, center=_center)
def test_criterion_10c_oam_frequency_correlation(l, omega, center):
    output = hb.run_pipeline(l, omega, center)[-1]
    for term in output.terms:
        for photon in (term.photon1, term.photon2):
            sign = 1 if photon.oam == l else -1
            assert photon.oam == sign * l
            assert photon.detuning == sign * (l * omega)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(tau=_tau, l=st.integers(min_value=1, max_value=10), omega=_omega)
def test_criterion_10d_beat_product_invariance(tau, l, omega):
    assert hb.coincidence_rde(tau, TAU_C, l, omega) == hb.coincidence_rde(
        tau, TAU_C, 2 * l, omega / 2.0
    )


@settings(max_examples=250, deadline=None, derandomize=True)
@given(tau=_tau, l=_l, omega=_omega)
def test_difference_frequency_sum_matches_the_closed_form_on_criterion_10_draws(tau, l, omega):
    numeric = hb.coincidence_numeric(tau, TAU_C, l, omega)
    assert abs(numeric - hb.coincidence_rde(tau, TAU_C, l, omega)) < 1e-9


def test_criterion_10_report():
    report(10, "norm preservation, plate round trip, OAM-frequency pairing and "
               "beat-product invariance held over 1000 randomized cases")


def test_criterion_11_golden_fixtures_regenerate(tmp_path):
    start = time.time()
    for name, argv in FIXTURES.items():
        golden = GOLDEN_DIR / name
        assert golden.exists(), f"missing committed fixture {name}"
        fresh = tmp_path / name
        assert cli_main(argv + ["--out", str(fresh)]) == 0
        assert lines_without_timestamp(fresh.read_text()) == lines_without_timestamp(
            golden.read_text()
        ), f"fixture {name} drifted"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(11, f"all {len(FIXTURES)} reference fixtures regenerate byte-identically "
               f"apart from the timestamp ({elapsed:.1f} s)")


@pytest.mark.parametrize("name", sorted(SVG_FIXTURES))
def test_svg_fixtures_regenerate_byte_identically(tmp_path, name):
    golden = GOLDEN_DIR / name
    assert golden.exists(), f"missing committed fixture {name}"
    fresh = tmp_path / name
    assert render_svg_fixture(name, fresh) == 0
    assert fresh.read_bytes() == golden.read_bytes(), f"fixture {name} drifted"
