import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hombeat import joint_spectrum
from hombeat.hom_interference import coincidence_plain, coincidence_numeric
from hombeat.hybrid_state import run_pipeline
from hombeat.joint_spectrum import (
    JsaGrid,
    PhaseMatchGaussian,
    PumpSpectrum,
    RdeShift,
    _envelope,
    _profile,
    effective_coherence_time,
    jsa_grid,
    jsa_value,
    peak_locations,
)

SIGMA = 1e12
GAMMA = 0.1
A_COEF = 0.7 / (SIGMA * math.sqrt(2.0 * GAMMA))

# frozen with 30-digit arithmetic
EXP_M098 = 0.375311098851400  # exp(-0.98)
EXP_M2 = 0.135335283236613  # exp(-2)
TAU_C_REFERENCE = 9.89949493661167e-13  # 2 * A * sqrt(gamma)


@pytest.fixture
def pump():
    return PumpSpectrum(center=2.0 * math.pi * 370.44e12, sigma=SIGMA)


@pytest.fixture
def pm():
    return PhaseMatchGaussian(gamma=GAMMA, a_coef=A_COEF)


# ---------------------------------------------------------------------------
# point evaluation


def test_jsa_peak_value(pump, pm):
    assert jsa_value(0.0, 0.0, pump, pm) == 1.0


def test_jsa_antidiagonal_point(pump, pm):
    # phase-matching exponent gamma * (2 A sigma)^2 = 0.98, pump factor 1
    assert jsa_value(SIGMA, -SIGMA, pump, pm) == pytest.approx(EXP_M098, abs=1e-12)


def test_jsa_diagonal_point(pump, pm):
    # pump exponent (2 sigma)^2 / (2 sigma^2) = 2, phase-matching factor 1
    assert jsa_value(SIGMA, SIGMA, pump, pm) == pytest.approx(EXP_M2, abs=1e-12)


@pytest.mark.parametrize("nu2", [1e200, -1e200])
def test_jsa_value_is_zero_where_a_square_overflows(nu2):
    # each warned "overflow encountered in scalar power" on its way to exactly 0
    pump, pm = PumpSpectrum(0.0, 1e12), PhaseMatchGaussian(0.1, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jsa_value(1e200, nu2, pump, pm) == 0.0
        both = jsa_value(np.array([1e200, 0.0]), np.array([nu2, 0.0]), pump, pm)
        assert both.tolist() == [0.0, 1.0]


def test_jsa_value_is_zero_where_the_envelope_is_zero():
    # A nu1 and A nu2 both overflowed to +inf: inf - inf gave NaN with an "invalid value" warning
    pump, pm = PumpSpectrum(0.0, 1e12), PhaseMatchGaussian(0.1, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jsa_value(1e300, 1e300, pump, pm) == 0.0
        both = jsa_value(np.array([1e300, 0.0, -1e300]), np.array([1e300, 0.0, -1e300]), pump, pm)
        assert both.tolist() == [0.0, 1.0, 0.0]


@settings(max_examples=300, deadline=None)
@given(nu1=st.floats(allow_nan=False), nu2=st.floats(allow_nan=False),
       a_coef=st.sampled_from([A_COEF, 1e-12, 1e10, 1e155]))
def test_property_jsa_value_is_profile_times_envelope_where_the_envelope_is_not_zero(
        nu1, nu2, a_coef):
    pump, pm = PumpSpectrum(0.0, 1e12), PhaseMatchGaussian(GAMMA, a_coef)
    with np.errstate(all="ignore"):
        envelope = _envelope(np.float64(nu1), np.float64(nu2), pump)
        unmasked = _profile(np.float64(nu1), np.float64(nu2), pm, 0.0) * envelope
        got = jsa_value(nu1, nu2, pump, pm)
    want = 0.0 if envelope == 0.0 else float(unmasked)
    assert np.array_equal(got, want, equal_nan=True)


def test_phase_match_coefficients_locked_opposite():
    with pytest.raises(ValueError):
        PhaseMatchGaussian(gamma=-0.1, a_coef=2.0)
    for gamma, a_coef in [(math.inf, 2.0), (math.nan, 2.0), (0.1, math.inf), (0.1, math.nan)]:
        with pytest.raises(ValueError):
            PhaseMatchGaussian(gamma=gamma, a_coef=a_coef)


def test_pump_requires_positive_width():
    for sigma in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            PumpSpectrum(center=1e15, sigma=sigma)


@settings(max_examples=200, deadline=None)
@given(
    nu1=st.floats(min_value=-5e12, max_value=5e12),
    nu2=st.floats(min_value=-5e12, max_value=5e12),
)
def test_property_swap_symmetry(nu1, nu2):
    pump = PumpSpectrum(center=2.0 * math.pi * 370.44e12, sigma=SIGMA)
    pm = PhaseMatchGaussian(gamma=GAMMA, a_coef=A_COEF)
    assert jsa_value(nu1, nu2, pump, pm) == jsa_value(nu2, nu1, pump, pm)


# ---------------------------------------------------------------------------
# grids and peaks


def test_unshifted_grid_single_peak(pump, pm):
    grid = jsa_grid(pump, pm, None, 6e12, 256)
    cell = grid.cell_size()[0]
    peaks = peak_locations(grid)
    assert len(peaks) == 1
    nu1, nu2 = peaks[0]
    assert abs(nu1) <= cell
    assert abs(nu2) <= cell


def test_unshifted_grid_elongated_along_antidiagonal(pump, pm):
    for delta in (0.5e12, 1e12, 2e12, 4e12):
        assert jsa_value(delta, -delta, pump, pm) >= jsa_value(delta, delta, pump, pm)


@pytest.mark.parametrize("omega_rot", [1e12, 2e12])
def test_shifted_grid_two_peaks(pump, pm, omega_rot):
    l = 2
    grid = jsa_grid(pump, pm, RdeShift(l=l, omega_rot=omega_rot), 6e12, 256)
    cell = grid.cell_size()[0]
    peaks = peak_locations(grid)
    assert len(peaks) == 2
    tag = l * omega_rot
    found = sorted(peaks)
    assert found[0][0] == pytest.approx(-tag, abs=cell)
    assert found[0][1] == pytest.approx(+tag, abs=cell)
    assert found[1][0] == pytest.approx(+tag, abs=cell)
    assert found[1][1] == pytest.approx(-tag, abs=cell)
    # each branch maximum balances the pair energy
    for nu1, nu2 in peaks:
        assert abs(nu1 + nu2) <= cell


def test_peak_separation_doubles_with_rotation(pump, pm):
    grid1 = jsa_grid(pump, pm, RdeShift(l=2, omega_rot=1e12), 6e12, 256)
    grid2 = jsa_grid(pump, pm, RdeShift(l=2, omega_rot=2e12), 6e12, 256)
    cell = grid1.cell_size()[0]

    def separation(grid):
        (a1, a2), (b1, b2) = peak_locations(grid)
        return math.hypot(a1 - b1, a2 - b2)

    assert separation(grid2) == pytest.approx(2.0 * separation(grid1), abs=4.0 * cell)


def test_shift_covariance(pump, pm):
    grid_a = jsa_grid(pump, pm, RdeShift(l=2, omega_rot=2e12), 6e12, 64)
    grid_b = jsa_grid(pump, pm, RdeShift(l=4, omega_rot=1e12), 6e12, 64)
    assert np.array_equal(grid_a.values, grid_b.values)


def test_grid_values_normalized(pump, pm):
    grid = jsa_grid(pump, pm, RdeShift(l=2, omega_rot=2e12), 6e12, 64)
    assert grid.values.min() >= 0.0
    assert grid.values.max() == 1.0


@pytest.mark.parametrize("l, omega_rot", [(2, 1e12), (1, -4e11), (3, 2.5e11)])
def test_shifted_grid_is_the_larger_displaced_amplitude(pump, pm, l, omega_rot):
    grid = jsa_grid(pump, pm, RdeShift(l=l, omega_rot=omega_rot), 6e12, 128)
    nu1, nu2, tag = grid.axis1[:, None], grid.axis2[None, :], l * omega_rot
    expected = np.maximum(jsa_value(nu1 + tag, nu2 - tag, pump, pm),
                          jsa_value(nu1 - tag, nu2 + tag, pump, pm))
    np.testing.assert_allclose(grid.values, expected / expected.max(), rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=3),
    tag=st.floats(min_value=1e6, max_value=1e14),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_property_state_detunings_land_on_the_branch_peaks(l, tag, sign):
    # below |l omega| ~ 1e6 rad/s the other branch rounds to 1.0 as well
    omega_rot = sign * tag / l
    assume(1e6 <= abs(l * omega_rot) <= 1e14)
    pump = PumpSpectrum(center=2.0 * math.pi * 370.44e12, sigma=SIGMA)
    pm = PhaseMatchGaussian(gamma=GAMMA, a_coef=A_COEF)
    terms = run_pipeline(l, omega_rot, pump.center)[-1].terms
    assert len(terms) == 2
    branches = []
    for term in terms:
        d = term.photon1.detuning
        assert term.photon2.detuning == -d and abs(d) == abs(l * omega_rot)
        peak = [_profile(d, -d, pm, t) * _envelope(d, -d, pump) == 1.0
                for t in (l * omega_rot, -l * omega_rot)]
        assert peak.count(True) == 1
        branches.append(peak.index(True))
    assert sorted(branches) == [0, 1]


def test_all_zero_grid_has_no_peaks():
    grid = JsaGrid(
        axis1=np.linspace(-1.0, 1.0, 16),
        axis2=np.linspace(-1.0, 1.0, 16),
        values=np.zeros((16, 16)),
    )
    assert peak_locations(grid) == []


def test_diagonally_touching_plateau_is_one_peak():
    # three equal maxima in a V touch only diagonally; the right arm joins the
    # left one through the cell below both, later in raster order
    values = np.zeros((7, 7))
    values[2, 2] = values[3, 3] = values[2, 4] = 1.0
    axis = np.linspace(-3.0, 3.0, 7)
    grid = JsaGrid(axis1=axis, axis2=axis.copy(), values=values)
    assert peak_locations(grid) == [(-1.0, -1.0)]


def test_grid_parameter_validation(pump, pm):
    with pytest.raises(ValueError):
        jsa_grid(pump, pm, None, 6e12, 8)
    for half_width in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            jsa_grid(pump, pm, None, half_width, 64)
    with pytest.raises(ValueError):
        RdeShift(l=-1, omega_rot=1e12)
    with pytest.raises(ValueError, match="l \\* omega_rot must be finite"):
        RdeShift(l=2, omega_rot=1e308)  # each finite, the shift not


def _whole_grid(pump, pm, tag, half_width, n):
    """Both branches and the envelope evaluated on all n x n cells at once."""
    axis = np.linspace(-half_width, half_width, n)
    nu1, nu2 = axis[:, None], axis[None, :]
    with np.errstate(all="ignore"):
        values = np.maximum(_profile(nu1, nu2, pm, tag), _profile(nu1, nu2, pm, -tag))
        values *= _envelope(nu1, nu2, pump)
    return values / values.max()


@pytest.mark.parametrize("block_cells", [1, 7, 100 * 100])
@pytest.mark.parametrize("n", [16, 17, 100])
@pytest.mark.parametrize("shift", [None, RdeShift(l=2, omega_rot=1e12)])
def test_grid_in_blocks_of_rows_is_bit_identical_to_the_whole_grid(monkeypatch, pump, pm,
                                                                   block_cells, n, shift):
    # 1 and 7 cells are one row a step, at least n * n the whole grid in one
    monkeypatch.setattr(joint_spectrum, "_BLOCK_CELLS", block_cells)
    grid = jsa_grid(pump, pm, shift, 6e12, n)
    tag = 0.0 if shift is None else shift.l * shift.omega_rot
    expected = _whole_grid(pump, pm, tag, 6e12, n)
    assert grid.values.view(np.int64).tolist() == expected.view(np.int64).tolist()
    # a pump width whose square underflows makes the envelope 0/0 on the antidiagonal
    with pytest.raises(ValueError, match="not finite on the grid"):
        jsa_grid(PumpSpectrum(center=1.0, sigma=1e-300), pm, shift, 6e12, n)


def test_grid_memory_stays_near_the_grid_itself(pump, pm):
    # the 1024 x 1024 values are 8.4 MB; one whole-grid temporary per branch
    # would add 16.8 MB
    jsa_grid(pump, pm, RdeShift(l=2, omega_rot=1e12), 6e12, 16)
    tracemalloc.start()
    try:
        jsa_grid(pump, pm, RdeShift(l=2, omega_rot=1e12), 6e12, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= 10.0


# ---------------------------------------------------------------------------
# coherence time


def test_effective_coherence_time_reference(pm):
    assert effective_coherence_time(pm) == pytest.approx(TAU_C_REFERENCE, rel=1e-12)


def test_effective_coherence_time_scales_with_a(pm):
    doubled = PhaseMatchGaussian(gamma=GAMMA, a_coef=2.0 * A_COEF)
    assert effective_coherence_time(doubled) == pytest.approx(
        2.0 * effective_coherence_time(pm), rel=1e-12
    )


def test_effective_coherence_time_scales_with_gamma(pm):
    quadrupled = PhaseMatchGaussian(gamma=4.0 * GAMMA, a_coef=A_COEF)
    assert effective_coherence_time(quadrupled) == pytest.approx(
        2.0 * effective_coherence_time(pm), rel=1e-12
    )


def test_coherence_time_consistent_with_numeric_dip(pm):
    # the dip computed from the phase-matching profile at the implied envelope
    # time must match the closed form there
    tau_c = effective_coherence_time(pm)
    for tau in (-2e-12, -0.7e-12, 0.0, 0.4e-12, 1.3e-12):
        numeric = coincidence_numeric(tau, tau_c, 0, 0.0)
        closed = coincidence_plain(tau, tau_c)
        assert numeric == pytest.approx(closed, abs=1e-6)
