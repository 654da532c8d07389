import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombeat import hom_interference
from hombeat.hom_interference import (
    FWHM_FACTOR,
    HomConfig,
    HomTrace,
    QuadratureError,
    coincidence_numeric,
    coincidence_plain,
    coincidence_rde,
    dip_model,
    fwhm_bandwidth,
    observability,
    restricted_density_matrix,
    trace,
    visibility,
)
from hombeat.hybrid_state import run_pipeline
from hombeat.joint_spectrum import PhaseMatchGaussian, PumpSpectrum, RdeShift, jsa_grid
from hombeat.phase_match import bandwidth_error

TAU_C = 1e-12

# frozen with 30-digit arithmetic
P_AT_ONE_PS = 0.196734670143683  # 1/2 - 1/2 exp(-1/2)
P_RDE_LOCAL_MAX = 0.962895725601809  # 1/2 + 1/2 exp(-pi^2/128)


def grid(span, n):
    return tuple(np.linspace(-span, span, n))


# ---------------------------------------------------------------------------
# closed forms


def test_plain_dip_floor():
    assert coincidence_plain(0.0, TAU_C) == 0.0


def test_plain_reference_point():
    assert coincidence_plain(1e-12, 1e-12) == pytest.approx(P_AT_ONE_PS, abs=1e-12)
    # headline number: roughly one fifth at one envelope time
    assert coincidence_plain(1e-12, 1e-12) == pytest.approx(0.2, abs=0.005)


def test_plain_distinguishable_limit():
    assert abs(coincidence_plain(10.0 * TAU_C, TAU_C) - 0.5) < 1e-10


def test_rde_zero_delay():
    for l, omega in [(0, 0.0), (2, 2e12), (10, 4e11)]:
        assert coincidence_rde(0.0, TAU_C, l, omega) == 0.0


def test_rde_local_maximum_above_half():
    value = coincidence_rde(math.pi / 8.0 * 1e-12, TAU_C, 2, 2e12)
    assert value == pytest.approx(P_RDE_LOCAL_MAX, abs=1e-12)
    assert value > 0.5


def test_rde_without_rotation_reduces_to_plain():
    for tau in np.linspace(-3e-12, 3e-12, 61):
        assert coincidence_rde(tau, TAU_C, 2, 0.0) == coincidence_plain(tau, TAU_C)


def test_closed_forms_take_arrays():
    taus = np.linspace(-3e-12, 3e-12, 61)
    p = coincidence_rde(taus, TAU_C, 2, 2e12)
    assert isinstance(p, np.ndarray) and p.shape == taus.shape
    assert np.array_equal(p, [coincidence_rde(t, TAU_C, 2, 2e12) for t in taus])
    assert type(coincidence_rde(1e-12, TAU_C, 2, 2e12)) is float
    assert type(coincidence_plain(np.float64(1e-12), TAU_C)) is float
    assert np.array_equal(coincidence_plain(taus, TAU_C), coincidence_rde(taus, TAU_C, 0, 0.0))


def test_dip_model_scales_the_dip_by_its_visibility():
    taus = np.linspace(-3e-12, 3e-12, 61)
    full, cos, envelope = dip_model(taus, 1.0, 4e12, TAU_C)
    assert np.array_equal(full, coincidence_rde(taus, TAU_C, 2, 1e12))
    assert np.array_equal(cos, np.cos(4e12 * taus))
    assert np.array_equal(envelope, np.exp(-(taus * taus) / (2.0 * TAU_C * TAU_C)))
    half = dip_model(taus, 0.5, 4e12, TAU_C)[0]
    np.testing.assert_allclose(half - 0.5, 0.5 * (full - 0.5), rtol=0.0, atol=1e-16)
    assert np.array_equal(dip_model(taus, 0.0, 4e12, TAU_C)[0], np.full(taus.shape, 0.5))
    # a delay whose square overflows has an envelope of exactly 0, without a warning
    assert dip_model(np.array([1e300]), 1.0, 0.0, TAU_C)[2][0] == 0.0


@pytest.mark.parametrize("tau,beat", [
    (np.linspace(-3e-12, 3e-12, 61), 4e12),
    (np.array(1.5e-12), 4e12),
    (1.5e-12, 4e12),
    (np.array([-1e300, -2e-12, 0.0, 1e-12, 1e300]), 0.0),
])
def test_dip_model_in_place_has_the_expressions_bits(tau, beat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, cos, envelope = dip_model(tau, 0.8, beat, TAU_C)
    with np.errstate(over="ignore"):
        expected_envelope = np.exp(-(tau * tau) / (2.0 * TAU_C * TAU_C))
    expected = (0.5 - 0.5 * 0.8 * np.cos(beat * tau) * expected_envelope, np.cos(beat * tau),
                expected_envelope)
    for got, want in zip((p, cos, envelope), expected):
        assert np.shape(got) == np.shape(tau)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a delay whose square overflows has an envelope of exactly 0
    assert np.array_equal(envelope == 0.0, np.abs(tau) > 1e200)


def test_closed_forms_validate():
    with pytest.raises(ValueError):
        coincidence_plain(0.0, 0.0)
    with pytest.raises(ValueError):
        coincidence_rde(0.0, TAU_C, -1, 1e12)


@pytest.mark.parametrize(
    "tau,tau_c,l,omega_rot",
    [(1e-300, 1e-300, 2, 1e12),  # 2 tau_c**2 underflows
     (1e308, 1e307, 0, 0.0),  # 2 tau_c**2 overflows
     (1e300, 1e-12, 2, 1e12)],  # the beat phase overflows
)
def test_closed_form_rejects_a_dip_it_would_make_nan(tau, tau_c, l, omega_rot):
    # each returned NaN with a RuntimeWarning; HomConfig rejects the same arguments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            coincidence_rde(tau, tau_c, l, omega_rot)
        with pytest.raises(ValueError):
            HomConfig(tau_c=tau_c, l=l, omega_rot=omega_rot, tau_grid=[tau])


_HUGE_L = 10**400  # an integer beyond the float range


@pytest.mark.parametrize("call", [
    lambda: coincidence_rde(0.0, TAU_C, _HUGE_L, 1.0),
    lambda: HomConfig(TAU_C, _HUGE_L, 1.0, [0.0]),
    lambda: coincidence_numeric(0.0, TAU_C, _HUGE_L, 1.0),
    lambda: jsa_grid(PumpSpectrum(center=1.0, sigma=1e12), PhaseMatchGaussian(0.1, 1e-12),
                     RdeShift(_HUGE_L, 1.0), 6e12, 16),
    lambda: run_pipeline(_HUGE_L, 1.0, 1e15),
    lambda: bandwidth_error(1.0, _HUGE_L, 1.0),
], ids=["coincidence_rde", "HomConfig", "coincidence_numeric", "RdeShift", "run_pipeline",
        "bandwidth_error"])
def test_integer_l_beyond_the_float_range_is_a_value_error(call):
    # each raised OverflowError from int-to-float conversion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            call()


@pytest.mark.parametrize("tau,tau_c,l,omega_rot", [
    (0.0, TAU_C, 1, math.inf), (0.0, TAU_C, 1, math.nan), (1e-12, TAU_C, 2, -math.inf),
    (1e12, 1e10, 1, 1e300),  # a finite beat whose phase overflows
])
def test_numeric_rejects_a_non_finite_beat_or_beat_phase(tau, tau_c, l, omega_rot):
    # an infinite beat warned three times and then raised QuadratureError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            coincidence_numeric(tau, tau_c, l, omega_rot)


# ---------------------------------------------------------------------------
# numeric oracle


def test_numeric_matches_plain_without_shift():
    for tau in np.linspace(-3e-12, 3e-12, 41):
        assert coincidence_numeric(tau, TAU_C, 2, 0.0) == pytest.approx(
            coincidence_plain(tau, TAU_C), abs=1e-6
        )


def test_numeric_matches_beating_form():
    taus = np.linspace(-3e-12, 3e-12, 101)
    worst = max(
        abs(coincidence_numeric(t, TAU_C, 2, 2e12) - coincidence_rde(t, TAU_C, 2, 2e12))
        for t in taus
    )
    assert worst < 1e-6


def test_numeric_zero_delay():
    assert abs(coincidence_numeric(0.0, TAU_C, 2, 2e12)) < 1e-9


def test_numeric_failure_is_reported():
    # a delay this absurd needs a difference-frequency grid far beyond the node budget
    with pytest.raises(QuadratureError):
        coincidence_numeric(1.0, TAU_C, 2, 2e12)


def test_numeric_takes_arrays():
    taus = np.linspace(-3e-12, 3e-12, 60).reshape(3, 20)
    for omega in (0.0, 2e12):
        p = coincidence_numeric(taus, TAU_C, 2, omega)
        assert p.shape == taus.shape
        looped = np.array([[coincidence_numeric(float(t), TAU_C, 2, omega) for t in row]
                           for row in taus])
        assert np.max(np.abs(p - looped)) < 1e-12


@pytest.mark.parametrize("tau_c,omega", [(TAU_C, 2e12), (1e-6, 2e6)])
def test_numeric_far_wing_is_half(tau_c, omega):
    # the cosine turns ~2,400 times across the difference-frequency grid at 300 tau_c
    assert coincidence_numeric(300.0 * tau_c, tau_c, 2, omega) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("l,omega", [(2, 0.0), (2, 2e12), (10, 4e11)])
def test_numeric_panel_budget_boundary(l, omega):
    # the grid has 2*ceil(8 (max|tau| + 8 tau_c) / (pi tau_c)) + 1 nodes whatever the branch
    # offset, so the budget's last odd count is reached at the delay tau_edge
    budget = hom_interference._NODE_BUDGET
    tau_edge = ((budget - 1) // 2 * math.pi / 8.0 - 8.0) * TAU_C
    assert tau_edge > 2274.0 * TAU_C  # the reach of the former panel budget at l = 0
    assert coincidence_numeric(tau_edge * (1.0 - 1e-9), TAU_C, l, omega) == pytest.approx(
        0.5, abs=1e-9
    )
    with pytest.raises(QuadratureError, match=f"budget of {budget}"):
        coincidence_numeric(tau_edge * (1.0 + 1e-9), TAU_C, l, omega)


def test_numeric_rounded_nodes_at_a_huge_offset_are_reported():
    # past l*omega ~ 1e21 at tau_c = 1 ps the nodes round to a few positions near
    # the centre; the h and 2h sums then agree on a wrong dip (0.48 off at 1e30)
    taus = np.linspace(-3e-12, 3e-12, 61)
    assert np.max(np.abs(coincidence_numeric(taus, TAU_C, 1, 1e19)
                         - coincidence_rde(taus, TAU_C, 1, 1e19))) < 1e-6
    for omega in (1e22, 1e30):
        with pytest.raises(QuadratureError, match="error estimate"):
            coincidence_numeric(taus, TAU_C, 1, omega)


def test_numeric_validates():
    with pytest.raises(ValueError):
        coincidence_numeric(0.0, 0.0, 2, 2e12)
    with pytest.raises(ValueError):
        coincidence_numeric(0.0, TAU_C, -1, 2e12)
    with pytest.raises(ValueError):
        coincidence_numeric([0.0, math.nan], TAU_C, 2, 2e12)


# ---------------------------------------------------------------------------
# traces


def test_trace_beating_has_more_extrema_at_higher_rotation():
    def extrema_count(omega):
        cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=omega, tau_grid=grid(3e-12, 1201))
        result = trace(cfg)
        inside = np.abs(result.tau) <= 2e-12
        p = result.p[inside]
        d = np.diff(p)
        return int(np.sum(d[:-1] * d[1:] < 0))

    assert extrema_count(4e12) > extrema_count(2e12)


def test_trace_without_rotation_is_a_plain_dip():
    cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=0.0, tau_grid=grid(3e-12, 201))
    result = trace(cfg)
    assert float(result.p.min()) == 0.0
    assert np.all(np.diff(result.p[result.tau >= 0]) >= -1e-15)


def test_trace_slow_rotation_long_envelope():
    cfg = HomConfig(tau_c=1e-6, l=2, omega_rot=1e6, tau_grid=grid(3e-6, 601))
    result = trace(cfg)
    above = result.p > 0.5 + 1e-6
    assert above.any()  # oscillations visible above the baseline


def test_trace_metadata_and_window_flag():
    cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=grid(3e-12, 101))
    result = trace(cfg, method="closed")
    assert result.method == "closed"
    assert result.l == 2
    assert result.omega_rot == 2e12
    assert result.window_exceeded  # scan reaches past tau_c / 2
    narrow = trace(
        HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=grid(0.4e-12, 33))
    )
    assert not narrow.window_exceeded


def test_trace_numeric_method_agrees():
    cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=grid(2e-12, 41))
    closed = trace(cfg, method="closed")
    numeric = trace(cfg, method="numeric")
    assert np.max(np.abs(closed.p - numeric.p)) < 1e-6


def test_trace_numeric_never_calls_the_closed_forms(monkeypatch):
    cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=grid(3e-12, 61))
    expected = trace(cfg, method="numeric").p

    def fail(*args, **kwargs):
        raise AssertionError("the numeric route called a closed form")

    monkeypatch.setattr(hom_interference, "dip_model", fail)
    monkeypatch.setattr(hom_interference, "coincidence_rde", fail)
    assert np.array_equal(trace(cfg, method="numeric").p, expected)


def test_config_rejects_non_finite_parameters():
    for tau_c, omega in [(math.inf, 2e12), (math.nan, 2e12), (TAU_C, math.nan), (TAU_C, math.inf)]:
        with pytest.raises(ValueError):
            HomConfig(tau_c=tau_c, l=2, omega_rot=omega, tau_grid=grid(1e-12, 33))


def test_config_stores_the_delay_grid_as_a_float_array():
    taus = np.linspace(-1e-12, 1e-12, 33)
    for given in (taus, tuple(taus), list(taus)):
        cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=given)
        assert cfg.tau_grid.dtype == np.float64
        assert np.array_equal(cfg.tau_grid, taus)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau grid"):
            HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=(0.0, bad))


def test_config_rejects_a_beat_phase_beyond_the_float_range():
    # 2*17*1e12*1e300 overflows, so cos(beat * tau) would be NaN at the scan's ends
    with pytest.raises(ValueError, match=r"2\*l\*omega_rot\*max\|tau\|"):
        HomConfig(tau_c=TAU_C, l=17, omega_rot=1e12, tau_grid=grid(1e300, 11))
    for l, omega in ((17, 1e6), (0, 1e12)):  # phases up to 3.4e307 and 0 are finite
        cfg = HomConfig(tau_c=TAU_C, l=l, omega_rot=omega, tau_grid=grid(1e300, 11))
        assert trace(cfg).p[0] == 0.5


def test_trace_method_validation():
    cfg = HomConfig(tau_c=TAU_C, l=2, omega_rot=2e12, tau_grid=grid(1e-12, 33))
    with pytest.raises(ValueError):
        trace(cfg, method="magic")


# ---------------------------------------------------------------------------
# observability


def test_observability_anchors():
    resolvable, bandwidth = observability(2, 2e12, 1e-12)
    assert resolvable
    assert bandwidth == pytest.approx(2.355e12, rel=5e-3)
    _, bandwidth_slow = observability(2, 1e6, 1e-6)
    assert bandwidth_slow == pytest.approx(2.36e6, rel=5e-3)


def test_observability_threshold_is_exact():
    tau_c = 1e-12
    bandwidth = fwhm_bandwidth(tau_c)
    l = 2
    at_threshold = bandwidth / (2.0 * l)
    assert not observability(l, at_threshold, tau_c)[0]
    assert observability(l, at_threshold * (1.0 + 1e-12), tau_c)[0]


def test_observability_zero_rotation():
    assert observability(2, 0.0, 1e-12) == (False, FWHM_FACTOR / 1e-12)


@pytest.mark.parametrize("call", [
    lambda: bandwidth_error(math.nan, 1, 1.0),  # returned nan
    lambda: bandwidth_error(math.inf, 1, 1.0),  # returned inf
    lambda: bandwidth_error(1.0, 1, math.inf),  # returned 0.0
    lambda: bandwidth_error(1.0, 1, 5e-324),  # returned inf
    lambda: fwhm_bandwidth(math.inf),  # returned 0.0
    lambda: fwhm_bandwidth(5e-324),  # returned inf
    lambda: fwhm_bandwidth(math.nan),
    lambda: observability(2, math.nan, 1e-12),  # returned (False, ...)
    lambda: observability(2, math.inf, 1e-12),
], ids=["bandwidth_error-nan", "bandwidth_error-inf", "bandwidth_error-inf-rotation",
        "bandwidth_error-overflow", "fwhm_bandwidth-inf", "fwhm_bandwidth-overflow",
        "fwhm_bandwidth-nan", "observability-nan", "observability-inf"])
def test_public_helpers_reject_non_finite_input_and_results(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# visibility and the restricted density matrix


def wide_trace(scale=0.5, tau_c=TAU_C, n=1001):
    taus = np.linspace(-10 * tau_c, 10 * tau_c, n)
    p = 0.5 - scale * np.exp(-(taus**2) / (2 * tau_c**2))
    cfg_like = HomConfig(tau_c=tau_c, l=0, omega_rot=0.0, tau_grid=tuple(taus))
    result = trace(cfg_like)
    return result, taus, p


def test_visibility_of_ideal_dip():
    result, _, _ = wide_trace()
    assert visibility(result) == pytest.approx(1.0, abs=1e-6)


def test_visibility_of_scaled_dip():
    _, taus, p = wide_trace(scale=0.4)
    partial = HomTrace(
        tau=taus, p=p, tau_c=TAU_C, l=0, omega_rot=0.0, method="closed"
    )
    assert visibility(partial) == pytest.approx(0.8, abs=1e-6)


def test_visibility_of_flat_trace():
    taus = np.linspace(-3e-12, 3e-12, 101)
    flat = HomTrace(
        tau=taus, p=np.full(101, 0.5), tau_c=TAU_C, l=0, omega_rot=0.0, method="closed"
    )
    assert visibility(flat) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_probabilities(bad):
    # NaN fails both range comparisons, and visibility on such a trace returned 0.0
    taus = np.linspace(-3e-12, 3e-12, 5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        HomTrace(tau=taus, p=np.array([0.5, bad, 0.2, 0.3, 0.5]), tau_c=TAU_C, l=0,
                 omega_rot=0.0, method="closed")


def test_visibility_rejects_delays_whose_span_overflows():
    # the span 2e308 warned "overflow encountered in scalar subtract"
    taus = np.array([-1e308, -1.0, 0.0, 1.0, 1e308])
    wide = HomTrace(tau=taus, p=np.full(5, 0.5), tau_c=TAU_C, l=0, omega_rot=0.0, method="closed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite range"):
            visibility(wide)


def test_visibility_rejects_zero_baseline():
    taus = np.linspace(-3e-12, 3e-12, 101)
    degenerate = HomTrace(
        tau=taus, p=np.zeros(101), tau_c=TAU_C, l=0, omega_rot=0.0, method="closed"
    )
    with pytest.raises(ValueError):
        visibility(degenerate)


def test_density_matrix_maximal_coherence():
    rho = restricted_density_matrix(1.0, 0.0).matrix
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_density_matrix_fully_dephased():
    rho = restricted_density_matrix(0.0, 0.0).matrix
    assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-15)


def test_density_matrix_partial_coherence():
    rho = restricted_density_matrix(0.8, 0.0).matrix
    assert rho[0, 1] == pytest.approx(0.4, abs=1e-15)
    assert rho[1, 0] == pytest.approx(0.4, abs=1e-15)


def test_density_matrix_imbalanced_populations():
    rho = restricted_density_matrix(1.0, 0.5).matrix
    assert rho[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert rho[1, 1] == pytest.approx(0.25, abs=1e-15)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        restricted_density_matrix(1.5, 0.0)
    with pytest.raises(ValueError):
        restricted_density_matrix(0.5, 2.0)


# ---------------------------------------------------------------------------
# properties

taus = st.floats(min_value=-5e-12, max_value=5e-12)
l_values = st.integers(min_value=0, max_value=10)
omegas = st.floats(min_value=0.0, max_value=5e12)


@settings(max_examples=200, deadline=None)
@given(tau=taus, l=l_values, omega=omegas)
def test_property_delay_symmetry(tau, l, omega):
    assert coincidence_rde(tau, TAU_C, l, omega) == coincidence_rde(-tau, TAU_C, l, omega)


@settings(max_examples=200, deadline=None)
@given(tau=taus, l=l_values, omega=omegas)
def test_property_range_and_envelope(tau, l, omega):
    p = coincidence_rde(tau, TAU_C, l, omega)
    assert 0.0 <= p <= 1.0
    envelope = 0.5 * math.exp(-(tau * tau) / (2.0 * TAU_C * TAU_C))
    assert abs(p - 0.5) <= envelope + 1e-15


@settings(max_examples=200, deadline=None)
@given(tau=taus, l=st.integers(min_value=1, max_value=10), omega=omegas)
def test_property_beat_product_invariance(tau, l, omega):
    assert coincidence_rde(tau, TAU_C, l, omega) == coincidence_rde(
        tau, TAU_C, 2 * l, omega / 2.0
    )


def test_asymptote():
    for l, omega in [(0, 0.0), (2, 2e12)]:
        assert abs(coincidence_rde(10 * TAU_C, TAU_C, l, omega) - 0.5) < 1e-10


def test_zero_only_at_zero_delay():
    taus_sampled = np.linspace(-3e-12, 3e-12, 601)
    p = np.array([coincidence_rde(t, TAU_C, 2, 2e12) for t in taus_sampled])
    assert p[300] == 0.0
    mask = np.ones_like(p, dtype=bool)
    mask[300] = False
    assert np.all(p[mask] > 0.0)
