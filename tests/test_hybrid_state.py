import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombeat.hybrid_state import (
    EmptyStateError,
    InvalidStateError,
    PhotonLabel,
    Pol,
    ProductTerm,
    TwoPhotonState,
    apply_polarizer_projection,
    apply_qwp,
    apply_rotating_qplate,
    new_spdc_state,
    run_pipeline,
    state_overlap,
)

OMEGA_DEG = 2.0 * math.pi * 370.44e12  # degenerate center used throughout

NORM_TOL = 1e-12


def single_term_state(label1, label2, center=OMEGA_DEG):
    return TwoPhotonState((ProductTerm(1.0 + 0.0j, label1, label2),), center)


# ---------------------------------------------------------------------------
# source state


def test_spdc_state_structure():
    state = new_spdc_state(OMEGA_DEG)
    assert len(state.terms) == 2
    amp = 1.0 / math.sqrt(2.0)
    pair1, pair2 = state.terms
    assert pair1.amplitude == pytest.approx(amp, abs=1e-15)
    assert pair2.amplitude == pytest.approx(amp, abs=1e-15)
    assert (pair1.photon1.pol, pair1.photon2.pol) == (Pol.H, Pol.V)
    assert (pair2.photon1.pol, pair2.photon2.pol) == (Pol.V, Pol.H)
    for term in state.terms:
        for photon in (term.photon1, term.photon2):
            assert photon.sam is None
            assert photon.oam == 0
            assert photon.detuning == 0.0


def test_spdc_state_normalized_for_any_frequency():
    for omega in (1.0, 2.5e9, OMEGA_DEG):
        state = new_spdc_state(omega)
        assert abs(state.norm_squared() - 1.0) < NORM_TOL
        assert state.center_frequency == omega


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True])
def test_spdc_state_rejects_bad_frequency(bad):
    with pytest.raises(ValueError):
        new_spdc_state(bad)


# ---------------------------------------------------------------------------
# quarter-wave plate


def test_qwp_forward_maps_polarization_to_spin():
    state = apply_qwp(new_spdc_state(OMEGA_DEG))
    sams = {(t.photon1.sam, t.photon2.sam) for t in state.terms}
    assert sams == {(+1, -1), (-1, +1)}
    assert all(t.photon1.pol is None and t.photon2.pol is None for t in state.terms)


def test_qwp_round_trip_is_identity():
    state = new_spdc_state(OMEGA_DEG)
    round_trip = apply_qwp(apply_qwp(state))
    assert state_overlap(state, round_trip) == pytest.approx(1.0, abs=NORM_TOL)


def test_qwp_single_term():
    state = single_term_state(PhotonLabel(pol=Pol.H), PhotonLabel(pol=Pol.H))
    out = apply_qwp(state)
    assert out.terms[0].photon1.sam == +1
    assert out.terms[0].photon2.sam == +1


def test_qwp_rejects_mixed_basis():
    state = single_term_state(PhotonLabel(pol=Pol.H), PhotonLabel(sam=+1))
    with pytest.raises(InvalidStateError):
        apply_qwp(state)


# ---------------------------------------------------------------------------
# rotating q-plate


def test_qplate_shifts_plus_spin():
    state = single_term_state(PhotonLabel(sam=+1), PhotonLabel(sam=+1))
    out = apply_rotating_qplate(state, 2, 1e12)
    photon = out.terms[0].photon1
    assert photon.sam == -1
    assert photon.oam == +2
    assert photon.detuning == +2e12


def test_qplate_shifts_minus_spin():
    state = single_term_state(PhotonLabel(sam=-1), PhotonLabel(sam=-1))
    out = apply_rotating_qplate(state, 2, 1e12)
    photon = out.terms[0].photon1
    assert photon.sam == +1
    assert photon.oam == -2
    assert photon.detuning == -2e12


def test_qplate_zero_rotation_still_converts():
    state = apply_qwp(new_spdc_state(OMEGA_DEG))
    out = apply_rotating_qplate(state, 2, 0.0)
    for term in out.terms:
        for photon in (term.photon1, term.photon2):
            assert photon.detuning == 0.0
            assert abs(photon.oam) == 2


def test_qplate_rejects_polarization_basis():
    with pytest.raises(InvalidStateError):
        apply_rotating_qplate(new_spdc_state(OMEGA_DEG), 2, 1e12)


def test_qplate_rejects_bad_charge():
    state = apply_qwp(new_spdc_state(OMEGA_DEG))
    with pytest.raises(ValueError):
        apply_rotating_qplate(state, -1, 1e12)
    with pytest.raises(ValueError):
        apply_rotating_qplate(state, 1.5, 1e12)  # type: ignore[arg-type]


def test_qplate_rejects_non_finite_rotation():
    state = apply_qwp(new_spdc_state(OMEGA_DEG))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            apply_rotating_qplate(state, 2, bad)


# ---------------------------------------------------------------------------
# polarizer projection


def test_polarizer_produces_oam_frequency_state():
    _, _, hybrid, output = run_pipeline(2, 1e12, OMEGA_DEG)
    assert len(output.terms) == 2
    for term in output.terms:
        assert abs(abs(term.amplitude) - 1.0 / math.sqrt(2.0)) < 1e-12
        for photon in (term.photon1, term.photon2):
            assert photon.pol is None
            assert photon.sam is None


def test_polarizer_is_idempotent_on_stripped_state():
    output = run_pipeline(2, 1e12, OMEGA_DEG)[-1]
    again = apply_polarizer_projection(output)
    assert again == output


def test_polarizer_single_term_renormalizes():
    state = single_term_state(PhotonLabel(pol=Pol.H), PhotonLabel(pol=Pol.V))
    out = apply_polarizer_projection(state)
    assert len(out.terms) == 1
    assert abs(out.terms[0].amplitude) == pytest.approx(1.0, abs=NORM_TOL)
    assert out.terms[0].photon1.pol is None


def test_polarizer_annihilation_raises():
    amp = 1.0 / math.sqrt(2.0)
    plus = ProductTerm(amp, PhotonLabel(pol=Pol.H), PhotonLabel(pol=Pol.H))
    minus = ProductTerm(-amp, PhotonLabel(pol=Pol.V), PhotonLabel(pol=Pol.V))
    state = TwoPhotonState((plus, minus), OMEGA_DEG)
    with pytest.raises(EmptyStateError):
        apply_polarizer_projection(state)


# ---------------------------------------------------------------------------
# pipeline and overlap


def test_pipeline_pairs_oam_with_detuning():
    output = run_pipeline(2, 1e12, OMEGA_DEG)[-1]
    pairs = {
        (p.oam, p.detuning) for t in output.terms for p in (t.photon1, t.photon2)
    }
    assert pairs == {(+2, +2e12), (-2, -2e12)}


def test_pipeline_identity_plate():
    output = run_pipeline(0, 1e12, OMEGA_DEG)[-1]
    # both branches collapse onto the same label pair and merge
    assert len(output.terms) == 1
    photon = output.terms[0].photon1
    assert photon.oam == 0
    assert photon.detuning == 0.0
    assert abs(output.terms[0].amplitude) == pytest.approx(1.0, abs=NORM_TOL)


def test_pipeline_static_plate():
    output = run_pipeline(2, 0.0, OMEGA_DEG)[-1]
    assert {p.oam for t in output.terms for p in (t.photon1, t.photon2)} == {+2, -2}
    assert all(
        p.detuning == 0.0 for t in output.terms for p in (t.photon1, t.photon2)
    )


def test_overlap_of_state_with_itself_is_one():
    state = new_spdc_state(OMEGA_DEG)
    assert state_overlap(state, state) == pytest.approx(1.0, abs=NORM_TOL)


def test_overlap_of_orthogonal_bell_states_is_zero():
    plus = new_spdc_state(OMEGA_DEG)
    amp = 1.0 / math.sqrt(2.0)
    minus = TwoPhotonState(
        (
            ProductTerm(amp, PhotonLabel(pol=Pol.H), PhotonLabel(pol=Pol.V)),
            ProductTerm(-amp, PhotonLabel(pol=Pol.V), PhotonLabel(pol=Pol.H)),
        ),
        OMEGA_DEG,
    )
    assert state_overlap(plus, minus) == pytest.approx(0.0, abs=NORM_TOL)


def test_overlap_after_spin_round_trip():
    hybrid = run_pipeline(2, 1e12, OMEGA_DEG)[2]
    round_trip = apply_qwp(apply_qwp(hybrid))
    assert state_overlap(hybrid, round_trip) == pytest.approx(1.0, abs=NORM_TOL)


@pytest.mark.parametrize("field", ["oam", "sam"])
@pytest.mark.parametrize("flag", [True, False])
def test_label_rejects_a_boolean_charge(field, flag):
    # True == 1: it printed l=+1 as an OAM charge and passed the spin check
    with pytest.raises(ValueError):
        PhotonLabel(**{field: flag})


def test_label_match_tolerance():
    a = PhotonLabel(detuning=0.0)
    assert a.matches(PhotonLabel(detuning=5e-7))
    assert not a.matches(PhotonLabel(detuning=2e-6))


def test_merge_tolerance_on_detunings():
    amp = 1.0 / math.sqrt(2.0)
    a = ProductTerm(amp, PhotonLabel(pol=Pol.H, detuning=0.0), PhotonLabel(pol=Pol.V))
    b = ProductTerm(amp, PhotonLabel(pol=Pol.V, detuning=5e-7), PhotonLabel(pol=Pol.H))
    state = TwoPhotonState((a, b), OMEGA_DEG)
    merged = apply_polarizer_projection(state)
    assert len(merged.terms) == 1
    assert abs(merged.terms[0].amplitude) == pytest.approx(1.0, abs=NORM_TOL)

    c = ProductTerm(amp, PhotonLabel(pol=Pol.V, detuning=2e-6), PhotonLabel(pol=Pol.H))
    separate = apply_polarizer_projection(TwoPhotonState((a, c), OMEGA_DEG))
    assert len(separate.terms) == 2


# ---------------------------------------------------------------------------
# properties

l_values = st.integers(min_value=0, max_value=10)
omega_values = st.floats(min_value=0.0, max_value=5e12, allow_nan=False)
center_values = st.floats(min_value=1e10, max_value=1e16, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(l=l_values, omega_rot=omega_values, center=center_values)
def test_property_norm_preserved_through_pipeline(l, omega_rot, center):
    for state in run_pipeline(l, omega_rot, center):
        assert abs(state.norm_squared() - 1.0) < NORM_TOL


@settings(max_examples=200, deadline=None)
@given(l=l_values, omega_rot=omega_values, center=center_values)
def test_property_exchange_symmetry(l, omega_rot, center):
    output = run_pipeline(l, omega_rot, center)[-1]
    swapped = TwoPhotonState(
        tuple(ProductTerm(t.amplitude, t.photon2, t.photon1) for t in output.terms),
        output.center_frequency,
    )
    assert state_overlap(output, swapped) == pytest.approx(1.0, abs=NORM_TOL)


@settings(max_examples=200, deadline=None)
@given(l=l_values, omega_rot=omega_values, center=center_values)
def test_property_oam_frequency_correlation(l, omega_rot, center):
    output = run_pipeline(l, omega_rot, center)[-1]
    for term in output.terms:
        for photon in (term.photon1, term.photon2):
            assert photon.oam in (l, -l)
            sign = 1 if photon.oam == l else -1
            assert photon.detuning == sign * (l * omega_rot)
    # the two branches differ in frequency by the beat 2*l*omega_rot; with l = 0 they merge
    if l == 0:
        assert len(output.terms) == 1
    else:
        plus, minus = output.terms
        assert plus.photon1.detuning - minus.photon1.detuning == 2 * l * omega_rot


@settings(max_examples=200, deadline=None)
@given(
    l=l_values,
    omega_rot=omega_values,
    sam=st.sampled_from([+1, -1]),
    oam=st.integers(min_value=-5, max_value=5),
)
def test_property_qplate_bookkeeping(l, omega_rot, sam, oam):
    state = single_term_state(
        PhotonLabel(sam=sam, oam=oam), PhotonLabel(sam=-sam, oam=-oam)
    )
    out = apply_rotating_qplate(state, l, omega_rot)
    photon = out.terms[0].photon1
    assert photon.sam == -sam
    assert photon.oam == oam + sam * l


@settings(max_examples=100, deadline=None)
@given(l=l_values, center=center_values)
def test_property_static_plate_leaves_detunings_zero(l, center):
    for state in run_pipeline(l, 0.0, center):
        for term in state.terms:
            for photon in (term.photon1, term.photon2):
                assert photon.detuning == 0.0
