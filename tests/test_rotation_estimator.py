import math
import pathlib
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from hombeat import rotation_estimator
from hombeat.hom_interference import HomConfig, _normal_width, coincidence_rde
from hombeat.rotation_estimator import (
    EstimateResult,
    NoisyTrace,
    estimate,
    extract_beat,
    synthesize_trace,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import dip_fit_reference  # noqa: E402


def cfg(l=2, omega=2e12, tau_c=1e-12, span=3e-12, n=1201):
    return HomConfig(tau_c=tau_c, l=l, omega_rot=omega, tau_grid=tuple(np.linspace(-span, span, n)))


BEAT_REFERENCE = 8e12  # 2 * l * omega for the default configuration


# ---------------------------------------------------------------------------
# synthesis


def test_noiseless_synthesis_equals_model():
    c = cfg()
    tr = synthesize_trace(c, 0.0, seed=7)
    expected = np.array([coincidence_rde(t, c.tau_c, c.l, c.omega_rot) for t in c.tau_grid])
    assert np.array_equal(tr.p, expected)


def test_synthesis_is_deterministic():
    c = cfg()
    a = synthesize_trace(c, 0.01, seed=42)
    b = synthesize_trace(c, 0.01, seed=42)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.tau, b.tau)


def test_synthesis_noise_level():
    c = cfg(n=601)
    tr = synthesize_trace(c, 0.01, seed=3)
    model = np.array([coincidence_rde(t, c.tau_c, c.l, c.omega_rot) for t in c.tau_grid])
    sample_std = float(np.std(tr.p - model, ddof=1))
    assert 0.008 <= sample_std <= 0.012


def test_synthesis_rejects_negative_noise():
    with pytest.raises(ValueError):
        synthesize_trace(cfg(), -0.1, seed=0)


def test_trace_validation():
    with pytest.raises(ValueError):
        NoisyTrace(tau=np.array([0.0, 0.0, 1.0]), p=np.zeros(3))
    with pytest.raises(ValueError):
        NoisyTrace(tau=np.array([0.0, 1.0]), p=np.zeros(3))


def test_trace_rejects_non_finite_samples():
    taus = np.linspace(-3e-12, 3e-12, 101)
    p = synthesize_trace(cfg(n=101), 0.0, seed=0).p
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            NoisyTrace(tau=taus, p=np.where(np.arange(101) == 50, bad, p))
        with pytest.raises(ValueError):
            NoisyTrace(tau=np.where(np.arange(101) == 100, bad, taus), p=p)
    with pytest.raises(ValueError):
        NoisyTrace(tau=taus, p=p, noise_sigma=math.nan)


# a noiseless beating dip: tau_c = 1 ps, beat 4e12 rad/s, 601 delays over +-3 ps
_DIP_TAU = np.linspace(-3e-12, 3e-12, 601)
_DIP_P = coincidence_rde(_DIP_TAU, 1e-12, 1, 2e12)


@pytest.mark.parametrize("k", range(-170, 301, 10))
def test_delays_at_any_scale_fit_or_are_rejected_without_warnings(k):
    # past 1e-150 or 1e170 the dip model divided 0/0 and tau**2 overflowed;
    # such grids are now rejected, with 2*max|tau|**2 outside the normal floats
    scale = 10.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            trace = NoisyTrace(tau=_DIP_TAU * scale, p=_DIP_P)
        except ValueError:
            assert not _normal_width(3e-12 * scale)
            return
        result = estimate(trace)
    assert result.converged
    assert result.beat * scale == pytest.approx(4e12, rel=1e-9)
    assert result.tau_c_hat / scale == pytest.approx(1e-12, rel=1e-9)


# ---------------------------------------------------------------------------
# beat extraction


def test_extract_beat_round_trip():
    beat = extract_beat(synthesize_trace(cfg(), 0.0, 0))
    assert beat == pytest.approx(BEAT_REFERENCE, rel=0.005)


def test_extract_beat_without_rotation():
    c = cfg(l=2, omega=0.0, n=601)
    assert extract_beat(synthesize_trace(c, 0.0, 0)) == 0.0


def test_extract_beat_below_resolution():
    c = cfg(l=2, omega=0.4e12)
    assert extract_beat(synthesize_trace(c, 0.0, 0)) == 0.0


def test_extract_beat_noisy():
    beat = extract_beat(synthesize_trace(cfg(), 0.01, seed=5))
    assert beat == pytest.approx(BEAT_REFERENCE, rel=0.05)


def test_extract_beat_on_non_uniform_grid():
    # jitter below half a step keeps delays strictly increasing; the start
    # reads the trace interpolated onto uniform delays, the fit the samples
    rng = np.random.default_rng(123)
    base = np.linspace(-3e-12, 3e-12, 1201)
    taus = base + rng.uniform(-0.2, 0.2, base.size) * (base[1] - base[0])
    p = np.array([coincidence_rde(t, 1e-12, 2, 2e12) for t in taus])
    tr = NoisyTrace(tau=taus, p=p)
    assert extract_beat(tr) == pytest.approx(BEAT_REFERENCE, rel=0.005)
    result = estimate(tr)
    assert result.converged
    assert result.beat == pytest.approx(BEAT_REFERENCE, rel=0.005)


def jittered_trace(n, seed, sigma=0.0, beat=BEAT_REFERENCE):
    """Dip with tau_c = 1 ps on +-3 ps, each delay moved by up to 0.2 steps."""
    rng = np.random.default_rng(seed)
    base = np.linspace(-3e-12, 3e-12, n)
    taus = base + rng.uniform(-0.2, 0.2, n) * (base[1] - base[0])
    p = coincidence_rde(taus, 1e-12, 1, beat / 2.0) + rng.normal(0.0, sigma, n)
    return NoisyTrace(tau=taus, p=p)


def test_fft_length_is_the_next_5_smooth_integer():
    smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8) for c in range(6))
    for n in range(1, 2049):
        assert rotation_estimator._fft_length(n) == next(m for m in smooth if m >= n)
    # 8 n + 4 at n = 156,250 is 2^2 3 7 23 647, a slow length for the FFT
    assert rotation_estimator._fft_length(1_250_004) == 1_259_712


def test_estimate_memory_on_a_long_jittered_trace():
    # the start interpolates the trace onto uniform delays, then thins it
    tr = jittered_trace(156_250, 5, 0.01)
    tracemalloc.start()
    try:
        fit = estimate(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert fit.beat == pytest.approx(BEAT_REFERENCE, rel=0.005)
    assert peak <= 9 * 2**20


PRIME_SAMPLES = 51_563  # a prime: 2 n is a Bluestein length for the FFT


def test_projection_pads_to_a_5_smooth_length(monkeypatch):
    tr = synthesize_trace(cfg(span=2.2e-12, n=PRIME_SAMPLES), 0.01, seed=3)
    lengths = []
    for name in ("fft", "rfft"):
        def transform(a, n, transform=getattr(np.fft, name)):
            lengths.append(n)
            return transform(a, n)
        monkeypatch.setattr(np.fft, name, transform)
    betas, _, _ = rotation_estimator._projection(tr.tau, 0.5 - tr.p, [1e-12, 2e-12])
    half = rotation_estimator._fft_length(PRIME_SAMPLES)
    assert sorted(lengths) == [half, 2 * half]
    assert betas.size == half
    h = float(tr.tau[1] - tr.tau[0])
    np.testing.assert_allclose(np.diff(betas), math.pi / (half * h), rtol=1e-9)


@pytest.mark.parametrize("n", range(3, 41))
def test_projection_of_a_few_samples_matches_the_direct_sums(n):
    # a few samples leave little padding: g.g's term at 2 beta is read off a
    # length-half transform, which holds only while env has at most half samples
    rng = np.random.default_rng(n)
    tau = np.linspace(-3e-12, 2e-12, n)  # off-centre, so the phase at tau[0] counts
    y = 0.5 - coincidence_rde(tau, 1e-12, 1, 2e12) + rng.normal(0.0, 0.01, n)
    h = float(tau[1] - tau[0])
    taus_c = 0.5 * h * math.sqrt(2.0) ** np.arange(8)
    betas, v, removed = rotation_estimator._projection(tau, y, taus_c)
    g = (np.cos(np.outer(betas, tau))[None, :, :]
         * np.exp(-0.5 * (tau / taus_c[:, None]) ** 2)[:, None, :])
    yg = g @ y
    a = yg / np.einsum("rbk,rbk->rb", g, g)
    fits = a > 0.0
    assert v.shape == removed.shape == (taus_c.size, betas.size)
    np.testing.assert_allclose(v, np.where(fits, 2.0 * a, 0.0), rtol=0.0,
                               atol=1e-10 * np.abs(2.0 * a).max())
    np.testing.assert_allclose(removed, np.where(fits, yg * a, 0.0), rtol=0.0,
                               atol=1e-10 * (y @ y))


def _seeded_trace(i):
    """Trace ``i``: uniform for even i, jittered for odd; tau_c 1 ps, beat * tau_c in [0.5, 20)."""
    rng = np.random.default_rng([i, 8])
    n = int(rng.integers(32, 601))
    sigma = (0.0, 0.005, 0.01)[i % 3]
    tau = np.linspace(-1.0, 1.0, n) * rng.uniform(1.5, 4.0) * 1e-12
    if i % 2:
        tau[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * float(tau[1] - tau[0])
    beat_tau_c = rng.uniform(0.5, 20.0)
    p = coincidence_rde(tau, 1e-12, 1, beat_tau_c / 2.0 * 1e12) + rng.normal(0.0, sigma, n)
    return NoisyTrace(tau=tau, p=p, noise_sigma=sigma)


@pytest.mark.parametrize("i", range(72))
def test_estimate_does_not_depend_on_the_start_grid(monkeypatch, i):
    tr = _seeded_trace(i)
    shipped = estimate(tr)
    monkeypatch.setattr(rotation_estimator, "_TAU_C_RATIO", 2.0**0.25)
    monkeypatch.setattr(rotation_estimator, "_ENVELOPE_SAMPLES", 512)
    dense = estimate(tr)
    assert shipped.converged
    assert (shipped.converged, shipped.below_resolution) == (dense.converged, dense.below_resolution)
    assert shipped.beat == pytest.approx(dense.beat, rel=1e-8)
    assert shipped.tau_c_hat == pytest.approx(dense.tau_c_hat, rel=2e-8)
    assert shipped.visibility_hat == pytest.approx(dense.visibility_hat, rel=2e-8)


@pytest.mark.parametrize("beat_tau_c", [3.2, 3.0])
def test_a_beat_by_the_resolution_threshold_is_decided_on_the_fitted_beat(beat_tau_c):
    # just above and just below pi on +-3.5 tau_c, where a beat spectrum's peak
    # sits by its low-frequency guard bin: the fitted beat decides
    tr = synthesize_trace(cfg(l=1, omega=beat_tau_c / 2.0 * 1e12, span=3.5e-12, n=401), 0.0,
                          seed=0)
    fit = estimate(tr)
    assert fit.converged
    if beat_tau_c > math.pi:
        assert not fit.below_resolution
        assert fit.beat == pytest.approx(beat_tau_c * 1e12, rel=1e-9)
    else:
        assert fit.below_resolution and fit.beat == 0.0


_RULE_BEAT_TAU_C = sorted({*np.linspace(0.5, 20.0, 80).tolist(),
                           2.9, 3.0, 3.05, 3.1, 3.13, 3.15, 3.18, 3.2, 3.3, 3.5})


@pytest.mark.parametrize("n", [64, 401, 1201])
def test_noiseless_beat_is_resolved_exactly_from_pi(n):
    # tau_c = 1 ps, uniform and jittered delays over three spans; below 64
    # samples the plain-dip fit at beat * tau_c just under pi may not converge
    broken = []
    for span in (1.5, 2.5, 4.0):
        for jittered in (False, True):
            tau = np.linspace(-span, span, n) * 1e-12
            if jittered:
                rng = np.random.default_rng(n)
                tau[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * float(tau[1] - tau[0])
            for beat_tau_c in _RULE_BEAT_TAU_C:
                p = coincidence_rde(tau, 1e-12, 1, beat_tau_c / 2.0 * 1e12)
                fit = estimate(NoisyTrace(tau, p))
                resolved = beat_tau_c >= math.pi
                if not (fit.converged and fit.below_resolution != resolved
                        and (not resolved or abs(fit.beat / (beat_tau_c * 1e12) - 1.0) <= 1e-6)):
                    broken.append((span, jittered, beat_tau_c, fit))
    assert broken == []


def test_uniform_beat_extraction_memory():
    # the shape of a 176,001-point hom export over +-2.2 tau_c, all inside the analysis window
    tr = synthesize_trace(cfg(span=2.2e-12, n=176_001), 0.0, seed=0)
    tracemalloc.start()
    try:
        beat = extract_beat(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert beat == pytest.approx(BEAT_REFERENCE, rel=0.005)
    assert peak <= 9 * 2**20


# ---------------------------------------------------------------------------
# joint estimation


@pytest.mark.parametrize("free_beat", [True, False])
def test_fit_dip_with_shared_evaluation_is_bit_identical(free_beat):
    c = cfg(span=2.2e-12, n=176_001)
    tr = synthesize_trace(c, 0.01, seed=5)
    args = (tr.tau, tr.p, 0.9, 1.01 * BEAT_REFERENCE, 1.05e-12, free_beat)
    assert rotation_estimator._fit_dip(*args) == dip_fit_reference.fit_dip(*args)


def _stacked_jacobian(tau, theta, start, free, t0):
    """The fit's Jacobian as explicit columns d/dV, d/db, d/du of the scaled parameters."""
    full = start.copy()
    full[free] = theta
    v, b, u = full
    arg = b / t0 * tau
    env = np.exp(-(tau**2) / (2.0 * (u * t0) ** 2))
    d_v = -0.5 * np.cos(arg) * env
    d_b = 0.5 * v * np.sin(arg) * env * tau / t0
    d_u = -0.5 * v * np.cos(arg) * env * tau**2 / ((u * t0) ** 2 * u)
    return np.column_stack([d_v, d_b, d_u])[:, free]


@pytest.mark.parametrize("free_beat", [True, False])
def test_normal_equations_match_the_stacked_jacobian(monkeypatch, free_beat):
    tr = synthesize_trace(cfg(span=2.2e-12, n=20_001), 0.01, seed=5)
    t0, v0, beat0 = 1.05e-12, 0.9, 1.01 * BEAT_REFERENCE
    free = np.array([True, free_beat, True])
    start = np.array([v0, beat0 * t0, 1.0])
    checked = []

    def check(evaluate, normal_equations, theta0):
        for theta in (theta0, theta0 * [1.02, 0.99, 1.03][: theta0.size]):
            r, shared = evaluate(theta)
            jtj, jtr = normal_equations(theta, r, shared)
            jac = _stacked_jacobian(tr.tau, theta, start, free, t0)
            norms = np.linalg.norm(jac, axis=0)
            # each entry against its Cauchy-Schwarz bound
            assert np.all(np.abs(jtj - jac.T @ jac) <= 1e-12 * np.outer(norms, norms))
            assert np.all(np.abs(jtr - jac.T @ r) <= 1e-12 * norms * np.linalg.norm(r))
            checked.append(theta.size)
        return theta0, r, False, 0

    monkeypatch.setattr(rotation_estimator, "_damped_gauss_newton", check)
    rotation_estimator._fit_dip(tr.tau, tr.p, v0, beat0, t0, free_beat)
    assert checked == [3 if free_beat else 2] * 2


def test_line_search_holds_one_evaluation_beside_the_iterate():
    # a linear fit whose normal equations ask for three times the Gauss-Newton step:
    # the full step quadruples the excess sum of squares, so every line search rejects one
    a = np.random.default_rng(3).normal(size=(64, 2))
    y = a @ [1.5, -2.0] + np.random.default_rng(4).normal(0.0, 0.1, 64)
    residuals, intermediates, iterate = [], [], []

    def evaluate(theta):
        assert all(ref() is None for ref in intermediates), "an iterate's intermediates are alive"
        alive = [ref() for ref in residuals if ref() is not None]
        # only the residual that the last normal equations saw may be alive
        assert len(alive) == len(iterate) and all(r is iterate[0]() for r in alive)
        r, shared = a @ theta - y, np.ones(64)
        residuals.append(weakref.ref(r))
        intermediates.append(weakref.ref(shared))
        return r, (shared,)

    def normal_equations(theta, r, shared):
        iterate[:] = [weakref.ref(r)]
        return a.T @ a / 3.0, a.T @ r

    theta, _, _, iterations = rotation_estimator._damped_gauss_newton(
        evaluate, normal_equations, [0.0, 0.0], max_iter=8)
    assert iterations == 8 and len(residuals) == 1 + 2 * iterations
    np.testing.assert_allclose(theta, np.linalg.solve(a.T @ a, a.T @ y), rtol=0.01)


def test_free_beat_fit_with_a_rejected_step_holds_five_trace_arrays(monkeypatch):
    # the scaled delays, then the iterate's residual beside one candidate's cosine,
    # envelope and residual; the Jacobian's sine shape takes the candidate's place
    tr = synthesize_trace(cfg(span=2.2e-12, n=176_001), 0.0, seed=0)
    model, calls = rotation_estimator.dip_model, []
    monkeypatch.setattr(rotation_estimator, "dip_model", lambda *args: calls.append(1) or model(*args))
    tracemalloc.start()
    try:
        fit = rotation_estimator._fit_dip(tr.tau, tr.p, 0.9, 1.01 * BEAT_REFERENCE, 1.05e-12, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    iterations = fit[5]
    assert fit[4] and len(calls) > iterations + 1  # converged, with a rejected step
    assert peak <= 6 * tr.tau.size * 8


def test_estimate_round_trip_noiseless():
    result = estimate(synthesize_trace(cfg(), 0.0, 0))
    assert result.converged
    assert not result.below_resolution
    assert result.beat == pytest.approx(BEAT_REFERENCE, rel=0.005)
    assert result.tau_c_hat == pytest.approx(1e-12, rel=0.01)
    assert result.visibility_hat == pytest.approx(1.0, rel=0.01)
    assert result.rms_residual < 1e-9


def test_estimate_slow_rotation_long_envelope():
    c = cfg(l=2, omega=1e6, tau_c=1e-6, span=3e-6, n=601)
    result = estimate(synthesize_trace(c, 0.0, 0))
    assert result.converged
    assert result.beat == pytest.approx(4e6, rel=0.005)


def test_estimate_below_resolution_flag():
    c = cfg(l=2, omega=0.4e12)  # beat * tau_c = 1.6, under one period per core
    result = estimate(synthesize_trace(c, 0.0, 0))
    assert result.below_resolution
    assert result.beat == 0.0


def test_estimate_is_deterministic():
    tr = synthesize_trace(cfg(), 0.01, seed=11)
    assert estimate(tr) == estimate(tr)


def test_estimate_identifiability_of_the_beat_product():
    a = estimate(synthesize_trace(cfg(l=2, omega=2e12), 0.0, 0))
    b = estimate(synthesize_trace(cfg(l=4, omega=1e12), 0.0, 0))
    assert a == b


def test_estimate_noisy_seeds():
    hits = 0
    for seed in range(10):
        result = estimate(synthesize_trace(cfg(), 0.01, seed))
        if result.converged and abs(result.beat - BEAT_REFERENCE) / BEAT_REFERENCE < 0.05:
            hits += 1
    assert hits >= 9


def test_estimate_residual_floor():
    for seed in (0, 1, 2):
        result = estimate(synthesize_trace(cfg(), 0.01, seed))
        assert result.converged
        assert result.rms_residual <= 1.2 * 0.01


def test_estimate_flat_trace_does_not_converge():
    taus = np.linspace(-3e-12, 3e-12, 101)
    result = estimate(NoisyTrace(tau=taus, p=np.full(101, 0.5)))
    assert not result.converged
    assert result.below_resolution
    assert isinstance(result, EstimateResult)


def test_estimate_requires_enough_samples():
    taus = np.linspace(-3e-12, 3e-12, 20)
    with pytest.raises(ValueError):
        estimate(NoisyTrace(tau=taus, p=np.full(20, 0.4)))


# ---------------------------------------------------------------------------
# known estimator defects (ROADMAP item 3): fits that do not describe the data
# and still report converged.  Each must flip once the fix lands.

TAU_C_DEFECT = 300e-15
L_DEFECT, OMEGA_DEFECT, SIGMA_DEFECT = 2, 2e12, 0.005


def _defect_trace(shape, seed):
    """1,201 samples over +-4 tau_c of a dip model altered by ``shape``; noise from ``seed``."""
    tau = np.linspace(-4 * TAU_C_DEFECT, 4 * TAU_C_DEFECT, 1201)
    p = shape(tau) + np.random.default_rng(seed).normal(0.0, SIGMA_DEFECT, tau.size)
    return NoisyTrace(tau=tau, p=p, noise_sigma=SIGMA_DEFECT)


def _model(tau):
    return coincidence_rde(tau, TAU_C_DEFECT, L_DEFECT, OMEGA_DEFECT)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the dip model has no delay offset or "
                   "free baseline, converged does not test the residual against the noise, and "
                   "the below-resolution path keeps converged for a fit that misses the dip")
@pytest.mark.parametrize("shape,seed", [
    pytest.param(lambda tau: _model(tau - 0.2 * TAU_C_DEFECT), 3, id="dip_offset_0p2_tau_c"),
    pytest.param(lambda tau: 0.8 * _model(tau), 3, id="trace_scaled_0p8"),
    # no defect in the data: this noise draw sends the fit below resolution
    # (beat 0, tau_c 88 fs, V 1.08, rms 0.094) and it still reports converged
    pytest.param(_model, 0, id="unperturbed_noise_seed_0"),
])
def test_converged_fit_describes_the_data(shape, seed):
    result = estimate(_defect_trace(shape, seed))
    beat = 2 * L_DEFECT * OMEGA_DEFECT
    describes = (abs(result.beat / beat - 1.0) < 0.01
                 and result.rms_residual < 2.0 * SIGMA_DEFECT)
    assert not result.converged or describes
