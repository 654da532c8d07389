"""The dip fit as it stood before it shared one model evaluation per iterate.

``fit_dip`` is the damped Gauss-Newton fit of ``hombeat.rotation_estimator``
with separate residual and Jacobian functions: the Jacobian recomputes the
envelope and cosine of the residual it follows, and the rms re-evaluates the
final residual.  Used only to check that sharing those values leaves every
fitted number bit-identical.
"""

import numpy as np

MAX_ITERATIONS = 200
REL_TOL = 1e-10


def _damped_gauss_newton(residual, jacobian, theta0, max_iter=MAX_ITERATIONS, rel_tol=REL_TOL):
    """Minimize ||residual(theta)||^2 with step-halving damping.

    Returns (theta, converged, iterations).  A singular normal matrix or a
    step that cannot reduce the objective ends the fit unconverged with the
    best parameters found so far.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual(theta)
    ssr = float(r @ r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = jacobian(theta)
        try:
            step = np.linalg.solve(jac.T @ jac, -(jac.T @ r))
        except np.linalg.LinAlgError:
            return theta, False, iterations
        if not np.all(np.isfinite(step)):
            return theta, False, iterations
        lam = 1.0
        for _ in range(30):
            candidate = theta + lam * step
            rc = residual(candidate)
            src = float(rc @ rc)
            if src <= ssr:
                break
            lam *= 0.5
        else:
            return theta, False, iterations
        rel_change = float(np.max(np.abs(lam * step) / np.maximum(np.abs(candidate), 1e-12)))
        theta, r, ssr = candidate, rc, src
        if rel_change < rel_tol:
            return theta, True, iterations
    return theta, False, iterations


def fit_dip(tau, target, v0, beat0, tau_c0, free_beat):
    """Damped Gauss-Newton fit of the dip model to ``target`` samples.

    Parameters are scaled to order one as (V, beat * t0, tau_c / t0) with
    ``t0 = tau_c0``; unless ``free_beat`` is set the beat stays pinned at
    ``beat0``.  Returns (V, beat, tau_c, rms residual, converged, iterations).
    """
    t0 = tau_c0
    free = np.array([True, free_beat, True])
    start = np.array([v0, beat0 * t0, 1.0])

    def unpack(theta):
        full = start.copy()
        full[free] = theta
        return full

    def residual(theta):
        v, b, u = unpack(theta)
        env = np.exp(-(tau**2) / (2.0 * (u * t0) ** 2))
        return 0.5 - 0.5 * v * np.cos(b / t0 * tau) * env - target

    def jacobian(theta):
        v, b, u = unpack(theta)
        arg = b / t0 * tau
        env = np.exp(-(tau**2) / (2.0 * (u * t0) ** 2))
        d_v = -0.5 * np.cos(arg) * env
        d_b = 0.5 * v * np.sin(arg) * env * tau / t0
        d_u = -0.5 * v * np.cos(arg) * env * (tau**2) / ((u * t0) ** 2 * u)
        return np.column_stack([d_v, d_b, d_u])[:, free]

    theta, converged, iterations = _damped_gauss_newton(residual, jacobian, start[free])
    v, b, u = unpack(theta)
    rms = float(np.sqrt(np.mean(residual(theta) ** 2)))
    return float(v), abs(float(b)) / t0, abs(float(u)) * t0, rms, converged, iterations
