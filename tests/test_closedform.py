"""Closed-form machinery: stochastic exponential, variation of constants,
explicit scalar solution, and their self-consistency identities."""

import math

import numpy as np
import pytest
from scipy import stats

from lvjumps import (
    Const,
    LinearJumpSDE,
    MarkSpace,
    Sinusoid,
    coarsen_path,
    constant_model,
    explicit_logistic,
    explicit_logistic_log,
    fundamental_solution,
    merge_grid,
    sample_driving_path,
    simulate_lower,
    simulate_upper,
    voc_solve,
)
from lvjumps.closedform import _lower_growth_override
from lvjumps.errors import DomainError

NO_MARKS = MarkSpace(())


def linear_sde(F=0.0, G=0.0, f=0.0, g=0.0, H=(), h=(), marks=NO_MARKS):
    to_fn = lambda v: v if not isinstance(v, (int, float)) else Const(float(v))
    return LinearJumpSDE(
        F=to_fn(F), G=to_fn(G), f=to_fn(f), g=to_fn(g),
        H=tuple(to_fn(v) for v in H), h=tuple(to_fn(v) for v in h), marks=marks,
    )


def test_deterministic_exponential():
    path = sample_driving_path(NO_MARKS, 1.0, 0.25, 3)
    phi = fundamental_solution(linear_sde(F=1.0), path)
    assert phi.final() == pytest.approx(math.e, rel=1e-12)


def test_single_jump_doubles_against_compensator():
    marks = MarkSpace((1.0,))
    path = next(
        p
        for p in (sample_driving_path(marks, 2.0, 0.5, s) for s in range(100))
        if p.jump_count == 1
    )
    phi = fundamental_solution(linear_sde(H=(1.0,), h=(0.0,), marks=marks), path)
    assert phi.final() == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


def test_geometric_brownian_motion_identity():
    sigma = 0.7
    path = sample_driving_path(NO_MARKS, 3.0, 2.0**-8, 11)
    phi = fundamental_solution(linear_sde(G=sigma), path)
    expected = math.exp(-0.5 * sigma**2 * 3.0 + sigma * path.brownian_endpoint())
    assert phi.final() == pytest.approx(expected, rel=1e-12)


def test_exponential_is_positive_and_jump_consistent():
    marks = MarkSpace((2.0,))
    path = sample_driving_path(marks, 3.0, 0.125, 17)
    H = Sinusoid(0.2, 0.5, 1.3, 0.4)
    phi = fundamental_solution(linear_sde(H=(H,), h=(0.0,), marks=marks), path)
    assert np.all(phi.values > 0)
    grid = phi.grid
    for tau in path.jump_times:
        left = phi.values[grid.slot_at(float(tau), "left")]
        post = phi.values[grid.slot_at(float(tau), "post")]
        assert post / left == pytest.approx(1.0 + H(float(tau)), rel=1e-12)


def test_jump_coefficient_reaching_minus_one_rejected():
    marks = MarkSpace((1.0,))
    path = sample_driving_path(marks, 1.0, 0.25, 1)
    with pytest.raises(DomainError):
        fundamental_solution(linear_sde(H=(-1.0,), h=(0.0,), marks=marks), path)


def test_voc_homogeneous_reduction_is_bit_exact():
    marks = MarkSpace((1.0,))
    path = sample_driving_path(marks, 2.0, 0.125, 23)
    sde = linear_sde(F=0.4, G=0.3, H=(0.5,), h=(0.0,), marks=marks)
    phi = fundamental_solution(sde, path)
    y = voc_solve(sde, 1.7, path)
    assert np.array_equal(y.values, phi.values * 1.7)


def test_voc_pure_drift_is_exact():
    path = sample_driving_path(NO_MARKS, 3.0, 0.25, 5)
    y = voc_solve(linear_sde(f=2.5), 1.0, path)
    expected = 1.0 + 2.5 * y.grid.slot_times
    np.testing.assert_allclose(y.values, expected, rtol=0, atol=1e-12)


def sde_residual(sde, y0, path, Y):
    """Defect of Y in the integrated equation, discretised on Y's own grid."""
    grid = Y.grid
    times = grid.times
    deltas = np.diff(times)
    start, end = grid.interval_start_slots(), grid.interval_end_slots()
    Ys, Ye = Y.values[start], Y.values[end]
    weights = np.asarray(sde.marks.weights, dtype=float)

    def at_start(fn):
        return np.asarray(fn(times[:-1]), dtype=float)

    def at_end(fn):
        return np.asarray(fn.value_left(times[1:]), dtype=float)

    drift_s = at_start(sde.F) * Ys + at_start(sde.f)
    drift_e = at_end(sde.F) * Ye + at_end(sde.f)
    comp_s = np.zeros_like(Ys)
    comp_e = np.zeros_like(Ye)
    for k in range(sde.marks.size):
        comp_s += weights[k] * (at_start(sde.H[k]) * Ys + at_start(sde.h[k]))
        comp_e += weights[k] * (at_end(sde.H[k]) * Ye + at_end(sde.h[k]))
    drift = float(np.sum(0.5 * deltas * (drift_s + drift_e)))
    comp = float(np.sum(0.5 * deltas * (comp_s + comp_e)))
    brown = float(np.sum((at_start(sde.G) * Ys + at_start(sde.g)) * path.node_increments))
    events = 0.0
    for idx, k in zip(np.flatnonzero(grid.is_jump), path.jump_marks.tolist()):
        tau = float(times[idx])
        y_left = Y.values[grid.node_first_slot[idx]]
        events += y_left * float(sde.H[k](tau)) + float(sde.h[k](tau))
    return Y.final() - y0 - drift - brown - events + comp


def test_voc_residual_decays_linearly_in_h():
    # with a finite-variation Brownian integrand (G = 0) the defect of the
    # discretised integrated equation decays at O(h) on a fixed path
    marks = MarkSpace((1.2,))
    sde = linear_sde(
        F=Sinusoid(0.3, 0.2, 2.0, 0.1), G=0.0, f=0.7, g=Sinusoid(0.2, 0.1, 3.0, 0.0),
        H=(0.6,), h=(0.3,), marks=marks,
    )
    fine = sample_driving_path(marks, 2.0, 2.0**-11, 13)
    hs, residuals = [], []
    for k in range(6):
        path = coarsen_path(fine, 2 ** (5 - k))
        y = voc_solve(sde, 1.0, path)
        hs.append(path.h)
        residuals.append(abs(sde_residual(sde, 1.0, path, y)))
    slope = stats.linregress(np.log(hs), np.log(residuals)).slope
    assert slope >= 0.8
    assert residuals[-1] < 1e-4


def test_voc_residual_decays_with_rough_integrand():
    # a state-dependent Brownian coefficient makes the increment-sum
    # integrand rough, halving the rate; check the path-averaged defect
    marks = MarkSpace((1.2,))
    sde = linear_sde(
        F=Sinusoid(0.3, 0.2, 2.0, 0.1), G=0.4, f=0.7, g=Sinusoid(0.2, 0.1, 3.0, 0.0),
        H=(0.6,), h=(0.3,), marks=marks,
    )
    levels = [2 ** (4 - k) for k in range(5)]
    sums = np.zeros(len(levels))
    n_paths = 24
    for seed in range(n_paths):
        fine = sample_driving_path(marks, 2.0, 2.0**-10, 1000 + seed)
        for li, factor in enumerate(levels):
            path = coarsen_path(fine, factor)
            y = voc_solve(sde, 1.0, path)
            sums[li] += abs(sde_residual(sde, 1.0, path, y))
    hs = [2.0**-10 * f for f in levels]
    slope = stats.linregress(np.log(hs), np.log(sums / n_paths)).slope
    assert slope >= 0.35


def exact_logistic(a, b, x0, t):
    t = np.asarray(t, dtype=float)
    return a * x0 * np.exp(a * t) / (a + b * x0 * (np.exp(a * t) - 1.0))


def test_deterministic_limit_matches_logistic_formula(deterministic_model):
    path = sample_driving_path(NO_MARKS, 5.0, 2.0**-10, 1)
    y = explicit_logistic(deterministic_model, 0, 0.5, path)
    expected = exact_logistic(1.0, 1.0, 0.5, y.grid.slot_times)
    assert float(np.max(np.abs(y.values - expected) / expected)) < 1e-6


def test_monotone_in_self_interaction():
    path = sample_driving_path(NO_MARKS, 4.0, 2.0**-8, 19)
    finals = []
    for c in (0.5, 1.0, 2.0, 4.0):
        model = constant_model(1, a=1.2, b=c, sigma=0.6)
        finals.append(explicit_logistic(model, 0, 0.8, path).final())
    assert all(f1 > f2 for f1, f2 in zip(finals, finals[1:]))


def test_agrees_with_integrator_on_shared_path(benchmark_model):
    path = sample_driving_path(benchmark_model.marks, 5.0, 2.0**-10, 29)
    sim = simulate_upper(benchmark_model, 0, 1.0, path)
    oracle = explicit_logistic(benchmark_model, 0, 1.0, path)
    gap = np.max(np.abs(sim.values[0] - oracle.values) / oracle.values)
    assert gap < 5e-3


def test_inverse_identity_rearrangement(benchmark_model):
    # the reciprocal computed from the solution equals the rearranged
    # renewal form evaluated with the same quadrature, to round-off
    path = sample_driving_path(benchmark_model.marks, 3.0, 2.0**-6, 31)
    x0 = 0.7
    y = explicit_logistic(benchmark_model, 0, x0, path)
    lp = np.log(
        fundamental_solution(
            linear_sde(
                F=benchmark_model.a[0], G=benchmark_model.sigma[0],
                H=benchmark_model.gamma[0], h=(Const(0.0),),
                marks=benchmark_model.marks,
            ),
            path,
        ).values
    )
    grid = y.grid
    times = grid.times
    deltas = np.diff(times)
    start, end = grid.interval_start_slots(), grid.interval_end_slots()
    b = benchmark_model.B[0][0]
    b_s = np.asarray(b(times[:-1]), dtype=float)
    b_e = np.asarray(b.value_left(times[1:]), dtype=float)
    lp_T = lp[-1]
    integral = np.sum(
        0.5 * deltas * (b_s * np.exp(lp[start] - lp_T) + b_e * np.exp(lp[end] - lp_T))
    )
    rhs = math.exp(-lp_T) / x0 + integral
    lhs = 1.0 / y.final()
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_log_form_matches_plain_form(extinct_model):
    path = sample_driving_path(extinct_model.marks, 5.0, 2.0**-6, 37)
    plain = explicit_logistic(extinct_model, 0, 1.0, path)
    logged = explicit_logistic_log(extinct_model, 0, 1.0, path)
    np.testing.assert_allclose(np.exp(logged.values), plain.values, rtol=1e-12)


def test_constant_override_reproduces_plain_solution(benchmark_model):
    path = sample_driving_path(benchmark_model.marks, 3.0, 2.0**-6, 41)
    grid = merge_grid(path)
    override = _lower_growth_override(benchmark_model, 0, [None], grid)
    with_override = explicit_logistic(benchmark_model, 0, 1.0, path, growth_override=override)
    plain = explicit_logistic(benchmark_model, 0, 1.0, path)
    np.testing.assert_allclose(with_override.values, plain.values, rtol=1e-10)


def test_override_realises_lower_system():
    model = constant_model(
        2, a=(1.2, 1.0), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.4, 0.3),
        gamma=((0.2,), (-0.4,)), weights=(0.7,),
    )
    path = sample_driving_path(model.marks, 3.0, 2.0**-10, 43)
    x0 = [0.9, 1.4]
    uppers = [simulate_upper(model, i, x0[i], path) for i in range(2)]
    sim = simulate_lower(model, 0, x0[0], path, uppers)
    grid = sim.grid
    override = _lower_growth_override(model, 0, uppers, grid)
    oracle = explicit_logistic(model, 0, x0[0], path, growth_override=override)
    gap = np.max(np.abs(sim.values[0] - oracle.values) / oracle.values)
    assert gap < 5e-3
