"""Integrator: oracles, jump rule, pathwise comparison, divergence handling."""

import gc
import io
import math

import numpy as np
import pytest

from lvjumps import (
    ModelSpec,
    constant_model,
    sample_driving_path,
    simulate_lower,
    simulate_system,
    simulate_upper,
    write_trajectory_csv,
)
from lvjumps.errors import DomainError, GridMismatchError, IntegrationError
from lvjumps.noise import DrivingPath
from conftest import random_valid_model, random_x0


def exact_logistic(a, b, x0, t):
    """Closed-form solution of x' = x(a - b x)."""
    t = np.asarray(t, dtype=float)
    return a * x0 * np.exp(a * t) / (a + b * x0 * (np.exp(a * t) - 1.0))


def test_deterministic_logistic_at_log2(deterministic_model):
    h = 2.0**-6
    t_star = math.log(2.0)
    path = sample_driving_path(
        deterministic_model.marks, 1.0, h, 5, extra_times=(t_star,)
    )
    traj = simulate_system(deterministic_model, [0.5], path)
    assert traj.at_time(t_star)[0] == pytest.approx(2.0 / 3.0, abs=10 * h)


def test_jump_multiplies_population_exactly():
    model = constant_model(1, a=1.0, b=1.0, sigma=0.0, gamma=-0.5, weights=(1.0,))
    for seed in range(30):
        path = sample_driving_path(model.marks, 2.0, 0.25, seed)
        if path.jump_count:
            break
    assert path.jump_count
    traj = simulate_system(model, [1.0], path)
    grid = traj.grid
    for tau in path.jump_times:
        left = traj.values[0, grid.slot_at(float(tau), "left")]
        post = traj.values[0, grid.slot_at(float(tau), "post")]
        assert post == left * 0.5  # exact, not approximate


def test_jump_rule_exact_for_random_models():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_valid_model(rng)
        if not model.mark_count:
            continue
        path = sample_driving_path(model.marks, 3.0, 2.0**-6, int(rng.integers(1 << 31)))
        traj = simulate_system(model, random_x0(rng, model.n), path)
        if traj.diverged:
            continue
        grid = traj.grid
        for tau, mark in zip(path.jump_times, path.jump_marks):
            left = traj.values[:, grid.slot_at(float(tau), "left")]
            post = traj.values[:, grid.slot_at(float(tau), "post")]
            factors = np.array(
                [1.0 + model.gamma[i][int(mark)](float(tau)) for i in range(model.n)]
            )
            assert np.array_equal(post, left * factors)


def test_zero_jump_size_is_continuous():
    model = constant_model(1, a=1.0, b=1.0, sigma=0.3, gamma=0.0, weights=(2.0,))
    path = sample_driving_path(model.marks, 3.0, 0.125, 8)
    assert path.jump_count > 0
    traj = simulate_upper(model, 0, 1.0, path)
    grid = traj.grid
    for tau in path.jump_times:
        assert traj.values[0, grid.slot_at(float(tau), "left")] == traj.values[
            0, grid.slot_at(float(tau), "post")
        ]


def test_decoupled_species_match_scalar_run():
    model = constant_model(
        2, a=(1.0, 0.8), b=np.diag([1.0, 0.9]), sigma=(0.5, 0.4),
        gamma=((-0.5,), (0.3,)), weights=(1.0,),
    )
    path = sample_driving_path(model.marks, 3.0, 2.0**-8, 9)
    full = simulate_system(model, [0.7, 1.1], path)
    upper0 = simulate_upper(model, 0, 0.7, path)
    assert np.array_equal(full.values[0], upper0.values[0])


def test_scalar_system_equals_upper():
    model = constant_model(1, a=1.0, b=1.0, sigma=0.5, gamma=-0.5, weights=(1.0,))
    path = sample_driving_path(model.marks, 5.0, 2.0**-8, 5)
    assert np.array_equal(
        simulate_system(model, [0.7], path).values,
        simulate_upper(model, 0, 0.7, path).values,
    )
    # species i's upper system is the one-species model made of a_i, b_ii,
    # sigma_i and gamma_i, time-varying coefficients and marks included
    rng = np.random.default_rng(12)
    for _ in range(10):
        model = random_valid_model(rng)
        x0 = random_x0(rng, model.n)
        path = sample_driving_path(
            model.marks, 3.0, 2.0**-8, int(rng.integers(1 << 31)),
            extra_times=tuple(b for b in model.pwc_breakpoints() if 0 < b < 3.0),
        )
        for i in range(model.n):
            single = ModelSpec(
                n=1, a=(model.a[i],), B=((model.B[i][i],),), sigma=(model.sigma[i],),
                gamma=(model.gamma[i],), marks=model.marks,
            )
            assert np.array_equal(
                simulate_system(single, [x0[i]], path).values,
                simulate_upper(model, i, x0[i], path).values,
                equal_nan=True,
            )


def test_diagonal_interactions_make_lower_equal_upper():
    model = constant_model(
        2, a=(1.0, 0.8), b=np.diag([1.0, 0.9]), sigma=(0.5, 0.4),
        gamma=((-0.5,), (0.3,)), weights=(1.0,),
    )
    path = sample_driving_path(model.marks, 3.0, 2.0**-8, 10)
    uppers = [simulate_upper(model, i, 1.0, path) for i in range(2)]
    lowers = [simulate_lower(model, i, 1.0, path, uppers) for i in range(2)]
    for i in range(2):
        assert np.array_equal(lowers[i].values, uppers[i].values)


def test_sandwich_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = random_valid_model(rng)
        x0 = random_x0(rng, model.n)
        path = sample_driving_path(
            model.marks, 5.0, 2.0**-10, int(rng.integers(1 << 31)),
            extra_times=tuple(b for b in model.pwc_breakpoints() if 0 < b < 5.0),
        )
        full = simulate_system(model, x0, path)
        assert not full.diverged
        uppers = [simulate_upper(model, i, x0[i], path) for i in range(model.n)]
        lowers = [simulate_lower(model, i, x0[i], path, uppers) for i in range(model.n)]
        for i in range(model.n):
            assert np.all(full.values[i] <= uppers[i].values[0])
            assert np.all(lowers[i].values[0] <= full.values[i])


def test_lower_matches_full_system_while_coincident():
    # over the first step the frozen competition pressure still uses the
    # shared initial values, so the lower system coincides with the full
    # system in exact arithmetic; the kernels must agree bit for bit there,
    # otherwise rounding could break the ordering at the tie
    model = constant_model(
        3, a=(1.4, 1.0, 0.8),
        b=[[1.0, 0.3, 0.2], [0.2, 0.9, 0.1], [0.1, 0.2, 0.7]],
        sigma=(0.4, 0.3, 0.5),
    )
    x0 = [0.6, 1.1, 0.9]
    path = sample_driving_path(model.marks, 1.0, 2.0**-6, 14)
    full = simulate_system(model, x0, path)
    uppers = [simulate_upper(model, i, x0[i], path) for i in range(3)]
    for i in range(3):
        lower = simulate_lower(model, i, x0[i], path, uppers)
        assert lower.values[0, 1] == full.values[i, 1]
        assert np.all(lower.values[0] <= full.values[i])


def test_lower_monotone_in_cross_interaction():
    path_model = constant_model(
        2, a=(1.0, 1.2), b=[[1.0, 0.3], [0.2, 0.9]], sigma=(0.4, 0.5),
        gamma=((0.2,), (-0.3,)), weights=(0.8,),
    )
    path = sample_driving_path(path_model.marks, 4.0, 2.0**-8, 21)
    x0 = [0.9, 1.3]

    def lower0(b12):
        m = constant_model(
            2, a=(1.0, 1.2), b=[[1.0, b12], [0.2, 0.9]], sigma=(0.4, 0.5),
            gamma=((0.2,), (-0.3,)), weights=(0.8,),
        )
        uppers = [simulate_upper(m, i, x0[i], path) for i in range(2)]
        return simulate_lower(m, 0, x0[0], path, uppers).values[0]

    weak, strong = lower0(0.1), lower0(0.6)
    assert np.all(strong <= weak)


def test_positivity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = random_valid_model(rng)
        path = sample_driving_path(model.marks, 3.0, 2.0**-8, int(rng.integers(1 << 31)))
        traj = simulate_system(model, random_x0(rng, model.n), path)
        assert np.all(traj.values[np.isfinite(traj.values)] > 0)


def test_strongly_dying_path_flags_divergence():
    model = constant_model(1, a=0.01, b=1.0, sigma=3.0)
    path = sample_driving_path(model.marks, 256.0, 2.0**-4, 3)
    traj = simulate_upper(model, 0, 1.0, path)
    assert traj.diverged
    assert traj.diverged_at is not None and 0 < traj.diverged_at <= 256.0
    assert np.isnan(traj.values[0, -1])
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue().strip().splitlines()[-1].startswith("DIVERGED,")


def test_nan_increment_is_hard_error():
    model = constant_model(1, a=1.0, b=1.0, sigma=0.5)
    clean = sample_driving_path(model.marks, 1.0, 0.25, 1)
    incs = clean.node_increments.copy()
    incs[1] = np.nan
    bad = DrivingPath(
        T=clean.T, h=clean.h, seed=clean.seed, mark_count=0,
        node_times=clean.node_times, node_increments=incs,
        jump_times=clean.jump_times, jump_marks=clean.jump_marks,
        extra_times=clean.extra_times, rng_algorithm_id="manual",
    )
    with pytest.raises(IntegrationError):
        simulate_system(model, [1.0], bad)


def test_kernels_leave_the_cyclic_collector_idle():
    # The step loops keep only floats alive, so a long path triggers no
    # collection; a list kept per slot would survive the whole path and set
    # off collections that each walk the whole heap.
    model = constant_model(3, a=1.0, b=1.0, sigma=0.3, gamma=0.2, weights=(1.0,))
    path = sample_driving_path(model.marks, 40.0, 2.0**-9, 3)
    uppers = [simulate_upper(model, i, 1.0, path) for i in range(3)]
    calls = {
        "system": lambda: simulate_system(model, [1.0, 1.0, 1.0], path),
        "upper": lambda: simulate_upper(model, 0, 1.0, path),
        "lower": lambda: simulate_lower(model, 1, 1.0, path, uppers),
    }
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        for name, call in calls.items():
            started.clear()
            call()
            assert len(started) <= 1, (name, started)
    finally:
        gc.callbacks.remove(count)


def test_invalid_model_is_rejected():
    model = constant_model(1, a=1.0, b=1.0, sigma=0.5, gamma=-1.0, weights=(1.0,))
    path = sample_driving_path(model.marks, 1.0, 0.25, 1)
    with pytest.raises(DomainError):
        simulate_system(model, [1.0], path)


def test_lower_requires_matching_grid():
    model = constant_model(2, a=1.0, b=[[1.0, 0.2], [0.1, 1.0]], sigma=0.2)
    path_a = sample_driving_path(model.marks, 2.0, 0.25, 1)
    path_b = sample_driving_path(model.marks, 2.0, 0.125, 1)
    uppers = [simulate_upper(model, i, 1.0, path_b) for i in range(2)]
    with pytest.raises(GridMismatchError):
        simulate_lower(model, 0, 1.0, path_a, uppers)


def test_trajectory_csv_layout(deterministic_model):
    path = sample_driving_path(deterministic_model.marks, 1.0, 0.5, 1)
    traj = simulate_system(deterministic_model, [0.5], path)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,slot_kind,X_1"
    assert len(lines) == 1 + traj.grid.n_slots
    assert lines[1].startswith("0,grid,0.5")
