"""Integrator: oracles, jump rule, pathwise comparison, divergence handling."""

import gc
import io
import math

import numpy as np
import pytest

from lvjumps import (
    ModelSpec,
    constant_model,
    noise,
    sample_driving_path,
    simulate_lower,
    simulate_system,
    simulate_upper,
    write_trajectory_csv,
)
from lvjumps.analysis import lyapunov_functional_mc
from lvjumps.errors import DomainError, GridMismatchError, IntegrationError
from lvjumps.integrate import _simulate_paths
from lvjumps.noise import DrivingPath
from conftest import random_valid_model, random_x0


def assert_same_trajectory(got, want):
    assert got.diverged == want.diverged
    assert got.diverged_at == want.diverged_at
    assert got.grid.same_nodes(want.grid)
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values, want.values, equal_nan=True)


def diverging_model(n):
    """Species 0 has sigma = 40, so its upper solution leaves the log window."""
    return constant_model(
        n, a=1.0, b=1.0, sigma=(40.0,) + (0.3,) * (n - 1) if n > 1 else 40.0,
        gamma=0.3, weights=(2.0,),
    )


def with_nan_increment(path, at):
    incs = path.node_increments.copy()
    incs[at] = np.nan
    return DrivingPath(
        T=path.T, h=path.h, seed=path.seed, mark_count=path.mark_count,
        node_times=path.node_times, node_increments=incs,
        jump_times=path.jump_times, jump_marks=path.jump_marks,
        extra_times=path.extra_times, rng_algorithm_id="manual",
    )


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
    bad = with_nan_increment(sample_driving_path(model.marks, 1.0, 0.25, 1), 1)
    with pytest.raises(IntegrationError):
        simulate_system(model, [1.0], bad)


@pytest.mark.parametrize("n", [1, 2])
def test_nan_error_names_the_time_as_a_plain_float(n):
    # the NaN appears over the interval [0.25, 0.5], so at node t = 0.5
    model = constant_model(n, a=1.0, b=1.0, sigma=0.5)
    bad = with_nan_increment(sample_driving_path(model.marks, 1.0, 0.25, 1), 1)
    calls = [
        lambda: simulate_system(model, [1.0] * n, bad),
        lambda: simulate_upper(model, 0, 1.0, bad),
        lambda: list(_simulate_paths(model, [1.0] * n, [bad])),
    ]
    for call in calls:
        with pytest.raises(IntegrationError) as err:
            call()
        assert str(err.value) == "NaN state at t=0.5"


def test_batched_kernel_matches_single_path_kernels():
    # the batched Monte Carlo kernel must give every path the bytes of
    # simulate_system / simulate_upper, NaN slots and divergence included
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        model = random_valid_model(rng)
        x0 = random_x0(rng, model.n)
        extra = tuple(b for b in model.pwc_breakpoints() if 0 < b < 3.0)
        paths = [
            sample_driving_path(model.marks, 3.0, 2.0**-8, int(rng.integers(1 << 31)),
                                extra_times=extra)
            for _ in range(5)
        ]
        for path, traj in zip(paths, _simulate_paths(model, x0, paths)):
            assert_same_trajectory(traj, simulate_system(model, x0, path))
            checked += 1
        for i in range(model.n):
            for path, traj in zip(paths, _simulate_paths(model, x0[i], paths, species=i)):
                assert_same_trajectory(traj, simulate_upper(model, i, x0[i], path))
                checked += 1
    assert checked > 400
    # at h = 2^-5 one tabulation block spans 4 time units: a path that has
    # left the window would leave it again within the block if it moved on
    diverged = 0
    for n, h in ((1, 2.0**-8), (2, 2.0**-8), (3, 2.0**-8), (2, 2.0**-5)):
        model = diverging_model(n)
        paths = [sample_driving_path(model.marks, 5.0, h, seed) for seed in range(4)]
        for path, traj in zip(paths, _simulate_paths(model, [1.0] * n, paths)):
            assert_same_trajectory(traj, simulate_system(model, [1.0] * n, path))
            diverged += traj.diverged
        for path, traj in zip(paths, _simulate_paths(model, 1.0, paths, species=0)):
            assert_same_trajectory(traj, simulate_upper(model, 0, 1.0, path))
            diverged += traj.diverged
    assert diverged == 32


def test_batched_kernel_handles_paths_of_different_lengths():
    model = constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(3.0,),
    )
    paths = [sample_driving_path(model.marks, 4.0, 2.0**-6, seed) for seed in range(6)]
    assert len({len(p.node_times) for p in paths}) > 3
    for path, traj in zip(paths, _simulate_paths(model, [0.8, 1.3], paths)):
        assert not traj.diverged
        assert_same_trajectory(traj, simulate_system(model, [0.8, 1.3], path))


def test_a_path_gets_the_same_bytes_alone_and_in_a_batch_of_257():
    model = constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(1.0,),
    )
    paths = [sample_driving_path(model.marks, 2.0, 2.0**-6, seed) for seed in range(257)]
    among = list(_simulate_paths(model, [0.8, 1.3], paths))
    for k in (0, 128, 256):
        # a lone path runs the single-path loop; two is the smallest batch
        (alone,) = _simulate_paths(model, [0.8, 1.3], [paths[k]])
        paired, _ = _simulate_paths(model, [0.8, 1.3], [paths[k], paths[k - 1]])
        assert_same_trajectory(alone, among[k])
        assert_same_trajectory(paired, among[k])


def test_nan_increment_in_one_path_of_a_batch_is_hard_error():
    model = constant_model(2, a=1.0, b=[[1.0, 0.2], [0.1, 1.0]], sigma=0.5)
    paths = [sample_driving_path(model.marks, 1.0, 0.25, seed) for seed in range(5)]
    paths[3] = with_nan_increment(paths[3], 2)
    with pytest.raises(IntegrationError, match="NaN state at t=0.75"):
        list(_simulate_paths(model, [1.0, 1.0], paths))


@pytest.mark.parametrize("seed, cut", [(0, 0.910), (1, 0.961), (2, 0.891), (3, 1.023)])
def test_lower_flags_divergence_where_a_competitor_upper_diverged(seed, cut):
    # species 0's upper solution leaves the log window; species 1's lower
    # system needs it as frozen competitor, so it cannot be computed beyond
    # the next node and is flagged diverged there instead of raising
    model = diverging_model(2)
    path = sample_driving_path(model.marks, 5.0, 2.0**-8, seed)
    uppers = [simulate_upper(model, i, 1.0, path) for i in range(2)]
    assert uppers[0].diverged
    lower = simulate_lower(model, 1, 1.0, path, uppers)
    grid = lower.grid
    first_unknown = int(np.flatnonzero(np.isnan(uppers[0].values[0, grid.interval_start_slots()]))[0])
    assert lower.diverged
    assert lower.diverged_at == float(grid.times[first_unknown + 1])
    assert round(lower.diverged_at, 3) == cut
    stop = grid.node_first_slot[first_unknown + 1]
    assert np.all(lower.values[0, :stop] > 0)
    assert np.all(np.isnan(lower.values[0, stop:]))
    assert np.all(lower.values[0, :stop] <= uppers[1].values[0, :stop])


def test_kernels_leave_the_cyclic_collector_idle():
    # The step loops keep only floats alive, so a long path triggers no
    # collection; a list kept per slot would survive the whole path and set
    # off collections that each walk the whole heap.  The batched kernel
    # behind the Monte Carlo estimators keeps its states in arrays.
    model = constant_model(3, a=1.0, b=1.0, sigma=0.3, gamma=0.2, weights=(1.0,))
    path = sample_driving_path(model.marks, 40.0, 2.0**-9, 3)
    uppers = [simulate_upper(model, i, 1.0, path) for i in range(3)]
    calls = {
        "system": lambda: simulate_system(model, [1.0, 1.0, 1.0], path),
        "upper": lambda: simulate_upper(model, 0, 1.0, path),
        "lower": lambda: simulate_lower(model, 1, 1.0, path, uppers),
        "batched": lambda: lyapunov_functional_mc(model, [1.0, 1.0, 1.0], 10.0, 2.0**-7, 100, 3),
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


def test_one_path_builds_one_grid(monkeypatch):
    # the full system and every comparison system of one path share its grid
    built = []
    merge_grid = noise.merge_grid
    monkeypatch.setattr(noise, "merge_grid", lambda path: built.append(path) or merge_grid(path))
    model = constant_model(
        3, a=1.0, b=[[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.1, 0.9]], sigma=0.3,
        gamma=0.2, weights=(1.5,),
    )
    path = sample_driving_path(model.marks, 2.0, 2.0**-6, 0)
    assert path.jump_count > 0
    full = simulate_system(model, [1.0, 1.0, 1.0], path)
    uppers = [simulate_upper(model, i, 1.0, path) for i in range(3)]
    lowers = [simulate_lower(model, i, 1.0, path, uppers) for i in range(3)]
    assert built == [path]
    assert all(traj.grid is full.grid for traj in uppers + lowers)


def test_trajectory_csv_layout(deterministic_model):
    path = sample_driving_path(deterministic_model.marks, 1.0, 0.5, 1)
    traj = simulate_system(deterministic_model, [0.5], path)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,slot_kind,X_1"
    assert len(lines) == 1 + traj.grid.n_slots
    assert lines[1].startswith("0,grid,0.5")
