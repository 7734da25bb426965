"""Integrator: oracles, jump rule, pathwise comparison, divergence handling."""

import gc
import hashlib
import io
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lvjumps
from lvjumps import (
    Const,
    MarkSpace,
    ModelSpec,
    PiecewiseConst,
    Sinusoid,
    Trajectory,
    constant_model,
    dump_model,
    explicit_logistic,
    noise,
    sample_driving_path,
    simulate_lower,
    simulate_system,
    simulate_upper,
    write_trajectory_csv,
)
from lvjumps import integrate
from lvjumps.analysis import estimate_moment, lyapunov_functional_mc
from lvjumps.cli import main
from lvjumps.errors import DomainError, GridMismatchError, IntegrationError
from lvjumps.integrate import _libm, _summarise, _write_table, format_float
from lvjumps.noise import KIND_LABELS, DrivingPath
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
    return with_increment(path, at, np.nan)


def with_increment(path, at, value):
    incs = path.node_increments.copy()
    incs[at] = value
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
        lambda: _summarise(model, [1.0] * n, [bad]),
    ]
    for call in calls:
        with pytest.raises(IntegrationError) as err:
            call()
        assert str(err.value) == "NaN state at t=0.5"


def assert_summary_of(summary, traj, at, trapezoid=True):
    """``summary`` holds what ``traj`` gives at the node times ``at``, at its
    end and, with ``trapezoid``, in its growth functional's trapezoid terms."""
    if traj.diverged:
        assert summary is None
        return
    at_states, final, terms = summary
    grid = traj.grid
    assert at_states.tobytes() == traj.values[:, grid.slots_at(at)].tobytes()
    assert final.tobytes() == traj.values[:, -1].tobytes()
    if not trapezoid:
        assert terms is None
        return
    norms = traj.slot_norms()
    want = 0.5 * np.diff(grid.times) * (
        norms[grid.interval_start_slots()] + norms[grid.interval_end_slots()]
    )
    assert terms.tobytes() == want.tobytes()


def uniform_nodes(T, h):
    return np.linspace(0.0, T, round(T / h) + 1)[1:]


def test_batched_kernel_matches_single_path_kernels():
    # the batched Monte Carlo kernel must give every path what simulate_system
    # / simulate_upper give it: the states at every uniform node, and at every
    # jump node for a path alone, the final state and the functional's
    # trapezoid terms, which hold the norms before and after every jump
    rng = np.random.default_rng(31)
    checked = 0
    for k in range(40):
        model = random_valid_model(rng)
        x0 = random_x0(rng, model.n)
        extra = tuple(b for b in model.pwc_breakpoints() if 0 < b < 3.0)
        paths = [
            sample_driving_path(model.marks, 3.0, 2.0**-8, int(rng.integers(1 << 31)),
                                extra_times=extra)
            for _ in range(5)
        ]
        at = uniform_nodes(3.0, 2.0**-8)[k % 3 :: 1 + k % 4]
        for path, summary in zip(paths, _summarise(model, x0, paths, at=at, trapezoid=True)):
            assert_summary_of(summary, simulate_system(model, x0, path), at)
            checked += 1
        for i in range(model.n):
            summaries = _summarise(model, x0[i], paths, i, at, trapezoid=k % 2 == 0)
            for path, summary in zip(paths, summaries):
                assert_summary_of(summary, simulate_upper(model, i, x0[i], path), at, k % 2 == 0)
                checked += 1
        path = paths[k % 5]
        at = np.union1d(at, path.jump_times)
        (summary,) = _summarise(model, x0, [path], at=at, trapezoid=True)
        assert_summary_of(summary, simulate_system(model, x0, path), at)
    assert checked > 400
    # at h = 2^-5 one tabulation block spans 4 time units: a path that has
    # left the window would leave it again within the block if it moved on
    diverged = 0
    for n, h in ((1, 2.0**-8), (2, 2.0**-8), (3, 2.0**-8), (2, 2.0**-5)):
        model = diverging_model(n)
        paths = [sample_driving_path(model.marks, 5.0, h, seed) for seed in range(4)]
        at = uniform_nodes(5.0, h)
        for path, summary in zip(paths, _summarise(model, [1.0] * n, paths, at=at, trapezoid=True)):
            traj = simulate_system(model, [1.0] * n, path)
            assert_summary_of(summary, traj, at)
            diverged += traj.diverged
        for path, summary in zip(paths, _summarise(model, 1.0, paths, 0, at, trapezoid=True)):
            traj = simulate_upper(model, 0, 1.0, path)
            assert_summary_of(summary, traj, at)
            diverged += traj.diverged
    assert diverged == 32


def test_batched_kernel_handles_paths_of_different_lengths():
    model = constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(3.0,),
    )
    paths = [sample_driving_path(model.marks, 4.0, 2.0**-6, seed) for seed in range(6)]
    assert len({len(p.node_times) for p in paths}) > 3
    at = uniform_nodes(4.0, 2.0**-6)
    for path, summary in zip(paths, _summarise(model, [0.8, 1.3], paths, at=at, trapezoid=True)):
        assert summary is not None
        assert_summary_of(summary, simulate_system(model, [0.8, 1.3], path), at)


def test_a_path_gets_the_same_bytes_alone_and_in_a_batch_of_257():
    model = constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(1.0,),
    )
    paths = [sample_driving_path(model.marks, 2.0, 2.0**-6, seed) for seed in range(257)]
    at = uniform_nodes(2.0, 2.0**-6)

    def summary_bytes(batch, k):
        return pickle.dumps(_summarise(model, [0.8, 1.3], batch, at=at, trapezoid=True)[k])

    among = _summarise(model, [0.8, 1.3], paths, at=at, trapezoid=True)
    for k in (0, 128, 256):
        assert summary_bytes([paths[k]], 0) == pickle.dumps(among[k])
        assert summary_bytes([paths[k], paths[k - 1]], 0) == pickle.dumps(among[k])
        assert_summary_of(among[k], simulate_system(model, [0.8, 1.3], paths[k]), at)


@pytest.mark.parametrize("seed", range(3))
def test_a_lone_one_species_path_gets_the_bytes_of_the_single_path_kernels(seed):
    # its 1 x 1 state counts as contiguous, where numpy would run its SIMD exp
    model = constant_model(1, a=1.5, b=1.0, sigma=0.8, gamma=0.4, weights=(2.0,))
    path = sample_driving_path(model.marks, 20.0, 2.0**-6, seed)
    at = uniform_nodes(20.0, 2.0**-6)
    (summary,) = _summarise(model, 0.7, [path], 0, at, trapezoid=True)
    assert_summary_of(summary, simulate_upper(model, 0, 0.7, path), at)
    (summary,) = _summarise(model, [0.7], [path], at=at, trapezoid=True)
    assert_summary_of(summary, simulate_system(model, [0.7], path), at)


BATCH_MODELS = {
    "const": constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(3.0,),
    ),
    "timed": ModelSpec(
        n=2,
        a=(Sinusoid(1.2, 0.3, 2.0), Const(0.9)),
        B=((Const(1.0), PiecewiseConst((1.0,), (0.4, 0.2))),
           (Const(0.3), Sinusoid(0.8, 0.2, 1.5))),
        sigma=(Const(0.5), PiecewiseConst((0.7,), (0.6, 0.3))),
        gamma=((Sinusoid(0.4, 0.2, 3.0),), (Const(-0.3),)),
        marks=MarkSpace((3.0,)),
    ),
}


@pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
def test_a_path_gets_the_same_bytes_in_batches_of_any_size(kind):
    # a constant model is tabulated at one time per block, a timed one at
    # every node: either way a path's bytes must not depend on its batch,
    # one path that leaves the log window included
    model = BATCH_MODELS[kind]
    T, h = 3.0, 2.0**-6
    extra = tuple(b for b in model.pwc_breakpoints() if 0 < b < T)
    paths = [sample_driving_path(model.marks, T, h, seed, extra_times=extra) for seed in range(30)]
    paths[11] = with_increment(paths[11], 40, 5e3)
    at = uniform_nodes(T, h)[::7]

    def summaries(batch):
        return [pickle.dumps(s) for s in _summarise(model, [0.8, 1.3], batch, at=at, trapezoid=True)]

    alone = [summaries([path])[0] for path in paths]
    assert [k for k, b in enumerate(alone) if pickle.loads(b) is None] == [11]
    for size in (4, 7, 23, len(paths)):
        batched = [b for k in range(0, len(paths), size) for b in summaries(paths[k : k + size])]
        assert batched == alone, size
    for path, summary in zip(paths, alone):
        assert_summary_of(pickle.loads(summary), simulate_system(model, [0.8, 1.3], path), at)


def test_nan_increment_in_one_path_of_a_batch_is_hard_error():
    model = constant_model(2, a=1.0, b=[[1.0, 0.2], [0.1, 1.0]], sigma=0.5)
    paths = [sample_driving_path(model.marks, 1.0, 0.25, seed) for seed in range(5)]
    paths[3] = with_nan_increment(paths[3], 2)
    with pytest.raises(IntegrationError, match="NaN state at t=0.75"):
        _summarise(model, [1.0, 1.0], paths)


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


def test_norms_past_the_float64_squares_are_scaled():
    values = np.array([[3e-200, 1.0, 3e200, 5e-324], [4e-200, 2.0, 4e200, 5e-324]])
    norms = integrate._species_norms(values)
    assert norms[1] == math.sqrt(1.0 * 1.0 + 2.0 * 2.0)
    assert norms[[0, 2]] == pytest.approx([5e-200, 5e200], rel=1e-15)
    assert norms[3] == 5e-324 * math.sqrt(2.0)
    assert integrate._species_norms(np.array([1e-200])) == 1e-200


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


def reference_table(header, columns):
    """What a per-cell writer gives: strings as they are, numbers as
    ``format(float(v), ".17g")``."""
    cells = [[v if isinstance(v, str) else format(float(v), ".17g") for v in col] for col in columns]
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


EDGE_CELLS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
    7, -3, 2**60, np.float64(0.1), 1 / 3, 2.5e-300,
]


def test_format_float_is_the_17_digit_format():
    for v in EDGE_CELLS:
        assert format_float(v) == format(float(v), ".17g")


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_table_matches_a_per_cell_reference(rows):
    # tables shorter than, as long as and longer than one block of rows
    rng = np.random.default_rng(rows)
    edges = [EDGE_CELLS[k % len(EDGE_CELLS)] for k in range(rows)]
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    flags = ["true" if f else "false" for f in (rng.random(rows) < 0.5).tolist()]
    header = ["edge", "flag", "spread", "reversed"]
    columns = [edges, flags, spread, spread.tolist()[::-1]]
    buf = io.StringIO()
    _write_table(buf, header, columns)
    assert buf.getvalue() == reference_table(header, columns)


@pytest.mark.parametrize(
    "column",
    [["grid", 1.0], [1.0, "grid"], ["left"] * 5000 + [0.5], [0.5] * 5000 + ["post"]],
)
def test_table_column_mixing_strings_and_numbers_raises(column):
    with pytest.raises(TypeError):
        _write_table(io.StringIO(), ["x"], [column])


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [1.0]], [np.zeros(3), ["a", "b"]], [[], [1.0]]])
def test_table_columns_of_different_lengths_raise(columns):
    with pytest.raises(ValueError):
        _write_table(io.StringIO(), ["x", "y"], columns)


def test_diverged_csv_keeps_its_cutoff_and_sentinel():
    model = constant_model(1, a=0.01, b=1.0, sigma=3.0)
    path = sample_driving_path(model.marks, 256.0, 2.0**-4, 3)
    traj = simulate_upper(model, 0, 1.0, path)
    grid = traj.grid
    stop = int(np.flatnonzero(np.isnan(traj.values[0]))[0])
    assert traj.diverged and 0 < stop < grid.n_slots
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, header_names=["Y_1"])
    kinds = [KIND_LABELS[k] for k in grid.slot_kinds[:stop].tolist()]
    want = reference_table(
        ["time", "slot_kind", "Y_1"], [grid.slot_times[:stop], kinds, traj.values[0, :stop]]
    )
    assert buf.getvalue() == want + f"DIVERGED,{format(traj.diverged_at, '.17g')},\n"


def test_simulate_files_on_one_grid_match_lone_writes(tmp_path, monkeypatch):
    # every file of one run renders the grid's time and kind cells once; each
    # must equal its trajectory written alone on a grid of its own
    model = ModelSpec(
        n=1,
        a=(PiecewiseConst((0.75,), (1.5, 0.8)),),
        B=((Const(1.0),),),
        sigma=(Sinusoid(0.4, 0.2, 3.0),),
        gamma=((Const(0.3),),),
        marks=MarkSpace((2.0,)),
    )
    f = tmp_path / "model.json"
    dump_model(model, f)
    out = tmp_path / "o"
    built = []
    merge_grid = noise.merge_grid
    monkeypatch.setattr(noise, "merge_grid", lambda path: built.append(path) or merge_grid(path))
    code = main(
        ["simulate", "--model", str(f), "--out", str(out), "--T", "2", "--h", str(2.0**-11),
         "--seed", "5", "--x0", "0.7", "--with-bounds", "--with-oracle"]
    )
    assert code == 0 and len(built) == 1
    monkeypatch.undo()

    def fresh():
        return sample_driving_path(model.marks, 2.0, 2.0**-11, 5, extra_times=(0.75,))

    def alone(traj, names=None):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, header_names=names)
        return buf.getvalue()

    path = fresh()
    assert path.grid.n_slots > 4096  # more than one block of rows
    uppers = [simulate_upper(model, 0, 0.7, path)]
    oracle = explicit_logistic(model, 0, 0.7, fresh())
    want = {
        "trajectory_X.csv": alone(simulate_system(model, [0.7], fresh())),
        "trajectory_Y_1.csv": alone(simulate_upper(model, 0, 0.7, fresh()), ["Y_1"]),
        "trajectory_Z_1.csv": alone(simulate_lower(model, 0, 0.7, path, uppers), ["Z_1"]),
        "oracle.csv": alone(Trajectory(oracle.grid, oracle.values[None, :]), ["oracle"]),
    }
    for name, text in want.items():
        assert (out / name).read_bytes() == text.encode(), name


CRITERION_9 = constant_model(
    2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
    gamma=((0.3,), (-0.4,)), weights=(1.0,),
)


def batched_estimates() -> bytes:
    """Two estimators whose batched kernel takes every state's exp through ``_libm``."""
    return pickle.dumps((
        lyapunov_functional_mc(CRITERION_9, [1.0, 1.0], 3.0, 2.0**-6, 7, 5),
        estimate_moment(CRITERION_9, [1.0, 1.0], 2.0, 3.0, 2.0**-6, 7, 5, checkpoint_count=9),
    ))


def by_math(fn, values):
    return np.array([[fn(v) for v in row] for row in values.tolist()])


def test_libm_fallback_gives_the_same_bytes(monkeypatch):
    fast = batched_estimates()
    monkeypatch.setattr(integrate, "_reversal_is_libm", lambda ufunc: False)
    assert batched_estimates() == fast


def backwards(values):
    """A view equal to ``values`` that lies backwards in memory, the input layout of ``_libm``."""
    return values.ravel()[::-1].copy()[::-1].reshape(values.shape)


def test_libm_self_check_picks_the_fallback_when_the_fast_form_differs(monkeypatch):
    fast = integrate._reversed

    def one_ulp_off(ufunc, values, out):
        fast(ufunc, values, out)
        out.reshape(-1)[1234] = np.nextafter(out.reshape(-1)[1234], np.inf)  # one probe value
        return out

    monkeypatch.setattr(integrate, "_reversed", one_ulp_off)
    integrate._reversal_is_libm.cache_clear()
    try:
        assert not integrate._reversal_is_libm(np.exp)
        values = np.random.default_rng(4).uniform(-50.0, 50.0, (2, 3000))
        got = _libm(np.exp, backwards(values), np.empty(values.shape))
        assert np.array_equal(got, by_math(math.exp, values))
    finally:
        integrate._reversal_is_libm.cache_clear()


@pytest.mark.parametrize("P", [1, 4, 257])
@pytest.mark.parametrize("fast", [True, False])
def test_libm_keeps_shape_and_order(monkeypatch, fast, P):
    monkeypatch.setattr(integrate, "_reversal_is_libm", lambda ufunc: fast)
    values = np.random.default_rng(P).uniform(-50.0, 50.0, (3, P))
    for want_of in (values, values.T):  # a transposed shape too
        out = np.empty(want_of.shape)
        got = _libm(np.exp, backwards(want_of), out)
        assert got is out and got.shape == want_of.shape
        assert np.array_equal(got, by_math(math.exp, want_of))


def test_libm_takes_a_single_value_through_math():
    # one value counts as contiguous, so numpy would run its SIMD exp on it
    values = np.random.default_rng(5).uniform(-5.0, 5.0, 20000)
    want = [math.exp(v) for v in values.tolist()]
    out = np.empty((1, 1))
    assert [_libm(np.exp, backwards(np.array([[v]])), out)[0, 0] for v in values] == want


def test_batched_results_do_not_depend_on_the_simd_targets():
    # numpy's AVX-512 exp rounds differently from libm; with those targets
    # disabled numpy's plain exp is libm's, so the bytes must not move
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [
        t for t in umath.__cpu_dispatch__
        if (t.startswith("AVX512") or t == "X86_V4") and umath.__cpu_features__.get(t)
    ]
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this machine")
    src = str(Path(lvjumps.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import hashlib, test_integrate as t; "
            "print(hashlib.sha256(t.batched_estimates()).hexdigest())")
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        cwd=str(Path(__file__).resolve().parent),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[-1] == hashlib.sha256(batched_estimates()).hexdigest()
