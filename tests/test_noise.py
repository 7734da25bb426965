"""Driving-path generation: jump laws, determinism, grids, dumps."""

import io
import math

import numpy as np
import pytest
from scipy import stats

from lvjumps import (
    DrivingPath,
    MarkSpace,
    coarsen_path,
    load_path,
    merge_grid,
    sample_driving_path,
    save_path,
)
from lvjumps.analysis import default_checkpoints
from lvjumps.errors import ConfigurationError
from lvjumps.noise import KIND_GRID, KIND_LEFT, KIND_POST, derive_path_seed


def test_zero_intensity_never_jumps():
    marks = MarkSpace(())
    for seed in range(10):
        path = sample_driving_path(marks, 3.0, 0.5, seed)
        assert path.jump_count == 0


def test_poisson_count_moments():
    # counting process at rate 2 on [0, 5]: mean 10; 10_000 paths keep the
    # sample mean within 4*sqrt(10/10_000) of it
    marks = MarkSpace((2.0,))
    counts = [sample_driving_path(marks, 5.0, 1.25, derive_path_seed(7, j)).jump_count
              for j in range(10_000)]
    assert abs(np.mean(counts) - 10.0) < 4.0 * math.sqrt(10.0 / 10_000)


def test_bit_exact_regeneration():
    marks = MarkSpace((1.0, 0.5))
    first = sample_driving_path(marks, 4.0, 0.25, 99)
    again = sample_driving_path(marks, 4.0, 0.25, 99)
    assert np.array_equal(first.node_times, again.node_times)
    assert np.array_equal(first.node_increments, again.node_increments)
    assert np.array_equal(first.jump_times, again.jump_times)
    assert np.array_equal(first.jump_marks, again.jump_marks)
    other = sample_driving_path(marks, 4.0, 0.25, 100)
    assert not np.array_equal(first.brownian_increments, other.brownian_increments)


def test_cell_increments_have_unit_step_variance():
    marks = MarkSpace(())
    path = sample_driving_path(marks, 100.0, 1e-3, 12345)
    incs = path.brownian_increments
    assert len(incs) == 100_000
    h = 1e-3
    sample_var = incs.var(ddof=1)
    se = h * math.sqrt(2.0 / (len(incs) - 1))
    assert abs(sample_var - h) < 5.0 * se


def test_interarrival_times_exponential():
    marks = MarkSpace((1.0,))
    T = 110_000.0
    path = sample_driving_path(marks, T, T / 4, 2024)
    gaps = np.diff(np.concatenate(([0.0], path.jump_times)))[:100_000]
    assert len(gaps) == 100_000
    res = stats.kstest(gaps, "expon", args=(0.0, 1.0))
    assert res.pvalue > 1e-3


def test_mark_frequencies_match_weights():
    weights = (0.5, 1.5, 1.0)
    marks = MarkSpace(weights)
    T = 40_000.0
    path = sample_driving_path(marks, T, T / 4, 55)
    observed = np.bincount(path.jump_marks, minlength=3)
    expected = np.asarray(weights) / sum(weights) * path.jump_count
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 1e-3


def test_merge_grid_no_jumps():
    marks = MarkSpace(())
    path = sample_driving_path(marks, 1.0, 0.5, 0)
    grid = merge_grid(path)
    assert np.array_equal(grid.times, [0.0, 0.5, 1.0])
    assert np.array_equal(grid.slot_kinds, [KIND_GRID] * 3)


def _path_with_jump_at(tau, T=1.0, h=0.5, mark=0):
    node_times = np.unique(np.concatenate((np.linspace(0, T, round(T / h) + 1), [tau])))
    return DrivingPath(
        T=T,
        h=h,
        seed=0,
        mark_count=1,
        node_times=node_times,
        node_increments=np.zeros(len(node_times) - 1),
        jump_times=np.asarray([tau]),
        jump_marks=np.asarray([mark], dtype=np.int64),
        extra_times=np.empty(0),
        rng_algorithm_id="manual",
    )


def test_merge_grid_one_interior_jump():
    grid = merge_grid(_path_with_jump_at(0.3))
    assert np.array_equal(grid.times, [0.0, 0.3, 0.5, 1.0])
    assert np.array_equal(grid.slot_times, [0.0, 0.3, 0.3, 0.5, 1.0])
    assert list(grid.slot_kinds) == [KIND_GRID, KIND_LEFT, KIND_POST, KIND_GRID, KIND_GRID]
    # node values go to the node slots, post values to the post-jump slots
    nodes = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    assert np.array_equal(grid.on_slots(nodes[0], [9.0]), [1.0, 2.0, 9.0, 3.0, 4.0])
    assert np.array_equal(
        grid.on_slots(nodes, [[9.0], [10.0]]),
        [[1.0, 2.0, 9.0, 3.0, 4.0], [5.0, 6.0, 10.0, 7.0, 8.0]],
    )
    assert np.array_equal(grid.on_slots(nodes[0]), [1.0, 2.0, 2.0, 3.0, 4.0])


def test_merge_grid_jump_on_grid_node_dedups():
    grid = merge_grid(_path_with_jump_at(0.5))
    assert np.array_equal(grid.times, [0.0, 0.5, 1.0])
    assert np.array_equal(grid.slot_times, [0.0, 0.5, 0.5, 1.0])
    assert list(grid.slot_kinds) == [KIND_GRID, KIND_LEFT, KIND_POST, KIND_GRID]


def test_bad_time_grid_rejected():
    marks = MarkSpace(())
    with pytest.raises(ConfigurationError):
        sample_driving_path(marks, 1.0, 0.3, 0)
    with pytest.raises(ConfigurationError):
        sample_driving_path(marks, -1.0, 0.5, 0)
    with pytest.raises(ConfigurationError):
        sample_driving_path(marks, 1.0, 0.5, 0, extra_times=(1.5,))


def test_too_many_steps_rejected_before_allocation():
    marks = MarkSpace((1.0,))
    with pytest.raises(ConfigurationError):
        sample_driving_path(marks, 1e9, 1.0, 0)
    with pytest.raises(ConfigurationError):  # T/h overflows to inf
        sample_driving_path(marks, 1e308, 1e-308, 0)
    with pytest.raises(ConfigurationError):
        default_checkpoints(1e9, 1.0)


def test_coarsen_preserves_randomness():
    marks = MarkSpace((1.5,))
    fine = sample_driving_path(marks, 4.0, 2.0**-8, 31)
    coarse = coarsen_path(fine, 16)
    assert coarse.h == fine.h * 16
    assert np.array_equal(coarse.jump_times, fine.jump_times)
    # cell sums survive coarsening
    fine_cells = fine.brownian_increments.reshape(-1, 16).sum(axis=1)
    np.testing.assert_allclose(coarse.brownian_increments, fine_cells, rtol=0, atol=1e-15)
    assert coarse.brownian_endpoint() == pytest.approx(fine.brownian_endpoint(), abs=1e-12)
    with pytest.raises(ConfigurationError):
        coarsen_path(fine, 7)


def test_extra_times_at_generation():
    marks = MarkSpace(())
    path = sample_driving_path(marks, 1.0, 0.5, 3, extra_times=(math.log(2),))
    assert math.log(2) in path.node_times
    assert len(path.brownian_increments) == 2


def test_dump_round_trip(tmp_path):
    marks = MarkSpace((1.0, 2.0))
    path = sample_driving_path(marks, 3.0, 0.125, 4242)
    f = tmp_path / "path.bin"
    save_path(path, f)
    again = load_path(f)
    assert np.array_equal(path.node_times, again.node_times)
    assert np.array_equal(path.node_increments, again.node_increments)
    assert np.array_equal(path.jump_times, again.jump_times)
    assert np.array_equal(path.jump_marks, again.jump_marks)
    assert again.seed == path.seed and again.rng_algorithm_id == path.rng_algorithm_id

    buf = io.BytesIO()
    save_path(path, buf)
    buf.seek(0)
    assert np.array_equal(load_path(buf).node_increments, path.node_increments)


def test_dump_handles_full_width_seeds(tmp_path):
    marks = MarkSpace((1.0,))
    big = derive_path_seed(0, 0)
    assert big >= 0
    path = sample_driving_path(marks, 1.0, 0.25, big)
    f = tmp_path / "big.bin"
    save_path(path, f)
    assert load_path(f).seed == big


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError):
        sample_driving_path(MarkSpace(()), 1.0, 0.5, -3)


def test_dump_rejects_garbage():
    with pytest.raises(ConfigurationError):
        load_path(io.BytesIO(b"NOTAPATH" + b"\0" * 64))


def test_derived_seeds_are_distinct():
    seeds = {derive_path_seed(1, j) for j in range(1000)}
    assert len(seeds) == 1000
