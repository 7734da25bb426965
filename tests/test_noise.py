"""Driving-path generation: jump laws, determinism, grids, dumps."""

import io
import math

import numpy as np
import pytest
from scipy import stats

from lvjumps import (
    Const,
    DrivingPath,
    MarkSpace,
    ModelSpec,
    PiecewiseConst,
    coarsen_path,
    constant_model,
    load_path,
    merge_grid,
    sample_driving_path,
    save_path,
)
from lvjumps.analysis import default_checkpoints
from lvjumps.errors import ConfigurationError, GridMismatchError
from lvjumps.noise import _EXP_BLOCK, KIND_GRID, KIND_LEFT, KIND_POST, _merge, derive_path_seed


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


def test_slots_at_maps_node_times_to_slots():
    grid = _path_with_jump_at(0.3).grid
    assert grid.jump_nodes.tolist() == [1]
    assert grid.slots_at([0.0, 0.3, 0.5, 1.0]).tolist() == [0, 2, 3, 4]
    assert grid.slots_at([0.3, 0.5], kind="left").tolist() == [1, 3]
    assert grid.slot_at(0.3, "left") == 1 and grid.slot_at(1.0) == 4
    with pytest.raises(GridMismatchError, match="0.4"):
        grid.slots_at([0.3, 0.4])
    with pytest.raises(GridMismatchError):
        grid.slot_at(1.5)


def test_grid_rejects_jump_times_off_the_nodes():
    path = _path_with_jump_at(0.3)
    moved = DrivingPath(
        T=path.T, h=path.h, seed=0, mark_count=1, node_times=path.node_times,
        node_increments=path.node_increments, jump_times=np.asarray([0.25]),
        jump_marks=path.jump_marks, extra_times=path.extra_times,
    )
    with pytest.raises(GridMismatchError):
        moved.grid


def test_arrivals_up_to_T_are_drawn_when_the_block_sums_disagree(monkeypatch):
    # numpy sums a block pairwise but accumulates the arrivals sequentially;
    # for these gaps the pairwise sum passes T while the last arrival does not,
    # so the next block holds one more arrival, exactly at T
    first = np.full(_EXP_BLOCK, 0.01)
    last = np.cumsum(first)[-1]
    T = float(np.nextafter(first.sum(), 0.0))
    assert last < T < first.sum()
    second = np.full(_EXP_BLOCK, 1.0)
    second[0] = T - last
    blocks = [first, second]

    class Generator:
        def exponential(self, scale, size):
            return blocks.pop(0)

        def random(self, size):
            return np.zeros(size)

        def standard_normal(self, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
    path = sample_driving_path(MarkSpace((1.0,)), T, T, 0)
    assert path.jump_count == _EXP_BLOCK + 1 and path.jump_times[-1] == T


def unique_merge(path):
    """The path's nodes and jump nodes as ``np.unique`` and a lookup build them."""
    uniform = np.linspace(0.0, path.T, path.steps + 1)
    nodes = np.unique(np.concatenate((uniform, path.jump_times, path.extra_times)))
    return nodes, np.searchsorted(nodes, path.jump_times)


def test_sampler_merge_matches_the_unique_merge():
    # criterion 9, PERMANENT, and a model whose piecewise-constant rates add
    # extra nodes, one of them on the uniform grid
    criterion_9 = constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    permanent = constant_model(1, a=2.0, b=1.0, sigma=1.0, gamma=0.5, weights=(1.0,))
    pwc = ModelSpec(
        n=1, a=(PiecewiseConst((0.7, 1.5, 2.3), (1.0, 2.0, 1.5, 2.5)),),
        B=((Const(1.0),),), sigma=(Const(0.5),),
        gamma=((PiecewiseConst((1.1,), (0.3, -0.2)),),), marks=MarkSpace((3.0,)),
    )
    for model in (criterion_9, permanent, pwc):
        extra = tuple(b for b in model.pwc_breakpoints() if 0.0 < b < 3.0)
        for seed in range(200):
            path = sample_driving_path(model.marks, 3.0, 2.0**-5, derive_path_seed(seed, 0), extra)
            nodes, jump_nodes = unique_merge(path)
            assert path.node_times.tobytes() == nodes.tobytes()
            assert path.grid.jump_nodes.tobytes() == jump_nodes.tobytes()
            assert np.array_equal(np.flatnonzero(path.grid.is_jump), np.unique(jump_nodes))
            assert len(path.node_increments) == len(nodes) - 1


def test_merge_keeps_one_node_where_a_jump_meets_a_node():
    uniform = np.linspace(0.0, 1.0, 5)
    extra = np.asarray([0.3, 0.5, 0.6])  # 0.5 is a uniform node
    base, at = _merge(uniform, extra)
    assert base.tolist() == [0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0] and at.tolist() == [2, 3, 4]
    jumps = np.asarray([0.1, 0.25, 0.6, 0.7, 1.0])  # on a uniform node, an extra node, T
    nodes, at = _merge(base, jumps)
    want = np.unique(np.concatenate((uniform, extra, jumps)))
    assert nodes.tobytes() == want.tobytes()
    assert at.tolist() == np.searchsorted(want, jumps).tolist() == [1, 2, 5, 6, 8]


def scripted_generator(gaps):
    """A stand-in for ``np.random.default_rng`` whose exponential draws are ``gaps``."""

    class Generator:
        def exponential(self, scale, size):
            return np.concatenate((gaps, np.full(size - len(gaps), 10.0)))

        def random(self, size):
            return np.zeros(size)

        def standard_normal(self, size):
            return np.ones(size)

    return lambda seed: Generator()


def test_sampler_merges_jumps_on_uniform_and_extra_nodes(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", scripted_generator([0.25, 0.05, 0.2]))
    path = sample_driving_path(MarkSpace((1.0,)), 1.0, 0.25, 0, extra_times=(0.3, 0.6))
    assert path.jump_times.tolist() == [0.25, 0.3, 0.5]  # on the grid, on an extra node
    assert path.node_times.tolist() == [0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0]
    assert path.grid.jump_nodes.tolist() == [1, 2, 3]
    checked = DrivingPath(
        T=path.T, h=path.h, seed=path.seed, mark_count=path.mark_count,
        node_times=path.node_times, node_increments=path.node_increments,
        jump_times=path.jump_times, jump_marks=path.jump_marks, extra_times=path.extra_times,
    )
    assert checked.grid.same_nodes(path.grid) and np.array_equal(
        checked.grid.jump_nodes, path.grid.jump_nodes)


def test_sampler_refuses_jump_times_that_do_not_increase(monkeypatch):
    # a gap too small to move the running sum leaves two equal arrival times
    monkeypatch.setattr(np.random, "default_rng", scripted_generator([0.25, 1e-20]))
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        sample_driving_path(MarkSpace((1.0,)), 1.0, 0.25, 0)
    monkeypatch.setattr(np.random, "default_rng", scripted_generator([0.0]))
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        sample_driving_path(MarkSpace((1.0,)), 1.0, 0.25, 0)


def test_driving_path_checks_its_nodes():
    path = _path_with_jump_at(0.3)
    fields = dict(
        T=path.T, h=path.h, seed=0, mark_count=1, node_increments=path.node_increments,
        jump_times=path.jump_times, jump_marks=path.jump_marks, extra_times=path.extra_times,
    )
    for times in ([0.0, 0.5, 0.3, 1.0], [0.0, 0.3, 0.3, 1.0]):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            DrivingPath(node_times=np.asarray(times), **fields)


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
