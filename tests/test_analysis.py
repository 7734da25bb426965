"""Monte Carlo estimators: exact degenerate cases, consistency, determinism."""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import lvjumps
import numpy as np
import pytest
from scipy import stats

from lvjumps import (
    MarkSpace,
    MCSeries,
    Trajectory,
    constant_model,
    coupling_contraction,
    estimate_moment,
    explicit_logistic_log,
    invariant_distance,
    inverse_moment_check,
    lyapunov_functional,
    lyapunov_functional_mc,
    merge_grid,
    sample_driving_path,
    sample_lyapunov,
    sample_lyapunov_mc,
    simulate_upper,
)
from lvjumps.analysis import (
    _functional_run,
    _lyapunov_and_functional,
    _per_path,
    default_checkpoints,
    derive_path_seed,
    dkw_epsilon,
    terminal_sample,
    write_mc_csv,
)
from lvjumps import analysis
from lvjumps.analysis import _ks_statistic
from lvjumps.errors import ConfigurationError, PrerequisiteError
from lvjumps.integrate import simulate_system


def constant_trajectory(c, n, T=2.0, h=0.5):
    path = sample_driving_path(MarkSpace(()), T, h, 0)
    grid = merge_grid(path)
    return Trajectory(grid=grid, values=np.full((n, grid.n_slots), float(c)))


def test_checkpoints_live_on_grid():
    cps = default_checkpoints(400.0, 2.0**-6, 100)
    assert cps[0] > 0 and cps[-1] == 400.0
    assert 100.0 in cps
    assert np.all(np.diff(cps) > 0)


def test_moment_p0_is_exactly_one(benchmark_model):
    series = estimate_moment(benchmark_model, [1.0], 0.0, 2.0, 0.125, 20, 3)
    assert np.all(series.mean == 1.0)
    assert np.all(series.std_error == 0.0)


def test_moment_deterministic_model_matches_ode(deterministic_model):
    h = 2.0**-8
    series = estimate_moment(deterministic_model, [0.5], 2.0, 4.0, h, 5, 1)
    assert np.all(series.std_error < 1e-12)  # zero up to float summation
    t = series.checkpoints
    ode = np.exp(t) * 0.5 / (1.0 + 0.5 * (np.exp(t) - 1.0))
    np.testing.assert_allclose(series.mean, ode**2, rtol=20 * h)


def test_moment_internal_consistency_p1(benchmark_model):
    T, h, n_paths, seed = 3.0, 0.125, 25, 11
    series = estimate_moment(benchmark_model, [1.0], 1.0, T, h, n_paths, seed)
    finals = []
    for j in range(n_paths):
        path = sample_driving_path(benchmark_model.marks, T, h, derive_path_seed(seed, j))
        finals.append(simulate_system(benchmark_model, [1.0], path).values[0, -1])
    assert series.mean[-1] == np.mean(finals)


def test_lyapunov_functional_constant_trajectory():
    model = constant_model(2, a=1.0, b=[[0.8, 0.1], [0.2, 1.1]], sigma=0.0)
    c, n, T = 1.7, 2, 2.0
    traj = constant_trajectory(c, n, T=T)
    expected = math.log(c * math.sqrt(n)) / T + (0.8 / math.sqrt(n)) * c * math.sqrt(n)
    assert lyapunov_functional(traj, model) == pytest.approx(expected, rel=1e-12)


def test_sample_lyapunov_constant_one():
    traj = constant_trajectory(1.0, 1, T=4.0, h=0.5)
    series = sample_lyapunov(traj, 0)
    assert np.all(series.log_over_t == 0.0)
    valid = ~np.isnan(series.log_over_log_t)
    assert np.all(series.log_over_log_t[valid] == 0.0)
    assert np.isnan(series.log_over_log_t[series.times <= 1.0]).all()


def test_lyapunov_mc_runs_and_is_deterministic(extinct_model):
    a = sample_lyapunov_mc(extinct_model, 0, 1.0, 20.0, 2.0**-4, 30, 5)
    b = sample_lyapunov_mc(extinct_model, 0, 1.0, 20.0, 2.0**-4, 30, 5)
    assert np.array_equal(a.over_t.mean, b.over_t.mean)
    assert np.array_equal(a.final_values, b.final_values)
    # dying regime: the exponent estimate is already negative at T=20
    assert a.over_t.mean[-1] < 0


def test_log_over_log_t_stays_below_one(permanent_model):
    mc = sample_lyapunov_mc(permanent_model, 0, 1.0, 50.0, 2.0**-4, 50, 7)
    finals = mc.over_log_t.mean[-1]
    assert finals <= 1.1
    # per-path version
    paths_ok = 0
    for j in range(50):
        path = sample_driving_path(
            permanent_model.marks, 50.0, 2.0**-4, derive_path_seed(7, j)
        )
        traj = simulate_upper(permanent_model, 0, 1.0, path)
        v = math.log(traj.values[0, -1]) / math.log(50.0)
        paths_ok += v <= 1.1
    assert paths_ok >= 49


def test_inverse_moment_deterministic_fixed_point(deterministic_model):
    res = inverse_moment_check(deterministic_model, 0, 1.0, 5.0, 2.0**-6, 3, 1)
    np.testing.assert_allclose(res.series.mean, 1.0, rtol=1e-3)
    np.testing.assert_allclose(res.bound, 1.0, rtol=1e-12)


def test_inverse_moment_refuses_dying_model(extinct_model):
    with pytest.raises(PrerequisiteError, match="permanence"):
        inverse_moment_check(extinct_model, 0, 1.0, 5.0, 0.125, 5, 1)


def test_inverse_moment_bound_positive_for_large_x0(permanent_model):
    res = inverse_moment_check(permanent_model, 0, 1e6, 10.0, 2.0**-5, 10, 2)
    assert np.all(res.bound > 0)


def test_coupling_identical_initial_values(permanent_model):
    res = coupling_contraction(permanent_model, 0, 1.3, 1.3, 5.0, 2.0**-5, 20, 9)
    assert np.all(res.inverse_diff.mean == 0.0)
    assert np.all(res.half_moment_diff.mean == 0.0)
    assert res.sign_consistent_fraction == 1.0


def test_coupling_sign_invariance_and_decay(permanent_model):
    res = coupling_contraction(permanent_model, 0, 0.5, 2.0, 10.0, 2.0**-5, 200, 13)
    assert res.sign_consistent_fraction == 1.0
    assert res.all_ok
    # decay: the late mean is far below the early mean
    assert res.inverse_diff.mean[-1] < 0.05 * res.inverse_diff.mean[0]


def test_coupling_refuses_dying_model(extinct_model):
    with pytest.raises(PrerequisiteError):
        coupling_contraction(extinct_model, 0, 0.5, 2.0, 5.0, 0.125, 5, 1)


@pytest.mark.parametrize("x, y", [(0.0, 2.0), (0.5, 0.0), (-1.0, 2.0)])
def test_coupling_rejects_bad_start_values(permanent_model, x, y):
    with pytest.raises(ValueError, match="initial value must be positive"):
        coupling_contraction(permanent_model, 0, x, y, 2.0, 0.125, 5, 1)


def test_lyapunov_and_functional_build_one_grid_per_path(monkeypatch, benchmark_model):
    built = []
    merge_grid = lvjumps.noise.merge_grid
    monkeypatch.setattr(lvjumps.noise, "merge_grid", lambda path: built.append(path) or merge_grid(path))
    _lyapunov_and_functional(benchmark_model, 0, [1.0], 2.0, 0.125, 7, 3, 5)
    assert len(built) == 7 and len({id(path) for path in built}) == 7


def test_invariant_distance_same_start_is_zero(permanent_model):
    res = invariant_distance(permanent_model, 0, 1.0, 1.0, 5.0, 2.0**-5, 50, 21)
    assert res.distance == 0.0
    assert math.copysign(1.0, res.distance) == 1.0


def test_invariant_distance_one_path_warns_nothing(permanent_model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invariant_distance(permanent_model, 0, 0.5, 2.0, 2.0, 2.0**-5, 1, 21)
    assert res.distance in (0.0, 1.0)


def test_ks_statistic_matches_scipy():
    # random sizes, tied values and identical samples; the statistic must
    # carry scipy's bits, +0.0 for identical samples included
    rng = np.random.default_rng(2024)
    for k in range(3000):
        a = rng.normal(size=int(rng.integers(1, 300)))
        b = rng.normal(0.1, 1.2, size=int(rng.integers(1, 300)))
        if k % 3 == 1:
            a, b = np.round(a, 1), np.round(b, 1)
        elif k % 3 == 2:
            b = rng.permutation(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's unused p-value at tiny sizes
            want = float(stats.ks_2samp(a, b, method="asymp").statistic)
        assert repr(_ks_statistic(a, b)) == repr(want), (k, len(a), len(b))


def test_import_leaves_scipy_unloaded():
    src = str(Path(lvjumps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, lvjumps; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_invariant_distance_rejects_time_dependence():
    from lvjumps import ModelSpec, Sinusoid, Const

    m = ModelSpec(
        n=1, a=(Sinusoid(2.0, 0.5, 1.0, 0.0),), B=((Const(1.0),),),
        sigma=(Const(0.5),), gamma=((),), marks=MarkSpace(()),
    )
    with pytest.raises(PrerequisiteError, match="constant"):
        invariant_distance(m, 0, 0.5, 2.0, 5.0, 0.125, 5, 1)


def test_invariant_distance_converges(permanent_model):
    res = invariant_distance(permanent_model, 0, 0.5, 2.0, 25.0, 2.0**-5, 800, 23)
    assert res.distance <= res.sampling_floor
    assert res.sampling_floor == pytest.approx(2 * dkw_epsilon(800) + 0.02)


def test_terminal_sample_deterministic(permanent_model):
    a = terminal_sample(permanent_model, 0, 1.0, 5.0, 2.0**-5, 10, 3)
    b = terminal_sample(permanent_model, 0, 1.0, 5.0, 2.0**-5, 10, 3)
    assert np.array_equal(a, b)
    c = terminal_sample(permanent_model, 0, 1.0, 5.0, 2.0**-5, 10, 3, stream_offset=10)
    assert not np.array_equal(a, c)


def test_estimator_reruns_bit_identical(benchmark_model):
    s1 = estimate_moment(benchmark_model, [1.0], 2.0, 3.0, 0.125, 30, 17)
    s2 = estimate_moment(benchmark_model, [1.0], 2.0, 3.0, 0.125, 30, 17)
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.std_error, s2.std_error)


def test_mc_csv_format(tmp_path, benchmark_model):
    series = estimate_moment(benchmark_model, [1.0], 1.0, 2.0, 0.25, 5, 1, checkpoint_count=4)
    out = tmp_path / "series.csv"
    with open(out, "w") as fh:
        write_mc_csv(series, fh, bound=np.ones_like(series.mean), flags=series.mean < 10)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "checkpoint,mean,std_error,bound,flag"
    assert len(lines) == 1 + len(series.checkpoints)
    assert lines[1].endswith(",true") or lines[1].endswith(",false")


def test_functional_mc_refuses_when_every_path_diverges():
    model = constant_model(1, a=0.01, b=1.0, sigma=3.0)
    with pytest.raises(PrerequisiteError, match="diverged"):
        lyapunov_functional_mc(model, [1.0], 256.0, 2.0**-4, 2, 3)


def test_mc_series_rejects_nan_standard_error():
    t = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        MCSeries(checkpoints=t, mean=np.array([1.0, 1.0]), std_error=np.array([0.1, np.nan]),
                 n_paths=2)
    with pytest.raises(ValueError):
        MCSeries(checkpoints=t, mean=np.ones(2), std_error=np.array([0.1, -0.1]), n_paths=2)
    # an undefined checkpoint (NaN mean) carries a NaN standard error
    MCSeries(checkpoints=t, mean=np.array([np.nan, 1.0]), std_error=np.array([np.nan, 0.1]),
             n_paths=2)


def test_estimators_refuse_a_mean_past_float64():
    t = [1.0, 2.0]
    with pytest.raises(PrerequisiteError, match="float64"):
        analysis._series_from_samples(t, [[1.0, 1e308], [2.0, 1.7e308]], 0)
    # a column of NaN samples is an undefined checkpoint, not a lost one
    series = analysis._series_from_samples(t, [[np.nan, 1.0], [np.nan, 2.0]], 0)
    assert np.isnan(series.mean[0]) and series.mean[1] == 1.5
    model = constant_model(1, a=1.0, b=1.0, sigma=0.5)
    with pytest.raises(PrerequisiteError, match="float64"):
        analysis._functional_mc(model, [math.inf, 1.0, None])


def estimates(model, x0, T, h, n_paths, seed):
    return (
        lyapunov_functional_mc(model, x0, T, h, n_paths, seed),
        estimate_moment(model, x0, 1.5, T, h, n_paths, seed, checkpoint_count=7),
        sample_lyapunov_mc(model, 1, x0[1], T, h, n_paths, seed, checkpoint_count=7),
        inverse_moment_check(model, 0, x0[0], T, h, n_paths, seed, checkpoint_count=7),
        coupling_contraction(model, 0, x0[0], x0[1], T, h, n_paths, seed, checkpoint_count=7),
        terminal_sample(model, 1, x0[1], T, h, n_paths, seed, stream_offset=3),
    )


def test_batched_estimators_match_single_path_kernels():
    # the estimators run their paths in batches, the closed-form ones through
    # the solution's start-free part shared by both starts; reducing
    # simulate_system / simulate_upper trajectories and explicit_logistic_log
    # series path by path must give the same bytes
    model = constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    x0, T, h, n_paths, seed = [1.0, 0.7], 4.0, 2.0**-6, 70, 12
    func, moment, lyap, inverse, coupling, _ = estimates(model, x0, T, h, n_paths, seed)
    checkpoints = default_checkpoints(T, h, 7)
    values, norms, over_t, over_log, finals = [], [], [], [], []
    inv, inv_diff, half, sign_ok = [], [], [], 0
    for j in range(n_paths):
        path = sample_driving_path(model.marks, T, h, derive_path_seed(seed, j))
        traj = simulate_system(model, x0, path)
        values.append(lyapunov_functional(traj, model))
        norms.append(traj.slot_norms()[[traj.grid.slot_at(t) for t in checkpoints]] ** 1.5)
        upper = simulate_upper(model, 1, x0[1], path)
        series = sample_lyapunov(upper, 0, checkpoints)
        over_t.append(series.log_over_t)
        over_log.append(series.log_over_log_t)
        finals.append(upper.values[0, -1])
        lx = explicit_logistic_log(model, 0, x0[0], path)
        ly = explicit_logistic_log(model, 0, x0[1], path)
        slots = [lx.grid.slot_at(t) for t in checkpoints]
        inv.append(np.exp(-lx.values[slots]))
        diff = np.exp(-lx.values) - np.exp(-ly.values)
        sign_ok += int(np.all(diff * np.sign(1.0 / x0[0] - 1.0 / x0[1]) >= 0.0))
        inv_diff.append(np.abs(diff[slots]))
        half.append(np.sqrt(np.abs(np.exp(lx.values[slots]) - np.exp(ly.values[slots]))))
    values = np.asarray(values)
    assert func.mean == float(values.mean())
    assert func.std_error == float(values.std(ddof=1) / math.sqrt(n_paths))
    assert (func.n_paths, func.diverged_count) == (n_paths, 0)
    assert np.array_equal(lyap.final_values, np.asarray(finals))
    assert coupling.sign_consistent_fraction == sign_ok / n_paths
    for got, samples in (
        (moment, norms), (lyap.over_t, over_t), (lyap.over_log_t, over_log),
        (inverse.series, inv), (coupling.inverse_diff, inv_diff),
        (coupling.half_moment_diff, half),
    ):
        assert got.mean.tobytes() == np.mean(samples, axis=0).tobytes()
        want_se = np.std(samples, axis=0, ddof=1) / math.sqrt(n_paths)
        assert got.std_error.tobytes() == want_se.tobytes()


def test_batch_size_never_changes_an_estimate(monkeypatch):
    model = constant_model(
        2, a=(1.2, 0.9), b=[[1.0, 0.4], [0.3, 0.8]], sigma=(0.5, 0.6),
        gamma=((0.4,), (-0.3,)), weights=(1.5,),
    )
    args = (model, [0.8, 1.3], 3.0, 2.0**-6, 23, 5)
    reference = estimates(*args)
    for size in (1, 4, 7, 23):  # 23: one batch holds every path
        monkeypatch.setattr(analysis, "_batch_size", lambda width, nodes: size)
        again = estimates(*args)
        for got, want in zip(again, reference):
            assert pickle.dumps(got) == pickle.dumps(want), (size, type(got).__name__)


def test_closed_form_batch_width_never_changes_an_estimate(monkeypatch):
    # closed-form batches pad their paths to the longest; the sinusoidal and
    # piecewise-constant rates put extra nodes in the grid, and the second
    # model has no marks, so no path of it jumps
    from lvjumps import Const, ModelSpec, PiecewiseConst, Sinusoid

    with_marks = ModelSpec(
        n=1, a=(Sinusoid(2.5, 0.3, 2.0, 0.4),), B=((PiecewiseConst((0.7, 1.4), (1.0, 0.6, 1.5)),),),
        sigma=(Sinusoid(0.5, 0.2, 3.0),),
        gamma=((PiecewiseConst((1.1,), (0.3, -0.4)), Sinusoid(0.2, 0.3, 4.0)),),
        marks=MarkSpace((0.8, 0.5)),
    )
    without_marks = ModelSpec(
        n=1, a=(PiecewiseConst((0.9,), (1.5, 2.2)),), B=((Sinusoid(1.0, 0.4, 5.0),),),
        sigma=(Const(0.8),), gamma=((),), marks=MarkSpace(()),
    )
    T, h, n_paths, seed = 2.0, 2.0**-6, 30, 11
    nodes = round(T / h) + 1
    for model in (with_marks, without_marks):
        def run():
            return pickle.dumps((
                inverse_moment_check(model, 0, 0.8, T, h, n_paths, seed, checkpoint_count=7),
                coupling_contraction(model, 0, 0.5, 2.0, T, h, n_paths, seed, checkpoint_count=7),
                terminal_sample(model, 0, 0.8, T, h, n_paths, seed, stream_offset=3),
            ))

        reference = run()
        for width in (1, 4, 7, 16, 23):  # 23: a short last batch of 7
            monkeypatch.setattr(analysis, "_CLOSED_FORM_NODES", width * nodes)
            assert run() == reference, (model.marks.size, width)
        monkeypatch.undo()


def test_closed_form_reads_the_post_jump_value_at_a_jump_node(monkeypatch, permanent_model):
    # every path jumps exactly at T, the one checkpoint: the estimators read
    # the cadlag value there, the last slot of the lone-path series
    class Generator:
        def exponential(self, scale, size):
            return np.full(size, 2.0)

        def random(self, size):
            return np.zeros(size)

        def standard_normal(self, size):
            return np.linspace(-1.0, 1.0, size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
    path = sample_driving_path(permanent_model.marks, 2.0, 0.25, 0)
    assert path.jump_times.tolist() == [2.0]
    log_y = explicit_logistic_log(permanent_model, 0, 0.8, path).values
    assert log_y[-1] != log_y[-2]
    inverse = inverse_moment_check(permanent_model, 0, 0.8, 2.0, 0.25, 3, 1, checkpoint_count=1)
    assert inverse.series.mean.tolist() == [math.exp(-log_y[-1])]
    terminal = terminal_sample(permanent_model, 0, 0.8, 2.0, 0.25, 3, 1)
    assert terminal.tolist() == [math.exp(log_y[-1])] * 3


ESTIMATORS = {
    "estimate_moment":lambda m, n_paths, seed: estimate_moment(
        m, [1.0], 2.0, 2.0, 0.25, n_paths, seed),
    "lyapunov_functional_mc": lambda m, n_paths, seed: lyapunov_functional_mc(
        m, [1.0], 2.0, 0.25, n_paths, seed),
    "sample_lyapunov_mc": lambda m, n_paths, seed: sample_lyapunov_mc(
        m, 0, 1.0, 2.0, 0.25, n_paths, seed),
    "_lyapunov_and_functional": lambda m, n_paths, seed: _lyapunov_and_functional(
        m, 0, [1.0], 2.0, 0.25, n_paths, seed, 5),
    "inverse_moment_check": lambda m, n_paths, seed: inverse_moment_check(
        m, 0, 1.0, 2.0, 0.25, n_paths, seed),
    "coupling_contraction": lambda m, n_paths, seed: coupling_contraction(
        m, 0, 0.5, 2.0, 2.0, 0.25, n_paths, seed),
    "terminal_sample": lambda m, n_paths, seed: terminal_sample(
        m, 0, 1.0, 2.0, 0.25, n_paths, seed),
    "invariant_distance": lambda m, n_paths, seed: invariant_distance(
        m, 0, 0.5, 2.0, 2.0, 0.25, n_paths, seed),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimators_reject_no_paths_and_negative_seeds(permanent_model, name):
    estimator = ESTIMATORS[name]
    estimator(permanent_model, 1, 0)  # the smallest valid call runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_paths, seed in ((0, 1), (-3, 1), (2, -1)):
            with pytest.raises(ConfigurationError, match="n_paths >= 1 and seed >= 0"):
                estimator(permanent_model, n_paths, seed)


def test_functional_of_long_paths_matches_the_trajectory_functional():
    # more than 8,192 intervals per path: np.sum of one path's terms is no
    # longer one pairwise tree, and each path's row must still give its bits
    model = constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    x0, T, h, seed = [1.0, 0.7], 130.0, 2.0**-6, 8
    assert T / h > 8192
    for n_paths in (1, 3):
        (values,) = _per_path(model, T, h, n_paths, seed, [_functional_run(model, x0, T)])
        for j, value in enumerate(values):
            path = sample_driving_path(model.marks, T, h, derive_path_seed(seed, j))
            assert repr(value) == repr(lyapunov_functional(simulate_system(model, x0, path), model))


def test_moments_of_three_species_match_slot_norms():
    # the norm sums three squares, where the order of the additions shows
    model = constant_model(
        3, a=(1.5, 1.0, 1.2), b=[[1.0, 0.3, 0.1], [0.2, 0.8, 0.2], [0.3, 0.1, 0.9]],
        sigma=(0.5, 0.4, 0.7), gamma=((0.3,), (-0.4,), (0.9,)), weights=(1.3,),
    )
    x0, T, h, seed = [1.0, 0.7, 1.3], 2.0, 2.0**-6, 4
    for count in (1, 6):
        checkpoints = default_checkpoints(T, h, count)
        series = estimate_moment(model, x0, 1.0, T, h, 5, seed, checkpoint_count=count)
        norms = []
        for j in range(5):
            path = sample_driving_path(model.marks, T, h, derive_path_seed(seed, j))
            traj = simulate_system(model, x0, path)
            norms.append(traj.slot_norms()[traj.grid.slots_at(checkpoints)])
        assert series.mean.tobytes() == np.mean(norms, axis=0).tobytes()


def traced_peak_mb(call, warm_up):
    """Peak traced allocation of ``call()`` in MB, after ``warm_up()`` has
    filled the caches that every call shares."""
    warm_up()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_coupling_memory_stays_flat(permanent_model):
    # closed-form batches stay at 64 paths: 3.5 MB, 18 MB with no cap
    peak = traced_peak_mb(
        lambda: coupling_contraction(permanent_model, 0, 0.5, 2.0, 20.0, 2.0**-6, 400, 7),
        lambda: coupling_contraction(permanent_model, 0, 0.5, 2.0, 1.0, 2.0**-6, 2, 7),
    )
    assert peak <= 4.0


def test_functional_memory_stays_flat():
    # one batch of all 100 paths keeps no node states and no slot arrays
    model = constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    peak = traced_peak_mb(
        lambda: lyapunov_functional_mc(model, [1.0, 1.0], 50.0, 2.0**-6, 100, 7),
        lambda: lyapunov_functional_mc(model, [1.0, 1.0], 1.0, 2.0**-6, 2, 7),
    )
    assert peak <= 11.7
