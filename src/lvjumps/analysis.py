"""Monte Carlo estimators for the model's probabilistic statements.

Every estimator is a deterministic function of its inputs and a master seed:
path ``j`` draws its own 64-bit seed by seed-sequence spawning from
``(master_seed, j)``, accumulation runs in fixed path order, and diverged
paths are excluded from statistics but counted.  Statistical assertions
downstream use 3-standard-error bands.

``|X|`` is throughout the Euclidean norm across species.  Estimators of the
scalar self-regulating solution go through the explicit closed form in log
space (exact up to quadrature, safe on long horizons); estimators of the full
system go through the log-Euler integrator.  Every estimator's paths come
from :func:`_per_path`, which hands them to :func:`_log_euler` or
:func:`_closed_form` runs; both reduce each batch of paths at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .closedform import _logistic_log
from .coefficients import Const
from .conditions import compute_regime_report
from .errors import ConfigurationError, PrerequisiteError
from .integrate import Trajectory, _batch_size, _species_norms, _summarise, _write_table
from .model import ModelSpec, as_initial_state, check_species
from .noise import _steps_of, derive_path_seed, sample_driving_path

__all__ = [
    "MCSeries",
    "default_checkpoints",
    "estimate_moment",
    "lyapunov_functional",
    "lyapunov_functional_mc",
    "FunctionalMC",
    "sample_lyapunov",
    "LyapunovSeries",
    "sample_lyapunov_mc",
    "LyapunovMC",
    "inverse_moment_check",
    "BoundCheckResult",
    "coupling_contraction",
    "CouplingResult",
    "invariant_distance",
    "InvariantDistanceResult",
    "terminal_sample",
    "dkw_epsilon",
    "write_mc_csv",
]


@dataclass(frozen=True)
class MCSeries:
    """A Monte Carlo time series: sample mean and standard error per checkpoint."""

    checkpoints: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n_paths: int
    diverged_count: int = 0

    def __post_init__(self):
        # a NaN standard error is allowed only where the mean is undefined too
        # (``ln X / ln t`` at t <= 1); elsewhere it means a broken reduction
        undefined = np.isnan(self.mean)
        if np.any(self.std_error < 0) or np.any(np.isnan(self.std_error) & ~undefined):
            raise ValueError("standard errors must be non-negative numbers")


def default_checkpoints(T: float, h: float, count: int = 50) -> np.ndarray:
    """``count`` roughly uniform times snapped onto the step grid, ending at T."""
    if count < 1:
        raise ConfigurationError(f"need at least one checkpoint, got {count}")
    M = _steps_of(T, h)
    grid = np.linspace(0.0, T, M + 1)
    idx = np.unique(np.clip(np.round(np.arange(1, count + 1) * M / count), 1, M).astype(int))
    return grid[idx]


def _series_from_samples(checkpoints, samples, diverged) -> MCSeries:
    arr = np.asarray(samples, dtype=float)
    n = arr.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(arr.shape[1])
    # a column of NaN samples is undefined (``ln X / ln t`` at t <= 1), not lost
    if not np.all(np.isfinite(mean) & np.isfinite(se) | np.isnan(arr).all(axis=0)):
        raise PrerequisiteError("a sample mean or standard error exceeds the float64 range")
    return MCSeries(
        checkpoints=np.asarray(checkpoints, dtype=float),
        mean=mean,
        std_error=se,
        n_paths=n + diverged,
        diverged_count=diverged,
    )


def _kept(values):
    """The per-path values of the paths that did not diverge (None marks one
    that did), and the diverged count."""
    kept = [v for v in values if v is not None]
    if not kept:
        raise PrerequisiteError("all paths diverged; nothing to estimate")
    return kept, len(values) - len(kept)


# Nodes per closed-form batch: its (paths, nodes) arrays stay at 32 KB.  Once a
# free leaves 64 KB in one piece, glibc may trim its heap, and the next batch
# faults the pages in again: 34 faults a path at 16 paths of T=20, 0.4 at 3.
_CLOSED_FORM_NODES = 4096


def _per_path(model: ModelSpec, T: float, h: float, n_paths: int, seed: int, runs, offset=0):
    """One list per run of its values on the seeded paths ``offset, ..., offset + n_paths - 1``.

    Every estimator's paths come from here; path ``j`` depends only on
    ``(seed, j)``.  A run is ``(size, run)``: a batch holds at most
    ``size(nodes)`` paths of about ``nodes`` nodes, and ``run(batch)`` yields
    one value per path, None where it diverged.  Every run takes each batch in
    turn, and no value depends on the batch it came from.  Raises
    :class:`ConfigurationError` when ``n_paths < 1`` or ``seed < 0``.
    """
    if n_paths < 1 or seed < 0:
        raise ConfigurationError(f"need n_paths >= 1 and seed >= 0, got {n_paths}, {seed}")
    extra = tuple(b for b in model.pwc_breakpoints() if 0.0 < b < T)
    nodes = _steps_of(T, h) + 1
    size = min(limit(nodes) for limit, _ in runs)
    end = offset + n_paths
    out = [[] for _ in runs]
    for first in range(offset, end, size):
        batch = [
            sample_driving_path(model.marks, T, h, derive_path_seed(seed, j), extra_times=extra)
            for j in range(first, min(first + size, end))
        ]
        for values, (_, run) in zip(out, runs):
            values.extend(run(batch))
        batch.clear()  # release these paths before the next batch is drawn
    return out


def _log_euler(model: ModelSpec, x0, species, reduce, at=(), trapezoid=False):
    """A run of ``reduce(at_states, final, terms)`` on each path's summary from
    :func:`~lvjumps.integrate._summarise`, which takes every path the node
    budget allows."""

    def run(batch):
        for summary in _summarise(model, x0, batch, species, at, trapezoid):
            yield None if summary is None else reduce(*summary)

    return partial(_batch_size, model.n if species is None else 1), run


def _closed_form(model: ModelSpec, i: int, starts, reduce):
    """A run of ``reduce(paths, ln Y from starts[0], ...)``, one value per path, with
    each batch's ``ln Y`` of species ``i`` from :func:`~lvjumps.closedform._logistic_log`."""
    for x0_i in starts:
        check_species(model, i, x0_i)

    def run(batch):
        return reduce(batch, *_logistic_log(model, i, starts, batch))

    return (lambda nodes: max(1, _CLOSED_FORM_NODES // nodes)), run


def _post_index(paths, times):
    """Index of each path's post-jump values at the node ``times`` in a ``_logistic_log`` array."""
    nodes = [path.node_times.searchsorted(times) for path in paths]
    return np.arange(len(paths))[:, None], np.array(nodes)


def estimate_moment(
    model: ModelSpec,
    x0,
    p: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    checkpoint_count: int = 50,
) -> MCSeries:
    """Sample mean and standard error of ``|X(t)|^p`` at the checkpoints.

    For ``p > 1`` the moment theorem additionally needs the p-th jump moment
    bound (see :func:`lvjumps.conditions.check_moment_condition`); the
    estimator itself runs regardless.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    state = as_initial_state(x0, model.n)
    checkpoints = default_checkpoints(T, h, checkpoint_count)
    moment = lambda at, final, terms: _species_norms(at) ** p  # noqa: E731
    run = _log_euler(model, state, None, moment, checkpoints)
    with np.errstate(over="ignore"):  # a moment past float64 is refused below
        (values,) = _per_path(model, T, h, n_paths, seed, [run])
    samples, diverged = _kept(values)
    return _series_from_samples(checkpoints, samples, diverged)


def lyapunov_functional(traj: Trajectory, model: ModelSpec) -> float:
    """Growth functional ``(ln|X(T)| + (min_i inf b_ii / sqrt(n)) int_0^T |X|) / T``.

    The time integral uses trapezoidal quadrature on the merged grid.
    """
    if traj.diverged:
        raise ValueError("functional undefined on a diverged trajectory")
    grid = traj.grid
    norms = traj.slot_norms()
    at_ends = norms[grid.interval_start_slots()] + norms[grid.interval_end_slots()]
    terms = 0.5 * np.diff(grid.times) * at_ends
    return _growth_functional(model, traj.species_count, float(grid.times[-1]), terms, norms[-1])


def _growth_functional(model: ModelSpec, n: int, T: float, terms, last_norm) -> float:
    """The growth functional of ``n`` species from its trapezoid terms and ``|X(T)|``."""
    b_floor = min(model.B[i][i].infimum for i in range(n))
    return (math.log(last_norm) + (b_floor / math.sqrt(n)) * float(np.sum(terms))) / T


def _functional_run(model: ModelSpec, x0, T: float):
    """A run of the growth functional of the full system from ``x0``."""
    functional = lambda at, final, terms: _growth_functional(  # noqa: E731
        model, model.n, float(T), terms, _species_norms(final))
    return _log_euler(model, x0, None, functional, trapezoid=True)


@dataclass(frozen=True)
class FunctionalMC:
    mean: float
    std_error: float
    bound: float
    n_paths: int
    diverged_count: int

    @property
    def within_bound(self) -> bool:
        return self.mean <= self.bound + 3.0 * self.std_error


def lyapunov_functional_mc(
    model: ModelSpec, x0, T: float, h: float, n_paths: int, seed: int
) -> FunctionalMC:
    """Monte Carlo mean of the growth functional against ``max_i sup a_i``."""
    state = as_initial_state(x0, model.n)
    (values,) = _per_path(model, T, h, n_paths, seed, [_functional_run(model, state, T)])
    return _functional_mc(model, values)


def _functional_mc(model: ModelSpec, values) -> FunctionalMC:
    """:class:`FunctionalMC` from the per-path functional values (None: diverged)."""
    kept, diverged = _kept(values)
    arr = np.asarray(kept)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise PrerequisiteError("the functional's mean or standard error exceeds the float64 range")
    bound = max(f.supremum for f in model.a)
    return FunctionalMC(
        mean=mean,
        std_error=se,
        bound=bound,
        n_paths=len(values),
        diverged_count=diverged,
    )


@dataclass(frozen=True)
class LyapunovSeries:
    """Normalised log-population series for one trajectory."""

    times: np.ndarray
    log_over_t: np.ndarray
    log_over_log_t: np.ndarray  # NaN where t <= 1


def sample_lyapunov(traj: Trajectory, i: int, checkpoint_times=None) -> LyapunovSeries:
    """``ln X_i(t)/t`` and ``ln X_i(t)/ln t`` at the given grid times."""
    grid = traj.grid
    if checkpoint_times is None:
        checkpoint_times = grid.times[grid.times > 0]
    checkpoint_times = np.asarray(checkpoint_times, dtype=float)
    return _lyapunov_series(traj.values[i, grid.slots_at(checkpoint_times)], checkpoint_times)


def _lyapunov_series(values, times) -> LyapunovSeries:
    """:class:`LyapunovSeries` of a population's ``values`` at ``times``."""
    logs = np.log(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        over_log = np.where(times > 1.0, logs / np.log(times), np.nan)
    return LyapunovSeries(times=times, log_over_t=logs / times, log_over_log_t=over_log)


@dataclass(frozen=True)
class LyapunovMC:
    over_t: MCSeries
    over_log_t: MCSeries
    final_values: np.ndarray


def sample_lyapunov_mc(
    model: ModelSpec,
    i: int,
    x0_i: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    checkpoint_count: int = 50,
) -> LyapunovMC:
    """Monte Carlo of the scalar upper solution's normalised log population."""
    checkpoints = default_checkpoints(T, h, checkpoint_count)
    (values,) = _per_path(model, T, h, n_paths, seed, [_exponents_run(model, i, x0_i, checkpoints)])
    return _lyapunov_mc(checkpoints, values)


def _exponents_run(model: ModelSpec, i: int, x0_i: float, checkpoints):
    """A run of each path's :class:`LyapunovSeries` at ``checkpoints`` and
    final value, for the upper system of species ``i`` from ``x0_i``."""
    exponents = lambda at, final, terms: (  # noqa: E731
        _lyapunov_series(at[0], checkpoints), float(final[0]))
    return _log_euler(model, x0_i, i, exponents, checkpoints)


def _lyapunov_mc(checkpoints, values) -> LyapunovMC:
    """:class:`LyapunovMC` from per-path ``(series, final value)`` pairs (None: diverged)."""
    kept, diverged = _kept(values)
    return LyapunovMC(
        over_t=_series_from_samples(checkpoints, [s.log_over_t for s, _ in kept], diverged),
        over_log_t=_series_from_samples(
            checkpoints, [s.log_over_log_t for s, _ in kept], diverged
        ),
        final_values=np.asarray([final for _, final in kept]),
    )


def _lyapunov_and_functional(
    model: ModelSpec, i: int, x0, T: float, h: float, n_paths: int, seed: int,
    checkpoint_count: int,
):
    """:func:`sample_lyapunov_mc` for species ``i`` and the growth functional's
    per-path values (for :func:`_functional_mc`), over one draw of the paths."""
    checkpoints = default_checkpoints(T, h, checkpoint_count)
    state = as_initial_state(x0, model.n)
    upper, system = _per_path(
        model, T, h, n_paths, seed,
        [_exponents_run(model, i, state.x0[i], checkpoints), _functional_run(model, state, T)],
    )
    return _lyapunov_mc(checkpoints, upper), system


def _require_positive_margin(model: ModelSpec, i: int) -> float:
    report = compute_regime_report(model)
    c1 = report.species[i].c1
    if not c1.value > 0.0:
        raise PrerequisiteError(
            f"the permanence condition fails for species {i + 1}: "
            f"inf(a - sigma^2 - jump mass) = {c1.value:g} <= 0; "
            "the requested bound is meaningless"
        )
    return c1.value


@dataclass(frozen=True)
class BoundCheckResult:
    """An estimated series together with its analytic bound curve."""

    series: MCSeries
    bound: np.ndarray
    ok: np.ndarray  # mean - 3 se <= bound, per checkpoint

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ok))


def inverse_moment_check(
    model: ModelSpec,
    i: int,
    x0_i: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    checkpoint_count: int = 50,
) -> BoundCheckResult:
    """Estimate ``E[1/Y_i(t)]`` and compare with its exponential-decay bound.

    The bound is ``sup(b_ii)/c1 + (1/x0 - sup(b_ii)/c1) exp(-c1 t)``; the
    estimator refuses to run when the permanence condition fails.
    """
    c1 = _require_positive_margin(model, i)
    checkpoints = default_checkpoints(T, h, checkpoint_count)

    def inverse(paths, log_y):
        return list(np.exp(-log_y[1][_post_index(paths, checkpoints)]))

    (samples,) = _per_path(model, T, h, n_paths, seed, [_closed_form(model, i, (x0_i,), inverse)])
    mc = _series_from_samples(checkpoints, samples, 0)
    b_sup = model.B[i][i].supremum
    bound = b_sup / c1 + (1.0 / x0_i - b_sup / c1) * np.exp(-c1 * checkpoints)
    ok = mc.mean - 3.0 * mc.std_error <= bound
    return BoundCheckResult(series=mc, bound=bound, ok=ok)


@dataclass(frozen=True)
class CouplingResult:
    """Common-noise coupling decay of two solutions started at x and y.

    ``sign_consistent_fraction`` counts paths on which the reciprocal
    difference never takes the sign opposite to ``1/x - 1/y`` at any slot.
    The difference is a positive multiple of ``1/x - 1/y`` exactly, but once
    the stochastic exponential exceeds ~e^37 the two reciprocals are closer
    than one float64 ulp and their computed difference collapses to zero;
    a collapsed zero is not a reversal.
    """

    inverse_diff: MCSeries
    envelope: np.ndarray
    ok: np.ndarray
    half_moment_diff: MCSeries
    sign_consistent_fraction: float

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ok))


def coupling_contraction(
    model: ModelSpec,
    i: int,
    x: float,
    y: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    checkpoint_count: int = 50,
) -> CouplingResult:
    """Couple two scalar solutions through one driving path per replicate.

    Checks ``E|1/Y(t,x) - 1/Y(t,y)| <= |1/x - 1/y| exp(-c1 t)`` (plus noise)
    and reports ``E|Y(t,x) - Y(t,y)|^(1/2)``.  Because the two solutions share
    the path, their reciprocal difference is a positive multiple of
    ``1/x - 1/y``, which the sign consistency fraction verifies numerically.
    """
    c1 = _require_positive_margin(model, i)
    checkpoints = default_checkpoints(T, h, checkpoint_count)

    def differences(paths, lx, ly):
        inv_diff_all = np.exp(-lx) - np.exp(-ly)
        sign_ok = np.all(inv_diff_all * np.sign(expected) >= 0.0, axis=(0, 2))
        at = _post_index(paths, checkpoints)
        half = np.sqrt(np.abs(np.exp(lx[1][at]) - np.exp(ly[1][at])))
        return zip(sign_ok.tolist(), np.abs(inv_diff_all[1][at]), half)

    run = _closed_form(model, i, (x, y), differences)  # checks both start values
    expected = 1.0 / x - 1.0 / y
    (values,) = _per_path(model, T, h, n_paths, seed, [run])
    signs, inv_samples, half_samples = zip(*values)
    inv_mc = _series_from_samples(checkpoints, inv_samples, 0)
    half_mc = _series_from_samples(checkpoints, half_samples, 0)
    envelope = abs(expected) * np.exp(-c1 * checkpoints)
    ok = inv_mc.mean <= envelope + 3.0 * inv_mc.std_error
    return CouplingResult(
        inverse_diff=inv_mc,
        envelope=envelope,
        ok=ok,
        half_moment_diff=half_mc,
        sign_consistent_fraction=sum(signs) / n_paths,
    )


def terminal_sample(
    model: ModelSpec,
    i: int,
    x0_i: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    stream_offset: int = 0,
) -> np.ndarray:
    """Terminal values ``Y_i(T)`` over ``n_paths`` independent paths."""

    def terminal(paths, log_y):  # libm's exp of each path's value at T
        return [math.exp(v) for v in log_y[1][_post_index(paths, [T])].ravel().tolist()]

    run = _closed_form(model, i, (x0_i,), terminal)
    (values,) = _per_path(model, T, h, n_paths, seed, [run], stream_offset)
    return np.asarray(values, dtype=float)


def dkw_epsilon(n: int, confidence: float = 0.99) -> float:
    """One-sample Dvoretzky-Kiefer-Wolfowitz band half-width."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, bit for bit that of ``scipy.stats.ks_2samp``,
    whose choice between the one-sided gaps gives +0.0 for equal samples."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a, cdf_b = (np.searchsorted(s, pooled, side="right") / len(s) for s in (a, b))
    diffs = cdf_a - cdf_b
    low, high = np.clip(-diffs.min(), 0, 1), diffs.max()
    return float(low if low > high else high)


@dataclass(frozen=True)
class InvariantDistanceResult:
    distance: float
    sampling_floor: float
    n_paths: int

    @property
    def within_floor(self) -> bool:
        return self.distance <= self.sampling_floor


def invariant_distance(
    model: ModelSpec,
    i: int,
    x: float,
    y: float,
    T: float,
    h: float,
    n_paths: int,
    seed: int,
    slack: float = 0.02,
) -> InvariantDistanceResult:
    """Kolmogorov distance between the laws of ``Y(T, x)`` and ``Y(T, y)``.

    Scope is the time-independent (all-constant) permanent model, whose law
    forgets the initial condition; the two empirical samples use independent
    path sets (offset seed streams).  The sampling floor is the two-sample
    DKW 99% band plus a fixed slack.  With ``x == y`` the two laws coincide
    by construction and the single sample set is reused, so the distance is
    exactly zero.

    Raises:
        PrerequisiteError: time-dependent coefficients or failing permanence.
    """
    if not all(isinstance(f, Const) for f in model.all_coefficients()):
        raise PrerequisiteError(
            "invariant-measure comparison is stated for constant coefficients only"
        )
    _require_positive_margin(model, i)
    sample_x = terminal_sample(model, i, x, T, h, n_paths, seed, stream_offset=0)
    if x == y:
        sample_y = sample_x
    else:
        sample_y = terminal_sample(model, i, y, T, h, n_paths, seed, stream_offset=n_paths)
    distance = _ks_statistic(sample_x, sample_y)
    floor = 2.0 * dkw_epsilon(n_paths) + slack
    return InvariantDistanceResult(distance=distance, sampling_floor=floor, n_paths=n_paths)


def write_mc_csv(series: MCSeries, fileobj, bound=None, flags=None) -> None:
    """CSV rows: checkpoint, mean, std_error[, bound, flag]."""
    header = ["checkpoint", "mean", "std_error"]
    columns = [series.checkpoints, series.mean, series.std_error]
    if bound is not None:
        header.append("bound")
        columns.append(bound)
    if flags is not None:
        header.append("flag")
        columns.append(["true" if f else "false" for f in flags])
    _write_table(fileobj, header, columns)
