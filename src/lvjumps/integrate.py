"""Positivity-preserving integration of the competitive jump-diffusion system.

The state is advanced in log coordinates (exponential Euler): between
consecutive merged-grid nodes each species' log population receives

    (a_i(t) - sum_j b_ij(t) X_j(t) - sigma_i(t)^2/2 - sum_k gamma_ik(t) w_k) dt
    + sigma_i(t) dW,

with all coefficients and states frozen at the left endpoint (explicit,
non-anticipating).  The ``-sigma^2/2`` term is the Ito correction in log
coordinates and the ``-sum_k gamma_ik w_k`` term is the compensator of the
centred jump measure.  At a jump with mark ``k`` the population is multiplied
by exactly ``1 + gamma_ik(tau)``.

Working in log space keeps every trajectory value strictly positive, which
the pathwise comparison tests rely on; a plain Euler step can go negative.

A path is flagged *diverged* (not an error) when a log population leaves the
window representable by float64 without denormalising; any NaN is a hard
error.

The step loops hold only floats: the coefficient tables are flat lists indexed
``l*n + i`` (and ``l*n*n + i*n + j`` for the interactions), and each slot's
state is appended to one flat list that becomes the trajectory array at the
end.  A list per slot or per table row would survive the whole path, and
thousands of such survivors make CPython's cyclic garbage collector run full
collections over the whole heap, which cost more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, IntegrationError
from .model import ModelSpec, as_initial_state, require_valid
from .noise import (
    KIND_LABELS,
    DrivingPath,
    MergedGrid,
    merge_grid,
)

__all__ = [
    "Trajectory",
    "simulate_system",
    "simulate_upper",
    "simulate_lower",
    "write_trajectory_csv",
    "format_float",
    "LOG_LOW",
    "LOG_HIGH",
]

# exp() of values outside this window would denormalise or overflow float64
LOG_LOW = -745.0
LOG_HIGH = 709.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-species positive sample path on a merged grid.

    ``values[i, s]`` is species ``i`` at slot ``s`` (left-limit and post-jump
    slots are separate at jump nodes).  For diverged paths the slots from the
    first offending time onward are NaN and ``diverged_at`` records that time.
    """

    grid: MergedGrid
    values: np.ndarray
    diverged: bool = False
    diverged_at: float | None = None

    @property
    def species_count(self) -> int:
        return self.values.shape[0]

    def final_values(self) -> np.ndarray:
        return self.values[:, -1]

    def at_time(self, t: float, kind: str = "post") -> np.ndarray:
        return self.values[:, self.grid.slot_at(t, kind)]

    def slot_norms(self) -> np.ndarray:
        """Euclidean norm across species, one value per slot."""
        return np.sqrt(np.sum(self.values * self.values, axis=0))


def _tabulate(model: ModelSpec, grid: MergedGrid, path: DrivingPath, rows, cols):
    """Left-endpoint coefficient values per interval, plus jump factors.

    For species ``rows`` this returns ``a`` and ``sigma`` with shape
    (intervals, rows), the Ito-plus-compensator correction
    ``sigma^2/2 + sum_k w_k gamma_k`` of the same shape, the interactions
    ``B[row][col]`` with shape (intervals, rows, cols), and per jump the list of
    factors ``1 + gamma_row(tau)``.
    """
    t_left = grid.times[:-1]
    weights = model.marks.weights
    a_vals = np.stack([np.asarray(model.a[i](t_left), dtype=float) for i in rows], axis=1)
    sig_vals = np.stack([np.asarray(model.sigma[i](t_left), dtype=float) for i in rows], axis=1)
    corr = 0.5 * sig_vals**2
    B_vals = np.empty((len(t_left), len(rows), len(cols)))
    for r, i in enumerate(rows):
        for k in range(model.mark_count):
            corr[:, r] += weights[k] * np.asarray(model.gamma[i][k](t_left), dtype=float)
        for c, j in enumerate(cols):
            B_vals[:, r, c] = model.B[i][j](t_left)
    jump_factors = [
        [1.0 + float(model.gamma[i][int(mark)](float(tau))) for i in rows]
        for tau, mark in zip(path.jump_times, path.jump_marks)
    ]
    return a_vals, B_vals, sig_vals, corr, jump_factors


def _walk_slots(grid: MergedGrid):
    """Per interval: does the right node carry a jump, and which jump is it."""
    jump_counter = np.cumsum(grid.is_jump.astype(np.int64)) - grid.is_jump.astype(np.int64)
    return grid.is_jump[1:].tolist(), jump_counter[1:].tolist()


def _jump(x, factors, t):
    """State after a jump at ``t``, or None when it leaves the log window."""
    nxt = [xi * fi for xi, fi in zip(x, factors)]
    bad = False
    for v in nxt:
        if v != v:
            raise IntegrationError(f"NaN state at t={t!r}")
        if not (v > 0.0) or not (LOG_LOW < math.log(v) < LOG_HIGH):
            bad = True
    return None if bad else nxt


def _finish(grid, flat, n, diverged_at):
    """Trajectory from the slot states stored one after another in ``flat``."""
    out = np.full((n, grid.n_slots), np.nan)
    filled = np.asarray(flat, dtype=float).reshape(-1, n).T
    out[:, : filled.shape[1]] = filled
    return Trajectory(
        grid=grid,
        values=out,
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
    )


def _check_species(model: ModelSpec, i: int, x0_i: float) -> None:
    require_valid(model)
    if not (0 <= i < model.n):
        raise IndexError(f"species index {i} out of range")
    if not (x0_i > 0):
        raise ValueError("initial value must be positive")


def simulate_system(model: ModelSpec, x0, path: DrivingPath) -> Trajectory:
    """Integrate the full n-species system along one driving path.

    Args:
        model: Valid model (standing hypotheses are enforced).
        x0: InitialState or length-n positive array.
        path: Driving noise realisation.

    Raises:
        IntegrationError: on NaN state.
        DomainError: if the model violates the standing hypotheses.
    """
    require_valid(model)
    state = as_initial_state(x0, model.n)
    grid = merge_grid(path)
    if model.n == 1:
        return _self_regulated(model, grid, path, 0, state.x0[0])
    species = range(model.n)
    return _run_vector(grid, path, state, *_tabulate(model, grid, path, species, species))


def _self_regulated(model, grid, path, i, x0_i):
    """Species ``i`` with the drift ``a_i - b_ii X_i`` only."""
    a_vals, B_vals, sig_vals, corr, jf = _tabulate(model, grid, path, [i], [i])
    return _run_scalar(
        grid, path, math.log(float(x0_i)), a_vals[:, 0], B_vals[:, 0, 0],
        sig_vals[:, 0], corr[:, 0], jf,
    )


def _run_vector(grid, path, state, a_vals, B_vals, sig_vals, corr, jump_factors):
    """Kernel for n >= 2 species, all advanced together."""
    n = len(state.x0)
    nn = n * n
    species = range(n)
    dt = np.diff(grid.times).tolist()
    dw = path.node_increments.tolist()
    a_l = a_vals.ravel().tolist()
    B_l = B_vals.ravel().tolist()
    s_l = sig_vals.ravel().tolist()
    c_l = corr.ravel().tolist()
    is_jump, jump_idx = _walk_slots(grid)
    logx = [math.log(v) for v in state.x0]
    x = [math.exp(v) for v in logx]
    flat = list(x)
    diverged_at = None
    for l in range(len(dt)):
        dtl = dt[l]
        dwl = dw[l]
        row = l * nn
        for i in species:
            acc = 0.0
            for j in species:
                acc += B_l[row + j] * x[j]
            row += n
            k = l * n + i
            logx[i] += (a_l[k] - acc - c_l[k]) * dtl + s_l[k] * dwl
        bad = False
        for v in logx:
            if not (LOG_LOW < v < LOG_HIGH):
                bad = True
            if v != v:
                raise IntegrationError(f"NaN state at t={grid.times[l + 1]!r}")
        if bad:
            diverged_at = float(grid.times[l + 1])
            break
        x = [math.exp(v) for v in logx]
        flat.extend(x)
        if is_jump[l]:
            nxt = _jump(x, jump_factors[jump_idx[l]], grid.times[l + 1])
            if nxt is None:
                diverged_at = float(grid.times[l + 1])
                break
            x = nxt
            logx = [math.log(v) for v in x]
            flat.extend(x)
    return _finish(grid, flat, n, diverged_at)


def _run_scalar(grid, path, logz0, a, b_own, sig, corr, jump_factors, others=()):
    """Width-1 kernel: one species against frozen competitors.

    The interaction sum is ``b_own * z`` plus, in order, the terms
    ``others[l*width : (l+1)*width]`` of interval ``l``, with the same width
    for every interval (see :func:`simulate_lower`; the self-regulated
    systems have none), which reproduces the full-system kernel's rounding
    term for term.  When the frozen competitors coincide with the full state
    the float arithmetic coincides too, and the pathwise ordering cannot be
    broken by rounding.
    """
    dt = np.diff(grid.times).tolist()
    dw = path.node_increments.tolist()
    a, b_own, sig, corr = (v.tolist() for v in (a, b_own, sig, corr))
    width = len(others) // len(dt)
    is_jump, jump_idx = _walk_slots(grid)
    logz = logz0
    z = math.exp(logz)
    flat = [z]
    diverged_at = None
    for l in range(len(dt)):
        acc = b_own[l] * z
        if width:
            for m in range(l * width, (l + 1) * width):
                acc += others[m]
        logz += (a[l] - acc - corr[l]) * dt[l] + sig[l] * dw[l]
        if logz != logz:
            raise IntegrationError(f"NaN state at t={grid.times[l + 1]!r}")
        if not (LOG_LOW < logz < LOG_HIGH):
            diverged_at = float(grid.times[l + 1])
            break
        z = math.exp(logz)
        flat.append(z)
        if is_jump[l]:
            nxt = _jump([z], jump_factors[jump_idx[l]], grid.times[l + 1])
            if nxt is None:
                diverged_at = float(grid.times[l + 1])
                break
            z = nxt[0]
            logz = math.log(z)
            flat.append(z)
    return _finish(grid, flat, 1, diverged_at)


def simulate_upper(model: ModelSpec, i: int, x0_i: float, path: DrivingPath) -> Trajectory:
    """Integrate the scalar upper comparison system for species ``i``.

    The drift keeps only the self-interaction ``a_i - b_ii Y_i``; noise and
    jumps are identical to the full system's, so the result dominates the
    ``i``-th component pathwise.
    """
    _check_species(model, i, x0_i)
    return _self_regulated(model, merge_grid(path), path, i, x0_i)


def simulate_lower(
    model: ModelSpec,
    i: int,
    x0_i: float,
    path: DrivingPath,
    uppers,
) -> Trajectory:
    """Integrate the scalar lower comparison system for species ``i``.

    The growth rate is reduced by the competition pressure of the *upper*
    solutions, ``a_i(t) - sum_{j != i} b_ij(t) Y_j(t)``; everything else
    matches :func:`simulate_upper`.

    Args:
        uppers: sequence of n single-species trajectories on the same grid
            (entry ``i`` may be None, it is not used).

    Raises:
        GridMismatchError: when an upper trajectory lives on another grid.
    """
    _check_species(model, i, x0_i)
    if len(uppers) != model.n:
        raise GridMismatchError(f"need {model.n} upper trajectories")
    grid = merge_grid(path)
    start_slots = grid.interval_start_slots()
    frozen = np.zeros((len(start_slots), model.n))
    for j in range(model.n):
        if j == i:
            continue
        traj = uppers[j]
        if traj is None or not traj.grid.same_nodes(grid):
            raise GridMismatchError("upper trajectories must share the path's grid")
        frozen[:, j] = traj.values[0, start_slots]
    a_vals, B_vals, sig_vals, corr, jf = _tabulate(model, grid, path, [i], range(model.n))
    # The full-system kernel sums b_ij x_j over j in order.  Here the terms
    # before the own column are summed up front into one head term, and the
    # own term goes first: float addition commutes (b z + head == head + b z),
    # and 0 + b z == b z because b_ii z > 0.
    pressure = B_vals[:, 0, :] * frozen
    others = pressure[:, i + 1 :]
    if i:
        head = np.zeros(len(frozen))
        for j in range(i):
            head += pressure[:, j]
        others = np.column_stack((head, others))
    return _run_scalar(
        grid, path, math.log(float(x0_i)), a_vals[:, 0], B_vals[:, 0, i],
        sig_vals[:, 0], corr[:, 0], jf, others.ravel().tolist(),
    )


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering: lossless for float64."""
    return format(float(x), ".17g")


def _write_table(fileobj, header, columns) -> None:
    """Write a CSV header row, then one row per entry of the equal-length columns.

    String cells are written as they are; every other cell is a number and is
    rendered by :func:`format_float`.  This is the one place that writes rows.
    """
    cells = [[v if isinstance(v, str) else format_float(v) for v in col] for col in columns]
    fileobj.write(",".join(header) + "\n")
    fileobj.write("".join(",".join(row) + "\n" for row in zip(*cells, strict=True)))


def write_trajectory_csv(traj: Trajectory, fileobj, header_names=None) -> None:
    """Write slots as rows: time, slot_kind, one column per species.

    Rows stop at the first slot where any species is NaN.  Diverged paths end
    with a DIVERGED sentinel row after the last finite slot.
    """
    n = traj.species_count
    names = header_names or [f"X_{i + 1}" for i in range(n)]
    grid = traj.grid
    nan_slots = np.flatnonzero(np.isnan(traj.values).any(axis=0))
    stop = int(nan_slots[0]) if len(nan_slots) else grid.n_slots
    _write_table(
        fileobj,
        ["time", "slot_kind", *names],
        [
            grid.slot_times[:stop].tolist(),
            [KIND_LABELS[k] for k in grid.slot_kinds[:stop].tolist()],
            *traj.values[:, :stop].tolist(),
        ],
    )
    if traj.diverged:
        fileobj.write("DIVERGED," + format_float(traj.diverged_at) + "," * n + "\n")
