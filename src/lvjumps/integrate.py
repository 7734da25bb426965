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

The Monte Carlo estimators advance their paths in batches instead
(:func:`_simulate_paths`): one step moves every path of the batch over its
own next interval on (species, paths) arrays, so the per-step interpreter
work is shared by the batch.  The arithmetic is the single-path kernels',
operation for operation and elementwise, so each path gets the same bits as
from :func:`simulate_system` or :func:`simulate_upper`, whatever the batch.
States still go through libm's ``math.exp`` and ``math.log`` value by value:
numpy's vectorised ``exp`` and ``log`` round differently on some inputs.
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


def _tabulate(model: ModelSpec, t_left, rows, cols):
    """Coefficient values at the left endpoints ``t_left`` of the intervals.

    ``t_left`` has shape (L,) for one path or (L, P) for a batch of paths.
    For species ``rows`` this returns ``a`` and ``sigma`` with shape
    (L, rows, ...), the Ito-plus-compensator correction
    ``sigma^2/2 + sum_k w_k gamma_k`` of the same shape, and the interactions
    ``B[row][col]`` with shape (L, rows, cols, ...), where ``...`` is
    ``t_left``'s trailing shape.  Every value is computed elementwise, so a
    time gets the same bits whatever the shape it is evaluated in.
    """
    weights = model.marks.weights
    a_vals = np.stack([np.asarray(model.a[i](t_left), dtype=float) for i in rows], axis=1)
    sig_vals = np.stack([np.asarray(model.sigma[i](t_left), dtype=float) for i in rows], axis=1)
    corr = 0.5 * sig_vals**2
    B_vals = np.empty((len(t_left), len(rows), len(cols)) + t_left.shape[1:])
    for r, i in enumerate(rows):
        for k in range(model.mark_count):
            corr[:, r] += weights[k] * np.asarray(model.gamma[i][k](t_left), dtype=float)
        for c, j in enumerate(cols):
            B_vals[:, r, c] = model.B[i][j](t_left)
    return a_vals, B_vals, sig_vals, corr


def _jump_factors(model: ModelSpec, path: DrivingPath, rows):
    """Per jump of ``path``, the factors ``1 + gamma_row(tau)`` of species ``rows``."""
    return [
        [1.0 + float(model.gamma[i][int(mark)](float(tau))) for i in rows]
        for tau, mark in zip(path.jump_times, path.jump_marks)
    ]


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
            raise IntegrationError(f"NaN state at t={float(t)!r}")
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
    return _run_vector(
        grid, path, state, *_tabulate(model, grid.times[:-1], species, species),
        _jump_factors(model, path, species),
    )


def _self_regulated(model, grid, path, i, x0_i):
    """Species ``i`` with the drift ``a_i - b_ii X_i`` only."""
    a_vals, B_vals, sig_vals, corr = _tabulate(model, grid.times[:-1], [i], [i])
    return _run_scalar(
        grid, path, math.log(float(x0_i)), a_vals[:, 0], B_vals[:, 0, 0],
        sig_vals[:, 0], corr[:, 0], _jump_factors(model, path, [i]),
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
                raise IntegrationError(f"NaN state at t={float(grid.times[l + 1])!r}")
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


def _run_scalar(grid, path, logz0, a, b_own, sig, corr, jump_factors, others=(), steps=None):
    """Width-1 kernel: one species against frozen competitors.

    The interaction sum is ``b_own * z`` plus, in order, the terms
    ``others[l*width : (l+1)*width]`` of interval ``l``, with the same width
    for every interval (see :func:`simulate_lower`; the self-regulated
    systems have none), which reproduces the full-system kernel's rounding
    term for term.  When the frozen competitors coincide with the full state
    the float arithmetic coincides too, and the pathwise ordering cannot be
    broken by rounding.  With ``steps`` set, only the first ``steps``
    intervals are integrated and the path is flagged diverged at the next
    node.
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
    if steps is None:
        steps = len(dt)
    for l in range(steps):
        acc = b_own[l] * z
        if width:
            for m in range(l * width, (l + 1) * width):
                acc += others[m]
        logz += (a[l] - acc - corr[l]) * dt[l] + sig[l] * dw[l]
        if logz != logz:
            raise IntegrationError(f"NaN state at t={float(grid.times[l + 1])!r}")
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
    if diverged_at is None and steps < len(dt):
        diverged_at = float(grid.times[steps + 1])
    return _finish(grid, flat, 1, diverged_at)


# Monte Carlo batches: at most this many paths advance together, and a batch
# stores at most about this many node states (species x nodes x paths), so a
# long horizon shrinks the batch.  The coefficients are tabulated this many
# intervals at a time.
_BATCH_PATHS = 64
_BATCH_STATES = 2**21
_BLOCK = 128


def _batch_size(width: int, nodes: int) -> int:
    """Paths per batch for ``width`` species on paths of about ``nodes`` nodes."""
    return max(1, min(_BATCH_PATHS, _BATCH_STATES // (width * nodes)))


def _simulate_paths(model: ModelSpec, x0, paths, species=None):
    """Trajectories of the driving ``paths``, all advanced together.

    With ``species`` None this is the full system from the initial state
    ``x0``, otherwise the upper system of species ``species`` from the scalar
    ``x0``.  Each trajectory, in the order of ``paths``, is bit for bit the
    one :func:`simulate_system` or :func:`simulate_upper` gives for that path
    alone; see :func:`_run_batch`.
    """
    if species is None:
        require_valid(model)
        rows = range(model.n)
        logx0 = [math.log(v) for v in as_initial_state(x0, model.n).x0]
    else:
        _check_species(model, species, x0)
        rows = [species]
        logx0 = [math.log(float(x0))]
    return _run_batch(model, rows, logx0, paths)


def _run_batch(model, rows, logx0, paths):
    """Kernel over a batch: the state of path ``p`` is column ``p`` of (n, P) arrays.

    Step ``l`` advances every path over its own interval ``l`` with the
    arithmetic of :func:`_run_vector`, in the same order: ``acc`` sums
    ``b_ij x_j`` over ``j`` ascending, the drift is ``(a - acc - c) dt + s dW``,
    ``exp`` is libm's, applied value by value, and jumps go through
    :func:`_jump`.  Every operation is elementwise, so a path gets the same
    bits in any batch.  A path that has ended (past its last node) or left
    the log window is retired: its state is reset to log 0 and its remaining
    ``dt``, ``dW`` and jumps are zero, so it stays put and cannot leave the
    window again.  The kernel stores each node's pre-jump state; the
    post-jump state is that times the jump factors, as :func:`_jump` computes
    it.
    """
    n, P = len(rows), len(paths)
    times = [path.node_times for path in paths]
    ends = [len(t) - 1 for t in times]
    factors = [
        np.array(_jump_factors(model, path, rows), dtype=float).reshape(-1, n) for path in paths
    ]
    jumps_at = (
        np.concatenate([np.searchsorted(t, path.jump_times) for t, path in zip(times, paths)]),
        np.repeat(np.arange(P), [path.jump_count for path in paths]),
        np.concatenate(factors),
    )
    finishing = {}
    for p, end in enumerate(ends):
        finishing.setdefault(end - 1, []).append(p)
    live = np.ones(P, dtype=bool)
    stops = [None] * P  # (node, whether its pre-jump state was stored) where a path left
    logx = np.repeat(np.asarray(logx0)[:, None], P, axis=1)
    x = np.fromiter(map(math.exp, logx.ravel().tolist()), float, n * P).reshape(n, P)
    store = np.empty((max(ends) + 1, n, P))
    store[0] = x

    def retire(p, r):
        """Path ``p`` leaves the batch after block row ``r``."""
        live[p] = False
        logx[:, p] = 0.0
        x[:, p] = 1.0
        dt[r + 1 :, p] = 0.0
        sdw[r + 1 :, :, p] = 0.0
        jumps[r + 1 :, p] = False

    for l0 in range(0, len(store) - 1, _BLOCK):
        a, B, corr, dt, sdw, jumps, jump_f = _block(model, rows, paths, ends, live, jumps_at, l0)
        any_jump = jumps.any(axis=1).tolist()
        for r in range(len(dt)):
            l = l0 + r
            Br = B[r]
            acc = Br[:, 0] * x[0]
            for j in range(1, n):
                acc += Br[:, j] * x[j]
            drift = a[r] - acc
            drift -= corr[r]
            drift *= dt[r]
            drift += sdw[r]
            logx += drift
            if not (LOG_LOW < logx.min() and logx.max() < LOG_HIGH):
                if np.isnan(logx).any():
                    p = int(np.flatnonzero(np.isnan(logx).any(axis=0))[0])
                    raise IntegrationError(f"NaN state at t={float(times[p][l + 1])!r}")
                inside = ((LOG_LOW < logx) & (logx < LOG_HIGH)).all(axis=0)
                for p in np.flatnonzero(~inside).tolist():
                    stops[p] = (l + 1, False)
                    retire(p, r)
            x = np.fromiter(map(math.exp, logx.ravel().tolist()), float, n * P).reshape(n, P)
            store[l + 1] = x
            if any_jump[r]:
                for p in jumps[r].nonzero()[0].tolist():
                    nxt = _jump(x[:, p].tolist(), jump_f[r, :, p].tolist(), times[p][l + 1])
                    if nxt is None:
                        stops[p] = (l + 1, True)
                        retire(p, r)
                    else:
                        x[:, p] = nxt
                        logx[:, p] = [math.log(v) for v in nxt]
            for p in finishing.get(l, ()):
                retire(p, r)
        # free this block's tables before the next block's are built
        del a, B, corr, dt, sdw, jumps, jump_f

    for p, path in enumerate(paths):
        yield _from_nodes(path, store[: ends[p] + 1, :, p], factors[p], stops[p])


def _block(model, rows, paths, ends, live, jumps_at, l0):
    """Inputs of the batch's intervals ``l0, l0 + 1, ...``, at most ``_BLOCK`` of them.

    Returns the coefficient tables of :func:`_tabulate` (without sigma),
    ``dt``, ``sigma * dW``, the jump mask and the jump factors, each with
    a leading row per interval and a trailing column per path.  A path that
    has ended or left the batch gets ``dt = dW = 0``, no jumps and
    coefficients evaluated at its final time.  ``jumps_at`` holds every jump
    of the batch as node, path and factors.
    """
    n, P = len(rows), len(paths)
    size = min(_BLOCK, max(ends) - l0)
    nodes = np.empty((size + 1, P))
    dw = np.zeros((size, P))
    for p, path in enumerate(paths):
        t = path.node_times
        k = min(ends[p] - l0, size) if live[p] else -1
        nodes[: k + 1, p] = t[l0 : l0 + k + 1]
        nodes[k + 1 :, p] = t[-1]
        dw[: max(k, 0), p] = path.node_increments[l0 : l0 + k]
    node, path_of, factors = jumps_at
    here = (node > l0) & (node <= l0 + size) & live[path_of]
    jumps = np.zeros((size, P), dtype=bool)
    jumps[node[here] - l0 - 1, path_of[here]] = True
    jump_f = np.ones((size, n, P))
    jump_f[node[here] - l0 - 1, :, path_of[here]] = factors[here]
    a, B, sig, corr = _tabulate(model, nodes[:-1], rows, rows)
    return a, B, corr, nodes[1:] - nodes[:-1], sig * dw[:, None, :], jumps, jump_f


def _from_nodes(path, left, factors, stop):
    """Trajectory from the pre-jump node states ``left`` (nodes, n) of one path."""
    grid = merge_grid(path)
    values = np.empty((left.shape[1], grid.n_slots))
    values[:, grid.node_first_slot] = left.T
    jumped = np.flatnonzero(grid.is_jump)
    values[:, grid.node_first_slot[jumped] + 1] = (left[jumped] * factors).T
    diverged_at = None
    if stop is not None:
        node, stored = stop
        values[:, grid.node_first_slot[node] + stored :] = np.nan
        diverged_at = float(grid.times[node])
    return Trajectory(
        grid=grid, values=values, diverged=stop is not None, diverged_at=diverged_at
    )


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

    Where a competitor's upper solution has diverged, its value is NaN and
    the lower solution cannot be computed beyond that node: it is returned
    flagged diverged at the first node it cannot compute, with NaN slots from
    there on.

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
    a_vals, B_vals, sig_vals, corr = _tabulate(model, grid.times[:-1], [i], range(model.n))
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
    unknown = np.flatnonzero(np.isnan(frozen).any(axis=1))
    return _run_scalar(
        grid, path, math.log(float(x0_i)), a_vals[:, 0], B_vals[:, 0, i],
        sig_vals[:, 0], corr[:, 0], _jump_factors(model, path, [i]), others.ravel().tolist(),
        steps=int(unknown[0]) if len(unknown) else None,
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
