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

Every full- and upper-system trajectory comes from :func:`_simulate_paths`.
It tabulates the coefficients and jump factors and picks a step loop by what
it is given: :func:`_run_batch` for two or more paths, else :func:`_run_scalar`
(one species) or :func:`_run_vector` (several), since a batch of one costs 5
to 35 times as much as those.  The lower system runs :func:`_run_scalar` with
frozen competitors.  Each loop stores one pre-jump state per node, and
:func:`_trajectory` places them on the slots; a post-jump state is the
pre-jump state times the jump's factors, the product the loop continued from.

The single-path loops hold only floats: the coefficient tables are flat lists
indexed ``l*n + i`` (``l*n*n + i*n + j`` for the interactions) and the node
states go onto one flat list.  Thousands of per-slot or per-row lists would
survive the whole path and make CPython's cyclic garbage collector run full
collections over the whole heap, which cost more than the arithmetic.  The
batch loop moves every path over its own next interval on (species, paths)
arrays, so the per-step interpreter work is shared; its arithmetic is the
single-path loops', elementwise and in the same order, so a path gets the
same bits alone or in any batch.  States go through libm's ``math.exp`` and
``math.log`` value by value: numpy's vectorised ``exp`` and ``log`` round
differently on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, IntegrationError
from .model import ModelSpec, as_initial_state, check_species, require_valid
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


def _jump_factors(model: ModelSpec, path: DrivingPath, rows) -> np.ndarray:
    """Per jump of ``path``, the factors ``1 + gamma_row(tau)`` of species ``rows``."""
    per_jump = zip(path.jump_times.tolist(), path.jump_marks.tolist())
    factors = [[1.0 + float(model.gamma[i][k](tau)) for i in rows] for tau, k in per_jump]
    return np.array(factors, dtype=float).reshape(-1, len(rows))


def _jumps_by_interval(path: DrivingPath, factors: np.ndarray) -> list:
    """Per interval of ``path``: the factors of the jump at its right node, or None."""
    after = [None] * (len(path.node_times) - 1)
    nodes = np.searchsorted(path.node_times, path.jump_times).tolist()
    for node, f in zip(nodes, factors.tolist()):
        after[node - 1] = f
    return after


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


def _trajectory(grid: MergedGrid, factors, states, stop) -> Trajectory:
    """Trajectory from the pre-jump states a step loop stored, node after node.

    ``stop`` is None or ``(node, whether its pre-jump state was stored)``: the
    path diverged there, and the slots from the first one not computed are
    NaN.  A post-jump state is the pre-jump state times the jump's
    ``factors``, the product :func:`_jump` continues from.
    """
    n = factors.shape[1]
    left = np.full((grid.n_nodes, n), np.nan)
    done = np.asarray(states, dtype=float).reshape(-1, n)
    left[: len(done)] = done
    values = grid.on_slots(left.T, (left[grid.is_jump] * factors).T)
    diverged_at = None
    if stop is not None:
        node, stored = stop
        diverged_at = float(grid.times[node])
        values[:, grid.slot_at(diverged_at, "post" if stored else "left") :] = np.nan
    return Trajectory(
        grid=grid, values=values, diverged=stop is not None, diverged_at=diverged_at
    )


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
    (traj,) = _simulate_paths(model, x0, [path])
    return traj


def simulate_upper(model: ModelSpec, i: int, x0_i: float, path: DrivingPath) -> Trajectory:
    """Integrate the scalar upper comparison system for species ``i``.

    The drift keeps only the self-interaction ``a_i - b_ii Y_i``; noise and
    jumps are identical to the full system's, so the result dominates the
    ``i``-th component pathwise.
    """
    (traj,) = _simulate_paths(model, x0_i, [path], species=i)
    return traj


def _simulate_paths(model: ModelSpec, x0, paths, species=None):
    """Trajectories of the driving ``paths``, in their order.

    With ``species`` None this is the full system from the initial state
    ``x0``, otherwise the upper system of species ``species`` from the scalar
    ``x0``.  Two or more paths advance together in :func:`_run_batch`; a lone
    path runs :func:`_run_scalar` (width 1) or :func:`_run_vector` (width 2
    or more), which cost far less for one path.  A path gets the same bits
    from every loop.
    """
    if species is None:
        require_valid(model)
        rows = range(model.n)
        logx0 = [math.log(v) for v in as_initial_state(x0, model.n).x0]
    else:
        check_species(model, species, x0)
        rows = [species]
        logx0 = [math.log(float(x0))]
    factors = [_jump_factors(model, path, rows) for path in paths]
    if len(paths) == 1:
        (path,) = paths
        loop = _run_scalar if len(rows) == 1 else _run_vector
        tables = _tabulate(model, path.node_times[:-1], rows, rows)
        runs = [loop(path, logx0, *tables, factors[0])]
    else:
        runs = _run_batch(model, rows, logx0, paths, factors)
    for path, f, (states, stop) in zip(paths, factors, runs):
        yield _trajectory(merge_grid(path), f, states, stop)


def _run_vector(path, logx0, a_vals, B_vals, sig_vals, corr, jump_factors):
    """Kernel for one path of n >= 2 species, all advanced together.

    Returns the pre-jump state of each node it reached, flat, and the stop
    (see :func:`_trajectory`).
    """
    n = len(logx0)
    nn = n * n
    species = range(n)
    times = path.node_times
    dt = np.diff(times).tolist()
    dw = path.node_increments.tolist()
    a_l = a_vals.ravel().tolist()
    B_l = B_vals.ravel().tolist()
    s_l = sig_vals.ravel().tolist()
    c_l = corr.ravel().tolist()
    jumps = _jumps_by_interval(path, jump_factors)
    logx = list(logx0)
    x = [math.exp(v) for v in logx]
    states = list(x)
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
                raise IntegrationError(f"NaN state at t={float(times[l + 1])!r}")
        if bad:
            return states, (l + 1, False)
        x = [math.exp(v) for v in logx]
        states.extend(x)
        if jumps[l] is not None:
            x = _jump(x, jumps[l], times[l + 1])
            if x is None:
                return states, (l + 1, True)
            logx = [math.log(v) for v in x]
    return states, None


def _run_scalar(path, logx0, a, b_own, sig, corr, jump_factors, others=(), steps=None):
    """Width-1 kernel: one species of one path against frozen competitors.

    The interaction sum is ``b_own * z`` plus, in order, the terms
    ``others[l*width : (l+1)*width]`` of interval ``l``, with the same width
    for every interval (see :func:`simulate_lower`; the self-regulated
    systems have none), which reproduces the full-system kernel's rounding
    term for term.  When the frozen competitors coincide with the full state
    the float arithmetic coincides too, and the pathwise ordering cannot be
    broken by rounding.  With ``steps`` set, only the first ``steps``
    intervals are integrated and the path stops at the next node.  Returns
    what :func:`_run_vector` returns.
    """
    times = path.node_times
    dt = np.diff(times).tolist()
    dw = path.node_increments.tolist()
    a, b_own, sig, corr = (v.ravel().tolist() for v in (a, b_own, sig, corr))
    width = len(others) // len(dt)
    jumps = _jumps_by_interval(path, jump_factors)
    (logz,) = logx0
    z = math.exp(logz)
    states = [z]
    if steps is None:
        steps = len(dt)
    for l in range(steps):
        acc = b_own[l] * z
        if width:
            for m in range(l * width, (l + 1) * width):
                acc += others[m]
        logz += (a[l] - acc - corr[l]) * dt[l] + sig[l] * dw[l]
        if logz != logz:
            raise IntegrationError(f"NaN state at t={float(times[l + 1])!r}")
        if not (LOG_LOW < logz < LOG_HIGH):
            return states, (l + 1, False)
        z = math.exp(logz)
        states.append(z)
        if jumps[l] is not None:
            nxt = _jump([z], jumps[l], times[l + 1])
            if nxt is None:
                return states, (l + 1, True)
            (z,) = nxt
            logz = math.log(z)
    return states, (steps + 1, False) if steps < len(dt) else None


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


def _run_batch(model, rows, logx0, paths, factors):
    """Kernel over a batch: the state of path ``p`` is column ``p`` of (n, P) arrays.

    Step ``l`` advances every path over its own interval ``l`` with the
    arithmetic of :func:`_run_vector`, in the same order: ``acc`` sums
    ``b_ij x_j`` over ``j`` ascending, the drift is ``(a - acc - c) dt + s dW``,
    ``exp`` is libm's, applied value by value, and jumps go through
    :func:`_jump`.  Every operation is elementwise, so a path gets the same
    bits in any batch.  A path that has ended (past its last node) or left
    the log window is retired: its state is reset to log 0 and its remaining
    ``dt``, ``dW`` and jumps are zero, so it stays put and cannot leave the
    window again.  Returns, per path, its pre-jump node states (one row per
    node) and its stop, as :func:`_run_vector` does.
    """
    n, P = len(rows), len(paths)
    times = [path.node_times for path in paths]
    ends = [len(t) - 1 for t in times]
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

    return [(store[: end + 1, :, p], stop) for p, (end, stop) in enumerate(zip(ends, stops))]


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
    check_species(model, i, x0_i)
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
    factors = _jump_factors(model, path, [i])
    return _trajectory(grid, factors, *_run_scalar(
        path, [math.log(float(x0_i))], a_vals, B_vals[:, 0, i], sig_vals, corr, factors,
        others.ravel().tolist(), steps=int(unknown[0]) if len(unknown) else None,
    ))


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
