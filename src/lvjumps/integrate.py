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

A single path runs :func:`_run_scalar` (one species, or the lower system
against frozen competitors) or :func:`_run_vector` (several species), which
store one pre-jump state per node; :func:`_trajectory` places them on the
slots, a post-jump state being the pre-jump state times the jump's factors,
the product the loop continued from.  These loops hold only floats: the
coefficient tables are flat lists indexed ``l*n + i`` (``l*n*n + i*n + j``
for the interactions) and the states go onto one flat list, since thousands
of surviving per-slot lists would make CPython's cyclic garbage collector
walk the whole heap.  Monte Carlo batches run :func:`_summarise`, which moves
every path over its own next interval on (species, paths) arrays, with the
single-path arithmetic elementwise and in the same order, and keeps of each
path only what its estimator reduces.  Each step writes into buffers made
once, on operands of one shape (a ``Const`` model's tables have one row).
Its states take libm's ``exp`` of whole arrays (:func:`_libm`, from log states
laid out backwards): numpy's SIMD ``exp`` rounds differently on some inputs.
All three loops take a jump through :func:`_jump`.

CSV numbers are written as ``%.17g``, a block of rows per ``%`` on a row
template, and a path's ``time,slot_kind`` cells are rendered once, by its grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, IntegrationError
from .coefficients import Const
from .model import ModelSpec, as_initial_state, check_species, require_valid
from .noise import FLOAT_FORMAT, DrivingPath, MergedGrid

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
_TINY = np.finfo(float).tiny  # the smallest normal float


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
        return _species_norms(self.values)


def _species_norms(values):
    """Euclidean norm over the first axis, the squares summed in species order;
    where that sum is 0, subnormal or inf, of the values scaled by their largest."""
    with np.errstate(over="ignore"):
        total = values[0] * values[0]
        for v in values[1:]:
            total += v * v
    if _TINY <= total.min() and total.max() < math.inf:
        return np.sqrt(total)
    scale = values.max(axis=0)
    scaled = scale * np.sqrt(np.sum((values / scale) ** 2, axis=0))
    return np.where((_TINY <= total) & (total < math.inf), np.sqrt(total), scaled)


def _libm(ufunc, values, out):
    """``ufunc(values, out=out)`` with libm's bits, for ``values`` laid out backwards
    (a reversed view) and ``out`` forwards: numpy flips no operands whose strides
    differ in sign and runs its libm loop (:func:`_reversed`, if it passed its
    probe).  A single value is contiguous, so it goes through :mod:`math`."""
    if out.size > 1 and _reversal_is_libm(ufunc):
        return _reversed(ufunc, values, out)
    out.reshape(-1)[:] = list(map(getattr(math, ufunc.__name__), values.ravel().tolist()))
    return out


def _reversed(ufunc, values, out):
    """The call form of :func:`_libm` that its probe checks."""
    return ufunc(values, out=out)


@functools.cache
def _reversal_is_libm(ufunc) -> bool:
    """Whether :func:`_reversed` equals :mod:`math` on 4,096 fixed values laid out as
    :func:`_summarise` lays out its log states; run on first use."""
    rng = np.random.default_rng(21)
    values = np.concatenate([rng.uniform(-5.0, 5.0, 2048),
                             rng.uniform(LOG_LOW, LOG_HIGH, 2048)])[::-1].reshape(2, 2048)
    got = _reversed(ufunc, values, np.empty(values.shape))
    return got.ravel().tolist() == list(map(getattr(math, ufunc.__name__), values.ravel().tolist()))


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


def _jump_factors(model: ModelSpec, taus, marks, rows) -> np.ndarray:
    """Per jump at the times ``taus`` with ``marks``, the factors ``1 + gamma_row(tau)``
    of species ``rows``; one elementwise ``gamma[row][k]`` call covers every jump of mark ``k``."""
    factors = np.empty((len(taus), len(rows)))
    for k in range(model.mark_count):
        of_mark = marks == k
        at = taus[of_mark]
        for c, i in enumerate(rows):
            factors[of_mark, c] = 1.0 + np.asarray(model.gamma[i][k](at), dtype=float)
    return factors


def _jump(x, factors, times, node):
    """State after a jump at node ``node`` of ``times`` and its logs, or None when
    it leaves the log window."""
    nxt = [xi * fi for xi, fi in zip(x, factors)]
    logs = [math.log(v) if v > 0.0 else v - math.inf for v in nxt]  # NaN stays NaN
    for lv in logs:
        if not LOG_LOW < lv < LOG_HIGH:
            if any(v != v for v in logs):
                raise IntegrationError(f"NaN state at t={float(times[node])!r}")
            return None
    return nxt, logs


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
    return _simulate_one(model, x0, path)


def simulate_upper(model: ModelSpec, i: int, x0_i: float, path: DrivingPath) -> Trajectory:
    """Integrate the scalar upper comparison system for species ``i``.

    The drift keeps only the self-interaction ``a_i - b_ii Y_i``; noise and
    jumps are identical to the full system's, so the result dominates the
    ``i``-th component pathwise.
    """
    return _simulate_one(model, x0_i, path, species=i)


def _start(model: ModelSpec, x0, species):
    """Rows and log start of the full system from ``x0`` (``species`` None)
    or of the upper system of ``species`` from the scalar ``x0``."""
    if species is None:
        require_valid(model)
        return range(model.n), [math.log(v) for v in as_initial_state(x0, model.n).x0]
    check_species(model, species, x0)
    return [species], [math.log(float(x0))]


def _simulate_one(model: ModelSpec, x0, path: DrivingPath, species=None) -> Trajectory:
    """Trajectory of one path for the system :func:`_start` picks; the
    single-path loops cost 5 to 35 times less than a batch of one."""
    rows, logx0 = _start(model, x0, species)
    factors = _jump_factors(model, path.jump_times, path.jump_marks, rows)
    loop = _run_scalar if len(rows) == 1 else _run_vector
    tables = _tabulate(model, path.node_times[:-1], rows, rows)
    return _trajectory(path.grid, factors, *loop(path, logx0, *tables, factors))


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
    jumps = dict(zip((path.grid.jump_nodes - 1).tolist(), jump_factors.tolist()))  # by interval
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
        if l in jumps:
            after = _jump(x, jumps[l], times, l + 1)
            if after is None:
                return states, (l + 1, True)
            x, logx = after
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
    jumps = dict(zip((path.grid.jump_nodes - 1).tolist(), jump_factors.tolist()))  # by interval
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
        if l in jumps:
            after = _jump([z], jumps[l], times, l + 1)
            if after is None:
                return states, (l + 1, True)
            (z,), (logz,) = after
    return states, (steps + 1, False) if steps < len(dt) else None


# A Monte Carlo batch of log-Euler paths holds at most about this many node
# values (species x nodes x paths): every path's noise, grid and functional
# terms live until the batch ends, so a long horizon gets fewer paths per
# batch.  The coefficients are tabulated this many intervals at a time.
_BATCH_STATES = 2**21
_BLOCK = 128


def _batch_size(width: int, nodes: int) -> int:
    """Paths per batch for ``width`` species on paths of about ``nodes`` nodes."""
    return max(1, _BATCH_STATES // (width * nodes))


def _summarise(model: ModelSpec, x0, paths, species=None, at=(), trapezoid=False) -> list:
    """Batched kernel: what the Monte Carlo estimators reduce, per driving path.

    The ``paths`` advance together for the system :func:`_start` picks, path
    ``p`` in column ``p`` of (n, P) arrays, with the arithmetic of
    :func:`_run_vector` in the same order, elementwise, so a path gets the same
    bits in any batch.  Past its last node a path has ``dt = dW = 0``; one that
    leaves the log window is retired, reset to log 0 and given no more steps.

    A diverged path gives None, any other ``(at_states, final, terms)``: its
    states at the node times ``at`` (post-jump), shape (n, len(at)); its final
    state; with ``trapezoid``, the growth functional's trapezoid terms
    ``0.5 dt (|X(t_l)| + |X(t_l+1 -)|)``.  Each block reduces its states into
    these with the norms and products of a :class:`Trajectory`; each path's
    terms fill one row, which ``np.sum`` reduces with the trajectory's bits.
    """
    rows, logx0 = _start(model, x0, species)
    n, P = len(rows), len(paths)
    ends = [len(path.node_times) - 1 for path in paths]
    last = max(ends)
    # every jump of the batch by node, each node's in path order, and its factors
    jump_node = np.concatenate([path.grid.jump_nodes for path in paths])
    order = np.argsort(jump_node, kind="stable")
    jump_node = np.append(jump_node[order], last + 1)  # then a node past every block
    jump_path = np.repeat(np.arange(P), [path.jump_count for path in paths])[order]
    taus, marks = (np.concatenate([getattr(path, v) for path in paths])[order]
                   for v in ("jump_times", "jump_marks"))
    factors = _jump_factors(model, taus, marks, rows)
    # the nodes at the times ``at``, then the last node
    nodes = np.column_stack([np.stack([path.grid._nodes_at(at) for path in paths]), ends])
    states = np.empty((P, n, nodes.shape[1]))
    terms = np.empty((P, last)) if trapezoid else None
    live = [True] * P  # False once a path has left the log window
    # the log state lies backwards in ``lbuf``, the layout :func:`_libm` takes
    lbuf = np.empty(n * P)
    logx = lbuf[::-1].reshape(n, P)
    logx[:] = np.asarray(logx0)[:, None]
    x = _libm(np.exp, logx, np.empty((n, P)))
    # prod[j] = B[:, j] * x[j], summed into acc = prod[0] in order of j
    prod = np.empty((n, n, P))
    acc = prod[0]
    # a model of constant coefficients is tabulated at one time per block, then read
    # by every step: tabulating all of a block's rows made mc_full_system 13% slower
    const = all(isinstance(f, Const) for f in model.all_coefficients())

    def retire(p, r):
        """Path ``p`` leaves the batch after block row ``r``."""
        live[p] = False
        logx[:, p] = 0.0
        post[r + 1, :, p] = 1.0
        dt[r + 1 :, :, p] = 0.0
        sdw[r + 1 :, :, p] = 0.0

    for l0 in range(0, last, _BLOCK):
        # a path that has ended or left gets dt = dW = 0 and its final time's coefficients
        top = min(l0 + _BLOCK, last)
        L = top - l0
        t_cols, dw_cols = [], []
        for p in range(P):
            t = paths[p].node_times
            k = min(ends[p], top) - l0 if live[p] and ends[p] >= l0 else -1
            if k == L:  # a slice: padding every column made mc_full_system 10% slower
                t_cols.append(t[l0 : top + 1])
                dw_cols.append(paths[p].node_increments[l0:top])
            else:
                t_cols.append(np.concatenate([t[l0 : l0 + k + 1], np.full(L - k, t[-1])]))
                k = max(k, 0)
                dw_cols.append(np.concatenate([paths[p].node_increments[l0 : l0 + k], np.zeros(L - k)]))
        t_left, dw = (np.array(v).T.copy() for v in (t_cols, dw_cols))
        a, B, sig, corr = _tabulate(model, t_left[:1] if const else t_left[:-1], rows, rows)
        B = B.transpose(0, 2, 1, 3).copy()  # B[r, j]: column j
        a, B, corr = (np.broadcast_to(v, (L,) + v.shape[1:]) for v in (a, B, corr))
        # each array whole at every step: numpy broadcasts slower than it loops
        dt, sdw = np.repeat(np.diff(t_left, axis=0)[:, None], n, axis=1), sig * dw[:, None]
        del t_left, dw
        # post[r]: the state just after node l0 + r's jump
        post = np.empty((len(dt) + 1, n, P))
        post[0] = x
        xs = post[:, :, None, :]  # xs[r, j]: x[j], for every row of B's column j
        # this block's jumps, listed per block so that few lists live for the cyclic collector
        lo, hi = np.searchsorted(jump_node, (l0, top), side="right")
        jn = jump_node[lo : hi + 1].tolist()
        jp, jf = (v[lo:hi].tolist() for v in (jump_path, factors))
        k = 0
        jumped, before_jumps = [], []  # the jumps' places in ``left`` below, their states
        for r, node in enumerate(range(l0 + 1, top + 1)):  # the step to ``node``
            np.multiply(B[r], xs[r], out=prod)
            for j in range(1, n):
                acc += prod[j]
            np.subtract(a[r], acc, out=acc)
            acc -= corr[r]
            acc *= dt[r]
            acc += sdw[r]
            logx += acc
            if not (LOG_LOW < np.minimum.reduce(lbuf) and np.maximum.reduce(lbuf) < LOG_HIGH):
                if np.isnan(logx).any():
                    p = int(np.flatnonzero(np.isnan(logx).any(axis=0))[0])
                    raise IntegrationError(f"NaN state at t={float(paths[p].node_times[node])!r}")
                inside = ((LOG_LOW < logx) & (logx < LOG_HIGH)).all(axis=0)
                for p in np.flatnonzero(~inside).tolist():
                    retire(p, r)
            _libm(np.exp, logx, post[r + 1])
            while jn[k] == node:
                p, f = jp[k], jf[k]
                k += 1
                if not live[p]:
                    continue
                before = post[r + 1, :, p].tolist()
                after = _jump(before, f, paths[p].node_times, node)
                if after is None:
                    retire(p, r)
                    continue
                post[r + 1, :, p], logx[:, p] = after
                jumped.append(r * P + p)
                before_jumps += before
        x = post[-1].copy()
        p, c = np.nonzero((nodes >= l0) & (nodes <= top))
        states[p, :, c] = post[nodes[p, c] - l0, :, p]
        if trapezoid:
            # the states a diverged path left behind may overflow; they are never read
            with np.errstate(over="ignore", invalid="ignore"):
                norms = _species_norms(post.transpose(1, 0, 2))
                left = norms[1:].copy()  # at each interval's end, before its jump
                if jumped:
                    left.put(jumped, _species_norms(np.reshape(before_jumps, (-1, n)).T))
                terms[:, l0:top] = (0.5 * dt[:, 0] * (norms[:-1] + left)).T
        # free this block's arrays before the next block's are built
        del a, B, sig, corr, dt, sdw, post, xs, jumped, before_jumps

    return [
        (states[p, :, :-1], states[p, :, -1], None if terms is None else terms[p, : ends[p]])
        if live[p] else None
        for p in range(P)
    ]


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
    grid = path.grid
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
    factors = _jump_factors(model, path.jump_times, path.jump_marks, [i])
    return _trajectory(grid, factors, *_run_scalar(
        path, [math.log(float(x0_i))], a_vals, B_vals[:, 0, i], sig_vals, corr, factors,
        others.ravel().tolist(), steps=int(unknown[0]) if len(unknown) else None,
    ))


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering: lossless for float64."""
    return FLOAT_FORMAT % float(x)


# Rows rendered by one ``%``: the whole table is never built as one string.
_BLOCK_ROWS = 4096


def _cell_format(column) -> str:
    """``%s`` for a column of strings, :data:`FLOAT_FORMAT` for one of numbers."""
    if not isinstance(column[0], str):
        return FLOAT_FORMAT  # a string among the numbers fails to render
    try:
        "".join(column)  # takes strings only
    except TypeError:
        raise TypeError("a table column mixes strings and numbers") from None
    return "%s"


def _write_table(fileobj, header, columns) -> None:
    """Write a CSV header row, then one row per entry of the equal-length columns.

    A column of strings is written as it is; any other holds numbers, rendered
    as :func:`format_float` renders them.  This is the one place that writes
    rows.  Raises ValueError when the columns differ in length and TypeError
    for a column that mixes strings and numbers.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows, width = len(cols[0]), len(cols)
    if any(len(c) != rows for c in cols):
        raise ValueError("table columns differ in length")
    fileobj.write(",".join(header) + "\n")
    template = ",".join(map(_cell_format, cols)) + "\n" if rows else ""
    for start in range(0, rows, _BLOCK_ROWS):
        cells = [None] * (min(_BLOCK_ROWS, rows - start) * width)
        for j, col in enumerate(cols):
            cells[j::width] = col[start : start + _BLOCK_ROWS]
        fileobj.write(template * (len(cells) // width) % tuple(cells))


def write_trajectory_csv(traj: Trajectory, fileobj, header_names=None) -> None:
    """Write slots as rows: time, slot_kind, one column per species.

    Rows stop at the first slot where any species is NaN.  Diverged paths end
    with a DIVERGED sentinel row after the last finite slot.
    """
    n = traj.species_count
    names = header_names or [f"X_{i + 1}" for i in range(n)]
    nan_slots = np.flatnonzero(np.isnan(traj.values).any(axis=0))
    stop = int(nan_slots[0]) if len(nan_slots) else traj.grid.n_slots
    _write_table(
        fileobj,
        ["time", "slot_kind", *names],
        [traj.grid.slot_cells[:stop], *traj.values[:, :stop].tolist()],
    )
    if traj.diverged:
        fileobj.write("DIVERGED," + format_float(traj.diverged_at) + "," * n + "\n")
