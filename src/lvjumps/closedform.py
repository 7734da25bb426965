"""Closed-form machinery: stochastic exponential and explicit logistic solution.

For the scalar linear jump SDE

    dY = [F(t) Y + f(t)] dt + [G(t) Y + g(t)] dW
         + integral over marks of [Y(t-) H(t,u) + h(t,u)] dN~(dt,du)

the fundamental solution of the homogeneous part is the stochastic
exponential

    Phi(t) = exp( int_0^t (F - G^2/2 + sum_k (ln(1+H_k) - H_k) w_k) ds
                  + int_0^t G dW + int_0^t ln(1+H) dN~ ),

and the full solution is Phi times an integral against 1/Phi (variation of
constants).  Expanding the centred jump measure, the deterministic exponent
collapses to ``int (F - G^2/2 - sum_k H_k w_k) ds`` plus the raw per-event sum
of ``ln(1+H)``; the deterministic part is evaluated in closed form for the
coefficient algebra, the Brownian part uses the path's increments.

The scalar self-regulating population equation is solved exactly by

    Y(t) = Phi(t) / ( 1/Y(0) + int_0^t Phi(s) b(s) ds ),

with the denominator integral evaluated by trapezoidal quadrature on the
merged grid.  ``Phi`` and the denominator are carried in log space throughout
so long horizons cannot overflow.  Both are computed for a batch of paths at
once, on (paths, nodes) arrays padded to the longest path, with each node's
value before and after its jump; a lone path is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientFn
from .errors import DomainError, GridMismatchError
from .model import MarkSpace, ModelSpec, check_species
from .noise import DrivingPath, MergedGrid

__all__ = [
    "LinearJumpSDE",
    "PathSeries",
    "fundamental_solution",
    "voc_solve",
    "explicit_logistic",
    "explicit_logistic_log",
]


@dataclass(frozen=True, eq=False)
class PathSeries:
    """Scalar values on the slots of a merged grid."""

    grid: MergedGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n_slots:
            raise GridMismatchError("series length must match the grid's slot count")

    def final(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class LinearJumpSDE:
    """Coefficients of the scalar linear jump SDE.

    ``H[k]``/``h[k]`` are the per-mark multiplicative/additive jump
    coefficients; the lemma behind the explicit solution requires
    ``H > -1`` everywhere.
    """

    F: CoefficientFn
    G: CoefficientFn
    f: CoefficientFn
    g: CoefficientFn
    H: tuple[CoefficientFn, ...]
    h: tuple[CoefficientFn, ...]
    marks: MarkSpace

    def __post_init__(self):
        object.__setattr__(self, "H", tuple(self.H))
        object.__setattr__(self, "h", tuple(self.h))
        if len(self.H) != self.marks.size or len(self.h) != self.marks.size:
            raise DomainError("need one H and one h per mark")


def _check_H(H) -> None:
    for k, Hk in enumerate(H):
        if Hk.infimum <= -1.0:
            raise DomainError(
                f"multiplicative jump coefficient {k + 1} reaches "
                f"{Hk.infimum:g} <= -1"
            )


def _log_phi(F_like, G, H, marks, paths):
    """The paths' node times, a C-contiguous (P, L_max) array padded with T (the
    increments with 0), and ln Phi at them, a (2, P, L_max) array: ``[0]`` before
    each node's jump, ``[1]`` after it (equal off jump nodes; a padded node
    repeats its path's last value).  A growth override needs a lone path."""
    _check_H(H)
    times = np.full((len(paths), max(len(p.node_times) for p in paths)), paths[0].T)
    increments = np.zeros((len(paths), times.shape[1] - 1))
    for row, path in enumerate(paths):
        times[row, :len(path.node_times)] = path.node_times
        increments[row, :len(path.node_increments)] = path.node_increments
    weights = np.asarray(marks.weights, dtype=float)

    if isinstance(F_like, PathSeries):
        grid = paths[0].grid
        if not F_like.grid.same_nodes(grid):
            raise GridMismatchError("growth override must share the path's grid")
        start = F_like.values[grid.interval_start_slots()]
        end = F_like.values[grid.interval_end_slots()]
        det_F = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(times[0]) * (start + end))))
    else:
        det_F = np.asarray(F_like.antiderivative(times), dtype=float)

    cont = det_F - 0.5 * np.asarray(G.square_antiderivative(times), dtype=float)
    for k in range(marks.size):
        cont = cont - weights[k] * np.asarray(H[k].antiderivative(times), dtype=float)
    cont[:, 1:] += np.cumsum(np.asarray(G(times[:, :-1]), dtype=float) * increments, axis=1)

    # ln(1+H) of each jump at its node, from one H[k] call per mark
    taus = np.concatenate([p.jump_times for p in paths])
    labels = np.concatenate([p.jump_marks for p in paths])
    factors = np.empty(len(taus))
    for k in set(labels.tolist()):
        factors[labels == k] = H[k](taus[labels == k])
    if np.any(factors <= -1.0):
        k = np.argmax(factors <= -1.0)  # the first in path order
        raise DomainError(f"jump coefficient at t={taus[k]:g} equals {factors[k]:g} <= -1")
    rows = np.repeat(np.arange(len(paths)), [p.jump_count for p in paths])
    add = np.zeros(times.shape)
    add[rows, np.concatenate([p.grid.jump_nodes for p in paths])] = [
        math.log1p(v) for v in factors.tolist()]
    incl = np.cumsum(add, axis=1)
    return times, np.stack((cont + (incl - add), cont + incl))


def _on_slots(path: DrivingPath, at_nodes) -> np.ndarray:
    """A lone path's slot values from its (2, 1, L) before/after node values."""
    grid = path.grid
    return grid.on_slots(at_nodes[0, 0], at_nodes[1, 0][grid.is_jump])


def fundamental_solution(sde: LinearJumpSDE, path: DrivingPath) -> PathSeries:
    """Stochastic exponential of the homogeneous part of ``sde`` along a path.

    Raises:
        DomainError: if any multiplicative jump coefficient reaches -1.
    """
    _, log_phi = _log_phi(sde.F, sde.G, sde.H, sde.marks, [path])
    return PathSeries(path.grid, np.exp(_on_slots(path, log_phi)))


def voc_solve(sde: LinearJumpSDE, y0: float, path: DrivingPath) -> PathSeries:
    """Variation-of-constants solution of the full linear jump SDE.

    ds-integrals use trapezoidal quadrature on the merged grid, the Brownian
    integral uses left-endpoint increment sums, and jump events contribute
    ``h/(1+H)`` at the pre-jump value of ``1/Phi``.  The compensator of the
    centred event sum combines with the ``H h/(1+H)`` drift term into a plain
    ``- sum_k h_k w_k`` contribution, which is what is integrated here.
    """
    grid = path.grid
    log_phi = _on_slots(path, _log_phi(sde.F, sde.G, sde.H, sde.marks, [path])[1])
    phi = np.exp(log_phi)
    phi_inv = np.exp(-log_phi)

    times = grid.times
    deltas = np.diff(times)
    weights = np.asarray(sde.marks.weights, dtype=float)
    start_slots = grid.interval_start_slots()
    end_slots = grid.interval_end_slots()

    def endpoint_vals(fn):
        return (
            np.asarray(fn(times[:-1]), dtype=float),
            np.asarray(fn.value_left(times[1:]), dtype=float),
        )

    f_s, f_e = endpoint_vals(sde.f)
    G_s, G_e = endpoint_vals(sde.G)
    g_s, g_e = endpoint_vals(sde.g)
    c_s = f_s - G_s * g_s
    c_e = f_e - G_e * g_e
    for k in range(sde.marks.size):
        hk_s, hk_e = endpoint_vals(sde.h[k])
        c_s = c_s - weights[k] * hk_s
        c_e = c_e - weights[k] * hk_e

    integrand_s = phi_inv[start_slots] * c_s
    integrand_e = phi_inv[end_slots] * c_e
    det = np.concatenate(([0.0], np.cumsum(0.5 * deltas * (integrand_s + integrand_e))))

    brown = np.concatenate(
        ([0.0], np.cumsum(phi_inv[start_slots] * g_s * path.node_increments))
    )

    ev_add = np.zeros(grid.n_nodes)
    for idx, tau, k in zip(grid.jump_nodes.tolist(), path.jump_times.tolist(),
                           path.jump_marks.tolist()):
        Hval = float(sde.H[k](tau))
        hval = float(sde.h[k](tau))
        ev_add[idx] = phi_inv[grid.node_first_slot[idx]] * hval / (1.0 + Hval)
    ev_incl = np.cumsum(ev_add)
    ev_before = ev_incl - ev_add

    node_cont = det + brown
    inner = grid.on_slots(node_cont + ev_before, (node_cont + ev_incl)[grid.is_jump])
    return PathSeries(grid, phi * (y0 + inner))


def _logistic_log(model: ModelSpec, i: int, starts, paths, growth_override=None):
    """``ln Y`` of species ``i`` on ``paths`` from each of ``starts``, laid out as
    :func:`_log_phi`'s ``ln Phi``; the start-free part is computed once, and
    ``int Phi b`` is a sum of trapezoids on the node intervals."""
    F = growth_override if growth_override is not None else model.a[i]
    times, log_phi = _log_phi(F, model.sigma[i], model.gamma[i], model.marks, paths)
    b = model.B[i][i]
    log_b_s = np.log(np.asarray(b(times[:, :-1]), dtype=float))
    log_b_e = np.log(np.asarray(b.value_left(times[:, 1:]), dtype=float))
    with np.errstate(divide="ignore"):  # a padded interval has length 0
        log_inc = np.log(0.5 * np.diff(times, axis=1)) + np.logaddexp(
            log_phi[1, :, :-1] + log_b_s, log_phi[0, :, 1:] + log_b_e
        )
    log_ys = []
    for x0_i in starts:
        log_den = np.empty(times.shape)
        log_den[:, 0] = -math.log(x0_i)
        log_den[:, 1:] = log_inc
        log_ys.append(log_phi - np.logaddexp.accumulate(log_den, axis=1))
    return log_ys


def explicit_logistic_log(model: ModelSpec, i: int, x0_i: float, path: DrivingPath,
                          growth_override=None) -> PathSeries:
    """Log of the exact scalar solution: ``ln Y = ln Phi - ln(1/x0 + int Phi b)``.

    Safe for long horizons in both the growing and the dying regime.
    """
    check_species(model, i, x0_i)
    (log_y,) = _logistic_log(model, i, (x0_i,), [path], growth_override)
    return PathSeries(path.grid, _on_slots(path, log_y))


def explicit_logistic(model: ModelSpec, i: int, x0_i: float, path: DrivingPath,
                      growth_override=None) -> PathSeries:
    """Exact solution of the scalar self-regulating equation along a path.

    With ``growth_override`` the growth rate is replaced pointwise by the
    given series; passing the upper solutions' competition pressure realises
    the lower comparison system through the same formula.
    """
    series = explicit_logistic_log(model, i, x0_i, path, growth_override)
    return PathSeries(series.grid, np.exp(series.values))
