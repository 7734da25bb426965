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
so long horizons cannot overflow.
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


def _jump_log_factors(H, path: DrivingPath):
    """Per-node ln(1+H) contribution (0 off jump nodes) and its cumulatives."""
    add = np.zeros(path.grid.n_nodes)
    for idx, tau, k in zip(path.grid.jump_nodes.tolist(), path.jump_times.tolist(),
                           path.jump_marks.tolist()):
        Hval = float(H[k](tau))
        if Hval <= -1.0:
            raise DomainError(f"jump coefficient at t={tau:g} equals {Hval:g} <= -1")
        add[idx] = math.log1p(Hval)
    incl = np.cumsum(add)
    before = incl - add
    return before, incl


def _log_phi(F_like, G, H, marks, path: DrivingPath) -> np.ndarray:
    """ln Phi on the slots of the path's grid.

    At node ``l`` it is the deterministic plus Brownian exponent plus the jump
    sum, which includes an event at the node itself on the post-jump slot only.
    """
    _check_H(H)
    grid = path.grid
    times = grid.times
    weights = np.asarray(marks.weights, dtype=float)

    if isinstance(F_like, PathSeries):
        if not F_like.grid.same_nodes(grid):
            raise GridMismatchError("growth override must share the path's grid")
        start = F_like.values[grid.interval_start_slots()]
        end = F_like.values[grid.interval_end_slots()]
        det_F = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(times) * (start + end)))
        )
    else:
        det_F = np.asarray(F_like.antiderivative(times), dtype=float)

    det = det_F - 0.5 * np.asarray(G.square_antiderivative(times), dtype=float)
    for k in range(marks.size):
        det = det - weights[k] * np.asarray(H[k].antiderivative(times), dtype=float)

    g_left = np.asarray(G(times[:-1]), dtype=float)
    mart = np.concatenate(([0.0], np.cumsum(g_left * path.node_increments)))

    cont = det + mart
    before, incl = _jump_log_factors(H, path)
    return grid.on_slots(cont + before, (cont + incl)[grid.is_jump])


def fundamental_solution(sde: LinearJumpSDE, path: DrivingPath) -> PathSeries:
    """Stochastic exponential of the homogeneous part of ``sde`` along a path.

    Raises:
        DomainError: if any multiplicative jump coefficient reaches -1.
    """
    return PathSeries(path.grid, np.exp(_log_phi(sde.F, sde.G, sde.H, sde.marks, path)))


def voc_solve(sde: LinearJumpSDE, y0: float, path: DrivingPath) -> PathSeries:
    """Variation-of-constants solution of the full linear jump SDE.

    ds-integrals use trapezoidal quadrature on the merged grid, the Brownian
    integral uses left-endpoint increment sums, and jump events contribute
    ``h/(1+H)`` at the pre-jump value of ``1/Phi``.  The compensator of the
    centred event sum combines with the ``H h/(1+H)`` drift term into a plain
    ``- sum_k h_k w_k`` contribution, which is what is integrated here.
    """
    grid = path.grid
    log_phi = _log_phi(sde.F, sde.G, sde.H, sde.marks, path)
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


def _logistic_log_parts(model: ModelSpec, i: int, path: DrivingPath, growth_override=None):
    """``(grid, ln Phi, ln inc)``, the explicit solution's start-free part;
    ``ln inc`` is the log of each interval's trapezoid of ``Phi b``."""
    grid = path.grid
    F = growth_override if growth_override is not None else model.a[i]
    log_phi = _log_phi(F, model.sigma[i], model.gamma[i], model.marks, path)

    times = grid.times
    b = model.B[i][i]
    log_b_s = np.log(np.asarray(b(times[:-1]), dtype=float))
    log_b_e = np.log(np.asarray(b.value_left(times[1:]), dtype=float))
    start_slots = grid.interval_start_slots()
    end_slots = grid.interval_end_slots()
    with np.errstate(divide="ignore"):
        log_inc = np.log(0.5 * np.diff(times)) + np.logaddexp(
            log_phi[start_slots] + log_b_s, log_phi[end_slots] + log_b_e
        )
    return grid, log_phi, log_inc


def _log_solution(parts, x0_i: float) -> np.ndarray:
    """``ln Y`` on the slots from :func:`_logistic_log_parts` and the start ``x0_i``."""
    grid, log_phi, log_inc = parts
    log_den = np.logaddexp.accumulate(np.concatenate(([-math.log(x0_i)], log_inc)))
    return log_phi - grid.on_slots(log_den)


def explicit_logistic_log(model: ModelSpec, i: int, x0_i: float, path: DrivingPath,
                          growth_override=None) -> PathSeries:
    """Log of the exact scalar solution: ``ln Y = ln Phi - ln(1/x0 + int Phi b)``.

    Safe for long horizons in both the growing and the dying regime.
    """
    check_species(model, i, x0_i)
    parts = _logistic_log_parts(model, i, path, growth_override)
    return PathSeries(parts[0], _log_solution(parts, x0_i))


def explicit_logistic(model: ModelSpec, i: int, x0_i: float, path: DrivingPath,
                      growth_override=None) -> PathSeries:
    """Exact solution of the scalar self-regulating equation along a path.

    With ``growth_override`` the growth rate is replaced pointwise by the
    given series; passing the upper solutions' competition pressure realises
    the lower comparison system through the same formula.
    """
    series = explicit_logistic_log(model, i, x0_i, path, growth_override)
    return PathSeries(series.grid, np.exp(series.values))
