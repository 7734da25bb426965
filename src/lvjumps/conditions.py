"""Exact evaluation of the analytic regime hypotheses and a classifier.

Every hypothesis of the long-run theorems is a bound, over all ``t >= 0``, on
an expression built from the model's coefficients through a handful of scalar
transforms (identity, square, ``v^2/(1+v)``, ``ln(1+v) - v``, ``ln(1+v)^2``,
``|v|^p``).  Within the closed coefficient algebra such extrema are computed

* exactly for all-constant combinations (plain arithmetic),
* exactly when only piecewise-constant coefficients vary (per-piece values),
* exactly when a single sinusoid varies (its value sweeps a full interval, so
  candidates are the interval endpoints plus the transform's critical points),
* otherwise by dense sampling over one period/breakpoint cycle, flagged
  ``sampled`` together with the achieved sampling tolerance.

The long-run average that drives the extinction test has a true limit for
every form in the algebra (eventually-constant or periodic), so it is a sum
of per-slot averages: closed form where available, spectrally accurate
period quadrature otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import Const, PiecewiseConst, Sinusoid
from .model import ModelSpec, require_valid

__all__ = [
    "ScalarBound",
    "SpeciesRegime",
    "RegimeReport",
    "compute_regime_report",
    "check_moment_condition",
    "jump_quadratic_rate_bound",
    "log_jump_quadratic_bound",
    "CLASS_EXTINCT",
    "CLASS_PERMANENT",
    "CLASS_ZERO_EXPONENT",
    "CLASS_UNCLASSIFIED",
]

CLASS_EXTINCT = "EXTINCT"
CLASS_PERMANENT = "PERMANENT"
CLASS_ZERO_EXPONENT = "ZERO_EXPONENT"
CLASS_UNCLASSIFIED = "UNCLASSIFIED"

_SAMPLE_STEP_FRACTION = 1e-3  # of the shortest period
_SAMPLE_TAIL_PERIODS = 50.0
_MAX_SAMPLES = 2_000_000
_PERIOD_AVG_POINTS = 8192


@dataclass(frozen=True)
class ScalarBound:
    """An analytic scalar with provenance: exact, or sampled with tolerance."""

    value: float
    exact: bool = True
    tolerance: float = 0.0

    def to_payload(self):
        v = self.value
        return {
            "value": v if math.isfinite(v) else None,
            "exact": self.exact,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class _Transform:
    name: str
    fn: object
    critical: tuple[float, ...]

    def __call__(self, v):
        return self.fn(v)


_ID = _Transform("id", lambda v: v, ())
_SQ = _Transform("sq", lambda v: np.square(v), (0.0,))
_SQ_OVER_1P = _Transform("sq_over_1p", lambda v: np.square(v) / (1.0 + v), (0.0,))
_LOG1P_MINUS_ID = _Transform("log1p_minus_id", lambda v: np.log1p(v) - v, (0.0,))
_LOG1P_SQ = _Transform("log1p_sq", lambda v: np.square(np.log1p(v)), (0.0,))


def _abs_pow(p: float) -> _Transform:
    return _Transform(f"abs_pow_{p:g}", lambda v: np.abs(v) ** p, (0.0,))


@dataclass(frozen=True)
class _Term:
    coeff: object
    transform: _Transform
    weight: float


def _expr_eval(terms, const, ts):
    ts = np.asarray(ts, dtype=float)
    out = np.full(ts.shape, const)
    for term in terms:
        out = out + term.weight * term.transform(np.asarray(term.coeff(ts), dtype=float))
    return out


def _sampling_plan(atoms):
    periods = [a.period for a in atoms if a.period is not None]
    breaks = sorted({b for a in atoms for b in a.breakpoints})
    base = breaks[-1] if breaks else 0.0
    if periods:
        step = _SAMPLE_STEP_FRACTION * min(periods)
        end = base + _SAMPLE_TAIL_PERIODS * max(periods)
    else:
        step = _SAMPLE_STEP_FRACTION
        end = base + 1.0
    count = int(math.ceil(end / step))
    if count > _MAX_SAMPLES:
        count = _MAX_SAMPLES
        step = end / count
    ts = np.arange(count + 1) * step
    if breaks:
        ts = np.unique(np.concatenate((ts, np.asarray(breaks))))
    return ts, step


def _extremize(terms, const, mode) -> ScalarBound:
    """Infimum ('inf') or supremum ('sup') of a term sum over all t >= 0."""
    const_part = float(const)
    varying = []
    for term in terms:
        if isinstance(term.coeff, Const):
            const_part += term.weight * float(term.transform(term.coeff.c))
        else:
            varying.append(term)
    pick = np.min if mode == "inf" else np.max
    if not varying:
        return ScalarBound(const_part)
    if all(isinstance(t.coeff, PiecewiseConst) for t in varying):
        edges = sorted({0.0} | {b for t in varying for b in t.coeff.breakpoints})
        vals = _expr_eval(varying, const_part, np.asarray(edges))
        return ScalarBound(float(pick(vals)))
    if len(varying) == 1 and isinstance(varying[0].coeff, Sinusoid):
        term = varying[0]
        lo, hi = term.coeff.infimum, term.coeff.supremum
        candidates = [lo, hi] + [c for c in term.transform.critical if lo < c < hi]
        vals = [const_part + term.weight * float(term.transform(v)) for v in candidates]
        return ScalarBound(float(pick(vals)))
    ts, step = _sampling_plan([t.coeff for t in varying])
    vals = _expr_eval(varying, const_part, ts)
    tol = float(np.max(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    return ScalarBound(float(pick(vals)), exact=False, tolerance=tol)


def _slot_average(coeff, transform) -> ScalarBound:
    """Limit of the running time average of ``transform(coeff(t))``."""
    if isinstance(coeff, Const):
        return ScalarBound(float(transform(coeff.c)))
    if isinstance(coeff, PiecewiseConst):
        return ScalarBound(float(transform(coeff.values[-1])))
    if transform.name == "id":
        return ScalarBound(coeff.base)
    if transform.name == "sq":
        return ScalarBound(coeff.base**2 + 0.5 * coeff.amplitude**2)
    # periodic and smooth: the trapezoid period average converges spectrally
    ts = np.arange(_PERIOD_AVG_POINTS) * (coeff.period / _PERIOD_AVG_POINTS)
    avg = float(np.mean(transform(np.asarray(coeff(ts), dtype=float))))
    return ScalarBound(avg, exact=False, tolerance=1e-10 * max(1.0, abs(avg)))


def _long_run_average(terms, const) -> ScalarBound:
    value = float(const)
    exact = True
    tol = 0.0
    for term in terms:
        part = _slot_average(term.coeff, term.transform)
        value += term.weight * part.value
        exact = exact and part.exact
        tol += abs(term.weight) * part.tolerance
    return ScalarBound(value, exact=exact, tolerance=tol)


def _ratio_sup(num, den) -> ScalarBound:
    if isinstance(num, Const) and isinstance(den, Const):
        return ScalarBound(num.c / den.c)
    if isinstance(num, (Const, PiecewiseConst)) and isinstance(den, (Const, PiecewiseConst)):
        edges = sorted({0.0} | set(num.breakpoints) | set(den.breakpoints))
        ts = np.asarray(edges)
        vals = np.asarray(num(ts), dtype=float) / np.asarray(den(ts), dtype=float)
        return ScalarBound(float(np.max(vals)))
    ts, step = _sampling_plan([num, den])
    vals = np.asarray(num(ts), dtype=float) / np.asarray(den(ts), dtype=float)
    tol = float(np.max(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    return ScalarBound(float(np.max(vals)), exact=False, tolerance=tol)


def _gamma_terms(model: ModelSpec, i: int, transform, sign=1.0):
    weights = model.marks.weights
    return [
        _Term(model.gamma[i][k], transform, sign * weights[k])
        for k in range(model.mark_count)
    ]


def _beta_terms(model: ModelSpec, i: int, scale=1.0):
    """Terms of the net log-growth rate a_i - sigma_i^2/2 + (ln(1+g)-g) mass."""
    return (
        [_Term(model.a[i], _ID, scale), _Term(model.sigma[i], _SQ, -0.5 * scale)]
        + _gamma_terms(model, i, _LOG1P_MINUS_ID, sign=scale)
    )


def _describe_beta(model: ModelSpec, i: int, eta: ScalarBound) -> str:
    atoms = [model.a[i], model.sigma[i]] + [model.gamma[i][k] for k in range(model.mark_count)]
    if all(isinstance(a, Const) for a in atoms):
        return f"constant, value {eta.value:.6g}"
    periods = [a.period for a in atoms if a.period is not None]
    breaks = [b for a in atoms for b in a.breakpoints]
    parts = []
    if periods:
        parts.append(f"periodic (max period {max(periods):.6g})")
    if breaks:
        parts.append(f"piecewise to t={max(breaks):.6g}")
    return ", ".join(parts) + f"; long-run mean {eta.value:.6g}"


@dataclass(frozen=True)
class SpeciesRegime:
    """Per-species analytic conditions and classification."""

    species: int
    delta: ScalarBound
    c1: ScalarBound
    net_growth_inf: ScalarBound
    eta: ScalarBound
    log_jump_sq_bound: ScalarBound
    abs_jump_moment_bounds: dict
    competition_margin: ScalarBound
    extinct: bool
    permanent: bool
    zero_exponent: bool
    classification: str
    beta_description: str

    def to_payload(self):
        return {
            "species": self.species + 1,
            "classification": self.classification,
            "flags": {
                "extinct": self.extinct,
                "permanent": self.permanent,
                "zero_exponent": self.zero_exponent,
            },
            "eta": self.eta.value,
            "c1": self.c1.value,
            "delta": self.delta.value if math.isfinite(self.delta.value) else None,
            "net_growth_inf": self.net_growth_inf.value,
            "competition_margin": self.competition_margin.value,
            "log_jump_sq_bound": self.log_jump_sq_bound.value,
            "abs_jump_moment_bounds": {
                f"{p:g}": b.value for p, b in self.abs_jump_moment_bounds.items()
            },
            "beta_description": self.beta_description,
            "exactness": {
                name: bound.to_payload()
                for name, bound in (
                    ("delta", self.delta),
                    ("c1", self.c1),
                    ("net_growth_inf", self.net_growth_inf),
                    ("eta", self.eta),
                    ("log_jump_sq_bound", self.log_jump_sq_bound),
                    ("competition_margin", self.competition_margin),
                )
            },
        }


@dataclass(frozen=True)
class RegimeReport:
    """Model-level report: per-species regimes plus interaction ratios."""

    species: tuple[SpeciesRegime, ...]
    interaction_ratios: tuple[tuple[ScalarBound | None, ...], ...]
    jump_quadratic_rate: ScalarBound
    p_list: tuple[float, ...] = field(default=())

    @property
    def n(self) -> int:
        return len(self.species)

    def classifications(self):
        return [s.classification for s in self.species]

    def to_payload(self):
        payload = {
            "n": self.n,
            "species": [s.to_payload() for s in self.species],
            "interaction_ratios": [
                [None if b is None else b.value for b in row]
                for row in self.interaction_ratios
            ],
            "jump_quadratic_rate": self.jump_quadratic_rate.to_payload(),
            "p_list": list(self.p_list),
        }
        if self.n == 1:
            payload["classification"] = self.species[0].classification
            payload["eta"] = self.species[0].eta.value
        else:
            payload["classification"] = self.classifications()
            payload["eta"] = [s.eta.value for s in self.species]
        return payload


def check_moment_condition(model: ModelSpec, p: float) -> ScalarBound:
    """Uniform bound on the p-th absolute jump moment, ``p > 1``.

    Finite markspaces make this automatically finite; the explicit constant
    enters the report for transparency.
    """
    best = ScalarBound(0.0)
    for i in range(model.n):
        b = _extremize(_gamma_terms(model, i, _abs_pow(p)), 0.0, "sup")
        if b.value > best.value:
            best = b
    return best


def jump_quadratic_rate_bound(model: ModelSpec) -> ScalarBound:
    """Linear-in-time bound constant for the accumulated squared jump mass."""
    terms = []
    for i in range(model.n):
        terms.extend(_gamma_terms(model, i, _SQ))
    return _extremize(terms, 0.0, "sup")


def log_jump_quadratic_bound(model: ModelSpec) -> ScalarBound:
    """Uniform bound on the squared log jump factor mass (worst species)."""
    best = ScalarBound(0.0)
    for i in range(model.n):
        b = _extremize(_gamma_terms(model, i, _LOG1P_SQ), 0.0, "sup")
        if b.value > best.value:
            best = b
    return best


def compute_regime_report(model: ModelSpec, p_list=(2.0,)) -> RegimeReport:
    """Evaluate every analytic hypothesis and classify each species.

    Flags are non-exclusive; the headline label resolves by priority
    EXTINCT > PERMANENT > ZERO_EXPONENT > UNCLASSIFIED.
    """
    require_valid(model)
    n = model.n
    ratios: list[list[ScalarBound | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                ratios[i][j] = _ratio_sup(model.B[i][j], model.B[j][j])

    species = []
    for i in range(n):
        if model.mark_count:
            delta = ScalarBound(min(g.infimum for g in model.gamma[i]))
        else:
            delta = ScalarBound(math.inf)
        c1_terms = [
            _Term(model.a[i], _ID, 1.0),
            _Term(model.sigma[i], _SQ, -1.0),
        ] + _gamma_terms(model, i, _SQ_OVER_1P, sign=-1.0)
        c1 = _extremize(c1_terms, 0.0, "inf")
        beta = _beta_terms(model, i)
        net_growth_inf = _extremize(beta, 0.0, "inf")
        eta = _long_run_average(beta, 0.0)
        log_sq = _extremize(_gamma_terms(model, i, _LOG1P_SQ), 0.0, "sup")
        abs_moments = {
            p: _extremize(_gamma_terms(model, i, _abs_pow(p)), 0.0, "sup")
            for p in p_list
        }
        margin_terms = list(beta)
        margin_exact_penalty = 0.0
        for j in range(n):
            if j == i:
                continue
            r = ratios[i][j]
            margin_terms.extend(_beta_terms(model, j, scale=-r.value))
            margin_exact_penalty += r.tolerance
        margin = _extremize(margin_terms, 0.0, "inf")
        if margin_exact_penalty:
            margin = ScalarBound(
                margin.value, exact=False, tolerance=margin.tolerance + margin_exact_penalty
            )

        extinct = eta.value < 0.0
        permanent = c1.value > 0.0
        zero_exponent = net_growth_inf.value >= 0.0 and margin.value > 0.0
        if extinct:
            label = CLASS_EXTINCT
        elif permanent:
            label = CLASS_PERMANENT
        elif zero_exponent:
            label = CLASS_ZERO_EXPONENT
        else:
            label = CLASS_UNCLASSIFIED
        species.append(
            SpeciesRegime(
                species=i,
                delta=delta,
                c1=c1,
                net_growth_inf=net_growth_inf,
                eta=eta,
                log_jump_sq_bound=log_sq,
                abs_jump_moment_bounds=abs_moments,
                competition_margin=margin,
                extinct=extinct,
                permanent=permanent,
                zero_exponent=zero_exponent,
                classification=label,
                beta_description=_describe_beta(model, i, eta),
            )
        )
    return RegimeReport(
        species=tuple(species),
        interaction_ratios=tuple(tuple(row) for row in ratios),
        jump_quadratic_rate=jump_quadratic_rate_bound(model),
        p_list=tuple(p_list),
    )
