"""Safe evaluation of the analytic regime hypotheses and a classifier.

Every hypothesis of the long-run theorems is a bound, over all ``t >= 0``, on
an expression built from the model's coefficients through a handful of scalar
transforms (identity, square, ``v^2/(1+v)``, ``ln(1+v) - v``, ``ln(1+v)^2``,
``|v|^p``).  Within the closed coefficient algebra such extrema are computed

* exactly for constants and piecewise constants (per-piece values),
* exactly when one sinusoid varies (its value sweeps a full interval, so
  candidates are the interval endpoints plus the transform's critical points),
* over the torus of the angles when several sinusoids vary: sinusoids whose
  frequencies are small-rational multiples of one another share an angle and
  are sampled over their common period with a certified step, and the
  extrema of distinct angles add.

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
    "ScalarBound", "SpeciesRegime", "RegimeReport", "compute_regime_report",
    "check_moment_condition", "jump_quadratic_rate_bound", "log_jump_quadratic_bound",
    "CLASS_EXTINCT", "CLASS_PERMANENT", "CLASS_ZERO_EXPONENT", "CLASS_UNCLASSIFIED",
]

CLASS_EXTINCT = "EXTINCT"
CLASS_PERMANENT = "PERMANENT"
CLASS_ZERO_EXPONENT = "ZERO_EXPONENT"
CLASS_UNCLASSIFIED = "UNCLASSIFIED"

_PERIOD_POINTS = 8192


def _json_number(x: float):
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class ScalarBound:
    """An analytic scalar with provenance.

    ``value`` is never on the unsafe side: an infimum is at most the true one
    and a supremum at least.  ``exact`` holds only where the algebra proves
    equality; ``tolerance`` bounds the distance to the true value, and is
    ``inf`` where no such bound is known.
    """

    value: float
    exact: bool = True
    tolerance: float = 0.0

    def to_payload(self):
        tol = _json_number(self.tolerance)
        return {"value": _json_number(self.value), "exact": self.exact, "tolerance": tol}


@dataclass(frozen=True)
class _Transform:
    """A scalar map and its derivative ``slope``; ``critical`` holds the interior
    points where the map or the size of its slope can peak."""

    name: str
    fn: object
    critical: tuple[float, ...]
    slope: object

    def __call__(self, v):
        return self.fn(v)

    def candidates(self, lo, hi):
        return [lo, hi] + [c for c in self.critical if lo < c < hi]


_ID = _Transform("id", lambda v: v, (), lambda v: 1.0)
_SQ = _Transform("sq", lambda v: np.square(v), (0.0,), lambda v: 2.0 * v)
_SQ_OVER_1P = _Transform(
    "sq_over_1p", lambda v: np.square(v) / (1.0 + v), (0.0,), lambda v: 1.0 - (1.0 + v) ** -2
)
_LOG1P_MINUS_ID = _Transform(
    "log1p_minus_id", lambda v: np.log1p(v) - v, (0.0,), lambda v: -v / (1.0 + v)
)
_LOG1P_SQ = _Transform(
    "log1p_sq", lambda v: np.square(np.log1p(v)), (0.0, math.e - 1.0),
    lambda v: 2.0 * math.log1p(v) / (1.0 + v),
)


def _abs_pow(p: float) -> _Transform:
    return _Transform(
        f"abs_pow_{p:g}", lambda v: np.abs(v) ** p, (0.0,),
        lambda v: p * abs(v) ** (p - 1.0) if v or p >= 1.0 else math.inf,
    )


@dataclass(frozen=True)
class _Term:
    coeff: object
    transform: _Transform
    weight: float

    def extremum(self, pick) -> float:
        """``pick`` (min or max) of the term over its coefficient's range: attained."""
        c, f = self.coeff, self.transform
        return pick(self.weight * float(f(v)) for v in f.candidates(c.infimum, c.supremum))

    def lipschitz(self) -> float:
        """Bound on the slope in ``t`` of a sinusoid term; ``inf`` if unknown."""
        c, f = self.coeff, self.transform
        slope = max(abs(f.slope(v)) for v in f.candidates(c.infimum, c.supremum))
        return abs(self.weight * c.amplitude) * c.omega * slope


def _expr_eval(terms, const, ts):
    ts = np.asarray(ts, dtype=float)
    out = np.full(ts.shape, const)
    for term in terms:
        out = out + term.weight * term.transform(np.asarray(term.coeff(ts), dtype=float))
    return out


def _angle_groups(items, omega):
    """Group ``items`` by angle, yielding ``(period, top, members)`` per group.

    Two frequencies share an angle when their ratio, taken exactly on the
    floats, is a rational with denominator at most 64.  The members of a group
    repeat with ``period``, in which none runs more than ``top`` cycles.
    """
    groups = {}  # first frequency -> [(member, p, q)], member frequency = first * p / q
    for item in items:
        num, den = omega(item).as_integer_ratio()
        for ref, members in groups.items():
            ref_num, ref_den = ref.as_integer_ratio()
            p, q = num * ref_den, den * ref_num
            g = math.gcd(p, q)
            if q <= 64 * g:
                members.append((item, p // g, q // g))
                break
        else:
            groups[omega(item)] = [(item, 1, 1)]
    for ref, members in groups.items():
        cycles = math.lcm(*(q for _, _, q in members))
        top = max(p * cycles // q for _, p, q in members)
        yield 2.0 * math.pi * cycles / ref, top, [m for m, _, _ in members]


def _sample_period(fn, period, top, lipschitz, mode) -> ScalarBound:
    """Extremum of a ``period``-periodic ``fn`` whose slope is at most ``lipschitz``.

    Every ``t`` lies within half a step of the grid, so the sampled extremum
    moved by ``lipschitz * step / 2`` is on the safe side.
    """
    step = period / (_PERIOD_POINTS * top)
    pick = np.min if mode == "inf" else np.max
    chunks = (step * np.arange(k * _PERIOD_POINTS, (k + 1) * _PERIOD_POINTS) for k in range(top))
    best = float(pick([pick(fn(ts)) for ts in chunks]))
    shift = lipschitz * step / 2.0
    return ScalarBound(best - shift if mode == "inf" else best + shift, False, shift)


def _torus_extremum(terms, mode) -> ScalarBound:
    """Extremum of a sum of sinusoid terms over the torus of their angles.

    The sum of the angles' extrema is the extremum over ``t >= 0`` when their
    frequencies are rationally independent, and on the safe side in every
    case; the floats cannot tell the two apart.
    """
    pick = min if mode == "inf" else max
    bounds = []
    for period, top, group in _angle_groups(terms, lambda t: t.coeff.omega):
        if len(group) == 1:
            bounds.append(ScalarBound(group[0].extremum(pick)))
        elif math.isfinite(lipschitz := sum(t.lipschitz() for t in group)):
            fn = lambda ts, group=group: _expr_eval(group, 0.0, ts)  # noqa: E731
            bounds.append(_sample_period(fn, period, top, lipschitz, mode))
        else:  # the per-term sum is on the safe side
            bounds.append(ScalarBound(sum(t.extremum(pick) for t in group), False, math.inf))
    if len(bounds) == 1:
        return bounds[0]
    return ScalarBound(sum(b.value for b in bounds), False, math.inf)


def _extremize(terms, const, mode) -> ScalarBound:
    """Infimum ('inf') or supremum ('sup') of a term sum over all t >= 0."""
    const_part = float(const)
    steps, waves = [], []
    for term in terms:
        if isinstance(term.coeff, Const):
            const_part += term.weight * float(term.transform(term.coeff.c))
        else:
            (steps if isinstance(term.coeff, PiecewiseConst) else waves).append(term)
    wave = _torus_extremum(waves, mode) if waves else ScalarBound(0.0)
    edges = sorted({0.0} | {b for t in steps for b in t.coeff.breakpoints})
    pieces = _expr_eval(steps, const_part + wave.value, edges).tolist()
    value = min(pieces) if mode == "inf" else max(pieces)
    # every piece's value is attained; with waves, surely only the final one's
    tol = abs(pieces[-1] - value) + wave.tolerance if waves else 0.0
    return ScalarBound(value, wave.exact and tol == 0.0, tol)


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
    ts = np.arange(_PERIOD_POINTS) * (coeff.period / _PERIOD_POINTS)
    avg = float(np.mean(transform(np.asarray(coeff(ts), dtype=float))))
    return ScalarBound(avg, exact=False, tolerance=1e-10 * max(1.0, abs(avg)))


def _long_run_average(terms, const) -> ScalarBound:
    parts = [(t.weight, _slot_average(t.coeff, t.transform)) for t in terms]
    value = float(const)
    for weight, part in parts:
        value += weight * part.value
    tol = sum(abs(weight) * part.tolerance for weight, part in parts)
    return ScalarBound(value, exact=all(part.exact for _, part in parts), tolerance=tol)


def _ratio_sup(num, den) -> ScalarBound:
    """Supremum of ``num(t) / den(t)`` over t >= 0, where ``den > 0``."""
    waves = [f for f in (num, den) if isinstance(f, Sinusoid)]
    groups = list(_angle_groups(waves, lambda f: f.omega))
    if len(waves) == 2 and len(groups) == 1:
        period, top, _ = groups[0]
        lo, peak = den.infimum, max(abs(num.infimum), abs(num.supremum))
        slope_num, slope_den = abs(num.amplitude) * num.omega, abs(den.amplitude) * den.omega
        lipschitz = (slope_num + peak * slope_den / lo) / lo
        return _sample_period(lambda ts: num(ts) / den(ts), period, top, lipschitz, "sup")

    def span(f, t):
        return (f.infimum, f.supremum) if isinstance(f, Sinusoid) else (float(f(t)),)

    # on each piece the sup over the two ranges sits at a corner
    edges = sorted({0.0} | set(num.breakpoints) | set(den.breakpoints))
    pieces = [max(x / y for x in span(num, t) for y in span(den, t)) for t in edges]
    value = max(pieces)
    if len(waves) != 1:
        return ScalarBound(value) if not waves else ScalarBound(value, False, math.inf)
    # the one sinusoid sweeps its range during the final piece, which lasts forever
    return ScalarBound(value, value == pieces[-1], value - pieces[-1])


def _gamma_terms(model: ModelSpec, i: int, transform, sign=1.0):
    weights = model.marks.weights
    return [_Term(model.gamma[i][k], transform, sign * weights[k]) for k in range(model.mark_count)]


def _beta_terms(model: ModelSpec, i: int, scale=1.0):
    """Terms of the net log-growth rate a_i - sigma_i^2/2 + (ln(1+g)-g) mass."""
    a_sigma = [_Term(model.a[i], _ID, scale), _Term(model.sigma[i], _SQ, -0.5 * scale)]
    return a_sigma + _gamma_terms(model, i, _LOG1P_MINUS_ID, sign=scale)


def _describe_beta(model: ModelSpec, i: int, eta: ScalarBound) -> str:
    atoms = [model.a[i], model.sigma[i]] + [model.gamma[i][k] for k in range(model.mark_count)]
    if all(isinstance(a, Const) for a in atoms):
        return f"constant, value {eta.value:.6g}"
    periods = [a.period for a in atoms if a.period is not None]
    breaks = [b for a in atoms for b in a.breakpoints]
    parts = [f"periodic (max period {max(periods):.6g})"] if periods else []
    parts += [f"piecewise to t={max(breaks):.6g}"] if breaks else []
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
        bounds = ("delta", "c1", "net_growth_inf", "eta", "log_jump_sq_bound", "competition_margin")
        return {
            "species": self.species + 1,
            "classification": self.classification,
            "flags": {k: getattr(self, k) for k in ("extinct", "permanent", "zero_exponent")},
            "eta": self.eta.value,
            "c1": self.c1.value,
            "delta": _json_number(self.delta.value),
            "net_growth_inf": self.net_growth_inf.value,
            "competition_margin": self.competition_margin.value,
            "log_jump_sq_bound": self.log_jump_sq_bound.value,
            "abs_jump_moment_bounds": {
                f"{p:g}": b.value for p, b in self.abs_jump_moment_bounds.items()
            },
            "beta_description": self.beta_description,
            "exactness": {name: getattr(self, name).to_payload() for name in bounds},
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
                [None if b is None else b.value for b in row] for row in self.interaction_ratios
            ],
            "jump_quadratic_rate": self.jump_quadratic_rate.to_payload(),
            "p_list": list(self.p_list),
        }
        labels, etas = self.classifications(), [s.eta.value for s in self.species]
        payload["classification"] = labels[0] if self.n == 1 else labels
        payload["eta"] = etas[0] if self.n == 1 else etas
        return payload


def _worst_species(model: ModelSpec, transform) -> ScalarBound:
    """The largest supremum over the species of the jump mass of ``transform``."""
    bounds = [_extremize(_gamma_terms(model, i, transform), 0.0, "sup") for i in range(model.n)]
    return max([ScalarBound(0.0), *bounds], key=lambda b: b.value)


def check_moment_condition(model: ModelSpec, p: float) -> ScalarBound:
    """Uniform bound on the p-th absolute jump moment, ``p > 1``.

    Finite markspaces make this automatically finite; the explicit constant
    enters the report for transparency.
    """
    return _worst_species(model, _abs_pow(p))


def jump_quadratic_rate_bound(model: ModelSpec) -> ScalarBound:
    """Linear-in-time bound constant for the accumulated squared jump mass."""
    terms = [t for i in range(model.n) for t in _gamma_terms(model, i, _SQ)]
    return _extremize(terms, 0.0, "sup")


def log_jump_quadratic_bound(model: ModelSpec) -> ScalarBound:
    """Uniform bound on the squared log jump factor mass (worst species)."""
    return _worst_species(model, _LOG1P_SQ)


def compute_regime_report(model: ModelSpec, p_list=(2.0,)) -> RegimeReport:
    """Evaluate every analytic hypothesis and classify each species.

    Flags are non-exclusive; the headline label resolves by priority
    EXTINCT > PERMANENT > ZERO_EXPONENT > UNCLASSIFIED.
    """
    require_valid(model)
    n = model.n
    ratios = tuple(
        tuple(None if i == j else _ratio_sup(model.B[i][j], model.B[j][j]) for j in range(n))
        for i in range(n)
    )
    species = []
    for i in range(n):
        delta = ScalarBound(min((g.infimum for g in model.gamma[i]), default=math.inf))
        c1_terms = [_Term(model.a[i], _ID, 1.0), _Term(model.sigma[i], _SQ, -1.0)]
        c1 = _extremize(c1_terms + _gamma_terms(model, i, _SQ_OVER_1P, sign=-1.0), 0.0, "inf")
        beta = _beta_terms(model, i)
        net_growth_inf = _extremize(beta, 0.0, "inf")
        eta = _long_run_average(beta, 0.0)
        log_sq = _extremize(_gamma_terms(model, i, _LOG1P_SQ), 0.0, "sup")
        abs_moments = {
            p: _extremize(_gamma_terms(model, i, _abs_pow(p)), 0.0, "sup") for p in p_list
        }
        # the margin is linear in each ratio, and r_ij lies between a value it
        # attains and its reported sup, so the least margin sits at a corner
        corners = [beta]
        for j in range(n):
            if j != i:
                r = ratios[i][j]
                low = max(r.value - r.tolerance, model.B[i][j](0.0) / model.B[j][j](0.0))
                corners = [c + _beta_terms(model, j, -e) for c in corners for e in {r.value, low}]
        margin = min((_extremize(c, 0.0, "inf") for c in corners), key=lambda b: b.value)
        if len(corners) > 1:
            margin = ScalarBound(margin.value, False, math.inf)

        extinct = eta.value < 0.0
        permanent = c1.value > 0.0
        zero_exponent = net_growth_inf.value >= 0.0 and margin.value > 0.0
        label = (
            CLASS_EXTINCT if extinct else CLASS_PERMANENT if permanent
            else CLASS_ZERO_EXPONENT if zero_exponent else CLASS_UNCLASSIFIED
        )
        species.append(SpeciesRegime(
            i, delta, c1, net_growth_inf, eta, log_sq, abs_moments, margin,
            extinct, permanent, zero_exponent, label, _describe_beta(model, i, eta),
        ))
    return RegimeReport(tuple(species), ratios, jump_quadratic_rate_bound(model), tuple(p_list))
