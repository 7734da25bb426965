"""Model parameterisation and analytic validity checks.

An ``n``-species competitive system is driven by per-species growth rates,
an ``n x n`` interaction matrix, per-species diffusion intensities and, for
each of ``K`` discrete jump marks, a relative jump size.  All of these are
coefficient functions from :mod:`lvjumps.coefficients`, so the standing
hypotheses of the theory (positive growth, positive self-interaction,
non-negative cross-interaction, relative jump sizes strictly above -1,
boundedness) are decidable exactly through closed-form infima/suprema.

The mark space is finite and discrete, which makes every integral against the
jump intensity measure an exact finite sum and makes jump simulation exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    CoefficientFn,
    Const,
    coeff_from_payload,
    coeff_to_payload,
)
from .errors import DomainError, ModelFormatError

__all__ = [
    "MarkSpace",
    "ModelSpec",
    "InitialState",
    "Violation",
    "ValidationReport",
    "validate_model",
    "model_from_payload",
    "model_to_payload",
    "load_model",
    "dump_model",
]


@dataclass(frozen=True)
class MarkSpace:
    """Finite jump mark space with per-mark intensity weights.

    ``weights[k]`` is the expected number of mark-``k`` events per unit time;
    the total mass is the rate of the underlying Poisson counting process.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if any(not math.isfinite(w) or w <= 0 for w in weights):
            raise ModelFormatError("mark weights must be finite and > 0")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterisation of the jump-diffusion competitive system.

    Attributes:
        n: Species count.
        a: Growth-rate coefficients, one per species.
        B: Interaction-rate coefficients, ``B[i][j]`` is the effect of
            species ``j`` on species ``i``.
        sigma: Diffusion intensities, one per species.
        gamma: Relative jump sizes, ``gamma[i][k]`` for species ``i`` and
            mark ``k`` (dimensionless; a value of -0.5 halves the population
            at a mark-``k`` event).
        marks: The jump mark space.
    """

    n: int
    a: tuple[CoefficientFn, ...]
    B: tuple[tuple[CoefficientFn, ...], ...]
    sigma: tuple[CoefficientFn, ...]
    gamma: tuple[tuple[CoefficientFn, ...], ...]
    marks: MarkSpace

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ModelFormatError("species count must be >= 1")
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "B", tuple(tuple(row) for row in self.B))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "gamma", tuple(tuple(row) for row in self.gamma))
        if len(self.a) != n or len(self.sigma) != n:
            raise ModelFormatError("growth/diffusion coefficient count must equal n")
        if len(self.B) != n or any(len(row) != n for row in self.B):
            raise ModelFormatError("interaction matrix must be n x n")
        K = self.marks.size
        if len(self.gamma) != n or any(len(row) != K for row in self.gamma):
            raise ModelFormatError("jump-size table must be n x K")

    @property
    def mark_count(self) -> int:
        return self.marks.size

    def pwc_breakpoints(self) -> tuple[float, ...]:
        """Sorted union of all piecewise-constant breakpoints in the model."""
        pts: set[float] = set()
        for f in self.all_coefficients():
            pts.update(f.breakpoints)
        return tuple(sorted(pts))

    def all_coefficients(self):
        for f in self.a:
            yield f
        for row in self.B:
            yield from row
        for f in self.sigma:
            yield f
        for row in self.gamma:
            yield from row


@dataclass(frozen=True)
class InitialState:
    """Strictly positive initial population sizes."""

    x0: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.x0)
        object.__setattr__(self, "x0", vals)
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise ModelFormatError("initial populations must be finite and > 0")


def as_initial_state(x0, n: int) -> InitialState:
    """Coerce an array-like or InitialState to a validated InitialState."""
    if isinstance(x0, InitialState):
        state = x0
    elif np.isscalar(x0):
        state = InitialState((float(x0),) * n)
    else:
        state = InitialState(tuple(float(v) for v in x0))
    if len(state.x0) != n:
        raise ModelFormatError(f"initial state needs {n} components, got {len(state.x0)}")
    return state


@dataclass(frozen=True)
class Violation:
    """One failed validity requirement.

    ``coefficient`` names the offending entry (1-based indices, e.g. "b_11"),
    ``requirement`` states the bound, ``attained`` is the achieved inf/sup.
    """

    coefficient: str
    requirement: str
    attained: float

    def __str__(self):
        return self.requirement


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_payload(self) -> dict:
        return {
            "valid": self.ok,
            "violations": [
                {
                    "coefficient": v.coefficient,
                    "requirement": v.requirement,
                    "attained": v.attained,
                }
                for v in self.violations
            ],
        }

    def __str__(self):
        if self.ok:
            return "model valid"
        return "; ".join(str(v) for v in self.violations)


def validate_model(model: ModelSpec) -> ValidationReport:
    """Check every standing-hypothesis invariant analytically.

    Violations are returned as data, not raised: an invalid model is a
    legitimate input to this function.  The report is empty exactly when

    * ``inf a_i > 0`` for every species,
    * ``inf b_ii > 0`` and ``inf b_ij >= 0`` for ``i != j``,
    * ``inf gamma_ik > -1`` for every species/mark pair

    (boundedness of all coefficients is structural in the closed algebra).
    """
    report = ValidationReport()
    for i, f in enumerate(model.a):
        lo = f.infimum
        if lo <= 0:
            report.violations.append(
                Violation(f"a_{i + 1}", f"inf a_{i + 1} = {lo:g} not > 0", lo)
            )
    for i, row in enumerate(model.B):
        for j, f in enumerate(row):
            lo = f.infimum
            name = f"b_{i + 1}{j + 1}"
            if i == j and lo <= 0:
                report.violations.append(
                    Violation(name, f"inf {name} = {lo:g} not > 0", lo)
                )
            elif i != j and lo < 0:
                report.violations.append(
                    Violation(name, f"inf {name} = {lo:g} not >= 0", lo)
                )
    for i, row in enumerate(model.gamma):
        for k, f in enumerate(row):
            lo = f.infimum
            if lo <= -1:
                name = f"gamma_{i + 1}{k + 1}"
                report.violations.append(
                    Violation(name, f"inf {name} = {lo:g} not > -1", lo)
                )
    return report


def require_valid(model: ModelSpec) -> None:
    """Raise DomainError when the model violates the standing hypotheses."""
    report = validate_model(model)
    if not report.ok:
        raise DomainError(f"invalid model: {report}")


def check_species(model: ModelSpec, i: int, x0_i: float) -> None:
    """Raise unless the model is valid, ``i`` names a species and ``x0_i > 0``."""
    require_valid(model)
    if not (0 <= i < model.n):
        raise IndexError(f"species index {i} out of range")
    if not (x0_i > 0):
        raise ValueError("initial value must be positive")


# --- JSON schema --------------------------------------------------------------

_MODEL_KEYS = {"n", "a", "B", "sigma", "marks", "gamma"}
_MARKS_KEYS = {"weights"}


def model_from_payload(payload) -> ModelSpec:
    """Parse the canonical JSON model object.  Unknown fields are rejected."""
    if not isinstance(payload, dict):
        raise ModelFormatError("model must be a JSON object")
    unknown = set(payload) - _MODEL_KEYS
    if unknown:
        raise ModelFormatError(f"unknown model field(s): {sorted(unknown)}")
    missing = _MODEL_KEYS - set(payload)
    if missing:
        raise ModelFormatError(f"missing model field(s): {sorted(missing)}")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ModelFormatError("model field 'n' must be an integer")

    marks_payload = payload["marks"]
    if not isinstance(marks_payload, dict):
        raise ModelFormatError("model field 'marks' must be an object")
    unknown = set(marks_payload) - _MARKS_KEYS
    if unknown:
        raise ModelFormatError(f"unknown marks field(s): {sorted(unknown)}")
    weights = marks_payload.get("weights")
    if not isinstance(weights, list):
        raise ModelFormatError("marks field 'weights' must be a list")
    marks = MarkSpace(tuple(_as_weight(w) for w in weights))

    def coeff_list(key, expected_len):
        raw = payload[key]
        if not isinstance(raw, list) or len(raw) != expected_len:
            raise ModelFormatError(f"model field {key!r} must be a list of length {expected_len}")
        return tuple(coeff_from_payload(item) for item in raw)

    def coeff_matrix(key, rows, cols):
        raw = payload[key]
        if not isinstance(raw, list) or len(raw) != rows:
            raise ModelFormatError(f"model field {key!r} must be a list of {rows} rows")
        out = []
        for row in raw:
            if not isinstance(row, list) or len(row) != cols:
                raise ModelFormatError(
                    f"rows of model field {key!r} must be lists of length {cols}"
                )
            out.append(tuple(coeff_from_payload(item) for item in row))
        return tuple(out)

    return ModelSpec(
        n=n,
        a=coeff_list("a", n),
        B=coeff_matrix("B", n, n),
        sigma=coeff_list("sigma", n),
        gamma=coeff_matrix("gamma", n, marks.size),
        marks=marks,
    )


def _as_weight(w):
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise ModelFormatError(f"mark weight must be a number, got {w!r}")
    return float(w)


def model_to_payload(model: ModelSpec) -> dict:
    return {
        "n": model.n,
        "a": [coeff_to_payload(f) for f in model.a],
        "B": [[coeff_to_payload(f) for f in row] for row in model.B],
        "sigma": [coeff_to_payload(f) for f in model.sigma],
        "marks": {"weights": list(model.marks.weights)},
        "gamma": [[coeff_to_payload(f) for f in row] for row in model.gamma],
    }


def load_model(path) -> ModelSpec:
    """Load and strictly parse a model JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return model_from_payload(payload)


def dump_model(model: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_payload(model), fh, indent=2)
        fh.write("\n")


def constant_model(n, a, b, sigma, gamma=(), weights=()) -> ModelSpec:
    """Convenience constructor for all-constant models.

    ``a``, ``sigma`` are scalars or length-n sequences; ``b`` is a scalar
    (diagonal), length-n sequence (diagonal) or n x n nested sequence;
    ``gamma`` is per-species-per-mark (scalar broadcasts over species/marks).
    """

    def per_species(v):
        if np.isscalar(v):
            return tuple(Const(float(v)) for _ in range(n))
        return tuple(Const(float(x)) for x in v)

    a_fns = per_species(a)
    sigma_fns = per_species(sigma)
    b_arr = np.asarray(b, dtype=float)
    if b_arr.ndim == 0:
        b_mat = np.diag(np.full(n, float(b_arr)))
    elif b_arr.ndim == 1:
        b_mat = np.diag(b_arr)
    else:
        b_mat = b_arr
    B_fns = tuple(tuple(Const(float(b_mat[i, j])) for j in range(n)) for i in range(n))
    weights = tuple(float(w) for w in np.atleast_1d(weights)) if np.size(weights) else ()
    K = len(weights)
    g_arr = np.asarray(gamma, dtype=float)
    if K == 0:
        g_rows = tuple(() for _ in range(n))
    elif g_arr.ndim == 0:
        g_rows = tuple(tuple(Const(float(g_arr)) for _ in range(K)) for _ in range(n))
    elif g_arr.ndim == 1:
        if len(g_arr) == K:
            g_rows = tuple(tuple(Const(float(g)) for g in g_arr) for _ in range(n))
        else:
            g_rows = tuple(tuple(Const(float(g)) for _ in range(K)) for g in g_arr)
    else:
        g_rows = tuple(tuple(Const(float(g)) for g in row) for row in g_arr)
    return ModelSpec(
        n=n,
        a=a_fns,
        B=B_fns,
        sigma=sigma_fns,
        gamma=g_rows,
        marks=MarkSpace(weights),
    )
