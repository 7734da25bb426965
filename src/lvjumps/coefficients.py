"""Bounded time-dependent coefficients with exact extrema and integrals.

Model rates are restricted to a closed algebra of bounded functions on
``[0, inf)``: constants, sinusoids, and right-continuous piecewise constants.
Every form supports, in closed form,

* evaluation at arbitrary ``t >= 0`` (vectorised),
* the exact infimum and supremum over all ``t >= 0``,
* the antiderivative ``t -> int_0^t f(s) ds`` and the antiderivative of the
  square ``t -> int_0^t f(s)^2 ds``.

Restricting to this algebra keeps validity checks, regime conditions, and the
deterministic part of the stochastic exponential exact rather than numerically
approximated; conditions stated as bounds "for all t" would be undecidable for
arbitrary callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ModelFormatError

__all__ = [
    "Const",
    "Sinusoid",
    "PiecewiseConst",
    "CoefficientFn",
    "coeff_from_payload",
    "coeff_to_payload",
]


@dataclass(frozen=True)
class Const:
    """Constant coefficient ``f(t) = c``."""

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ModelFormatError(f"constant coefficient must be finite, got {self.c}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.c) if t.ndim else float(self.c)

    def value_left(self, t):
        """Left limit ``f(t-)``; equals ``f(t)`` for continuous forms."""
        return self(t)

    @property
    def infimum(self) -> float:
        return self.c

    @property
    def supremum(self) -> float:
        return self.c

    @property
    def period(self) -> float | None:
        return None

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        out = self.c * t
        return out if t.ndim else float(out)

    def square_antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        out = (self.c * self.c) * t
        return out if t.ndim else float(out)


@dataclass(frozen=True)
class Sinusoid:
    """Sinusoidal coefficient ``f(t) = base + amplitude*sin(omega*t + phase)``.

    ``omega`` must be positive; a zero frequency is a ``Const`` in disguise
    and would break the closed-form period handling.
    """

    base: float
    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        for name in ("base", "amplitude", "omega", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ModelFormatError(f"sinusoid field {name!r} must be finite")
        if self.omega <= 0:
            raise ModelFormatError("sinusoid angular frequency must be > 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.base + self.amplitude * np.sin(self.omega * t + self.phase)
        return out if t.ndim else float(out)

    def value_left(self, t):
        return self(t)

    @property
    def infimum(self) -> float:
        return self.base - abs(self.amplitude)

    @property
    def supremum(self) -> float:
        return self.base + abs(self.amplitude)

    @property
    def period(self) -> float | None:
        return 2.0 * math.pi / self.omega

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        w, p = self.omega, self.phase
        out = self.base * t + (self.amplitude / w) * (math.cos(p) - np.cos(w * t + p))
        return out if t.ndim else float(out)

    def square_antiderivative(self, t):
        # f^2 = (B^2 + A^2/2) + 2AB sin(wt+p) - (A^2/2) cos(2wt+2p)
        t = np.asarray(t, dtype=float)
        B, A, w, p = self.base, self.amplitude, self.omega, self.phase
        out = (
            (B * B + 0.5 * A * A) * t
            + (2.0 * A * B / w) * (math.cos(p) - np.cos(w * t + p))
            - (A * A / (4.0 * w)) * (np.sin(2.0 * w * t + 2.0 * p) - math.sin(2.0 * p))
        )
        return out if t.ndim else float(out)


@dataclass(frozen=True)
class PiecewiseConst:
    """Right-continuous step function on ``[0, inf)``.

    ``values[0]`` holds on ``[0, breaks[0])``, ``values[j]`` on
    ``[breaks[j-1], breaks[j])`` and ``values[-1]`` on the final unbounded
    interval ``[breaks[-1], inf)``.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _cumareas: np.ndarray = field(init=False, repr=False, compare=False)
    _cumareas_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        if len(values) != len(breaks) + 1:
            raise ModelFormatError(
                "piecewise-constant coefficient needs len(values) == len(breaks) + 1"
            )
        if not all(math.isfinite(v) for v in values + breaks):
            raise ModelFormatError("piecewise-constant fields must be finite")
        if breaks and breaks[0] <= 0:
            raise ModelFormatError("piecewise-constant breakpoints must be > 0")
        if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
            raise ModelFormatError("piecewise-constant breakpoints must be increasing")
        edges = np.concatenate(([0.0], np.asarray(breaks, dtype=float)))
        vals = np.asarray(values, dtype=float)
        widths = np.diff(edges)
        cum = np.concatenate(([0.0], np.cumsum(vals[:-1] * widths)))
        cum_sq = np.concatenate(([0.0], np.cumsum(vals[:-1] ** 2 * widths)))
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_cumareas", cum)
        object.__setattr__(self, "_cumareas_sq", cum_sq)

    def _piece_index(self, t, side="right"):
        return np.searchsorted(np.asarray(self.breaks, dtype=float), t, side=side)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        out = vals[self._piece_index(t, side="right")]
        return out if t.ndim else float(out)

    def value_left(self, t):
        """Left limit ``f(t-)``: the piece *ending* at a breakpoint."""
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        out = vals[self._piece_index(t, side="left")]
        return out if t.ndim else float(out)

    @property
    def infimum(self) -> float:
        return min(self.values)

    @property
    def supremum(self) -> float:
        return max(self.values)

    @property
    def period(self) -> float | None:
        return None

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.breaks

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = self._piece_index(t, side="right")
        vals = np.asarray(self.values, dtype=float)
        out = self._cumareas[idx] + (t - self._edges[idx]) * vals[idx]
        return out if t.ndim else float(out)

    def square_antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = self._piece_index(t, side="right")
        vals = np.asarray(self.values, dtype=float)
        out = self._cumareas_sq[idx] + (t - self._edges[idx]) * vals[idx] ** 2
        return out if t.ndim else float(out)


CoefficientFn = Union[Const, Sinusoid, PiecewiseConst]


# --- JSON codec --------------------------------------------------------------

_PAYLOAD_KEYS = {
    "const": {"type", "c"},
    "sin": {"type", "base", "amp", "omega", "phase"},
    "pwc": {"type", "breaks", "values"},
}


def _require_number(payload, key):
    v = payload.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ModelFormatError(f"coefficient field {key!r} must be a number, got {v!r}")
    return float(v)


def _require_number_list(payload, key):
    v = payload.get(key)
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ModelFormatError(f"coefficient field {key!r} must be a list of numbers")
    return tuple(float(x) for x in v)


def coeff_from_payload(payload) -> CoefficientFn:
    """Parse one coefficient from its JSON object form.

    Rejects unknown fields so that typos in scientific parameters fail loudly
    instead of being silently ignored.
    """
    if not isinstance(payload, dict):
        raise ModelFormatError(f"coefficient must be a JSON object, got {payload!r}")
    kind = payload.get("type")
    if kind not in _PAYLOAD_KEYS:
        raise ModelFormatError(f"unknown coefficient type {kind!r}")
    unknown = set(payload) - _PAYLOAD_KEYS[kind]
    if unknown:
        raise ModelFormatError(
            f"unknown coefficient field(s) {sorted(unknown)} for type {kind!r}"
        )
    if kind == "const":
        return Const(_require_number(payload, "c"))
    if kind == "sin":
        missing = _PAYLOAD_KEYS["sin"] - set(payload)
        if missing:
            raise ModelFormatError(f"sinusoid coefficient missing {sorted(missing)}")
        return Sinusoid(
            base=_require_number(payload, "base"),
            amplitude=_require_number(payload, "amp"),
            omega=_require_number(payload, "omega"),
            phase=_require_number(payload, "phase"),
        )
    missing = _PAYLOAD_KEYS["pwc"] - set(payload)
    if missing:
        raise ModelFormatError(f"piecewise coefficient missing {sorted(missing)}")
    return PiecewiseConst(
        breaks=_require_number_list(payload, "breaks"),
        values=_require_number_list(payload, "values"),
    )


def coeff_to_payload(f: CoefficientFn) -> dict:
    """Serialise one coefficient to its JSON object form."""
    if isinstance(f, Const):
        return {"type": "const", "c": f.c}
    if isinstance(f, Sinusoid):
        return {
            "type": "sin",
            "base": f.base,
            "amp": f.amplitude,
            "omega": f.omega,
            "phase": f.phase,
        }
    if isinstance(f, PiecewiseConst):
        return {"type": "pwc", "breaks": list(f.breaks), "values": list(f.values)}
    raise TypeError(f"not a coefficient function: {f!r}")
