"""Coefficient algebra: exact extrema, integrals, codec strictness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvjumps.coefficients import (
    Const,
    PiecewiseConst,
    Sinusoid,
    coeff_from_payload,
    coeff_to_payload,
)
from lvjumps.errors import ModelFormatError

finite = st.floats(-50, 50, allow_nan=False)
positive = st.floats(0.05, 20, allow_nan=False)


def coefficients():
    consts = st.builds(Const, finite)
    sins = st.builds(Sinusoid, finite, finite, positive, st.floats(0, 7))
    pwcs = st.builds(
        lambda breaks, values: PiecewiseConst(
            tuple(sorted(set(breaks))), tuple(values[: len(set(breaks)) + 1])
        ),
        st.lists(st.floats(0.1, 9.0), min_size=1, max_size=4, unique=True),
        st.lists(finite, min_size=5, max_size=5),
    )
    return st.one_of(consts, sins, pwcs)


def test_const_extrema():
    assert Const(3).infimum == 3
    assert Const(3).supremum == 3


def test_sinusoid_extrema():
    f = Sinusoid(2, 1, 5, 0.3)
    assert f.infimum == 1
    assert f.supremum == 3


def test_piecewise_extrema():
    f = PiecewiseConst((1, 2), (4, 1, 7))
    assert f.infimum == 1
    assert f.supremum == 7


def test_piecewise_evaluation_right_continuous():
    f = PiecewiseConst((1, 2), (4, 1, 7))
    assert f(0.0) == 4 and f(0.999) == 4
    assert f(1.0) == 1 and f(2.0) == 7 and f(100.0) == 7
    assert f.value_left(1.0) == 4 and f.value_left(2.0) == 1


@settings(max_examples=80)
@given(coefficients())
def test_bounds_hold_on_dense_grid(f):
    ts = np.linspace(0.0, 40.0, 4001)
    vals = np.asarray(f(ts))
    assert np.all(vals >= f.infimum - 1e-12)
    assert np.all(vals <= f.supremum + 1e-12)


def _quadrature_tol(f, t, scale, numeric):
    # trapezoid overshoot: one half-step of mass per step discontinuity
    step = t / 20000
    jumps = len(f.breakpoints) + 1
    return 2e-3 * max(1.0, abs(numeric)) + step * scale * jumps


@settings(max_examples=40, deadline=None)
@given(coefficients(), st.floats(0.1, 20.0))
def test_antiderivative_matches_quadrature(f, t):
    ts = np.linspace(0.0, t, 20001)
    numeric = np.trapezoid(np.asarray(f(ts)), ts)
    bound = max(abs(f.infimum), abs(f.supremum))
    assert f.antiderivative(t) == pytest.approx(
        numeric, abs=_quadrature_tol(f, t, bound, numeric)
    )


@settings(max_examples=40, deadline=None)
@given(coefficients(), st.floats(0.1, 20.0))
def test_square_antiderivative_matches_quadrature(f, t):
    ts = np.linspace(0.0, t, 20001)
    numeric = np.trapezoid(np.asarray(f(ts)) ** 2, ts)
    bound = max(abs(f.infimum), abs(f.supremum)) ** 2
    assert f.square_antiderivative(t) == pytest.approx(
        numeric, abs=_quadrature_tol(f, t, bound, numeric)
    )


def test_piecewise_antiderivative_exact():
    f = PiecewiseConst((1, 2), (4, 1, 7))
    assert f.antiderivative(0.5) == 2.0
    assert f.antiderivative(1.5) == 4.0 + 0.5
    assert f.antiderivative(3.0) == 4.0 + 1.0 + 7.0
    assert f.square_antiderivative(3.0) == 16.0 + 1.0 + 49.0


def test_vectorised_matches_scalar():
    for f in (Const(2.5), Sinusoid(1, 0.5, 2, 0.7), PiecewiseConst((1,), (2, 3))):
        ts = np.array([0.0, 0.3, 1.0, 2.7])
        assert np.allclose(np.asarray(f(ts)), [f(float(t)) for t in ts])


def test_codec_round_trip():
    for f in (
        Const(2.5),
        Sinusoid(1.0, 0.5, 2.0, 0.7),
        PiecewiseConst((1.0, 2.0), (4.0, 1.0, 7.0)),
    ):
        assert coeff_from_payload(coeff_to_payload(f)) == f


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "const"},
        {"type": "const", "c": 1.0, "extra": 2},
        {"type": "sin", "base": 1.0, "amp": 1.0, "omega": 1.0},
        {"type": "sin", "base": 1.0, "amp": 1.0, "omega": 0.0, "phase": 0.0},
        {"type": "pwc", "breaks": [1.0], "values": [1.0]},
        {"type": "pwc", "breaks": [2.0, 1.0], "values": [1.0, 2.0, 3.0]},
        {"type": "pwc", "breaks": [0.0], "values": [1.0, 2.0]},
        {"type": "nope", "c": 1.0},
        {"type": "const", "c": "one"},
        "not-an-object",
    ],
)
def test_codec_rejects_bad_payloads(payload):
    with pytest.raises(ModelFormatError):
        coeff_from_payload(payload)
