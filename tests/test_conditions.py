"""Regime conditions: frozen arithmetic values, exactness flags, classification."""

import math

import numpy as np
import pytest

from lvjumps import (
    Const,
    MarkSpace,
    ModelSpec,
    PiecewiseConst,
    Sinusoid,
    constant_model,
)
from lvjumps.conditions import (
    CLASS_EXTINCT,
    CLASS_PERMANENT,
    CLASS_UNCLASSIFIED,
    CLASS_ZERO_EXPONENT,
    check_moment_condition,
    compute_regime_report,
    jump_quadratic_rate_bound,
    log_jump_quadratic_bound,
)
from lvjumps.analysis import inverse_moment_check
from lvjumps.errors import PrerequisiteError
from conftest import random_valid_model

LOG2 = math.log(2.0)


def test_benchmark_net_growth_average():
    # a=1, sigma=1, gamma=-0.5 at rate 1: 1 - 1/2 - (ln 2 - 1/2) = 0.306853
    m = constant_model(1, a=1.0, b=1.0, sigma=1.0, gamma=-0.5, weights=(1.0,))
    s = compute_regime_report(m).species[0]
    assert s.eta.value == pytest.approx(0.5 - (LOG2 - 0.5), abs=1e-12)
    assert s.eta.exact


def test_extinct_benchmark():
    m = constant_model(1, a=0.1, b=1.0, sigma=1.0, gamma=-0.5, weights=(1.0,))
    s = compute_regime_report(m).species[0]
    assert s.eta.value == pytest.approx(-0.5931471805599453, abs=1e-12)
    assert s.classification == CLASS_EXTINCT
    assert s.extinct and not s.permanent


def test_permanent_benchmark():
    m = constant_model(1, a=2.0, b=1.0, sigma=1.0, gamma=0.5, weights=(1.0,))
    s = compute_regime_report(m).species[0]
    assert s.c1.value == pytest.approx(2.0 - 1.0 - 0.25 / 1.5, abs=1e-12)
    assert s.net_growth_inf.value == pytest.approx(
        2.0 - 0.5 + (math.log(1.5) - 0.5), abs=1e-12
    )
    assert s.classification == CLASS_PERMANENT
    assert s.permanent and s.zero_exponent and not s.extinct


def test_interaction_ratio_constant():
    m = constant_model(2, a=1.0, b=[[1.0, 0.2], [0.0, 1.0]], sigma=0.0)
    r = compute_regime_report(m)
    assert r.interaction_ratios[0][1].value == pytest.approx(0.2)
    assert r.interaction_ratios[1][0].value == 0.0
    assert r.interaction_ratios[0][0] is None


def test_moment_condition_values():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.0, gamma=-0.5, weights=(2.0,))
    assert check_moment_condition(m, 3).value == pytest.approx(0.125 * 2.0)
    m2 = constant_model(1, a=1.0, b=1.0, sigma=0.0, gamma=1.0, weights=(1.0,))
    assert log_jump_quadratic_bound(m2).value == pytest.approx(LOG2**2)
    assert jump_quadratic_rate_bound(m).value == pytest.approx(0.5)


def test_zero_jump_sizes_zero_bounds():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.0, gamma=0.0, weights=(1.0,))
    assert check_moment_condition(m, 3).value == 0.0
    assert jump_quadratic_rate_bound(m).value == 0.0
    assert log_jump_quadratic_bound(m).value == 0.0


def test_no_marks_delta_is_infinite():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.2)
    s = compute_regime_report(m).species[0]
    assert math.isinf(s.delta.value)
    assert s.to_payload()["delta"] is None


def test_delta_is_min_over_marks():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.0, gamma=((-0.4, 0.8),), weights=(1.0, 2.0))
    assert compute_regime_report(m).species[0].delta.value == pytest.approx(-0.4)


def test_all_const_reports_are_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(0, 3))
        m = constant_model(
            n,
            a=rng.uniform(0.2, 2.0, n),
            b=rng.uniform(0.2, 1.5, (n, n)),
            sigma=rng.uniform(0.0, 1.0, n),
            gamma=rng.uniform(-0.8, 1.0, (n, K)) if K else (),
            weights=tuple(rng.uniform(0.2, 1.0, K)) if K else (),
        )
        rep = compute_regime_report(m)
        for s in rep.species:
            assert s.c1.exact and s.eta.exact and s.net_growth_inf.exact
            assert s.competition_margin.exact and s.log_jump_sq_bound.exact


def test_single_sinusoid_growth_is_exact():
    m = ModelSpec(
        n=1,
        a=(Sinusoid(2.0, 0.5, 3.0, 0.1),),
        B=((Const(1.0),),),
        sigma=(Const(1.0),),
        gamma=((Const(0.5),),),
        marks=MarkSpace((1.0,)),
    )
    s = compute_regime_report(m).species[0]
    assert s.c1.exact
    assert s.c1.value == pytest.approx(1.5 - 1.0 - 0.25 / 1.5, abs=1e-12)
    # growth enters the average linearly: the sinusoid's mean is its base
    assert s.eta.exact
    assert s.eta.value == pytest.approx(2.0 - 0.5 + (math.log(1.5) - 0.5), abs=1e-12)


def test_sinusoid_diffusion_average_uses_second_moment():
    m = ModelSpec(
        n=1,
        a=(Const(2.0),),
        B=((Const(1.0),),),
        sigma=(Sinusoid(0.5, 0.3, 2.0, 0.0),),
        gamma=((),),
        marks=MarkSpace(()),
    )
    s = compute_regime_report(m).species[0]
    assert s.eta.exact
    assert s.eta.value == pytest.approx(2.0 - 0.5 * (0.25 + 0.5 * 0.09), abs=1e-12)


def test_piecewise_conditions_are_exact():
    m = ModelSpec(
        n=1,
        a=(PiecewiseConst((1.0, 3.0), (0.4, 2.0, 0.9)),),
        B=((Const(1.0),),),
        sigma=(PiecewiseConst((2.0,), (0.2, 0.6)),),
        gamma=((),),
        marks=MarkSpace(()),
    )
    s = compute_regime_report(m).species[0]
    assert s.c1.exact and s.eta.exact and s.net_growth_inf.exact
    assert s.c1.value == pytest.approx(min(0.4 - 0.04, 2.0 - 0.04, 2.0 - 0.36, 0.9 - 0.36))
    # the running average converges to the final-segment value
    assert s.eta.value == pytest.approx(0.9 - 0.5 * 0.36, abs=1e-12)


def test_mixed_sinusoids_fall_back_to_sampling():
    m = ModelSpec(
        n=1,
        a=(Sinusoid(2.0, 0.5, 3.0, 0.1),),
        B=((Const(1.0),),),
        sigma=(Sinusoid(0.5, 0.3, 2.0, 0.0),),
        gamma=((Const(0.5),),),
        marks=MarkSpace((1.0,)),
    )
    s = compute_regime_report(m).species[0]
    assert not s.c1.exact
    assert s.c1.tolerance > 0
    # the sampled value is within tolerance of a brute-force minimum
    ts = np.linspace(0.0, 200.0, 2_000_001)
    brute = np.min(
        m.a[0](ts) - np.asarray(m.sigma[0](ts)) ** 2 - 0.25 / 1.5
    )
    assert s.c1.value == pytest.approx(brute, abs=max(1e-6, 2 * s.c1.tolerance))


def test_beat_counterexample_is_not_permanent():
    # a - sigma^2 reaches 0.6 - 0.64 = -0.04 only where the two sinusoids'
    # extremes meet, about 3,140 time units in
    m = ModelSpec(
        n=1,
        a=(Sinusoid(1.1, 0.5, 1.0),),
        B=((Const(1.0),),),
        sigma=(Sinusoid(0.5, 0.3, 1.001),),
        gamma=((),),
        marks=MarkSpace(()),
    )
    s = compute_regime_report(m).species[0]
    assert s.c1.value <= -0.0399
    assert s.classification != CLASS_PERMANENT
    with pytest.raises(PrerequisiteError):
        inverse_moment_check(m, 0, 1.0, 1.0, 2.0**-4, 2, 0)


def test_competition_margin_is_safe_where_competitor_growth_changes_sign():
    # beta_2 = a_2 - 0.405 swings through 0 in phase with beta_1, where a larger
    # ratio raises the margin; b_12 / b_22 mixes two angles, so its reported
    # sup (0.8 / 0.8) lies above every value it attains
    w = math.sqrt(2.0)
    m = ModelSpec(
        n=2,
        a=(Sinusoid(0.6, 0.5, w), Sinusoid(0.5, 0.45, w)),
        B=((Const(1.0), Sinusoid(0.5, 0.3, 1.3)), (Const(0.2), Sinusoid(1.0, 0.2, 0.7))),
        sigma=(Const(0.3), Const(0.9)),
        gamma=((), ()),
        marks=MarkSpace(()),
    )
    rep = compute_regime_report(m)
    ts = np.arange(0.0, 2000.0, 0.01)
    ratio = np.max(m.B[0][1](ts) / m.B[1][1](ts))
    beta = [m.a[i](ts) - 0.5 * m.sigma[i](ts) ** 2 for i in range(2)]
    assert np.min(beta[1]) < 0.0 < np.max(beta[1])
    assert rep.interaction_ratios[0][1].value > ratio
    assert rep.species[0].competition_margin.value <= np.min(beta[0] - ratio * beta[1])


def test_classification_is_permutation_equivariant():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = random_valid_model(rng, max_n=3)
        if m.n < 2:
            continue
        perm = rng.permutation(m.n)
        permuted = ModelSpec(
            n=m.n,
            a=tuple(m.a[p] for p in perm),
            B=tuple(tuple(m.B[p][q] for q in perm) for p in perm),
            sigma=tuple(m.sigma[p] for p in perm),
            gamma=tuple(m.gamma[p] for p in perm),
            marks=m.marks,
        )
        base = compute_regime_report(m).classifications()
        shuffled = compute_regime_report(permuted).classifications()
        assert shuffled == [base[p] for p in perm]


def test_headline_priority_extinct_wins():
    # negative long-run growth puts the species in the dying class even if
    # other flags are off
    m = constant_model(1, a=0.1, b=1.0, sigma=1.0, gamma=-0.5, weights=(1.0,))
    s = compute_regime_report(m).species[0]
    assert s.classification == CLASS_EXTINCT


def test_unclassified_middle_band():
    # eta > 0 but net growth can dip negative and the permanence margin fails
    m = ModelSpec(
        n=1,
        a=(Sinusoid(0.7, 0.5, 1.0, 0.0),),
        B=((Const(1.0),),),
        sigma=(Const(1.0),),
        gamma=((),),
        marks=MarkSpace(()),
    )
    s = compute_regime_report(m).species[0]
    assert s.eta.value == pytest.approx(0.2)
    assert s.net_growth_inf.value == pytest.approx(-0.3)
    assert s.c1.value == pytest.approx(-0.8)
    assert s.classification == CLASS_UNCLASSIFIED


def test_zero_exponent_band():
    m = constant_model(1, a=0.8, b=1.0, sigma=1.0, gamma=())
    s = compute_regime_report(m).species[0]
    # net growth 0.3 >= 0 but permanence needs a - sigma^2 > 0
    assert s.net_growth_inf.value == pytest.approx(0.3)
    assert s.c1.value == pytest.approx(-0.2)
    assert s.classification == CLASS_ZERO_EXPONENT


def test_competition_margin_two_species():
    m = constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    rep = compute_regime_report(m)
    r01 = 0.3 / 0.8
    beta0 = 1.5 - 0.125 + (math.log(1.3) - 0.3)
    beta1 = 1.0 - 0.08 + (math.log(0.6) + 0.4)
    assert rep.species[0].competition_margin.value == pytest.approx(
        beta0 - r01 * beta1, abs=1e-12
    )


def test_report_payload_shape():
    m = constant_model(1, a=0.1, b=1.0, sigma=1.0, gamma=-0.5, weights=(1.0,))
    payload = compute_regime_report(m, p_list=(1.5, 2.0)).to_payload()
    assert payload["classification"] == CLASS_EXTINCT
    assert payload["eta"] == pytest.approx(-0.5931471805599453)
    assert payload["species"][0]["flags"]["extinct"] is True
    assert set(payload["species"][0]["abs_jump_moment_bounds"]) == {"1.5", "2"}
    assert payload["p_list"] == [1.5, 2.0]


# --- brute force: every reported bound against a dense sample -----------------

_HORIZON = np.union1d(np.arange(0.0, 300.0, 0.01), [300.0])


def _dense(fn, breaks, mode):
    """Extremum of ``fn`` over a dense grid of [0, 300] (breakpoints included),
    refined around the best nodes: an attained value, so never past the true one."""
    ts = np.union1d(_HORIZON, breaks)
    vals = np.broadcast_to(fn(ts), ts.shape)
    best = np.argsort(vals if mode == "inf" else -vals)[:8]
    fine = np.concatenate([np.linspace(max(ts[k] - 0.01, 0.0), ts[k] + 0.01, 401) for k in best])
    both = np.concatenate([vals, np.broadcast_to(fn(fine), fine.shape)])
    return float(np.min(both) if mode == "inf" else np.max(both))


def _assert_covers(bound, dense, mode, what):
    """The bound is on the safe side of the dense extremum, and a finite
    tolerance reaches it (up to the refinement's own error)."""
    gap = dense - bound.value if mode == "inf" else bound.value - dense
    rounding = 1e-9 * (1.0 + abs(dense))
    assert gap >= -rounding, f"{what}: {bound} is past the dense {mode} {dense}"
    if math.isfinite(bound.tolerance):
        assert gap <= bound.tolerance + 1e3 * rounding, f"{what}: {bound} misses {dense}"
    if bound.exact:
        assert bound.tolerance == 0.0, what


def _snap_frequencies(model, rng):
    """The model with every sinusoid frequency moved to 1, 1.5, 2 or 3: shared angles."""
    def snap(f):
        if isinstance(f, Sinusoid):
            return Sinusoid(f.base, f.amplitude, float(rng.choice([1.0, 1.5, 2.0, 3.0])), f.phase)
        return f

    return ModelSpec(
        n=model.n,
        a=tuple(map(snap, model.a)),
        B=tuple(tuple(map(snap, row)) for row in model.B),
        sigma=tuple(map(snap, model.sigma)),
        gamma=tuple(tuple(map(snap, row)) for row in model.gamma),
        marks=model.marks,
    )


def _brute_force_models():
    """One random valid model per (n, marks) shape in 1..4 x 0..3, each also
    with its frequencies snapped onto shared angles."""
    rng = np.random.default_rng(2718)
    shapes = {}
    while len(shapes) < 16:
        m = random_valid_model(rng)
        shapes.setdefault((m.n, m.mark_count), m)
    cases = {}
    for (n, k), m in sorted(shapes.items()):
        cases[f"n{n}_k{k}"] = m
        cases[f"n{n}_k{k}_shared"] = _snap_frequencies(m, rng)
    return cases


_BRUTE_FORCE_MODELS = _brute_force_models()


@pytest.mark.parametrize("model", _BRUTE_FORCE_MODELS.values(), ids=_BRUTE_FORCE_MODELS.keys())
def test_bounds_never_pass_a_dense_sample(model):
    p_list = (2.0, 0.5)
    rep = compute_regime_report(model, p_list=p_list)
    n, B, weights = model.n, model.B, model.marks.weights
    breaks = sorted(model.pwc_breakpoints())

    def mass(i, g):
        return lambda ts: sum(w * g(model.gamma[i][k](ts)) for k, w in enumerate(weights))

    def beta(i, ts):
        jumps = mass(i, lambda v: np.log1p(v) - v)(ts)
        return model.a[i](ts) - 0.5 * model.sigma[i](ts) ** 2 + jumps

    ratio = {}
    for i in range(n):
        for j in set(range(n)) - {i}:
            ratio[i, j] = _dense(lambda ts: B[i][j](ts) / B[j][j](ts), breaks, "sup")
            _assert_covers(rep.interaction_ratios[i][j], ratio[i, j], "sup", f"ratio {i}{j}")
    quad = _dense(lambda ts: sum(mass(i, np.square)(ts) for i in range(n)), breaks, "sup")
    _assert_covers(rep.jump_quadratic_rate, quad, "sup", "jump_quadratic_rate")
    for i, s in enumerate(rep.species):
        checks = {
            "c1": (s.c1, "inf", lambda ts: model.a[i](ts) - model.sigma[i](ts) ** 2
                   - mass(i, lambda v: v**2 / (1 + v))(ts)),
            "net_growth_inf": (s.net_growth_inf, "inf", lambda ts: beta(i, ts)),
            "log_jump_sq": (s.log_jump_sq_bound, "sup", mass(i, lambda v: np.log1p(v) ** 2)),
            # the margin with the dense ratios, which lie inside the reported brackets
            "margin": (s.competition_margin, "inf", lambda ts: beta(i, ts) - sum(
                ratio[i, j] * beta(j, ts) for j in range(n) if j != i)),
        }
        for p in p_list:
            checks[f"moment {p}"] = (
                s.abs_jump_moment_bounds[p], "sup", mass(i, lambda v, p=p: np.abs(v) ** p))
        if model.mark_count:
            checks["delta"] = (s.delta, "inf", lambda ts: np.min(
                [g(ts) for g in model.gamma[i]], axis=0))
        for name, (bound, mode, fn) in checks.items():
            _assert_covers(bound, _dense(fn, breaks, mode), mode, f"species {i} {name}")
