"""Command-line interface: exit codes, outputs, byte-exact reruns."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvjumps import (
    explicit_logistic,
    load_model,
    sample_driving_path,
    sample_lyapunov_mc,
    simulate_lower,
    simulate_system,
    simulate_upper,
)
from lvjumps.cli import _write_json, main
from lvjumps.noise import KIND_LABELS


def model_payload(a=2.0, sigma=1.0, gamma=0.5, lam=1.0):
    return {
        "n": 1,
        "a": [{"type": "const", "c": a}],
        "B": [[{"type": "const", "c": 1.0}]],
        "sigma": [{"type": "const", "c": sigma}],
        "marks": {"weights": [lam]},
        "gamma": [[{"type": "const", "c": gamma}]],
    }


@pytest.fixture
def model_file(tmp_path):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(model_payload()))
    return f


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def test_validate_ok(model_file, tmp_path):
    out = tmp_path / "o"
    assert main(["validate", "--model", str(model_file), "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["valid"] is True


def test_validate_invalid_exit_1(tmp_path):
    bad = model_payload(gamma=-1.0)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    out = tmp_path / "o"
    assert main(["validate", "--model", str(f), "--out", str(out)]) == 1
    payload = json.loads((out / "validation.json").read_text())
    assert payload["valid"] is False
    assert payload["violations"][0]["coefficient"] == "gamma_11"


def test_malformed_json_exit_2(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{")
    assert main(["validate", "--model", str(f), "--out", str(tmp_path / "o")]) == 2


def test_unknown_field_exit_2(tmp_path):
    payload = model_payload()
    payload["unknown"] = 1
    f = tmp_path / "m.json"
    f.write_text(json.dumps(payload))
    assert main(["validate", "--model", str(f), "--out", str(tmp_path / "o")]) == 2


def test_bad_step_exit_2(model_file, tmp_path):
    code = main(
        ["simulate", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--T", "1.0", "--h", "0.3"]
    )
    assert code == 2


@pytest.mark.parametrize("command", [["simulate"], ["analyze", "moments"]])
def test_too_many_steps_exit_2(model_file, tmp_path, command):
    code = main(
        command + ["--model", str(model_file), "--out", str(tmp_path / "o"),
                   "--T", "1e9", "--h", "1"]
    )
    assert code == 2


def test_simulate_with_bounds_and_oracle(model_file, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["simulate", "--model", str(model_file), "--out", str(out),
         "--T", "2.0", "--h", str(2.0**-10), "--seed", "7",
         "--with-bounds", "--with-oracle", "--x0", "0.5", "--dump-path"]
    )
    assert code == 0
    bounds = json.loads((out / "bounds_summary.json").read_text())
    assert bounds["violations"] == 0
    oracle = json.loads((out / "oracle_summary.json").read_text())
    assert oracle["max_relative_gap"] < 0.05
    assert (out / "trajectory_X.csv").exists()
    assert (out / "trajectory_Y_1.csv").exists()
    assert (out / "trajectory_Z_1.csv").exists()
    assert (out / "path.bin").exists()


def test_csv_outputs_round_trip_exactly(model_file, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["simulate", "--model", str(model_file), "--out", str(out),
         "--T", "1.0", "--h", str(2.0**-8), "--seed", "2",
         "--with-bounds", "--with-oracle", "--x0", "0.5"]
    )
    assert code == 0
    model = load_model(model_file)
    path = sample_driving_path(model.marks, 1.0, 2.0**-8, 2)
    full = simulate_system(model, [0.5], path)
    upper = simulate_upper(model, 0, 0.5, path)
    expected = {
        "trajectory_X.csv": full.values[0],
        "trajectory_Y_1.csv": upper.values[0],
        "trajectory_Z_1.csv": simulate_lower(model, 0, 0.5, path, [upper]).values[0],
        "oracle.csv": explicit_logistic(model, 0, 0.5, path).values,
    }
    grid = full.grid
    assert grid.is_jump.any()
    for name, values in expected.items():
        rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
        times, kinds, parsed = zip(*rows)
        assert np.array([float(t) for t in times]).tobytes() == grid.slot_times.tobytes()
        assert list(kinds) == [KIND_LABELS[k] for k in grid.slot_kinds]
        assert np.array([float(v) for v in parsed]).tobytes() == values.tobytes()


def test_oracle_on_two_species_exit_2_before_any_output(tmp_path):
    payload = model_payload()
    payload.update(
        n=2,
        a=payload["a"] * 2,
        B=[[{"type": "const", "c": 1.0}] * 2] * 2,
        sigma=payload["sigma"] * 2,
        gamma=payload["gamma"] * 2,
    )
    f = tmp_path / "two.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(
        ["simulate", "--model", str(f), "--out", str(out), "--T", "1.0", "--h", "0.125",
         "--with-oracle", "--dump-path"]
    )
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


def test_simulate_divergence_exit_3(tmp_path):
    payload = model_payload(a=0.01, sigma=3.0, gamma=0.0, lam=1.0)
    f = tmp_path / "dying.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(
        ["simulate", "--model", str(f), "--out", str(out),
         "--T", "256", "--h", str(2.0**-4), "--seed", "3"]
    )
    assert code == 3
    assert (out / "trajectory_X.csv").read_text().strip().splitlines()[-1].startswith("DIVERGED")


def test_oracle_mismatch_exit_4(model_file, tmp_path):
    code = main(
        ["simulate", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--T", "2.0", "--h", "0.25", "--seed", "7", "--with-oracle",
         "--oracle-tol", "1e-9"]
    )
    assert code == 4


def test_analyze_prerequisite_exit_5(tmp_path):
    payload = model_payload(a=0.1, sigma=1.0, gamma=-0.5)
    f = tmp_path / "extinct.json"
    f.write_text(json.dumps(payload))
    code = main(
        ["analyze", "inverse-moment", "--model", str(f), "--out", str(tmp_path / "o"),
         "--T", "2.0", "--h", "0.125", "--paths", "5"]
    )
    assert code == 5


def test_analyze_couple_same_start_passes(model_file, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["analyze", "couple", "--model", str(model_file), "--out", str(out),
         "--T", "2.0", "--h", "0.125", "--paths", "10", "--x", "1.0", "--y", "1.0"]
    )
    assert code == 0
    verdict = json.loads((out / "analyze_couple.json").read_text())
    assert verdict["pass"] is True
    assert verdict["sign_consistent_fraction"] == 1.0


def test_analyze_moments_writes_verdict(model_file, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["analyze", "moments", "--model", str(model_file), "--out", str(out),
         "--T", "4.0", "--h", "0.125", "--paths", "40", "--p", "2.0"]
    )
    assert code == 0
    verdict = json.loads((out / "analyze_moments.json").read_text())
    assert "bounded" in verdict
    assert (out / "moments_p2.csv").exists()


def test_analyze_lyapunov_draws_each_path_once(model_file, tmp_path, monkeypatch):
    import lvjumps.analysis as an

    seeds = []
    draw = an.sample_driving_path

    def counted(marks, T, h, seed, extra_times=()):
        seeds.append(seed)
        return draw(marks, T, h, seed, extra_times=extra_times)

    monkeypatch.setattr(an, "sample_driving_path", counted)
    out = tmp_path / "o"
    code = main(
        ["analyze", "lyapunov", "--model", str(model_file), "--out", str(out),
         "--T", "4", "--h", "0.0625", "--paths", "5", "--seed", "3"]
    )
    assert code == 0
    assert len(seeds) == 5 and len(set(seeds)) == 5
    verdict = json.loads((out / "analyze_lyapunov.json").read_text())
    mc = an.sample_lyapunov_mc(load_model(model_file), 0, 1.0, 4.0, 0.0625, 5, 3)
    func = an.lyapunov_functional_mc(load_model(model_file), [1.0], 4.0, 0.0625, 5, 3)
    assert verdict["final_log_over_t_mean"] == float(mc.over_t.mean[-1])
    assert verdict["functional_mean"] == func.mean
    assert verdict["diverged"] == mc.over_t.diverged_count == 0


def test_analyze_lyapunov_counts_diverged_paths(tmp_path):
    # a rare jump multiplies the population by 20,001; the next step's
    # self-competition then takes it out of the log window
    f = tmp_path / "model.json"
    f.write_text(json.dumps(model_payload(a=17.0, sigma=0.5, gamma=20000.0, lam=8e-4)))
    out = tmp_path / "o"
    code = main(
        ["analyze", "lyapunov", "--model", str(f), "--out", str(out),
         "--T", "64", "--h", "0.0625", "--paths", "100", "--seed", "1"]
    )
    assert code == 0
    verdict = json.loads((out / "analyze_lyapunov.json").read_text())
    mc = sample_lyapunov_mc(load_model(f), 0, 1.0, 64.0, 0.0625, 100, 1)
    assert verdict["diverged"] == mc.over_t.diverged_count == 1


def test_failed_analyze_verdict_exits_4(model_file, tmp_path):
    # from x0 = 0.01 the second moment is still rising after T/2
    out = tmp_path / "o"
    code = main(
        ["analyze", "moments", "--model", str(model_file), "--out", str(out),
         "--T", "4", "--h", "0.125", "--paths", "5", "--seed", "1", "--x0", "0.01"]
    )
    assert code == 4
    assert json.loads((out / "analyze_moments.json").read_text())["pass"] is False


def test_analyze_zero_checkpoints_exit_2(model_file, tmp_path):
    code = main(
        ["analyze", "moments", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--T", "1.0", "--h", "0.125", "--paths", "2", "--checkpoints", "0"]
    )
    assert code == 2


def test_missing_model_file_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["classify", "--model", missing, "--out", str(tmp_path / "o")]) == 2


def test_classify_output(tmp_path):
    payload = model_payload(a=0.1, sigma=1.0, gamma=-0.5)
    f = tmp_path / "extinct.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["classify", "--model", str(f), "--out", str(out)]) == 0
    report = json.loads((out / "classification.json").read_text())
    assert report["classification"] == "EXTINCT"
    assert report["eta"] == pytest.approx(-0.593147, abs=1e-6)


def test_sweep_boundary(tmp_path):
    # sigma=1, gamma=-0.5, rate 1: the dying/surviving boundary sits at
    # a = 1/2 + (ln 2 - 1/2) = 0.693147
    payload = model_payload(a=1.0, sigma=1.0, gamma=-0.5)
    f = tmp_path / "m.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(
        ["sweep", "--model", str(f), "--out", str(out),
         "--param", "a[0]", "--grid", "0.1:2.0:0.1"]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 20
    flips = []
    prev = None
    for row in rows:
        cols = row.split(",")
        value, label = float(cols[1]), cols[3]
        if prev is not None and (prev[1] == "EXTINCT") != (label == "EXTINCT"):
            flips.append((prev[0], value))
        prev = (value, label)
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < 0.6931471805599453 < hi + 1e-12


# a - sigma^2 dips to -0.04 only where the peaks of two unrelated sinusoids meet
BEAT_MODEL = {
    "n": 1,
    "a": [{"type": "sin", "base": 1.1, "amp": 0.5, "omega": 1.0, "phase": 0.0}],
    "B": [[{"type": "const", "c": 1.0}]],
    "sigma": [{"type": "sin", "base": 0.5, "amp": 0.3, "omega": 1.001, "phase": 0.0}],
    "marks": {"weights": [1.0]},
    "gamma": [[{"type": "const", "c": 0.1}]],
}


def _refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_classification_json_has_no_bare_infinity(tmp_path):
    f = tmp_path / "beat.json"
    f.write_text(json.dumps(BEAT_MODEL))
    out = tmp_path / "o"
    assert main(["classify", "--model", str(f), "--out", str(out)]) == 0
    report = json.loads((out / "classification.json").read_text(), parse_constant=_refuse_constant)
    c1 = report["species"][0]["exactness"]["c1"]
    assert c1 == {"value": pytest.approx(-0.04 - 0.01 / 1.1), "exact": False, "tolerance": None}
    assert report["classification"] != "PERMANENT"


def test_json_writes_non_finite_numbers_as_null(tmp_path):
    f = tmp_path / "v.json"
    _write_json(f, {"a": math.nan, "b": [np.inf, 1.5, (-np.inf,)], "c": {"d": np.float64("nan")}})
    payload = json.loads(f.read_text(), parse_constant=_refuse_constant)
    assert payload == {"a": None, "b": [None, 1.5, [None]], "c": {"d": None}}


EXAMPLE_FLAGS = ["--h", "0.0625", "--paths", "8", "--seed", "3"]


def run_lyapunov_example(tmp_path, payload, *flags):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(["analyze", "lyapunov", "--model", str(f), "--out", str(out), *EXAMPLE_FLAGS,
                 *flags])
    return code, json.loads((out / "analyze_lyapunov.json").read_text(),
                            parse_constant=_refuse_constant)


@pytest.mark.parametrize("a, sigma, gamma, T", [
    (1.0, 15.0, 0.3, "4"),  # a path's norm underflows while its log stays above -745
    (0.01, 3.0, 0.0, "128"),  # EXTINCT: ln Y falls at about 4.5 per unit time
])
def test_lyapunov_survives_a_norm_below_the_float64_squares(tmp_path, a, sigma, gamma, T):
    code, verdict = run_lyapunov_example(tmp_path, model_payload(a, sigma, gamma), "--T", T)
    assert code in (0, 4)
    assert verdict["diverged"] == 0
    assert math.isfinite(verdict["functional_mean"]) and verdict["functional_mean"] < 0


def test_moments_past_float64_exit_5_and_lyapunov_stays_finite(tmp_path, capsys):
    # |X| is about 1e200, so |X|^2 leaves float64 while ln|X| and b |X| do not
    payload = model_payload(a=1.0, sigma=0.5, gamma=0.3)
    payload["B"][0][0]["c"] = 1e-300
    f = tmp_path / "high.json"
    f.write_text(json.dumps(payload))
    flags = ["--x0", "1e200", "--T", "1"]
    out = tmp_path / "m"
    argv = ["analyze", "moments", "--model", str(f), "--out", str(out), *EXAMPLE_FLAGS, *flags]
    assert main(argv) == 5
    assert "float64" in capsys.readouterr().err
    assert not (out / "analyze_moments.json").exists()
    code, verdict = run_lyapunov_example(tmp_path, payload, *flags)
    assert code == 4
    assert verdict["functional_mean"] == pytest.approx(verdict["final_log_over_t_mean"])


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(deadline=None, max_examples=30)
@given(
    a=_decades(-2, 1),
    b=_decades(-300, 3),
    sigma=st.just(0.0) | _decades(-1, 1.3),
    gamma=st.floats(-0.99, 5, exclude_min=True, exclude_max=True),
    lam=st.just(0.0) | _decades(-1, 1),
    x0=_decades(-200, 200),
)
def test_analyze_fuzz_exits_with_a_documented_code_and_strict_json(
    tmp_path_factory, a, b, sigma, gamma, lam, x0
):
    # valid constant models across the whole log window: no traceback, no
    # warning, and no bare NaN or Infinity in any JSON output
    root = tmp_path_factory.mktemp("analyze_fuzz")
    payload = model_payload(a, sigma, gamma, lam)
    payload["B"][0][0]["c"] = b
    if not lam:  # a mark of rate 0 is a model without marks
        payload.update(marks={"weights": []}, gamma=[[]])
    f = root / "model.json"
    f.write_text(json.dumps(payload))
    for which in ("moments", "lyapunov", "inverse-moment", "couple", "invariant"):
        out = root / which
        argv = ["analyze", which, "--model", str(f), "--out", str(out), "--x0", repr(x0),
                "--T", "4", *EXAMPLE_FLAGS]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in range(6), argv
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=_refuse_constant)


def test_sweep_reports_exactness_and_tolerance(tmp_path, model_file):
    f = tmp_path / "beat.json"
    f.write_text(json.dumps(BEAT_MODEL))
    for model, exact, tolerance in ((f, "false", "inf"), (model_file, "true", "0")):
        out = tmp_path / f"o_{exact}"
        args = ["--param", "weights[0]", "--values", "0.5,1"]
        assert main(["sweep", "--model", str(model), "--out", str(out), *args]) == 0
        header, *rows = (out / "sweep.csv").read_text().splitlines()
        assert header.endswith(",competition_margin,exact,tolerance")
        assert [row.split(",")[-2:] for row in rows] == [[exact, tolerance]] * 2


def test_sweep_empty_grid_exit_2(model_file, tmp_path):
    assert main(
        ["sweep", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--param", "a[0]", "--values", ""]
    ) == 2


def test_sweep_nonfinite_value_exit_2(model_file, tmp_path):
    assert main(
        ["sweep", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--param", "a[0]", "--values", "0.5,inf"]
    ) == 2


@pytest.mark.parametrize(
    "target",
    ["zeta[0]", "a[3]", "a[x]", "a[-1]", "gamma[0][4]", "weights[2]"],
    ids=["unknown-field", "species-past-n", "non-integer", "negative", "mark-past-K",
         "weight-past-K"],
)
def test_sweep_bad_target_exit_2(model_file, tmp_path, target):
    assert main(
        ["sweep", "--model", str(model_file), "--out", str(tmp_path / "o"),
         "--param", target, "--values", "1.0"]
    ) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--x0", "abc"],
        ["sweep", "--param", "a[0]", "--values", "1,zz"],
        ["sweep", "--param", "a[0]", "--grid", "0:x:1"],
        ["sweep", "--param", "a[0]", "--grid", "0:1e300:1e-300"],
        ["sweep", "--param", "a[0]", "--grid", "0:1e9:1e-3"],
        ["classify", "--p-list", "2,q"],
        ["classify", "--p-list", ","],
    ],
    ids=["x0", "values", "grid", "grid-overflow", "grid-huge", "p-list", "p-list-blank"],
)
def test_bad_number_list_exit_2(model_file, tmp_path, argv):
    assert main(argv + ["--model", str(model_file), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "moments", "--p", "-1"],
        ["analyze", "moments", "--p", "nan"],
        ["analyze", "moments", "--seed", "-1"],
        ["analyze", "moments", "--checkpoints", "1"],
        ["analyze", "couple", "--x", "0"],
        ["analyze", "couple", "--x", "-1"],
        ["analyze", "couple", "--x", "nan"],
        ["analyze", "couple", "--x", "1e-320"],
        ["analyze", "couple", "--y", "inf"],
        ["analyze", "invariant", "--x", "0"],
        ["simulate", "--with-oracle", "--oracle-tol", "nan"],
        ["simulate", "--oracle-tol", "-1"],
        ["simulate", "--seed", "-1"],
    ],
    ids=["p-negative", "p-nan", "seed-negative", "no-early-checkpoint", "x-zero",
         "x-negative", "x-nan", "x-reciprocal-overflows", "y-inf", "invariant-x-zero",
         "oracle-tol-nan", "oracle-tol-negative", "simulate-seed-negative"],
)
def test_bad_number_exit_2(model_file, tmp_path, argv):
    # each ended in a traceback with exit 1, or passed silently with a NaN
    argv = argv + ["--model", str(model_file), "--out", str(tmp_path / "o"),
                   "--T", "1.0", "--h", "0.125"]
    if argv[0] == "analyze":
        argv += ["--paths", "3"]
    assert main(argv) == 2


# Tokens for the argv fuzz test, per command and flag: values that run and
# bad or boundary values.  Sizes stay small (T <= 2, h >= 0.125, at most 3
# paths and 5 checkpoints), so no example allocates much or runs long.
_BAD = ["nan", "inf", "-1", "0", "abc", ""]
_SIZES = {
    "--T": (["1", "2"], ["0.5", "1e-320", *_BAD]),
    "--h": (["0.125", "0.25"], ["0.3", "1e300", *_BAD]),
}
_SEED = {"--seed": (["0", "3"], ["-1", "1.5", "abc", ""])}
_FUZZ_FLAGS = {
    "validate": {},
    "simulate": {
        **_SIZES,
        **_SEED,
        "--x0": (["1", "0.5,2"], [",", "1e-320", *_BAD]),
        "--oracle-tol": (["0.05", "1e-300"], _BAD),
    },
    "analyze": {
        **_SIZES,
        **_SEED,
        "--paths": (["1", "2", "3"], ["0", "-1", "abc", ""]),
        "--checkpoints": (["2", "5"], ["1", "0", "-1", "abc"]),
        "--x0": (["1", "0.5,2"], [",", *_BAD]),
        "--species": (["0", "1"], ["-1", "2", "abc"]),
        "--p": (["0", "0.5", "2"], ["1e-320", *_BAD]),
        "--x": (["0.5", "2"], ["1e-320", "1e300", *_BAD]),
        "--y": (["0.5", "2"], ["1e-320", *_BAD]),
    },
    "classify": {"--p-list": (["2", "0.5,3"], [",", "2,q", *_BAD])},
    "sweep": {
        "--param": (["a[0]", "sigma[0]", "B[0][0]", "gamma[0][0]", "weights[0]"],
                    ["a[1]", "a[x]", "zz"]),
        "--grid": (["0.5:1.5:0.25"], ["1:0:0.5", "0:1:0", "nan:1:0.5", "0:inf:1", "0:1", *_BAD]),
        "--values": (["1", "0,1"], ["1,zz", ",", *_BAD]),
    },
}
_ALWAYS = ("--T", "--h", "--paths", "--checkpoints")  # their defaults are far larger


@st.composite
def _argv(draw):
    """argv for one subcommand: valid values, with at most two flags made bad."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = _FUZZ_FLAGS[command]
    argv = [command]
    if command == "analyze":
        argv.append(draw(st.sampled_from(
            ["moments", "lyapunov", "inverse-moment", "couple", "invariant", "bogus"]
        )))
    bad = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)) if flags else []
    for flag, (good, wrong) in flags.items():
        if flag in bad:
            value = draw(st.sampled_from(wrong))
        elif flag in _ALWAYS:
            value = draw(st.sampled_from(good))
        else:
            value = draw(st.none() | st.sampled_from(good))
        if value is not None:
            argv.append(f"{flag}={value}")
    if command == "simulate":
        argv += draw(st.lists(
            st.sampled_from(["--with-bounds", "--with-oracle", "--dump-path"]), unique=True
        ))
    return argv


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """A 1-species and a 2-species model file, and an output directory."""
    root = tmp_path_factory.mktemp("fuzz")
    two = {
        "n": 2,
        "a": [{"type": "const", "c": 2.0}] * 2,
        "B": [[{"type": "const", "c": 1.0}, {"type": "const", "c": 0.2}]] * 2,
        "sigma": [{"type": "const", "c": 1.0}] * 2,
        "marks": {"weights": [1.0]},
        "gamma": [[{"type": "const", "c": 0.5}]] * 2,
    }
    files = []
    for k, payload in enumerate((model_payload(), two)):
        files.append(root / f"model{k + 1}.json")
        files[-1].write_text(json.dumps(payload))
    return files, root / "o"


@settings(deadline=None, max_examples=150)
@given(argv=_argv(), two_species=st.booleans())
def test_argv_fuzz_exits_with_a_documented_code(fuzz_models, argv, two_species):
    files, out = fuzz_models
    argv = argv + ["--model", str(files[two_species]), "--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    assert code in range(6), argv


def test_reruns_byte_identical(model_file, tmp_path):
    args_sets = [
        ["simulate", "--model", str(model_file), "--T", "2.0", "--h", str(2.0**-8),
         "--seed", "11", "--with-bounds", "--with-oracle", "--x0", "0.7"],
        ["analyze", "moments", "--model", str(model_file), "--T", "2.0",
         "--h", "0.125", "--paths", "20", "--seed", "11"],
        ["classify", "--model", str(model_file)],
        ["sweep", "--model", str(model_file), "--param", "a[0]", "--values", "0.5,1.0,1.5"],
    ]
    for k, args in enumerate(args_sets):
        out1, out2 = tmp_path / f"r1_{k}", tmp_path / f"r2_{k}"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read_all(out1) == read_all(out2)


def test_classify_invalid_model_exit_1(tmp_path):
    payload = model_payload(gamma=-1.0)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    assert main(["classify", "--model", str(f), "--out", str(tmp_path / "o")]) == 1


def test_sweep_into_invalid_territory_exit_1(tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(model_payload()))
    code = main(
        ["sweep", "--model", str(f), "--out", str(tmp_path / "o"),
         "--param", "a[0]", "--values", "0.0,1.0"]
    )
    assert code == 1
