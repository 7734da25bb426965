"""Command-line front end.

Commands: ``validate | simulate | analyze | classify | sweep``.  Every command
is a pure function of its config file and flags: reruns with the same inputs
produce byte-identical outputs (floats are rendered with 17 significant
digits, JSON layout is fixed, nothing timestamps).

Exit codes:
    0  ok
    1  model invariant violation
    2  bad input (malformed JSON, unknown field, bad grids)
    3  a simulated path diverged
    4  numeric mismatch beyond tolerance (oracle gap or a failed analyze verdict)
    5  an analysis prerequisite (analytic hypothesis) is unmet, or a moment exceeds float64
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis as an
from .closedform import explicit_logistic
from .conditions import compute_regime_report
from .errors import (
    ConfigurationError,
    DomainError,
    LVJumpsError,
    ModelFormatError,
    PrerequisiteError,
)
from .integrate import (
    Trajectory,
    _write_table,
    simulate_lower,
    simulate_system,
    simulate_upper,
    write_trajectory_csv,
)
from .model import ModelSpec, load_model, model_from_payload, model_to_payload, validate_model
from .noise import sample_driving_path, save_path

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BAD_INPUT = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4
EXIT_PREREQUISITE = 5

# Largest number of points a sweep --grid may hold, checked before the list is built.
_MAX_GRID_POINTS = 100_000


def _write_json(path: Path, payload) -> None:
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN, inf: null
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> ModelSpec:
    try:
        return load_model(args.model)
    except OSError as exc:
        raise ConfigurationError(f"cannot read the model file: {exc}") from exc


def _float_list(text: str, flag: str) -> list[float]:
    """Numbers of a comma-separated flag value; blank entries are skipped."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{flag} takes comma-separated numbers: {exc}") from exc
    if not vals:
        raise ConfigurationError(f"{flag} holds no numbers")
    return vals


def _x0_list(args, n) -> list[float]:
    if args.x0 is None:
        return [1.0] * n
    vals = _float_list(args.x0, "--x0")
    if len(vals) == 1 and n > 1:
        vals = vals * n
    if len(vals) != n:
        raise ConfigurationError(f"--x0 needs {n} comma-separated values")
    if any(not math.isfinite(v) or v <= 0 for v in vals):
        raise ConfigurationError("--x0 values must be positive finite")
    return vals


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigurationError(message)


def _check_positive_start(value: float, flag: str) -> None:
    """An initial value must be positive and finite, and so must its reciprocal."""
    _require(
        value > 0 and math.isfinite(value) and math.isfinite(1.0 / value),
        f"{flag} must be positive and finite with a finite reciprocal, got {value!r}",
    )


def cmd_validate(args) -> int:
    out = _outdir(args)
    model = _load(args)
    report = validate_model(model)
    _write_json(out / "validation.json", report.to_payload())
    print(f"wrote {out / 'validation.json'}: {report}")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_simulate(args) -> int:
    _require(args.seed >= 0, "--seed must be >= 0")
    tol = args.oracle_tol
    _require(math.isfinite(tol) and tol >= 0, f"--oracle-tol must be finite and >= 0, got {tol!r}")
    out = _outdir(args)
    model = _load(args)
    if args.with_oracle and model.n != 1:
        raise ConfigurationError("--with-oracle applies to 1-species models")
    report = validate_model(model)
    if not report.ok:
        _write_json(out / "validation.json", report.to_payload())
        print(f"model invalid: {report}")
        return EXIT_INVALID
    x0 = _x0_list(args, model.n)
    extra = tuple(b for b in model.pwc_breakpoints() if 0 < b < args.T)
    path = sample_driving_path(model.marks, args.T, args.h, args.seed, extra_times=extra)
    if args.dump_path:
        save_path(path, out / "path.bin")
    traj = simulate_system(model, x0, path)
    with open(out / "trajectory_X.csv", "w", encoding="utf-8") as fh:
        write_trajectory_csv(traj, fh)
    status = EXIT_OK
    if traj.diverged:
        print(f"path diverged at t={traj.diverged_at:g}; partial CSV retained")
        status = EXIT_DIVERGED

    if args.with_bounds and not traj.diverged:
        uppers = [simulate_upper(model, i, x0[i], path) for i in range(model.n)]
        lowers = [simulate_lower(model, i, x0[i], path, uppers) for i in range(model.n)]
        for i in range(model.n):
            with open(out / f"trajectory_Y_{i + 1}.csv", "w", encoding="utf-8") as fh:
                write_trajectory_csv(uppers[i], fh, header_names=[f"Y_{i + 1}"])
            with open(out / f"trajectory_Z_{i + 1}.csv", "w", encoding="utf-8") as fh:
                write_trajectory_csv(lowers[i], fh, header_names=[f"Z_{i + 1}"])
        upper = np.concatenate([y.values for y in uppers])  # one row per species
        lower = np.concatenate([z.values for z in lowers])
        violations = int(np.sum(traj.values > upper)) + int(np.sum(lower > traj.values))
        _write_json(
            out / "bounds_summary.json",
            {
                "max_upper_excess": max(float(np.max(d)) for d in traj.values - upper),
                "max_lower_excess": max(float(np.max(d)) for d in lower - traj.values),
                "violations": violations,
            },
        )
        print(f"sandwich violations: {violations}")

    if args.with_oracle and not traj.diverged:
        oracle = explicit_logistic(model, 0, x0[0], path)
        with open(out / "oracle.csv", "w", encoding="utf-8") as fh:
            write_trajectory_csv(
                Trajectory(oracle.grid, oracle.values[None, :]), fh, header_names=["oracle"]
            )
        gap = float(np.max(np.abs(traj.values[0] - oracle.values) / oracle.values))
        _write_json(
            out / "oracle_summary.json",
            {"max_relative_gap": gap, "tolerance": args.oracle_tol},
        )
        print(f"max relative gap to closed form: {gap:g}")
        if gap > args.oracle_tol:
            return EXIT_MISMATCH
    return status


def cmd_analyze(args) -> int:
    _require(args.seed >= 0, "--seed must be >= 0")
    _require(math.isfinite(args.p) and args.p >= 0, f"--p must be finite and >= 0, got {args.p!r}")
    _check_positive_start(args.x, "--x")
    _check_positive_start(args.y, "--y")
    out = _outdir(args)
    model = _load(args)
    report = validate_model(model)
    if not report.ok:
        print(f"model invalid: {report}")
        return EXIT_INVALID
    x0 = _x0_list(args, model.n)
    if args.paths < 1:
        raise ConfigurationError("--paths must be >= 1")
    i = args.species
    if not (0 <= i < model.n):
        raise ConfigurationError(f"--species must be in [0, {model.n})")
    which = args.which
    verdict: dict
    if which == "moments":
        first = an.default_checkpoints(args.T, args.h, args.checkpoints)[0]
        _require(first <= args.T / 2, "analyze moments needs a checkpoint at or before T/2")
        series = an.estimate_moment(
            model, x0, args.p, args.T, args.h, args.paths, args.seed,
            checkpoint_count=args.checkpoints,
        )
        with open(out / f"moments_p{args.p:g}.csv", "w", encoding="utf-8") as fh:
            an.write_mc_csv(series, fh)
        early = series.mean[series.checkpoints <= args.T / 2]
        late = series.mean[series.checkpoints >= args.T / 2]
        bounded = bool(late.mean() <= 1.2 * early.max())
        verdict = {
            "which": which,
            "p": args.p,
            "bounded": bounded,
            "early_window_max": float(early.max()),
            "late_window_mean": float(late.mean()),
            "diverged": series.diverged_count,
            "pass": bounded,
        }
    elif which == "lyapunov":
        # one draw of the paths feeds the upper-system series and the functional
        mc, functional = an._lyapunov_and_functional(
            model, i, x0, args.T, args.h, args.paths, args.seed, args.checkpoints
        )
        with open(out / "lyapunov_over_t.csv", "w", encoding="utf-8") as fh:
            an.write_mc_csv(mc.over_t, fh)
        func = an._functional_mc(model, functional)
        final_exponent = float(mc.over_t.mean[-1])
        verdict = {
            "which": which,
            "species": i,
            "final_log_over_t_mean": final_exponent,
            "final_log_over_t_se": float(mc.over_t.std_error[-1]),
            "functional_mean": func.mean,
            "functional_bound": func.bound,
            "functional_within_bound": func.within_bound,
            "diverged": mc.over_t.diverged_count,
            "pass": func.within_bound,
        }
    elif which == "inverse-moment":
        res = an.inverse_moment_check(
            model, i, x0[i], args.T, args.h, args.paths, args.seed,
            checkpoint_count=args.checkpoints,
        )
        with open(out / "inverse_moment.csv", "w", encoding="utf-8") as fh:
            an.write_mc_csv(res.series, fh, bound=res.bound, flags=res.ok)
        verdict = {"which": which, "species": i, "all_within_bound": res.all_ok,
                   "pass": res.all_ok}
    elif which == "couple":
        res = an.coupling_contraction(
            model, i, args.x, args.y, args.T, args.h, args.paths, args.seed,
            checkpoint_count=args.checkpoints,
        )
        with open(out / "coupling_inverse_diff.csv", "w", encoding="utf-8") as fh:
            an.write_mc_csv(res.inverse_diff, fh, bound=res.envelope, flags=res.ok)
        with open(out / "coupling_half_moment.csv", "w", encoding="utf-8") as fh:
            an.write_mc_csv(res.half_moment_diff, fh)
        ok = res.all_ok and res.sign_consistent_fraction == 1.0
        verdict = {
            "which": which,
            "species": i,
            "x": args.x,
            "y": args.y,
            "all_within_envelope": res.all_ok,
            "sign_consistent_fraction": res.sign_consistent_fraction,
            "pass": ok,
        }
    elif which == "invariant":
        res = an.invariant_distance(
            model, i, args.x, args.y, args.T, args.h, args.paths, args.seed
        )
        verdict = {
            "which": which,
            "species": i,
            "x": args.x,
            "y": args.y,
            "distance": res.distance,
            "sampling_floor": res.sampling_floor,
            "pass": res.within_floor,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown analysis {which!r}")
    _write_json(out / f"analyze_{which}.json", verdict)
    print(f"{which}: {'pass' if verdict['pass'] else 'FAIL'}")
    return EXIT_OK if verdict["pass"] else EXIT_MISMATCH


def cmd_classify(args) -> int:
    out = _outdir(args)
    model = _load(args)
    p_list = tuple(_float_list(args.p_list, "--p-list")) if args.p_list else (2.0,)
    report = compute_regime_report(model, p_list=p_list)
    _write_json(out / "classification.json", report.to_payload())
    print(
        f"wrote {out / 'classification.json'}: "
        + ", ".join(report.classifications())
    )
    return EXIT_OK


def _parse_target(target: str, model: ModelSpec):
    n, K = model.n, model.mark_count
    # the exclusive bound of each index: species below n, marks below K
    limits = {"a": (n,), "sigma": (n,), "B": (n, n), "gamma": (n, K), "weights": (K,)}
    name, *parts = target.split("[")
    try:
        idx = [int(p.rstrip("]")) for p in parts]
    except ValueError:
        idx = []
    bounds = limits.get(name, ())
    if not bounds or len(idx) != len(bounds) or not all(0 <= i < m for i, m in zip(idx, bounds)):
        raise ConfigurationError(
            "sweep target must be a[i], sigma[i], B[i][j], gamma[i][k] or weights[k]"
            f" with 0 <= i, j < {n} and 0 <= k < {K}, got {target!r}"
        )
    return name, idx


def _with_value(model: ModelSpec, target, value: float) -> ModelSpec:
    name, idx = target
    payload = model_to_payload(model)
    coeff = {"type": "const", "c": value}
    if name == "weights":
        payload["marks"]["weights"][idx[0]] = value
    elif name in ("a", "sigma"):
        payload[name][idx[0]] = coeff
    else:
        payload[name][idx[0]][idx[1]] = coeff
    return model_from_payload(payload)


def _grid_values(args) -> list[float]:
    if args.values:
        vals = _float_list(args.values, "--values")
    elif args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigurationError("--grid must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigurationError(f"--grid takes numbers: {exc}") from exc
        if step <= 0:
            raise ConfigurationError("--grid step must be > 0")
        span = (stop - start) / step + 1e-9
        if not (span < _MAX_GRID_POINTS):
            raise ConfigurationError(f"--grid may hold at most {_MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        vals = [start + k * step for k in range(count)]
    else:
        vals = []
    if not vals:
        raise ConfigurationError("sweep grid is empty")
    if any(not math.isfinite(v) for v in vals):
        raise ConfigurationError("sweep values must be finite")
    return vals


def cmd_sweep(args) -> int:
    out = _outdir(args)
    model = _load(args)
    target = _parse_target(args.param, model)
    values = _grid_values(args)
    points = [
        (v, s)
        for v in values
        for s in compute_regime_report(_with_value(model, target, v)).species
    ]
    bounds = ("eta", "c1", "net_growth_inf", "competition_margin")
    rows = [[getattr(s, b) for b in bounds] for _, s in points]
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        _write_table(
            fh,
            ["param", "value", "species", "classification", *bounds, "exact", "tolerance"],
            [
                [args.param] * len(points),
                [v for v, _ in points],
                [str(s.species) for _, s in points],
                [s.classification for _, s in points],
                *([getattr(s, b).value for _, s in points] for b in bounds),
                [str(all(b.exact for b in row)).lower() for row in rows],
                [max(b.tolerance for b in row) for row in rows],
            ],
        )
    print(f"wrote {out / 'sweep.csv'} ({len(values)} grid points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvjumps",
        description="Competitive population dynamics with Brownian noise and jumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--T", type=float, default=5.0, help="time horizon")
        p.add_argument("--h", type=float, default=2.0**-10, help="step size (T/h integral)")
        if paths:
            p.add_argument("--paths", type=int, default=1000, help="Monte Carlo paths")
            p.add_argument("--checkpoints", type=int, default=50)

    p = sub.add_parser("validate", help="check the standing hypotheses")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="integrate one path (optionally with bounds/oracle)")
    common(p)
    p.add_argument("--x0", help="comma-separated initial populations (default all 1)")
    p.add_argument("--with-bounds", action="store_true", help="also run the comparison systems")
    p.add_argument("--with-oracle", action="store_true", help="compare with the closed form (n=1)")
    p.add_argument("--oracle-tol", type=float, default=0.05)
    p.add_argument("--dump-path", action="store_true", help="write the binary path dump")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="Monte Carlo estimators and bound checks")
    p.add_argument(
        "which",
        choices=["moments", "lyapunov", "inverse-moment", "couple", "invariant"],
    )
    common(p, paths=True)
    p.add_argument("--x0", help="comma-separated initial populations (default all 1)")
    p.add_argument("--species", type=int, default=0, help="0-based species index")
    p.add_argument("--p", type=float, default=2.0, help="moment order")
    p.add_argument("--x", type=float, default=0.5, help="first initial value (couple/invariant)")
    p.add_argument("--y", type=float, default=2.0, help="second initial value (couple/invariant)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="evaluate analytic conditions and classify")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--p-list", help="comma-separated moment orders for the jump bound")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="grid over one parameter, classify each point")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--param", required=True, help="target, e.g. a[0], B[0][1], weights[0]")
    p.add_argument("--grid", help="start:stop:step (inclusive)")
    p.add_argument("--values", help="comma-separated explicit values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PrerequisiteError as exc:
        print(f"prerequisite unmet: {exc}", file=sys.stderr)
        return EXIT_PREREQUISITE
    except DomainError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LVJumpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
