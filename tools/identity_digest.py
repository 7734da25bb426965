"""Print one sha256 per case of lvjumps' outputs, to check that a change keeps them byte-identical.

Run it once against each source tree and compare the two listings:

    PYTHONPATH=<old checkout>/src python3 tools/identity_digest.py > old.txt
    PYTHONPATH=src python3 tools/identity_digest.py > new.txt
    diff old.txt new.txt

A case is one call: every Monte Carlo estimator (its result pickled, or the
type and message of the exception it raised) on several models, path counts
and seeds, including a growth functional of more than 8,192 intervals per
path and a model whose paths diverge; the single-path integrators and their
CSV output; the regime report of every model, and of one whose bound needs
the beat of two unrelated frequencies; Monte Carlo CSVs with bound and flag
columns; and the exit code, stdout and every output file of the CLI commands
of acceptance criterion 12, of ``simulate --with-bounds`` on two models with
sinusoidal and piecewise-constant rates, of a diverging ``simulate``, and of
``analyze`` on three models whose norms square out of float64 (below it, and
above it from ``--x0 1e200``).  It takes about 25 s on a 2-core x86_64 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pickle
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import lvjumps
from lvjumps import analysis, cli, conditions

CRITERION_12_MODEL = {
    "n": 1,
    "a": [{"type": "const", "c": 2.0}],
    "B": [[{"type": "const", "c": 1.0}]],
    "sigma": [{"type": "const", "c": 1.0}],
    "marks": {"weights": [1.0]},
    "gamma": [[{"type": "const", "c": 0.5}]],
}


# the ``<path>:<line>: `` that ``warnings`` prints before a warning's category,
# then the warning, then the ``  <source text>`` line it echoes under it
WARNING_AT = re.compile(r"^(.+?\.py):\d+: (\w+Warning: .*\n)(  \S.*\n)?", re.MULTILINE)


def module_of(filename: str) -> str:
    """The dotted name of the module in ``filename``, found under ``sys.path``."""
    path = Path(filename).resolve()
    roots = sorted({Path(p or ".").resolve() for p in sys.path}, key=lambda p: -len(p.parts))
    for root in roots:
        if path.is_relative_to(root):
            return ".".join(path.relative_to(root).with_suffix("").parts)
    return path.stem


def without_warning_locations(text: str) -> str:
    """``text`` with each warning's ``<path>:<line>:`` prefix replaced by its module
    name and the source line echoed under it by a fixed token, so that a moved or
    rewritten source line, or another checkout, digests the same."""
    return WARNING_AT.sub(
        lambda m: f"{module_of(m[1])}: {m[2]}" + ("  <source line>\n" if m[3] else ""), text
    )


def emit(name: str, payload: bytes) -> None:
    print(f"{name} {hashlib.sha256(payload).hexdigest()}")


def outcome(call) -> bytes:
    """The pickled result of ``call()``, or its exception's type and message."""
    try:
        return pickle.dumps(call())
    except Exception as exc:  # the exception is the outcome being compared
        return f"{type(exc).__name__}: {exc}".encode()


def random_model(rng, n, marks, kinds=None):
    """A valid model with constant, sinusoidal and piecewise-constant rates;
    ``kinds`` deals the coefficient kinds (0, 1, 2) instead of drawing them."""

    def coeff(lo, hi):
        kind = int(rng.integers(3)) if kinds is None else next(kinds)
        if kind == 0:
            return lvjumps.Const(float(rng.uniform(lo, hi)))
        if kind == 1:
            base = float(rng.uniform(lo, hi))
            amp = float(rng.uniform(0.0, min(base - lo, hi - base)))
            omega, phase = float(rng.uniform(0.5, 6.0)), float(rng.uniform(0, 6.28))
            return lvjumps.Sinusoid(base, amp, omega, phase)
        breaks = tuple(np.sort(rng.uniform(0.3, 3.5, 2)).tolist())
        return lvjumps.PiecewiseConst(breaks, tuple(rng.uniform(lo, hi, 3).tolist()))

    return lvjumps.ModelSpec(
        n=n,
        a=tuple(coeff(0.3, 2.5) for _ in range(n)),
        B=tuple(
            tuple(coeff(0.2, 2.0) if i == j else coeff(0.0, 1.0) for j in range(n))
            for i in range(n)
        ),
        sigma=tuple(coeff(0.0, 1.0) for _ in range(n)),
        gamma=tuple(tuple(coeff(-0.85, 1.5) for _ in range(marks)) for _ in range(n)),
        marks=lvjumps.MarkSpace(tuple(rng.uniform(0.2, 1.5, marks).tolist())),
    )


def models():
    rng = np.random.default_rng(2026)
    yield "criterion9", lvjumps.constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    yield "permanent", lvjumps.constant_model(1, a=2.0, b=1.0, sigma=1.0, gamma=0.5, weights=(1.0,))
    yield "diverging", lvjumps.constant_model(1, a=0.01, b=1.0, sigma=3.0)
    for n, marks in ((1, 2), (2, 3), (3, 1), (4, 2), (3, 0)):
        yield f"random_n{n}_k{marks}", random_model(rng, n, marks)


def beat_model():
    """a - sigma^2 reaches its infimum -0.04 only where two unrelated peaks meet."""
    return lvjumps.ModelSpec(
        n=1,
        a=(lvjumps.Sinusoid(1.1, 0.5, 1.0),),
        B=((lvjumps.Const(1.0),),),
        sigma=(lvjumps.Sinusoid(0.5, 0.3, 1.001),),
        gamma=((),),
        marks=lvjumps.MarkSpace(()),
    )


def regime_case(model) -> bytes:
    return outcome(lambda: conditions.compute_regime_report(model, p_list=(2, 3)).to_payload())


def estimator_cases(name, model):
    n = model.n
    x0 = [0.6 + 0.3 * k for k in range(n)]
    T, h = 3.0, 2.0**-6
    for paths in (1, 2, 7, 70):
        for seed in (5, 1408):
            tag = f"{name}/paths{paths}/seed{seed}"
            yield f"{tag}/moment", outcome(lambda: analysis.estimate_moment(
                model, x0, 1.5, T, h, paths, seed, checkpoint_count=7))
            yield f"{tag}/moment_one_checkpoint", outcome(lambda: analysis.estimate_moment(
                model, x0, 2.0, T, h, paths, seed, checkpoint_count=1))
            yield f"{tag}/functional", outcome(lambda: analysis.lyapunov_functional_mc(
                model, x0, T, h, paths, seed))
            yield f"{tag}/lyapunov", outcome(lambda: analysis.sample_lyapunov_mc(
                model, n - 1, x0[-1], T, h, paths, seed, checkpoint_count=9))
            yield f"{tag}/lyapunov_and_functional", outcome(
                lambda: analysis._lyapunov_and_functional(model, 0, x0, T, h, paths, seed, 9))
            yield f"{tag}/inverse_moment", outcome(lambda: analysis.inverse_moment_check(
                model, 0, x0[0], T, h, paths, seed, checkpoint_count=7))
            yield f"{tag}/coupling", outcome(lambda: analysis.coupling_contraction(
                model, 0, 0.5, 2.0, T, h, paths, seed, checkpoint_count=7))
            yield f"{tag}/terminal", outcome(lambda: analysis.terminal_sample(
                model, 0, x0[0], T, h, paths, seed, stream_offset=3))
            yield f"{tag}/invariant", outcome(lambda: analysis.invariant_distance(
                model, 0, 0.5, 2.0, T, h, paths, seed))
    # more than 8,192 intervals per path, where np.sum stops being one pairwise tree
    yield f"{name}/long_functional", outcome(lambda: analysis.lyapunov_functional_mc(
        model, x0, 150.0, h, 3, 9))
    for paths, seed in ((0, 1), (3, -1)):
        tag = f"{name}/bad_paths{paths}_seed{seed}"
        yield f"{tag}/functional", outcome(lambda: analysis.lyapunov_functional_mc(
            model, x0, T, h, paths, seed))
        yield f"{tag}/coupling", outcome(lambda: analysis.coupling_contraction(
            model, 0, 0.5, 2.0, T, h, paths, seed))


def trajectory_bytes(traj) -> bytes:
    grid = traj.grid
    csv = io.StringIO()
    lvjumps.write_trajectory_csv(traj, csv)
    return b"".join((
        traj.values.tobytes(), repr((traj.diverged, traj.diverged_at)).encode(),
        grid.slot_times.tobytes(), grid.slot_kinds.tobytes(), csv.getvalue().encode(),
    ))


def integrator_cases(name, model):
    x0 = [0.6 + 0.3 * k for k in range(model.n)]
    for seed in range(4):
        extra = tuple(b for b in model.pwc_breakpoints() if 0.0 < b < 3.0)
        path = lvjumps.sample_driving_path(model.marks, 3.0, 2.0**-7, seed, extra_times=extra)
        tag = f"{name}/path{seed}"

        def single():
            full = lvjumps.simulate_system(model, x0, path)
            uppers = [lvjumps.simulate_upper(model, i, x0[i], path) for i in range(model.n)]
            lowers = [lvjumps.simulate_lower(model, i, x0[i], path, uppers) for i in range(model.n)]
            return b"".join(map(trajectory_bytes, [full, *uppers, *lowers])) + pickle.dumps(
                lvjumps.lyapunov_functional(full, model) if not full.diverged else None)

        yield f"{tag}/integrators", outcome(single)


def table_cases():
    """``write_mc_csv`` with bound and flag columns, on a computed and an edge-value series."""
    model = lvjumps.constant_model(1, a=2.0, b=1.0, sigma=1.0, gamma=0.5, weights=(1.0,))

    def computed():
        res = analysis.inverse_moment_check(model, 0, 0.8, 3.0, 2.0**-6, 7, 5, checkpoint_count=9)
        csv = io.StringIO()
        analysis.write_mc_csv(res.series, csv, bound=res.bound, flags=res.ok)
        return csv.getvalue()

    def edges():
        series = analysis.MCSeries(
            checkpoints=np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
            mean=np.array([-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]),
            std_error=np.array([0.0, 0.1, 1e-300, 2.5, 3.0, np.nan]),
            n_paths=4,
        )
        csv = io.StringIO()
        analysis.write_mc_csv(series, csv, bound=[1, 0.1, -2, 1e300, 0.0, 7], flags=[True, False] * 3)
        return csv.getvalue()

    yield "table/mc_csv_computed", outcome(computed)
    yield "table/mc_csv_edges", outcome(edges)


def cli_cases(workdir: Path):
    model = workdir / "model.json"
    model.write_text(json.dumps(CRITERION_12_MODEL))
    f = str(model)
    # scan-style models whose Sinusoid and PiecewiseConst rates add extra grid times
    rng = np.random.default_rng(19)
    scan = []
    for n, marks in ((2, 1), (3, 2)):
        scan.append(workdir / f"scan_n{n}.json")
        lvjumps.dump_model(random_model(rng, n, marks, itertools.cycle((1, 2, 0))), scan[-1])
    diverging = workdir / "diverging.json"
    lvjumps.dump_model(lvjumps.constant_model(1, a=0.01, b=1.0, sigma=3.0), diverging)
    # norms whose squares leave float64: below it (sigma 15, and an EXTINCT model), above it
    edges = {}
    for name, a, b, sigma, gamma in (
        ("under", 1.0, 1.0, 15.0, 0.3),
        ("extinct", 0.01, 1.0, 3.0, 0.0),
        ("high", 1.0, 1e-300, 0.5, 0.3),
    ):
        edges[name] = str(workdir / f"{name}.json")
        lvjumps.dump_model(lvjumps.constant_model(
            1, a=a, b=b, sigma=sigma, gamma=gamma, weights=(1.0,)), edges[name])
    edge_flags = ["--h", "0.0625", "--paths", "8", "--seed", "3"]
    commands = [
        ["validate", "--model", f],
        ["simulate", "--model", f, "--T", "2.0", "--h", str(2.0**-8),
         "--seed", "12", "--with-bounds", "--with-oracle", "--dump-path"],
        ["analyze", "moments", "--model", f, "--T", "2.0", "--h", "0.125",
         "--paths", "20", "--seed", "12"],
        ["analyze", "couple", "--model", f, "--T", "2.0", "--h", "0.125",
         "--paths", "20", "--seed", "12", "--x", "0.5", "--y", "2.0"],
        ["analyze", "inverse-moment", "--model", f, "--T", "2.0", "--h", "0.125",
         "--paths", "20", "--seed", "12"],
        ["analyze", "invariant", "--model", f, "--T", "2.0", "--h", "0.125",
         "--paths", "50", "--seed", "12", "--x", "0.5", "--y", "2.0"],
        ["analyze", "lyapunov", "--model", f, "--T", "4.0", "--h", "0.125",
         "--paths", "20", "--seed", "12"],
        ["classify", "--model", f],
        ["sweep", "--model", f, "--param", "a[0]", "--grid", "0.5:1.5:0.25"],
        *(["simulate", "--model", str(m), "--T", "5.0", "--h", str(2.0**-8), "--seed", "7",
           "--with-bounds"] for m in scan),
        ["simulate", "--model", str(diverging), "--T", "256.0", "--h", "0.0625", "--seed", "3"],
        ["analyze", "lyapunov", "--model", edges["under"], "--T", "4", *edge_flags],
        ["analyze", "lyapunov", "--model", edges["extinct"], "--T", "128", *edge_flags],
        *(["analyze", which, "--model", edges["high"], "--x0", "1e200", "--T", "1", *edge_flags]
          for which in ("moments", "lyapunov")),
    ]
    for k, args in enumerate(commands):
        def run(args=args, out=workdir / f"out{k}"):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(args + ["--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            text = without_warning_locations(sink.getvalue())
            return code, text.replace(str(workdir), "<workdir>"), files

        yield f"cli/{k}_{'_'.join(args[:2]) if args[0] == 'analyze' else args[0]}", outcome(run)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, model in models():
            for case, payload in estimator_cases(name, model):
                emit(case, payload)
            for case, payload in integrator_cases(name, model):
                emit(case, payload)
            emit(f"{name}/regime", regime_case(model))
        emit("beat/regime", regime_case(beat_model()))
        for case, payload in table_cases():
            emit(case, payload)
        for case, payload in cli_cases(Path(tmp)):
            emit(case, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
