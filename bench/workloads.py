"""The benchmark's three workloads: inputs, one timed repetition, and checks.

Every workload is built from the benchmark seed alone; the library only sees
the generated models, initial values and master seeds.  A workload object
builds its inputs in ``setup``, does one repetition of timed work in ``run``
and checks that repetition's output in ``check``, which returns an
:class:`Outcome`.  A group of ``group`` consecutive repetitions does the
work of ``replicates`` replicates: one repetition of many paths on the Monte
Carlo workloads, one repetition per model on the scan.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lvjumps
from lvjumps import analysis, cli

T_FULL, H_FULL = 50.0, 2.0**-6
T_CLOSED, H_CLOSED = 20.0, 2.0**-6
T_SCAN, H_SCAN = 5.0, 2.0**-10


def stream_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed for the stream ``keys`` under the benchmark seed."""
    ss = np.random.SeedSequence([int(seed), *keys])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def criterion9_model():
    """Criterion 9: two competing species, one mark with opposite-sign jumps."""
    return lvjumps.constant_model(
        2,
        a=(1.5, 1.0),
        b=[[1.0, 0.3], [0.2, 0.8]],
        sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)),
        weights=(1.0,),
    )


def permanent_model():
    """The PERMANENT model: a=2, b=1, sigma=1, gamma=0.5 at rate 1."""
    return lvjumps.constant_model(1, a=2.0, b=1.0, sigma=1.0, gamma=0.5, weights=(1.0,))


def _random_coefficient(rng, kind, lo, hi):
    if kind == 0:
        return lvjumps.Const(float(rng.uniform(lo, hi)))
    if kind == 1:
        base = rng.uniform(lo, hi)
        amp = rng.uniform(0.0, min(base - lo, hi - base))
        return lvjumps.Sinusoid(
            float(base), float(amp), float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.0, 6.28))
        )
    pieces = int(rng.integers(2, 4))
    breaks = np.sort(rng.uniform(0.3, 4.5, pieces - 1))
    return lvjumps.PiecewiseConst(tuple(breaks), tuple(rng.uniform(lo, hi, pieces)))


# Every (species, marks) pair once, ordered so that any four consecutive
# models cover every species count and every mark count.
SCAN_SHAPES = tuple((n, (n - 1 + shift) % 4) for shift in range(4) for n in range(1, 5))


def scan_models(seed: int, count: int = len(SCAN_SHAPES)):
    """``count`` random valid models for the CLI scan.

    The ranges are those of the test suite's random-model generator:
    a in [0.3, 2.5], b_ii in [0.2, 2], b_ij in [0, 1], sigma in [0, 1],
    gamma in [-0.85, 1.5], mark weights in [0.2, 1.5], and each coefficient
    a Const, Sinusoid or PiecewiseConst.  The discrete choices are balanced
    rather than drawn: the models cover the (n, marks) grid 1..4 x 0..3 once
    each, and the three coefficient kinds are dealt out in equal shares in a
    seeded order.  Drawing them independently made the work of one model set
    vary by about 20% between seeds, which would hide a real change.
    """
    rng = np.random.default_rng(stream_seed(seed, 3))
    shapes = [SCAN_SHAPES[k % len(SCAN_SHAPES)] for k in range(count)]
    total = sum(2 * n + n * n + n * K for n, K in shapes)
    kinds = iter(rng.permutation(np.arange(total) % 3).tolist())

    def coeff(lo, hi):
        return _random_coefficient(rng, next(kinds), lo, hi)

    models = []
    for n, K in shapes:
        a = tuple(coeff(0.3, 2.5) for _ in range(n))
        B = tuple(
            tuple(coeff(0.2, 2.0) if i == j else coeff(0.0, 1.0) for j in range(n))
            for i in range(n)
        )
        sigma = tuple(coeff(0.0, 1.0) for _ in range(n))
        gamma = tuple(tuple(coeff(-0.85, 1.5) for _ in range(K)) for _ in range(n))
        weights = tuple(float(w) for w in rng.uniform(0.2, 1.5, K))
        models.append(
            lvjumps.ModelSpec(
                n=n, a=a, B=B, sigma=sigma, gamma=gamma, marks=lvjumps.MarkSpace(weights)
            )
        )
    return models


@dataclass
class Outcome:
    """What the checks found in one repetition."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    diverged: int = 0
    headline: dict = field(default_factory=dict)


class McFullSystem:
    """Growth functional of the criterion-9 model by Monte Carlo.

    One model with many paths: the full-system log-Euler kernel carries the
    time, so a path-batched kernel shows here.  Conditions, the closed form
    and CSV output are never called.
    """

    name = "mc_full_system"
    paths = 100
    group = 1

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.replicates = max(2, round(self.paths * scale))

    def setup(self):
        self.model = criterion9_model()
        report = lvjumps.validate_model(self.model)
        if not report.ok:
            raise RuntimeError(f"criterion-9 model invalid: {report}")

    def run(self, rep: int):
        return analysis.lyapunov_functional_mc(
            self.model, [1.0, 1.0], T_FULL, H_FULL, self.replicates,
            stream_seed(self.seed, 1, rep),
        )

    def check(self, res) -> Outcome:
        problems = []
        if res.diverged_count:
            problems.append(f"{res.diverged_count} diverged paths")
        if not res.mean <= res.bound + 3.0 * res.std_error:
            problems.append(f"functional mean {res.mean} above bound {res.bound} + 3se")
        return Outcome(
            attempted=1,
            failures=["; ".join(problems)] if problems else [],
            diverged=res.diverged_count,
            headline={"mean": res.mean, "std_error": res.std_error, "bound": res.bound},
        )


class McClosedForm:
    """Coupling contraction of the PERMANENT model through the closed form.

    Monte Carlo without the integrator: the explicit logistic solution and
    the noise generator carry the time, so a kernel-only change should not
    move this workload while a batched closed form or faster noise should.
    """

    name = "mc_closed_form"
    paths = 1000
    group = 1

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.replicates = max(2, round(self.paths * scale))

    def setup(self):
        self.model = permanent_model()
        report = lvjumps.validate_model(self.model)
        if not report.ok:
            raise RuntimeError(f"PERMANENT model invalid: {report}")

    def run(self, rep: int):
        return analysis.coupling_contraction(
            self.model, 0, 0.5, 2.0, T_CLOSED, H_CLOSED, self.replicates,
            stream_seed(self.seed, 2, rep),
        )

    def check(self, res) -> Outcome:
        problems = []
        if not res.all_ok:
            problems.append("inverse difference above its envelope + 3se")
        if res.sign_consistent_fraction != 1.0:
            problems.append(f"sign consistency {res.sign_consistent_fraction} != 1")
        return Outcome(
            attempted=1,
            failures=["; ".join(problems)] if problems else [],
            headline={
                "inverse_diff_mean_sum": float(np.sum(res.inverse_diff.mean)),
                "half_moment_mean_sum": float(np.sum(res.half_moment_diff.mean)),
            },
        )


class ModelScanCli:
    """Random valid models through ``classify`` and ``simulate --with-bounds``.

    Many distinct models with one path each, so path batching cannot help:
    per-call overhead, coefficient tabulation, the scalar comparison kernels,
    the sampled branch of the regime conditions and the CLI's CSV output
    carry the time.  Repetition ``r`` runs model ``r % group`` in pass
    ``r // group``, so each model is timed on its own.
    """

    name = "model_scan_cli"
    models = len(SCAN_SHAPES)

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.replicates = self.group = max(1, round(self.models * scale))

    def setup(self):
        self.files = []
        for k, model in enumerate(scan_models(self.seed, self.replicates)):
            report = lvjumps.validate_model(model)
            if not report.ok:
                raise RuntimeError(f"generated model {k} invalid: {report}")
            path = self.workdir / f"model_{k}.json"
            lvjumps.dump_model(model, path)
            self.files.append(path)

    def run(self, rep: int):
        passed, k = divmod(rep, self.group)
        path = self.files[k]
        out = str(self.workdir / f"rep{passed}_model{k}")
        classify = ["classify", "--model", str(path), "--out", out]
        simulate = [
            "simulate", "--model", str(path), "--out", out, "--with-bounds",
            "--T", repr(T_SCAN), "--h", repr(H_SCAN),
            "--seed", str(stream_seed(self.seed, 4, passed, k)),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [(out, _run_cli(classify), _run_cli(simulate))]

    def check(self, codes) -> Outcome:
        out = Outcome(attempted=2 * len(codes))
        finals = 0.0
        labels = []
        for outdir, classify_code, simulate_code in codes:
            outdir = Path(outdir)
            if classify_code != cli.EXIT_OK:
                out.failures.append(f"{outdir.name}: classify exit {classify_code}")
            elif not (outdir / "classification.json").is_file():
                out.failures.append(f"{outdir.name}: classification.json missing")
            else:
                payload = json.loads((outdir / "classification.json").read_text())
                labels.extend(s["classification"] for s in payload["species"])
            if simulate_code == cli.EXIT_DIVERGED:
                out.diverged += 1
            elif simulate_code != cli.EXIT_OK:
                out.failures.append(f"{outdir.name}: simulate exit {simulate_code}")
            else:
                summary = json.loads((outdir / "bounds_summary.json").read_text())
                if summary["violations"] != 0:
                    out.failures.append(
                        f"{outdir.name}: {summary['violations']} sandwich violations"
                    )
                last = (outdir / "trajectory_X.csv").read_text().rstrip("\n").rsplit("\n", 1)[1]
                finals += math.fsum(float(v) for v in last.split(",")[2:])
            shutil.rmtree(outdir, ignore_errors=True)
        out.headline = {"final_population_sum": finals, "classifications": labels}
        return out


def _run_cli(argv) -> int | str:
    """Exit code of one in-process CLI call, or the exception it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return f"raised {exc!r}"


WORKLOADS = {wl.name: wl for wl in (McFullSystem, McClosedForm, ModelScanCli)}
