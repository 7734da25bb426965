"""lvjumps benchmark: one workload per run, end-to-end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload mc_full_system --seed 1 --seconds 35 --trace 0

The workloads are described in ``BENCHMARK.json`` and ``bench/README.md``.
An untraced run (``--trace 0``) repeats the workload until ``--seconds`` have
passed and reports replicates per second (from median repetition times), set-up
time and peak resident memory.  A traced run (``--trace 1``) runs a fixed
number of repetitions once untraced and once with every layer function
wrapped, and reports per-layer self times, shares and work counts.  Both
check the library's outputs and compare a fixed reference case with
``bench/reference.json``.

The last line of standard output is the result object; the line before it is
a record of the environment, the calibration loop and the raw timings.  The
library is imported from ``src/`` of the checkout that holds this script;
without it the run fails before printing a result.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One process, one thread: BLAS and OpenMP pools would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-9
SETUP_REPEATS = 5
TRACE_REPETITIONS = 2
CALIBRATION_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply path and model counts (the smoke check runs tiny sizes)",
    )
    return parser.parse_args(argv)


def import_library():
    """Import lvjumps from this checkout's src/ and return it."""
    sys.path.insert(0, str(SRC))
    import lvjumps

    if SRC.resolve() not in Path(lvjumps.__file__).resolve().parents:
        raise ImportError(f"lvjumps imported from {lvjumps.__file__}, not from {SRC}")
    return lvjumps


def calibrate() -> float:
    """Milliseconds for a fixed loop of Python and numpy work; code-independent."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for k in range(100_000):
        acc += math.sqrt(k)
    x = np.random.default_rng(0).standard_normal(100_000)
    for _ in range(10):
        acc += float(np.cumsum(np.exp(-x * x)).sum())
    return (time.perf_counter() - start) * 1e3


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(lvjumps):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lvjumps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lvjumps": lvjumps.__version__,
        "rng_algorithm": lvjumps.noise.RNG_ALGORITHM,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "thread_caps": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.diverged = 0

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures)
        self.diverged += outcome.diverged

    def error(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failures.append(f"{what} raised {exc!r}")


def repeat(wl, rep, tally):
    """Run and check one repetition; its run seconds, or None if it raised."""
    start = time.perf_counter()
    try:
        raw = wl.run(rep)
    except Exception as exc:  # counted as a failed operation; the run goes on
        tally.error(f"repetition {rep}", exc)
        return None
    elapsed = time.perf_counter() - start
    tally.add(wl.check(raw))
    return elapsed


def merge(outcomes):
    """One outcome for a whole group: counts add, headline numbers add, lists join."""
    total = outcomes[0]
    for more in outcomes[1:]:
        total.attempted += more.attempted
        total.failures.extend(more.failures)
        total.diverged += more.diverged
        for key, value in more.headline.items():
            total.headline[key] = total.headline[key] + value
    return total


def run_reference(workload_cls, spec, workdir):
    """Set up, run and check the first group of repetitions of a reference case."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workload_cls(spec["seed"], workdir, spec["scale"])
    wl.setup()
    return merge([wl.check(wl.run(rep)) for rep in range(wl.group)])


def reference_check(workloads, name, workdir, tally) -> None:
    """Run the fixed reference case and compare its headline with reference.json."""
    spec = json.loads(REFERENCE_FILE.read_text())[name]
    try:
        outcome = run_reference(workloads.WORKLOADS[name], spec, workdir)
    except Exception as exc:  # counted as a failed operation; the run goes on
        tally.error("reference case", exc)
        return
    tally.add(outcome)
    tally.attempted += 1
    for key, expected in spec["headline"].items():
        got = outcome.headline.get(key)
        if isinstance(expected, float):
            ok = isinstance(got, float) and math.isclose(got, expected, rel_tol=REFERENCE_RTOL)
        else:
            ok = got == expected
        if not ok:
            tally.failures.append(f"reference {key}: got {got!r}, recorded {expected!r}")
            return


def upper_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seconds, tally):
    """Repeat until ``seconds`` have passed and every slot of the group has run.

    Returns the durations of each slot of the group (repetition ``r`` fills
    slot ``r % wl.group``) and the peak resident memory.
    """
    durations = [[] for _ in range(wl.group)]
    start = time.perf_counter()
    rep = 0
    while rep < wl.group or time.perf_counter() - start < seconds:
        elapsed = repeat(wl, rep, tally)
        if elapsed is not None:
            durations[rep % wl.group].append(elapsed)
        rep += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return durations, peak_rss_mb


def traced_run(wl, tracing, tally, spans_path):
    reps = TRACE_REPETITIONS * wl.group
    untraced = [repeat(wl, rep, tally) for rep in range(reps)]
    tracer = tracing.Tracer()
    traced = []
    tracer.install()
    try:
        for rep in range(reps):
            tracer.repetition = rep
            traced.append(repeat(wl, rep, tally))
    finally:
        tracer.uninstall()
    if None in untraced or None in traced:
        return None
    tracer.write(spans_path)
    return tracer.metrics(sum(traced), sum(untraced))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lvjumps = import_library()
    except ImportError as exc:
        print(f"cannot import lvjumps from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(lvjumps)
    calibration = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.scale)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        # The reference case also warms every code path before timing.
        reference_check(workloads, args.workload, workdir / "reference", tally)
        if args.trace:
            spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.json.gz"
            layer = traced_run(wl, tracing, tally, spans_path)
        else:
            durations, peak_rss_mb = timed_run(wl, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration += [calibrate() for _ in range(CALIBRATION_REPEATS)]
    calibration_ms = statistics.median(calibration)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "calibration_ms": calibration,
        "import_s": import_s,
        "model_setup_s": setup_times,
        "replicates_per_group": wl.replicates,
        "repetitions_per_group": wl.group,
        "diverged": tally.diverged,
        "failures": tally.failures,
    }
    if args.trace:
        if layer is None:
            metrics = {}
        else:
            layer["env.calibration_ms"] = (calibration_ms, "ms")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        # A group's time is the sum over its slots of each slot's median
        # duration, so a slow phase of the machine counts once per slot at most.
        complete = all(durations)
        group_s = sum(statistics.median(d) for d in durations) if complete else None
        record["repetition_s"] = durations
        record["replicates_per_s"] = {
            "median": wl.replicates / group_s if complete else None,
            "count": min(len(d) for d in durations),
        }
        tail = upper_percentile(durations[0]) if wl.group == 1 else None
        if tail:
            record["replicates_per_s"][f"p{tail[0]}_repetition"] = wl.replicates / tail[1]
        metrics = {
            "replicates_per_s": {"value": record["replicates_per_s"]["median"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        } if complete else {}
    record["failed_frac"] = len(tally.failures) / max(tally.attempted, 1)
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not tally.failures and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.failures) if metrics else max(tally.attempted, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
