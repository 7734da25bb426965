"""Time two source trees of lvjumps against each other in one process, interleaved.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC [--repeats N] [--workload NAME]

Each ``*_SRC`` is a directory that holds an ``lvjumps`` package (a checkout's
``src``).  The two are imported side by side as ``lvjumps_parent`` and
``lvjumps_change``.  Each iteration runs a workload once on each side,
alternating which side runs first, and asserts that the two results are equal
(array bytes, floats and every other field).  It prints each side's median
time and the median of the per-iteration change/parent time ratios.

Workloads:

- ``mc_full_system``: ``lyapunov_functional_mc`` on the criterion-9 model,
  x0 = (1, 1), T=50, h=2^-6, 100 paths, the call of the benchmark workload
  of that name;
- ``criterion_4``: ``sample_lyapunov_mc`` on the 1-species EXTINCT model
  (a=0.1, b=1, sigma=1, gamma=-0.5 at rate 1), T=400, h=2^-6, 162 paths in
  two batches, 100 checkpoints.

Both sides run the same seeds, so a speed difference is the code's alone.
Allow about 2 s per mc_full_system iteration and 8 s per criterion_4
iteration on a 2-core x86_64 VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: str, name: str):
    """The ``lvjumps`` package under ``src``, imported as ``name``."""
    package = Path(src) / "lvjumps"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workloads(lv):
    """name -> zero-argument call, on the package ``lv``."""
    criterion_9 = lv.constant_model(
        2, a=(1.5, 1.0), b=[[1.0, 0.3], [0.2, 0.8]], sigma=(0.5, 0.4),
        gamma=((0.3,), (-0.4,)), weights=(1.0,),
    )
    extinct = lv.constant_model(1, a=0.1, b=1.0, sigma=1.0, gamma=-0.5, weights=(1.0,))
    return {
        "mc_full_system": lambda seed: lv.lyapunov_functional_mc(
            criterion_9, [1.0, 1.0], 50.0, 2.0**-6, 100, seed),
        "criterion_4": lambda seed: lv.sample_lyapunov_mc(
            extinct, 0, 1.0, 400.0, 2.0**-6, 162, seed, checkpoint_count=100),
    }


def same(a, b) -> bool:
    """Whether two results hold the same values, field by field."""
    if dataclasses.is_dataclass(a):
        return type(a).__name__ == type(b).__name__ and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=["mc_full_system", "criterion_4"])
    args = parser.parse_args(argv)
    sides = {"parent": workloads(load(args.parent_src, "lvjumps_parent")),
             "change": workloads(load(args.change_src, "lvjumps_change"))}
    for name in args.workload or ["mc_full_system", "criterion_4"]:
        seconds = {"parent": [], "change": []}
        for side in sides.values():  # warm-up: first-use checks and caches
            side[name](1)
        for it in range(args.repeats):
            order = ("parent", "change") if it % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                t0 = time.perf_counter()
                results[side] = sides[side][name](1000 + it)
                seconds[side].append(time.perf_counter() - t0)
            assert same(results["parent"], results["change"]), f"{name}: results differ at {it}"
        ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
        faster = sum(r < 1.0 for r in ratios)
        print(f"{name}: parent median {statistics.median(seconds['parent']):.4f} s, "
              f"change median {statistics.median(seconds['change']):.4f} s, "
              f"change/parent ratio median {statistics.median(ratios):.3f} "
              f"(speed-up {1 / statistics.median(ratios):.3f}x), change faster {faster}/{len(ratios)}, "
              f"results equal {args.repeats}/{args.repeats}")
        print(f"  parent_s {[round(s, 4) for s in seconds['parent']]}")
        print(f"  change_s {[round(s, 4) for s in seconds['change']]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
