"""Rewrite bench/reference.json from the library in this checkout.

    python3 bench/record_reference.py

Each workload's reference case is its first group of repetitions at
benchmark seed 0 and a small scale.  Every run of the benchmark reruns it
and compares the headline values with the recorded ones (relative tolerance
1e-9), so a change that alters an estimator's result shows as a failed
operation.  Record again only
when a change to the results is intended, and say so where the change is
described.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

# workload -> fraction of its full path or model count
SCALES = {"mc_full_system": 0.08, "mc_closed_form": 0.2, "model_scan_cli": 0.125}


def main() -> int:
    run.import_library()
    import workloads

    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    for name, scale in SCALES.items():
        spec = {"seed": 0, "scale": scale}
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            outcome = run.run_reference(workloads.WORKLOADS[name], spec, Path(tmp))
        if outcome.failures:
            print(f"{name}: reference case fails its checks: {outcome.failures}", file=sys.stderr)
            return 1
        recorded[name] = {**spec, "headline": outcome.headline}
    run.REFERENCE_FILE.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
