"""Record a baseline: untraced and traced runs of every workload.

    python3 perfbench/record.py --label seed

Run from the repository root.  Each workload runs with seed 1 for the
`run_seconds` of BENCHMARK.json, once with `--trace 0` and once with
`--trace 1`, one after the other.  The parsed output of each run (detail
record and result line; the traced one carries the tracing overhead and
each layer's share of traced time) goes to perfbench/baseline/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "verify", "ingest")
SEED = 1


def run_once(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return {"detail": detail, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output file")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    doc = {"label": args.label, "seed": SEED, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        untraced = run_once(workload, seconds, 0)
        traced = run_once(workload, seconds, 1)
        doc["environment"] = untraced["detail"]["environment"]
        doc["workloads"][workload] = {"untraced": untraced, "traced": traced}
        print(f"{workload}: recorded", file=sys.stderr)
    out = HERE / "baseline" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
