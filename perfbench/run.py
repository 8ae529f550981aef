"""Benchmark entry point for paraortho.

    python3 perfbench/run.py --workload sweep|verify|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root.  It imports the package from `src/` of
the same checkout, caps BLAS/OpenMP threads at the core count, sets the
workload up three times (set-up time is the median time of five fresh
interpreters importing the package plus the median of the three set-ups),
then runs timed passes until `--seconds` is used up.
With `--trace 0` the last stdout line carries the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run (see README.md).
The exit status is 1 if the correctness gate fails, 2 on bad usage or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "ingest"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def cap_threads() -> dict:
    """Cap native thread pools at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def environment(caps: dict) -> dict:
    import mpmath
    import numpy

    rev = None  # an exported checkout has no .git; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "paraortho").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        **caps,
    }


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the whole package.

    One process can import a module only once, so the import part of the
    set-up is repeated in child processes (interpreter start included).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import paraortho.cli"], env=env, check=True)
    return time.perf_counter() - t


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for "end_to_end" and "per_layer" of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def high_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def timed_passes(wl, seconds: float, tracer):
    """Run passes until `seconds` is used up; returns (walls, outcome)."""
    from workloads import Outcome

    total = Outcome()
    walls: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        inputs = wl.inputs(index)
        gc.collect()
        if tracer is not None:
            tracer.current_pass = index
            tracer.install()
        t = time.perf_counter()
        try:
            out = wl.run(inputs)
        finally:
            walls.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.uninstall()
                tracer.pass_walls.append(walls[-1])
        total.add(wl.account(inputs, out))
        index += 1
        # start no pass that the median pass time says would overrun
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paraortho" / "__init__.py").is_file():
        print(f"error: no paraortho package under {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))

    import paraortho
    import paraortho.cli  # noqa: F401  (imports every module)
    if Path(paraortho.__file__).resolve().parent != SRC / "paraortho":
        print(f"error: paraortho imported from {paraortho.__file__}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = statistics.median(time_import() for _ in range(IMPORT_REPEATS))
    units = declared_units()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir))
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer() if args.trace else None
        walls, total = timed_passes(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        gate_errors, gate_stats = wl.final_gate()
        errors = total.errors + gate_errors + (tracer.zero_set_errors if tracer else [])

        timed = sum(walls)
        end_to_end = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "results_per_s": total.results / timed,
            "pass_share": (total.attempted - total.failed) / total.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            values = tracer.aggregate()
            values["cli.report_bytes"] = total.report_bytes / len(walls)
            spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.json"
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(tracer.spans(), handle)
        else:
            values = end_to_end
        declared = units["per_layer" if args.trace else "end_to_end"]
        if set(declared) != set(values):
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(values))}"
            )

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(caps),
            "import_s": import_s,
            "setup_repeats_s": setups,
            "passes": len(walls),
            "pass_walls_s": walls,
            "wall_s": {
                "median": statistics.median(walls),
                "samples": len(walls),
                "high": high_percentile(walls),
            },
            "fail_share": total.failed / total.attempted,
            "outcomes": dict(sorted(total.kinds.items())),
            "end_to_end": end_to_end,
            "gate": {"errors": errors[:20], "error_count": len(errors), **gate_stats},
        }
        print("detail " + json.dumps(detail, sort_keys=True))
        if not args.trace:
            for name, unit in units["end_to_end"].items():
                print(f"{args.workload:>7} {name:<14} {end_to_end[name]:14.6g} {unit}")
            print(f"{args.workload:>7} {'fail_share':<14} {detail['fail_share']:14.6g} ratio "
                  f"({total.failed} of {total.attempted} operations)")
        result = {
            "correct": not errors,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in declared.items()},
        }
        print(json.dumps(result))
        return 0 if not errors else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
