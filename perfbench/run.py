"""Benchmark of the icl package: composite-coding engines and caching simulator.

    python3 perfbench/run.py --workload ic-hull --seed 1 --seconds 15 --trace 0

Runs one workload in this process: the seeded input list is worked
through in order, one input at a time, in as many whole passes as fill
--seconds at the workload's nominal pass length.  Every output is
checked.  The last line of standard output is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
The package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("ic-hull", "ic-pure", "ic-weighted", "cache-sim")
SETUP_PROBES = 5


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other icl."""
    if not (SRC / "icl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'icl'}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import icl

    if Path(icl.__file__).resolve().parent != (SRC / "icl").resolve():
        sys.exit(f"perfbench: imported icl from {icl.__file__}, not from {SRC}")


def _setup(workload: str, seed: int):
    _import_program()
    import workloads

    spec = workloads.WORKLOADS[workload]
    return spec, spec.make_list(seed)


def _probe_setup_s(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed with code {proc.returncode}")
    return elapsed


def _gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec, items = _setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import tracing
    import workloads

    setup_s = None
    if not args.trace:
        setup_s = statistics.median(
            _probe_setup_s(args.workload, args.seed) for _ in range(SETUP_PROBES)
        )
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        rec = workloads.run_passes(spec, items, spec.passes(args.seconds), tracer)

    per_item = {name: statistics.median(ts) for name, ts in rec.times.items()}
    done = rec.attempted - rec.failed
    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.layer_unit(name)}
            for name, value in tracing.layer_metrics(tracer, rec.passes).items()
        }
    else:
        metrics = {
            "results_per_s": {"value": done / rec.busy_s, "unit": "1/s"},
            "result_s_gmean": {
                "value": _gmean(list(per_item.values())) if per_item else 0.0, "unit": "s"
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, passes=rec.passes, busy_s=rec.busy_s, item_median_s=per_item,
                  item_times_s=rec.times,
                  errors=rec.errors, problems=rec.problems)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    for name, err in rec.errors.items():
        print(f"failed: {name}: {err}", file=sys.stderr)
    for problem in rec.problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
