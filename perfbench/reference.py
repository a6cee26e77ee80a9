"""Reference figures measured once and not gated; see README.md.

    python3 perfbench/reference.py hull-vs-pure --seed 1
    python3 perfbench/reference.py threads --seed 1
    python3 perfbench/reference.py grid
    python3 perfbench/reference.py example1
    python3 perfbench/reference.py overhead --workload cache-sim

hull-vs-pure  ic-hull items whose time-shared rate beats the pure rate
threads       one ic-hull pass at threads=1 and at threads=2
grid          acceptance criterion 4: K,N <= 5, every t and demand, both modes
example1      acceptance criterion 1: the full example1 hull (minutes)
overhead      tracing overhead: untraced and traced passes alternated in one
              process, so that both see the same host
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import icl.caching as caching  # noqa: E402
import icl.composite as composite  # noqa: E402
from icl.instance import builtin_instance  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - start


def hull_vs_pure(seed: int) -> None:
    items = [i for i in inputs.ic_list(seed) if i.name != "side-only"]
    beats = 0
    for item in items:
        hull = composite.time_shared_symmetric_rate(item.inst, item.cap).symmetric_rate
        pure = composite.max_symmetric_rate(item.inst, item.cap).symmetric_rate
        beats += hull > pure
        print(f"{item.name:22s} hull {str(hull):6s} pure {str(pure):6s}")
    print(f"hull beats pure on {beats} of {len(items)} items")


def threads(seed: int) -> None:
    items = [i for i in inputs.ic_list(seed) if i.name != "side-only"]
    for n in (1, 2):
        _, secs = _timed(
            lambda: [composite.time_shared_symmetric_rate(i.inst, i.cap, threads=n) for i in items]
        )
        print(f"ic-hull pass at threads={n}: {secs:.2f} s")


def grid() -> None:
    runs = 0
    start = time.perf_counter()
    for K, N in product(range(1, 6), range(1, 6)):
        for t in range(K + 1):
            B = 4 * comb(K, t)
            lib = caching.random_library(N, B, seed=1000 + 100 * K + 10 * N + t)
            cache, sub = caching.cman_place(K, t, lib)
            for d in caching.iter_demands(K, N):
                for mode in ("full", "reduced"):
                    tr = caching.deliver(sub, d, mode=mode)
                    out = caching.decode_all_users(cache, tr, d)
                    assert out == [lib.files[f - 1] for f in d]
                    sent = comb(K, t + 1) - (comb(K - len(set(d)), t + 1) if mode == "reduced" else 0)
                    assert tr.load == Fraction(sent, comb(K, t))
                    runs += 1
    print(f"criterion-4 grid: {runs} deliver+decode runs in {time.perf_counter() - start:.1f} s")


def example1() -> None:
    res, secs = _timed(composite.time_shared_symmetric_rate, builtin_instance("example1"))
    print(f"example1 hull {res.symmetric_rate} (bound {res.upper_bound}, converged "
          f"{res.converged}, {res.rounds} rounds) in {secs:.1f} s at threads=1")


def overhead(workload: str, seed: int, pairs: int = 3) -> None:
    spec = workloads.WORKLOADS[workload]
    items = spec.make_list(seed)
    rates: dict[str, list[float]] = {"untraced": [], "traced": []}
    for _ in range(pairs):
        for kind in rates:
            tracer = tracing.Tracer() if kind == "traced" else None
            with tracer.installed() if tracer else nullcontext():
                rec = workloads.run_passes(spec, items, 1, tracer)
            rates[kind].append((rec.attempted - rec.failed) / rec.busy_s)
    plain, traced = (sorted(v)[len(v) // 2] for v in rates.values())
    print(f"{workload}: results_per_s untraced {plain:.4g}, traced {traced:.4g} "
          f"(median of {pairs} alternated passes each), overhead {plain / traced - 1:+.1%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "figure", choices=("hull-vs-pure", "threads", "grid", "example1", "overhead")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), default="cache-sim")
    args = parser.parse_args()
    if args.figure == "hull-vs-pure":
        hull_vs_pure(args.seed)
    elif args.figure == "threads":
        threads(args.seed)
    elif args.figure == "grid":
        grid()
    elif args.figure == "overhead":
        overhead(args.workload, args.seed)
    else:
        example1()


if __name__ == "__main__":
    main()
