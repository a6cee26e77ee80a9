"""The four workloads and the closed loop that runs them.

A workload is a list of inputs, a call into the program per input, a
check of each output, and the value that metamorphic groups compare.
run_passes works through the whole list in order, one input at a time,
for a fixed number of whole passes, so every run attempts the same
operations and the share of failed inputs never varies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import icl.caching as caching
import icl.composite as composite
from icl.caching import FileLibrary

import checks
import inputs
from tracing import NoTrace


def _call_hull(item, tracer):
    def hook(round_no, tau, best):
        tracer.count("pricing_rounds")
        tracer.count("priced_choices", item.choices)

    tracer.count("decoding_choices", item.choices)
    with tracer.span("hull"):
        return composite.time_shared_symmetric_rate(item.inst, item.cap, trace=hook)


def _call_pure(item, tracer):
    tracer.count("decoding_choices", item.choices)
    tracer.count("swept_choices", item.choices)
    with tracer.span("pure"):
        return composite.max_symmetric_rate(item.inst, item.cap)


def _call_weighted(item, tracer):
    tracer.count("decoding_choices", item.choices)
    with tracer.span("weighted"):
        return composite.max_weighted_rate(item.inst, item.weights, item.cap)


@dataclass
class CacheOutcome:
    transcript: object
    decoded: list[int]
    subfiles: object
    verification: object


def _call_cache(item, tracer):
    library = FileLibrary(item.files, item.B)
    with tracer.span("place"):
        if item.centralized:
            cache, subfiles = caching.cman_place(item.K, item.t, library)
        else:
            cache, subfiles = caching.dman_place(item.K, item.M, library, item.placement_seed)
    with tracer.span("deliver"):
        if item.centralized:
            transcript = caching.deliver(subfiles, item.demand, mode=item.mode)
        else:
            transcript = caching.dman_deliver(subfiles, item.demand)
    with tracer.span("decode"):
        decoded = caching.decode_all_users(cache, transcript, item.demand)
    verification = None
    if item.certify:
        with tracer.span("verify_delivery_scheme"):
            verification = caching.verify_delivery_scheme(item.K, item.N, item.t, item.demand)
    tracer.count("decoded_bits", item.K * item.B)
    tracer.count("payload_bits", transcript.total_bits)
    return CacheOutcome(transcript, decoded, subfiles, verification)


def _check_cache(item, out: CacheOutcome) -> list[str]:
    lengths = {key: len(pos) for key, pos in out.subfiles.positions.items()}
    return checks.check_cache(item, out.transcript, out.decoded, lengths, out.verification)


@dataclass(frozen=True)
class Workload:
    make_list: Callable
    call: Callable
    check: Callable
    pass_s: float                     # nominal seconds per pass, sets the pass count
    value: Callable | None = None     # per-channel-bit value compared within groups

    def passes(self, seconds: float) -> int:
        """Whole passes that fill `seconds` at the nominal pass length.

        The count depends on the requested run length only, never on how
        fast the host runs, so every run of a workload does the same work.
        """
        return max(1, round(seconds / self.pass_s))


# Nominal pass lengths: one pass over the seed-1 list on a 2-core x86-64
# VM with Python 3.11 and NumPy 2.4.
WORKLOADS = {
    "ic-hull": Workload(inputs.ic_list, _call_hull, checks.check_hull, 6.5,
                        lambda item, res: res.symmetric_rate),
    "ic-pure": Workload(inputs.ic_list, _call_pure, checks.check_pure, 1.7,
                        lambda item, res: res.symmetric_rate),
    "ic-weighted": Workload(inputs.ic_list, _call_weighted, checks.check_weighted, 13.0,
                            lambda item, res: res.value / item.inst.channel_bits),
    "cache-sim": Workload(inputs.cache_list, _call_cache, _check_cache, 1.3),
}


@dataclass
class RunRecord:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0                    # summed wall time of the program calls
    times: dict[str, list[float]] = field(default_factory=dict)   # successful calls only
    errors: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_passes(workload: Workload, items, passes: int, tracer=None) -> RunRecord:
    """Work through items in order, one at a time, `passes` times over."""
    tracer = tracer or NoTrace()
    rec = RunRecord()
    while rec.passes < passes:
        values = {}
        for index, item in enumerate(items):
            rec.attempted += 1
            tracer.item = index
            t0 = time.perf_counter()
            try:
                res = workload.call(item, tracer)
            except Exception as exc:  # an input that raises is a failed operation
                rec.busy_s += time.perf_counter() - t0
                rec.failed += 1
                rec.errors[item.name] = f"{type(exc).__name__}: {exc}"
                continue
            elapsed = time.perf_counter() - t0
            rec.busy_s += elapsed
            rec.times.setdefault(item.name, []).append(elapsed)
            rec.problems.extend(f"{item.name}: {p}" for p in workload.check(item, res))
            if workload.value is not None:
                values[item.name] = workload.value(item, res)
        if workload.value is not None:
            rec.problems.extend(checks.check_groups(items, values))
        rec.passes += 1
    return rec
