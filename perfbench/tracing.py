"""Spans around calls into the program, recorded from the benchmark's side.

A traced run replaces a few module attributes through which the program
calls its own layers (for instance icl.composite.solve_lp) with timing
wrappers, and opens a span around each call the benchmark itself makes.
Spans are kept in memory as [name, start, end, parent index, item id]
and written out when the run ends.  The program's files are untouched.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from functools import wraps

# (module, attribute): the program's calls through these names are timed,
# in spans named after the attribute.  A wrapped name is the attribute the
# caller looks up, so icl.composite.solve_lp times the solves made by the
# composite layer.
WRAPPED = (
    ("icl.composite", "solve_lp"),
    ("icl.composite", "check_rate_point"),
    ("icl.composite", "check_certificate"),
    ("icl.composite", "build_composite_lp"),
    ("icl.caching", "check_scheme"),
    ("icl.caching", "zero_error_decode_check"),
    ("icl.schemes", "rank_of"),
    ("icl.schemes", "nullspace"),
)


class NoTrace:
    """Stands in for a Tracer in untraced runs: records nothing."""

    item = None

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, by: int = 1) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.item: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    @contextmanager
    def installed(self):
        """Time the program's calls through WRAPPED while the block runs."""
        saved = []
        try:
            for modname, attr in WRAPPED:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, attr))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, func, name: str):
        @wraps(func)
        def timed(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return timed

    def summary(self) -> tuple[dict[str, float], dict[str, int], dict[tuple[str, str], float]]:
        """Total seconds and calls per span name, and seconds per (parent, child) name."""
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        nested: dict[tuple[str, str], float] = {}
        spans = self.spans
        for name, start, end, parent, _ in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                key = (spans[parent][0], name)
                nested[key] = nested.get(key, 0.0) + (end - start)
        return totals, calls, nested

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures; times and counts are per pass over the list."""
    totals, calls, nested = tracer.summary()
    per = 1.0 / passes
    c = tracer.counts

    def secs(name: str) -> float:
        return totals.get(name, 0.0) * per

    sweep_self = secs("hull") - (nested.get(("hull", "solve_lp"), 0.0)
                                 + nested.get(("hull", "check_rate_point"), 0.0)) * per
    pure_self = secs("pure") - nested.get(("pure", "check_certificate"), 0.0) * per
    solve_calls = calls.get("solve_lp", 0) * per
    return {
        "composite.hull_s": secs("hull"),
        "composite.hull_sweep_self_s": sweep_self,
        "composite.pricing_rounds": c.get("pricing_rounds", 0) * per,
        "composite.priced_choices_per_s": _ratio(c.get("priced_choices", 0) * per, sweep_self),
        "composite.check_rate_point_s": secs("check_rate_point"),
        "lp.solve_lp_calls": solve_calls,
        "lp.solve_lp_s": secs("solve_lp"),
        "lp.solve_lp_us_per_call": _ratio(secs("solve_lp") * 1e6, solve_calls),
        "composite.pure_s": secs("pure"),
        "composite.swept_choices_per_s": _ratio(c.get("swept_choices", 0) * per, pure_self),
        "composite.check_certificate_s": secs("check_certificate"),
        "composite.weighted_s": secs("weighted"),
        "composite.build_composite_lp_s": secs("build_composite_lp"),
        "composite.decoding_choices": c.get("decoding_choices", 0) * per,
        "caching.place_s": secs("place"),
        "caching.deliver_s": secs("deliver"),
        "caching.decode_s": secs("decode"),
        "caching.decoded_bits_per_s": _ratio(c.get("decoded_bits", 0) * per, secs("decode")),
        "caching.payload_bits": c.get("payload_bits", 0) * per,
        "caching.verify_delivery_scheme_s": secs("verify_delivery_scheme"),
        "schemes.check_scheme_s": secs("check_scheme"),
        "schemes.zero_error_decode_check_s": secs("zero_error_decode_check"),
        "gf2.rank_of_calls": calls.get("rank_of", 0) * per,
        "gf2.rank_of_s": secs("rank_of"),
        "gf2.nullspace_s": secs("nullspace"),
    }


LAYER_UNITS = {
    "composite.pricing_rounds": "count",
    "composite.priced_choices_per_s": "1/s",
    "lp.solve_lp_calls": "count",
    "lp.solve_lp_us_per_call": "us",
    "composite.swept_choices_per_s": "1/s",
    "composite.decoding_choices": "count",
    "caching.decoded_bits_per_s": "1/s",
    "caching.payload_bits": "count",
    "gf2.rank_of_calls": "count",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s")
