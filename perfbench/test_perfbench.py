"""The benchmark's own tests: every check rejects a deliberately wrong answer.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MILLI = Fraction(1, 1000)


@pytest.fixture(scope="module")
def ic_items():
    return {item.name: item for item in inputs.ic_list(seed=5)}


@pytest.fixture(scope="module")
def cache_items():
    return {item.name: item for item in inputs.cache_list(seed=5)}


def _run(workload, item):
    spec = workloads.WORKLOADS[workload]
    res = spec.call(item, tracing.NoTrace())
    assert spec.check(item, res) == []
    return spec, res


@pytest.mark.parametrize("name", ["cycle(4)", "r4-half", "r4-half-c2", "r4-dup"])
def test_raised_rate_is_rejected(ic_items, name):
    item = ic_items[name]
    spec, res = _run("ic-pure", item)
    assert spec.check(item, dataclasses.replace(res, symmetric_rate=res.symmetric_rate + MILLI))

    spec, res = _run("ic-hull", item)
    raised = res.symmetric_rate + MILLI
    assert spec.check(item, dataclasses.replace(res, symmetric_rate=raised, upper_bound=raised))

    spec, res = _run("ic-weighted", item)
    assert spec.check(item, dataclasses.replace(res, value=res.value + MILLI))
    rates = dict(res.rates)
    rates[1] += MILLI
    assert spec.check(item, dataclasses.replace(res, rates=rates))


@pytest.mark.parametrize("name", ["cycle(4)", "r5-dense", "r4-dup"])
def test_mixture_point_nudged_off_its_polyhedron(ic_items, name):
    item = ic_items[name]
    spec, res = _run("ic-hull", item)
    mu, point = res.mixture[0]
    nudged = dataclasses.replace(point, rates=tuple(r + MILLI for r in point.rates))
    assert not checks.point_in_polyhedron(item.inst, nudged.choice.sets, nudged.rates,
                                          nudged.allocation)
    bad = dataclasses.replace(res, mixture=((mu, nudged),) + res.mixture[1:])
    assert any("outside its polyhedron" in p for p in spec.check(item, bad))


def test_known_values_and_groups(ic_items):
    item = ic_items["no-side-info(4)"]
    spec, res = _run("ic-weighted", item)
    other = dataclasses.replace(item, weighted_known="sum")
    assert spec.check(other, res)
    group = [ic_items["r4-half"], ic_items["r4-half-c2"]]
    assert checks.check_groups(group, {"r4-half": Fraction(1, 3), "r4-half-c2": Fraction(1, 3)}) == []
    assert checks.check_groups(group, {"r4-half": Fraction(1, 3), "r4-half-c2": Fraction(1, 4)})


@pytest.mark.parametrize(
    "name", ["central-K4-N2-t1-reduced", "central-K3-N3-t1-full", "decentral-K4-N2-M1/2"]
)
def test_flipped_decoded_bit_is_rejected(cache_items, name):
    item = cache_items[name]
    spec, out = _run("cache-sim", item)
    decoded = list(out.decoded)
    decoded[-1] ^= 1 << (item.B // 2)
    bad = dataclasses.replace(out, decoded=decoded)
    assert any("decoded" in p for p in spec.check(item, bad))


@pytest.mark.parametrize(
    "name", ["central-K4-N2-t1-reduced", "central-K3-N3-t1-full", "decentral-K4-N2-M1/2"]
)
@pytest.mark.parametrize("delta", [1, -1])
def test_load_off_by_one_bit_is_rejected(cache_items, name, delta):
    item = cache_items[name]
    spec, out = _run("cache-sim", item)
    bits = out.transcript.total_bits + delta
    transcript = dataclasses.replace(
        out.transcript, total_bits=bits, load=Fraction(bits, item.B)
    )
    bad = dataclasses.replace(out, transcript=transcript)
    assert any("load" in p for p in spec.check(item, bad))


def test_certified_delivery_needs_the_reduced_load(cache_items):
    item = cache_items["central-K4-N4-t2-reduced"]
    spec, out = _run("cache-sim", item)
    ver = out.verification
    for bad_ver in (dataclasses.replace(ver, passed=False),
                    dataclasses.replace(ver, load=ver.load + Fraction(1, item.B))):
        assert spec.check(item, dataclasses.replace(out, verification=bad_ver))


def test_raising_item_counts_as_failed_and_the_run_goes_on(ic_items):
    items = [ic_items["xor2"], ic_items["side-only"], ic_items["cycle(4)"]]
    rec = workloads.run_passes(workloads.WORKLOADS["ic-hull"], items, passes=2)
    assert (rec.passes, rec.attempted, rec.failed) == (2, 6, 2)
    assert "AssertionError" in rec.errors["side-only"]
    assert set(rec.times) == {"xor2", "cycle(4)"} and rec.problems == []

    rec = workloads.run_passes(workloads.WORKLOADS["ic-pure"], items, passes=1)
    assert (rec.attempted, rec.failed) == (3, 0)


def test_seed_varies_data_not_work():
    a, b = inputs.ic_list(1), inputs.ic_list(2)
    assert [i.name for i in a] == [i.name for i in b]
    assert [i.choices for i in a] == [i.choices for i in b]
    assert any(x.inst != y.inst for x, y in zip(a, b))
    assert inputs.ic_list(1) == a
    ca, cb = inputs.cache_list(1), inputs.cache_list(2)
    assert [(c.name, len(set(c.demand))) for c in ca] == [(c.name, len(set(c.demand))) for c in cb]
    assert ca[0].files != cb[0].files


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    layers = tracing.layer_metrics(tracer, passes=1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.layer_unit(name) for name in layers
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
