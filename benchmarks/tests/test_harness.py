"""Tests of the benchmark harness: span self time, percentile reporting, failure counting."""

import types

import pytest

import harness
from harness import Span, Tracer, run_closed_loop, self_times_ns, summarize


def span(i, parent, start, end):
    return Span(id=i, parent=parent, layer="x", name=f"s{i}", workload="w", op="op",
                start_ns=start, end_ns=end)


def test_self_time_is_duration_minus_child_coverage():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 50),
             span(3, 1, 12, 28), span(4, 0, 95, 120)]
    selfs = self_times_ns(spans)
    assert selfs[0] == 100 - 20 - 10 - 5      # the child running past the end counts to 100
    assert selfs[1] == 20 - 16                # a grandchild is charged to its own parent only
    assert selfs[3] == 16
    assert selfs[4] == 25


def test_overlapping_children_are_not_counted_twice():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60)]
    assert self_times_ns(spans)[0] == 100 - 50


def test_tracer_spans_nest_through_module_attributes():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = Tracer("w")
    tracer.wrap(mod, "inner", "lib")
    tracer.wrap(mod, "outer", "lib")
    mod.outer()
    tracer.uninstall()
    outer, in1, in2 = tracer.spans
    assert (outer.name, in1.parent, in2.parent) == ("lib.outer", outer.id, outer.id)
    selfs = self_times_ns(tracer.spans)
    assert selfs[outer.id] == outer.duration_ns - in1.duration_ns - in2.duration_ns
    mod.outer()                                  # wrappers removed: no new spans
    assert len(tracer.spans) == 3


def test_disabled_tracer_records_nothing():
    mod = types.SimpleNamespace(f=lambda: 1)
    tracer = Tracer("w")
    tracer.wrap(mod, "f", "lib")
    tracer.enabled = False
    assert mod.f() == 1
    assert tracer.spans == []


@pytest.mark.parametrize("n, key", [(10, None), (39, None), (40, "p75"), (100, "p90"),
                                    (200, "p95"), (1000, "p99")])
def test_high_percentile_needs_forty_samples(n, key):
    s = summarize([float(i) for i in range(n)])
    assert s["n"] == n and s["median"] == (n - 1) / 2
    percentiles = [k for k in s if k.startswith("p")]
    assert percentiles == ([key] if key else [])


def test_failed_and_wrong_operations_are_counted_and_the_run_goes_on():
    calls = []

    def raises():
        calls.append("raises")
        raise RuntimeError("boom")

    def wrong():
        calls.append("wrong")
        return "units", 1, lambda: "output differs"

    def check_raises():
        calls.append("check_raises")
        return "units", 1, lambda: 1 / 0

    def good():
        calls.append("good")
        return "units", 2, lambda: None

    ops = [("raises", raises), ("wrong", wrong), ("check_raises", check_raises),
           ("good", good)]
    result = run_closed_loop(ops, seconds=0.0, setup=lambda: calls.append("setup"))
    assert calls == ["setup", "raises", "wrong", "check_raises", "good"]
    assert (result.attempted, result.failed, result.wrong) == (4, 3, 1)
    assert result.work["units"][0] == 2
    assert result.round_seconds == []           # a round with a failure has no round time
    assert len(result.failures) == 3


def test_loop_runs_whole_rounds_each_after_a_timed_setup():
    ops = [("a", lambda: ("u", 1, lambda: None)), ("b", lambda: ("u", 1, lambda: None))]
    result = run_closed_loop(ops, seconds=0.01, setup=lambda: sum(range(100)))
    assert result.attempted % 2 == 0 and result.attempted >= 2
    assert len(result.round_seconds) == len(result.setup_seconds) == result.attempted // 2
    assert all(t > 0 for t in result.setup_seconds)


def test_peak_rss_is_positive():
    assert harness.peak_rss_mb() > 0
