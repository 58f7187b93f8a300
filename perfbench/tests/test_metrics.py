"""The metric rules: tail, latency, completed units, ratio bases."""

import pytest

from harness.metrics import (
    MIN_BEYOND, Ratio, Reply, cycle_slices, latencies_ms, median_tail, nearest_rank,
    request_median, spread, tail,
)
from harness.report import END_TO_END, PER_LAYER, finish, layer_metrics


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))  # 100 samples
    q, value, beyond = tail(values)
    assert (q, value, beyond) == (90.0, 90.0, 10)
    # one sample fewer and p90 has only 9 beyond: fall back to p75
    q, value, beyond = tail(values[:99])
    assert q == 75.0 and beyond >= MIN_BEYOND
    # 1000 samples reach p99 (10 beyond) but not p99.9
    assert tail(range(1000))[0] == 99.0


def test_tail_ignores_sample_order_and_counts_beyond():
    values = [5.0] * 190 + [100.0] * 10
    q, value, beyond = tail(reversed(values))
    assert q == 95.0 and value == 5.0 and beyond == 10


def test_nearest_rank():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == (2.0, 2)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_latency_runs_from_send_to_reply_and_skips_missing_replies():
    answered = Reply(sent=1.0, received=1.050, status="ok", correct=True)
    missing = Reply(sent=2.0, received=None, status="missing", correct=False)
    assert latencies_ms([answered, missing]) == [pytest.approx(50.0)]


def test_only_a_correct_result_is_a_completed_unit():
    assert Reply(0.0, 0.01, "ok", True).good
    for status, correct in (("reject", False), ("error", False), ("ok", False)):
        assert not Reply(0.0, 0.01, status, correct).good
    assert not Reply(0.0, None, "missing", False).good


def test_request_median_counts_each_unit_with_its_requests_median():
    # a's units count as 2.0 (its median), b's as 50.0: the median of
    # [2, 2, 2, 50, 50, 50]; the pooled median would be 50
    samples = [("a", 1.0), ("a", 2.0), ("a", 100.0)] + [("b", 50.0)] * 3
    assert request_median(samples) == 26.0
    # a request that runs twice as often carries twice the weight
    mix = [("a", 10.0)] * 10 + [("b", 20.0)] * 20 + [("c", 30.0)] * 10
    assert request_median(mix) == 20.0
    assert request_median([("a", 5.0), ("a", 7.0), ("a", 100.0)]) == 7.0
    with pytest.raises(ValueError):
        request_median([])


def test_median_tail_shrugs_off_a_burst_in_one_slice():
    steady = [[10.0] * 300 for _ in range(3)]
    burst = [s[:] for s in steady]
    burst[1][:60] = [500.0] * 60  # a stall inside the middle slice
    assert tail(burst[0] + burst[1] + burst[2])[1] == 500.0
    assert median_tail(burst) == median_tail(steady) == (95.0, 10.0, 15)


def test_tail_slices_are_whole_cycles_with_the_leftovers_in_the_last():
    cycles = [[float(i)] * 18 for i in range(20)]  # 20 cycles of 18 units
    slices = cycle_slices(cycles, min_units=100)
    # 6 cycles (108 units) per slice; the last takes the 2 left over
    assert [len(s) for s in slices] == [108, 108, 144]
    assert [t for s in slices for t in s] == [t for c in cycles for t in c]
    # fewer cycles than one slice needs: one slice of all of them
    assert cycle_slices(cycles[:3], min_units=100) == [[t for c in cycles[:3] for t in c]]


def test_spread_is_interquartile_range_over_median():
    q1, q2, q3, s = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q2 == 3.0 and s == pytest.approx((q3 - q1) / 3.0)


def test_every_ratio_carries_its_base():
    summary = {
        "calls": {"runtime.run": 4, "runtime.matrix_for": 4, "sparse.generate": 1},
        "ms": {"runtime.run": 40.0}, "self_ms": {"runtime.run": 1.0},
        "outer_ms": {"partition": 20.0}, "top_ms": 40.0,
        "builds_in_runs": 1, "generated_in_lookup": 1,
    }
    values = layer_metrics(summary, units=4, unit_ms=40.0, unclaimed_ms=1.0)
    metrics, bases = finish(values, PER_LAYER)
    ratios = {name for name, unit in PER_LAYER if unit == "ratio"}
    assert set(bases) == ratios  # reached or not, each ratio has a base
    for name in ratios:
        assert {"num", "base", "of"} <= set(bases[name])
        assert metrics[name]["value"] == Ratio(
            bases[name]["num"], bases[name]["base"], bases[name]["of"]).value
    assert bases["runtime.machine_reuse_ratio"]["base"] == 4
    assert metrics["runtime.machine_reuse_ratio"]["value"] == 0.75
    assert bases["runtime.matrix_hit_ratio"]["num"] == 3


def test_a_ratio_without_its_base_is_refused():
    with pytest.raises(TypeError):
        finish({"partition.share": 0.5}, PER_LAYER)


def test_end_to_end_metrics_are_all_reported():
    values = {name: 1.0 for name, _ in END_TO_END}
    metrics, bases = finish(values, END_TO_END)
    assert list(metrics) == [name for name, _ in END_TO_END] and bases == {}
