"""Seeded streams, whole-cycle stops, and agreement with BENCHMARK.json."""

import itertools
import json
import re
from pathlib import Path

from harness.report import END_TO_END, PER_LAYER
from harness.workloads import (
    OBSERVE_EVERY, SERVED_SMALL, SWEEP_ORDERS, SWEEP_TABLES, WORKLOADS, closed_loop, cycle,
    manifest_dict, stream,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _first(workload, seed, n=3):
    return list(itertools.islice(stream(workload, seed), n))


def test_one_seed_always_gives_the_same_stream():
    for workload in WORKLOADS.values():
        assert _first(workload, 7) == _first(workload, 7)


def test_another_seed_gives_another_stream():
    for workload in WORKLOADS.values():
        assert _first(workload, 7) != _first(workload, 8)


def test_every_cycle_is_the_same_mix():
    for workload in WORKLOADS.values():
        cycles = _first(workload, 3, n=4)
        mixes = {tuple(sorted(r.key for r in c)) for c in cycles}
        assert len(mixes) == 1 and len(cycles[0]) == len(workload.requests)


def test_a_run_stops_on_a_whole_cycle():
    clock = [0.0]
    units = []

    def run_cycle(index, requests):
        for r in requests:
            units.append(r)
            clock[0] += 0.3  # the deadline passes mid-cycle

    workload = WORKLOADS["direct-grid-n2000"]
    n = closed_loop(stream(workload, 1), 4.0, run_cycle, clock=lambda: clock[0])
    size = len(workload.requests)
    assert n == 2 and len(units) == n * size


def test_closed_loop_runs_at_least_min_cycles():
    done = closed_loop(stream(SWEEP_TABLES, 1), 0.0, lambda i, r: None, min_cycles=3)
    assert done == 3


def test_every_fourth_served_request_is_observed():
    flags = [r.observe for i in range(4) for r in cycle(SERVED_SMALL, 5, i)]
    assert flags == [i % OBSERVE_EVERY == OBSERVE_EVERY - 1 for i in range(len(flags))]


def test_each_block_of_sweep_cycles_runs_every_axis_order_once():
    n = len(SWEEP_ORDERS)
    for block in range(2):
        cycles = [cycle(SWEEP_TABLES, 4, block * n + i) for i in range(n)]
        orders = {
            (tuple(dict.fromkeys(r.scheme for r in c)),
             tuple(dict.fromkeys(r.partition for r in c)))
            for c in cycles
        }
        assert orders == set(SWEEP_ORDERS)


def test_every_sweep_cycle_is_its_manifests_expansion():
    from repro.sweep.manifest import Manifest

    for index in range(4):
        requests = cycle(SWEEP_TABLES, 1, index)
        cells = Manifest.from_dict(manifest_dict(requests)).expand()
        expanded = [(c.scheme, c.partition, c.n, c.n_procs, c.sparse_ratio, c.seed)
                    for c in cells]
        assert expanded == [r.key for r in requests]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_layer_map_records_every_workload_and_per_layer_metric():
    text = (HERE.parent / "LAYERS.md").read_text()
    for name in WORKLOADS:
        assert re.search(rf"`{re.escape(name)}`", text), name
    for name, _ in PER_LAYER:
        assert re.search(rf"`{re.escape(name)}`", text), name
