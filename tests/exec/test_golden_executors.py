"""Replay the executor golden-trace fixture under both executors.

``golden_traces_executors.json`` pins the exact machine traces for a
scheme × partition × compression grid with faults off and on; this test
replays every cell on each executor and demands byte-exact agreement —
the cross-session regression net for the execution tier.  Regenerate
with ``scripts/refresh_golden_fixtures.py`` when a behaviour change is
intentional.
"""

from __future__ import annotations

import json

import pytest

from .golden_executors import (
    EXECUTOR_GOLDEN_CONFIGS,
    FIXTURE,
    REDISTRIBUTE_GOLDEN_CONFIGS,
    config_key,
    entry_for,
    redistribute_entry,
    redistribute_key,
)


@pytest.fixture(scope="module")
def fixture_data():
    assert FIXTURE.exists(), (
        f"{FIXTURE} missing - run scripts/refresh_golden_fixtures.py"
    )
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_grid(fixture_data):
    assert set(fixture_data) == {
        config_key(*c) for c in EXECUTOR_GOLDEN_CONFIGS
    } | {redistribute_key(*c) for c in REDISTRIBUTE_GOLDEN_CONFIGS}


@pytest.mark.parametrize("executor", ["sim", "process"])
@pytest.mark.parametrize(
    "config", EXECUTOR_GOLDEN_CONFIGS, ids=lambda c: config_key(*c)
)
def test_replay_matches_fixture(fixture_data, config, executor):
    expected = fixture_data[config_key(*config)]
    got = json.loads(json.dumps(entry_for(config, executor=executor)))
    assert got == expected


@pytest.mark.parametrize("executor", ["sim", "process"])
@pytest.mark.parametrize(
    "config", REDISTRIBUTE_GOLDEN_CONFIGS, ids=lambda c: redistribute_key(*c)
)
def test_redistribute_replay_matches_fixture(fixture_data, config, executor):
    expected = fixture_data[redistribute_key(*config)]
    got = json.loads(json.dumps(redistribute_entry(config, executor=executor)))
    assert got == expected
