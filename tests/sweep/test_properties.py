"""Hypothesis properties of grid expansion and manifest round-trips.

The resume contract rests on three algebraic facts: ``expand`` is a pure
function of the manifest, cell IDs are unique across the expansion and
independent of parameter key order, and ``from_dict(to_dict())`` is the
identity.  Each is pinned here over randomly generated manifests.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.runtime import RunRequest
from repro.sweep import Manifest

_SCHEMES = ["sfc", "cfs", "ed"]
_PARTITIONS = ["row", "column"]
_COMPRESSIONS = ["crs", "ccs"]


def _axis(values):
    return st.lists(st.sampled_from(values), min_size=1, unique=True)


@st.composite
def manifests(draw) -> Manifest:
    n_grids = draw(st.integers(min_value=1, max_value=2))
    grids = []
    # distinct n axes per grid so grids never expand to overlapping cells
    n_pool = draw(
        st.lists(
            st.integers(min_value=8, max_value=256),
            min_size=n_grids, max_size=n_grids, unique=True,
        )
    )
    for g in range(n_grids):
        grids.append({
            "scheme": draw(_axis(_SCHEMES)),
            "partition": draw(_axis(_PARTITIONS)),
            "compression": draw(_axis(_COMPRESSIONS)),
            "n": [n_pool[g]],
            "n_procs": draw(_axis([2, 3, 4, 8])),
            "sparse_ratio": draw(_axis([0.05, 0.1, 0.2])),
        })
    return Manifest.from_dict({
        "name": draw(st.sampled_from(["a", "sweep-1", "t.v2"])),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "grids": grids,
    })


@given(manifests())
@settings(max_examples=50, deadline=None)
def test_expand_is_pure(manifest):
    again = Manifest.from_dict(manifest.to_dict())
    assert manifest.expand() == again.expand()


@given(manifests())
@settings(max_examples=50, deadline=None)
def test_cell_ids_unique_across_the_grid(manifest):
    ids = [cell.cell_id for cell in manifest.expand()]
    assert len(set(ids)) == len(ids)


@given(manifests(), st.randoms())
@settings(max_examples=50, deadline=None)
def test_cell_ids_stable_under_key_reordering(manifest, rng: random.Random):
    for cell in manifest.expand()[:5]:
        items = list(cell.params().items())
        rng.shuffle(items)
        assert RunRequest.from_dict(dict(items)).cell_id == cell.cell_id


@given(manifests())
@settings(max_examples=50, deadline=None)
def test_from_dict_to_dict_round_trip_is_identity(manifest):
    again = Manifest.from_dict(manifest.to_dict())
    assert again == manifest
    assert again.to_dict() == manifest.to_dict()
    assert again.manifest_hash() == manifest.manifest_hash()


@given(manifests(), st.integers(min_value=1, max_value=7))
@settings(max_examples=25, deadline=None)
def test_seed_rule_depends_only_on_cell_coordinates(manifest, bump):
    bumped = Manifest.from_dict({**manifest.to_dict(), "seed": manifest.seed + bump})
    for before, after in zip(manifest.expand(), bumped.expand()):
        assert after.seed - before.seed == bump
