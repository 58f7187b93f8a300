"""Declarative JSON experiment manifests and their grid expansion.

A manifest names one or more parameter grids over the paper's experiment
axes (scheme × partition × compression × n × p × sparse ratio); the
orchestrator (:mod:`repro.sweep.orchestrator`) expands it into an ordered
list of :class:`~repro.runtime.session.RunRequest`\\ s and runs each
through a :class:`~repro.runtime.session.RunSession`.

The format is deliberately small and strict.  A grid owns only its axis
shapes (scalar or list, non-empty, no duplicates, the ``mesh_shapes``
mapping); every expanded cell is validated by
:meth:`RunRequest.from_dict <repro.runtime.session.RunRequest.from_dict>`,
the same validator the CLI and the run service use, so a bad value
fails with the same one-line message wherever it is written.  Expansion
is a *pure function* of the manifest: a fixed nested-loop axis order and
a seed rule derived only from cell parameters.  That purity is what
makes resume sound: the store records a cell by its
:attr:`~repro.runtime.session.RunRequest.cell_id` — a SHA-256 prefix of
the canonical-JSON parameter dict, stable under key reordering — and the
manifest by :meth:`Manifest.manifest_hash`, so a drifted manifest can
never silently reuse stale results (DESIGN.md §"Sweep orchestration").

Cell seeds follow the published-table recipe ``seed + n + 131 * p``:
with ``"seed": 2002`` a manifest grid reproduces the exact matrices of
Tables 3–5.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ..faults.spec import FaultSpec
from ..runtime.session import RequestError, RunRequest, canonical_json

__all__ = [
    "Grid",
    "Manifest",
    "ManifestError",
    "canonical_json",
    "cell_seed",
]

#: per-processor seed stride of the table recipe
SEED_STRIDE_P = 131

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def cell_seed(base_seed: int, n: int, n_procs: int) -> int:
    """The table-grid seed recipe: ``base + n + 131 * p``."""
    return base_seed + n + SEED_STRIDE_P * n_procs


class ManifestError(ValueError):
    """A manifest failed schema validation (message is CLI-friendly)."""


def _reject_unknown(data: Mapping[str, Any], known: Sequence[str], what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ManifestError(
            f"unknown {what} key(s) {unknown}; known keys: {sorted(known)}"
        )


def _as_list(value: Any, key: str) -> list[Any]:
    """Promote a scalar axis value to a one-element list."""
    if isinstance(value, list):
        if not value:
            raise ManifestError(f"grid axis {key!r} must not be empty")
        return value
    return [value]


def _mesh_shapes(
    value: Any, n_procs: Sequence[Any], partitions: Sequence[Any]
) -> tuple[tuple[int, Any], ...]:
    """The ``mesh_shapes`` mapping: p on the axis -> raw [rows, cols]
    (the shape itself is checked per cell by ``RunRequest.from_dict``)."""
    if not isinstance(value, Mapping):
        raise ManifestError(
            f"grid key 'mesh_shapes' must be an object mapping p -> [rows, cols], "
            f"got {value!r}"
        )
    if not any(_is_mesh2d(p) for p in partitions):
        raise ManifestError(
            "grid key 'mesh_shapes' is only meaningful with the 'mesh2d' partition"
        )
    out: list[tuple[int, Any]] = []
    for raw_p, shape in value.items():
        try:
            p = int(raw_p)
        except (TypeError, ValueError):
            raise ManifestError(
                f"mesh_shapes keys must be processor counts, got {raw_p!r}"
            ) from None
        if p not in n_procs:
            raise ManifestError(
                f"mesh_shapes key {p} is not on the 'n_procs' axis {list(n_procs)}"
            )
        out.append((p, shape))
    return tuple(sorted(out, key=lambda item: item[0]))


def _is_mesh2d(partition: Any) -> bool:
    return isinstance(partition, str) and partition.lower() == "mesh2d"


def _cell(data: dict[str, Any]) -> RunRequest:
    try:
        return RunRequest.from_dict(data)
    except RequestError as exc:
        raise ManifestError(str(exc)) from None


# ----------------------------------------------------------------------
# one declared grid
# ----------------------------------------------------------------------
#: the expansion axes, in ``to_dict`` order, with the paper's fixed knobs
#: as defaults (row partition, CRS compression, sparse ratio 0.1)
_AXES: dict[str, Any] = {
    "scheme": None,
    "partition": "row",
    "compression": "crs",
    "n": None,
    "n_procs": None,
    "sparse_ratio": 0.1,
}
_GRID_KEYS = (*_AXES, "mesh_shapes", "faults", "fault_seed")


@dataclass(frozen=True)
class Grid:
    """One rectangular block of the sweep: the cross product of its axes.

    ``mesh_shapes`` pins the processor mesh per p for the ``mesh2d``
    partition, like Table 5's 2×2/4×4/8×8.  ``faults``/``fault_seed``
    re-derive every cell under one fault plan; they join the cell
    identity only when present.
    """

    scheme: tuple[str, ...]
    n: tuple[int, ...]
    n_procs: tuple[int, ...]
    partition: tuple[str, ...] = ("row",)
    compression: tuple[str, ...] = ("crs",)
    sparse_ratio: tuple[float, ...] = (0.1,)
    mesh_shapes: tuple[tuple[int, tuple[int, int]], ...] = ()
    faults: FaultSpec | None = None
    fault_seed: int | None = None

    def mesh_shape_for(self, p: int) -> tuple[int, int] | None:
        for q, shape in self.mesh_shapes:
            if q == p:
                return shape
        return None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Grid":
        """Parse one grid; every cell of it is validated (and its names
        normalised) by ``RunRequest.from_dict``."""
        if not isinstance(data, Mapping):
            raise ManifestError(f"each grid must be an object, got {data!r}")
        _reject_unknown(data, _GRID_KEYS, "grid")
        for required in ("scheme", "n", "n_procs"):
            if required not in data:
                raise ManifestError(f"grid is missing required key {required!r}")
        axes = {
            key: _as_list(data.get(key, default), key) for key, default in _AXES.items()
        }
        mesh_raw = data.get("mesh_shapes")
        raw = cls(
            **{key: tuple(values) for key, values in axes.items()},
            mesh_shapes=(
                _mesh_shapes(mesh_raw, axes["n_procs"], axes["partition"])
                if mesh_raw is not None
                else ()
            ),
            faults=data.get("faults"),
            fault_seed=data.get("fault_seed"),
        )
        cells = tuple(raw.expand(0))
        normal = {
            key: tuple(dict.fromkeys(getattr(cell, key) for cell in cells))
            for key in axes
        }
        for key, values in axes.items():
            if len(normal[key]) != len(values):
                raise ManifestError(f"grid axis {key!r} has duplicate values: {values}")
        return replace(
            raw,
            **normal,
            mesh_shapes=tuple(sorted(
                {(c.n_procs, c.mesh_shape) for c in cells if c.mesh_shape is not None}
            )),
            faults=cells[0].faults,
            fault_seed=None if raw.fault_seed is None else cells[0].fault_seed,
        )

    def to_dict(self) -> dict[str, Any]:
        """Normalised form: every axis a list, in fixed key order."""
        out: dict[str, Any] = {key: list(getattr(self, key)) for key in _AXES}
        if self.mesh_shapes:
            out["mesh_shapes"] = {str(p): list(s) for p, s in self.mesh_shapes}
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.fault_seed is not None:
            out["fault_seed"] = self.fault_seed
        return out

    def expand(self, base_seed: int) -> Iterator[RunRequest]:
        """The grid's cells in the fixed nested-loop axis order.

        The order (partition → compression → sparse_ratio → n_procs → n →
        scheme) matches the table grids: all schemes of one (p, n) cell
        are adjacent, so a warm session shares their generated matrix.
        """
        for partition in self.partition:
            for compression in self.compression:
                for ratio in self.sparse_ratio:
                    for p in self.n_procs:
                        shape = self.mesh_shape_for(p) if _is_mesh2d(partition) else None
                        for n in self.n:
                            for scheme in self.scheme:
                                yield _cell({
                                    "scheme": scheme,
                                    "partition": partition,
                                    "compression": compression,
                                    "n": n,
                                    "n_procs": p,
                                    "sparse_ratio": ratio,
                                    "seed": _seed(base_seed, n, p),
                                    "mesh_shape": shape,
                                    "faults": self.faults,
                                    "fault_seed": self.fault_seed,
                                })


def _seed(base_seed: int, n: Any, p: Any) -> int | None:
    try:
        return cell_seed(base_seed, n, p)
    except TypeError:
        return None  # a non-numeric n or p; from_dict names the culprit


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
_MANIFEST_KEYS = ("name", "description", "seed", "grid", "grids")


@dataclass(frozen=True)
class Manifest:
    """A named, seeded collection of grids — the unit `repro sweep` runs."""

    name: str
    grids: tuple[Grid, ...]
    description: str = ""
    seed: int = 0
    _cells: tuple[RunRequest, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ManifestError(
                f"manifest 'name' must match [A-Za-z0-9][A-Za-z0-9._-]*, "
                f"got {self.name!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ManifestError(f"manifest 'seed' must be an integer, got {self.seed!r}")
        if not isinstance(self.description, str):
            raise ManifestError(
                f"manifest 'description' must be a string, got {self.description!r}"
            )
        if not self.grids:
            raise ManifestError("manifest declares no grids")
        cells = tuple(
            cell for grid in self.grids for cell in grid.expand(self.seed)
        )
        seen: dict[str, RunRequest] = {}
        for cell in cells:
            prior = seen.get(cell.cell_id)
            if prior is not None:
                raise ManifestError(
                    f"grids overlap: cell {cell.cell_id} "
                    f"({canonical_json(cell.params())}) appears twice"
                )
            seen[cell.cell_id] = cell
        object.__setattr__(self, "_cells", cells)

    # -- expansion ------------------------------------------------------
    def expand(self) -> tuple[RunRequest, ...]:
        """All cells, grids concatenated in manifest order.  Pure: the
        same manifest always yields the same ordered tuple."""
        return self._cells

    def __len__(self) -> int:
        return len(self._cells)

    # -- (de)serialisation ---------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Manifest":
        if not isinstance(data, Mapping):
            raise ManifestError(f"manifest must be a JSON object, got {data!r}")
        _reject_unknown(data, _MANIFEST_KEYS, "manifest")
        if "name" not in data:
            raise ManifestError("manifest is missing required key 'name'")
        if "grid" in data and "grids" in data:
            raise ManifestError("manifest has both 'grid' and 'grids'; pick one")
        raw_grids = data.get("grids", data.get("grid"))
        if raw_grids is None:
            raise ManifestError("manifest is missing required key 'grids' (or 'grid')")
        if isinstance(raw_grids, Mapping):
            raw_grids = [raw_grids]
        if not isinstance(raw_grids, list):
            raise ManifestError(
                f"'grids' must be a grid object or a list of them, got {raw_grids!r}"
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            seed=data.get("seed", 0),
            grids=tuple(Grid.from_dict(g) for g in raw_grids),
        )

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ManifestError(f"manifest is not valid JSON: {err}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        if not path.exists():
            raise ManifestError(f"manifest file not found: {path}")
        if path.is_dir():
            raise ManifestError(f"manifest path is a directory: {path}")
        return cls.from_json(path.read_text())

    def to_dict(self) -> dict[str, Any]:
        """Normalised round-trippable form (``from_dict`` is its inverse)."""
        out: dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["seed"] = self.seed
        out["grids"] = [grid.to_dict() for grid in self.grids]
        return out

    def manifest_hash(self) -> str:
        """SHA-256 of the canonical normalised form — the drift detector.

        Computed over :meth:`to_dict`, so cosmetic differences (key order,
        whitespace, scalar-vs-list axes, ``grid`` vs ``grids``) hash
        identically while any semantic change changes the hash.
        """
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("ascii")
        ).hexdigest()
