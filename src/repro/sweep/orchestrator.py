"""The sweep orchestrator: manifest in, committed result store out.

:func:`run_sweep` expands a :class:`~repro.sweep.manifest.Manifest`,
skips cells the store already holds (``resume=True``), and executes the
rest through the shared :class:`~repro.runtime.session.RunSession`
entry point — in-process with one warm session (``jobs=1``), or fanned
out over ``jobs`` forked worker processes, one short-lived process per
cell (``jobs>1``).  Workers are plain (non-daemonic) processes, so a
cell is free to use the process executor (and supervision) inside.

Crash-safety invariants, pinned by tests/sweep/test_resume_battery.py:

* records are committed **in expansion order** regardless of ``jobs`` —
  out-of-order completions wait in memory — so any interrupted store is
  an exact prefix of the uninterrupted one;
* a record is only committed after the cell's fsync'd line hits disk,
  and the commit payload contains no wall-clock fields — so resuming
  after SIGKILL (of the orchestrator or of workers) converges on a
  store byte-identical to an uninterrupted run;
* a worker that dies without reporting (killed, segfaulted) is
  respawned up to ``worker_retries`` times and then the cell runs
  inline in the orchestrator, so persistent worker murder degrades
  throughput, never correctness.

Progress is observable: ``repro_sweep_cells_total`` counters (labelled
``status=completed|skipped|retried``) and ``sweep.run``/``sweep.cell``
spans, which the Chrome exporter renders on a dedicated sweep lane.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from multiprocessing import connection as mpconnection
from pathlib import Path
from typing import Any, Callable, Mapping

from ..machine.export import result_to_dict
from ..obs.spans import Observability
from ..runtime.session import RunRequest, RunSession
from .manifest import Manifest, canonical_json
from .store import ResultStore

__all__ = ["SweepCellError", "SweepError", "SweepReport", "run_sweep"]

#: respawn budget per cell before falling back to an inline run
DEFAULT_WORKER_RETRIES = 2

#: obs counter name for cell outcomes (status=completed|skipped|retried)
CELLS_TOTAL = "repro_sweep_cells_total"


class SweepError(RuntimeError):
    """A sweep could not run to completion (message is CLI-friendly)."""


class SweepCellError(SweepError):
    """One cell raised; the store keeps every cell committed before it."""


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did."""

    manifest_hash: str
    store_path: Path
    #: cells in the full expansion
    total: int
    #: cells found already committed on resume
    skipped: int
    #: cells executed (and committed) by this call
    executed: int
    #: worker respawns that were needed along the way
    retried: int
    #: every committed record, in expansion order (resumed + new)
    records: list[dict[str, Any]]


def _run_cell(
    session: RunSession,
    cell: RunRequest,
    executor: str | None,
    backend: str | None,
) -> dict[str, Any]:
    """Execute one cell and serialise its result (no wall-clock fields).

    ``executor``/``backend`` are *run-time placement* — they never change
    measured results (DESIGN.md §"Execution tiers"), so they are not part
    of the cell identity and not recorded in the store.
    """
    result = session.run(replace(cell, executor=executor, backend=backend))
    return result_to_dict(result)


def _cell_worker_main(
    conn: Any, params: Mapping[str, Any], executor: str | None, backend: str | None
) -> None:
    """Worker process entry point: run one cell, report, exit."""
    try:
        cell = RunRequest.from_dict(params)
        with RunSession() as session:
            payload = _run_cell(session, cell, executor, backend)
        conn.send(("ok", payload))
    except BaseException as err:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("err", f"{type(err).__name__}: {err}"))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


@dataclass
class _Worker:
    seq: int
    cell: RunRequest
    proc: Any
    conn: Any
    attempts: int


def _spawn_worker(
    ctx: Any, seq: int, cell: RunRequest, executor: str | None, backend: str | None,
    attempts: int,
) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker_main,
        args=(child_conn, cell.params(), executor, backend),
        name=f"repro-sweep-{seq}",
    )
    proc.start()
    child_conn.close()  # the parent's copy; the worker holds its own
    return _Worker(seq=seq, cell=cell, proc=proc, conn=parent_conn, attempts=attempts)


def _reap_worker(worker: _Worker) -> None:
    worker.conn.close()
    worker.proc.join()


def run_sweep(
    manifest: Manifest,
    store_path: str | Path,
    *,
    resume: bool = False,
    jobs: int = 1,
    executor: str | None = None,
    backend: str | None = None,
    obs: Observability | None = None,
    worker_retries: int = DEFAULT_WORKER_RETRIES,
    after_record: Callable[[int, dict[str, Any]], None] | None = None,
    on_worker_spawn: Callable[[int, int], None] | None = None,
    echo: Callable[[str], None] | None = None,
) -> SweepReport:
    """Run (or resume) one manifest into one result store.

    ``resume=False`` demands a fresh store path; ``resume=True``
    reattaches (validating manifest hash and record prefix, truncating a
    torn tail) or starts fresh when the file does not exist yet.

    ``executor``/``backend`` place every cell's rank tasks — run-time
    knobs that never change measured results, hence not recorded in the
    store.  ``obs`` collects sweep spans and counters; ``echo`` receives
    one human line per event for the CLI.

    ``after_record(seq, record)`` fires after each record is fsync'd and
    ``on_worker_spawn(seq, pid)`` after each worker start — the seeded
    kill points the interruption battery drives.
    """
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs}")
    obs = obs if obs is not None else Observability(enabled=False)
    say = echo if echo is not None else (lambda _line: None)
    cells = manifest.expand()
    store_path = Path(store_path)

    if resume:
        store, prior = ResultStore.resume(store_path, manifest)
    else:
        store, prior = ResultStore.create(store_path, manifest), []
    skipped = len(prior)
    if skipped:
        obs.count(CELLS_TOTAL, skipped, status="skipped")
        say(f"resume: {skipped}/{len(cells)} cells already in {store_path}")

    records = list(prior)
    executed = 0
    retried = 0

    def commit(seq: int, cell: RunRequest, payload: dict[str, Any]) -> None:
        nonlocal executed
        record = store.append(cell, payload)
        records.append(record)
        executed += 1
        obs.count(CELLS_TOTAL, status="completed")
        say(
            f"cell {seq + 1}/{len(cells)} {cell.cell_id} "
            f"{cell.scheme}/{cell.partition}/{cell.compression} "
            f"n={cell.n} p={cell.n_procs} committed"
        )
        if after_record is not None:
            after_record(seq, record)

    try:
        with obs.span("sweep.run", manifest=manifest.name, n_cells=len(cells)):
            if jobs == 1:
                with RunSession() as session:
                    for seq in range(skipped, len(cells)):
                        cell = cells[seq]
                        with obs.span(
                            "sweep.cell", id=cell.cell_id, seq=seq,
                            scheme=cell.scheme, n=cell.n, n_procs=cell.n_procs,
                        ):
                            try:
                                payload = _run_cell(session, cell, executor, backend)
                            except Exception as err:
                                raise SweepCellError(
                                    f"cell {cell.cell_id} "
                                    f"({canonical_json(cell.params())}) failed: "
                                    f"{type(err).__name__}: {err}"
                                ) from err
                        commit(seq, cell, payload)
            else:
                retried = _run_fanned_out(
                    cells, skipped, jobs, executor, backend, obs,
                    worker_retries, on_worker_spawn, commit,
                )
    finally:
        store.close()

    return SweepReport(
        manifest_hash=manifest.manifest_hash(),
        store_path=store_path,
        total=len(cells),
        skipped=skipped,
        executed=executed,
        retried=retried,
        records=records,
    )


def _run_fanned_out(
    cells: tuple[RunRequest, ...],
    skipped: int,
    jobs: int,
    executor: str | None,
    backend: str | None,
    obs: Observability,
    worker_retries: int,
    on_worker_spawn: Callable[[int, int], None] | None,
    commit: Callable[[int, RunRequest, dict[str, Any]], None],
) -> int:
    """One worker process per cell, ``jobs`` at a time, in-order commits."""
    # fork keeps worker startup cheap and inherits the warm interpreter;
    # workers are non-daemonic so cells may fork rank workers themselves
    ctx = multiprocessing.get_context("fork")
    active: dict[Any, _Worker] = {}
    buffered: dict[int, tuple[RunRequest, dict[str, Any]]] = {}
    next_spawn = skipped
    next_commit = skipped
    retried = 0

    def spawn(seq: int, attempts: int = 0) -> None:
        worker = _spawn_worker(ctx, seq, cells[seq], executor, backend, attempts)
        active[worker.conn] = worker
        if on_worker_spawn is not None:
            on_worker_spawn(seq, worker.proc.pid)

    try:
        while next_commit < len(cells):
            while next_spawn < len(cells) and len(active) < jobs:
                spawn(next_spawn)
                next_spawn += 1
            # commit every contiguous finished cell before blocking again
            while next_commit in buffered:
                cell, payload = buffered.pop(next_commit)
                commit(next_commit, cell, payload)
                next_commit += 1
            if next_commit >= len(cells) or not active:
                continue
            for conn in mpconnection.wait(list(active)):
                worker = active.pop(conn)
                try:
                    message = worker.conn.recv()
                except EOFError:
                    message = None
                _reap_worker(worker)
                if message is None:
                    # died without reporting: killed or crashed hard
                    retried += 1
                    obs.count(CELLS_TOTAL, status="retried")
                    if worker.attempts < worker_retries:
                        spawn(worker.seq, worker.attempts + 1)
                    else:
                        # respawn budget spent: run inline, which either
                        # completes the cell or surfaces the real error
                        with RunSession() as session:
                            payload = _run_cell(
                                session, worker.cell, executor, backend
                            )
                        buffered[worker.seq] = (worker.cell, payload)
                    continue
                status, payload = message
                if status != "ok":
                    raise SweepCellError(
                        f"cell {worker.cell.cell_id} "
                        f"({canonical_json(worker.cell.params())}) failed: "
                        f"{payload}"
                    )
                buffered[worker.seq] = (worker.cell, payload)
    finally:
        for worker in active.values():
            worker.proc.terminate()
        for worker in active.values():
            _reap_worker(worker)
    return retried
