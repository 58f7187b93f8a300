"""The committed project configuration for ``repro lint``.

This is the single place where the rules' scopes and allowlists are
burned in.  Editing it is a *reviewed* act — the allowlists below are the
static-analysis analogue of golden fixtures: they pin today's audited
state, and any new entry must argue (in review) why the invariant does
not apply to it.

RL001 allowlists
----------------
Kernel-boundary modules may keep the listed numpy attributes as *glue*
(allocation, dtype plumbing, validation guards, prefix sums feeding the
backend).  Everything data-parallel over nonzeros — packing, encoding,
decoding, index conversion, SpMV/SpGEMM traversal — must dispatch through
:func:`repro.kernels.current_backend` so the python oracle stays an
honest differential reference.  Adding a numpy verb here instead of the
backend is exactly the regression RL001 exists to catch.

RL007 marker lists
------------------
Three tiers, each reviewed separately.  ``blocking_calls`` are exact
alias-expanded dotted names known to block the calling thread.
``blocking_roots`` are *project* ``Class.method`` suffixes blocking by
contract — ``RunSession.run`` joins rank processes end-to-end.
``blocking_suspects`` is the assume-worst tier: method names treated as
blocking when the receiver cannot be resolved.  It deliberately
excludes ``read``/``write``/``close``/``unlink``/``acquire``/``run``/
``set``/``clear`` — those appear on non-blocking receivers all over the
service layer (``Path.unlink``, ``asyncio.Event.set``, dict ops), and a
suspect tier that cries wolf gets pragma'd into silence.
"""

from __future__ import annotations

from .engine import LintConfig

__all__ = ["project_config", "DEFAULT_LINT_PATHS"]

#: what ``repro lint`` walks when no paths are given
DEFAULT_LINT_PATHS = ("src", "tests")

#: RL001 — audited numpy glue per kernel-boundary module (see module
#: docstring; keep each set minimal and alphabetised)
_KERNEL_BOUNDARY = {
    "src/repro/core/encoded_buffer.py": frozenset({
        # RO prefix sum feeding the backend's pair gather; layout glue
        "cumsum", "zeros",
    }),
    "src/repro/core/gather.py": frozenset({
        # host-side concatenation of received COO pieces (cold path)
        "concatenate", "empty",
    }),
    "src/repro/core/index_conversion.py": frozenset({
        # argument normalisation + the out-of-range validation guard
        "any", "asarray",
    }),
    "src/repro/core/jds_schemes.py": frozenset({
        # JDS wire build/walk (future-work module; not yet backend-routed,
        # tracked as the RL001 burn-down list)
        "concatenate", "cumsum", "empty", "zeros",
    }),
    "src/repro/core/redistribute.py": frozenset({
        # triplet-buffer concatenation and assemble_block's decode and
        # global -> local lookup (cold path); the owner-then-bucket split
        # is PartitionPlan.owners + partition.base._bucket
        "any", "arange", "concatenate", "empty", "full",
    }),
    "src/repro/core/sfc.py": frozenset({
        # the dense send blocks, allocated ahead of the partition phase so
        # they reuse the last run's blocks' memory (host peak memory)
        "zeros",
    }),
    "src/repro/core/cfs.py": frozenset(),
    "src/repro/core/ed.py": frozenset(),
    "src/repro/core/base.py": frozenset(),
    "src/repro/core/registry.py": frozenset(),
    "src/repro/core/transpose.py": frozenset(),
    "src/repro/machine/packing.py": frozenset({
        # wire-exactness guards + dtype plumbing around pack_segments/
        # unpack_segment (the moves themselves are backend calls)
        "any", "asarray", "dtype", "iinfo", "issubdtype", "trunc",
    }),
    "src/repro/sparse/ops.py": frozenset({
        # COO canonicalisation + norm/diagnostic helpers; the SpMV/SpGEMM
        # traversals themselves dispatch through the backend
        "abs", "add.at", "asarray", "concatenate", "intersect1d", "sqrt",
        "sum", "zeros",
    }),
}

#: RL002 — the layers allowed to touch mailboxes/frames directly
_TRANSPORT_EXEMPT = (
    "src/repro/machine/*.py",      # the transport itself
    "src/repro/faults/*.py",       # frame-level fault injection
)

#: RL004 — wire-format and cost-model modules that must be bit-deterministic
_DETERMINISM_SCOPE = (
    "src/repro/machine/cost_model.py",
    "src/repro/machine/packing.py",
    "src/repro/machine/trace.py",
    "src/repro/core/encoded_buffer.py",
    "src/repro/core/index_conversion.py",
    "src/repro/faults/checksum.py",
    "src/repro/faults/injector.py",
    "src/repro/faults/link.py",
    "src/repro/faults/spec.py",
    "src/repro/kernels/*.py",
)


#: RL007 — exact dotted calls that block the calling thread
_BLOCKING_CALLS = frozenset({
    "open",
    "input",
    "os.wait", "os.waitpid", "os.waitid",
    "select.select", "selectors.DefaultSelector",
    "socket.create_connection", "socket.socket",
    "subprocess.call", "subprocess.check_call", "subprocess.check_output",
    "subprocess.run",
    "time.sleep",
    "urllib.request.urlopen",
})

#: RL007 — assume-worst method names on unresolved receivers
_BLOCKING_SUSPECTS = frozenset({
    "accept", "connect", "communicate", "join",
    "readinto", "readline", "recv", "recv_bytes", "recv_into",
    "select", "sleep", "wait",
})

#: RL007 — project methods blocking by contract (suffix-matched)
_BLOCKING_ROOTS = frozenset({
    "RunSession.run",
})

def project_config() -> LintConfig:
    """The configuration ``repro lint`` runs with on this repository."""
    return LintConfig(
        kernel_boundary=dict(_KERNEL_BOUNDARY),
        transport_scope=("src/repro/*.py",),
        transport_exempt=_TRANSPORT_EXEMPT,
        scheme_scope=("src/repro/core/*.py",),
        determinism_scope=_DETERMINISM_SCOPE,
        obs_scope=("src/repro/*.py",),
        obs_exempt=("src/repro/obs/*.py",),
        cli_scope=(
            "src/repro/cli.py",
            "src/repro/analysis/cli.py",
        ),
        # RL007/RL008 — the asyncio throughput service is the only layer
        # that runs coroutines on a shared event loop
        async_scope=("src/repro/service/*.py",),
        blocking_calls=_BLOCKING_CALLS,
        blocking_suspects=_BLOCKING_SUSPECTS,
        blocking_roots=_BLOCKING_ROOTS,
        # RL010 — @rank_task may be registered anywhere in src/
        task_scope=("src/repro/*.py",),
        task_purity_allow=frozenset(),  # every shipped task is pure today
        # RL011 part A — the modules that own fork-based spawn sites
        fork_scope=(
            "src/repro/sweep/orchestrator.py",
            "src/repro/exec/process.py",
        ),
        exclude=(
            "tests/analysis/fixtures/*",
        ),
    )
