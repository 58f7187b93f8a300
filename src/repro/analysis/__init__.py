"""``reprolint`` — the repo's project-specific static-analysis engine.

The repo's headline guarantees (byte-identical wire formats across kernel
backends, cost charges that exactly equal trace breakdowns, the paper's
legal phase orderings for SFC/CFS/ED) are enforced *dynamically* by golden
fixtures and ``verify_against_trace``.  This package enforces the same
invariants *statically*, at review time, over the ``ast`` of every source
file — so a PR that calls ``np.`` directly in a kernel-boundary module or
sends bytes without charging the cost model fails ``repro lint`` before a
fixture ever has to catch it.

Zero dependencies beyond the standard library: the engine is plain
``ast`` walking plus a rule registry (:mod:`repro.analysis.engine`), a
committed project configuration of per-rule scopes and allowlists
(:mod:`repro.analysis.config`), a cross-file symbol table + call graph
for the interprocedural tier (:mod:`repro.analysis.callgraph`) and
ten shipped rules (:mod:`repro.analysis.rules`):

========  =============================================================
RL001     kernel-boundary — no direct numpy calls in backend-dispatched
          modules (PR 3's byte-identity contract)
RL002     cost-accounting — no mailbox/transport access outside
          ``machine/``; all sends/receives ride the charged API
RL003     phase-protocol — schemes follow the paper-legal phase order
          partition → {compress|encode}? → distribute →
          {decompress|decode}? (§3.1–3.3)
RL004     determinism — no wall clocks, unseeded RNGs or set-iteration
          order in wire-format/cost-model modules
RL005     obs-transparency — ``obs.span`` only as a context manager; no
          module-level mutable obs state outside ``obs/``
RL006     exit-contract — CLI error paths print one line and exit 2
RL007     async-blocking — no transitively-blocking call reachable from
          a ``service/`` coroutine except via ``run_in_executor``
          (interprocedural, via the call graph)
RL008     async-loop-liveness — every ``while`` in an ``async def``
          awaits on every continuing path (the PR 9 starvation shape)
RL010     rank-task-purity — ``@rank_task`` bodies stay pure w.r.t.
          charge replay (no globals, clock reads, global RNG, obs)
RL011     fork-safety — no thread creation in fork-spawning modules; no
          ``os.fork`` reachable from async contexts
========  =============================================================

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the call-graph
resolution policy, the pragma policy (``# reprolint: disable=RLxxx``)
and how to add a rule.  :mod:`repro.analysis.sarif` exports findings as
SARIF 2.1.0 for GitHub code scanning (``repro lint --sarif``).
"""

from .config import project_config
from .diagnostics import Diagnostic
from .engine import (
    FileContext,
    LintConfig,
    LintResult,
    Rule,
    all_rules,
    count_pragmas,
    get_rule,
    lint_paths,
    register_rule,
)

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "count_pragmas",
    "get_rule",
    "lint_paths",
    "project_config",
    "register_rule",
]

# importing the rules package populates the registry as a side effect
from . import rules as _rules  # noqa: E402,F401  (registration import)
