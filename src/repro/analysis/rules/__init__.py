"""The shipped rule set.

Importing this package registers every rule with the engine registry
(:func:`repro.analysis.engine.register_rule` runs at class-definition
time).  One module per rule keeps each invariant's machinery — and its
fixture corpus under ``tests/analysis/fixtures/`` — independently
reviewable.
"""

from . import (  # noqa: F401  (registration imports)
    rl001_kernel_boundary,
    rl002_cost_accounting,
    rl003_phase_protocol,
    rl004_determinism,
    rl005_obs_transparency,
    rl006_exit_contract,
    rl007_async_blocking,
    rl008_async_liveness,
    rl010_task_purity,
    rl011_fork_safety,
)

__all__ = [
    "rl001_kernel_boundary",
    "rl002_cost_accounting",
    "rl003_phase_protocol",
    "rl004_determinism",
    "rl005_obs_transparency",
    "rl006_exit_contract",
    "rl007_async_blocking",
    "rl008_async_liveness",
    "rl010_task_purity",
    "rl011_fork_safety",
]
