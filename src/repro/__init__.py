"""repro — reproduction of "Data Distribution Schemes of Sparse Arrays on
Distributed Memory Multicomputers" (Lin, Chung & Liu, ICPP 2002).

Quick start::

    from repro import random_sparse, run_scheme

    A = random_sparse((1000, 1000), 0.1, seed=0)
    result = run_scheme("ed", A, partition="row", n_procs=16, compression="crs")
    print(result.summary())

Packages:

* :mod:`repro.sparse`    — COO/CRS/CCS storage, ops, generators, IO
* :mod:`repro.partition` — row / column / 2-D mesh (+ block-cyclic,
  bin-packing) partition methods
* :mod:`repro.machine`   — the simulated distributed-memory multicomputer
* :mod:`repro.core`      — the SFC / CFS / ED distribution schemes
* :mod:`repro.model`     — the paper's closed-form cost model (Tables 1-2,
  Remarks 1-5, crossover analysis)
* :mod:`repro.runtime`   — experiment harness reproducing Tables 3-5
* :mod:`repro.apps`      — distributed SpMV / power iteration / Jacobi
* :mod:`repro.ekmr`      — multi-dimensional arrays via EKMR (future work)
* :mod:`repro.data`      — the paper's worked-example figures
"""

from .core import CFSScheme, EDScheme, SFCScheme, SchemeResult, get_scheme
from .machine import CostModel, Machine, Phase, sp2_cost_model
from .model import ProblemSpec, predict
from .partition import ColumnPartition, Mesh2DPartition, PartitionPlan, RowPartition
from .runtime import run_scheme
from .sparse import CCSMatrix, COOMatrix, CRSMatrix, random_sparse, spmv

__version__ = "1.0.0"

__all__ = [
    "CCSMatrix",
    "CFSScheme",
    "COOMatrix",
    "CRSMatrix",
    "ColumnPartition",
    "CostModel",
    "EDScheme",
    "Machine",
    "Mesh2DPartition",
    "PartitionPlan",
    "Phase",
    "ProblemSpec",
    "RowPartition",
    "SFCScheme",
    "SchemeResult",
    "__version__",
    "get_scheme",
    "predict",
    "random_sparse",
    "run_scheme",
    "sp2_cost_model",
    "spmv",
]
