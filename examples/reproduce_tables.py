#!/usr/bin/env python
"""Reproduce the paper's Tables 3, 4 and 5 on the simulated SP2.

Sweeps the paper-tables manifest (array sizes up to 2000², processor counts
up to 64) through the SFC/CFS/ED schemes on the simulated machine with the
SP2 cost-model calibration into a temporary result store, and prints every
measured cell next to the published number.  Finishes with a shape report: the fraction of cells in which each
of the paper's claimed orderings holds.

Run:  python examples/reproduce_tables.py [--quick]
      (--quick restricts to n <= 800 and two processor counts)
"""

import sys
import time

from repro.runtime import TABLE3_SIZES, TABLE5_SIZES, format_table, shape_report
from repro.sweep import paper_tables_manifest, sweep_records, table_from_store


def main() -> None:
    quick = "--quick" in sys.argv
    manifest = paper_tables_manifest(
        sizes=[n for n in TABLE3_SIZES if n <= 800], proc_counts=(4, 16),
        mesh_sizes=[n for n in TABLE5_SIZES if n <= 800], mesh_proc_counts=(4, 16),
    ) if quick else paper_tables_manifest()
    t0 = time.time()
    records = sweep_records(manifest)
    elapsed = time.time() - t0
    print(f"swept {len(records)} cells in {elapsed:.1f}s wall")
    for table_id in ("table3", "table4", "table5"):
        repro = table_from_store(records, table_id)
        print(format_table(repro))
        report = shape_report(repro)
        print(
            f"   shape report over {report['cells']} cells:"
        )
        print(
            f"     T_dist ordering ED<CFS<SFC : "
            f"{report['distribution_order_ed_cfs_sfc']:.0%}"
        )
        print(
            f"     T_comp ordering SFC<CFS<ED : "
            f"{report['compression_order_sfc_cfs_ed']:.0%}"
        )
        print(
            f"     ED beats CFS overall       : "
            f"{report['ed_beats_cfs_overall']:.0%}"
        )
        print()


if __name__ == "__main__":
    main()
