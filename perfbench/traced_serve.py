#!/usr/bin/env python3
"""Launch ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/traced_serve.py SPANS.json serve --socket PATH ...

Everything after ``SPANS.json`` is handed to the ``repro`` command line
unchanged.  Spans stay in memory while the server runs and are written
to ``SPANS.json`` once it stops (SIGINT is its clean shutdown).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness.tracer import Tracer, export, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        out.write_text(json.dumps(export(tracer.spans)))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
