"""Run the zslen command line with spans installed.

Usage: python3 perfbench/cli_traced.py SPANS_OUT ZSLEN_ARGS...

zslen must be importable (PYTHONPATH=src).  The report goes to stdout as
usual; the span summary and counters go to SPANS_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import zslen.cli

    try:
        return zslen.cli.main(argv)
    finally:
        out.write_text(json.dumps({"agg": tracer.aggregate(),
                                   "counters": tracer.counter_snapshot()}))


if __name__ == "__main__":
    sys.exit(main())
