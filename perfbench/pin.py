"""Print the answers of every seed-independent op as JSON.

Usage: python3 perfbench/pin.py > perfbench/expected.json

Run it only on a commit whose answers are trusted; the benchmark counts
any later answer that differs from these as a failed op.  The lengths
queries depend on the seed and are checked against checks.ReferenceLengths
instead, so only their atom lists and the transfer check are pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import SRC, Pass, execute, prepare  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(dir=SRC.parent))
    pinned = {}
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.operations(name, seed=0):
                if op["kind"] == "lengths":
                    continue
                result = execute(op, prepare(op, Pass(workdir, None)))
                if "error" in result:
                    raise SystemExit(f"{op['id']}: {result['error']}")
                pinned[op["id"]] = result["answer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(pinned, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
