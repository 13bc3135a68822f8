"""On-demand reach listing: cases too slow for the gated workloads.

Usage (from the repository root):
    python3 perfbench/reach.py

Each row runs in its own process with its own timeout (set per row in
ROWS) and is printed as one JSON line {name, layer, params, seconds,
counters, timed_out, error}.  A row that hits its timeout is killed and
reported with "timed_out": true, so a change can show added reach
without adding slow cases to the gated runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> (layer, params, timeout in seconds)
ROWS = {
    "atoms C4+C4": ("atoms", {"group": [4, 4]}, 60),
    "atoms C3+C6": ("atoms", {"group": [3, 6]}, 120),
    "atoms C2^5": ("atoms", {"group": [2, 2, 2, 2, 2]}, 120),
    "system C2^4 b10": ("invariants.system", {"group": [2, 2, 2, 2], "bound": 10}, 180),
    "unions C3+C3 k6": ("invariants.unions", {"group": [3, 3], "k_max": 6}, 60),
}


def run_row(name: str) -> dict:
    """Run one row in this process; returns its counters or its error."""
    sys.path.insert(0, str(SRC))
    from zslen import enumerate_atoms, make_group, system, unions_range
    from zslen.errors import ResourceLimitError

    layer, params, _ = ROWS[name]
    group = make_group(params["group"])
    start = time.perf_counter()
    try:
        if layer == "atoms":
            atoms = enumerate_atoms(group)
            counters = {"atoms": len(atoms), "nodes": atoms.nodes_visited}
        elif layer == "invariants.system":
            counters = {"entries": len(system(group, None, params["bound"]))}
        else:
            unions = unions_range(group, params["k_max"])
            counters = {"rho": {k: u.rho for k, u in unions.items()}}
    except ResourceLimitError as exc:
        return {"seconds": time.perf_counter() - start, "counters": {}, "error": str(exc)}
    return {"seconds": time.perf_counter() - start, "counters": counters, "error": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_row(args.child)))
        return 0
    for name, (layer, params, timeout) in ROWS.items():
        row = {"name": name, "layer": layer, "params": params, "timed_out": False}
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            row.update(seconds=time.perf_counter() - start, counters={}, timed_out=True,
                       error=f"no result within {timeout} s")
        else:
            if proc.returncode != 0:
                row.update(seconds=time.perf_counter() - start, counters={},
                           error=f"exited with {proc.returncode}")
            else:
                row.update(json.loads(proc.stdout.decode().splitlines()[-1]))
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
