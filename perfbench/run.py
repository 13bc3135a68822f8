"""zslen benchmark: runs one workload and prints its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload atoms|lengths|sweeps|cli \
        --seed N --seconds S --trace 0|1

Each pass runs in a fresh worker process (perfbench/worker.py).  Passes
repeat until about S seconds have gone, with at least three.  With
--trace 0 the end-to-end metrics are medians over passes of wall_s (the
time of the op list), setup_s (worker start to first timed op) and
peak_rss_mb.  Both times are scaled to the reference host's speed by a
calibration loop timed in the same worker (see scaled).  With --trace 1
traced and untraced passes alternate; the per-layer metrics are medians
(the lower middle value) over the traced passes, and trace.overhead_s is
the median scaled traced pass minus the median scaled untraced pass.

Every answer is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
LAST_START_S = 110  # start no pass later than this; a run must end within 180 s
PASS_TIMEOUT_S = 55

# seconds of one worker.calibrate(), about the fastest seen on the
# reference host (2-core Xeon VM, Python 3.11.7)
CAL_REF_S = 0.06

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def scaled(p: dict, name: str) -> float:
    """A pass's time `name` in seconds on the reference host.

    On a shared 2-core host the speed of the same code drifts by 30% over
    minutes and by up to 1.7x for stretches of 15-25 s.  The calibration
    loop run between the ops slows with it, so the ratio of the two stays
    close to constant; it runs no zslen code, so slower code still reads
    as slower."""
    return p[name] * CAL_REF_S / p["cal_s"]


def _read(fd: int, buf: bytes, deadline: float, line: bool) -> bytes:
    """Read from fd until a newline (line=True) or end of file."""
    while not (line and b"\n" in buf):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf += chunk
    return buf


def run_worker(workload: str, seed: int, traced: bool, workdir: Path, timeout: float) -> dict:
    """One pass in a fresh process; setup_s is measured from spawn to "ready"."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(workdir)]
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    fd = proc.stdout.fileno()
    result: dict = {"traced": traced}
    try:
        buf = _read(fd, b"", deadline, line=True)
        result["setup_s"] = time.perf_counter() - start
        buf = _read(fd, buf, deadline, line=False)
        proc.wait(timeout=max(deadline - time.perf_counter(), 1))
    except (TimeoutError, subprocess.TimeoutExpired):
        result["error"] = f"timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
        proc.wait()
        proc.stdout.close()
        result["lifetime_s"] = time.perf_counter() - start
    if "error" in result:
        return result
    lines = buf.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        result["error"] = f"worker exited with {proc.returncode}"
        return result
    result.update(json.loads(lines[-1]))
    return result


def collect(args, workdir: Path) -> list[dict]:
    """Run passes until about args.seconds have gone."""
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        kinds = {False: 0, True: 0}
        for p in passes:
            kinds[p["traced"]] += 1
        enough = len(passes) >= MIN_PASSES and (not args.trace or min(kinds.values()) >= 2)
        typical = statistics.median(p["lifetime_s"] for p in passes) if passes else 0.0
        if enough and elapsed + typical > args.seconds:
            break
        if passes and (elapsed > LAST_START_S or "error" in passes[-1]):
            break
        traced = bool(args.trace) and kinds[True] < kinds[False]
        passes.append(run_worker(args.workload, args.seed, traced,
                                 workdir / f"pass-{len(passes)}", PASS_TIMEOUT_S))
    return passes


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zslen" / "__init__.py").is_file():
        print(f"error: no zslen sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    ops = workloads.operations(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        passes = collect(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    done = [p for p in passes if "error" not in p]
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if not plain or (args.trace and not traced):
        print(f"error: no pass completed: {passes[-1].get('error')}", file=sys.stderr)
        return 1
    expected = checks.expected_answers(ops, SRC)

    failed = 0
    for p in passes:
        p["failed"] = checks.failed_ops(p, ops, expected)
        failed += len(p["failed"])
    attempted = len(ops) * len(passes)
    mismatched = checks.counter_mismatches([p["layers"] for p in traced],
                                           spans.DETERMINISTIC_COUNTERS)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced")
    for p in passes:
        for op_id in p["failed"]:
            print(f"  FAILED {op_id}: {p.get('error') or 'wrong answer or error'}")
    print(f"  failed_ops {failed}/{attempted} = {failed / attempted:.4f}")
    for name in mismatched:
        print(f"  COUNTER NOT REPEATED {name}: {[p['layers'][name] for p in traced]}")
    for op in ops:
        times = [r["seconds"] for p in plain for r in p["ops"] if r["id"] == op["id"]]
        if times:
            print(f"  op {op['id']:<32} median {statistics.median(times):9.4f} s")

    print(f"  unscaled medians: pass {statistics.median(p['pass_s'] for p in plain):.4f} s"
          f"  setup {statistics.median(p['setup_s'] for p in plain):.4f} s"
          f"  calibration {statistics.median(p['cal_s'] for p in plain):.4f} s")
    series = {
        "wall_s": [scaled(p, "pass_s") for p in plain],
        "setup_s": [scaled(p, "setup_s") for p in plain],
        "peak_rss_mb": [p["rss_mb"] for p in plain],
    }
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            values = series[name]
            median = statistics.median(values)
            q1, q3 = _quartiles(values)
            print(f"  {name:<12} median {median:10.4f} {unit}"
                  f"  q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
            metrics[name] = {"value": median, "unit": unit}
    else:
        rows = [p["layers"] for p in traced]
        traced_wall = statistics.median(scaled(p, "pass_s") for p in traced)
        plain_wall = statistics.median(series["wall_s"])
        print(f"  traced wall {traced_wall:.4f} s  untraced wall {plain_wall:.4f} s")
        for name in spans.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = traced_wall - plain_wall
            else:
                value = statistics.median_low(row[name] for row in rows)
            unit = spans.metric_unit(name)
            print(f"  {name:<28} {value:14.4f} {unit}")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
