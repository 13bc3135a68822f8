"""One pass of a workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Imports zslen from the checkout's src/, prepares the inputs, runs the
set-up ops, prints "ready", runs the timed ops with a fixed calibration
loop before and after each, and prints one JSON line with each op's
answer and time, the pass time (the sum of the op times), the mean time
of the calibration loop and peak memory.  With TRACE=1 it also reports
per-layer spans and counters.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_TIMEOUT_S = 120
CAL_ROUNDS = 50_000

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import digest  # noqa: E402


class Pass:
    """Per-process state: the work directory and, when tracing, the tracer
    with the span summaries sent back by traced CLI children."""

    def __init__(self, workdir: Path, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.child_agg = {"self": {}, "total": {}}
        self.child_counters: dict[str, int] = {}
        self.cli_calls = 0

    def run_cli(self, argv: list[str]) -> dict:
        argv = [a.replace("{cache}", str(self.workdir / "cache")) for a in argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("ZSLEN_CACHE_DIR", None)  # the variable overrides --cache-dir
        if self.tracer is None:
            cmd = [sys.executable, "-m", "zslen.cli", *argv]
        else:
            self.cli_calls += 1
            spans_out = self.workdir / f"spans-{self.cli_calls}.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_out), *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=CLI_TIMEOUT_S)
        if self.tracer is not None:
            child = json.loads(spans_out.read_text())
            spans.merge(self.child_agg, child["agg"])
            for name, value in child["counters"].items():
                self.child_counters[name] = self.child_counters.get(name, 0) + value
        if proc.returncode not in (0, 1):  # 1 reports failed verdicts, checked below
            raise RuntimeError(f"zslen {' '.join(argv)} exited with {proc.returncode}")
        report = json.loads(proc.stdout)
        if argv[0] == "verify":
            return {
                "passed": report["results"]["passed"],
                "failed": report["results"]["failed"],
                "verdicts": [[v["name"], v["pass"]] for v in report["verdicts"]],
            }
        results = report["results"]
        return {
            "count": results["count"],
            "davenport": results.get("davenport"),
            "sha256": digest(sorted(results["atoms"])),
        }


def prepare(op: dict, state: Pass):
    """Program-side preparation of one op; returns a callable giving its answer."""
    kind = op["kind"]
    if kind == "cli":
        return lambda: state.run_cli(op["argv"])

    from zslen import (
        Sequence,
        davenport,
        delta_of_group,
        elements,
        enumerate_atoms,
        length_set,
        make_group,
        make_instance,
        check_transfer,
        make_numerical,
        system,
        unions_range,
        verify_structure_theorem,
    )
    from zslen.numerical import accumulated_delta

    if kind == "accdelta":
        monoid = make_numerical(op["gens"])
        return lambda: list(accumulated_delta(monoid, op["bound"]))
    group = make_group(op["group"])
    if kind == "atoms":
        def atoms_answer():
            atoms = enumerate_atoms(group)
            dav, _ = davenport(group, atoms)
            return {"count": len(atoms), "davenport": dav,
                    "sha256": digest(sorted(atoms.vectors()))}
        return atoms_answer
    if kind == "lengths":
        els = elements(group)
        seqs = [Sequence.make(group, {els[i]: m for i, m in enumerate(v) if m})
                for v in op["queries"]]

        def lengths_answer():
            atoms = enumerate_atoms(group)
            answers = [list(length_set(s, atoms).values)
                       for _ in range(op["rounds"]) for s in seqs]
            return {"n": len(answers), "sha256": digest(answers)}
        return lengths_answer
    if kind == "transfer":
        instance = make_instance(group, None, op["primes_per_class"])

        def transfer_answer():
            report = check_transfer(instance, op["samples"], 10, op["seed"])
            return {"samples": report.samples, "passes": report.passes}
        return transfer_answer
    if kind == "system":
        def system_answer():
            sys_ = system(group, None, op["bound"])
            sets = [list(ls.values) for ls in sys_.length_sets()]
            return {"entries": len(sets), "sha256": digest(sets)}
        return system_answer
    if kind == "delta":
        def delta_answer():
            report = delta_of_group(group, None, op["bound"])
            return {"distances": list(report.distances), "exact": bool(report.exact)}
        return delta_answer
    if kind == "unions":
        return lambda: {str(k): list(u.values)
                        for k, u in unions_range(group, op["k_max"]).items()}
    if kind == "structure":
        def structure_answer():
            report = verify_structure_theorem(group, op["bound"])
            return {"max_bound": report.max_bound, "ok": report.ok,
                    "candidates": list(report.candidates)}
        return structure_answer
    raise ValueError(f"unknown op kind {kind!r}")


def execute(op: dict, run) -> dict:
    start = time.perf_counter()
    try:
        answer = run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exc()
        return {"id": op["id"], "seconds": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"id": op["id"], "seconds": time.perf_counter() - start, "answer": answer}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the tuple, dict and integer
    work zslen does.  The collector is off, so the heap that set-up or the
    pass left behind does not change it, and its dict stays small, so it
    does not change peak memory."""
    gc.disable()
    try:
        start = time.perf_counter()
        memo: dict = {}
        for i in range(CAL_ROUNDS):
            key = (i % 7, i % 11, i % 13)
            step = tuple(x + 1 for x in key)
            if all(x <= y for x, y in zip(key, step)):
                memo[key] = memo.get(key, 0) + (i & 3)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    workload, seed, traced, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    # One core for the worker and its CLI children, so that the
    # calibration loop times the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.operations(workload, seed)
    in_process = any(op["kind"] != "cli" for op in ops)
    tracer = spans.Tracer() if traced else None
    if in_process:
        import zslen

        if Path(zslen.__file__).resolve().parent != SRC / "zslen":
            raise SystemExit(f"zslen imported from {zslen.__file__}, not from {SRC}")
        if tracer is not None:
            spans.install(tracer)
    state = Pass(workdir, tracer)

    prepared = [(op, prepare(op, state)) for op in ops]
    results = [execute(op, run) for op, run in prepared if op.get("setup")]
    print("ready", flush=True)

    # The calibration loop runs before the first timed op and after each
    # one, so that it samples the host's speed all through the pass.
    cal = [calibrate()]
    pass_s = 0.0
    for op, run in prepared:
        if not op.get("setup"):
            results.append(execute(op, run))
            pass_s += results[-1]["seconds"]
            cal.append(calibrate())

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    out = {
        "pass_s": pass_s,
        "cal_s": sum(cal) / len(cal),
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer:
        agg = tracer.aggregate()
        spans.merge(agg, state.child_agg)
        counters = tracer.counter_snapshot()
        for name, value in state.child_counters.items():
            counters[name] = counters.get(name, 0) + value
        out["layers"] = spans.layer_metrics(agg, counters)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
