"""Command-line front end: configuration, atom-cache persistence, and
machine-readable reports tying the computation modules together.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 resource limit, 4 internal error (an unexpected exception, reported as
JSON rather than a traceback).  JSON is the canonical machine format; CSV is available
for the tabular outputs (system, unions), and the other commands refuse it;
text is a readable summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import time

# the parser and the atom commands need only these modules; the other
# handlers import their own, so a process loads only what its command runs
from . import __version__
from .atoms import (
    DEFAULT_MEMO_LIMIT,
    DEFAULT_NODE_LIMIT,
    AtomSet,
    davenport,
    davenport_star,
    enumerate_atoms,
    limits,
)
from .errors import InvalidArgumentError, ResourceLimitError
from .group import DEFAULT_MAX_ORDER, FiniteAbelianGroup, elements, make_group
from .sequence import (
    canonical_subset,
    encode_dense,
    encode_sequence,
    parse_element,
    parse_sequence,
    split_top_level,
)
from .suites import SUITES

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_ARGUMENTS = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4

REPORT_SCHEMA = "zslen-report/1"


def _parse_group(text: str, max_order: int | None) -> FiniteAbelianGroup:
    try:
        moduli = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse group moduli {text!r}") from None
    if not moduli:
        raise InvalidArgumentError("group requires at least one modulus")
    return make_group(moduli, max_order)


def _parse_subset(group: FiniteAbelianGroup, text: str | None):
    if text is None or text == "all":
        return tuple(elements(group))
    if text == "nonzero":
        return tuple(g for g in elements(group) if g != group.zero())
    parts = [p for p in split_top_level(text) if p.strip()]
    return canonical_subset(group, [parse_element(group, p) for p in parts])


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse integer list {text!r}") from None


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        k = int(text)
        return k, k
    except ValueError:
        raise InvalidArgumentError(f"cannot parse k range {text!r}") from None


def _fraction_str(x) -> str:
    # str of a Fraction is "p/q", or "p" when q is 1
    return "inf" if x == float("inf") else str(x)


# atom sets fetched while handling the current command, for resource counters
_TOUCHED_ATOMS: list[AtomSet] = []


def _get_atoms(group: FiniteAbelianGroup, subset, args) -> AtomSet:
    cache_dir = args.cache_dir
    if not cache_dir:
        atoms = enumerate_atoms(group, subset)
    else:
        import logging

        from .cache import cache_load, cache_store

        atoms = cache_load(cache_dir, group, subset)
        if atoms is None:
            atoms = enumerate_atoms(group, subset)
            try:
                cache_store(cache_dir, atoms)
            except OSError as exc:  # the cache is advisory, as a failed load is
                logging.getLogger(__name__).warning(
                    "cannot store atom cache in %s (%s); continuing", cache_dir, exc)
    _TOUCHED_ATOMS.append(atoms)
    return atoms


def _resource_counters() -> dict:
    return {
        "atom_lattice_nodes": sum(a.nodes_visited for a in _TOUCHED_ATOMS),
        "memo_entries": sum(a.engine.memo_size for a in _TOUCHED_ATOMS if a.engine),
    }


# -- subcommand handlers ------------------------------------------------------


def cmd_atoms(args):
    group = args.group
    subset = _parse_subset(group, args.subset)
    atoms = _get_atoms(group, subset, args)
    dav, witness = davenport(group, atoms) if subset == tuple(elements(group)) else (None, None)
    codes = [str(g) for g in atoms.letters]
    results = {
        "group": list(group.invariant_factors),
        "subset": [list(g.coords) for g in atoms.letters],
        "count": len(atoms),
        "atoms": [encode_dense(codes, v) for v in atoms.vectors()],
    }
    if dav is not None:
        results["davenport"] = dav
        results["davenport_witness"] = encode_sequence(witness)
    return results, []


def cmd_davenport(args):
    group = args.group
    atoms = _get_atoms(group, tuple(elements(group)), args)
    dav, witness = davenport(group, atoms)
    return {
        "group": list(group.invariant_factors),
        "davenport": dav,
        "davenport_star": davenport_star(group),
        "witness": encode_sequence(witness),
    }, []


def cmd_lengths(args):
    from .lengths import delta_of, elasticity_of, length_set

    group = args.group
    seq = parse_sequence(group, args.sequence)
    atoms = _get_atoms(group, tuple(elements(group)), args)
    ls = length_set(seq, atoms)
    return {
        "group": list(group.invariant_factors),
        "sequence": encode_sequence(seq),
        "lengths": list(ls.values),
        "delta": list(delta_of(ls)),
        "elasticity": _fraction_str(elasticity_of(ls)),
    }, []


def cmd_system(args):
    from .invariants import system

    group = args.group
    subset = _parse_subset(group, args.subset)
    sys_ = system(group, subset, args.bound)
    _TOUCHED_ATOMS.append(enumerate_atoms(group, subset))  # the set it walked
    return {
        "group": list(group.invariant_factors),
        "subset": [list(g.coords) for g in sys_.subset],
        "bound": sys_.bound,
        "entries": [
            {"lengths": list(ls.values), "witness": encode_sequence(w)}
            for ls, w in sys_.entries
        ],
    }, []


def cmd_unions(args):
    from .invariants import unions_range

    group = args.group
    lo, hi = _parse_k_range(args.k)
    if lo < 1 or hi < lo:
        raise InvalidArgumentError(f"bad k range {args.k!r}")
    unions = unions_range(group, hi)
    _TOUCHED_ATOMS.append(enumerate_atoms(group))  # the set it walked
    return {
        "group": list(group.invariant_factors),
        "unions": [
            {
                "k": k,
                "values": list(unions[k].values),
                "rho_k": unions[k].rho,
                "lambda_k": unions[k].lam,
                "interval": unions[k].is_interval(),
            }
            for k in range(lo, hi + 1)
        ],
    }, []


def cmd_delta(args):
    from .invariants import delta_of_group

    group = args.group
    subset = _parse_subset(group, args.subset)
    report = delta_of_group(group, subset, args.bound)
    _TOUCHED_ATOMS.append(enumerate_atoms(group, subset))  # the set it walked
    return {
        "group": list(group.invariant_factors),
        "subset": [list(g.coords) for g in report.subset],
        "bound": report.bound,
        "delta": list(report.distances),
        "exact": report.exact,
    }, []


def cmd_delta_star(args):
    from .invariants import delta_star

    report = delta_star(args.group)
    return {
        "group": list(args.group.invariant_factors),
        "delta_star": list(report.values),
        "subsets_scanned": report.subsets_scanned,
    }, []


def _fit_payload(fit):
    if fit is None:
        return None
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(fit).items()}


def cmd_fit(args):
    from .lengths import LengthSet
    from .structure_fit import best_aamp, fit_aamp

    values = _parse_ints(args.set)
    if not values:
        raise InvalidArgumentError("empty length set")
    ls = LengthSet.of(values)
    if args.d is not None:
        period = _parse_ints(args.period) if args.period else [0, args.d]
        fit = fit_aamp(ls, args.d, period)
    elif args.period is not None:
        raise InvalidArgumentError("--period needs --d")
    else:
        fit = best_aamp(ls, _parse_ints(args.candidates))
    return {"set": list(ls.values), "fit": _fit_payload(fit)}, []


def cmd_verify_structure(args):
    from .structure_fit import verify_structure_theorem

    group = args.group
    report = verify_structure_theorem(group, args.bound)
    _TOUCHED_ATOMS.append(enumerate_atoms(group))  # the cached A(G) it walked
    results = {
        "group": list(group.invariant_factors),
        "bound": args.bound,
        "candidates": list(report.candidates),
        "max_bound": report.max_bound,
        "witness": list(report.witness.values) if report.witness else None,
        "witness_fit": _fit_payload(report.witness_fit),
        "histogram": [
            {"difference": d, "period_size": p, "bound": m, "count": c}
            for (d, p, m), c in report.histogram
        ],
    }
    verdicts = [
        {
            "name": f"thm5.3 fits reconstruct, {group} (bound {args.bound})",
            "pass": report.ok,
            "witness": f"max M = {report.max_bound}",
        }
    ]
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(results, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            reason = f"cannot write report {args.report!r}: {exc.strerror}"
            raise InvalidArgumentError(reason) from None
    return results, verdicts


def cmd_numerical(args):
    from .lengths import delta_of, elasticity_of
    from .numerical import contains, make_numerical, num_elasticity, num_length_set, num_min_delta

    monoid = make_numerical(_parse_ints(args.gens))
    results = {
        "generators": list(monoid.generators),
        "frobenius_bound": monoid.frobenius_bound,
        "elasticity": _fraction_str(num_elasticity(monoid)),
        "min_delta": num_min_delta(monoid),
    }
    if args.n is not None:
        member = contains(monoid, args.n)
        results["n"] = args.n
        results["member"] = member
        if member:
            ls = num_length_set(monoid, args.n)
            results["lengths"] = list(ls.values)
            results["delta"] = list(delta_of(ls))
            results["elasticity_of_n"] = _fraction_str(elasticity_of(ls))
    return results, []


def cmd_transfer_check(args):
    from .transfer import check_atom_correspondence, check_transfer, instance_atoms, make_instance

    group = args.group
    subset = _parse_subset(group, args.subset)
    instance = make_instance(group, subset, args.primes_per_class)
    report = check_transfer(instance, args.samples, args.max_word_length, args.seed)
    corr = check_atom_correspondence(instance)
    _TOUCHED_ATOMS.extend((instance_atoms(instance), enumerate_atoms(group, subset)))
    results = {
        "group": list(group.invariant_factors),
        "primes_per_class": args.primes_per_class,
        "samples": report.samples,
        "passes": report.passes,
        "seed": report.seed,
        "max_word_length": report.max_word_length,
        "failures": [
            {"word": encode_dense(instance.primes, w), "direct": list(d.values), "transferred": list(t.values)}
            for w, d, t in report.failures
        ],
        "h_atoms": corr.h_atom_count,
        "b_atoms": corr.b_atom_count,
    }
    verdicts = [
        {
            "name": f"lemma4.2 length preservation, {group}",
            "pass": report.ok,
            "witness": f"{report.passes}/{report.samples} samples, seed {report.seed}",
        },
        {
            "name": f"lemma4.2 atom correspondence, {group}",
            "pass": corr.ok,
            "witness": f"{corr.h_atom_count} H-atoms onto {corr.b_atom_count} B-atoms",
        },
    ]
    return results, verdicts


def cmd_verify(args):
    from .verify import run_suite

    options = {dest: getattr(args, dest) for dest in SUITES[args.suite].options}
    verdicts = run_suite(args.suite, args.group, **options)
    results = {
        "suite": args.suite,
        "passed": sum(1 for v in verdicts if v.passed),
        "failed": sum(1 for v in verdicts if v.passed is False),
        "undecided": sum(1 for v in verdicts if v.passed is None),
    }
    return results, [v.as_dict() for v in verdicts]


# -- argument parsing and report assembly --------------------------------------


# the options several commands read; each command names the ones its
# handler reads, so an option it would ignore is a usage error
_SHARED = {
    "--format": dict(choices=("json", "text"), default="json", help="output format"),
    "--stable": dict(action="store_true",
                     help="omit timing so identical runs are byte-identical"),
    "--group": dict(required=True, help="comma list of moduli, e.g. 3,3"),
    "--subset": dict(default="all", help="all | nonzero | explicit elements"),
    "--bound": dict(type=int, required=True, help="sequence length bound"),
    "--max-order": dict(type=int, default=DEFAULT_MAX_ORDER, help="group order cap"),
    "--node-limit": dict(type=int, default=DEFAULT_NODE_LIMIT,
                         help="lattice node ceiling for atom enumeration"),
    "--memo-limit": dict(type=int, default=DEFAULT_MEMO_LIMIT,
                         help="memo table ceiling for the factorization engine"),
    "--cache-dir": dict(default=None, help="atom cache directory"),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors become InvalidArgumentError,
    so that main reports them like any other invalid argument.  The usage
    and the message still go to stderr; --help and --version still exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise InvalidArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zslen",
        description="Factorization-length invariants of zero-sum sequence "
                    "monoids over finite abelian groups and numerical monoids.",
    )
    parser.add_argument("--version", action="version", version=f"zslen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per shared option: a command copies the options it
    # reads from them, which costs less than adding each one again
    shared = {}
    for flag, kw in _SHARED.items():
        shared[flag] = argparse.ArgumentParser(add_help=False)
        shared[flag].add_argument(flag, **kw)
    # the tabular commands, system and unions, also print CSV (_render_csv)
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", **{**_SHARED["--format"], "choices": ("json", "csv", "text")})

    def add(subparsers, name, flags, csv=False, **kw):
        parents = [tabular if csv else shared["--format"]]
        parents += [shared[f] for f in ["--stable", *flags.split()]]
        return subparsers.add_parser(name, parents=parents, **kw)

    def command(name, handler, flags, **kw):
        p = add(sub, name, flags, **kw)
        p.set_defaults(handler=handler)
        return p

    # what _parse_group and the atom walk read; _get_atoms also reads the cache
    walk = "--group --max-order --node-limit"
    cached = f"{walk} --cache-dir"
    command("atoms", cmd_atoms, f"{cached} --subset", help="enumerate minimal zero-sum sequences")
    command("davenport", cmd_davenport, cached, help="Davenport constant and witness")
    p = command("lengths", cmd_lengths, f"{cached} --memo-limit",
                help="set of lengths of one sequence")
    p.add_argument("--sequence", required=True, help='e.g. "[1:3,2:3]"')
    command("system", cmd_system, f"{walk} --memo-limit --subset --bound", csv=True,
            help="system of sets of lengths up to a bound")
    p = command("unions", cmd_unions, f"{walk} --memo-limit", csv=True,
                help="unions of sets of lengths U_k")
    p.add_argument("--k", required=True, help="single k or range, e.g. 1..6")
    command("delta", cmd_delta, f"{walk} --memo-limit --subset --bound",
            help="accumulated distance set")
    command("delta-star", cmd_delta_star, "--group --max-order --node-limit",
            help="exact set of minimal distances over subsets")

    p = command("fit", cmd_fit, "", help="AAMP fit of an explicit set")
    p.add_argument("--set", required=True, help='comma list, e.g. "2,3,7,8"')
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--d", type=int, default=None, help="difference")
    how.add_argument("--candidates", default=None, help="candidate differences for a best fit")
    p.add_argument("--period", default=None, help='period for --d, e.g. "0,1,5"')

    p = command("verify-structure", cmd_verify_structure, "--group --max-order --bound",
                help="AAMP fits across a whole system")
    p.add_argument("--report", default=None, help="also write results to this file")

    p = command("numerical", cmd_numerical, "", help="numerical monoid invariants")
    p.add_argument("--gens", required=True, help='comma list, e.g. "3,5,7"')
    p.add_argument("--n", type=int, default=None, help="element to factor")

    p = command("transfer-check", cmd_transfer_check,
                "--group --max-order --node-limit --memo-limit --subset",
                help="transfer homomorphism cross-checks")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled words")
    p.add_argument("--primes-per-class", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-word-length", type=int, default=10)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.set_defaults(handler=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    for name, suite in SUITES.items():
        s = add(suites, name, "--group --max-order" if suite.on_group else "")
        for dest, default in suite.options.items():
            flag = "--" + dest.replace("_", "-")
            if isinstance(default, bool):
                s.add_argument(flag, action="store_true")
            else:
                s.add_argument(flag, type=int, default=default, help=f"default {default}")

    return parser


def _render_csv(command: str, results: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    if command == "system":
        writer.writerow(["lengths", "witness"])
        for entry in results["entries"]:
            writer.writerow([" ".join(map(str, entry["lengths"])), entry["witness"]])
    else:  # unions, the other command that offers csv
        writer.writerow(["k", "lambda_k", "rho_k", "values"])
        for row in results["unions"]:
            writer.writerow(
                [row["k"], row["lambda_k"], row["rho_k"],
                 " ".join(map(str, row["values"]))]
            )
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"zslen {report['command']}"]
    for key, value in sorted(report["results"].items()):
        lines.append(f"  {key}: {value}")
    for v in report["verdicts"]:
        mark = {True: "PASS", False: "FAIL", None: "UNDECIDED"}[v["pass"]]
        lines.append(f"  [{mark}] {v['name']} -- {v['witness']}")
    if "timing" in report:
        lines.append(f"  elapsed: {report['timing']['seconds']:.3f}s")
    return "\n".join(lines) + "\n"


def _config_echo(args) -> dict:
    skip = {"handler", "command", "format", "stable"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }


def _validate_common(args):
    if getattr(args, "bound", None) is not None and args.bound < 0:
        raise InvalidArgumentError(f"bound must be nonnegative: {args.bound}")
    for name in ("node_limit", "memo_limit"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise InvalidArgumentError(f"{name.replace('_', '-')} must be positive: {value}")
    for name in ("samples", "max_order", "max_word_length"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise InvalidArgumentError(f"{name.replace('_', '-')} must be nonnegative: {value}")


def _error_report(report: dict, code: int, kind: str, reason: str, **extra) -> int:
    """Print the report with its error and return the exit code."""
    report["error"] = {"type": kind, "reason": reason, **extra}
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    report = {"schema": REPORT_SCHEMA, "tool": {"name": "zslen", "version": __version__}}
    try:
        args = parser.parse_args(argv)
    except InvalidArgumentError as exc:
        # a command line that does not parse: no option took effect
        tokens = sys.argv[1:] if argv is None else argv
        command = tokens[0] if tokens and not tokens[0].startswith("-") else None
        report.update(command=command, config={})
        return _error_report(report, EXIT_INVALID_ARGUMENTS, "invalid-argument", str(exc))
    started = time.perf_counter()
    _TOUCHED_ATOMS.clear()
    report.update(command=args.command, config=_config_echo(args))
    try:
        _validate_common(args)
        # handlers read the parsed group from a copy; args keeps the text
        # that the config echoes
        parsed = argparse.Namespace(**vars(args))
        parsed.group = _parse_group(args.group, args.max_order) if "group" in args else None
        # a command's ceilings hold for its handler's calls; one that the
        # command does not take keeps the cap in force
        with limits(node_limit=getattr(args, "node_limit", None),
                    memo_limit=getattr(args, "memo_limit", None)):
            results, verdicts = args.handler(parsed)
        report["results"] = results
        report["verdicts"] = verdicts
        report["resources"] = _resource_counters()
        if not args.stable:
            report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
        if args.format == "json":
            output = json.dumps(report, indent=2, sort_keys=True) + "\n"
        elif args.format == "csv":
            output = _render_csv(args.command, results)
        else:
            output = _render_text(report)
    except InvalidArgumentError as exc:
        return _error_report(report, EXIT_INVALID_ARGUMENTS, "invalid-argument", str(exc))
    except ResourceLimitError as exc:
        return _error_report(report, EXIT_RESOURCE_LIMIT, "resource-limit", str(exc),
                             bound=exc.bound_name, limit=exc.limit)
    except Exception as exc:
        import traceback

        # a bug, not bad input: keep only the fields that are known to
        # serialize, since the failure may lie in the results themselves
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        report = {k: report[k] for k in ("schema", "tool", "command", "config")}
        return _error_report(
            report, EXIT_INTERNAL_ERROR, "internal-error", f"{type(exc).__name__}: {exc}",
            where=f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        )
    sys.stdout.write(output)
    if any(v["pass"] is False for v in verdicts):
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
