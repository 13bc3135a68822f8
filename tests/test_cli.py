import argparse
import contextlib
import inspect
import io
import json
import logging
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zslen.cli as cli_mod
from zslen import atoms as atoms_module
from zslen.cli import main
from zslen.errors import InvalidArgumentError
from zslen.group import make_group
from zslen.lengths import LengthSet
from zslen.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_davenport_json(capsys):
    code, report = run_json(capsys, "davenport", "--group", "3,3")
    assert code == 0
    assert report["results"]["davenport"] == 5
    assert report["results"]["davenport_star"] == 5
    assert report["results"]["witness"]


def test_lengths_example(capsys):
    code, report = run_json(capsys, "lengths", "--group", "3", "--sequence", "[1:3,2:3]")
    assert code == 0
    assert report["results"]["lengths"] == [2, 3]
    assert report["results"]["delta"] == [1]
    assert report["results"]["elasticity"] == "3/2"


def test_atoms_with_cache(capsys, tmp_path):
    code, report = run_json(
        capsys, "atoms", "--group", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert report["results"]["count"] == 4
    assert list(tmp_path.glob("atoms_*.json"))
    code2, report2 = run_json(
        capsys, "atoms", "--group", "3", "--cache-dir", str(tmp_path)
    )
    assert report2["results"]["atoms"] == report["results"]["atoms"]


@pytest.mark.parametrize("command, extra", [
    ("davenport", []), ("lengths", ["--sequence", "[1:3,2:3]"]),
])
def test_davenport_and_lengths_write_the_cache(capsys, tmp_path, command, extra):
    code, _ = run_json(capsys, command, "--group", "3", "--cache-dir", str(tmp_path), *extra)
    assert code == 0
    assert list(tmp_path.glob("atoms_*.json"))


def test_system_csv(capsys):
    code, out = run(capsys, "system", "--group", "3", "--bound", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lengths,witness"
    assert any("2 3" in line for line in lines)


def test_unions_subcommand(capsys):
    code, report = run_json(capsys, "unions", "--group", "4", "--k", "1..6")
    assert code == 0
    rows = {row["k"]: row for row in report["results"]["unions"]}
    assert rows[2]["rho_k"] == 4
    assert rows[6]["rho_k"] == 12
    assert all(row["interval"] for row in rows.values())


def test_unions_checks_k_before_it_walks(capsys, monkeypatch):
    def walk(*args):
        raise AssertionError("A(G) walked for a k range that is refused")

    monkeypatch.setattr(atoms_module, "minimal_nonzero_vectors", walk)
    code, report = run_json(capsys, "unions", "--group", "3", "--k", "0")
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"


def test_delta_subcommand(capsys):
    code, report = run_json(capsys, "delta", "--group", "2,2,2", "--bound", "10")
    assert code == 0
    assert report["results"]["delta"] == [1, 2]


def test_delta_not_exact_is_json_false(capsys):
    # C3+C3 to bound 10 has no distances within the D(G)-wide margin
    code, out = run(capsys, "delta", "--group", "3,3", "--bound", "10")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["exact"] is False


@pytest.mark.parametrize("group, subset", [("5", "1"), ("2,2", "(0,1),(1,0)")])
def test_delta_of_a_half_factorial_subset_is_exact(capsys, group, subset):
    # the cross-number criterion decides that Delta(G0) is empty for any G0
    code, report = run_json(capsys, "delta", "--group", group, "--subset", subset, "--bound", "8")
    assert code == 0
    assert report["results"]["delta"] == []
    assert report["results"]["exact"] is True


def test_delta_star_subcommand(capsys):
    code, report = run_json(capsys, "delta-star", "--group", "3")
    assert code == 0
    assert report["results"]["delta_star"] == [1]


def test_delta_star_is_exact_without_a_bound(capsys):
    # the bounded scan missed 3 on C5: {2, 5} needs sequences of length 10
    code, report = run_json(capsys, "delta-star", "--group", "5", "--stable")
    assert code == 0
    assert report["results"] == {"group": [5], "delta_star": [1, 3], "subsets_scanned": 31}


def test_fit_subcommand(capsys):
    code, report = run_json(
        capsys, "fit", "--set", "2,3,7,8", "--d", "5", "--period", "0,1,5"
    )
    assert code == 0
    fit = report["results"]["fit"]
    assert fit["difference"] == 5
    assert fit["bound"] == 0


def test_fit_best_candidates(capsys):
    code, report = run_json(capsys, "fit", "--set", "4,6,8", "--candidates", "1,2")
    assert code == 0
    assert report["results"]["fit"]["difference"] == 2


def test_verify_structure_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, report = run_json(
        capsys, "verify-structure", "--group", "3", "--bound", "10",
        "--report", str(out_file),
    )
    assert code == 0
    assert report["results"]["max_bound"] == 0
    assert json.loads(out_file.read_text())["max_bound"] == 0


def test_numerical_subcommand(capsys):
    code, report = run_json(capsys, "numerical", "--gens", "3,5,7", "--n", "40")
    assert code == 0
    assert report["results"]["elasticity"] == "7/3"
    assert report["results"]["min_delta"] == 2
    assert report["results"]["member"] is True


def test_numerical_refuses_a_span_past_the_cap_at_once(capsys):
    # L(10**12) of <6,10,15> would span 10**11 lengths; nothing is tabulated
    started = time.perf_counter()
    code, report = run_json(capsys, "numerical", "--gens", "6,10,15", "--n", "1000000000000")
    assert time.perf_counter() - started < 1
    assert code == 3
    assert report["error"]["type"] == "resource-limit"
    assert report["error"]["bound"] == "numerical table"


def test_transfer_check_subcommand(capsys):
    code, report = run_json(
        capsys, "transfer-check", "--group", "3", "--primes-per-class", "2",
        "--samples", "25", "--seed", "42",
    )
    assert code == 0
    assert report["results"]["passes"] == 25


def test_verify_prop62(capsys):
    code, report = run_json(capsys, "verify", "prop6.2", "--group", "4", "--bound", "10")
    assert code == 0
    assert report["results"]["failed"] == 0


def test_verify_explicit_zero_k_max_is_rejected(capsys):
    # k_max 0 reaches unions_range, which rejects k < 1; it is not the default 6
    code, report = run_json(capsys, "verify", "prop6.1", "--group", "3", "--k-max", "0")
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"


def test_verify_thm631_bound_zero_checks_the_empty_sequence(capsys):
    code, report = run_json(capsys, "verify", "thm6.3.1", "--group", "2", "--bound", "0")
    assert code == 0
    (verdict,) = report["verdicts"]
    assert verdict["pass"] is True
    assert verdict["witness"] == "|A| <= 0: 1 checked, failures 0"


def test_verify_explicit_zero_bound_is_kept(capsys):
    code, report = run_json(capsys, "verify", "prop2.3", "--group", "3", "--bound", "0")
    assert code == 0
    assert report["verdicts"][0]["name"] == "prop2.3 over C3 (bound 0)"


def test_verify_too_small_bound_is_undecided(capsys):
    # no C3 sequence of length at most 5 has two lengths, so neither the
    # Delta verdict of prop6.1 nor the C3 verdict of prop2.3 can be passed
    # or failed; nor can the rho_k and chain verdicts of prop6.1 when
    # --k-max leaves their k range empty
    for suite, option, verdicts in (
        ("prop6.1", ("--bound", "5"), ["prop6.1 Delta interval from 1"]),
        ("prop2.3", ("--bound", "5"), ["prop2.3 over C3 (bound 5)"]),
        ("prop6.1", ("--k-max", "1"), ["prop6.1 rho_2k = k*D", "prop6.1 rho_2k+1 bounds",
                                       "prop6.1 lambda/rho chain"]),
        ("prop6.1", ("--k-max", "2"), ["prop6.1 rho_2k+1 bounds"]),
    ):
        code, report = run_json(capsys, "verify", suite, "--group", "3", *option)
        assert code == 0
        assert (report["results"]["failed"], report["results"]["undecided"]) == (0, len(verdicts))
        undecided = [v["name"] for v in report["verdicts"] if v["pass"] is None]
        assert all(name.startswith(verdict) for name, verdict in zip(undecided, verdicts))
        code, out = run(capsys, "verify", suite, "--group", "3", *option, "--format", "text")
        assert code == 0
        assert all(f"[UNDECIDED] {verdict}" in out for verdict in verdicts)


def test_verify_prop23_half_factorial_group_passes(capsys):
    # B(C2) is half-factorial: its empty distance set is the answer
    code, report = run_json(capsys, "verify", "prop2.3", "--group", "2")
    assert code == 0
    assert (report["results"]["failed"], report["results"]["undecided"]) == (0, 0)
    assert report["verdicts"][0] == {
        "name": "prop2.3 over C2 (bound 10)", "pass": True,
        "witness": "empty distance set (half-factorial group)"}


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "invariant_factors": 3},
    lambda doc: {**doc, "subset": [0, 1, 2]},
])
def test_malformed_cache_file_is_recomputed(capsys, tmp_path, edit):
    code, first = run_json(capsys, "atoms", "--group", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.glob("atoms_*.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, again = run_json(capsys, "atoms", "--group", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert again["results"] == first["results"]


def test_node_limit_holds_for_atoms_from_the_cache(capsys, tmp_path):
    # the cache file records the walk's node count: a warm run is refused
    # where a cold one is, and reports the nodes of the walk it read
    argv = ["atoms", "--group", "2,2,4", "--cache-dir", str(tmp_path)]
    code, cold = run_json(capsys, *argv)
    assert code == 0
    nodes = cold["resources"]["atom_lattice_nodes"]
    code, warm = run_json(capsys, *argv)
    assert code == 0
    assert warm["results"]["count"] == 698
    assert warm["resources"]["atom_lattice_nodes"] == nodes > 10
    code, refused = run_json(capsys, *argv, "--node-limit", "10")
    assert code == 3
    assert refused["error"]["bound"] == "lattice node"
    code, _ = run_json(capsys, *argv, "--node-limit", str(nodes))
    assert code == 0


def test_exit_code_invalid_arguments(capsys):
    code, report = run_json(capsys, "davenport", "--group", "0")
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"


@pytest.mark.parametrize("argv", [
    ["system", "--group", "3", "--bound", "-1"],
    ["transfer-check", "--group", "3", "--samples", "-1"],
    ["transfer-check", "--group", "3", "--max-word-length", "-4"],
])
def test_negative_option_is_invalid_argument(capsys, argv):
    # a count below 0 is refused, not clamped and echoed as given
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"


def test_transfer_check_refuses_word_lengths_that_draw_only_the_empty_word(capsys):
    code, report = run_json(capsys, "transfer-check", "--group", "3", "--max-word-length", "1")
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"
    assert "at least 2" in report["error"]["reason"]


@pytest.mark.parametrize("argv, name", [
    (["verify", "lemma4.2", "--group", "3"], "lemma4.2 length preservation, C3, 2 primes/class"),
    (["verify", "lemma4.2", "--group", "2"], "lemma4.2 length preservation, C2, 2 primes/class"),
    (["transfer-check", "--group", "3"], "lemma4.2 length preservation, C3"),
])
def test_zero_samples_leave_the_sampled_verdict_undecided(capsys, argv, name):
    # a sampled check that drew nothing decides nothing; the atom
    # correspondence is no sample and still passes
    code, report = run_json(capsys, *argv, "--samples", "0")
    assert code == 0
    verdicts = {v["name"]: v["pass"] for v in report["verdicts"]}
    assert verdicts.pop(name) is None
    assert all(verdicts.values())


def test_exit_code_resource_limit(capsys):
    code, report = run_json(
        capsys, "atoms", "--group", "3,3", "--node-limit", "5"
    )
    assert code == 3
    assert report["error"]["type"] == "resource-limit"
    assert report["error"]["bound"] == "lattice node"


def test_exit_code_verification_failure(capsys, monkeypatch):
    import zslen.verify
    from zslen.verify import Verdict

    # cmd_verify imports run_suite when it runs, so it reads the patched one
    monkeypatch.setattr(
        zslen.verify, "run_suite", lambda *a, **k: [Verdict("forced", False, "x")]
    )
    code, report = run_json(capsys, "verify", "prop2.3", "--group", "3")
    assert code == 1
    assert report["verdicts"][0]["pass"] is False


def test_prop65_out_of_scope_is_noted_pass(capsys):
    code, report = run_json(capsys, "verify", "prop6.5", "--group", "3")
    assert code == 0
    assert "out of scope" in report["verdicts"][0]["witness"]


def test_csv_rejected_for_non_tabular(capsys, monkeypatch):
    def compute(*args):
        raise AssertionError("davenport ran for a refused format")

    monkeypatch.setattr(cli_mod, "davenport", compute)
    code, report = run_json(capsys, "davenport", "--group", "3", "--format", "csv")
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"
    assert report["config"] == {}
    assert "results" not in report


def test_stable_flag_byte_identical(capsys):
    code1, out1 = run(capsys, "system", "--group", "3", "--bound", "8", "--stable")
    code2, out2 = run(capsys, "system", "--group", "3", "--bound", "8", "--stable")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "timing" not in out1


def test_text_format_verdicts(capsys):
    code, out = run(capsys, "verify", "prop2.3", "--group", "3", "--format", "text")
    assert code == 0
    assert "[PASS]" in out


def test_exit_code_internal_error(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod, "cmd_lengths", boom)
    code, report = run_json(capsys, "lengths", "--group", "3", "--sequence", "[1:3]")
    assert code == 4
    assert report["error"]["type"] == "internal-error"
    assert report["error"]["reason"] == "RuntimeError: forced failure"
    assert report["error"]["where"].startswith("test_cli.py:")
    assert report["command"] == "lengths"
    assert "results" not in report


def test_out_of_memory_exits_4_without_an_import(capsys, monkeypatch):
    # memory that runs out makes any import fail, so the report is built
    # without one
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "cmd_lengths", exhaust)
    monkeypatch.setitem(sys.modules, "traceback", None)
    code, report = run_json(capsys, "lengths", "--group", "2", "--sequence", "[1:8]")
    assert code == 4
    assert report["error"]["type"] == "internal-error"
    assert report["error"]["reason"] == "MemoryError: "
    line = exhaust.__code__.co_firstlineno + 1
    assert report["error"]["where"] == f"test_cli.py:{line} in exhaust"
    assert "results" not in report


def test_transfer_check_reports_each_failure(capsys, monkeypatch):
    import zslen.transfer

    real = zslen.transfer.direct_length_set

    def shifted(instance, word):
        # one more than the truth on every nonempty word
        ls = real(instance, word)
        return LengthSet.of(x + 1 for x in ls.values) if any(word) else ls

    monkeypatch.setattr(zslen.transfer, "direct_length_set", shifted)
    code, report = run_json(capsys, "transfer-check", "--group", "3", "--samples", "12",
                            "--seed", "3")
    results = report["results"]
    assert code == 1
    assert 0 < results["passes"] < results["samples"] == 12
    assert len(results["failures"]) == 12 - results["passes"]
    for failure in results["failures"]:
        assert set(failure) == {"word", "direct", "transferred"}
        assert re.fullmatch(r"\[p\d+\.\d+:\d+(,p\d+\.\d+:\d+)*\]", failure["word"])
        assert failure["direct"] == [x + 1 for x in failure["transferred"]]
    verdict = report["verdicts"][0]
    assert verdict["name"].startswith("lemma4.2 length preservation")
    assert verdict["pass"] is False
    assert verdict["witness"] == f"{results['passes']}/12 samples, seed 3"


@pytest.mark.parametrize("mods", [[1], [2]], ids=["C1", "C2"])
def test_prop61_finds_delta_empty_on_half_factorial_groups(mods):
    from zslen.verify import verify_prop_6_1

    group = make_group(mods)
    verdicts = verify_prop_6_1(group, 6, 10)
    last = verdicts[-1]
    assert (last.name, last.passed, last.witness) == (
        f"prop6.1 Delta empty for {group}", True, "distances []")
    assert all(v.passed for v in verdicts)


def test_long_sequence_gets_an_exact_answer(capsys):
    code, report = run_json(capsys, "lengths", "--group", "3", "--sequence", "[0:3000]")
    assert code == 0
    assert report["results"]["lengths"] == [3000]


# -- fuzzing: every input gets a documented exit code and a JSON report ---------

FUZZ_GROUPS = ["2", "3", "4", "5", "6", "2,2", "2,4", "3,3"]
MALFORMED_GROUPS = ["", "0", "1", "-3", "3,x", "2,,2", "9999", "2,3,5,7,11"]


@st.composite
def sequence_text(draw, group):
    moduli = [int(t) for t in group.split(",")]
    if draw(st.booleans()):
        # short malformed text: at most four digits in a row, so a
        # multiplicity that parses stays small
        return draw(st.text(alphabet="[]:,()0123 -x", max_size=8))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, n - 1) for n in moduli]), st.integers(1, 8)),
        max_size=4,
    ))
    def element(coords):
        return str(coords[0]) if len(coords) == 1 else "(" + ",".join(map(str, coords)) + ")"
    return "[" + ",".join(f"{element(c)}:{m}" for c, m in terms) + "]"


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["lengths", "system", "unions", "delta"]))
    valid_group = draw(st.sampled_from(FUZZ_GROUPS))
    group = draw(st.sampled_from(MALFORMED_GROUPS)) if draw(st.integers(0, 4)) == 0 else valid_group
    argv = [command, f"--group={group}", "--format", "json", "--stable"]
    if command == "lengths":
        argv.append(f"--sequence={draw(sequence_text(valid_group))}")
    elif command == "unions":
        argv.append(f"--k={draw(st.sampled_from(['1', '3', '1..4', '0', '3..1', 'x', '2..']))}")
    else:
        argv.append(f"--bound={draw(st.integers(-2, 6))}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--memo-limit={draw(st.integers(0, 12))}")
    usage = draw(st.integers(0, 5))
    if usage == 0:
        # an option the command does not take, or one no command takes
        argv.append(draw(st.sampled_from(
            ["--seed=1", "--k-max=3", "--subset=all", "--sequence=[1:2]", "--bogus", "-x"])))
    elif usage == 1:
        del argv[draw(st.integers(1, len(argv) - 1))]  # may drop a required option
    return argv


@given(cli_argv())
@settings(max_examples=80, deadline=None)
def test_cli_fuzz_documented_exit_and_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}, argv
    report = json.loads(out.getvalue())
    assert report["command"] == argv[0]
    if code == 2:
        assert report["error"]["type"] == "invalid-argument", argv


# -- option sets: each command and verify suite accepts only what it reads -------

# {command: option dests}, and {"verify SUITE": option dests} for each suite.
# An option enters this table only with a handler that reads it.
OPTION_TABLE = {
    "atoms": {"format", "stable", "group", "max_order", "node_limit", "cache_dir", "subset"},
    "davenport": {"format", "stable", "group", "max_order", "node_limit", "cache_dir"},
    "lengths": {"format", "stable", "group", "max_order", "node_limit", "cache_dir",
                "memo_limit", "sequence"},
    "system": {"format", "stable", "group", "max_order", "node_limit", "memo_limit",
               "subset", "bound"},
    "unions": {"format", "stable", "group", "max_order", "node_limit", "memo_limit", "k"},
    "delta": {"format", "stable", "group", "max_order", "node_limit", "memo_limit",
              "subset", "bound"},
    "delta-star": {"format", "stable", "group", "max_order", "node_limit"},
    "fit": {"format", "stable", "set", "d", "candidates", "period"},
    "verify-structure": {"format", "stable", "group", "max_order", "bound", "report"},
    "numerical": {"format", "stable", "gens", "n"},
    "transfer-check": {"format", "stable", "group", "max_order", "node_limit", "memo_limit",
                       "subset", "seed", "primes_per_class", "samples", "max_word_length"},
    "verify": set(),
    "verify prop2.3": {"format", "stable", "group", "max_order", "bound"},
    "verify prop6.1": {"format", "stable", "group", "max_order", "k_max", "bound"},
    "verify prop6.2": {"format", "stable", "group", "max_order", "bound"},
    "verify prop6.5": {"format", "stable", "group", "max_order"},
    "verify thm2.6": {"format", "stable", "group", "max_order", "k_max"},
    "verify thm5.3": {"format", "stable", "group", "max_order", "bound"},
    "verify thm6.3.1": {"format", "stable", "group", "max_order", "bound"},
    "verify lemma4.2": {"format", "stable", "group", "max_order", "primes_per_class",
                        "samples", "seed"},
    "verify all": {"format", "stable", "small", "seed"},
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _option_dests(parser):
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


def test_option_sets_match_the_table():
    table = {}
    for name, parser in _subcommands(cli_mod.build_parser()).items():
        table[name] = _option_dests(parser)
        if name == "verify":
            for suite, suite_parser in _subcommands(parser).items():
                table[f"verify {suite}"] = _option_dests(suite_parser)
    assert table == OPTION_TABLE


def test_each_suite_function_reads_exactly_its_options():
    # the CLI builds a suite's options from SUITES and passes them all by
    # keyword, so an option its function does not take would exit 4
    from zslen import verify

    for name, suite in SUITES.items():
        params = set(inspect.signature(getattr(verify, suite.run)).parameters)
        assert ("group" in params) == suite.on_group, name
        assert params - {"group"} == set(suite.options), name


# a valid invocation of each command and suite, without the option under test
BASE_ARGV = {
    "atoms": ["atoms", "--group", "3"],
    "davenport": ["davenport", "--group", "3"],
    "lengths": ["lengths", "--group", "3", "--sequence", "[1:3]"],
    "system": ["system", "--group", "3", "--bound", "3"],
    "unions": ["unions", "--group", "3", "--k", "1"],
    "delta": ["delta", "--group", "3", "--bound", "3"],
    "delta-star": ["delta-star", "--group", "3"],
    "fit": ["fit", "--set", "2,3", "--d", "1"],
    "verify-structure": ["verify-structure", "--group", "3", "--bound", "3"],
    "numerical": ["numerical", "--gens", "3,5"],
    "transfer-check": ["transfer-check", "--group", "3", "--samples", "1"],
    "verify": ["verify", "prop2.3", "--group", "3"],
    **{f"verify {suite}": ["verify", suite, "--group", "3"]
       for suite in ("prop2.3", "prop6.1", "prop6.2", "prop6.5", "thm2.6", "thm5.3",
                     "thm6.3.1", "lemma4.2")},
    "verify all": ["verify", "all"],
}


TABULAR = {"system", "unions"}  # the commands that offer csv
FORMAT_CASES = [(command, fmt) for command in BASE_ARGV for fmt in ("json", "csv", "text")]


@pytest.mark.parametrize("command, fmt", FORMAT_CASES,
                         ids=[f"{command} {fmt}" for command, fmt in FORMAT_CASES])
def test_each_format_answers_and_csv_elsewhere_is_a_usage_error(capsys, command, fmt):
    code, out = run(capsys, *BASE_ARGV[command], "--format", fmt)
    if fmt != "csv" or command in TABULAR:
        assert code in (0, 1)
        return
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "invalid-argument"
    assert report["config"] == {}
    assert "results" not in report


def test_each_format_repeats_itself_in_one_process(capsys, fresh_atom_cache):
    # from empty caches, as a fresh process starts, a second pass over the
    # cases prints what the first did, though the first filled every cache
    # they use: the counters are each command's own work, not cache sizes
    def each_case():
        return {f"{command} {fmt}": run(capsys, *BASE_ARGV[command], "--format", fmt, "--stable")
                for command, fmt in FORMAT_CASES}

    assert each_case() == each_case()


# the commands that walk atoms, and whether an engine runs for them
WALKING = {command: command not in ("atoms", "davenport", "delta-star")
           for command in BASE_ARGV if command not in ("fit", "numerical")}


@pytest.mark.parametrize("command", WALKING)
def test_each_walking_command_reports_its_work(capsys, command):
    code, report = run_json(capsys, *BASE_ARGV[command])
    assert code == 0
    assert report["resources"]["atom_lattice_nodes"] > 0
    assert (report["resources"]["memo_entries"] > 0) == WALKING[command]


OPTION_VALUE = {
    "--cache-dir": ["cache"], "--node-limit": ["100"], "--memo-limit": ["100"],
    "--max-order": ["64"], "--seed": ["1"], "--group": ["3"], "--bound": ["3"],
    "--k-max": ["3"], "--samples": ["1"], "--primes-per-class": ["2"], "--small": [],
}
SUITE_CHOICES = ("--group", "--max-order", "--bound", "--k-max", "--samples",
                 "--primes-per-class", "--small", "--seed")
REMOVED = [
    *[(cmd, opt) for cmd in ("atoms", "davenport") for opt in ("--memo-limit", "--seed")],
    *[(cmd, "--seed") for cmd in ("lengths", "system", "unions", "delta")],
    # the whole-monoid scans walk A(G0) themselves and read no atom cache
    *[(cmd, "--cache-dir") for cmd in ("system", "unions", "delta")],
    *[("delta-star", opt) for opt in ("--cache-dir", "--seed", "--bound", "--memo-limit")],
    *[(cmd, opt) for cmd in ("fit", "numerical")
      for opt in ("--cache-dir", "--node-limit", "--memo-limit", "--max-order", "--seed")],
    *[("verify-structure", opt)
      for opt in ("--cache-dir", "--node-limit", "--memo-limit", "--seed")],
    ("transfer-check", "--cache-dir"),
    *[("verify", opt) for opt in ("--cache-dir", "--node-limit", "--memo-limit")],
    *[(f"verify {suite}", opt) for suite, kept in (
        ("prop2.3", {"--group", "--max-order", "--bound"}),
        ("prop6.1", {"--group", "--max-order", "--k-max", "--bound"}),
        ("prop6.2", {"--group", "--max-order", "--bound"}),
        ("prop6.5", {"--group", "--max-order"}),
        ("thm2.6", {"--group", "--max-order", "--k-max"}),
        ("thm5.3", {"--group", "--max-order", "--bound"}),
        ("thm6.3.1", {"--group", "--max-order", "--bound"}),
        ("lemma4.2", {"--group", "--max-order", "--primes-per-class", "--samples", "--seed"}),
        ("all", {"--small", "--seed"}),
    ) for opt in SUITE_CHOICES if opt not in kept],
]


def test_removed_option_count():
    # 33 command-level options and 44 suite options that nothing read
    assert len(REMOVED) == len(set(REMOVED)) == 77


@pytest.mark.parametrize("command, option", REMOVED)
def test_option_a_command_does_not_read_is_a_usage_error(capsys, command, option):
    base = BASE_ARGV[command]
    cli_mod.build_parser().parse_args(base)  # valid without the option
    code = main([*base, option, *OPTION_VALUE[option]])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["error"]["type"] == "invalid-argument"
    assert option in report["error"]["reason"]
    assert report["config"] == {}
    assert option in captured.err
    assert "usage:" in captured.err


def test_fit_takes_d_or_candidates_not_both(capsys):
    code = main(["fit", "--set", "2,3", "--d", "1", "--candidates", "1"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["command"] == "fit"
    assert report["error"] == {
        "type": "invalid-argument",
        "reason": "argument --candidates: not allowed with argument --d",
    }
    assert "not allowed with" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["atoms"], "the following arguments are required: --group"),
    (["atoms", "--group", "3", "--bogus"], "unrecognized arguments: --bogus"),
    (["atoms", "--group", "3", "--node-limit", "x"], "argument --node-limit: invalid int value"),
    (["verify", "prop9.9"], "argument suite: invalid choice: 'prop9.9'"),
    ([], "the following arguments are required: command"),
])
def test_unparsed_command_line_gets_a_report(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["command"] == (argv[0] if argv else None)
    assert report["config"] == {}
    assert report["error"]["type"] == "invalid-argument"
    assert report["error"]["reason"].startswith(message)
    assert "usage:" in captured.err and message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["atoms", "--help"]])
def test_help_and_version_exit_0_without_a_report(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "error" not in capsys.readouterr().out


def test_fit_period_needs_d(capsys):
    code, report = run_json(capsys, "fit", "--set", "2,3", "--candidates", "1",
                            "--period", "0,1")
    assert code == 2
    assert report["error"] == {"type": "invalid-argument", "reason": "--period needs --d"}


CEILINGS = [
    *[(argv, "--node-limit") for argv in (
        ["atoms", "--group", "3,3"],
        ["davenport", "--group", "3"],
        ["lengths", "--group", "3", "--sequence", "[1:3,2:3]"],
        ["system", "--group", "3", "--bound", "6"],
        ["unions", "--group", "3", "--k", "1..3"],
        ["delta", "--group", "3", "--bound", "6"],
        ["delta-star", "--group", "3"],
        ["transfer-check", "--group", "3", "--samples", "5"],
    )],
    *[(argv, "--memo-limit") for argv in (
        ["lengths", "--group", "3", "--sequence", "[1:3,2:3]"],
        ["system", "--group", "3", "--bound", "6"],
        ["unions", "--group", "3", "--k", "1..3"],
        ["delta", "--group", "3", "--bound", "6"],
        ["transfer-check", "--group", "3", "--samples", "5"],
    )],
    *[(argv, "--max-order") for argv in (
        ["atoms", "--group", "3"],
        ["verify-structure", "--group", "3", "--bound", "4"],
        ["verify", "prop2.3", "--group", "3"],
    )],
]


@pytest.mark.parametrize("argv, ceiling", CEILINGS,
                         ids=[f"{argv[0]} {ceiling}" for argv, ceiling in CEILINGS])
def test_kept_ceiling_bounds_the_work(capsys, argv, ceiling):
    # main empties the atom registry before each command, so no engine
    # warmed by an earlier command answers hits under the memo limit
    code, report = run_json(capsys, *argv, ceiling, "1")
    assert code == 3
    assert report["error"]["type"] == "resource-limit"


def test_verify_config_echoes_the_options_the_suite_read(capsys, monkeypatch):
    calls = []

    def record(*args, **options):
        calls.append((args, options))
        return []

    import zslen.verify

    monkeypatch.setattr(zslen.verify, "run_suite", record)
    code, report = run_json(capsys, "verify", "all", "--stable")
    assert code == 0
    assert report["config"] == {"seed": 0, "small": False, "suite": "all"}
    assert calls[-1] == (("all", None), {"small": False, "seed": 0})
    # a left-out option is echoed with the suite's default, not null
    code, report = run_json(capsys, "verify", "prop6.1", "--group", "3", "--k-max", "0")
    assert report["config"] == {"bound": 10, "group": "3", "k_max": 0, "max_order": 64,
                                "suite": "prop6.1"}
    assert calls[-1][1] == {"k_max": 0, "bound": 10}


def test_run_suite_refuses_an_option_the_suite_does_not_read():
    from zslen.verify import run_suite

    with pytest.raises(InvalidArgumentError, match="does not read"):
        run_suite("prop6.5", make_group([3]), bound=4)
    with pytest.raises(InvalidArgumentError, match="requires"):
        run_suite("prop2.3")
    with pytest.raises(InvalidArgumentError, match="takes no"):
        run_suite("all", make_group([3]))


def test_unwritable_report_path_is_invalid_argument(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, report = run_json(capsys, "verify-structure", "--group", "3", "--bound", "4",
                            "--report", str(path))
    assert code == 2
    assert report["error"]["type"] == "invalid-argument"
    assert str(path) in report["error"]["reason"]


def test_unwritable_cache_dir_warns_and_answers(capsys, caplog, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with caplog.at_level(logging.WARNING):
        code, report = run_json(capsys, "atoms", "--group", "3", "--cache-dir", str(blocker))
    assert code == 0
    assert report["results"]["count"] == 4
    assert "cannot store atom cache" in caplog.text
