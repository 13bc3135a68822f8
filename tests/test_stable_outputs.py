"""Pinned `--stable` outputs: each case of stable_outputs.json runs through
cli.main in-process and must exit with its code and print stdout whose
sha256 is pinned there.  The cases cover every command of
test_cli.BASE_ARGV in json, csv and text, and larger runs of `system`,
`delta-star`, `unions`, `atoms` and `verify`.

A change that means to alter one of these outputs re-pins the file with
`python tests/pin_stable_outputs.py --write`, which prints each case that
changed, and says which cases changed and why.  `verify all` was
re-pinned when the forward pass of `system` stopped storing its products:
its `resources.memo_entries` went 9,280 -> 11,096, as a pass that runs
after U_k queries on the same engine now charges every product it forms,
also those the queries had stored.  `system --group 3 --bound 12
--memo-limit 50` fits the cap (the seed entry and 30 products), and bound
20 is refused with exit 3.  The two `numerical` cases were pinned from
the table that ran to n: the second, n = 400000, is now read off one
period of it by the shift identity with the same bytes.  The `delta-star`
json cases were re-pinned when Delta*(G) came to read one walk of A(G):
`resources.atom_lattice_nodes` counts that walk, not one walk per subset.
Five refusals pin exit 3 and the error report of a cap, in json and text
(an error report prints the same JSON in both): `atoms` and `davenport`
of C2+C2+C4 under `--node-limit 1` (bound `lattice node`), and
`lengths`, `system` and `unions` under `--memo-limit 1` (bound `memo
table`).
"""

import pytest
from pin_stable_outputs import cases, load, replay

CORPUS = load()
CASES = cases(CORPUS)
# the command line, with the default json format left out
IDS = [argv if fmt == "json" else f"{argv} --format {fmt}" for argv, fmt in CASES]


@pytest.mark.parametrize("argv, fmt", CASES, ids=IDS)
def test_stable_output_is_pinned(argv, fmt):
    assert replay(argv, fmt) == CORPUS[argv][fmt]


def test_the_corpus_covers_each_command_in_each_format():
    from test_cli import BASE_ARGV

    for argv in BASE_ARGV.values():
        assert set(CORPUS[" ".join(argv)]) == {"json", "csv", "text"}, argv
