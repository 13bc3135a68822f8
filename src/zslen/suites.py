"""The table of verification suites, apart from their code.

`verify.run_suite` runs a suite from `SUITES`, and the command line builds
each suite's options from it without importing the suites' code.
"""

from __future__ import annotations

from typing import NamedTuple


class Suite(NamedTuple):
    """A named suite: the name of its function in zslen.verify, the options
    it reads with their defaults, and whether it runs on one given group."""

    run: str
    options: dict[str, int | bool]
    on_group: bool = True


SUITES = {
    "prop2.3": Suite("verify_prop_2_3", {"bound": 10}),
    "prop6.1": Suite("verify_prop_6_1", {"k_max": 6, "bound": 10}),
    "prop6.2": Suite("verify_prop_6_2", {"bound": 10}),
    "prop6.5": Suite("verify_prop_6_5", {}),
    "thm2.6": Suite("verify_thm_2_6", {"k_max": 10}),
    "thm5.3": Suite("verify_thm_5_3", {"bound": 10}),
    "thm6.3.1": Suite("verify_thm_6_3_1", {"bound": 10}),
    "lemma4.2": Suite("verify_lemma_4_2", {"primes_per_class": 2, "samples": 100, "seed": 0}),
    "all": Suite("_run_all", {"small": False, "seed": 0}, on_group=False),
}
