"""Pinned `--stable` outputs: each case runs through cli.main in-process and
must exit with its code and print json whose sha256 is pinned here.

A change that means to alter one of these outputs re-pins its digest and
says which case changed and why.  `verify all` was re-pinned when the
forward pass of `system` stopped storing its products: its
`resources.memo_entries` went 9,280 -> 11,096, as a pass that runs after
U_k queries on the same engine now charges every product it forms, also
those the queries had stored.  `system --group 3 --bound 12 --memo-limit
50` fits the cap (the seed entry and 30 products), and bound 20 is
refused with exit 3.  The two `numerical` cases were pinned from the
table that ran to n: the second, n = 400000, is now read off one period
of it by the shift identity with the same bytes.
"""

import hashlib

import pytest

from zslen.cli import main

# (argv, exit code, sha256 of the json stdout)
CASES = [
    ("system --group 3,3 --bound 10", 0,
     "f8587550b7544f469c90e9121e33afcc22bac61d20e07cb9bed5d9d0587c6b67"),
    ("system --group 2,4 --bound 11", 0,
     "3e56cbd0127b4a3f0755d99bf7f55fb9aa4296a0bb06dad9fb938ae872691fa9"),
    ("delta --group 2,2,2 --bound 14", 0,
     "03492783991c94956a7f00f381830dbd44c32dc80036a780cecd4dcc138a123e"),
    ("verify-structure --group 3,3 --bound 12", 0,
     "9d7b6c0c6c2940c371603b2ddd9510351576df2dd3a51244eea6e4b10037f143"),
    ("verify thm6.3.1 --group 4 --bound 12", 0,
     "e89fb620263e26ebca718281fba13e72c9e5322a14d3a2fb8d78cc6b6c7ebbd5"),
    ("system --group 3 --bound 12 --memo-limit 50", 0,
     "6d5e68ec79c21aa8ce7196dc4627edae5872befd23e1f6e22596c7a03a48dba5"),
    ("system --group 3 --bound 20 --memo-limit 50", 3,
     "e4bfc9007f9231ba7a5d37ca498d8f5fb18224b18c0acfc4d2fe9fe6fd341589"),
    ("verify all", 0,
     "83dfc51381db58bf459bf2ff6c991e593e7c09a4253f98c07bd025f8137e079f"),
    ("numerical --gens 3,5,7 --n 40", 0,
     "248a8397de2d9a7c0c65516466a35121f4fcad49e20e8483373ff0266164a548"),
    ("numerical --gens 6,10,15 --n 400000", 0,
     "283af5b96c161029bf0e9b65c7ef1c289219e6e2888047dc8a026e8eb44ff110"),
]


@pytest.mark.parametrize("argv, code, digest", CASES, ids=[argv for argv, _, _ in CASES])
def test_stable_output_is_pinned(capsys, argv, code, digest):
    got = main([*argv.split(), "--format", "json", "--stable"])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
