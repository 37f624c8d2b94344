"""Golden CLI transcripts of the `circparikh` commands: the cases, how one is
recorded, and a script that writes them all to `tests/golden/`.

A case runs `circparikh.cli.main(argv)` in process, optionally with one
package function swapped for a failing stand-in, and records stdout,
stderr and the exit code.  The run-dependent `elapsed=` field is dropped.
`tests/test_golden.py` compares each case with its file and never writes
one; regenerating is a deliberate step:

    PYTHONPATH=src python tests/golden_transcripts.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from circparikh import SUITE_NAMES, cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TINY = ("--max-length", "4", "--max-power", "2", "--max-split", "2")
_ELAPSED = re.compile(r" elapsed=\S+")


class Case(NamedTuple):
    name: str
    argv: tuple
    # (module, attribute, make(original) -> stand-in, what the stand-in does)
    swap: tuple | None = None


_POWER_FAILS_AT_2 = (
    "circparikh.circular",
    "_power_holds",
    lambda holds: lambda cw, p, *rest: p != 2 and holds(cw, p, *rest),
    "False for p = 2",
)
_LADDER_SUMS_ARE_WORDS = (
    "circparikh.circular",
    "_ladder_sums",
    lambda sums: lambda cw: cw.canonical,
    "the canonical word",
)
# Turning ab into ba lowers |w|_ab by one, so each such result fails.
_E1_ALSO_SWAPS_AB = (
    "circparikh.enumeration",
    "apply_e1",
    lambda e1: lambda alphabet, w: e1(alphabet, w) | {w.replace("ab", "ba", 1)} - {w},
    "also w with its first ab turned into ba",
)

CASES = (
    *(Case(f"{s}-default", ("verify", "--suite", s)) for s in SUITE_NAMES),
    *(Case(f"{s}-tiny", ("verify", "--suite", s, *TINY)) for s in SUITE_NAMES),
    Case("naive-failures-at-caps", (
        "verify", "--suite", "naive-failures",
        "--max-length", "12", "--max-split", "8", "--max-power", "16",
    )),
    Case("usage-unknown-suite", ("verify", "--suite", "bogus")),
    Case("usage-unknown-suite-over-cap", ("verify", "--suite", "bogus", "--max-length", "13")),
    *(
        Case(f"usage-{suite}-{flag[2:]}={value}", ("verify", "--suite", suite, flag, value))
        for suite, flag, value in (
            ("power", "--max-length", "-1"),
            ("power", "--max-power", "0"),
            ("ce1-iff", "--max-split", "-1"),
            ("distinct-count", "--max-length", "-3"),
            ("naive-failures", "--failure-cap", "-1"),
            ("binary-closed-form", "--max-length", "17"),
            ("power", "--max-length", "13"),
            ("ce2-iff", "--max-split", "9"),
            ("power", "--max-power", "17"),
            ("linear-rules", "--max-length", "1"),
        )
    ),
    Case("failing-power", ("verify", "--suite", "power"), _POWER_FAILS_AT_2),
    Case(
        "failing-power-cap-0",
        ("verify", "--suite", "power", "--failure-cap", "0"),
        _POWER_FAILS_AT_2,
    ),
    Case("failing-ce2-iff", ("verify", "--suite", "ce2-iff"), _LADDER_SUMS_ARE_WORDS),
    Case("failing-linear-rules", ("verify", "--suite", "linear-rules"), _E1_ALSO_SWAPS_AB),
    # abbcaaacbaca has valid and invalid sites of both rules.
    *(
        Case(f"rules-{rule}-{word}", ("rules", "--rule", rule, word))
        for word in ("abacca", "cbabbcba", "abbcaaacbaca")
        for rule in ("CE1", "CE2", "both")
    ),
    Case("rules-no-applications", ("rules", "aaaacbbc")),
    *(
        Case(f"rules-closure-{word}", ("rules", "--closure", word))
        for word in ("abacca", "cbabbcba", "aaabbbb")
    ),
    Case("rules-closure-max-steps=3", ("rules", "--closure", "--max-steps", "3", "aaaabbbbb")),
    Case("rules-closure-dot-summary", ("rules", "--closure", "--dot", "/dev/null", "aaaabbbbb")),
    Case("usage-rules-binary-alphabet", ("rules", "-a", "a,b", "abab")),
    Case(
        "usage-rules-unwritable-dot",
        ("rules", "--closure", "--dot", "missing-directory/closure.dot", "abacca"),
    ),
    Case("usage-rules-closure-max-steps=0", ("rules", "--closure", "--max-steps", "0", "abacca")),
    Case("usage-rules-max-steps=-5", ("rules", "--max-steps", "-5", "abacca")),
    Case("usage-rules-dot-without-closure", ("rules", "--dot", "closure.dot", "abacca")),
    # The README CLI examples of count, matrix --circular and mequiv.
    Case("count-direct-cabacb", ("count", "-a", "a,b,c", "--mode", "direct", "[cabacb]", "abc")),
    Case("count-average-abcabc", ("count", "-a", "a,b,c", "--mode", "average", "[abcabc]", "ab")),
    Case("count-linear-bcbcc", ("count", "-a", "a,b,c", "--mode", "linear", "bcbcc", "bc")),
    Case("matrix-circular-cabacb", ("matrix", "-a", "a,b,c", "--circular", "cabacb")),
    Case("mequiv-abab-bbaa", ("mequiv", "abab", "bbaa")),
    Case("mequiv-acb-cab", ("mequiv", "acb", "cab")),
    *(
        Case(
            f"classes-{spec.replace(',', '')}-{fmt}",
            ("classes", "-a", spec, "--length", "4", "--format", fmt),
        )
        for spec in ("a,b", "a,b,c", "c,a,b", "a,b,c,d")
        for fmt in ("text", "json", "csv")
    ),
    # No negative minor over a,b,c up to length 9; the [abcd] witness over a,b,c,d.
    Case("search-minor-abc-9", ("search-minor", "-a", "a,b,c", "--max-length", "9")),
    Case("search-minor-abcd-6", ("search-minor", "-a", "a,b,c,d", "--max-length", "6")),
    # Keys with denominators of 7 (246 classes); the 2x2-only binary minor set.
    Case("classes-abc-7-text", ("classes", "-a", "a,b,c", "--length", "7")),
    Case("search-minor-ab-12", ("search-minor", "-a", "a,b", "--max-length", "12")),
    # A foreign symbol exits 64 naming the first one in word order.
    Case("usage-count-foreign-word", ("count", "[abzcy]", "ab")),
    Case("usage-count-foreign-subword", ("count", "--mode", "direct", "[abc]", "ad")),
    Case("usage-count-linear-foreign", ("count", "--mode", "linear", "abx", "a")),
    Case("usage-matrix-circular-foreign", ("matrix", "--circular", "abzcy")),
    Case("usage-matrix-foreign", ("matrix", "-a", "a,b", "abc")),
    Case("usage-mequiv-foreign", ("mequiv", "abc", "aqc")),
    Case("usage-matrix-empty-alphabet", ("matrix", "-a", "", "")),
    Case("usage-count-linear-bracketed", ("count", "--mode", "linear", "[abc]", "ab")),
    # The enumeration caps: one past the ternary / quaternary cap, and size 5.
    Case("usage-classes-length=13", ("classes", "-a", "a,b,c", "--length", "13")),
    Case("usage-search-minor-max-length=9", ("search-minor", "-a", "a,b,c,d", "--max-length", "9")),
    Case("usage-classes-alphabet-size-5", ("classes", "-a", "a,b,c,d,e", "--length", "3")),
    # Argument-parser errors exit 64 like every other usage error.
    Case("usage-unknown-flag", ("verify", "--suite", "power", "--bogus")),
    Case("usage-classes-missing-length", ("classes", "-a", "a,b")),
)


def transcript(case: Case) -> str:
    """The recorded text of one run of `case`."""
    out, err = io.StringIO(), io.StringIO()
    header = f"$ circparikh {shlex.join(case.argv)}\n"
    with contextlib.ExitStack() as stack:
        if case.swap is not None:
            module, name, make, what = case.swap
            target = importlib.import_module(module)
            stack.enter_context(mock.patch.object(target, name, make(getattr(target, name))))
            header += f"# {module}.{name} swapped: {what}\n"
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(list(case.argv))
    stdout = _ELAPSED.sub("", out.getvalue())
    return f"{header}--- stdout\n{stdout}--- stderr\n{err.getvalue()}--- exit {code}\n"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN_DIR / f"{case.name}.txt").write_text(transcript(case), encoding="utf-8")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
