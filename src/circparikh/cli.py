"""Command-line front end.

Commands: count, matrix, mequiv, rules, classes, verify, search-minor.
Exit codes: 0 success / suites pass, 1 semantic negative (not equivalent),
2 verification failure, 64 usage error, 141 output pipe closed early.  All
numeric output is exact.
"""

from __future__ import annotations

import argparse
import os
import sys

from .circular import (
    avg_count,
    canonicalize,
    circular_parikh_matrix,
    direct_count,
)
from .enumeration import (
    SUITE_NAMES,
    SuiteLimits,
    _suite,
    partition_by_matrix,
    run_suite,
    search_negative_minor,
)
from .rewriting import _applications, rewrite_closure
from .words import Alphabet, count_subword, parikh_matrix

USAGE_ERROR = 64
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Enumeration guard rails for classes, search-minor and verify (about size^n / n necklaces).
_LENGTH_CAPS = {1: 16, 2: 16, 3: 12, 4: 8}
_MAX_SPLIT = 8
_MAX_POWER = 16


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="circparikh", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alphabet(p):
        p.add_argument(
            "-a",
            "--alphabet",
            default="a,b,c",
            help="ordered symbols, e.g. a,b,c (default: a,b,c)",
        )

    p = sub.add_parser("count", help="count subword occurrences")
    add_alphabet(p)
    p.add_argument(
        "--mode",
        choices=("linear", "direct", "average"),
        default="average",
        help="linear word count, or the direct / average circular count",
    )
    p.add_argument("word", help="the text word; [w] marks a circular word")
    p.add_argument("subword", help="the pattern to count")

    p = sub.add_parser("matrix", help="print a Parikh matrix")
    add_alphabet(p)
    p.add_argument("--circular", action="store_true", help="treat the word as circular")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("word")

    p = sub.add_parser("mequiv", help="decide M-equivalence of two circular words")
    add_alphabet(p)
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("rules", help="list CE1/CE2 sites or the rewrite closure")
    add_alphabet(p)
    p.add_argument("--rule", choices=("CE1", "CE2", "both"), default="both")
    p.add_argument("--closure", action="store_true", help="emit the closure graph")
    p.add_argument("--dot", metavar="PATH", help="write the DOT graph to PATH")
    p.add_argument("--max-steps", type=int, default=100000)
    p.add_argument("word")

    p = sub.add_parser("classes", help="partition necklaces by matrix")
    add_alphabet(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--max-power", type=int, default=None)
    p.add_argument("--max-split", type=int, default=None)
    p.add_argument("--failure-cap", type=int, default=10)

    p = sub.add_parser("search-minor", help="search for a negative matrix minor")
    add_alphabet(p)
    p.add_argument("--max-length", type=int, required=True)

    return parser


def _strip_brackets(word: str):
    if word.startswith("[") and word.endswith("]"):
        return word[1:-1], True
    return word, False


def _cmd_count(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    word, bracketed = _strip_brackets(args.word)
    if args.mode == "linear":
        if bracketed:
            raise ValueError("linear mode takes a plain word, not a bracketed one")
        print(count_subword(word, args.subword, alphabet))
        return 0
    cw = canonicalize(alphabet, word)
    if args.mode == "direct":
        print(direct_count(cw, args.subword))
    else:
        print(avg_count(cw, args.subword))
    return 0


def _cmd_matrix(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    word, bracketed = _strip_brackets(args.word)
    if args.circular or bracketed:
        matrix = circular_parikh_matrix(canonicalize(alphabet, word))
    else:
        matrix = parikh_matrix(alphabet, word)
    print(matrix.to_json() if args.format == "json" else matrix.pretty())
    return 0


def _cmd_mequiv(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    m1 = circular_parikh_matrix(canonicalize(alphabet, _strip_brackets(args.word1)[0]))
    m2 = circular_parikh_matrix(canonicalize(alphabet, _strip_brackets(args.word2)[0]))
    if m1 == m2:
        print("EQUIVALENT")
        return 0
    i, j = next(
        (i, j) for i in range(m1.dim) for j in range(m1.dim) if m1.rows[i][j] != m2.rows[i][j]
    )
    print(f"NOT EQUIVALENT: entry ({i + 1},{j + 1}): {m1.rows[i][j]} vs {m2.rows[i][j]}")
    return 1


def _format_application(app) -> str:
    alpha = f" α={app.alpha}" if app.alpha is not None else ""
    verdict = "valid" if app.valid else "invalid"
    return (
        f"{app.rule} rotation={app.rotation} |x|={app.x_len} |y|={app.y_len}{alpha} "
        f"condition {app.condition_lhs}={app.condition_rhs} {verdict} -> {app.result}"
    )


def _cmd_rules(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    if alphabet.size != 3:
        raise ValueError(f"rules require a ternary alphabet, got {alphabet}")
    word, _ = _strip_brackets(args.word)
    cw = canonicalize(alphabet, word)
    if args.max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {args.max_steps}")
    if args.dot and not args.closure:
        raise ValueError("--dot requires --closure")
    rules = ("CE1", "CE2") if args.rule == "both" else (args.rule,)
    if args.closure:
        graph = rewrite_closure(cw, rules=rules, max_steps=args.max_steps)
        dot = graph.to_dot()
        if args.dot:
            try:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(dot + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write {args.dot}: {exc.strerror}") from None
            print(
                f"nodes={len(graph.nodes)} edges={len(graph.edges)} "
                f"complete={'yes' if graph.complete else 'no'} dot={args.dot}"
            )
        else:
            print(dot)
        return 0
    apps = _applications(cw, rules)
    if not apps:
        print("no applications")
    for app in apps:
        print(_format_application(app))
    return 0


def _check_length(command: str, alphabet: Alphabet, length: int) -> None:
    cap = _LENGTH_CAPS.get(alphabet.size)
    if cap is None:
        raise ValueError(f"{command} supports alphabets of size <= 4, got {alphabet}")
    if length < 0 or length > cap:
        raise ValueError(
            f"length must be between 0 and {cap} for a size-{alphabet.size} alphabet"
        )


def _cmd_classes(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    _check_length("classes", alphabet, args.length)
    report = partition_by_matrix(alphabet, args.length)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(
            f"alphabet={report.alphabet} length={report.length} "
            f"classes={report.class_count} largest={report.largest_class} "
            f"singletons={report.singleton_count}"
        )
        for key in sorted(report.classes):
            members = " ".join(f"[{w}]" for w in report.classes[key])
            print(f"{key}: {members}")
    return 0


def _cmd_verify(args) -> int:
    suite = _suite(args.suite)
    size = max(alphabet.size for alphabet in suite.alphabets)
    for flag, value, cap in (
        ("max_length", args.max_length, _LENGTH_CAPS[size]),
        ("max_split", args.max_split, _MAX_SPLIT),
        ("max_power", args.max_power, _MAX_POWER),
    ):
        if value is not None and value > cap:
            raise ValueError(f"{flag} must be at most {cap} for suite {args.suite}, got {value}")
    limits = SuiteLimits(
        max_length=args.max_length,
        max_power=args.max_power,
        max_split=args.max_split,
        failure_cap=args.failure_cap,
    )
    result = run_suite(args.suite, limits)
    print(f"suite {result.name}: {suite.description}")
    for message in result.failures:
        print(f"FAIL {message}")
    if result.failure_count > len(result.failures):
        print(f"... and {result.failure_count - len(result.failures)} more failures")
    status = "PASS" if result.passed else "FAIL"
    centis = (result.elapsed_us + 5_000) // 10_000  # rounded to hundredths of a second
    print(
        f"{status} checked={result.checked} failures={result.failure_count} "
        f"elapsed={centis // 100}.{centis % 100:02}s"
    )
    return 0 if result.passed else 2


def _cmd_search_minor(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    _check_length("search-minor", alphabet, args.max_length)
    witness = search_negative_minor(alphabet, args.max_length)
    if witness is None:
        print("none found")
    else:
        print(
            f"negative minor: word=[{witness.word}] rows={list(witness.rows)} "
            f"cols={list(witness.cols)} value={witness.value}"
        )
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "matrix": _cmd_matrix,
    "mequiv": _cmd_mequiv,
    "rules": _cmd_rules,
    "classes": _cmd_classes,
    "verify": _cmd_verify,
    "search-minor": _cmd_search_minor,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"circparikh: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader is gone: send what is still buffered, and the flush at
        # exit, to devnull instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
