"""Command-line front end.

A malformed argument or file exits with code 2: `_parsed` maps a parser's
ValueError there.  A request the library refuses (shape or alphabet
mismatch, insufficient truncation) raises ValueError, and `main` maps it
to code 3.  `_load_series` holds the one `--maxlen`, `--ell`/`--m` and
stdin rule of the series inputs.  A reader that closes stdout early
(`| head`) ends the run quietly with code 1.  All output is canonically
sorted, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import coordmaps, groupops, hopf, prelie, series as series_mod
from .lincomb import format_rational
from .series import Series
from .trees import (
    admissible_subsets,
    degree,
    enumerate_admissible_extractions,
    enumerate_all_extractions,
    format_rct,
    format_subset,
    gen,
    parse_rct,
    weight,
)
from .words import format_word, parse_word, shuffle, word_degree

BROKEN_PIPE = 1
PARSE_ERROR = 2
SEMANTIC_ERROR = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parsed(parse, *args):
    """parse(*args), its ValueError a parse error (code 2) with the same message."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise CliError(str(exc), PARSE_ERROR) from exc


def _load_series(args) -> list[Series]:
    """The series of the input files, each read at its natural length and cut
    to --maxlen.  A text file holds the whole polynomial, so it may also be
    padded; a JSON document past its max_len, or whose ell or m differs from
    --ell or --m, is refused (code 3).  A negative --maxlen and a second '-'
    are parse errors before any file is read."""
    if args.maxlen is not None and args.maxlen < 0:
        raise CliError(f"--maxlen {args.maxlen} is below 0, the shortest word length",
                       PARSE_ERROR)
    if args.inputs.count("-") > 1:
        raise CliError("'-' names stdin twice, but stdin can be read only once", PARSE_ERROR)
    out = []
    for path in args.inputs:
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {path}: {exc}", PARSE_ERROR) from exc
        try:
            if args.format == "text":
                series = series_mod.parse_series(text, ell=args.ell, m=args.m)
            else:
                series = series_mod.loads_json(text)
        except (ValueError, KeyError) as exc:
            raise CliError(f"cannot parse series {path}: {exc}", PARSE_ERROR) from exc
        if args.format == "json":
            for flag, value, known in (("--ell", args.ell, series.ell), ("--m", args.m, series.m)):
                if value is not None and value != known:
                    raise ValueError(f"{flag} {value} differs from {path}, "
                                     f"whose document has {flag[2:]} {known}")
        if args.maxlen is not None:
            if args.format == "json" and args.maxlen > series.max_len:
                raise ValueError(f"--maxlen {args.maxlen} is outside 0..{series.max_len}, "
                                 f"the word lengths {path} is known to")
            series = series.truncated(args.maxlen)
        out.append(series)
    return out


def _emit_series(result: Series, args) -> None:
    print(series_mod.dumps_json(result) if args.format == "json"
          else series_mod.format_series(result))


def _extraction_line(extraction) -> str:
    return " ".join(format_subset(s) for s in extraction.subsets) or "empty"


# the two-series products: command -> (library function, help text)
PRODUCTS = {
    "compose": (groupops.compose, "cascade product of two series"),
    "modcompose": (groupops.mod_compose, "modified cascade product"),
    "hatcompose": (groupops.hat_compose, "identity-shifted cascade product"),
    "group": (groupops.group_product, "feedback group product"),
}


def _add_series_io(parser, two_inputs=True):
    parser.add_argument("inputs", nargs=2 if two_inputs else 1,
                        help="series file(s), '-' for stdin")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--ell", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--maxlen", type=int, default=None,
                        help="cut every input at this word length "
                             "(invert: the length of the inverse)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circletree",
        description="exact Hopf-algebra calculations on decorated rooted circle trees "
                    "and the feedback group of their series")
    sub = parser.add_subparsers(dest="command", required=True)
    tree = argparse.ArgumentParser(add_help=False)  # --rct and --m of the one-tree commands
    tree.add_argument("--rct", required=True)
    tree.add_argument("--m", type=int, required=True)

    p = sub.add_parser("shuffle", help="shuffle product of two words")
    p.add_argument("words", nargs=2)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("degree", help="grading of a word or a tree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--rct")
    p.add_argument("--m", type=int, default=None)

    sub.add_parser("subsets", help="admissible position subsets of a tree", parents=[tree])

    p = sub.add_parser("extractions", help="extraction families of a tree", parents=[tree])
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="general (disjoint-or-nested) families instead of admissible ones")
    group.add_argument("--include-trivial", action="store_true",
                       help="list the empty and total extractions too")

    p = sub.add_parser("coproduct", help="coproduct of a tree", parents=[tree])
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reduced", action="store_true")
    group.add_argument("--linearized", action="store_true")

    p = sub.add_parser("antipode", help="antipode of a tree", parents=[tree])
    p.add_argument("--method", choices=("left", "right", "forest"), default="right",
                   help="right recursion (default), left recursion, or the closed forest formula")

    p = sub.add_parser("stats", help="antipode term statistics (CSV)", parents=[tree])
    p.add_argument("--method", choices=("recursive_left", "forest"), default="recursive_left")

    p = sub.add_parser("table1", help="distinct antipode terms of the all-white trees (CSV)")
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("prelie", help="insertion product of two trees")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--m", type=int, required=True)

    for name, (_product, help_text) in PRODUCTS.items():
        _add_series_io(sub.add_parser(name, help=help_text))

    p = sub.add_parser(
        "invert", help="feedback group inverse (fixed point of d = -mod_compose(c, d))")
    _add_series_io(p, two_inputs=False)

    p = sub.add_parser("convolve", help="character convolution on one coordinate map")
    _add_series_io(p)
    p.add_argument("--coordmap", required=True, help="e.g. a[1;0.1]")

    p = sub.add_parser("numcheck", help="numerical identity check (CSV)")
    p.add_argument("--kind", choices=("shuffle", "compose", "group"), required=True)
    p.add_argument("--N", type=int, default=2000)
    p.add_argument("--T", type=float, default=1.0)

    p = sub.add_parser("axioms", help="run the structural property suites")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--m", type=int, default=2)

    return parser


def _run(args) -> int:
    if getattr(args, "rct", None) is not None:  # the one-tree commands and `degree --rct`
        c = _parsed(parse_rct, args.rct, args.m)

    if args.command == "shuffle":
        result = shuffle(*(_parsed(parse_word, word, args.m) for word in args.words))
        for word in sorted(result, key=lambda w: (len(w), w)):
            print(f"{format_word(word)} {format_rational(result[word])}")
        return 0

    if args.command == "degree":
        if args.word is not None:
            print(word_degree(_parsed(parse_word, args.word, args.m)))
        else:
            print(f"degree {degree(c)}")
            print(f"weight {weight(c)}")
        return 0

    if args.command == "subsets":
        for subset in admissible_subsets(c):
            print(format_subset(subset))
        return 0

    if args.command == "extractions":
        items = enumerate_all_extractions(c) if args.all else enumerate_admissible_extractions(c)
        if args.include_trivial:  # the empty family first, the whole tree last
            print("empty")
        for extraction in items:
            print(_extraction_line(extraction))
        if args.include_trivial:
            print("total")
        return 0

    if args.command == "coproduct":
        if args.linearized:
            tensor = hopf.linearized_coproduct(c, args.m)
        elif args.reduced:
            tensor = hopf.reduced_coproduct(c, args.m)
        else:
            tensor = hopf.coproduct(c, args.m)
        print(hopf.format_tensor(tensor))
        return 0

    if args.command == "antipode":
        print(hopf.format_poly(hopf.antipode(c, args.m, args.method)))
        return 0

    if args.command == "stats":
        record = hopf.antipode_stats(c, args.m, args.method)
        print("degree,method,generated,distinct,cancelled_mass")
        print(f"{record.degree},{record.method},{record.generated},"
              f"{record.distinct},{record.cancelled_mass}")
        return 0

    if args.command == "table1":
        if args.max_degree < 3:
            raise CliError(f"--max-degree {args.max_degree} is below 3, the first row of the "
                           "table", PARSE_ERROR)
        print("degree,distinct_terms")
        for k in range(1, (args.max_degree - 1) // 2 + 1):
            print(f"{2 * k + 1},{len(hopf.antipode(gen(1, (0,) * k), 1))}")
        return 0

    if args.command == "prelie":
        result = prelie.prelie_product(
            *(_parsed(parse_rct, tree, args.m) for tree in (args.left, args.right)))
        for c in sorted(result):
            print(f"{format_rct(c)} {format_rational(result[c])}")
        return 0

    if args.command in PRODUCTS:
        _emit_series(PRODUCTS[args.command][0](*_load_series(args)), args)
        return 0

    if args.command == "invert":
        _emit_series(groupops.group_inverse(*_load_series(args)), args)
        return 0

    if args.command == "convolve":
        a, b = _load_series(args)
        cmap = _parsed(coordmaps.parse_coord_map, args.coordmap)
        print(format_rational(
            groupops.convolve(groupops.Character(a), groupops.Character(b), cmap),
            f"the convolution at {coordmaps.format_coord_map(cmap)}"))
        return 0

    if args.command == "numcheck":
        if args.N < 8:
            raise CliError(f"--N {args.N} is below 8, the coarsest grid N // 8", PARSE_ERROR)
        if not 0 < args.T < float("inf"):
            raise CliError(f"--T {args.T} must be positive and finite: the horizon is [0, T]",
                           PARSE_ERROR)
        from . import numeric  # numpy loads only for the numeric commands

        records = numeric.run_standard_checks(args.N, args.T, kind=args.kind)
        print("kind,case,N,deviation")
        for rec in records:
            for n_size, dev in rec.deviations:
                print(f"{rec.kind},{rec.case},{n_size},{dev:.6e}")
        worst = max(rec.final_deviation for rec in records)
        print(f"max deviation at N={args.N}: {worst:.6e}")
        return 0

    # axioms: the subparsers, `required=True`, admit no other command
    for flag, value in (("--max-degree", args.max_degree), ("--m", args.m)):
        if value < 1:
            raise CliError(f"{flag} {value} is below 1: the sweep would check nothing",
                           PARSE_ERROR)
    from . import checks

    for name, count in checks.run_axioms(args.max_degree, args.m):
        print(f"{name}: {'OK' if count else 'skipped'} ({count} cases)")
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a parse error is a CliError by now: this is a refusal
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit writes what is left nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
