"""Command-line front end: specrig analyze <file> [options]."""

from __future__ import annotations

import argparse
import sys

from .errors import SpecrigError
from .parsing import parse_problem
from .pipeline import MAX_TRUNCATION, run_analysis
from .report import render_text, serialize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrig",
        description="Exact invariants and rigidity verification for "
                    "systems of rational 1-forms on the projective line.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze a problem file")
    an.add_argument("file", help="problem description file")
    an.add_argument("--text", action="store_true",
                    help="render a human-readable table instead of JSON")
    an.add_argument("--assume-irreducible-curve", action="store_true",
                    help="treat an undecided spectral curve as irreducible")
    an.add_argument("--assert-irreducible-connection", action="store_true",
                    help="report cohomology dimensions (user asserts the "
                         "connection is irreducible)")
    an.add_argument("--truncation", type=int, default=None, metavar="N",
                    help="first series truncation order at every pole, "
                         f"at most {MAX_TRUNCATION}, then 2N, 4N, 8N "
                         "(default: an a-priori order per pole, doubled up "
                         "to 8 times the old fixed default)")
    an.add_argument("--check-reduction", action="store_true",
                    help="cross-check the HTL cells and their residues by "
                         "the splitting route at every pole")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_problem(text)
        doc, code = run_analysis(
            spec,
            truncation=args.truncation,
            assume_irreducible_curve=args.assume_irreducible_curve,
            assert_irreducible_connection=args.assert_irreducible_connection,
            check_reduction=args.check_reduction)
    except SpecrigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = render_text(doc) if args.text else serialize(doc)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
