"""Command-line interface.

Five subcommands: ``reduce`` compiles a graph into an instance document,
``eval`` computes a count sequence from an instance document, ``check``
tests a single index sequence, ``domsets`` counts dominating sets directly,
and ``verify`` runs the full cross-check of sequence counts against
factorial-scaled dominating-set counts.

This module only parses arguments and renders output. Evaluation and the
checks on values, negative lengths included, live in the library; any
``VestError`` it raises becomes exit code 2 and a one-line ``error:``, and
so does an input too large to allocate (``MemoryError``).

Exit codes: 0 for success (ACCEPT, or every verification row matching),
1 for a negative outcome (REJECT, or a verification mismatch), 2 for
usage, input, or resource errors. A library warning (a dropped self-loop)
is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .core import Semiring, VestError
from .documents import (
    InstanceDocument,
    count_text,
    dumps,
    dumps_instance,
    loads_instance,
    msequence_to_dict,
    verification_to_dict,
    verification_to_text,
)
from .evaluate import DEDUP, METHODS, check_sequence, m_sequence
from .graphs import Graph, count_dominating_sets, parse_graph
from .reduction import reduce_graph, run_verification


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise VestError(f"{name} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(args) -> Graph:
    return parse_graph(_read_text(args.input), args.format)


def _parse_index_sequence(raw: str) -> tuple:
    """Comma-separated indices; the empty string is the empty sequence."""
    raw = raw.strip()
    if not raw:
        return ()
    out = []
    for token in raw.split(","):
        token = token.strip()
        try:
            out.append(int(token))
        except ValueError:
            raise VestError(f"sequence entry {token!r} is not an integer") from None
    return tuple(out)


def cmd_reduce(args) -> int:
    g = _load_graph(args)
    reduced = reduce_graph(g, Semiring(args.semiring))
    doc = InstanceDocument(
        reduced.instance,
        {
            "construction": "dominating-set",
            "source_vertices": g.n,
            "source_edges": g.edge_count,
        },
    )
    text = dumps_instance(doc)
    inst = reduced.instance
    summary = (
        f"compiled {g.n}-vertex graph: dimension {inst.d}, "
        f"{inst.m} transformations, {inst.h} selector rows\n")
    if args.output and args.output != "-":
        _write_text(args.output, text)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return 0


def cmd_eval(args) -> int:
    doc = loads_instance(_read_text(args.input))
    result = m_sequence(doc.instance, args.kmax, method=args.method)
    if args.json:
        _write_text(args.output, dumps(msequence_to_dict(result)))
    else:
        lines = [f"M_{k} = {count_text(val)}" for k, val in enumerate(result.values)]
        _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_check(args) -> int:
    doc = loads_instance(_read_text(args.input))
    seq = _parse_index_sequence(args.seq)
    accepted = check_sequence(doc.instance, seq)
    print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def cmd_domsets(args) -> int:
    g = _load_graph(args)
    d_k = count_dominating_sets(g, args.k)
    print(f"D_{args.k} = {d_k}")
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args)
    report = run_verification(
        g,
        args.kmax,
        semiring=Semiring(args.semiring),
        evaluator=args.method,
        _corrupt=args.corrupt,
    )
    if args.json:
        _write_text(args.output, dumps(verification_to_dict(report)))
    else:
        _write_text(args.output, verification_to_text(report))
    return 0 if report.all_pass else 1


def _add_io(cmd, output=True):
    cmd.add_argument("--input", "-i", default="-", metavar="PATH",
                     help="input file, or '-' for stdin (default)")
    if output:
        cmd.add_argument("--output", "-o", default=None, metavar="PATH",
                         help="output file, or '-' for stdout (default)")


def _add_graph_format(cmd):
    cmd.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist",
                     help="graph input format (default: edgelist)")


def _add_semiring(cmd):
    cmd.add_argument("--semiring", choices=("q", "gf2"), default="gf2",
                     help="arithmetic domain (default: gf2)")


def _add_method(cmd):
    cmd.add_argument("--method", choices=METHODS, default=DEDUP,
                     help="evaluation strategy (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vest",
        description="Exact sequence-count evaluation and dominating-set compilation.")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_cmd = sub.add_parser(
        "reduce", help="compile a graph into an instance document")
    _add_io(reduce_cmd)
    _add_graph_format(reduce_cmd)
    _add_semiring(reduce_cmd)
    reduce_cmd.set_defaults(func=cmd_reduce)

    eval_cmd = sub.add_parser(
        "eval", help="compute M_0..M_kmax from an instance document")
    _add_io(eval_cmd)
    eval_cmd.add_argument("--kmax", type=int, required=True,
                          help="largest sequence length to count")
    _add_method(eval_cmd)
    eval_cmd.add_argument("--json", action="store_true",
                          help="emit a JSON document instead of text")
    eval_cmd.set_defaults(func=cmd_eval)

    check_cmd = sub.add_parser(
        "check", help="test one index sequence against an instance document")
    _add_io(check_cmd, output=False)
    check_cmd.add_argument("--seq", required=True, metavar="I,J,...",
                           help="comma-separated transformation indices ('' for the empty sequence)")
    check_cmd.set_defaults(func=cmd_check)

    domsets_cmd = sub.add_parser(
        "domsets", help="count dominating sets of one size in a graph")
    _add_io(domsets_cmd, output=False)
    _add_graph_format(domsets_cmd)
    domsets_cmd.add_argument("--k", type=int, required=True,
                             help="dominating-set size to count")
    domsets_cmd.set_defaults(func=cmd_domsets)

    verify_cmd = sub.add_parser(
        "verify", help="check M_k = k! * D_k for k = 0..kmax on a graph")
    _add_io(verify_cmd)
    _add_graph_format(verify_cmd)
    _add_semiring(verify_cmd)
    _add_method(verify_cmd)
    verify_cmd.add_argument("--kmax", type=int, required=True,
                            help="largest set size to verify")
    verify_cmd.add_argument("--json", action="store_true",
                            help="emit a JSON report instead of text")
    verify_cmd.add_argument("--corrupt", action="store_true",
                            help=argparse.SUPPRESS)
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a library warning is one "warning:" line, without the source location
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (VestError, OSError) as exc:
            message = str(exc)
        except MemoryError:
            message = "out of memory: the input asks for more than can be allocated"
    # printed after the handler: its traceback, and every frame of the failed
    # call that it holds, is freed by then
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
