"""Command-line surface.

Every subcommand prints a single JSON document on stdout and writes file
artifacts only where an output path was given. Exit codes: 0 for a computed
result (including a non-arrowing verdict), 2 for usage errors, 3 for input
errors, 10 for undecided-within-budget, 11 for infeasible generation. With
``--no-timing`` the stdout payload carries no timing or effort fields, so
identical inputs, flags, and seeds give byte-identical output.

Each handler imports the layers only it uses (``gadgets``, ``focusing``,
``cnf``, ``fractions``) when it runs, and building the parser imports none of
them. A survey or ``ramsey`` command thus loads only the layers it calls: a
command's start-up is mostly imports, and for a survey to 7 vertices it
takes about as long as the survey itself.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .arrowing import Budget, Outcome, arrows, ramsey_number
from .errors import InfeasibleError, InputError, Undecided
from .formats import graph6_encode, read_graph, read_graphs, write_hypergraph
from .minimal import _minimality, _minimalized, degree_survey, distinguish
from .patterns import parse_pattern, pattern_text, read_colouring, write_colouring

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_UNDECIDED = 10
EXIT_INFEASIBLE = 11

BUDGET_ENV = "RAMSEYKIT_BUDGET"

# the keys of ``gadgets.COLOURING_KINDS``, written out so that building the
# parser does not import ``gadgets``; a test keeps the two equal
COLOURING_KINDS = ("g0-prop1", "g2", "lemma7")


class _UsageError(Exception):
    """A malformed command line or setting, such as an environment
    variable."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, its subparsers' too, end in the JSON
    usage-error line instead of argparse's plain-text usage."""

    def error(self, message: str):
        raise _UsageError(message)


def _budget(text: str, source: str = "--budget") -> float:
    """Seconds of wall time: a finite number, at least 0. A NaN budget would
    make every deadline comparison false and so switch the deadline off.

    As the ``--budget`` type it raises ``_UsageError``, which argparse does
    not catch, so a bad flag and a bad environment variable both end in the
    JSON usage-error line."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise _UsageError(f"{source} must be a finite number of seconds >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """The ``--nmax`` and ``--max-nodes`` type: an integer, at least 0.
    argparse names the flag in the usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    """The ``--eps`` type: an exact fraction such as ``4/5`` or ``0.8``."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--eps must be a fraction such as 4/5, got {text!r}") from None


def _options(args) -> Budget:
    """The one budget of the command: ``--budget`` (or ``RAMSEYKIT_BUDGET``)
    seconds from now and ``--max-nodes`` search nodes for all its searches."""
    seconds = getattr(args, "budget", None)
    text = os.environ.get(BUDGET_ENV)
    if seconds is None and text:
        seconds = _budget(text, BUDGET_ENV)
    return Budget(seconds=seconds, nodes=getattr(args, "max_nodes", None))


def _emit(payload: dict, args) -> None:
    if getattr(args, "no_timing", False):
        payload = {k: v for k, v in payload.items() if k not in ("seconds", "nodes")}
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _error(kind: str, exc: Exception, code: int, **extra) -> int:
    """Print the one JSON error line on stderr and return the exit code."""
    print(json.dumps({"error": kind, "message": str(exc), **extra}), file=sys.stderr)
    return code


# -- subcommand handlers ------------------------------------------------------


def _cmd_arrow(args) -> int:
    budget = _options(args)
    g = read_graph(args.graph)
    red = parse_pattern(args.red)
    blue = parse_pattern(args.blue)
    verdict = arrows(g, red, blue, budget)
    payload = {"result": verdict.outcome.value, "nodes": verdict.nodes, "seconds": round(verdict.seconds, 3)}
    if verdict.witness is not None and args.witness:
        Path(args.witness).write_text(write_colouring(verdict.witness))
        payload["witness_file"] = args.witness
    elif verdict.witness is not None:
        payload["witness"] = write_colouring(verdict.witness).splitlines()
    _emit(payload, args)
    return EXIT_UNDECIDED if verdict.outcome is Outcome.UNDECIDED else EXIT_OK


def _cmd_ramsey(args) -> int:
    budget = _options(args)
    red = parse_pattern(args.red)
    blue = parse_pattern(args.blue)
    report = ramsey_number(red, blue, budget)
    payload = {
        "red": pattern_text(red),
        "blue": pattern_text(blue),
        "n": report.n,
        "decided": report.decided,
        "checked_up_to": report.checked_up_to,
        "nodes": report.nodes,
    }
    _emit(payload, args)
    return EXIT_OK if report.decided else EXIT_UNDECIDED


def _cmd_minimal(args) -> int:
    budget = _options(args)
    g = read_graph(args.graph)
    p = parse_pattern(args.pattern)
    # the report reads the first part of minimalize's pass, and
    # --minimalize runs the rest of the same pass
    report, rest = _minimality(g, p, budget)
    payload = {
        "pattern": pattern_text(p),
        "decided": report.decided,
        "is_ramsey": report.is_ramsey,
        "is_minimal": report.is_minimal,
        "failing_edge": list(report.failing_edge) if report.failing_edge else None,
        "isolated_vertices": list(report.isolated_vertices),
    }
    decided = report.decided
    if args.minimalize and report.decided and report.is_ramsey:
        # a minimalization cut by the budget keeps the decided report
        try:
            reduced = _minimalized(g, rest)
        except Undecided:
            reduced = None
        payload["minimalized_graph6"] = None if reduced is None else graph6_encode(reduced)
        decided = reduced is not None
    _emit(payload, args)
    return EXIT_OK if decided else EXIT_UNDECIDED


def _cmd_survey(args) -> int:
    budget = _options(args)
    p = parse_pattern(args.pattern)
    graphs = read_graphs(args.graphs) if args.graphs else None
    survey = degree_survey(p, args.nmax, opts=budget, graphs=graphs, r_value=args.r_value)
    for line in survey.iter_json_lines():
        print(line)
    return EXIT_OK if survey.complete else EXIT_UNDECIDED


def _cmd_distinguish(args) -> int:
    budget = _options(args)
    h1 = parse_pattern(args.h1)
    h2 = parse_pattern(args.h2)
    report = distinguish(h1, h2, args.nmax, opts=budget)
    payload = {
        "h1": pattern_text(h1),
        "h2": pattern_text(h2),
        "found": report.graph is not None,
        "graph6": graph6_encode(report.graph) if report.graph else None,
        "complete": report.complete,
        "graphs_checked": report.graphs_checked,
    }
    _emit(payload, args)
    if report.graph is None and not report.complete:
        return EXIT_UNDECIDED
    return EXIT_OK


def _write_blockgraph(bg, out: str, payload: dict, args) -> int:
    from .gadgets import blockgraph_to_json

    Path(out).write_text(blockgraph_to_json(bg))
    g6path = out[:-5] + ".g6" if out.endswith(".json") else out + ".g6"
    Path(g6path).write_text(graph6_encode(bg.graph) + "\n")
    payload.update(out=out, graph6_file=g6path, vertices=bg.graph.n, edges=bg.graph.num_edges)
    _emit(payload, args)
    return EXIT_OK


def _cmd_gadget_clique(args) -> int:
    """``gadget g0`` and ``gadget pendant``: the core gadget, and for the
    pendant gadget k - 1 copies of it joined."""
    from .gadgets import build_g0, build_pendant_gadget

    seed_block = read_graph(args.block) if args.block else None
    bg = build_g0(args.k, seed_block)
    if args.kind == "pendant":
        bg = build_pendant_gadget(args.k, [bg] * (args.k - 1))
    return _write_blockgraph(bg, args.out, {"gadget": args.kind, "k": args.k}, args)


def _cmd_gadget_product(args) -> int:
    from .gadgets import build_product, schedule_params

    budget = _options(args)
    g0 = read_graph(args.g0)
    fs = [read_graph(path) for path in args.blocks]
    params = schedule_params(args.k, args.t, args.r_value, [f.n for f in fs], budget)
    bg = build_product(params, g0, fs)
    payload = {
        "gadget": "product",
        "k": args.k,
        "t": args.t,
        "r_value": params.r_value,
        "h": params.h,
        "f": params.f,
        "eps0": str(params.eps0),
    }
    return _write_blockgraph(bg, args.out, payload, args)


def _cmd_gadget_hypergraph(args) -> int:
    from .gadgets import gen_hypergraph

    h = gen_hypergraph(args.u, args.girth_min, args.eps, args.n, seed=args.seed)
    Path(args.out).write_text(write_hypergraph(h))
    _emit({"gadget": "hypergraph", "out": args.out, "n": h.n, "u": h.u, "edges": h.num_edges}, args)
    return EXIT_OK


def _cmd_colour(args) -> int:
    from .gadgets import blockgraph_from_json, canonical_colouring, colouring_checks

    bg = blockgraph_from_json(Path(args.gadget).read_text())
    chi = canonical_colouring(args.kind, bg)
    payload = {"kind": args.kind, "edges": chi.graph.num_edges}
    if args.out:
        Path(args.out).write_text(write_colouring(chi))
        payload["out"] = args.out
    else:
        payload["colouring"] = write_colouring(chi).splitlines()
    if args.check:
        checks = colouring_checks(args.kind, bg, chi)
        payload["checks"] = checks
        payload["clean"] = all(v is True for k, v in checks.items() if isinstance(v, bool))
    _emit(payload, args)
    return EXIT_OK


def _cmd_focus(args) -> int:
    from .focusing import FocusFailure, iterated_focus, report_to_json, verify_focus_report
    from .gadgets import blockgraph_from_json

    bg = blockgraph_from_json(Path(args.gadget).read_text())
    chi = read_colouring(Path(args.colouring).read_text())
    result = iterated_focus(bg, chi)
    if isinstance(result, FocusFailure):
        _emit(
            {
                "status": "focus-failed",
                "block": result.block,
                "subset": list(result.subset),
                "required_clique": result.required_clique,
            },
            args,
        )
        return EXIT_OK
    verification = verify_focus_report(bg, chi, result)
    text = report_to_json(result)
    if args.out:
        Path(args.out).write_text(text)
    doc = json.loads(text)
    doc["status"] = "ok"
    doc["verified"] = verification.ok
    _emit(doc, args)
    return EXIT_OK


def _cmd_cnf(args) -> int:
    from . import cnf as cnfmod

    g = read_graph(args.graph)
    red = parse_pattern(args.red)
    blue = parse_pattern(args.blue)
    inst = cnfmod.to_cnf(g, red, blue)
    Path(args.out).write_text(cnfmod.to_dimacs(inst))
    payload = {
        "vars": inst.num_vars,
        "clauses": len(inst.clauses),
        "out": args.out,
    }
    if args.solve:
        model = cnfmod.solve_cnf(inst)
        payload["satisfiable"] = model is not None
        if model is not None and args.witness:
            col = cnfmod.decode_model(inst, model)
            Path(args.witness).write_text(write_colouring(col))
            payload["witness_file"] = args.witness
    _emit(payload, args)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged,
    and a new tree per call would leave its reference cycles for the
    cycle collector."""
    parser = _Parser(
        prog="ramseykit",
        description="Exact two-colour arrowing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--no-timing", action="store_true", help="omit timing fields")
        if budget:
            p.add_argument("--budget", type=_budget, default=None,
                           help="wall seconds for the whole command")
            p.add_argument("--max-nodes", type=_count, default=None, dest="max_nodes",
                           help="search nodes for the whole command")

    p = sub.add_parser("arrow", help="decide arrowing for one graph")
    p.add_argument("graph")
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("--witness", help="write a non-arrowing witness here")
    common(p)
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("ramsey", help="smallest complete graph that arrows")
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    common(p)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("minimal", help="Ramsey-minimality report")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True)
    p.add_argument("--minimalize", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("survey", help="minimum-degree survey of minimal graphs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--nmax", type=_count, required=True)
    p.add_argument("--graphs", help="graph6 stream overriding built-in enumeration")
    p.add_argument("--r-value", type=int, default=None, dest="r_value")
    common(p)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("distinguish", help="search for a separating graph")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--nmax", type=_count, required=True)
    common(p)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("gadget", help="build a construction")
    gsub = p.add_subparsers(dest="kind", required=True)

    for kind, what, block_help in (
        ("g0", "core gadget", "seed block graph file (needed for k >= 3)"),
        ("pendant", "pendant-vertex gadget", "seed block graph file"),
    ):
        g = gsub.add_parser(kind, help=what)
        g.add_argument("--k", type=int, required=True)
        g.add_argument("--block", help=block_help)
        g.add_argument("-o", "--out", required=True)
        common(g, budget=False)
        g.set_defaults(func=_cmd_gadget_clique)

    g = gsub.add_parser("product", help="block product instance")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--r-value", type=int, default=None, dest="r_value")
    g.add_argument("--g0", required=True, help="template graph file")
    g.add_argument("--blocks", nargs="+", required=True, help="block graph files")
    g.add_argument("-o", "--out", required=True)
    common(g)
    g.set_defaults(func=_cmd_gadget_product)

    g = gsub.add_parser("hypergraph", help="seeded hypergraph generation")
    g.add_argument("--u", type=int, required=True)
    g.add_argument("--girth-min", type=int, required=True, dest="girth_min")
    g.add_argument("--eps", type=_fraction, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    common(g, budget=False)
    g.set_defaults(func=_cmd_gadget_hypergraph)

    p = sub.add_parser("colour", help="canonical colouring of a gadget")
    p.add_argument("gadget", help="block graph JSON file")
    p.add_argument("--kind", required=True, choices=COLOURING_KINDS)
    p.add_argument("-o", "--out")
    p.add_argument("--check", action="store_true", help="verify the colouring")
    common(p, budget=False)
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("focus", help="iterated colour focusing on a product")
    p.add_argument("gadget", help="block graph JSON file")
    p.add_argument("colouring", help="colouring text file")
    p.add_argument("-o", "--out")
    common(p, budget=False)
    p.set_defaults(func=_cmd_focus)

    p = sub.add_parser("cnf", help="DIMACS export of an arrowing instance")
    p.add_argument("graph")
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--solve", action="store_true", help="run the embedded solver")
    p.add_argument("--witness", help="write the decoded model here")
    common(p, budget=False)
    p.set_defaults(func=_cmd_cnf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        return _error("usage-error", exc, EXIT_USAGE)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # OSError: a graph path that is a directory, an output path that
        # cannot be written; UnicodeDecodeError: a file that is not text
        return _error("input-error", exc, EXIT_INPUT)
    except Undecided as exc:
        return _error("undecided", exc, EXIT_UNDECIDED)
    except InfeasibleError as exc:
        return _error("infeasible", exc, EXIT_INFEASIBLE, attempts=exc.attempts)


if __name__ == "__main__":
    sys.exit(main())
