"""Command-line front end.

Every subcommand emits one JSON report with sorted keys; timings are opt-in
(--timings) so identical invocations produce byte-identical output.  Exit
codes: 0 success / property holds, 1 property fails or a counterexample was
found (the report still carries the details), 2 usage errors, 3 malformed
input, violated preconditions, or an input too large for a recursive search
(one that reaches Python's recursion limit, such as ``check --d`` on a long
path), 4 an internal error (a result failed its own re-check, or a call
inside trifree broke a contract): a bug, not a fault of the input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict
from typing import Optional

from . import __version__
from .families import (
    FIG41_NAMES,
    GRAPH_N_NAMES,
    AndrasfaiId,
    andrasfai,
    cayley_6k,
    cube,
    extremal_formula,
    fig41,
    graph_n,
    haggkvist_spec,
    mycielski_grotzsch,
    vega,
)
from .formats import graph_payload, integer, parse_graph, write_dot, write_graph, write_graph6
from .graph import BlowupSpec, ContractViolation, Graph, InternalConsistencyError, blowup
from .properties import (
    check_d,
    check_q,
    independence_number,
    is_maximal_triangle_free,
    is_triangle_free,
)
from .recognition import RecognitionCertificate, recognize
from .search import (
    EXTREMAL_MAX_ORDER,
    ResourceGuardError,
    census,
    check_census_row,
    hunt_conjecture,
    search_extremal,
)
from .verify import check_names, run_all, run_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("ascii")
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)


def _input_graph(args) -> Graph:
    return parse_graph(_read_text(args.infile), args.format)


def _emit(args, payload: dict, started: float) -> None:
    report = {"command": args.command, "version": __version__}
    report.update(payload)
    if getattr(args, "timings", False):
        report["elapsed"] = round(time.perf_counter() - started, 3)
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _family_payload(family) -> dict:
    if isinstance(family, AndrasfaiId):
        return {"kind": "andrasfai", "k": family.k}
    return {"kind": "vega", "i": family.i, "mu": family.mu, "nu": family.nu}


# -- gen -------------------------------------------------------------------


def _build_family(args) -> tuple[Graph, Optional[dict[int, str]]]:
    family = args.family
    if family == "andrasfai":
        if args.k is None:
            raise ValueError("gen andrasfai requires --k")
        return andrasfai(args.k), None
    if family == "vega":
        if args.i is None:
            raise ValueError("gen vega requires --i (and optionally --mu/--nu)")
        g, labeling = vega(args.i, args.mu, args.nu)
        return g, labeling.names()
    if family == "mycielski":
        g, labeling = mycielski_grotzsch()
        return g, labeling.names()
    if family == "cube":
        return cube(), None
    if family == "graph-n":
        return graph_n(), dict(enumerate(GRAPH_N_NAMES))
    if family == "cayley":
        if args.k is None:
            raise ValueError("gen cayley requires --k")
        return cayley_6k(args.k), None
    if family == "fig41":
        return fig41(), dict(enumerate(FIG41_NAMES))
    if family == "haggkvist":
        return blowup(haggkvist_spec()), None
    if family == "blowup":
        if args.weights is None:
            raise ValueError("gen blowup requires --weights")
        base = _input_graph(args)
        weights = tuple(integer(part) for part in args.weights.split(","))
        return blowup(BlowupSpec(base, weights)), None
    raise ValueError(f"unknown family {family!r}")


def _cmd_gen(args) -> tuple[None, int]:
    g, labels = _build_family(args)
    if args.dot:
        _write_text(args.out, write_dot(g, labels, name=args.family.replace("-", "_")))
    else:
        _write_text(args.out, write_graph(g, args.format))
    return None, EXIT_OK


# -- check -----------------------------------------------------------------


def _cmd_check(args) -> tuple[dict, int]:
    g = _input_graph(args)
    payload: dict = {"graph": graph_payload(g)}
    if args.tf:
        ok, triangle = is_triangle_free(g)
        payload["property"] = "triangle_free"
        payload["verdict"] = {"holds": ok, "triangle": triangle}
        return payload, EXIT_OK if ok else EXIT_FAIL
    if args.maximal:
        result = is_maximal_triangle_free(g)
        payload["property"] = "maximal_triangle_free"
        payload["verdict"] = asdict(result)
        return payload, EXIT_OK if result.holds else EXIT_FAIL
    if args.alpha:
        value, members = independence_number(g)
        degrees = g.degree_sequence()
        payload["property"] = "independence_number"
        payload["verdict"] = {
            "alpha": value,
            "maximum_independent_set": members,
            "min_degree": degrees[0],
            "max_degree": degrees[-1],
        }
        return payload, EXIT_OK
    level = args.d if args.d is not None else args.q
    checker = check_d if args.d is not None else check_q
    verdict = checker(g, level)
    payload["property"] = "covering" if args.d is not None else "covering_with_certificates"
    payload["verdict"] = {
        "holds": verdict.holds,
        "level": verdict.level,
        "witness": verdict.witness,
    }
    return payload, EXIT_OK if verdict.holds else EXIT_FAIL


# -- recognize ---------------------------------------------------------------


def _cmd_recognize(args) -> tuple[dict, int]:
    g = _input_graph(args)
    outcome = recognize(g)
    payload: dict = {"graph": graph_payload(g)}
    if isinstance(outcome, RecognitionCertificate):
        payload["certificate"] = {
            "family": _family_payload(outcome.family),
            "class_map": outcome.class_map,
            "weights": outcome.weights,
        }
        return payload, EXIT_OK
    payload["refutation"] = asdict(outcome)
    return payload, EXIT_FAIL


# -- census / hunt -----------------------------------------------------------


def _row_payload(row) -> dict:
    return {
        "order": row.graph.n,
        "graph6": write_graph6(row.graph),
        "d2": row.d2,
        "d3": row.d3,
        "d4": row.d4,
        "q4": row.q4,
        "recognized": _family_payload(row.recognized) if row.recognized else None,
        "induced_c6": row.induced_c6,
        "contains_upsilon": row.contains_upsilon,
    }


def _cmd_census(args) -> tuple[dict, int]:
    rows = census(args.n, allow_large=args.allow_large)
    if args.assert_:
        for row in rows:
            invariant = check_census_row(row)
            if invariant is not None:
                return {
                    "n": args.n,
                    "violation": {"invariant": invariant, "row": _row_payload(row)},
                }, EXIT_FAIL
    return {
        "n": args.n,
        "count": len(rows),
        "rows": [_row_payload(row) for row in rows],
    }, EXIT_OK


def _cmd_hunt(args) -> tuple[dict, int]:
    hits = hunt_conjecture(args.max_n, allow_large=args.allow_large)
    return {
        "max_n": args.max_n,
        "counterexamples": [write_graph6(g) for g in hits],
    }, EXIT_OK if not hits else EXIT_FAIL


# -- paper-verify -------------------------------------------------------------


def _report_payload(report, timings: bool) -> dict:
    payload = {
        "name": report.name,
        "passed": report.passed,
        "counterexample": report.counterexample,
        "details": report.details,
    }
    if timings:
        payload["elapsed"] = round(report.elapsed, 3)
    return payload


def _cmd_paper_verify(args) -> tuple[dict, int]:
    reports = run_all() if args.check == "all" else [run_check(args.check)]
    failed = [r.name for r in reports if not r.passed]
    return {
        "checks": [_report_payload(r, args.timings) for r in reports],
        "failed": failed,
    }, EXIT_FAIL if failed else EXIT_OK


# -- extremal ------------------------------------------------------------------


def _cmd_extremal(args) -> tuple[dict, int]:
    value = extremal_formula(args.n, args.s)
    payload: dict = {"n": args.n, "s": args.s, "formula_value": value}
    if not args.search:
        return payload, EXIT_OK
    result = search_extremal(args.n, args.s, max_order=args.max_order)
    payload["search"] = {
        "k": result.k,
        "best_found": result.best_found,
        "witnesses": [
            {"template_graph6": write_graph6(spec.base), "weights": spec.weights}
            for spec in result.witnesses
        ],
    }
    return payload, EXIT_OK if result.best_found == value else EXIT_FAIL


# -- parser --------------------------------------------------------------------


def _add_io(parser, graph_input: bool) -> None:
    if graph_input:
        parser.add_argument("--in", dest="infile", default="-", metavar="PATH",
                            help="input graph file, '-' for stdin (default)")
        parser.add_argument("--format", choices=("elist", "graph6"), default="elist",
                            help="graph text format (default elist)")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    parser.add_argument("--timings", action="store_true",
                        help="include elapsed seconds in the report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build costs milliseconds, a
    parse a fraction of one, so this saves per `main` call, not per start.
    Reuse is safe: `parse_args` returns a fresh Namespace, the parser keeps
    no state between parses, and the ``--check`` registry is fixed."""
    parser = argparse.ArgumentParser(
        prog="trifree",
        description="Generators, covering-property checks, blow-up recognition "
                    "and exhaustive small-order verification for maximal "
                    "triangle-free graphs.",
    )
    parser.add_argument("--version", action="version", version=f"trifree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named family member")
    p.add_argument("family", choices=(
        "andrasfai", "vega", "mycielski", "cube", "graph-n", "cayley",
        "fig41", "haggkvist", "blowup"))
    p.add_argument("--k", type=integer, help="index for andrasfai/cayley")
    p.add_argument("--i", type=integer, help="inner index for vega")
    p.add_argument("--mu", type=integer, default=0, choices=(0, 1))
    p.add_argument("--nu", type=integer, default=0, choices=(0, 1))
    p.add_argument("--weights", help="comma-separated blow-up weights (gen blowup)")
    p.add_argument("--in", dest="infile", default="-", metavar="PATH",
                   help="template graph for gen blowup")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a graph file")
    p.add_argument("--format", choices=("elist", "graph6"), default="elist")
    p.add_argument("--out", default="-", metavar="PATH")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("check", help="decide a property of an input graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tf", action="store_true", help="triangle-freeness")
    group.add_argument("--maximal", action="store_true", help="maximal triangle-freeness")
    group.add_argument("--alpha", action="store_true", help="independence number")
    group.add_argument("--d", type=integer, metavar="K",
                       help="weighted covering property at level K")
    group.add_argument("--q", type=integer, metavar="K",
                       help="certificate variant of the covering property")
    _add_io(p, graph_input=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("recognize", help="certify an input as a template blow-up")
    _add_io(p, graph_input=True)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("census", help="classify all maximal triangle-free graphs of one order")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="fail (exit 1) on any classification-invariant violation")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the order guard (slow)")
    _add_io(p, graph_input=False)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("hunt", help="search small orders for covering-property counterexamples")
    p.add_argument("--max-n", type=integer, required=True)
    p.add_argument("--allow-large", action="store_true")
    _add_io(p, graph_input=False)
    p.set_defaults(handler=_cmd_hunt)

    p = sub.add_parser("paper-verify", help="run the registered lemma checks")
    p.add_argument("--check", default="all", choices=("all", *check_names()))
    _add_io(p, graph_input=False)
    p.set_defaults(handler=_cmd_paper_verify)

    p = sub.add_parser("extremal", help="edge-maximum blow-ups at bounded independence")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--s", type=integer, required=True)
    p.add_argument("--search", action="store_true",
                   help="also search template blow-ups for attaining weightings")
    p.add_argument("--max-order", type=integer, default=EXTREMAL_MAX_ORDER,
                   help="largest order n the search accepts (default %(default)s); "
                        "a larger n exits 3")
    _add_io(p, graph_input=False)
    p.set_defaults(handler=_cmd_extremal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, code = args.handler(args)
        if payload is not None:
            _emit(args, payload, started)
        return code
    except (ResourceGuardError, ValueError, OSError) as exc:
        print(f"trifree: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print(f"trifree: error: the search exceeded the recursion limit "
              f"({sys.getrecursionlimit()}); the input is too large for this check",
              file=sys.stderr)
        return EXIT_INPUT
    except (InternalConsistencyError, ContractViolation) as exc:
        print(f"trifree: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())
