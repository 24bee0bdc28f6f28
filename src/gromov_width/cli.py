"""Command-line front end.

Subcommands width | check | fixed | edges | seidel, each fed from one source:
an action JSON file, a toric polytope JSON file plus a subcircle direction, a
Grassmannian generator, or a product of sources.  Output is deterministic
text or JSON.  Exit codes: 0 success, 1 hypothesis failure, 2 bad input
(including an action too large for memory), 141 when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import toric
from .circle_action import (ISOLATED_MAX, MONOTONE_CONSISTENCY, SEMIFREE, ActionData,
                            CheckResult, _listing, action_to_json, load_action, normalize_moment,
                            product_action, product_checks, product_level_gap,
                            product_width)
from .errors import Error, HypothesisFailed, HypothesisFailure, InvalidInput, NotMonotone
from .grassmannian import GrassmannianSpec, grassmannian_action
from .lattice import content
from .polytope import _fmt_point, load_polytope, monotone_normalize
from .seidel import seidel_from_width
from .serialize import point_to_json

_HEADLINES = {
    SEMIFREE: "NOT SEMIFREE",
    ISOLATED_MAX: "MAX NOT ISOLATED",
    MONOTONE_CONSISTENCY: "NOT MONOTONE-CONSISTENT",
}


@dataclass(frozen=True)
class Source:
    kind: str
    path: str | None = None
    direction: tuple[int, ...] | None = None
    k: int | None = None
    m: int | None = None
    children: tuple["Source", ...] = ()


@dataclass(frozen=True)
class Resolved:
    """A resolved source, held as its factors: a plain source is a product of
    one.  width, check and seidel answer from the factors; only .action builds
    the Cartesian product."""

    parts: tuple[ActionData, ...]
    spec: toric.SubcircleSpec | None = None     # present only for toric sources

    @property
    def action(self) -> ActionData:
        return self.parts[0] if len(self.parts) == 1 else product_action(self.parts)


_INTEGER = re.compile(r"[+-]?[0-9]+")
# Deepest parenthesis nesting a source expression may have; parsing recurses
# once per level, so an unbounded depth would exhaust the interpreter's stack.
_MAX_NESTING = 64


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    items = [p.strip() for p in text.split(",")]
    if all(_INTEGER.fullmatch(p) for p in items):
        try:
            return tuple(int(p) for p in items)
        except ValueError:      # more digits than the interpreter converts
            pass
    raise InvalidInput(f"{flag}: expected comma-separated integers, got {text!r}")


def _parse_direction(text: str) -> tuple[int, ...]:
    xi = _parse_ints(text, "--dir")
    if all(c == 0 for c in xi):
        raise InvalidInput("--dir: direction must be nonzero")
    g = content(xi)
    if g != 1:
        raise InvalidInput(f"--dir: direction {text} is not primitive (gcd {g})")
    return xi


def _split_top(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > _MAX_NESTING:
                raise InvalidInput(f"sources nest deeper than {_MAX_NESTING} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidInput(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InvalidInput(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_source_expr(text: str) -> Source:
    """One source: grassmannian(k,m) | action(FILE) | toric(FILE,a,b,...) | product(...)."""
    text = text.strip()
    open_idx = text.find("(")
    if open_idx < 0 or not text.endswith(")"):
        raise InvalidInput(f"cannot parse source {text!r}; "
                           "expected kind(...) such as grassmannian(2,4)")
    name = text[:open_idx].strip()
    inner = text[open_idx + 1:-1]
    args = _split_top(inner) if inner.strip() else []
    if name == "grassmannian":
        if len(args) != 2:
            raise InvalidInput("grassmannian(k,m) takes exactly two integers")
        k, m = _parse_ints(",".join(args), "grassmannian")
        return Source("grassmannian", k=k, m=m)
    if name == "action":
        if len(args) != 1 or not args[0]:
            raise InvalidInput("action(FILE) takes exactly one path")
        return Source("action", path=args[0])
    if name == "toric":
        if len(args) < 2 or not args[0]:
            raise InvalidInput("toric(FILE,a,b,...) needs a path and a direction")
        return Source("toric", path=args[0],
                      direction=_parse_direction(",".join(args[1:])))
    if name == "product":
        if not args:
            raise InvalidInput("product(...) needs at least one source")
        return Source("product", children=tuple(parse_source_expr(a) for a in args))
    raise InvalidInput(f"unknown source kind {name!r}")


def resolve(source: Source) -> Resolved:
    if source.kind == "action":
        return Resolved((normalize_moment(load_action(source.path)),))
    if source.kind == "grassmannian":
        return Resolved((grassmannian_action(GrassmannianSpec(source.k, source.m)),))
    if source.kind == "toric":
        _, reflexive = monotone_normalize(load_polytope(source.path))
        spec = toric.SubcircleSpec(source.direction, reflexive)
        return Resolved((toric.toric_action(spec),), spec)
    if source.kind == "product":
        return Resolved(tuple(resolve(c).action for c in source.children))
    raise InvalidInput(f"unknown source kind {source.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gromov-width",
        description="Gromov width of monotone manifolds with a semifree circle "
                    "action and isolated maximum, from fixed-point data.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("width", "compute the width and the levels behind it"),
        ("check", "run the hypothesis checks and report each"),
        ("fixed", "list the fixed components with weights and moment values"),
        ("edges", "cross-check c1 = area = lattice length on toric edges"),
        ("seidel", "report the graded structure of the Seidel element"),
    ]
    for name, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--action", metavar="FILE", help="action JSON file")
        group.add_argument("--toric", metavar="FILE", help="polytope JSON file")
        group.add_argument("--grassmannian", metavar="K,M", help="Grassmannian Gr(k,m)")
        group.add_argument("--product", metavar="SRC[,SRC...]",
                           help="product of sources, e.g. grassmannian(2,4),action(a.json)")
        p.add_argument("--dir", metavar="CSV", dest="direction",
                       help="subcircle direction for --toric; use --dir=-1,-2 for negatives")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _source_from_args(args) -> Source:
    if args.direction is not None and not args.toric:
        raise InvalidInput("--dir only applies to --toric sources")
    if args.action:
        return Source("action", path=args.action)
    if args.toric:
        if args.direction is None:
            raise InvalidInput("--toric requires --dir")
        return Source("toric", path=args.toric, direction=_parse_direction(args.direction))
    if args.grassmannian:
        values = _parse_ints(args.grassmannian, "--grassmannian")
        if len(values) != 2:
            raise InvalidInput("--grassmannian takes k,m")
        return Source("grassmannian", k=values[0], m=values[1])
    children = tuple(parse_source_expr(t) for t in _split_top(args.product))
    return Source("product", children=children)


def _witness(resolved: Resolved, check: str, witness: str | None) -> str | None:
    """A toric source names a semifree failure by its facet or face."""
    if resolved.spec is not None and check == SEMIFREE:
        return toric.semifree_witness(resolved.spec) or witness
    return witness


def _enrich(exc: HypothesisFailed, resolved: Resolved) -> HypothesisFailed:
    """Upgrade the witness of a toric source; add the gap."""
    gap = exc.raw_difference
    if gap is None:
        gap = product_level_gap(resolved.parts)
    return HypothesisFailed(exc.check, _witness(resolved, exc.check, exc.witness), gap)


def _failure_line(check: str, witness: str, gap) -> str:
    line = f"{_HEADLINES.get(check, check)}: {witness}"
    if gap is not None:
        line += f"; raw H_max - s = {gap} (diagnostic only)"
    return line


def _run_width(resolved: Resolved) -> tuple[dict, str, int]:
    report = product_width(resolved.parts)
    payload = {
        "command": "width",
        "width": report.width,
        "H_max": report.H_max,
        "s": report.s,
        "max_component": report.max_component,
        "second_level_components": list(report.second_level_components),
        "hypothesis_log": list(report.hypothesis_log),
    }
    lines = [
        f"Gromov width: {report.width}",
        f"H(F_max) = {report.H_max} ({report.max_component})",
        f"s = {report.s} ({', '.join(report.second_level_components)})",
        "checks passed: " + ", ".join(report.hypothesis_log),
    ]
    return payload, "\n".join(lines), 0


def _run_check(resolved: Resolved) -> tuple[dict, str, int]:
    results = [r if r.passed else CheckResult(r.check, False,
                                               _witness(resolved, r.check, r.witness))
               for r in product_checks(resolved.parts)]
    lines = [f"{r.check}: PASS" if r.passed else f"{r.check}: FAIL ({r.witness})"
             for r in results]
    payload = {
        "command": "check",
        "results": [{"check": r.check, "passed": r.passed, "witness": r.witness}
                    for r in results],
    }
    failed = [r for r in results if not r.passed]
    if not failed:
        lines.append("all hypotheses hold")
        return payload, "\n".join(lines), 0
    gap = product_level_gap(resolved.parts)
    payload["failure"] = {"check": failed[0].check, "witness": failed[0].witness,
                          "raw_difference": gap}
    lines.append(_failure_line(failed[0].check, failed[0].witness, gap))
    return payload, "\n".join(lines), 1


def _run_fixed(action: ActionData, as_json: bool) -> tuple[dict | None, str | None, int]:
    # only the form asked for is built; the other is None
    if as_json:
        data = action_to_json(action)
        return {"command": "fixed", "n": data["n"], "components": data["components"]}, None, 0
    action, comps = _listing(action)
    lines = [f"n = {action.n}"]
    shown = {}      # a product repeats weight lists: format each one once
    for comp in comps:
        weights = shown.get(comp.weights)
        if weights is None:
            weights = shown[comp.weights] = str(list(comp.weights))
        lines.append(f"{comp.label}: complex_dim {comp.complex_dim}, "
                     f"weights {weights}, H = {comp.H}")
    return None, "\n".join(lines), 0


def _run_edges(resolved: Resolved) -> tuple[dict, str, int]:
    if resolved.spec is None:
        raise InvalidInput("edges requires a --toric source")
    rows = toric.edge_cross_check(resolved.spec)
    payload = {"command": "edges", "edges": []}
    lines = []
    for row in rows:
        tail, head = row.edge.tail.position, row.edge.head.position
        payload["edges"].append({
            "tail": point_to_json(tail),
            "head": point_to_json(head),
            "direction": list(row.edge.direction),
            "c1": row.c1,
            "area": row.area,
            "lattice_length": row.lattice_length,
        })
        lines.append(f"edge {_fmt_point(tail)} -> {_fmt_point(head)}: "
                     f"direction {_fmt_point(row.edge.direction)}, "
                     f"c1 = {row.c1}, area = {row.area}, lattice_length = {row.lattice_length}")
    if not lines:
        lines = ["no edges with nonzero weight"]
    return payload, "\n".join(lines), 0


def _run_seidel(resolved: Resolved) -> tuple[dict, str, int]:
    structure = seidel_from_width(product_width(resolved.parts))
    payload = {
        "command": "seidel",
        "n": structure.n,
        "s": structure.s,
        "formula": structure.formula(),
        "entries": [{"index": e.index, "status": e.status.value,
                     "cohomology_degree": e.cohomology_degree,
                     "q_exponent": e.q_exponent} for e in structure.entries],
    }
    lines = [structure.formula(), f"n = {structure.n}", f"s = {structure.s}"]
    for entry in sorted(structure.entries, key=lambda e: -e.index):
        lines.append(f"a_{entry.index}: {entry.status.value}")
    return payload, "\n".join(lines), 0


def _execute(args) -> tuple[dict | None, str | None, int]:
    resolved = resolve(_source_from_args(args))
    try:
        if args.command == "width":
            return _run_width(resolved)
        if args.command == "check":
            return _run_check(resolved)
        if args.command == "fixed":
            return _run_fixed(resolved.action, args.format == "json")
        if args.command == "edges":
            return _run_edges(resolved)
        return _run_seidel(resolved)
    except HypothesisFailed as exc:
        raise _enrich(exc, resolved) from None


def _respond(args) -> tuple[str, int]:
    """The output of a command and its exit code, failures included."""
    try:
        payload, text, code = _execute(args)
    except HypothesisFailed as exc:
        payload = {"command": args.command,
                   "error": {"kind": "hypothesis-failure", "check": exc.check,
                             "witness": exc.witness,
                             "raw_difference": exc.raw_difference}}
        text = _failure_line(exc.check, exc.witness, exc.raw_difference)
        code = 1
    except NotMonotone as exc:
        payload = {"command": args.command,
                   "error": {"kind": "NotMonotone", "message": str(exc)}}
        text = f"NOT MONOTONE: {exc}"
        code = 1
    except HypothesisFailure as exc:
        payload = {"command": args.command,
                   "error": {"kind": type(exc).__name__, "message": str(exc)}}
        text = f"hypothesis failure: {exc}"
        code = 1
    except (Error, OSError) as exc:
        payload = {"command": args.command,
                   "error": {"kind": type(exc).__name__, "message": str(exc)}}
        text = f"error: {exc}"
        code = 2
    return json.dumps(payload, sort_keys=True) if args.format == "json" else text, code


def _refusal(args, kind: str, message: str) -> tuple[str, int]:
    """Exit 2 with a one-line message, for a failure raised outside _respond."""
    if args.format == "json":
        return json.dumps({"command": args.command,
                           "error": {"kind": kind, "message": message}}, sort_keys=True), 2
    return f"error: {message}", 2


_parser = None     # built by the first main() call, not at import
# Exit code when the reader closes stdout early: 128 + SIGPIPE, what a shell
# reports for a program that the closed pipe killed.
_CLOSED_PIPE = 141


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        out, code = _respond(args)
    except ValueError as exc:
        # Input integers are bounded by the interpreter's digit limit, but a
        # result computed from them (a level, a gap) can outgrow it, and then
        # formatting it, in a message or in the output, raises.
        if "integer string conversion" not in str(exc):
            raise
        out, code = _refusal(args, "InvalidInput",
                             f"a number in the result has more than "
                             f"{sys.get_int_max_str_digits()} digits, too many to print")
    except MemoryError:
        # A short input can describe more than fits in memory: each isolated
        # fixed point of Gr(k, 3k) carries 2k^2 weights.
        out, code = _refusal(args, "MemoryError",
                             "out of memory: the input describes too large an action")
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early, which is no hypothesis failure.
        # Point stdout at devnull so the flush at interpreter exit does not
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
