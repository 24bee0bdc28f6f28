"""Independent checker for the benchmark's requests.

Nothing here imports gromov_width or shares an algorithm with it: vertices
come from Cramer's rule over Laplace determinants, edges are vertex pairs that
share dim - 1 active facets, isotropy orders are gcds of maximal minors, and
product data comes from the closed-form Grassmannian levels.  Each ``check_*``
function returns a list of disagreement messages; an empty list means the
output is right.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

SEMIFREE = "semifree"
ISOLATED_MAX = "isolated-max"
MONOTONE = "monotone-consistency"
CHECK_NAMES = (SEMIFREE, ISOLATED_MAX, MONOTONE)
HEADLINES = {SEMIFREE: "NOT SEMIFREE", ISOLATED_MAX: "MAX NOT ISOLATED",
             MONOTONE: "NOT MONOTONE-CONSISTENT"}


def laplace_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * laplace_det(minor)
    return total


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def minor_gcd(rows, n):
    """gcd of the maximal minors of an r x n integer matrix, r <= n."""
    g = 0
    for cols in combinations(range(n), len(rows)):
        g = gcd(g, abs(laplace_det([[row[c] for c in cols] for row in rows])))
    return g


# --------------------------------------------------------------------------
# toric requests

class Geometry:
    """Vertices and edges of a simple polytope {x : <x, normal_i> >= offset_i}."""

    def __init__(self, normals, offsets):
        self.dim = n = len(normals[0])
        self.normals = [tuple(u) for u in normals]
        self.offsets = [Fraction(b) for b in offsets]
        found = {}
        for subset in combinations(range(len(normals)), n):
            a = [list(self.normals[i]) for i in subset]
            d = laplace_det(a)
            if d == 0:
                continue
            point = tuple(
                Fraction(laplace_det([row[:j] + [self.offsets[subset[r]]] + row[j + 1:]
                                      for r, row in enumerate(a)])) / d
                for j in range(n))
            if point not in found and all(dot(point, u) >= b
                                          for u, b in zip(self.normals, self.offsets)):
                found[point] = frozenset(i for i, (u, b) in enumerate(
                    zip(self.normals, self.offsets)) if dot(point, u) == b)
        self.vertices = sorted(found)
        self.active = found
        self.edges = [(p, q) for p, q in combinations(self.vertices, 2)
                      if len(found[p] & found[q]) >= n - 1]


def reflexive_geometry(normals) -> Geometry:
    return Geometry(normals, [-1] * len(normals))


@dataclass(frozen=True)
class ToricExpectation:
    dim: int
    checks: tuple[bool, bool, bool]   # semifree, isolated-max, monotone-consistency
    width: int | None
    s: int | None
    second_level_count: int | None
    edge_lengths: dict                # (tail, head) -> lattice length, weight != 0

    @property
    def accepted(self) -> bool:
        return all(self.checks)


def _lattice_length(p, q):
    return gcd(*(int(b - a) for a, b in zip(p, q)))


def expect_toric(geom: Geometry, xi) -> ToricExpectation:
    """What a request on the reflexive polytope `geom` with direction xi must give."""
    n = geom.dim
    weight = {}
    neighbours = {v: [] for v in geom.vertices}
    for p, q in geom.edges:
        length = _lattice_length(p, q)
        weight[(p, q)] = dot(xi, [b - a for a, b in zip(p, q)]) / length
        neighbours[p].append((q, weight[(p, q)]))
        neighbours[q].append((p, -weight[(p, q)]))
    semifree = all(abs(w) <= 1 for w in weight.values())
    level = {v: dot(xi, v) for v in geom.vertices}
    top = max(level.values())
    at_top = [v for v in geom.vertices if level[v] == top]
    isolated = len(at_top) == 1 and all(w == -1 for _, w in neighbours[at_top[0]])
    checks = (semifree, isolated, top == n)
    if not all(checks):
        return ToricExpectation(n, checks, None, None, None, {})
    s = max(lv for lv in level.values() if lv != top)
    # fixed components at level s: vertices there glued along zero-weight edges
    parent = {v: v for v in geom.vertices if level[v] == s}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for (p, q), w in weight.items():
        if w == 0 and p in parent and q in parent:
            parent[find(q)] = find(p)
    lengths = {(p, q): _lattice_length(p, q) for (p, q), w in weight.items() if w != 0}
    return ToricExpectation(n, checks, int(top - s), int(s),
                            len({find(v) for v in parent}), lengths)


_WITNESS = re.compile(r"^(facet|face) (\S+) isotropy order (\d+)$")


def witness_face(label: str):
    """Facet indices named by a face label: D3, D1&D3, p123 or p(1,10,11)."""
    if label.startswith("p("):
        return [int(x) - 1 for x in label[2:-1].split(",")]
    if label.startswith("p"):
        return [int(c) - 1 for c in label[1:]]
    return [int(part[1:]) - 1 for part in label.split("&")]


@dataclass
class ToricOutput:
    """Plain data read off one toric request, for the checker."""

    translation: tuple
    reflexive: list              # [(normal, offset)] of the normalized polytope
    checks: list                 # [(name, passed)]
    width: int | None = None
    H_max: int | None = None
    s: int | None = None
    second_level: tuple = ()
    edge_rows: list | None = None    # [(tail, head, c1, area, lattice_length)]
    seidel: list | None = None       # [(index, status)]
    seidel_n: int | None = None
    seidel_s: int | None = None
    degree_ok: bool | None = None
    witness: str | None = None


def check_toric(out: ToricOutput, exp: ToricExpectation, normals, translation, xi):
    """Disagreements between one toric request's output and the expectation."""
    errs = []
    if tuple(out.translation) != tuple(-Fraction(t) for t in translation):
        errs.append(f"translation {out.translation} is not minus {translation}")
    if out.reflexive != [(tuple(u), -1) for u in normals]:
        errs.append("normalized polytope is not the reflexive one")
    got = tuple(passed for _, passed in out.checks)
    if [name for name, _ in out.checks] != list(CHECK_NAMES) or got != exp.checks:
        errs.append(f"checks {out.checks}, expected {exp.checks}")
        return errs
    n = exp.dim
    if not exp.accepted:
        if exp.checks[0]:
            if out.witness is not None:
                errs.append(f"semifree action got witness {out.witness!r}")
            return errs
        match = _WITNESS.match(out.witness or "")
        if match is None:
            return errs + [f"unparsable semifree witness {out.witness!r}"]
        face = witness_face(match.group(2))
        order = int(match.group(3))
        if (match.group(1) == "facet") != (len(face) == 1):
            errs.append(f"witness {out.witness!r} mislabels the face")
        expected = minor_gcd([normals[i] for i in face] + [list(xi)], n)
        if order != expected or order <= 1:
            errs.append(f"witness {out.witness!r}: maximal-minor gcd is {expected}")
        return errs
    if (out.width, out.H_max, out.s) != (exp.width, n, exp.s):
        errs.append(f"width {out.width} H_max {out.H_max} s {out.s}, "
                    f"expected {exp.width} {n} {exp.s}")
    if len(out.second_level) != exp.second_level_count:
        errs.append(f"{len(out.second_level)} second-level components, "
                    f"expected {exp.second_level_count}")
    rows = {(tuple(t), tuple(h)): (c1, area, length)
            for t, h, c1, area, length in out.edge_rows}
    expected_rows = {k: (v, v, v) for k, v in exp.edge_lengths.items()}
    if len(rows) != len(out.edge_rows) or rows != expected_rows:
        errs.append(f"edge rows {sorted(rows.items())} != {sorted(expected_rows.items())}")
    errs += _seidel_errors(out.seidel_n, out.seidel_s, out.seidel, n, exp.s)
    if out.degree_ok is not True:
        errs.append("degree_check did not return True")
    return errs


def _seidel_errors(n_got, s_got, entries, n, s):
    if (n_got, s_got) != (n, s):
        return [f"seidel n, s = {n_got}, {s_got}; expected {n}, {s}"]
    expected = [(i, "point-class" if i == n else "forced-zero" if i >= s else "unconstrained")
                for i in range(n + 1)]
    if sorted(entries) != expected:
        return [f"seidel entries {sorted(entries)} != {expected}"]
    return []


# --------------------------------------------------------------------------
# product-cli requests

def grassmannian_levels(k, m):
    return [k1 * (m - k) - (k - k1) * k for k1 in range(k + 1)]


@dataclass(frozen=True)
class ProductExpectation:
    n: int
    width: int
    count: int
    levels: Counter
    second_level_count: int


def expect_product(factors) -> ProductExpectation:
    """Closed-form data of a product of Grassmannians Gr(k_i, m_i)."""
    levels = Counter({0: 1})
    for k, m in factors:
        step = Counter()
        for h, c in levels.items():
            for lv in grassmannian_levels(k, m):
                step[h + lv] += c
        levels = step
    width = min(m for _, m in factors)
    return ProductExpectation(
        n=sum(k * (m - k) for k, m in factors), width=width,
        count=prod(k + 1 for k, _ in factors), levels=levels,
        second_level_count=sum(1 for _, m in factors if m == width))


def _parse_labels(text):
    inner = text[text.index("(") + 1:-1]
    return inner.split(", ") if inner else []


def check_cli(command, fmt, factors, planted, code, stdout):
    """Disagreements between one CLI call's exit code and output and the expectation.

    `planted` names the hypothesis a planted action file breaks, or None.
    """
    try:
        if planted is not None:
            return _check_planted(command, fmt, planted, code, stdout)
        if code != 0:
            return [f"exit code {code}, expected 0"]
        exp = expect_product(factors)
        payload = json.loads(stdout) if fmt == "json" else None
        lines = stdout.rstrip("\n").split("\n")
        return {"width": _check_width, "check": _check_check, "fixed": _check_fixed,
                "seidel": _check_seidel}[command](exp, payload, lines)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {command} output: {type(exc).__name__}: {exc}"]


def _check_width(exp, payload, lines):
    if payload is not None:
        got = (payload["width"], payload["H_max"], payload["s"],
               len(payload["second_level_components"]))
    else:
        got = (int(lines[0].removeprefix("Gromov width: ")),
               int(lines[1].removeprefix("H(F_max) = ").split(" ")[0]),
               int(lines[2].removeprefix("s = ").split(" ")[0]),
               len(_parse_labels(lines[2])))
    want = (exp.width, exp.n, exp.n - exp.width, exp.second_level_count)
    return [] if got == want else [f"width output {got}, expected {want}"]


def _check_check(exp, payload, lines):
    if payload is not None:
        got = [(r["check"], r["passed"]) for r in payload["results"]]
        ok = got == [(c, True) for c in CHECK_NAMES] and "failure" not in payload
    else:
        ok = lines == [f"{c}: PASS" for c in CHECK_NAMES] + ["all hypotheses hold"]
    return [] if ok else ["check output does not pass all three hypotheses"]


def _check_fixed(exp, payload, lines):
    if payload is not None:
        n = payload["n"]
        levels = Counter(c["H"] for c in payload["components"])
        count = len(payload["components"])
    else:
        n = int(lines[0].removeprefix("n = "))
        levels = Counter(int(line.rsplit("H = ", 1)[1]) for line in lines[1:])
        count = len(lines) - 1
    errs = []
    if (n, count) != (exp.n, exp.count):
        errs.append(f"fixed n, count = {n}, {count}; expected {exp.n}, {exp.count}")
    if levels != exp.levels:
        errs.append("fixed moment levels are not the Minkowski sum of the factor levels")
    return errs


def _check_seidel(exp, payload, lines):
    if payload is not None:
        n, s = payload["n"], payload["s"]
        entries = [(e["index"], e["status"]) for e in payload["entries"]]
    else:
        n = int(lines[1].removeprefix("n = "))
        s = int(lines[2].removeprefix("s = "))
        entries = [(int(line[2:line.index(":")]), line.split(": ", 1)[1])
                   for line in lines[3:]]
    return _seidel_errors(n, s, entries, exp.n, exp.n - exp.width)


def _check_planted(command, fmt, planted, code, stdout):
    if code != 1:
        return [f"exit code {code}, expected 1 for a planted {planted} failure"]
    if fmt == "json":
        payload = json.loads(stdout)
        named = (payload["failure"]["check"] if command == "check"
                 else payload["error"]["check"])
    else:
        lines = stdout.rstrip("\n").split("\n")
        if command == "check" and f"{planted}: FAIL (" not in stdout:
            return [f"check output has no FAIL line for {planted}"]
        named = next((c for c, h in HEADLINES.items() if lines[-1].startswith(h + ":")),
                     None)
    return [] if named == planted else [f"failure names {named!r}, planted {planted!r}"]
