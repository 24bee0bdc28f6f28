"""Seeded input generation for the benchmark's workloads.

Everything here is plain data built from the workload seed: polytope JSON
documents, subcircle directions and CLI argument lists.  Nothing imports
gromov_width, so the program under test receives only generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from math import gcd
from pathlib import Path

from checker import laplace_det

# --------------------------------------------------------------------------
# toric inputs

P1 = ((1,), (-1,))
P2 = ((1, 0), (0, 1), (-1, -1))
P1xP1 = ((1, 0), (-1, 0), (0, 1), (0, -1))
DP1 = ((0, 1), (-1, -1), (1, 0), (1, 1))
DP2 = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1))
DP3 = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))


def simplex(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,)


def product_normals(*factors):
    """Facet normals of a product of reflexive polytopes, factor by factor."""
    dim = sum(len(f[0]) for f in factors)
    normals, offset = [], 0
    for f in factors:
        d = len(f[0])
        normals += [(0,) * offset + tuple(u) + (0,) * (dim - offset - d) for u in f]
        offset += d
    return tuple(normals)


# Smooth reflexive seeds, by inward facet normals (every offset -1).
SEEDS = {
    "P2": P2, "P1xP1": P1xP1, "dP1": DP1, "dP2": DP2, "dP3": DP3,
    "P3": simplex(3), "P2xP1": product_normals(P2, P1), "P1^3": product_normals(P1, P1, P1),
    "dP1xP1": product_normals(DP1, P1),
    "P4": simplex(4), "P1^4": product_normals(P1, P1, P1, P1),
    "P2xP2": product_normals(P2, P2), "P3xP1": product_normals(simplex(3), P1),
}

# toric-sweep: each seed with the box of canonical directions it is swept over.
# The mix puts the median request inside the dense dP1xP1 block, not at a
# gap between blocks, so latency_p50_ms does not jump between runs.
SWEEP = (
    ("dP3", 2),        # [-2, 2]^2: 16 primitive directions, none accepted
    ("P2xP1", 1),      # [-1, 1]^3: 26 directions
    ("dP1xP1", 1),     # [-1, 1]^3
    ("P2xP2", 0),      # {0, 1}^4: 15 directions
    ("P3xP1", 0),      # {0, 1}^4
    ("P1^4", 0),       # {0, 1}^4
)

# toric-fresh: each seed with a semifree direction whose maximum is an
# isolated point (the benchmark's tests confirm each with the checker).  An
# odd number of seeds puts the median request inside one seed's block (P2xP1)
# rather than at the boundary of two.
FRESH = (
    ("P2", (1, 0)), ("P1xP1", (1, 1)), ("dP1", (0, 1)), ("dP2", (1, 1)),
    ("P3", (1, 0, 0)), ("P2xP1", (1, 0, 1)), ("dP1xP1", (0, 1, 1)), ("P1^3", (1, 1, 1)),
    ("P4", (1, 0, 0, 0)), ("P1^4", (1, 1, 1, 1)), ("P2xP2", (1, 0, 1, 0)),
)


def box_directions(dim, radius):
    """Primitive directions in [-radius, radius]^dim, or in {0, 1}^dim for radius 0."""
    values = range(-radius, radius + 1) if radius else (0, 1)
    return [d for d in cartesian(values, repeat=dim) if any(d) and gcd(*d) == 1]


def random_unimodular(rng, dim, steps):
    """A random element of GL(dim, Z) with small entries: shears, swaps, sign flips."""
    mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice((-1, 1))
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        elif op == 1:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-a for a in mat[i]]
    return mat


def inverse_transpose(mat):
    """A^{-T} of a unimodular integer matrix, via cofactors."""
    n = len(mat)
    d = laplace_det(mat)
    if n == 1:
        return [[d]]
    return [[(-1) ** (i + j) * d * laplace_det([[mat[r][c] for c in range(n) if c != j]
                                                 for r in range(n) if r != i])
             for j in range(n)] for i in range(n)]


def _apply(mat, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in mat)


@dataclass(frozen=True)
class Scramble:
    """The image A P + t of a reflexive seed P, as a JSON document."""

    normals: tuple          # scrambled normals A^{-T} u, in the seed's facet order
    translation: tuple      # t, rational
    doc: dict
    covector: list          # A^{-T}, carries canonical directions to scrambled ones

    def direction(self, xi):
        return _apply(self.covector, xi)


def _size(normals):
    return sum(abs(c) for u in normals for c in u)


def _fraction_json(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class ScrambleSource:
    """Fresh scrambles of the seed polytopes from one RNG stream.

    No two scrambles share their normals and no translation is zero, so no
    two requests of a run see the same polytope, before or after
    normalization.  Request cost grows with the size of the normals, so a
    draw whose normals' absolute entries sum to more than twice the seed's is
    drawn again; a repeat is drawn again with one more shear step and no size
    limit, so the draws cannot run out.
    """

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def scramble(self, seed_name) -> Scramble:
        seed = SEEDS[seed_name]
        dim = len(seed[0])
        limit = 2 * _size(seed)
        steps = 2 * dim
        while True:
            cov = inverse_transpose(random_unimodular(self.rng, dim, steps))
            normals = tuple(_apply(cov, u) for u in seed)
            if normals in self.seen:
                steps += 1
                limit = None
            elif limit is None or _size(normals) <= limit:
                self.seen.add(normals)
                break
        t = (0,) * dim
        while not any(t):   # t = 0 would hand out a polytope already in reflexive position
            t = tuple(Fraction(self.rng.randrange(-6, 7), self.rng.choice((1, 2, 3)))
                      for _ in range(dim))
        doc = {"dim": dim, "facets": [
            {"normal": list(u), "offset": _fraction_json(-1 + sum(a * b for a, b in zip(t, u)))}
            for u in normals]}
        return Scramble(normals, t, doc, cov)


# --------------------------------------------------------------------------
# product-cli inputs

@dataclass(frozen=True)
class Atom:
    """One factor: Gr(k, m) named inline or through an action file, or a planted file."""

    k: int
    m: int
    via_file: bool = False
    planted: str | None = None      # "semifree" (a weight 2) or "isolated-max"


def G(k, m):
    return Atom(k, m)


def A(k, m, planted=None):
    return Atom(k, m, True, planted)


# One round of product-cli: (command, format, source).  A source is an Atom
# (a single --grassmannian or --action source) or a list (a --product
# expression) whose items are Atoms or nested lists (product(...)).
ROUND = (
    ("width", "text", G(2, 4)),
    ("width", "json", G(1, 3)),
    ("check", "text", G(2, 5)),
    ("seidel", "json", G(3, 6)),
    ("fixed", "text", G(2, 6)),
    ("width", "text", A(1, 4)),
    ("check", "json", A(2, 5)),
    ("fixed", "json", A(3, 7)),
    ("seidel", "text", A(2, 4)),
    ("width", "text", A(2, 5, "semifree")),
    ("check", "json", A(2, 4, "isolated-max")),
    ("check", "text", A(1, 5, "semifree")),
    ("seidel", "text", [G(1, 3), A(2, 4, "semifree")]),
    ("width", "json", [A(1, 3), G(2, 5), A(1, 4, "isolated-max")]),
    ("width", "text", [G(1, 2)]),
    ("width", "text", [G(2, 4), G(1, 3)]),
    ("check", "json", [G(2, 5), A(1, 4), G(1, 5)]),
    ("fixed", "text", [G(1, 3), G(2, 4)]),
    ("seidel", "text", [[G(1, 3), G(1, 4)], G(2, 4)]),
    ("width", "json", [G(2, 5), G(1, 4), A(2, 4), G(1, 3)]),
    ("fixed", "json", [A(2, 5), [G(1, 4), G(2, 4)]]),
    ("check", "text", [G(1, 3), G(1, 4), A(2, 5), G(1, 5), G(2, 4)]),
    ("seidel", "json", [G(2, 4), [G(1, 3), A(1, 4)], G(2, 5), [G(1, 2), G(2, 6)]]),
    ("width", "text", [G(3, 7), G(3, 7), A(3, 7), G(3, 7), [G(3, 7), G(3, 7)]]),
    ("fixed", "text", [G(2, 5), A(2, 4), G(2, 6), G(1, 4), [G(2, 5), G(3, 6)]]),
    ("check", "json", [G(1, 3), G(2, 4), G(1, 4), G(2, 5), G(1, 5), G(2, 6)]),
)

FILE_VARIANTS = 3   # action files written per distinct atom, picked per request


def grassmannian_components(k, m):
    """Closed-form fixed components of Gr(k, m): (label, complex_dim, weights)."""
    q = m - k
    return [(f"c{k1}", k1 * (k - k1) + (k - k1) * (q - k + k1),
             [-1] * (k1 * (q - k + k1)) + [1] * ((k - k1) * (k - k1)))
            for k1 in range(k, -1, -1)]


def action_document(atom: Atom, rng) -> dict:
    comps = grassmannian_components(atom.k, atom.m)
    n = atom.k * (atom.m - atom.k)
    if atom.planted == "semifree":
        label, dim, weights = comps[-1]           # the minimum: all weights +1
        comps[-1] = (label, dim, weights[:-1] + [2])
    elif atom.planted == "isolated-max":
        comps[0] = (comps[0][0], 1, [-1] * (n - 1))   # a curve at the top
    rng.shuffle(comps)
    return {"n": n, "components": [{"label": label, "complex_dim": dim, "weights": w}
                                   for label, dim, w in comps]}


def atoms(source):
    if isinstance(source, Atom):
        return [source]
    return [a for item in source for a in atoms(item)]


def write_action_files(workdir: Path, rng) -> dict:
    """Write FILE_VARIANTS action files for every file atom of the round."""
    paths = {}
    for atom in sorted({a for _, _, src in ROUND for a in atoms(src) if a.via_file},
                       key=repr):
        for v in range(FILE_VARIANTS):
            path = workdir / f"gr{atom.k}-{atom.m}-{atom.planted or 'ok'}-{v}.json"
            path.write_text(json.dumps(action_document(atom, rng)))
            paths.setdefault(atom, []).append(str(path))
    return paths


@dataclass(frozen=True)
class CliRequest:
    argv: list
    command: str
    fmt: str
    factors: tuple       # (k, m) of every Grassmannian factor
    planted: str | None


def _expr(source, paths, rng):
    if isinstance(source, Atom):
        if source.via_file:
            return f"action({rng.choice(paths[source])})"
        return f"grassmannian({source.k},{source.m})"
    items = list(source)
    rng.shuffle(items)
    return "product(" + ",".join(_expr(item, paths, rng) for item in items) + ")"


def cli_round(rng, paths) -> list[CliRequest]:
    """One round: every template once, in a fresh order, factors freshly permuted."""
    requests = []
    for command, fmt, source in rng.sample(ROUND, len(ROUND)):
        if isinstance(source, Atom) and source.via_file:
            argv = [command, "--action", rng.choice(paths[source])]
        elif isinstance(source, Atom):
            argv = [command, "--grassmannian", f"{source.k},{source.m}"]
        else:
            argv = [command, "--product", _expr(source, paths, rng)[len("product("):-1]]
        if fmt == "json":
            argv += ["--format", "json"]
        found = atoms(source)
        planted = next((a.planted for a in found if a.planted), None)
        requests.append(CliRequest(argv, command, fmt,
                                   tuple((a.k, a.m) for a in found), planted))
    return requests


def new_rng(seed, workload):
    return random.Random(f"{workload}:{seed}")
