"""Half-space polytopes: vertices, edges, normalization, serialization.

Vertex positions are double-checked against a Cramer's-rule oracle built on
Laplace expansion, which shares no code with the library's fraction-free
elimination.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import mul

import pytest

import gromov_width.polytope as polytope_module
from gromov_width.errors import (
    Empty,
    InvalidInput,
    NotDelzant,
    NotMonotone,
    Unbounded,
)
from gromov_width.lattice import pairing
from gromov_width.polytope import (
    _NORMALIZED_KEPT,
    DelzantPolytope,
    HalfSpace,
    VertexFigure,
    _cramer,
    _greedy_basis,
    _nonsingular_subsets,
    _ray_basis,
    _scaled_offsets,
    _scan,
    _solve_basis,
    _walk,
    enumerate_edges,
    enumerate_vertices,
    in_reflexive_position,
    load_polytope,
    monotone_normalize,
    polytope_from_json,
    polytope_to_json,
)

from generators import (
    FACTOR_NORMALS,
    REFLEXIVE_2D,
    random_delzant_3d,
    random_simple_product,
    random_unimodular,
    reflexive_polytope,
    reflexive_product,
    scrambled_monotone_2d,
    scrambled_monotone_product,
    transform_polytope,
)
from helpers import DATA
from oracles import cramer_vertices, exit_step_edges, fourier_motzkin_feasible, laplace_det

FOUR_DIM_PRODUCTS = [("P2", "P2"), ("P1xP1", "dP1"), ("P1", "P1", "P1", "P1"),
                     ("P2", "P1", "P1"), ("dP3", "P1xP1")]


def blown_up_plane():
    """One-point blow-up of the projective plane, sized for monotonicity."""
    return DelzantPolytope(2, (
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((-1, -1), Fraction(-3)),
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((1, 1), Fraction(1)),
    ))


def plane_simplex():
    return DelzantPolytope(2, (
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((-1, -1), Fraction(-3)),
    ))


def test_halfspace_validation():
    with pytest.raises(InvalidInput):
        HalfSpace((2, 4), Fraction(0))
    with pytest.raises(InvalidInput):
        HalfSpace((0, 0), Fraction(0))
    assert HalfSpace((1, -2), 3).offset == Fraction(3)


def test_blowup_vertices():
    vs = enumerate_vertices(blown_up_plane())
    assert [v.position for v in vs] == [(0, 1), (0, 3), (1, 0), (3, 0)]


def test_simplex_vertices():
    vs = enumerate_vertices(plane_simplex())
    assert [v.position for v in vs] == [(0, 0), (0, 3), (3, 0)]


def test_vertex_figure_duality():
    # edge directions are dual to the active normals: <e_j, n_i> = delta_ij.
    for poly in (blown_up_plane(), plane_simplex()):
        for v in enumerate_vertices(poly):
            active = sorted(v.incident_facets)
            for j, e in enumerate(v.edge_directions):
                for i, fi in enumerate(active):
                    want = 1 if i == j else 0
                    assert pairing(e, poly.facets[fi].normal) == want


def test_unbounded_halfplane():
    poly = DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),))
    with pytest.raises(Unbounded) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "no vertex: the half-space intersection is unbounded"


def test_unbounded_cone_with_vertex():
    poly = DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                               HalfSpace((0, 1), Fraction(0))))
    with pytest.raises(Unbounded) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "edge ray from vertex (0, 0) never leaves the polytope"


def test_empty_intersection():
    poly = DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                               HalfSpace((-1, 0), Fraction(1))))
    with pytest.raises(Empty) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "the half-space intersection is empty"


def test_non_smooth_vertex_rejected():
    poly = DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                               HalfSpace((0, 1), Fraction(0)),
                               HalfSpace((-1, -2), Fraction(-4))))
    with pytest.raises(NotDelzant) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "normals at vertex (0, 2) (D1, D3) are not a Z-basis"
    poly = DelzantPolytope(3, (HalfSpace((1, 0, 0), Fraction(0)),
                               HalfSpace((0, 1, 0), Fraction(0)),
                               HalfSpace((0, 0, 1), Fraction(0)),
                               HalfSpace((-1, -1, -2), Fraction(-4))))
    with pytest.raises(NotDelzant) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "normals at vertex (0, 0, 2) (D1, D2, D4) are not a Z-basis"


def test_redundant_facet_rejected():
    square = reflexive_polytope("P1xP1")
    poly = DelzantPolytope(2, square.facets + (HalfSpace((1, 1), Fraction(-5)),))
    with pytest.raises(NotDelzant) as err:
        enumerate_vertices(poly)
    assert "D5" in str(err.value)


def test_blowup_edges():
    edges = enumerate_edges(blown_up_plane())
    seen = {(e.tail.position, e.head.position): (e.direction, e.lattice_length)
            for e in edges}
    assert seen == {
        ((0, 1), (0, 3)): ((0, 1), 2),
        ((0, 1), (1, 0)): ((1, -1), 1),
        ((0, 3), (3, 0)): ((1, -1), 3),
        ((1, 0), (3, 0)): ((1, 0), 2),
    }


def test_edge_lengths_scale_with_offsets():
    edges = enumerate_edges(plane_simplex())
    assert sorted(e.lattice_length for e in edges) == [3, 3, 3]
    half = DelzantPolytope(2, (
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((-1, -1), Fraction(-3, 2)),
    ))
    assert sorted(e.lattice_length for e in enumerate_edges(half)) == [
        Fraction(3, 2)] * 3


def test_monotone_normalize_blowup():
    translation, reflexive = monotone_normalize(blown_up_plane())
    assert translation == (-1, -1)
    assert in_reflexive_position(reflexive)
    assert [v.position for v in enumerate_vertices(reflexive)] == [
        (-1, 0), (-1, 2), (0, -1), (2, -1)]


def test_monotone_normalize_is_idempotent():
    _, reflexive = monotone_normalize(plane_simplex())
    translation, again = monotone_normalize(reflexive)
    assert translation == (0, 0)
    assert again == reflexive


def test_not_monotone_rectangle():
    rect = DelzantPolytope(2, (
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((-1, 0), Fraction(-2)),
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((0, -1), Fraction(-4)),
    ))
    with pytest.raises(NotMonotone):
        monotone_normalize(rect)


def test_not_monotone_scaled_simplex():
    poly = DelzantPolytope(2, (
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((-1, -1), Fraction(-2)),
    ))
    with pytest.raises(NotMonotone):
        monotone_normalize(poly)


def test_normalize_recovers_scramble_translation():
    rng = random.Random(7291)
    for _ in range(25):
        name, mat, shift, poly = scrambled_monotone_2d(rng)
        translation, reflexive = monotone_normalize(poly)
        assert translation == tuple(Fraction(-s) for s in shift)
        assert reflexive.facets == transform_polytope(
            reflexive_polytope(name), mat, (0, 0)).facets


def test_vertices_match_cramer_oracle_2d():
    rng = random.Random(60451)
    for _ in range(40):
        _, _, _, poly = scrambled_monotone_2d(rng)
        got = {v.position for v in enumerate_vertices(poly)}
        assert got == cramer_vertices(poly)


def test_vertices_match_cramer_oracle_3d():
    rng = random.Random(60452)
    for _ in range(15):
        poly = random_delzant_3d(rng)
        got = {v.position for v in enumerate_vertices(poly)}
        assert got == cramer_vertices(poly)


def test_box_combinatorics():
    rng = random.Random(11)
    for _ in range(5):
        poly = random_delzant_3d(rng)
        nv = len(enumerate_vertices(poly))
        ne = len(enumerate_edges(poly))
        # box, simplex or triangular prism, in some lattice disguise
        assert (nv, ne) in {(8, 12), (4, 6), (6, 9)}


def test_unimodular_invariance_of_edge_lengths():
    rng = random.Random(83)
    base = blown_up_plane()
    lengths = sorted(e.lattice_length for e in enumerate_edges(base))
    for _ in range(10):
        mat = random_unimodular(rng, 2)
        shift = (rng.randrange(-4, 5), rng.randrange(-4, 5))
        moved = transform_polytope(base, mat, shift)
        assert sorted(e.lattice_length
                      for e in enumerate_edges(moved)) == lengths


def test_json_round_trip():
    for poly in (blown_up_plane(), plane_simplex()):
        data = polytope_to_json(poly)
        assert polytope_from_json(json.loads(json.dumps(data))) == poly


def test_json_fraction_offsets():
    data = {"dim": 1, "facets": [{"normal": [1], "offset": "1/2"},
                                 {"normal": [-1], "offset": "-3/2"}]}
    poly = polytope_from_json(data)
    assert poly.facets[0].offset == Fraction(1, 2)
    vs = enumerate_vertices(poly)
    assert [v.position for v in vs] == [(Fraction(1, 2),), (Fraction(3, 2),)]


def test_json_rejects_garbage():
    with pytest.raises(InvalidInput):
        polytope_from_json([1, 2, 3])
    with pytest.raises(InvalidInput):
        polytope_from_json({"dim": 2})
    with pytest.raises(InvalidInput):
        polytope_from_json({"dim": True, "facets": [
            {"normal": [1], "offset": 0}]})
    with pytest.raises(InvalidInput):
        polytope_from_json({"dim": 1, "facets": [
            {"normal": [1.0], "offset": 0}]})
    with pytest.raises(InvalidInput):
        polytope_from_json({"dim": 1, "facets": [
            {"normal": [1], "offset": 0.5}]})


def test_load_polytope_file(tmp_path):
    loaded = load_polytope(DATA / "fig1.json")
    assert loaded == blown_up_plane()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInput):
        load_polytope(bad)
    with pytest.raises(FileNotFoundError):
        load_polytope(tmp_path / "missing.json")


def test_five_reflexive_seeds_are_delzant():
    for name in REFLEXIVE_2D:
        poly = reflexive_polytope(name)
        vs = enumerate_vertices(poly)
        assert len(vs) == len(poly.facets)
        assert in_reflexive_position(poly)
        translation, _ = monotone_normalize(poly)
        assert translation == (0, 0)


def test_vertices_match_cramer_oracle_4d():
    rng = random.Random(60454)
    for names in FOUR_DIM_PRODUCTS:
        for _ in range(2):
            _, _, poly, _ = scrambled_monotone_product(rng, names)
            got = {v.position for v in enumerate_vertices(poly)}
            assert got == cramer_vertices(poly), names


def test_4d_edges_are_scrambled_product_edges():
    rng = random.Random(60455)
    for names in FOUR_DIM_PRODUCTS:
        base = reflexive_product(*names)
        want = sorted(e.lattice_length for e in enumerate_edges(base))
        _, _, poly, _ = scrambled_monotone_product(rng, names)
        edges = enumerate_edges(poly)
        assert sorted(e.lattice_length for e in edges) == want, names
        positions = {v.position for v in enumerate_vertices(poly)}
        for e in edges:
            assert e.tail.position < e.head.position
            assert {e.tail.position, e.head.position} <= positions
            assert tuple(a + e.lattice_length * d for a, d in
                         zip(e.tail.position, e.direction)) == e.head.position


def mixed_denominator_box():
    """[1/2, 5/6] x [1/3, 5/6] x [5/6, 2]: offsets over 2, 3 and 6."""
    return DelzantPolytope(3, (
        HalfSpace((1, 0, 0), Fraction(1, 2)), HalfSpace((-1, 0, 0), Fraction(-5, 6)),
        HalfSpace((0, 1, 0), Fraction(1, 3)), HalfSpace((0, -1, 0), Fraction(-5, 6)),
        HalfSpace((0, 0, 1), Fraction(5, 6)), HalfSpace((0, 0, -1), Fraction(-2)),
    ))


def test_mixed_denominator_offsets():
    triangle = DelzantPolytope(2, (
        HalfSpace((1, 0), Fraction(1, 2)),
        HalfSpace((0, 1), Fraction(1, 3)),
        HalfSpace((-1, -1), Fraction(-5, 3)),
    ))
    assert [v.position for v in enumerate_vertices(triangle)] == [
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(7, 6)),
        (Fraction(4, 3), Fraction(1, 3))]
    assert [e.lattice_length for e in enumerate_edges(triangle)] == [Fraction(5, 6)] * 3

    box = mixed_denominator_box()
    xs, ys, zs = (Fraction(1, 2), Fraction(5, 6)), (Fraction(1, 3), Fraction(5, 6)), \
        (Fraction(5, 6), Fraction(2))
    assert [v.position for v in enumerate_vertices(box)] == [
        (x, y, z) for x in xs for y in ys for z in zs]
    lengths = sorted([Fraction(1, 3)] * 4 + [Fraction(1, 2)] * 4 + [Fraction(7, 6)] * 4)
    rng = random.Random(60456)
    for _ in range(10):
        moved = transform_polytope(box, random_unimodular(rng, 3),
                                   (Fraction(1, 6), Fraction(-2, 3), Fraction(5, 2)))
        assert {v.position for v in enumerate_vertices(moved)} == cramer_vertices(moved)
        assert sorted(e.lattice_length for e in enumerate_edges(moved)) == lengths


def test_cramer_kernel_matches_laplace():
    rng = random.Random(60457)
    singular = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        rows = [tuple(rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n))
                for _ in range(n)]
        rhs = [rng.randrange(-7, 8) for _ in range(n)]
        det = laplace_det([list(r) for r in rows])
        d, numerators = _cramer(rows, [rhs])
        if det == 0:
            assert d == 0 and numerators == []
            singular += 1
            continue
        assert abs(d) == abs(det)
        for j in range(n):
            aj = [list(r[:j]) + [rhs[i]] + list(r[j + 1:]) for i, r in enumerate(rows)]
            assert Fraction(numerators[0][j], d) == Fraction(laplace_det(aj), det)
    assert singular > 20


def test_degenerate_vertex_message():
    poly = DelzantPolytope(2, reflexive_polytope("P1xP1").facets
                           + (HalfSpace((1, 1), Fraction(-2)),))
    with pytest.raises(NotDelzant) as err:
        enumerate_vertices(poly)
    assert str(err.value) == "3 facets active at vertex (-1, -1); need exactly 2"


def test_unbounded_and_empty_3d():
    prism = DelzantPolytope(3, (HalfSpace((1, 0, 0), Fraction(0)),
                                HalfSpace((0, 1, 0), Fraction(0)),
                                HalfSpace((-1, -1, 0), Fraction(-1))))
    with pytest.raises(Unbounded) as err:
        enumerate_vertices(prism)
    assert str(err.value) == "no vertex: the half-space intersection is unbounded"
    slab = DelzantPolytope(3, (HalfSpace((1, 0, 0), Fraction(1, 2)),
                               HalfSpace((-1, 0, 0), Fraction(-1, 3)),
                               HalfSpace((0, 1, 0), Fraction(0)),
                               HalfSpace((0, 0, 1), Fraction(0)),
                               HalfSpace((0, -1, -1), Fraction(-1))))
    with pytest.raises(Empty) as err:
        enumerate_vertices(slab)
    assert type(err.value) is Empty
    assert str(err.value) == "the half-space intersection is empty"



def random_half_spaces(rng, dim, count, offset=None):
    """count random primitive normals in [-3, 3]^dim, with the given or random offsets."""
    facets = []
    while len(facets) < count:
        normal = tuple(rng.randint(-3, 3) for _ in range(dim))
        if gcd(*(abs(c) for c in normal)) == 1:
            facets.append(HalfSpace(normal, Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                    if offset is None else offset))
    return DelzantPolytope(dim, tuple(facets))


def test_empty_and_unbounded_agree_with_fourier_motzkin():
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        poly = random_half_spaces(rng, rng.randint(1, 3), rng.randint(1, 6))
        try:
            enumerate_vertices(poly)
            outcome = None
        except (Empty, Unbounded, NotDelzant) as exc:
            outcome = type(exc)
        seen.add(outcome)
        assert (outcome is Empty) == (not fourier_motzkin_feasible(poly.facets, poly.dim))
    assert {Empty, Unbounded, NotDelzant} <= seen


def test_many_facet_empty_input_ends_quickly(tmp_path):
    # Twelve facets in dimension 4 whose normals span positively, so the
    # intersection is empty; Fourier-Motzkin elimination took 15-19 s on them
    # on a 2-core VM.
    poly = random_half_spaces(random.Random(1), 4, 12, offset=Fraction(1))
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(polytope_to_json(poly)))
    proc = subprocess.run(
        [sys.executable, "-m", "gromov_width.cli", "width", "--toric", str(path),
         "--dir", "1,0,0,0"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == "error: the half-space intersection is empty\n"


def test_memo_holds_one_enumeration():
    poly = scrambled_monotone_product(random.Random(60458), ("P2", "P1"))[2]
    assert poly.vertices is poly.vertices
    assert isinstance(poly.vertices, tuple) and isinstance(poly.edges, tuple)
    assert list(poly.vertices) == enumerate_vertices(poly)
    assert list(poly.edges) == enumerate_edges(poly)


def test_memo_keeps_equality_and_hash():
    rng = random.Random(60459)
    for names in [("dP2",), ("P2", "P1"), ("P1xP1", "P1xP1")]:
        poly = scrambled_monotone_product(rng, names)[2]
        twin = polytope_from_json(polytope_to_json(poly))
        assert poly.vertices and poly.edges
        assert poly == twin and twin == poly
        assert hash(poly) == hash(twin)
        assert len({poly, twin}) == 1


def test_reflexive_copy_is_handed_its_vertices():
    rng = random.Random(60460)
    for names in [("dP1",), ("dP3",), ("P2", "P1"), ("dP1", "P1"), ("P2", "P2"),
                  ("P1xP1", "P1xP1")]:
        _, reflexive = monotone_normalize(scrambled_monotone_product(rng, names)[2])
        fresh = DelzantPolytope(reflexive.dim, tuple(
            HalfSpace(f.normal, Fraction(-1)) for f in reflexive.facets))
        assert "vertices" in vars(reflexive)
        assert list(reflexive.vertices) == enumerate_vertices(fresh)
        assert list(reflexive.edges) == enumerate_edges(fresh)


def count_enumerations(monkeypatch):
    enumerated = []
    real_enumerate_vertices = polytope_module.enumerate_vertices

    def counting(polytope):
        enumerated.append(polytope)
        return real_enumerate_vertices(polytope)

    monkeypatch.setattr(polytope_module, "enumerate_vertices", counting)
    return enumerated


def test_equal_polytopes_are_normalized_once(monkeypatch):
    enumerated = count_enumerations(monkeypatch)
    doc = polytope_to_json(scrambled_monotone_product(random.Random(60461), ("P2", "P1"))[2])
    first, second = polytope_from_json(doc), polytope_from_json(doc)
    assert first is not second
    translation, reflexive = monotone_normalize(first)
    again, shared = monotone_normalize(second)
    assert again == translation
    assert shared is reflexive
    assert shared.edges is reflexive.edges
    # the reflexive copy is the only polytope enumerated, once
    assert len(enumerated) == 1 and enumerated[0] is reflexive


def test_normalize_memo_is_bounded(monkeypatch):
    enumerated = count_enumerations(monkeypatch)
    identity = [[1, 0], [0, 1]]
    translates = [transform_polytope(reflexive_polytope("P2"), identity, (t, 0))
                  for t in range(_NORMALIZED_KEPT + 1)]
    for poly in translates:
        monotone_normalize(poly)
    assert len(enumerated) == _NORMALIZED_KEPT + 1
    monotone_normalize(translates[-1])
    assert len(enumerated) == _NORMALIZED_KEPT + 1
    translation, reflexive = monotone_normalize(translates[0])
    assert translation == (0, 0)
    assert enumerated[-1] is reflexive and len(enumerated) == _NORMALIZED_KEPT + 2


@pytest.mark.parametrize("error, poly", [
    (NotMonotone, DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                                      HalfSpace((-1, 0), Fraction(-2)),
                                      HalfSpace((0, 1), Fraction(0)),
                                      HalfSpace((0, -1), Fraction(-4))))),
    (Empty, DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                                HalfSpace((-1, 0), Fraction(1))))),
    (NotDelzant, DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)),
                                     HalfSpace((0, 1), Fraction(0)),
                                     HalfSpace((-1, -2), Fraction(-4))))),
])
def test_normalize_failures_are_not_memoized(monkeypatch, error, poly):
    enumerated = count_enumerations(monkeypatch)
    failures = []
    for _ in range(2):
        with pytest.raises(error) as err:
            monotone_normalize(poly)
        failures.append((type(err.value), str(err.value)))
    assert failures[0] == failures[1]
    assert failures[0][0] is error
    assert len(enumerated) == 2


# Reflexive factor tuples of dimension 1 to 6 with at most 12 facets.
EDGE_ORACLE_PRODUCTS = [("P1",), ("P2",), ("dP3",), ("P1", "P1"), ("P2", "P1"),
                        ("dP2", "P1"), ("P1", "P1", "P1"), ("P2", "P2"),
                        ("dP1", "P1xP1"), ("P2", "P1", "P1"), ("P1",) * 5,
                        ("P2", "P2", "P1"), ("dP1", "P1", "P1", "P1"), ("P1",) * 6,
                        ("P2", "P2", "P2")]


def test_edges_match_exit_step_oracle():
    rng = random.Random(60460)
    checked = set()
    for round_ in range(110):
        dim = 1 + round_ % 6
        polys = [random_simple_product(rng, dim)]
        names = EDGE_ORACLE_PRODUCTS[round_ % len(EDGE_ORACLE_PRODUCTS)]
        mat, shift, poly, _ = scrambled_monotone_product(rng, names)
        translation, reflexive = monotone_normalize(poly)
        assert translation == tuple(-s for s in shift)
        assert reflexive.facets == transform_polytope(
            reflexive_product(*names), mat, (0,) * poly.dim).facets
        fresh = DelzantPolytope(reflexive.dim, reflexive.facets)
        assert reflexive.vertices == fresh.vertices
        polys += [poly, reflexive, fresh]
        for p in polys:
            assert enumerate_edges(p) == exit_step_edges(p)
            checked.add((p.dim, all(f.offset.denominator == 1 for f in p.facets)))
    assert checked == {(d, integral) for d in range(1, 7) for integral in (True, False)}


def reflexive_scrambles():
    rng = random.Random(60461)
    segment = DelzantPolytope(1, (HalfSpace((1,), Fraction(1, 2)),
                                  HalfSpace((-1,), Fraction(-5, 2))))
    yield segment
    for names in FOUR_DIM_PRODUCTS + [("P1",), ("dP3",), ("P2", "P1"), ("P1",) * 5,
                                      ("P2", "dP1", "P1")]:
        yield scrambled_monotone_product(rng, names)[2]


def test_reflexive_vertices_are_minus_sum_of_edge_directions():
    for poly in reflexive_scrambles():
        _, reflexive = monotone_normalize(poly)
        for v in reflexive.vertices:
            assert all(c.denominator == 1 for c in v.position)
            assert v.position == tuple(-sum(c) for c in zip(*v.edge_directions))
        assert reflexive.vertices == tuple(enumerate_vertices(
            DelzantPolytope(reflexive.dim, reflexive.facets)))


def test_every_edge_joins_exactly_two_vertices():
    for poly in reflexive_scrambles():
        edges = enumerate_edges(poly)
        assert len(edges) * 2 == len(poly.vertices) * poly.dim
        for e in edges:
            shared = e.tail.incident_facets & e.head.incident_facets
            assert len(shared) == poly.dim - 1
            assert sum(shared <= v.incident_facets for v in poly.vertices) == 2


def test_cube_edges_have_length_two():
    rng = random.Random(60462)
    for k in range(1, 6):
        _, _, poly, _ = scrambled_monotone_product(rng, ("P1",) * k)
        edges = enumerate_edges(poly)
        assert len(edges) == k * 2 ** (k - 1)
        assert {e.lattice_length for e in edges} == {2}


def scan(poly):
    """The vertices as the exhaustive scan finds them."""
    scale, bounds = _scaled_offsets(poly.facets)
    return _scan(poly, [f.normal for f in poly.facets], bounds, scale)


@pytest.fixture
def no_scan(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the edge walk fell back to the scan")

    monkeypatch.setattr(polytope_module, "_scan", forbidden)


def shuffled(rng, poly):
    facets = list(poly.facets)
    rng.shuffle(facets)
    return DelzantPolytope(poly.dim, tuple(facets))


# Products up to dimension 10 whose scan stays under a second.
WALK_PRODUCTS = [("P1",), ("dP3",), ("P2", "P1"), ("P1xP1", "dP1"), ("P1",) * 5,
                 ("P2", "P2", "P1", "P1"), ("P1",) * 7, ("dP3", "P2", "P1", "P1", "P1"),
                 ("P1xP1", "P1xP1", "P1", "P1", "P1", "P1"), ("P2",) * 4 + ("P1",),
                 ("P2",) * 5]


def test_walk_equals_scan(no_scan):
    rng = random.Random(60463)
    polys = []
    for dim in range(1, 7):
        polys += [random_simple_product(rng, dim) for _ in range(12)]
    for names in WALK_PRODUCTS:
        base = reflexive_product(*names)
        scrambled = scrambled_monotone_product(rng, names)[2]
        _, reflexive = monotone_normalize(scrambled)
        polys += [base, scrambled, shuffled(rng, scrambled),
                  DelzantPolytope(reflexive.dim, reflexive.facets)]
    for poly in polys:
        expected = scan(poly)
        assert enumerate_vertices(poly) == expected
    assert {p.dim for p in polys} == set(range(1, 11))


IRREGULAR = [
    # a vertex where three facets meet
    (DelzantPolytope(2, reflexive_polytope("P1xP1").facets + (HalfSpace((1, 1), Fraction(-2)),)),
     NotDelzant, "3 facets active at vertex (-1, -1); need exactly 2"),
    # the same, reached from a simple first vertex: a tie in the ratio test
    (DelzantPolytope(2, (HalfSpace((-1, 0), Fraction(-1)), HalfSpace((0, -1), Fraction(-1)),
                         HalfSpace((1, 0), Fraction(-1)), HalfSpace((0, 1), Fraction(-1)),
                         HalfSpace((1, 1), Fraction(-2)))),
     NotDelzant, "3 facets active at vertex (-1, -1); need exactly 2"),
    # a det-2 cone at the first vertex
    (DelzantPolytope(2, (HalfSpace((1, 1), Fraction(0)), HalfSpace((1, -1), Fraction(0)),
                         HalfSpace((-1, 0), Fraction(-1)))),
     NotDelzant, "normals at vertex (0, 0) (D1, D2) are not a Z-basis"),
    # a det-2 cone one pivot away
    (DelzantPolytope(3, (HalfSpace((1, 0, 0), Fraction(0)), HalfSpace((0, 1, 0), Fraction(0)),
                         HalfSpace((0, 0, 1), Fraction(0)),
                         HalfSpace((-1, -1, -2), Fraction(-4)))),
     NotDelzant, "normals at vertex (0, 0, 2) (D1, D2, D4) are not a Z-basis"),
    (DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)), HalfSpace((0, 1), Fraction(0)))),
     Unbounded, "edge ray from vertex (0, 0) never leaves the polytope"),
    (DelzantPolytope(3, (HalfSpace((1, 0, 0), Fraction(0)), HalfSpace((0, 1, 0), Fraction(0)),
                         HalfSpace((-1, -1, 0), Fraction(-1)))),
     Unbounded, "no vertex: the half-space intersection is unbounded"),
    (DelzantPolytope(2, (HalfSpace((1, 0), Fraction(0)), HalfSpace((-1, 0), Fraction(1)))),
     Empty, "the half-space intersection is empty"),
    (DelzantPolytope(2, reflexive_polytope("P1xP1").facets + (HalfSpace((1, 1), Fraction(-5)),)),
     NotDelzant, "facet D5 supports no vertex"),
]


@pytest.mark.parametrize("poly, error, message", IRREGULAR)
def test_irregular_input_is_worded_by_the_scan(poly, error, message):
    _, bounds = _scaled_offsets(poly.facets)
    assert _walk([f.normal for f in poly.facets], bounds, poly.dim) is None
    with pytest.raises(error) as err:
        enumerate_vertices(poly)
    assert type(err.value) is error
    assert str(err.value) == message


def test_nonsingular_subsets_are_the_nonzero_determinants():
    rng = random.Random(60464)
    cases = [list(normals) for normals in FACTOR_NORMALS.values()]
    cases += [[f.normal for f in reflexive_product(*names).facets]
              for names in [("P1", "P1", "P1"), ("P2", "dP3"), ("P1xP1", "P1")]]
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [tuple(rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n))
                for _ in range(rng.randint(n, 7))]
        for _ in range(rng.randint(0, 2)):      # opposite facets and repeats
            row = rng.choice(rows)
            rows.insert(rng.randrange(len(rows) + 1), tuple(-c for c in row))
            rows.insert(rng.randrange(len(rows) + 1), row)
        cases.append(rows)
    pruned = 0
    for rows in cases:
        n = len(rows[0])
        everything = list(combinations(range(len(rows)), n))
        nonsingular = [s for s in everything if laplace_det([list(rows[i]) for i in s]) != 0]
        assert list(_nonsingular_subsets(rows, n)) == nonsingular
        assert _greedy_basis(rows, n) == (list(nonsingular[0]) if nonsingular else None)
        pruned += len(everything) - len(nonsingular)
    assert pruned > 1000


def fraction_translation(poly):
    """The translation to reflexive position in Fractions, from the first
    vertex's dual basis, or None when some facet disagrees."""
    first = poly.vertices[0]
    targets = [-1 - poly.facets[i].offset for i in sorted(first.incident_facets)]
    translation = tuple(sum((c * e[k] for c, e in zip(targets, first.edge_directions)),
                            Fraction(0)) for k in range(poly.dim))
    if any(sum(t * a for t, a in zip(translation, f.normal)) != -1 - f.offset
           for f in poly.facets):
        return None
    return translation


def test_integer_translation_matches_fraction_formula():
    rng = random.Random(60465)
    outcomes = set()
    for round_ in range(60):
        names = WALK_PRODUCTS[round_ % 6]
        for poly in (scrambled_monotone_product(rng, names)[2],
                     random_simple_product(rng, 1 + round_ % 5)):
            expected = fraction_translation(poly)
            outcomes.add(expected is None)
            if expected is None:
                with pytest.raises(NotMonotone):
                    monotone_normalize(poly)
            else:
                assert monotone_normalize(poly)[0] == expected
    assert outcomes == {True, False}


def test_ten_dim_walk_solves_only_its_start(monkeypatch, no_scan):
    # (P1xP1)^4 x P2, scrambled: the scan would solve up to C(19, 10) subsets
    poly = load_polytope(DATA / "p1xp1_4xp2_scrambled.json")
    assert comb(len(poly.facets), poly.dim) == 92378
    normals = [f.normal for f in poly.facets]
    _, bounds = _scaled_offsets(poly.facets)
    for start_solves, subset in enumerate(_nonsingular_subsets(normals, poly.dim), 1):
        det, (num,) = _cramer([normals[i] for i in subset], [[bounds[i] for i in subset]])
        point = [Fraction(c, det) for c in num]
        if all(sum(map(mul, point, u)) >= b for u, b in zip(normals, bounds)):
            break
    solves = []
    real_cramer = polytope_module._cramer

    def counting(rows, rhs):
        solves.append(len(rhs))
        return real_cramer(rows, rhs)

    monkeypatch.setattr(polytope_module, "_cramer", counting)
    vertices = enumerate_vertices(poly)
    assert len(vertices) == 4 ** 4 * 3
    assert len(solves) <= start_solves + 1


def translated(normals, offsets, shift):
    """The polytope <x, u> >= offset moved by shift."""
    return DelzantPolytope(len(shift), tuple(
        HalfSpace(u, Fraction(b) + sum(map(mul, u, shift)))
        for u, b in zip(normals, offsets)))


DIAMOND = [(1, 1), (-1, 1), (-1, -1), (1, -1)]

# Messages pinned from the enumerate-then-translate normalization that the
# translation-first one replaced: each type, message and priority must hold.
NORMALIZE_FAILURES = [
    # reflexive offsets, translatable, but no vertex cone is unimodular
    (translated(DIAMOND, [-1] * 4, (Fraction(1, 2), 3)),
     NotDelzant, "normals at vertex (-1/2, 3) (D1, D4) are not a Z-basis"),
    # translatable, with a vertex and an unbounded edge
    (translated([(1, 0), (0, 1)], [-1, -1], (Fraction(2, 3), -2)),
     Unbounded, "edge ray from vertex (-1/3, -3) never leaves the polytope"),
    # translatable normals of rank 2 in dimension 3: a line, no vertex
    (translated([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [-1] * 3, (1, Fraction(1, 2), 5)),
     Unbounded, "no vertex: the half-space intersection is unbounded"),
    # neither Delzant nor translatable: NotDelzant comes first
    (translated(DIAMOND, [-1, -1, -1, -2], (0, 0)),
     NotDelzant, "normals at vertex (-3/2, 1/2) (D1, D4) are not a Z-basis"),
    # Delzant, not translatable
    (translated([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -4], (0, 0)),
     NotMonotone, "no translation takes every facet offset to -1"),
]


@pytest.mark.parametrize("poly, error, message", NORMALIZE_FAILURES)
def test_normalize_failures_keep_type_message_and_priority(poly, error, message):
    with pytest.raises(error) as err:
        monotone_normalize(poly)
    assert type(err.value) is error
    assert str(err.value) == message


def adversarial_dp3(k):
    """(dP3)^k translated off reflexive position, with the first factor's
    facets ordered so that its first nonsingular pair has no vertex."""
    order = [(1, 0), (-1, -1), (0, 1), (-1, 0), (1, 1), (0, -1)]
    rest = reflexive_product(*["dP3"] * k).facets[6:]
    dim = 2 * k
    normals = [u + (0,) * (dim - 2) for u in order] + [f.normal for f in rest]
    return translated(normals, [-1] * len(normals),
                      [Fraction(i - 4, 1 + i % 3) for i in range(dim)])


def count_solves(monkeypatch):
    solves = []
    real_cramer = polytope_module._cramer

    def counting(rows, rhs):
        solves.append(len(rhs))
        return real_cramer(rows, rhs)

    monkeypatch.setattr(polytope_module, "_cramer", counting)
    return solves


def test_adversarial_order_is_normalized_in_three_solves(monkeypatch, no_scan):
    poly = load_polytope(DATA / "dp3_5_adversarial.json")
    assert poly == adversarial_dp3(5)
    normals = [f.normal for f in poly.facets]
    # the greedy basis of the reflexive copy has no vertex, so ray shots start it
    assert _greedy_basis(normals, poly.dim)[:2] == [0, 1]
    solves = count_solves(monkeypatch)
    _, reflexive = monotone_normalize(poly)
    assert len(reflexive.vertices) == 6 ** 5
    # the translation, the greedy basis, the basis the rays meet
    assert len(solves) == 3


def test_ten_dim_normalize_solves_at_most_three_systems(monkeypatch, no_scan):
    poly = load_polytope(DATA / "p1xp1_4xp2_scrambled.json")
    solves = count_solves(monkeypatch)
    _, reflexive = monotone_normalize(poly)
    assert len(reflexive.vertices) == 4 ** 4 * 3
    assert len(solves) <= 3


def test_ray_shots_reach_a_vertex():
    rng = random.Random(60466)
    for round_ in range(40):
        names = WALK_PRODUCTS[round_ % 8]
        _, reflexive = monotone_normalize(shuffled(rng, scrambled_monotone_product(rng, names)[2]))
        normals = [f.normal for f in reflexive.facets]
        bounds = [-1] * len(normals)
        basis = _ray_basis(normals, bounds, reflexive.dim)
        det, num, _ = _solve_basis(normals, bounds, basis, reflexive.dim)
        vertex = next(v for v in reflexive.vertices if v.incident_facets == frozenset(basis))
        assert det == 1 and tuple(num) == vertex.position


def test_translation_first_equals_enumerate_then_translate():
    rng = random.Random(60467)
    for round_ in range(30):
        names = WALK_PRODUCTS[round_ % 8]
        poly = shuffled(rng, scrambled_monotone_product(rng, names)[2])
        translation, reflexive = monotone_normalize(poly)
        assert translation == fraction_translation(poly)

        def fields(v, shift=None):
            position = v.position if shift is None else tuple(map(sum, zip(v.position, shift)))
            return position, v.incident_facets, v.edge_directions

        assert [fields(v, translation) for v in enumerate_vertices(poly)] == [
            fields(v) for v in reflexive.vertices]
        assert [(fields(e.tail, translation), fields(e.head, translation), e.direction,
                 e.lattice_length) for e in enumerate_edges(poly)] == [
            (fields(e.tail), fields(e.head), e.direction, e.lattice_length)
            for e in reflexive.edges]


def test_vertex_figures_hash_by_their_facets():
    rng = random.Random(60468)
    for names in [("dP3",), ("P2", "P1"), ("P1xP1", "dP1")]:
        poly = scrambled_monotone_product(rng, names)[2]
        _, reflexive = monotone_normalize(poly)
        for v, w in zip(enumerate_vertices(poly), reflexive.vertices):
            assert hash(w) == hash(w.incident_facets)
            twin = VertexFigure(w.position, frozenset(w.incident_facets), w.edge_directions)
            assert twin is not w and twin == w and hash(twin) == hash(w)
            # translates share facets and hash, not equality
            assert v.incident_facets == w.incident_facets and hash(v) == hash(w)
            assert v != w


def test_reflexive_copy_facets_equal_validated_ones():
    rng = random.Random(60469)
    for names in WALK_PRODUCTS[:8]:
        _, reflexive = monotone_normalize(scrambled_monotone_product(rng, names)[2])
        validated = tuple(HalfSpace(list(f.normal), -1) for f in reflexive.facets)
        assert reflexive.facets == validated
        assert hash(reflexive.facets) == hash(validated)
        assert all(type(f.offset) is Fraction and type(f.normal) is tuple
                   for f in reflexive.facets)
