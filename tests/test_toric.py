"""Subcircles of toric actions: weights, isotropy, fixed components, edges."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

import gromov_width.lattice as lattice_module
import gromov_width.polytope as polytope_module
import gromov_width.toric as toric_module
from gromov_width.circle_action import (SEMIFREE, FixedComponent, gromov_width,
                                        normalize_moment, run_all_checks)
from gromov_width.errors import (
    DimensionMismatch,
    HypothesisFailed,
    InvalidInput,
    NotAVertex,
    ZeroVector,
)
from gromov_width.lattice import content, pairing, quotient_order
from gromov_width.polytope import (
    DelzantPolytope,
    HalfSpace,
    VertexFigure,
    enumerate_edges,
    enumerate_vertices,
    monotone_normalize,
    polytope_from_json,
    polytope_to_json,
)
from gromov_width.seidel import seidel_structure
from gromov_width.toric import (
    SubcircleSpec,
    _coprime_base,
    _prime_to,
    _vertex_component,
    edge_cross_check,
    face_label,
    isotropy_report,
    semifree_witness,
    toric_action,
    vertex_weights,
)

from generators import (
    ISOLATED_MAX_DIRECTION,
    SEED_WIDTH,
    SEMIFREE_SEED_DIRECTION,
    reflexive_polytope,
    reflexive_product,
    scrambled_monotone_2d,
    scrambled_monotone_product,
    transform_covector,
)
from helpers import DATA, primitive_box, run_cli
from oracles import grouped_components, union_find_components


def reflexive_blowup():
    return DelzantPolytope(2, (
        HalfSpace((0, 1), Fraction(-1)),
        HalfSpace((-1, -1), Fraction(-1)),
        HalfSpace((1, 0), Fraction(-1)),
        HalfSpace((1, 1), Fraction(-1)),
    ))


def test_subcircle_spec_validation():
    poly = reflexive_blowup()
    with pytest.raises(ZeroVector):
        SubcircleSpec((0, 0), poly)
    with pytest.raises(InvalidInput) as err:
        SubcircleSpec((2, 4), poly)
    assert "not primitive (gcd 2)" in str(err.value)
    with pytest.raises(InvalidInput):
        SubcircleSpec((0, 1, 0), poly)
    shifted = DelzantPolytope(2, (
        HalfSpace((0, 1), Fraction(0)),
        HalfSpace((-1, -1), Fraction(-3)),
        HalfSpace((1, 0), Fraction(0)),
        HalfSpace((1, 1), Fraction(1)),
    ))
    with pytest.raises(InvalidInput) as err:
        SubcircleSpec((0, 1), shifted)
    assert "reflexive position" in str(err.value)


def test_vertex_weights_blowup():
    poly = reflexive_blowup()
    spec = SubcircleSpec((0, 1), poly)
    by_position = {v.position: v for v in enumerate_vertices(poly)}
    assert vertex_weights(spec, by_position[(-1, 2)]) == (-1, -1)
    assert vertex_weights(spec, by_position[(2, -1)]) == (0, 1)
    assert vertex_weights(spec, by_position[(0, -1)]) == (0, 1)
    assert vertex_weights(spec, by_position[(-1, 0)]) == (-1, 1)


def test_vertex_weights_rejects_fake_vertex():
    poly = reflexive_blowup()
    spec = SubcircleSpec((0, 1), poly)
    fake = VertexFigure((5, 5), frozenset({0, 1}), ((1, 0), (0, 1)))
    with pytest.raises(NotAVertex):
        vertex_weights(spec, fake)


def test_vertex_weights_accepts_an_equal_figure():
    rng = random.Random(7374)
    for names in [("dP2",), ("P2", "P1"), ("P1xP1", "dP1")]:
        _, reflexive = monotone_normalize(scrambled_monotone_product(rng, names)[2])
        spec = SubcircleSpec((1,) * reflexive.dim, reflexive)
        for v in reflexive.vertices:
            twin = VertexFigure(v.position, frozenset(v.incident_facets),
                                tuple(v.edge_directions))
            assert twin is not v
            assert vertex_weights(spec, twin) == vertex_weights(spec, v)
            moved = VertexFigure(tuple(c + 1 for c in v.position), v.incident_facets,
                                 v.edge_directions)
            with pytest.raises(NotAVertex):
                vertex_weights(spec, moved)


def test_isotropy_report_blowup():
    poly = reflexive_blowup()
    report = isotropy_report(SubcircleSpec((-1, -2), poly))
    orders = {e.face: e.order for e in report.entries}
    assert orders[()] == 1
    assert orders[(0,)] == 1
    assert orders[(1,)] == 1
    assert orders[(2,)] == 2
    assert orders[(3,)] == 1
    # vertices are fixed pointwise, order 0 by convention
    assert orders[(0, 1)] == 0
    assert not report.is_semifree()
    assert report.first_violation().face == (2,)

    free = isotropy_report(SubcircleSpec((0, 1), poly))
    assert free.is_semifree()
    assert free.first_violation() is None
    assert {e.face: e.order for e in free.entries}[(0,)] == 0


def test_face_labels():
    poly = reflexive_blowup()
    assert face_label(poly, ()) == "interior"
    assert face_label(poly, (0,)) == "D1"
    assert face_label(poly, (0, 3)) == "p14"
    assert face_label(poly, (1, 2)) == "p23"


def test_semifree_witness_strings():
    poly = reflexive_blowup()
    assert semifree_witness(SubcircleSpec((0, 1), poly)) is None
    assert (semifree_witness(SubcircleSpec((-1, -2), poly))
            == "facet D3 isotropy order 2")


def test_toric_action_semifree_direction():
    action = toric_action(SubcircleSpec((0, 1), reflexive_blowup()))
    assert action.n == 2
    data = [(c.label, c.complex_dim, c.weights, c.H) for c in action.components]
    assert data == [
        ("p23", 0, (-1, -1), 2),
        ("p34", 0, (-1, 1), 0),
        ("D1", 1, (1,), -1),
    ]
    report = gromov_width(action)
    assert (report.width, report.H_max, report.s) == (2, 2, 0)
    assert report.max_component == "p23"


def test_toric_action_nonsemifree_direction():
    action = toric_action(SubcircleSpec((-1, -2), reflexive_blowup()))
    data = [(c.label, c.complex_dim, c.weights, c.H) for c in action.components]
    assert data == [
        ("p14", 0, (-1, -1), 2),
        ("p34", 0, (-2, 1), 1),
        ("p12", 0, (-1, 1), 0),
        ("p23", 0, (1, 2), -3),
    ]
    with pytest.raises(HypothesisFailed) as err:
        gromov_width(action)
    assert err.value.check == SEMIFREE
    assert err.value.witness == "component p34 has weight -2"
    assert err.value.raw_difference == 1


def test_moment_levels_equal_pairing_with_vertices():
    # H(v) = <xi, v> on a polytope in reflexive position: the moment value
    # from the weight sums must agree with the linear functional itself.
    poly = reflexive_blowup()
    for xi in primitive_box(2, 3):
        spec = SubcircleSpec(xi, poly)
        for v in enumerate_vertices(poly):
            assert -sum(vertex_weights(spec, v)) == pairing(
                xi, tuple(int(c) for c in v.position))


def test_square_max_is_not_isolated():
    square = reflexive_polytope("P1xP1")
    action = toric_action(SubcircleSpec((1, 0), square))
    labels = [(c.label, c.complex_dim, c.H) for c in action.components]
    assert labels == [("D2", 1, 1), ("D1", 1, -1)]
    with pytest.raises(HypothesisFailed) as err:
        gromov_width(action)
    assert err.value.witness == "maximum component D2 has complex_dim 1"
    assert err.value.raw_difference == 2


def test_seed_directions_are_semifree():
    for name, xi in SEMIFREE_SEED_DIRECTION.items():
        spec = SubcircleSpec(xi, reflexive_polytope(name))
        assert semifree_witness(spec) is None, name


def test_isolated_max_directions_give_widths():
    for name, xi in ISOLATED_MAX_DIRECTION.items():
        spec = SubcircleSpec(xi, reflexive_polytope(name))
        report = gromov_width(toric_action(spec))
        assert report.H_max == 2, name
        assert report.width == SEED_WIDTH[name], name


def test_hexagon_has_no_semifree_isolated_max_direction():
    # every semifree direction on the hexagon tops out along a fixed edge;
    # exhausting a box of directions documents that this polygon is out of
    # reach of the point-maximum width formula.
    hexagon = reflexive_polytope("dP3")
    for xi in primitive_box(2, 3):
        spec = SubcircleSpec(xi, hexagon)
        with pytest.raises(HypothesisFailed) as err:
            gromov_width(toric_action(spec))
        assert err.value.check in ("semifree", "isolated-max")


def test_semifree_agrees_with_edge_weight_bound_2d():
    # in the plane, semifree is exactly "every edge weight is -1, 0 or 1"
    rng = random.Random(424242)
    for _ in range(12):
        name, mat, _, poly = scrambled_monotone_2d(rng)
        _, reflexive = monotone_normalize(poly)
        edges = enumerate_edges(reflexive)
        for xi in primitive_box(2, 2):
            spec = SubcircleSpec(xi, reflexive)
            shortcut = all(abs(pairing(xi, e.direction)) <= 1 for e in edges)
            assert (semifree_witness(spec) is None) == shortcut
            assert isotropy_report(spec).is_semifree() == shortcut


def test_scrambles_preserve_weights():
    rng = random.Random(515151)
    for _ in range(10):
        name, mat, _, poly = scrambled_monotone_2d(rng)
        _, reflexive = monotone_normalize(poly)
        xi0 = SEMIFREE_SEED_DIRECTION[name]
        xi = transform_covector(xi0, mat)
        base = toric_action(SubcircleSpec(xi0, reflexive_polytope(name)))
        moved = toric_action(SubcircleSpec(xi, reflexive))
        assert ([(c.complex_dim, c.weights, c.H)
                 for c in normalize_moment(moved).components]
                == [(c.complex_dim, c.weights, c.H)
                    for c in normalize_moment(base).components])


def test_edge_cross_check_blowup():
    spec = SubcircleSpec((0, 1), reflexive_blowup())
    results = edge_cross_check(spec)
    triples = [(r.c1, r.area, r.lattice_length) for r in results]
    assert triples == [(2, 2, 2), (1, 1, 1), (3, 3, 3)]
    ends = [(r.edge.tail.position, r.edge.head.position) for r in results]
    assert ((0, -1), (2, -1)) not in ends  # the fixed edge carries no sphere


def test_edge_cross_check_requires_semifree():
    spec = SubcircleSpec((-1, -2), reflexive_blowup())
    with pytest.raises(HypothesisFailed) as err:
        edge_cross_check(spec)
    assert err.value.check == SEMIFREE
    assert err.value.witness == "facet D3 isotropy order 2"


@pytest.mark.parametrize("names, width", [
    (("dP2",), 2), (("P2",), 3), (("P2", "P1"), 2), (("P1xP1", "P1xP1"), 2),
    (("P2", "P2"), 3)])
def test_one_enumeration_per_request(monkeypatch, names, width):
    enumerated = []
    real_enumerate_vertices = polytope_module.enumerate_vertices

    def counting(polytope, *walked):
        enumerated.append(polytope)
        return real_enumerate_vertices(polytope, *walked)

    monkeypatch.setattr(polytope_module, "enumerate_vertices", counting)
    _, _, scrambled, xi = scrambled_monotone_product(random.Random(7373), names)
    raw = polytope_from_json(polytope_to_json(scrambled))
    _, reflexive = monotone_normalize(raw)
    spec = SubcircleSpec(xi, reflexive)
    action = toric_action(spec)
    assert all(c.passed for c in run_all_checks(action))
    assert gromov_width(action).width == width
    assert edge_cross_check(spec)
    seidel_structure(action)
    # the reflexive copy is the only polytope enumerated, once
    assert len(enumerated) == 1 and enumerated[0] is reflexive


# Scrambled products up to dimension 5, each with a few primitive directions.
PRODUCTS = [("P1",), ("P2",), ("dP3",), ("P1", "P1"), ("dP1", "P1"), ("P2", "P1xP1"),
            ("dP2", "P2"), ("P1", "P1", "P1", "P1"), ("dP3", "P2", "P1"),
            ("P1", "P1", "P1", "P1", "P1")]


def scrambled_specs(seed, directions=4):
    rng = random.Random(seed)
    for names in PRODUCTS:
        _, _, poly, xi = scrambled_monotone_product(rng, names)
        _, reflexive = monotone_normalize(poly)
        box = primitive_box(reflexive.dim, 1 if reflexive.dim > 3 else 2)
        for d in ([xi] if xi else []) + rng.sample(box, min(directions, len(box))):
            yield SubcircleSpec(d, reflexive)


def test_trusted_components_equal_validated_ones():
    for spec in scrambled_specs(13):
        for c in toric_action(spec).components:
            validated = FixedComponent(c.label, c.complex_dim, c.weights[::-1], c.H)
            assert c == validated and hash(c) == hash(validated)
        for raw in spec.edge_weights.values():
            validated = FixedComponent("x", raw.count(0), [w for w in raw if w], -sum(raw))
            built = _vertex_component(raw, "x", {})
            assert built == validated and hash(built) == hash(validated)


# Reflexive products swept over a whole box of directions: [-2, 2]^d up to
# dimension 3, {0, 1}^4 in dimension 4.
GROUPED_SEEDS = [("P2",), ("P1xP1",), ("dP1",), ("dP2",), ("dP3",), ("P2", "P1"),
                 ("P1",) * 3, ("dP1", "P1"), ("dP3", "P1"), ("P2", "P2"), ("P1",) * 4,
                 ("dP3", "dP3"), ("P1xP1", "P2")]


def grouped_specs():
    rng = random.Random(60470)
    for names in GROUPED_SEEDS:
        seed = reflexive_product(*names)
        _, scrambled = monotone_normalize(scrambled_monotone_product(rng, names)[2])
        box = primitive_box(seed.dim, 2) if seed.dim <= 3 else [
            xi for xi in primitive_box(seed.dim, 1) if min(xi) >= 0]
        for reflexive in (seed, scrambled):
            for xi in box:
                yield SubcircleSpec(xi, reflexive)


def test_toric_action_equals_grouped_formula():
    # every group fills its face with one weight sum (asserted by the oracle),
    # and toric_action gives its labels, order, weights and levels
    count = 0
    for spec in grouped_specs():
        expected = grouped_components(spec.xi, spec.polytope)
        assert [(c.label, c.complex_dim, c.weights, c.H)
                for c in toric_action(spec).components] == expected, spec.xi
        count += 1
    assert count == 2 * (5 * 16 + 4 * 98 + 4 * 15)


def test_isotropy_orders_are_quotient_orders():
    for spec in scrambled_specs(11):
        for entry in isotropy_report(spec).entries:
            normals = [spec.polytope.facets[i].normal for i in entry.face]
            assert entry.order == quotient_order(spec.xi, normals), (spec.xi, entry)


def test_toric_action_matches_union_find_oracle():
    for spec in scrambled_specs(12):
        expected = sorted((face_label(spec.polytope, face), dim, weights, H)
                          for face, dim, weights, H in union_find_components(
                              spec.xi, spec.polytope))
        action = toric_action(spec)
        assert sorted((c.label, c.complex_dim, c.weights, c.H)
                      for c in action.components) == expected


def test_toric_queries_need_no_basis_completion_and_no_edges(monkeypatch):
    def forbid(module, name):
        def called(*args):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(module, name, called, raising=False)

    forbid(lattice_module, "quotient_order")
    forbid(toric_module, "quotient_order")
    forbid(polytope_module, "enumerate_edges")
    for spec in scrambled_specs(13, directions=2):
        toric_action(spec)
        isotropy_report(spec)
        semifree_witness(spec)


def reference_witness(spec):
    """The witness read off the exhaustive face-by-face isotropy report."""
    bad = isotropy_report(spec).first_violation()
    if bad is None:
        return None
    kind = "facet" if len(bad.face) == 1 else "face"
    return f"{kind} {face_label(spec.polytope, bad.face)} isotropy order {bad.order}"


# Coefficients of a direction in the facet normals at one vertex, so they are
# that vertex's weights: 6, 10, 15 and 30 share primes pairwise, 210 has four,
# and 10^40 + 1 is too large to factor by trial division.
VERTEX_COEFFICIENTS = (0, 0, 1, -1, 2, -3, 6, -10, 15, 30, -210, 10**40 + 1)
# Scrambled products of dimension 2 to 6, each with how many directions.
WITNESS_PRODUCTS = [(("P2",), 200), (("dP1",), 200), (("dP3",), 200),
                    (("P1", "P1"), 200), (("dP2",), 200), (("P1xP1", "P1"), 300),
                    (("P2", "P1"), 300), (("dP3", "P1"), 300), (("P2", "P2"), 300),
                    (("dP1", "P1", "P1"), 250), (("P2", "dP2"), 250),
                    (("P1",) * 5, 120), (("dP3", "P2", "P1"), 120), (("P1",) * 6, 60),
                    (("P2", "P2", "P1xP1"), 60)]


def witness_specs(seed):
    rng = random.Random(seed)
    for names, count in WITNESS_PRODUCTS:
        _, _, poly, _ = scrambled_monotone_product(rng, names)
        _, reflexive = monotone_normalize(poly)
        dim = reflexive.dim
        directions = set()
        while len(directions) < count:
            if rng.random() < 0.3:
                xi = tuple(rng.randrange(-7, 8) for _ in range(dim))
            else:
                v = rng.choice(reflexive.vertices)
                normals = [reflexive.facets[i].normal for i in sorted(v.incident_facets)]
                coefficients = [rng.choice(VERTEX_COEFFICIENTS) for _ in normals]
                xi = tuple(sum(c * u[k] for c, u in zip(coefficients, normals))
                           for k in range(dim))
            if content(xi) == 1:
                directions.add(xi)
        for xi in sorted(directions):
            yield SubcircleSpec(xi, reflexive)


def test_semifree_witness_matches_isotropy_report():
    specs = violations = 0
    for spec in witness_specs(14):
        expected = reference_witness(spec)
        assert semifree_witness(spec) == expected, spec.xi
        # an edge has order |w_j|, so semifree means unit weights
        unit = all(abs(w) <= 1 for ws in spec.edge_weights.values() for w in ws)
        assert (expected is None) == unit
        specs += 1
        violations += expected is not None
    assert specs >= 3000
    assert 2000 < violations < specs


def test_coprime_base_groups_primes_by_the_numbers_they_divide():
    numbers = {2**13000, 12, 6**5, 35, 143, 15 * (10**999 + 7), 10**40 + 1, 1}
    base = _coprime_base(numbers)
    assert all(b > 1 for b in base)
    assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for n in numbers:
        assert _prime_to(n, prod(base)) == 1
        for b in base:
            # b shares all of its primes with n or none
            assert gcd(b, n) == 1 or _prime_to(b, n) == 1
    # 11 and 13 divide only 143, so they stay together; 5 also divides the
    # 1000-digit number and 7 does not, so 35 is split
    assert sorted(b for b in base if b < 1000) == [3, 4, 5, 7, 143]


def test_semifree_witness_on_weights_sharing_primes():
    # at one vertex of the scrambled P2 x P1 the weights are 15 b, -10 and 6
    # with b = 10^999 + 7 odd and prime to 3: every pair shares a prime, the
    # three have none in common, and b is too large to factor
    _, reflexive = monotone_normalize(
        scrambled_monotone_product(random.Random(5), ("P2", "P1"))[2])
    b = 10**999 + 7
    for v in reflexive.vertices:
        normals = [reflexive.facets[i].normal for i in sorted(v.incident_facets)]
        for coefficients in [(15 * b, -10, 6), (6, 15 * b, -10), (-10, 6, 15 * b)]:
            xi = tuple(sum(c * u[k] for c, u in zip(coefficients, normals))
                       for k in range(3))
            spec = SubcircleSpec(xi, reflexive)
            assert max(len(str(abs(c))) for c in xi) >= 1000
            assert sorted(spec.edge_weights[v]) == sorted(coefficients)
            assert semifree_witness(spec) == reference_witness(spec) is not None


def test_toric_requests_never_build_the_isotropy_report(monkeypatch):
    def forbidden(spec):
        raise AssertionError("isotropy_report called")

    cube = reflexive_product(*("P1xP1",) * 4)
    bad = SubcircleSpec((2, 1) + (0, 1) * 3, cube)
    good = SubcircleSpec((1, 0) * 4, cube)
    expected = reference_witness(bad)
    assert expected == "face D3&D7&D11&D15 isotropy order 2"
    monkeypatch.setattr(toric_module, "isotropy_report", forbidden)
    assert semifree_witness(bad) == expected
    assert semifree_witness(good) is None
    for spec in (bad, good):
        run_all_checks(toric_action(spec))
    with pytest.raises(HypothesisFailed) as err:
        edge_cross_check(bad)
    assert err.value.witness == expected
    assert edge_cross_check(good)
    for spec in scrambled_specs(16, directions=2):
        run_all_checks(toric_action(spec))
        semifree_witness(spec)
    for command in ("check", "width"):
        code, out = run_cli(command, "--toric", str(DATA / "fig1.json"), "--dir", "0,1")
        assert code == 0, out
        code, out = run_cli(command, "--toric", str(DATA / "fig1.json"), "--dir=-1,-2")
        assert code == 1 and "facet D3 isotropy order 2" in out, out
        code, out = run_cli(command, "--toric", str(DATA / "p2xp1_scrambled.json"),
                            "--dir", "1,1,0")
        assert code in (0, 1), out
