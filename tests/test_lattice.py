"""Lattice primitives, with the isotropy order checked two independent ways."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gromov_width.errors import (
    DimensionMismatch,
    InvalidInput,
    NotUnimodular,
    ZeroVector,
)
from gromov_width.lattice import (
    as_vector,
    basis_completion_transform,
    content,
    pairing,
    primitive_direction,
    quotient_order,
)

from generators import random_isotropy_instance, random_unimodular
from oracles import laplace_det, minor_gcd_isotropy, scan_isotropy


def test_content_and_primitivity():
    assert content((2, 4)) == 2
    assert content((0, -3)) == 3
    assert content((0, 0, 0)) == 0
    assert content((3, 5)) == 1
    assert content((2, 4)) != 1
    assert content((0, 0)) != 1


def test_primitive_direction():
    assert primitive_direction((2, 4)) == (1, 2)
    assert primitive_direction((0, -3)) == (0, -1)
    assert primitive_direction((-1, 2)) == (-1, 2)
    with pytest.raises(ZeroVector):
        primitive_direction((0, 0))


def test_pairing():
    assert pairing((0, 1), (-1, -1)) == -1
    assert pairing((-1, -2), (0, 1)) == -2
    assert pairing((1, 0), (0, 5)) == 0
    with pytest.raises(DimensionMismatch):
        pairing((1, 0), (1, 0, 0))


def test_vector_validation():
    with pytest.raises(DimensionMismatch):
        as_vector(())
    with pytest.raises(InvalidInput):
        as_vector((1.5, 0))
    with pytest.raises(InvalidInput):
        pairing((True, False), (1, 0))
    assert as_vector((1, -2)) == (1, -2)


def test_quotient_order_worked_examples():
    # the three cases that pin the sign conventions:
    # order 2 isotropy, fixed direction (order 0), free direction (order 1).
    assert quotient_order((-1, -2), ((1, 0),)) == 2
    assert quotient_order((0, 1), ((0, 1),)) == 0
    assert quotient_order((0, 1), ()) == 1


def test_quotient_order_rejects_bad_normals():
    with pytest.raises(NotUnimodular):
        quotient_order((0, 1), ((2, 0),))
    with pytest.raises(NotUnimodular):
        quotient_order((0, 1), ((1, 0), (2, 0)))
    with pytest.raises(NotUnimodular):
        quotient_order((0, 1), ((1, 0), (0, 1), (1, 1)))


def test_quotient_order_full_rank_normals_give_zero():
    assert quotient_order((3, 5), ((1, 0), (0, 1))) == 0


def test_basis_completion_is_unimodular_and_clears_normals():
    rng = random.Random(414243)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        _, normals = random_isotropy_instance(rng, dim)
        t = basis_completion_transform(normals, dim)
        assert laplace_det(t) in (1, -1)
        # each normal, read in the new basis, must use only the leading
        # r coordinates, so the trailing block really is the quotient.
        r = len(normals)
        for u in normals:
            image = [sum(u[i] * t[i][j] for i in range(dim)) for j in range(dim)]
            assert all(c == 0 for c in image[r:])


def test_quotient_order_matches_minor_gcd_oracle():
    rng = random.Random(20260814)
    for _ in range(150):
        dim = rng.randrange(1, 5)
        xi, normals = random_isotropy_instance(rng, dim)
        assert quotient_order(xi, normals) == minor_gcd_isotropy(xi, normals)


def test_quotient_order_matches_membership_scan():
    rng = random.Random(918273)
    done = 0
    while done < 30:
        dim = rng.randrange(1, 4)
        xi, normals = random_isotropy_instance(rng, dim)
        if len(normals) > 2:
            continue
        expected = quotient_order(xi, normals)
        if expected > 40:
            continue
        assert scan_isotropy(xi, normals, 40) == expected
        done += 1


def test_quotient_order_is_basis_invariant():
    rng = random.Random(555)
    for _ in range(100):
        dim = rng.randrange(1, 5)
        xi, normals = random_isotropy_instance(rng, dim)
        before = quotient_order(xi, normals)
        mat = random_unimodular(rng, dim)
        # both xi and the normals live in the weight lattice, so a basis
        # change hits all of them with the same matrix on the right.
        xi2 = tuple(sum(xi[i] * mat[i][j] for i in range(dim)) for j in range(dim))
        normals2 = tuple(
            tuple(sum(u[i] * mat[i][j] for i in range(dim)) for j in range(dim))
            for u in normals)
        assert quotient_order(xi2, normals2) == before


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
@settings(max_examples=200)
def test_primitive_direction_is_idempotent(coords):
    v = tuple(coords)
    if not any(v):
        return
    p = primitive_direction(v)
    assert content(p) == 1
    assert primitive_direction(p) == p
    g = gcd(*(abs(c) for c in v))
    assert tuple(c * g for c in p) == v
