"""Abstract fixed-point data: normalization, checks, width, products."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gromov_width.circle_action import (
    ISOLATED_MAX,
    MONOTONE_CONSISTENCY,
    SEMIFREE,
    ActionData,
    FixedComponent,
    action_from_json,
    action_to_json,
    check_isolated_max,
    check_monotone_consistency,
    check_semifree,
    gradient_sphere_invariants,
    gromov_width,
    load_action,
    normalize_moment,
    product_action,
    raw_level_gap,
    run_all_checks,
)
from gromov_width.errors import (
    AmbiguousMax,
    CrossCheckFailed,
    EmptyProduct,
    HypothesisFailed,
    InvalidInput,
    NotEnoughComponents,
    NotOrdered,
)
from gromov_width.grassmannian import GrassmannianSpec, grassmannian_action


def blowup_action():
    """Fixed-point data of the standard circle on the one-point blow-up."""
    return ActionData(n=2, components=(
        FixedComponent("p23", 0, (-1, -1)),
        FixedComponent("p34", 0, (-1, 1)),
        FixedComponent("D1", 1, (1,)),
    ))


def test_component_canonicalizes_weights():
    c = FixedComponent("x", 0, (1, -1, -1))
    assert c.weights == (-1, -1, 1)
    assert c.weight_sum == -1


def test_component_rejects_zero_and_nonint_weights():
    with pytest.raises(InvalidInput):
        FixedComponent("x", 0, (0,))
    with pytest.raises(InvalidInput):
        FixedComponent("x", 0, (1.5,))
    with pytest.raises(InvalidInput):
        FixedComponent("x", -1, (1,))
    with pytest.raises(InvalidInput):
        FixedComponent("", 0, (1,))


def test_action_data_validation():
    with pytest.raises(InvalidInput):
        ActionData(n=0, components=(FixedComponent("x", 0, (1,)),))
    with pytest.raises(InvalidInput):
        ActionData(n=1, components=())
    with pytest.raises(InvalidInput):
        ActionData(n=1, components=(FixedComponent("x", 0, (1,)),
                                    FixedComponent("x", 0, (-1,))))
    # weight counts inconsistent with n construct fine; the consistency
    # check is the place where that must surface.
    lying = ActionData(n=3, components=(FixedComponent("x", 0, (-1,)),))
    result = check_monotone_consistency(normalize_moment(lying))
    assert not result.passed
    assert "1 weights + complex_dim 0 != n = 3" in result.witness


def test_action_data_rejects_boolean_n():
    for flag in (True, False):
        with pytest.raises(InvalidInput) as err:
            ActionData(n=flag, components=(FixedComponent("pt", 0, (-1,)),))
        assert str(err.value) == "half-dimension n must be a positive integer"


def test_normalize_moment_keeps_what_is_already_normal():
    action = ActionData(n=2, components=(
        FixedComponent("a", 0, (-1, -1), H=2),
        FixedComponent("b", 1, (1,), H=-1),
    ))
    assert normalize_moment(action) is action
    stale = ActionData(n=2, components=(
        action.components[0],
        FixedComponent("b", 1, (-1,), H=True),    # == 1, but a bool is not kept
        FixedComponent("c", 0, (-1, 1)),
    ))
    normal = normalize_moment(stale)
    assert normal.components[0] is stale.components[0]
    assert [(c.H, type(c.H)) for c in normal.components] == [(2, int), (1, int), (0, int)]


def test_normalize_moment_overwrites_h():
    action = ActionData(n=2, components=(
        FixedComponent("a", 0, (-1, -1), H=99),
        FixedComponent("b", 1, (1,)),
    ))
    assert not action.normalized
    normal = normalize_moment(action)
    assert normal.normalized
    assert {c.label: c.H for c in normal.components} == {"a": 2, "b": -1}


def test_blowup_width():
    report = gromov_width(blowup_action())
    assert report.width == 2
    assert report.H_max == 2
    assert report.s == 0
    assert report.max_component == "p23"
    assert report.second_level_components == ("p34",)
    assert report.hypothesis_log == (SEMIFREE, ISOLATED_MAX, MONOTONE_CONSISTENCY)


def test_semifree_failure_witness():
    action = ActionData(n=2, components=(
        FixedComponent("top", 0, (-1, -1)),
        FixedComponent("bad", 0, (-2, 1)),
    ))
    result = check_semifree(normalize_moment(action))
    assert not result.passed
    assert result.witness == "component bad has weight -2"
    with pytest.raises(HypothesisFailed) as err:
        gromov_width(action)
    assert err.value.check == SEMIFREE
    assert err.value.raw_difference == 1
    assert "diagnostic only" in str(err.value)


def test_isolated_max_failure_positive_dimension():
    action = ActionData(n=2, components=(
        FixedComponent("Dtop", 1, (-1,)),
        FixedComponent("Dbot", 1, (1,)),
    ))
    result = check_isolated_max(normalize_moment(action))
    assert not result.passed
    assert result.witness == "maximum component Dtop has complex_dim 1"


def test_isolated_max_failure_wrong_weight():
    action = ActionData(n=2, components=(
        FixedComponent("top", 0, (-1, 1)),
        FixedComponent("bot", 0, (-1, -1)),
    ))
    # moment-normalize flips the order: "bot" has H = 2, "top" H = 0, so the
    # max is fine; build one where the top point has a +1 weight instead.
    shifted = ActionData(n=1, components=(
        FixedComponent("hi", 0, (-1,)),
        FixedComponent("lo", 0, (1,)),
    ))
    assert check_isolated_max(normalize_moment(shifted)).passed
    result = check_isolated_max(normalize_moment(action))
    assert result.passed  # max is "bot", a point with weights (-1, -1)
    mixed = ActionData(n=2, components=(
        FixedComponent("x", 0, (-1, 1)),
        FixedComponent("y", 0, (1, 1)),
    ))
    got = check_isolated_max(normalize_moment(mixed))
    assert not got.passed
    assert got.witness == "maximum component x has weight 1"


def test_monotone_consistency_failure_on_level():
    action = ActionData(n=3, components=(
        FixedComponent("a", 1, (-1, -1)),
        FixedComponent("b", 1, (1, 1)),
    ))
    result = check_monotone_consistency(normalize_moment(action))
    assert not result.passed
    assert result.witness == "H(F_max) = 2 but n = 3"


def test_run_all_checks_orders_results():
    results = run_all_checks(blowup_action())
    assert [r.check for r in results] == [SEMIFREE, ISOLATED_MAX,
                                          MONOTONE_CONSISTENCY]
    assert all(r.passed for r in results)


def test_ambiguous_max():
    action = ActionData(n=1, components=(
        FixedComponent("a", 0, (-1,)),
        FixedComponent("b", 0, (-1,)),
        FixedComponent("c", 0, (1,)),
    ))
    with pytest.raises(AmbiguousMax) as err:
        gromov_width(action)
    assert "a and b" in str(err.value)


def test_single_level_has_no_width():
    action = ActionData(n=1, components=(FixedComponent("only", 0, (-1,)),))
    with pytest.raises(NotEnoughComponents):
        gromov_width(action)
    assert raw_level_gap(normalize_moment(action)) is None


def test_raw_level_gap_requires_normalization():
    with pytest.raises(InvalidInput):
        raw_level_gap(blowup_action())


def test_gradient_sphere_invariants():
    normal = normalize_moment(blowup_action())
    by_label = {c.label: c for c in normal.components}
    assert gradient_sphere_invariants(by_label["p34"], by_label["p23"]) == (2, 2)
    assert gradient_sphere_invariants(by_label["D1"], by_label["p34"]) == (1, 1)
    with pytest.raises(NotOrdered):
        gradient_sphere_invariants(by_label["p23"], by_label["p34"])


def test_gradient_sphere_cross_check_failure():
    x = FixedComponent("x", 0, (1, 1), H=-2)
    y = FixedComponent("y", 0, (-1, -1), H=3)  # tampered: should be 2
    with pytest.raises(CrossCheckFailed):
        gradient_sphere_invariants(x, y)
    with pytest.raises(InvalidInput):
        gradient_sphere_invariants(FixedComponent("x", 0, (1,)),
                                   FixedComponent("y", 0, (-1,), H=1))


def test_product_of_grassmannians():
    g24 = grassmannian_action(GrassmannianSpec(2, 4))
    g12 = grassmannian_action(GrassmannianSpec(1, 2))
    prod = product_action([g24, g12])
    assert prod.n == 5
    assert len(prod.components) == 6
    labels = {c.label for c in prod.components}
    assert "Gr(2,2)xGr(0,2) x Gr(1,1)xGr(0,1)" in labels
    levels = sorted({c.H for c in normalize_moment(prod).components},
                    reverse=True)
    assert levels == [5, 3, 1, -1, -3, -5]
    report = gromov_width(prod)
    assert report.width == 2
    assert report.width == min(gromov_width(g24).width,
                               gromov_width(g12).width)


def test_product_laws():
    g12 = grassmannian_action(GrassmannianSpec(1, 2))
    g13 = grassmannian_action(GrassmannianSpec(1, 3))
    assert product_action([g12]) == g12
    with pytest.raises(EmptyProduct):
        product_action([])
    ab = product_action([g12, g13])
    ba = product_action([g13, g12])
    assert gromov_width(ab).width == gromov_width(ba).width == 2
    assert ab.n == ba.n == 3
    # associativity up to labels: widths and level sets agree
    abc = product_action([ab, g12])
    acb = product_action([g12, ba])
    assert gromov_width(abc).width == gromov_width(acb).width
    assert ({c.H for c in normalize_moment(abc).components}
            == {c.H for c in normalize_moment(acb).components})


def test_product_wraps_composite_labels():
    g12 = grassmannian_action(GrassmannianSpec(1, 2))
    nested = product_action([product_action([g12, g12]), g12])
    assert any(l.startswith("(") and " x " in l
               for l in (c.label for c in nested.components))


def test_action_json_ignores_stored_h(tmp_path):
    payload = {
        "n": 2,
        "components": [
            {"label": "p23", "complex_dim": 0, "weights": [-1, -1], "H": 77},
            {"label": "p34", "complex_dim": 0, "weights": [-1, 1]},
            {"label": "D1", "complex_dim": 1, "weights": [1]},
        ],
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(payload))
    action = load_action(path)
    assert not action.normalized  # H from the file is dropped, not trusted
    assert gromov_width(action).width == 2


def test_action_json_round_trip():
    data = action_to_json(blowup_action())
    assert [c["label"] for c in data["components"]] == ["p23", "p34", "D1"]
    assert [c["H"] for c in data["components"]] == [2, 0, -1]
    again = action_from_json(json.loads(json.dumps(data)))
    assert gromov_width(again) == gromov_width(blowup_action())


def test_action_json_rejects_garbage():
    with pytest.raises(InvalidInput):
        action_from_json({"n": 2})
    with pytest.raises(InvalidInput):
        action_from_json({"n": "2", "components": []})
    with pytest.raises(InvalidInput):
        action_from_json({"n": 2, "components": [{"label": "x"}]})
    with pytest.raises(InvalidInput):
        action_from_json({"n": 2, "components": [
            {"label": 5, "complex_dim": 0, "weights": [-1]}]})


def test_action_json_rejects_boolean_complex_dim():
    for flag in (True, False):
        with pytest.raises(InvalidInput) as err:
            action_from_json({"n": 2, "components": [
                {"label": "top", "complex_dim": 0, "weights": [-1, -1]},
                {"label": "bot", "complex_dim": flag, "weights": [1]}]})
        assert "bot: complex_dim must be a nonnegative integer" in str(err.value)


def test_width_is_invariant_under_component_order():
    rng = random.Random(321)
    base = grassmannian_action(GrassmannianSpec(2, 5))
    report = gromov_width(base)
    comps = list(base.components)
    for _ in range(10):
        rng.shuffle(comps)
        shuffled = ActionData(n=base.n, components=tuple(comps))
        assert gromov_width(shuffled) == report


@given(st.integers(1, 6))
@settings(max_examples=30)
def test_point_with_all_minus_ones_is_width_n_plus_s(n):
    # the minimal passing shape: a free maximum above one other level.
    action = ActionData(n=n, components=(
        FixedComponent("top", 0, (-1,) * n),
        FixedComponent("bot", 0, (1,) * n),
    ))
    report = gromov_width(action)
    assert report.H_max == n
    assert report.s == -n
    assert report.width == 2 * n
