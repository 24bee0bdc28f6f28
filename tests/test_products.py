"""Products answered from their factors agree with the materialized product."""

import hashlib
import itertools
import json
import random

import pytest

from gromov_width import circle_action, cli
from gromov_width.circle_action import (ActionData, FixedComponent, action_to_json,
                                        gromov_width, product_action, product_checks,
                                        product_level_gap, product_width, raw_level_gap,
                                        run_all_checks)
from gromov_width.errors import EmptyProduct, Error, InvalidInput
from gromov_width.grassmannian import GrassmannianSpec, grassmannian_action

from helpers import DATA, run_cli
from oracles import materialized_product

FIG1 = str(DATA / "fig1.json")


def gr(k, m):
    return grassmannian_action(GrassmannianSpec(k, m))


def planted_weight_two(k, m):
    """Gr(k, m) with one +1 weight of the minimum turned into 2: not semifree."""
    comps = list(gr(k, m).components)
    low = comps[-1]
    comps[-1] = FixedComponent(low.label, low.complex_dim, low.weights[:-1] + (2,))
    return ActionData(k * (m - k), tuple(comps))


def curve_at_top(k, m):
    """Gr(k, m) with a curve in place of the isolated maximum."""
    comps = list(gr(k, m).components)
    n = k * (m - k)
    comps[0] = FixedComponent(comps[0].label, 1, (-1,) * (n - 1))
    return ActionData(n, tuple(comps))


def n_mismatch(k, m):
    action = gr(k, m)
    return ActionData(action.n + 1, action.components)


def single_point(n):
    """One isolated fixed point: passes every check but has a single level."""
    return ActionData(n, (FixedComponent("pt", 0, (-1,) * n),))


def ambiguous_max():
    return ActionData(1, (FixedComponent("a", 0, (-1,)), FixedComponent("b", 0, (-1,))))


# Each factor is valid with width 2, but "a x" x "b" and "a" x "x b" both
# join to the label "a x x b".
COLLIDING = (
    ActionData(1, (FixedComponent("a x", 0, (-1,)), FixedComponent("a", 0, (1,)))),
    ActionData(1, (FixedComponent("b", 0, (-1,)), FixedComponent("x b", 0, (1,)))),
)


def factor_pool():
    grassmannians = [gr(k, m) for m in range(2, 7) for k in range(1, m // 2 + 1)]
    nested = [product_action([gr(1, 2), gr(1, 3)]), product_action([gr(2, 4), gr(1, 2)]),
              product_action([product_action([gr(1, 2), gr(1, 2)]), gr(1, 3)])]
    oddities = [planted_weight_two(2, 4), planted_weight_two(1, 3), curve_at_top(2, 5),
                n_mismatch(1, 4), single_point(2), single_point(3), ambiguous_max(),
                ActionData(2, (FixedComponent("flat", 0, (-1, 1)),))]
    return grassmannians + nested + oddities + list(COLLIDING)


def scrambled(action, rng):
    """Same fixed-point data in a random order, with stale H on some components."""
    comps = [FixedComponent(c.label, c.complex_dim, c.weights,
                            H=rng.choice((c.H, None, 99)))
             for c in action.components]
    rng.shuffle(comps)
    return ActionData(action.n, tuple(comps))


def outcome(fn, parts):
    try:
        return fn(parts)
    except Error as exc:
        return type(exc), str(exc), getattr(exc, "raw_difference", None)


def random_products(seed, count):
    rng = random.Random(seed)
    pool = factor_pool()
    for _ in range(count):
        parts = [scrambled(rng.choice(pool), rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            at = rng.randrange(len(parts) + 1)
            parts[at:at] = COLLIDING
        yield parts


def test_product_width_matches_materialized_product():
    answered = 0
    for parts in random_products(4096, 300):
        expected = outcome(lambda p: gromov_width(materialized_product(p)), parts)
        assert outcome(product_width, parts) == expected, parts
        answered += not isinstance(expected, tuple)
        built = outcome(materialized_product, parts)
        if isinstance(built, ActionData):
            assert product_level_gap(parts) == raw_level_gap(built), parts
    assert answered > 60      # the mix must exercise the passing path as well


def test_product_checks_match_materialized_product():
    for parts in random_products(77, 300):
        expected = outcome(lambda p: run_all_checks(materialized_product(p)), parts)
        assert outcome(product_checks, parts) == expected, parts


def test_product_action_matches_materialized_product():
    built = failed = 0
    for parts in random_products(31, 300):
        expected = outcome(materialized_product, parts)
        got = outcome(product_action, parts)
        assert got == expected, parts
        if isinstance(expected, ActionData):
            built += 1
            # every component is a FixedComponent whose weights come sorted
            assert all(type(c) is FixedComponent and list(c.weights) == sorted(c.weights)
                       for c in got.components)
        else:
            failed += 1
    assert built > 200 and failed > 10
    assert outcome(product_action, []) == outcome(materialized_product, []) == (
        EmptyProduct, "a product needs at least one factor", None)


def test_duplicate_label_message_names_the_first_duplicate():
    # Two labels repeat, "a x x b" and "c x x b".  With the first factor
    # outermost, "a" x "x b" comes before either "c x" combination; with the
    # last factor outermost, "c x" x "b" would come first.
    parts = [ActionData(1, (FixedComponent("a", 0, (-1,)), FixedComponent("c x", 0, (1,)),
                            FixedComponent("a x", 0, (1,)), FixedComponent("c", 0, (1,)))),
             ActionData(1, (FixedComponent("b", 0, (-1,)), FixedComponent("x b", 0, (1,))))]
    for build in (product_action, materialized_product):
        with pytest.raises(InvalidInput) as info:
            build(parts)
        assert str(info.value) == "duplicate component label 'a x x b'"


def joins_distinct_exactly(groups):
    combos = 1
    for group in groups:
        combos *= len(group)
    return len({" x ".join(combo) for combo in itertools.product(*groups)}) == combos


def fuzz_label(rng):
    return "".join(rng.choice(("x", " ", "(", ")", " x ")) if rng.random() < 0.1
                   else rng.choice(("a", "b", "(a)", "a x b"))
                   for _ in range(rng.randint(1, 3)))


def test_label_condition_never_accepts_a_collision():
    rng = random.Random(2024)
    accepted = rejected = 0
    for _ in range(2000):
        groups = [sorted({circle_action._wrap_label(fuzz_label(rng))
                          for _ in range(rng.randint(1, 3))})
                  for _ in range(rng.randint(2, 3))]
        exact = joins_distinct_exactly(groups)
        if all(circle_action._joins_unambiguously(l) for group in groups for l in group):
            accepted += 1
            assert exact, groups
        else:
            rejected += 1
        assert circle_action._joins_distinct(groups) == exact, groups
    assert accepted > 500 and rejected > 500


# Wrapped label groups with two combinations that join to the same string.
COLLISIONS = [
    [["a x", "a"], ["b", "x b"]],                       # "a x x b"
    [["(p) x (q)", "(p)"], ["(r)", "(q) x (r)"]],       # "(p) x (q) x (r)"
]


def test_constructed_collisions_are_rejected_and_counted():
    for groups in COLLISIONS:
        assert not all(circle_action._joins_unambiguously(l) for g in groups for l in g)
        assert not joins_distinct_exactly(groups)
        assert not circle_action._joins_distinct(groups)
    # the condition rejects "a x", but these joins are distinct: the count decides
    assert circle_action._joins_distinct([["a", "a x"], ["c"]])
    # the raw labels behind the parenthesized collision fall back to the same error
    parts = [ActionData(1, (FixedComponent("p) x (q", 0, (-1,)), FixedComponent("(p)", 0, (1,)))),
             ActionData(1, (FixedComponent("(r)", 0, (-1,)), FixedComponent("q) x (r", 0, (1,))))]
    for fn in (product_width, product_checks, product_action):
        with pytest.raises(InvalidInput) as info:
            fn(parts)
        assert str(info.value) == "duplicate component label '(p) x (q) x (r)'"


def test_label_collision_falls_back_to_the_same_error():
    for fn in (product_width, product_checks):
        with pytest.raises(Error) as info:
            fn(list(COLLIDING))
        assert type(info.value) is InvalidInput
        assert str(info.value) == "duplicate component label 'a x x b'"
    # either factor on its own is fine
    assert [gromov_width(a).width for a in COLLIDING] == [2, 2]


def test_second_level_of_the_narrowest_factor():
    report = product_width([gr(2, 4), gr(1, 2), gr(1, 3)])
    assert (report.width, report.H_max, report.s) == (2, 7, 5)
    assert report.max_component == ("Gr(2,2)xGr(0,2) x Gr(1,1)xGr(0,1) x "
                                    "Gr(1,1)xGr(0,2)")
    assert report.second_level_components == (
        "Gr(2,2)xGr(0,2) x Gr(0,1)xGr(1,1) x Gr(1,1)xGr(0,2)",)


def test_single_level_and_single_factor_products_fall_back():
    with pytest.raises(Error) as info:
        product_width([single_point(1), single_point(2)])
    assert str(info.value) == "all components sit at the single moment level H = 3"
    assert product_width([gr(2, 4)]) == gromov_width(gr(2, 4))
    assert product_checks([single_point(1), single_point(2)]) == run_all_checks(
        product_action([single_point(1), single_point(2)]))


def count_product_actions(monkeypatch):
    calls = []
    real = circle_action.product_action

    def counted(parts):
        calls.append(len(parts))
        return real(parts)

    monkeypatch.setattr(circle_action, "product_action", counted)
    monkeypatch.setattr(cli, "product_action", counted)
    return calls


def test_cli_answers_large_products_from_factors(monkeypatch):
    calls = count_product_actions(monkeypatch)
    expr = ",".join(["grassmannian(3,7)"] * 6)
    for command in ("width", "check", "seidel"):
        code, out = run_cli(command, "--product", expr)
        assert code == 0, out
    assert calls == []
    code, out = run_cli("width", "--product", expr)
    assert out.splitlines()[:3] == [
        "Gromov width: 7",
        "H(F_max) = 72 (" + " x ".join(["Gr(3,3)xGr(0,4)"] * 6) + ")",
        "s = 65 (" + ", ".join(
            " x ".join(["Gr(3,3)xGr(0,4)"] * i + ["Gr(2,3)xGr(1,4)"]
                       + ["Gr(3,3)xGr(0,4)"] * (5 - i))
            for i in range(6)) + ")",
    ]


def test_many_factors_answer_without_combinations(monkeypatch):
    # 2^40 combinations: any walk over them, built or joined, fails here
    def forbidden(*groups):
        raise AssertionError("product combinations enumerated")

    monkeypatch.setattr(circle_action, "cartesian", forbidden)
    calls = count_product_actions(monkeypatch)
    expr = ",".join(["grassmannian(1,2)"] * 40)
    top, low = "Gr(1,1)xGr(0,1)", "Gr(0,1)xGr(1,1)"
    code, out = run_cli("width", "--product", expr)
    assert code == 0, out
    assert out.splitlines()[:2] == ["Gromov width: 2",
                                    "H(F_max) = 40 (" + " x ".join([top] * 40) + ")"]
    assert out.splitlines()[2].count(low) == 40
    for command in ("check", "seidel"):
        code, out = run_cli(command, "--product", expr)
        assert code == 0, out
    assert calls == []


# The 648-component product of the benchmark's fixed template, with its
# action-file factor as the Grassmannian it was written from.
FIXED_648 = ("grassmannian(2,5),grassmannian(2,4),grassmannian(2,6),grassmannian(1,4),"
             "product(grassmannian(2,5),grassmannian(3,6))")


@pytest.mark.parametrize("fmt, digest", [
    ("text", "8aba39c1ee6b6561f680d12ee2671e4608d22a4836068298417d64a93f236ee7"),
    ("json", "0e699e7a9da0e773378b7c99927c4dff7934e3844f59f3433c37186c7946f6cc"),
])
def test_fixed_output_of_a_648_component_product_is_pinned(fmt, digest):
    code, out = run_cli("fixed", "--product", FIXED_648, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def write_action(path, action):
    path.write_text(json.dumps(action_to_json(action)))
    return f"action({path})"


FLAT = ActionData(2, (FixedComponent("flat", 0, (-1, 1)),))


def test_cli_builds_a_failing_product_at_most_once(tmp_path, monkeypatch):
    planted = write_action(tmp_path / "planted.json", planted_weight_two(3, 7))
    flat = write_action(tmp_path / "flat.json", FLAT)
    calls = count_product_actions(monkeypatch)
    for expr, factors in ((f"grassmannian(3,7),grassmannian(3,7),{planted}", 3),
                          (f"{flat},{flat}", 2)):
        for command in ("width", "check", "seidel", "fixed"):
            calls.clear()
            code, out = run_cli(command, "--product", expr)
            assert code == (0 if command == "fixed" else 1), out
            assert [n for n in calls if n > 1] == [factors], (command, expr)


def test_one_factor_product_prints_what_the_plain_source_prints(tmp_path):
    sources = [(("--grassmannian", "2,4"), "grassmannian(2,4)")]
    for name, action in (("gr.json", gr(2, 5)), ("planted.json", planted_weight_two(2, 4)),
                         ("curve.json", curve_at_top(1, 4)), ("flat.json", FLAT)):
        expr = write_action(tmp_path / name, action)
        sources.append((("--action", str(tmp_path / name)), expr))
    codes = set()
    for plain, expr in sources:
        for command in ("width", "check", "seidel", "fixed"):
            for fmt in ("text", "json"):
                want = run_cli(command, *plain, "--format", fmt)
                assert run_cli(command, "--product", expr, "--format", fmt) == want, (
                    command, expr, fmt)
                codes.add(want[0])
    assert codes == {0, 1}


def test_cli_product_output_matches_materialized_action(tmp_path, monkeypatch):
    planted = write_action(tmp_path / "planted.json", planted_weight_two(2, 4))
    curve = write_action(tmp_path / "curve.json", curve_at_top(1, 4))
    left = write_action(tmp_path / "left.json", COLLIDING[0])
    right = write_action(tmp_path / "right.json", COLLIDING[1])
    point = write_action(tmp_path / "point.json", single_point(2))
    expressions = [
        "grassmannian(2,4),grassmannian(1,3)",
        "grassmannian(1,2)",
        "product(grassmannian(1,3),grassmannian(1,4)),grassmannian(2,4)",
        "grassmannian(2,5),product(grassmannian(1,2),grassmannian(2,6)),grassmannian(1,3)",
        f"grassmannian(1,3),{planted}",
        f"{curve},grassmannian(2,5)",
        f"{left},{right}",
        f"{point},{point}",
        f"{point},grassmannian(1,3)",
        f"toric({FIG1},0,1),grassmannian(1,2)",
        f"toric({FIG1},-1,-2),grassmannian(1,2)",
    ]
    runs = [(command, expr, fmt) for command in ("width", "check", "seidel", "fixed")
            for expr in expressions for fmt in ("text", "json")]
    fast = [run_cli(c, "--product", e, "--format", f) for c, e, f in runs]
    monkeypatch.setattr(cli, "product_width",
                        lambda parts: gromov_width(materialized_product(parts)))
    monkeypatch.setattr(cli, "product_checks",
                        lambda parts: run_all_checks(materialized_product(parts)))
    materialized = [run_cli(c, "--product", e, "--format", f) for c, e, f in runs]
    for run, got, want in zip(runs, fast, materialized):
        assert got == want, run
    assert {code for code, _ in fast} == {0, 1, 2}
