"""Tests of the benchmark itself: the checker's reference values, and that a
corrupted output is counted as a failed request.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MODS = run.load_package()


def widths_by_direction(normals, radius):
    geom = checker.reflexive_geometry(normals)
    found = {}
    for xi in product(range(-radius, radius + 1), repeat=geom.dim):
        if any(xi) and gcd(*xi) == 1:
            exp = checker.expect_toric(geom, xi)
            if exp.accepted:
                found[xi] = exp.width
    return found


@pytest.mark.parametrize("name, width", [("P2", 3), ("P1xP1", 2), ("dP1", 2), ("dP2", 2)])
def test_checker_reproduces_surface_widths(name, width):
    found = widths_by_direction(inputs.SEEDS[name], 3)
    assert found and set(found.values()) == {width}


def test_checker_finds_no_accepted_direction_on_dp3():
    # Edge weights grow with |xi|, so outside this box nothing is semifree.
    assert widths_by_direction(inputs.SEEDS["dP3"], 3) == {}


@pytest.mark.parametrize("k, m", [(1, 2), (1, 5), (2, 4), (2, 6), (3, 6), (3, 7)])
def test_checker_gives_grassmannian_width_m(k, m):
    exp = checker.expect_product([(k, m)])
    assert exp.width == m
    assert exp.n == k * (m - k)
    assert exp.count == k + 1
    assert exp.levels[exp.n - m] == exp.second_level_count == 1


def test_checker_product_levels_match_second_level_count():
    exp = checker.expect_product([(2, 4), (1, 4), (3, 7), (1, 5)])
    assert exp.width == 4
    assert exp.levels[exp.n] == 1
    assert exp.levels[exp.n - 4] == exp.second_level_count == 2
    assert sum(exp.levels.values()) == exp.count == 3 * 2 * 4 * 2


EXPECTED_FRESH_WIDTH = {"P2": 3, "P1xP1": 2, "dP1": 2, "dP2": 2, "P3": 4, "P2xP1": 2,
                        "dP1xP1": 2, "P1^3": 2, "P4": 5, "P1^4": 2, "P2xP2": 3}


@pytest.mark.parametrize("name, xi", inputs.FRESH)
def test_fresh_directions_are_accepted(name, xi):
    exp = checker.expect_toric(checker.reflexive_geometry(inputs.SEEDS[name]), xi)
    assert exp.accepted
    assert exp.width == EXPECTED_FRESH_WIDTH[name]


def test_witness_labels_name_facets():
    assert checker.witness_face("D3") == [2]
    assert checker.witness_face("D1&D4") == [0, 3]
    assert checker.witness_face("p134") == [0, 2, 3]
    assert checker.witness_face("p(1,10,11)") == [0, 9, 10]


def test_minor_gcd_is_the_isotropy_order():
    # xi = (1, 2) on the facet with normal (1, 0): the quotient sees 2.
    assert checker.minor_gcd([[1, 0], [1, 2]], 2) == 2
    assert checker.minor_gcd([[1, 0], [0, 1]], 2) == 1


class Corrupting:
    """A workload whose results pass through `corrupt` before verification."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt
        self.output_bytes = 0

    def execute(self, request):
        return self.corrupt(request, self.inner.execute(request))

    def verify(self, request, result):
        return self.inner.verify(request, result)

    def next_round(self):
        return self.inner.next_round()


def tally_of(workload, corrupt=lambda request, result: result):
    wrapped = Corrupting(workload, corrupt)
    return run.drive(wrapped, wrapped.next_round(), seconds=0, rounds=1)


def test_unchanged_outputs_all_pass(tmp_path):
    for name in workloads.WORKLOADS:
        tally = tally_of(workloads.WORKLOADS[name](3, MODS, tmp_path))
        assert tally.attempted > 0 and tally.failed == 0, name


def accepted_only(result, change):
    translation, reflexive, checks, rest = result
    if isinstance(rest, tuple):
        rest = change(*rest)
    return translation, reflexive, checks, rest


def test_width_off_by_one_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        return accepted_only(result, lambda report, rows, structure, ok: (
            dataclasses.replace(report, width=report.width + 1), rows, structure, ok))

    tally = tally_of(workloads.WORKLOADS["toric-fresh"](3, MODS, tmp_path), corrupt)
    assert tally.failed == tally.wrong == tally.attempted == len(inputs.FRESH)


def test_dropped_edge_row_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        return accepted_only(result, lambda report, rows, structure, ok: (
            report, rows[:-1], structure, ok))

    tally = tally_of(workloads.WORKLOADS["toric-fresh"](3, MODS, tmp_path), corrupt)
    assert tally.failed == tally.attempted == len(inputs.FRESH)


def test_wrong_semifree_witness_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        translation, reflexive, checks, rest = result
        if isinstance(rest, str):
            rest = rest.rsplit(" ", 1)[0] + " 7"
        return translation, reflexive, checks, rest

    tally = tally_of(workloads.WORKLOADS["toric-sweep"](3, MODS, tmp_path), corrupt)
    rejected_by_isotropy = tally.failed
    assert 0 < rejected_by_isotropy == tally.wrong < tally.attempted


def test_wrong_exit_code_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        code, stdout = result
        return 1 - code, stdout

    tally = tally_of(workloads.WORKLOADS["product-cli"](3, MODS, tmp_path), corrupt)
    assert tally.failed == tally.wrong == tally.attempted == len(inputs.ROUND)


def test_truncated_fixed_output_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        code, stdout = result
        if request.command == "fixed" and request.fmt == "text":
            stdout = stdout.rstrip("\n").rsplit("\n", 1)[0] + "\n"
        return code, stdout

    tally = tally_of(workloads.WORKLOADS["product-cli"](3, MODS, tmp_path), corrupt)
    fixed_text = sum(1 for c, f, _ in inputs.ROUND if (c, f) == ("fixed", "text"))
    assert tally.failed == tally.wrong == fixed_text


def test_unexpected_exception_is_a_failed_request(tmp_path):
    def corrupt(request, result):
        raise RuntimeError("boom")

    tally = tally_of(workloads.WORKLOADS["toric-fresh"](3, MODS, tmp_path), corrupt)
    assert tally.failed == tally.attempted and tally.wrong == 0


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.WORKLOADS["toric-sweep"](5, MODS, tmp_path).next_round()
    b = workloads.WORKLOADS["toric-sweep"](5, MODS, tmp_path).next_round()
    assert [(s.doc, d) for s, d in a] == [(s.doc, d) for s, d in b]
    argvs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        cli = workloads.WORKLOADS["product-cli"](5, MODS, tmp_path / sub)
        argvs.append([[arg.replace(cli.workdir.name, "") for arg in r.argv]
                      for r in cli.next_round()])
        cli.close()
    assert argvs[0] == argvs[1]


def test_benchmark_json_names_the_workloads():
    import json
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(run.TAIL_PERCENTILE)
