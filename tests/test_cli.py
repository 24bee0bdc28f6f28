"""Command-line behavior: output bytes, exit codes, source grammar."""

import json
import subprocess
import sys

import pytest

from gromov_width import cli
from gromov_width.cli import main, parse_source_expr
from gromov_width.errors import InconsistentComponent, InvalidInput

from helpers import DATA, EXPECTED, run_cli

FIG1 = str(DATA / "fig1.json")
# A scrambled P2 x P1 with rational offsets, for a 3-D toric source.
P2XP1 = str(DATA / "p2xp1_scrambled.json")
# A scrambled (P1 x P1)^4 x P2 with shuffled facets, 768 vertices in
# dimension 10, with the diagonal of the factors' isolated-max circles.
TEN_DIM = str(DATA / "p1xp1_4xp2_scrambled.json")
TEN_DIM_DIR = "1,-1,1,-3,0,-1,-1,3,1,0"


def test_width_grassmannian():
    code, out = run_cli("width", "--grassmannian", "2,4")
    assert code == 0
    assert out.splitlines() == [
        "Gromov width: 4",
        "H(F_max) = 4 (Gr(2,2)xGr(0,2))",
        "s = 0 (Gr(1,2)xGr(1,2))",
        "checks passed: semifree, isolated-max, monotone-consistency",
    ]


def test_width_toric_matches_fixture():
    code, out = run_cli("width", "--toric", FIG1, "--dir", "0,1")
    assert code == 0
    assert out == (EXPECTED / "fig1_width_0_1.txt").read_text()


def test_check_failure_matches_fixture():
    code, out = run_cli("check", "--toric", FIG1, "--dir=-1,-2")
    assert code == 1
    assert out == (EXPECTED / "fig1_check_-1_-2.txt").read_text()


def test_edges_matches_fixture():
    code, out = run_cli("edges", "--toric", FIG1, "--dir", "0,1")
    assert code == 0
    assert out == (EXPECTED / "fig1_edges_0_1.txt").read_text()


def test_3d_edges_matches_fixture():
    code, out = run_cli("edges", "--toric", P2XP1, "--dir", "1,1,0")
    assert code == 0
    assert out == (EXPECTED / "p2xp1_edges_1_1_0.txt").read_text()


def test_3d_fixed_json_matches_fixture():
    code, out = run_cli("fixed", "--toric", P2XP1, "--dir", "1,1,0", "--format", "json")
    assert code == 0
    assert out == (EXPECTED / "p2xp1_fixed_1_1_0.json").read_text()


def test_10d_width_matches_fixture():
    code, out = run_cli("width", "--toric", TEN_DIM, "--dir", TEN_DIM_DIR)
    assert code == 0
    assert out == (EXPECTED / "p1xp1_4xp2_width_1_-1_1_-3_0_-1_-1_3_1_0.txt").read_text()


def test_10d_edges_match_fixture():
    code, out = run_cli("edges", "--toric", TEN_DIM, "--dir", TEN_DIM_DIR)
    assert code == 0
    assert out == (EXPECTED / "p1xp1_4xp2_edges_1_-1_1_-3_0_-1_-1_3_1_0.txt").read_text()


@pytest.mark.parametrize("command", ["width", "check"])
def test_adversarial_dp3_5_matches_fixture(command):
    code, out = run_cli(command, "--toric", str(DATA / "dp3_5_adversarial.json"),
                        "--dir", "1,0,1,0,1,0,1,0,1,0")
    assert code == 1
    assert out == (EXPECTED / f"dp3_5_adversarial_{command}_1_0_1_0_1_0_1_0_1_0.txt").read_text()


def test_fixed_text_builds_no_json(monkeypatch):
    source = f"grassmannian(2,4),toric({P2XP1},1,1,0)"
    _, expected = run_cli("fixed", "--product", source)

    def forbidden(action):
        raise AssertionError("fixed --format text built the JSON form")

    monkeypatch.setattr(cli, "action_to_json", forbidden)
    code, out = run_cli("fixed", "--product", source)
    assert code == 0
    assert out == expected
    with pytest.raises(AssertionError):
        run_cli("fixed", "--product", "grassmannian(2,4)", "--format", "json")


def test_seidel_matches_fixture():
    code, out = run_cli("seidel", "--grassmannian", "2,4")
    assert code == 0
    assert out == (EXPECTED / "gr24_seidel.txt").read_text()


def test_fixed_json_matches_fixture():
    code, out = run_cli("fixed", "--toric", FIG1, "--dir", "0,1",
                        "--format", "json")
    assert code == 0
    assert out == (EXPECTED / "fig1_fixed_0_1.json").read_text()


def test_simplex_width_matches_fixture():
    code, out = run_cli("width", "--toric", str(DATA / "p2_simplex.json"),
                        "--dir", "1,0")
    assert code == 0
    assert out == (EXPECTED / "p2_simplex_width_1_0.txt").read_text()


def test_square_check_matches_fixture():
    code, out = run_cli("check", "--toric", str(DATA / "p1xp1_square.json"),
                        "--dir", "1,0")
    assert code == 1
    assert out == (EXPECTED / "p1xp1_check_1_0.txt").read_text()


def test_rectangle_check_matches_fixture():
    code, out = run_cli("check", "--toric", str(DATA / "rect_2x4.json"),
                        "--dir", "1,0")
    assert code == 1
    assert out == (EXPECTED / "rect_2x4_check_1_0.txt").read_text()


def test_output_is_deterministic():
    runs = {run_cli("fixed", "--toric", FIG1, "--dir", "0,1",
                    "--format", "json") for _ in range(3)}
    assert len(runs) == 1


def test_fixed_json_round_trips_through_action_source(tmp_path):
    _, out = run_cli("fixed", "--toric", FIG1, "--dir", "0,1",
                     "--format", "json")
    path = tmp_path / "fig1_action.json"
    path.write_text(out)
    code, via_action = run_cli("width", "--action", str(path))
    assert code == 0
    _, via_toric = run_cli("width", "--toric", FIG1, "--dir", "0,1")
    assert via_action == via_toric


def test_check_passes_on_good_direction():
    code, out = run_cli("check", "--toric", FIG1, "--dir", "0,1")
    assert code == 0
    assert out.splitlines() == [
        "semifree: PASS",
        "isolated-max: PASS",
        "monotone-consistency: PASS",
        "all hypotheses hold",
    ]


def test_isolated_max_failure_exit_code():
    code, out = run_cli("width", "--toric", str(DATA / "p1xp1_square.json"),
                        "--dir", "1,0")
    assert code == 1
    assert out == ("MAX NOT ISOLATED: maximum component D2 has complex_dim 1; "
                   "raw H_max - s = 2 (diagnostic only)\n")


def test_not_monotone_exit_code():
    code, out = run_cli("width", "--toric", str(DATA / "rect_2x4.json"),
                        "--dir", "1,0")
    assert code == 1
    assert out == "NOT MONOTONE: no translation takes every facet offset to -1\n"


def test_imprimitive_direction_rejected():
    code, out = run_cli("width", "--toric", FIG1, "--dir", "2,4")
    assert code == 2
    assert out == "error: --dir: direction 2,4 is not primitive (gcd 2)\n"


def test_zero_direction_rejected():
    code, out = run_cli("width", "--toric", FIG1, "--dir", "0,0")
    assert code == 2
    assert out.startswith("error: --dir: direction must be nonzero")


def test_missing_file_json_error():
    code, out = run_cli("width", "--action", "no_such_file.json",
                        "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["command"] == "width"
    assert data["error"]["kind"] == "FileNotFoundError"


def test_boolean_complex_dim_rejected(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"n": 2, "components": [
        {"label": "top", "complex_dim": 0, "weights": [-1, -1]},
        {"label": "mid", "complex_dim": 0, "weights": [-1, 1]},
        {"label": "bot", "complex_dim": True, "weights": [1]}]}))
    for command in ("width", "fixed"):
        code, out = run_cli(command, "--action", str(path))
        assert code == 2, (command, out)
        assert out == "error: bot: complex_dim must be a nonnegative integer\n"


HUGE = "7" * 5000     # past the interpreter's default limit of 4300 digits


@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"n": ' + HUGE.encode() + b', "components": []}',
    b'{"dim": 1, "facets": [{"normal": [1], "offset": ' + HUGE.encode() + b'}]}',
    b'\xff\xfe{"n": 1, "components": []}',
], ids=["deep", "huge-n", "huge-offset", "not-utf8"])
@pytest.mark.parametrize("flag", ["--action", "--toric"])
def test_malformed_json_file_exits_2(tmp_path, content, flag):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = ["width", flag, str(path)] + (["--dir", "1"] if flag == "--toric" else [])
    code, out = run_cli(*argv)
    assert code == 2
    assert out.startswith(f"error: {path}: invalid JSON (")


@pytest.mark.parametrize("argv", [
    ["width", "--grassmannian", f"2,{HUGE}"],
    ["width", "--toric", FIG1, "--dir", f"{HUGE},1"],
    ["width", "--product", f"grassmannian(2,{HUGE})"],
])
def test_oversized_integer_argument_exits_2(argv):
    code, out = run_cli(*argv)
    assert code == 2
    assert "expected comma-separated integers, got" in out


def weighty_action(tmp_path, digits):
    """An action file whose bottom component has two weights of 9s, each of the given length."""
    w = "9" * digits
    path = tmp_path / f"weights_{digits}.json"
    path.write_text('{"n": 2, "components": [{"label": "top", "complex_dim": 0, '
                    '"weights": [-1, -1]}, {"label": "bot", "complex_dim": 0, '
                    f'"weights": [{w}, {w}]}}]}}')
    return str(path)


TOO_MANY_DIGITS = "a number in the result has more than 4300 digits, too many to print"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_too_long_to_print_exits_2(tmp_path, fmt):
    # Each input integer has 4,300 digits, inside the interpreter's limit, but
    # the moment level H = -(w1 + w2), or the width from --dir, has more.
    runs = [[command, "--action", weighty_action(tmp_path, 4300)]
            for command in ("width", "check", "fixed", "seidel")]
    runs += [[command, "--toric", FIG1, f"--dir={'9' * 4300},1"]
             for command in ("width", "check", "fixed", "edges")]
    for argv in runs:
        code, out = run_cli(*argv, "--format", fmt)
        assert code == 2, argv
        if fmt == "text":
            assert out == f"error: {TOO_MANY_DIGITS}\n"
        else:
            assert json.loads(out) == {"command": argv[0], "error": {
                "kind": "InvalidInput", "message": TOO_MANY_DIGITS}}


def test_result_just_below_the_digit_limit_prints(tmp_path):
    path = weighty_action(tmp_path, 4299)
    level = -2 * int("9" * 4299)
    code, out = run_cli("fixed", "--action", path)
    assert code == 0
    assert out.splitlines()[-1] == (f"bot: complex_dim 0, weights [{'9' * 4299}, "
                                    f"{'9' * 4299}], H = {level}")
    code, out = run_cli("width", "--action", path, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["check"] == "semifree"


OUT_OF_MEMORY = "out of memory: the input describes too large an action"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_of_memory_exits_2_with_one_line(monkeypatch, fmt):
    # Stands in for an action too large to hold, such as Gr(1000, 3000),
    # without allocating it.
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "grassmannian_action", exhausted)
    for command in ("width", "check", "fixed", "seidel"):
        code, out = run_cli(command, "--grassmannian", "1000,3000", "--format", fmt)
        assert code == 2, command
        if fmt == "text":
            assert out == f"error: {OUT_OF_MEMORY}\n"
        else:
            assert json.loads(out) == {"command": command, "error": {
                "kind": "MemoryError", "message": OUT_OF_MEMORY}}


def test_inconsistent_component_is_invalid_input():
    assert issubclass(InconsistentComponent, InvalidInput)


def test_dir_without_toric_rejected():
    code, out = run_cli("width", "--grassmannian", "2,4", "--dir", "1,0")
    assert code == 2
    assert "only applies to --toric" in out


def test_toric_without_dir_rejected():
    code, out = run_cli("width", "--toric", FIG1)
    assert code == 2
    assert "--toric requires --dir" in out


def test_bad_grassmannian_range():
    code, out = run_cli("width", "--grassmannian", "3,4")
    assert code == 2
    assert out.startswith("error: ")


def test_product_source():
    code, out = run_cli("width", "--product",
                        "grassmannian(2,4),grassmannian(1,2)")
    assert code == 0
    assert out.splitlines()[0] == "Gromov width: 2"


def test_nested_product_source():
    code, out = run_cli(
        "width", "--product",
        "product(grassmannian(1,2),grassmannian(1,3)),grassmannian(1,2)")
    assert code == 0
    assert out.splitlines()[0] == "Gromov width: 2"


def test_product_with_toric_atom():
    code, out = run_cli("width", "--product",
                        f"toric({FIG1},0,1),grassmannian(1,2)")
    assert code == 0
    assert out.splitlines()[0] == "Gromov width: 2"
    assert "p23 x Gr(1,1)xGr(0,1)" in out


@pytest.mark.parametrize("argv, flag, text", [
    (("--grassmannian", "1_0,2_0"), "--grassmannian", "1_0,2_0"),
    (("--grassmannian", "\uff12,\uff14"), "--grassmannian", "\uff12,\uff14"),
    (("--grassmannian", "2.0,4"), "--grassmannian", "2.0,4"),
    (("--toric", FIG1, "--dir", "0,1_0"), "--dir", "0,1_0"),
    (("--toric", FIG1, "--dir= 0 ,\u0661"), "--dir", " 0 ,\u0661"),
    (("--product", "grassmannian(1,1_2)"), "grassmannian", "1,1_2"),
    (("--product", f"toric({FIG1},0,1_0),grassmannian(1,2)"), "--dir", "0,1_0"),
])
def test_integers_are_ascii_digits_only(argv, flag, text):
    # int() would take underscores and non-ASCII digits
    code, out = run_cli("width", *argv)
    assert code == 2
    assert out == f"error: {flag}: expected comma-separated integers, got {text!r}\n"


def test_integers_allow_signs_and_spaces():
    assert cli._parse_ints(" +1 , -2,3 ", "--dir") == (1, -2, 3)
    code, out = run_cli("width", "--grassmannian", " 2 , +4 ")
    assert code == 0
    assert out.splitlines()[0] == "Gromov width: 4"


def test_parser_is_built_once_and_survives_a_failed_parse(monkeypatch, capsys):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    with pytest.raises(SystemExit) as exit_info:
        main(["width", "--grassmannian", "2,4", "--format", "yaml"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err
    argvs = [
        ["width", "--grassmannian", "2,4"],
        ["check", "--toric", FIG1, "--dir=-1,-2", "--format", "json"],
        ["fixed", "--product", "grassmannian(1,2),grassmannian(1,3)"],
        ["edges", "--toric", FIG1, "--dir", "0,1"],
        ["seidel", "--grassmannian", "2,5", "--format", "json"],
    ]
    reused = [run_cli(*argv) for argv in argvs]
    assert len(calls) == 1
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_cli(*argv))
    assert reused == fresh
    assert len(calls) == 1 + len(argvs)


def test_source_grammar_errors():
    with pytest.raises(InvalidInput):
        parse_source_expr("grassmannian(2,4")
    with pytest.raises(InvalidInput):
        parse_source_expr("mystery(1)")
    with pytest.raises(InvalidInput):
        parse_source_expr("grassmannian(2)")
    with pytest.raises(InvalidInput):
        parse_source_expr("toric(file.json)")
    src = parse_source_expr("product(grassmannian(1,2),toric(p.json,-1,-2))")
    assert src.kind == "product"
    assert src.children[1].direction == (-1, -2)


def nested(levels):
    return "product(" * levels + "grassmannian(1,2)" + ")" * levels


def test_source_nesting_is_bounded():
    # nested(levels) has levels + 1 parentheses open at its deepest point
    code, out = run_cli("width", "--product", nested(cli._MAX_NESTING - 1))
    assert (code, out.splitlines()[0]) == (0, "Gromov width: 2")
    for argv in (("width", "--product", nested(1200)),
                 ("check", "--product", "grassmannian(1,2)," + nested(cli._MAX_NESTING)),
                 ("fixed", "--product", nested(cli._MAX_NESTING), "--format", "json")):
        code, out = run_cli(*argv)
        assert code == 2
        assert "sources nest deeper than 64 levels" in out


def test_json_width_payload():
    code, out = run_cli("width", "--toric", FIG1, "--dir", "0,1",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "command": "width",
        "width": 2,
        "H_max": 2,
        "s": 0,
        "max_component": "p23",
        "second_level_components": ["p34"],
        "hypothesis_log": ["semifree", "isolated-max", "monotone-consistency"],
    }


def test_json_check_failure_payload():
    code, out = run_cli("check", "--toric", FIG1, "--dir=-1,-2",
                        "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == {
        "check": "semifree",
        "witness": "facet D3 isotropy order 2",
        "raw_difference": 1,
    }
    assert [r["passed"] for r in data["results"]] == [False, True, True]


def test_edges_requires_toric_source():
    code, out = run_cli("edges", "--grassmannian", "2,4")
    assert code == 2
    assert "edges requires a --toric source" in out


def test_subprocess_entry_point():
    # the module must be runnable as a script with identical behavior
    proc = subprocess.run(
        [sys.executable, "-m", "gromov_width.cli",
         "width", "--grassmannian", "3,7"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Gromov width: 7"
    bad = subprocess.run(
        [sys.executable, "-m", "gromov_width.cli",
         "check", "--toric", FIG1, "--dir=-1,-2"],
        capture_output=True, text=True)
    assert bad.returncode == 1
    assert bad.stdout.endswith("(diagnostic only)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_closing_the_pipe_early_exits_141_quietly(fmt):
    # the output (over 1 MB) outgrows the pipe buffer, so the CLI is still
    # writing when the reader stops after 100 bytes and closes its end
    with subprocess.Popen(
            [sys.executable, "-m", "gromov_width.cli",
             "fixed", "--grassmannian", "60,200", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait()
    assert len(head) == 100
    assert code == 141
    assert stderr == b""
