"""CLI behavior: reports, exit codes, witness round trips, stable JSON."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ptfkit import PTF, ParseError, XorList, all_vectors, evaluate, lp, parse_table
from ptfkit import cli
from ptfkit.cli import parse_fraction, parse_monomial, parse_ptf_text, run, xor_list_to_json
from ptfkit.ptf import evaluate as eval_ptf

TESTS_DIR = Path(__file__).parent

GOLDEN_CASES = [
    (["analyze", "0110"], "analyze_xor2.json"),
    (["analyze", "0111"], "analyze_or2.json"),
    (["analyze", "0001"], "analyze_and2.json"),
    (["reduce", "0110", "--at", "11"], "reduce_xor2_at11.json"),
    (["extend", "0110", "fixtures/or2.ptf", "fixtures/and2.ptf"], "extend_xor2.json"),
    (["asummable", "0110", "--m", "2"], "asummable_xor2.json"),
    (["asummable", "0001", "--m", "4"], "asummable_and2.json"),
]


def run_json(args, capsys) -> tuple[int, str]:
    code = run(["--json", *args])
    return code, capsys.readouterr().out


def test_analyze_xor2(capsys):
    code, out = run_json(["analyze", "0110"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n"] == 2
    assert result["order"] == 2
    assert result["is_threshold"] is False


def test_analyze_and2(capsys):
    code, out = run_json(["analyze", "0001"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 1
    assert result["witness"] is not None


def test_reduce_xor2(capsys):
    code, out = run_json(["reduce", "0110", "--at", "11"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["f2"] == "0111"
    assert result["f1"] == "0001"


def test_hov_lists_all_flip_points(capsys):
    code, out = run_json(["hov", "0110"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["high_order_vectors"]) == 4
    assert all(entry["s"] == 1 for entry in result["high_order_vectors"])


def test_family_from_weights_file(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    code, out = run_json(["family", "fixtures/w11.weights"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert [m["table"] for m in result["members"]] == ["1111", "0111", "0001", "0000"]


def test_synth_mtf(capsys):
    code, out = run_json(["synth-mtf", "0110", "--k-max", "2"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["found"] is True
    assert result["rep"]["thresholds"] == ["1", "2"]


def test_eval_ptf_file(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    code, out = run_json(["eval", "fixtures/or2.ptf", "--at", "10"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "ptf", "at": [1, 0], "value": 1}


def test_eval_shared_weight_json(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(
        json.dumps({"n": 2, "weights": {"1": "1", "2": "1"}, "thresholds": ["1", "2"]})
    )
    code, out = run_json(["eval", str(rep_file), "--at", "11"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0


def test_eval_xor_list_json(tmp_path, capsys):
    rep_file = tmp_path / "xorlist.json"
    rep_file.write_text(
        json.dumps(["1: 1\n2: 1\ntheta: 1\n", "1: 1\n2: 1\ntheta: 2\n"])
    )
    bits = []
    for at in ("00", "10", "01", "11"):
        code, out = run_json(["eval", str(rep_file), "--at", at], capsys)
        assert code == 0
        bits.append(json.loads(out)["result"]["value"])
    assert bits == [0, 1, 1, 0]


def test_eval_xor_list_members_on_different_variables(tmp_path, capsys):
    # members x1 >= 1 and x2 >= 1: neither weights both variables
    rep = XorList((PTF(2, {(1,): 1}, 1), PTF(2, {(2,): 1}, 1)))
    rep_file = tmp_path / "xorlist.json"
    rep_file.write_text(json.dumps(xor_list_to_json(rep)))
    bits = []
    for at in ("00", "10", "01", "11"):
        code, out = run_json(["eval", str(rep_file), "--at", at], capsys)
        assert code == 0
        bits.append(json.loads(out)["result"]["value"])
    assert bits == [0, 1, 1, 0]


def test_eval_xor_list_keeps_its_variable_count(tmp_path, capsys):
    # n = 3 although no member weights x3: vectors have three bits
    rep = XorList((PTF(3, {(1,): 1}, 1), PTF(3, {(2,): 1}, 1)))
    rep_file = tmp_path / "xorlist.json"
    rep_file.write_text(json.dumps(xor_list_to_json(rep)))
    code, out = run_json(["eval", str(rep_file), "--at", "101"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "xor_list", "at": [1, 0, 1], "value": 1}
    assert run(["eval", str(rep_file), "--at", "10"]) == 1


@pytest.mark.parametrize(
    "content",
    [
        "{}",
        "[]",
        "42",
        "[1, 2]",
        '{"weights": {"1": 1}, "thresholds": ["1"]}',
        '{"n": "two", "weights": {"1": "1"}, "thresholds": ["1"]}',
        '["1+2: 1\\ntheta: 1\\n"]',
        '{"n": 2, "weights": {"3": "1"}, "thresholds": []}',
    ],
    ids=["empty-object", "empty-list", "scalar", "non-string-members", "numeric-weights",
         "non-integer-n", "xor-member-order-2", "weight-above-n"],
)
def test_eval_malformed_json_exits_1(content, tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(content)
    assert run(["eval", str(rep_file), "--at", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights,n",
    [("1: 1\n2: 1\n", "0"), ("1: 1\n2: 1\n", "-1"), ("1: 1\n2: 1\n", "1"), ("1: 1\n", "40")],
    ids=["zero", "negative", "below-largest-index", "above-cap"],
)
def test_family_bad_variable_count_exits_2(weights, n, tmp_path, capsys):
    path = tmp_path / "w.weights"
    path.write_text(weights)
    assert run(["family", str(path), "--n", n]) == 2
    assert "precondition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights",
    ["2+1: 1\n", "0: 1\n", "-1: 1\n", "2+0: 1\n"],
    ids=["decreasing", "zero-index", "negative-index", "zero-in-product"],
)
@pytest.mark.parametrize("n_args", [[], ["--n", "3"]], ids=["no-n", "n3"])
def test_family_malformed_monomial_exits_1(weights, n_args, tmp_path, capsys):
    path = tmp_path / "w.weights"
    path.write_text(weights)
    assert run(["family", str(path), *n_args]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["eval", "{file}", "--at", "10"], ["extend", "0110", "{file}", "{file}"], ["family", "{file}"]],
    ids=["eval", "extend", "family"],
)
@pytest.mark.parametrize("unreadable", ["undecodable", "nul-in-path"])
def test_unreadable_file_exits_1(command, unreadable, tmp_path, capsys):
    path = tmp_path / "f"
    path.write_bytes(b"\xff\xfe")
    name = str(path) if unreadable == "undecodable" else "a\x00b"
    assert run([arg.format(file=name) for arg in command]) == 1
    assert "error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["family", "{file}"], ["eval", "{file}", "--at", "1"]], ids=["family", "eval"]
)
def test_zero_denominator_exits_1(command, tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1: 1/0\n")
    assert run([arg.format(file=path) for arg in command]) == 1
    assert "invalid rational" in capsys.readouterr().err


# Each command reads one file: the rational as theta of a threshold text,
# or as a coefficient of a weight map.
RATIONAL_COMMANDS = {
    "eval": (["eval", "{file}", "--at", "1"], "1: 1\ntheta: {text}\n"),
    "extend": (["extend", "0110", "{file}", "{file}"], "1: 1\ntheta: {text}\n"),
    "family": (["family", "{file}"], "1: {text}\n"),
}


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e3", "1E-2", "1_0", "\u0661", "1/2/3", "+-1", "inf", "1/", "/2"],
    ids=["decimal", "exponent", "negative-exponent", "underscore", "non-ascii-digit",
         "two-slashes", "two-signs", "inf", "no-denominator", "no-numerator"],
)
@pytest.mark.parametrize("command", sorted(RATIONAL_COMMANDS))
def test_rationals_outside_p_or_p_over_q_exit_1(command, text, tmp_path, capsys):
    argv, content = RATIONAL_COMMANDS[command]
    path = tmp_path / "r.txt"
    path.write_text(content.format(text=text), encoding="utf-8")
    assert run([arg.format(file=path) for arg in argv]) == 1
    assert "invalid rational" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(RATIONAL_COMMANDS))
def test_huge_exponent_exits_1_at_once(command, tmp_path, subprocess_env):
    # Fraction("1e100000000") would build a 10^(10^8) integer
    argv, content = RATIONAL_COMMANDS[command]
    path = tmp_path / "r.txt"
    path.write_text(content.format(text="1e100000000"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ptfkit.cli", *(arg.format(file=path) for arg in argv)],
        capture_output=True,
        text=True,
        cwd=TESTS_DIR,
        env=subprocess_env(),
        timeout=10,
    )
    assert proc.returncode == 1, proc.stderr
    assert "invalid rational" in proc.stderr


def test_over_long_integer_exits_1(tmp_path, capsys):
    # past the int-string digit limit, int() raises ValueError
    path = tmp_path / "r.txt"
    path.write_text("1: 1\ntheta: " + "9" * 5000 + "\n")
    assert run(["eval", str(path), "--at", "1"]) == 1
    assert "invalid rational" in capsys.readouterr().err


def test_parse_fraction_reads_p_and_p_over_q_only():
    assert parse_fraction(" -3/6 ") == Fraction(-1, 2)
    assert parse_fraction("+7") == 7
    for bad in ("0.5", "", 5, None):
        with pytest.raises(ParseError):
            parse_fraction(bad)


# Each form of a monomial index int() reads but the grammar does not, with
# the variable count int() would give it.
NON_ASCII_INDICES = {"non-ascii-digit": ("\u0661", 1), "underscore": ("1_0", 10)}


@pytest.mark.parametrize("form", ["ptf-text", "shared-weight-json"])
@pytest.mark.parametrize("index", sorted(NON_ASCII_INDICES))
def test_monomial_indices_outside_ascii_digits_exit_1(index, form, tmp_path, capsys):
    text, n = NON_ASCII_INDICES[index]
    path = tmp_path / "r.txt"
    if form == "ptf-text":
        path.write_text(f"{text}: 1\ntheta: 1\n", encoding="utf-8")
    else:
        path.write_text(json.dumps({"weights": {text: "1"}, "thresholds": ["1"]}), encoding="utf-8")
    assert run(["eval", str(path), "--at", "1" * n]) == 1
    assert "invalid monomial" in capsys.readouterr().err


def test_parse_monomial_reads_ascii_indices_joined_by_plus():
    assert parse_monomial(" 1 + 3 ") == (1, 3)
    assert parse_monomial("12") == (12,)
    for bad in ("", "+1", "1+", "1++2", "1 2", "-1", "1_0", "\u0661", "1.0"):
        with pytest.raises(ParseError):
            parse_monomial(bad)


# Two weights 1/d1 and 1/d2 whose level 1/d1 + 1/d2 has a denominator of
# 7,801 digits, past the int-string digit limit of the report's text.
HUGE_D1, HUGE_D2 = 10**3900 + 1, 10**3900 + 3


def test_family_past_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "w.weights"
    path.write_text(f"1: 1/{HUGE_D1}\n2: 1/{HUGE_D2}\n")
    assert run(["family", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "precondition violated" in err


def test_extend_past_the_digit_limit_exits_2(tmp_path, capsys):
    paths = []
    for name, d in (("a.ptf", HUGE_D1), ("b.ptf", HUGE_D2)):
        paths.append(tmp_path / name)
        paths[-1].write_text(f"1: 1/{HUGE_D1}\n2: 1/{HUGE_D2}\ntheta: 1/{d}\n")
    assert run(["extend", "0010", *map(str, paths)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "precondition violated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "0110"],
        ["hov", "0110"],
        ["reduce", "0110", "--at", "11"],
        ["extend", "0110", "fixtures/or2.ptf", "fixtures/and2.ptf"],
        ["asummable", "0110"],
        ["synth-mtf", "0110", "--k-max", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_table_argument_is_parsed_once(argv, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    calls = []

    def counting_parse_table(text):
        calls.append(text)
        return parse_table(text)

    monkeypatch.setattr(cli, "parse_table", counting_parse_table)
    assert run(argv) == 0
    assert calls == ["0110"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["synth-mtf", "0110"], ["reduce", "0110"], ["analyze", "0110", "--bogus"], ["analyze"]],
    ids=["missing-option", "missing-at", "unknown-option", "missing-table"],
)
def test_usage_errors_still_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_eval_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run(["eval", str(path), "--at", "1"]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["hov"], ["reduce", "--at", "1111111"]], ids=["hov", "reduce"])
def test_probes_above_the_cap_exit_2_before_any_lp(command, capsys, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran above the probe cap")

    monkeypatch.setattr(lp, "feasible", no_lp)
    assert run([command[0], "0" * 128, *command[1:]]) == 2
    assert "capped at n <= 6" in capsys.readouterr().err


def test_parse_error_exits_1(capsys):
    assert run(["analyze", "01x0"]) == 1
    assert "error" in capsys.readouterr().err


def test_family_rejects_theta_line(tmp_path, capsys):
    weights = tmp_path / "w.weights"
    weights.write_text("1: 1\n2: 1\ntheta: 1\n")
    assert run(["family", str(weights)]) == 1
    assert "theta" in capsys.readouterr().err


def test_asummable_above_the_search_cap_exits_2_at_once(capsys):
    # a 6-variable threshold table with 32 false points: no certificate, so
    # the search would enumerate C(41, 10) multisets at k = 10 alone
    started = time.perf_counter()
    assert run(["asummable", "0x0001017f017f7fff", "--m", "10"]) == 2
    assert time.perf_counter() - started < 1
    assert "precondition" in capsys.readouterr().err


def test_precondition_error_exits_2(capsys):
    # reducing a function of order <= 1 violates the reduction precondition
    assert run(["reduce", "0001", "--at", "11"]) == 2
    assert "precondition" in capsys.readouterr().err


def test_extend_mismatched_components_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ptf"
    bad.write_text("1: 2\n2: 1\ntheta: 1\n")
    good = tmp_path / "good.ptf"
    good.write_text("1: 1\n2: 1\ntheta: 2\n")
    assert run(["extend", "0110", str(bad), str(good)]) == 2
    capsys.readouterr()


def test_extend_at_sixteen_variables_exits_2(tmp_path, capsys):
    # the result would have 17 variables, one past the table cap
    paths = []
    for theta in (1, 2):
        paths.append(tmp_path / f"theta{theta}.ptf")
        paths[-1].write_text(f"1: 1\ntheta: {theta}\n")
    x1 = "".join(str(i & 1) for i in range(1 << 16))
    assert run(["--json", "extend", x1, *map(str, paths)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n < 16" in err


def _ptf_witness_text(witness: dict) -> str:
    lines = [f"{mon}: {coeff}" for mon, coeff in witness["coeffs"].items()]
    return "\n".join(lines) + f"\ntheta: {witness['theta']}\n"


def _eval_file_everywhere(path: Path, n: int, capsys) -> str:
    bits = []
    for X in all_vectors(n):
        code = run(["--json", "eval", str(path), "--at", "".join(map(str, X))])
        assert code == 0
        bits.append(str(json.loads(capsys.readouterr().out)["result"]["value"]))
    return "".join(bits)


def test_analyze_witness_round_trips_through_eval(capsys):
    for table in ("0110", "0111", "0001", "01101001"):
        f = parse_table(table)
        code, out = run_json(["analyze", table], capsys)
        assert code == 0
        witness = json.loads(out)["result"]["witness"]
        p = parse_ptf_text(_ptf_witness_text(witness), n=f.n)
        for X in all_vectors(f.n):
            assert eval_ptf(p, X) == evaluate(f, X)


def test_reduce_witnesses_round_trip_through_eval(tmp_path, capsys):
    code, out = run_json(["reduce", "0110", "--at", "11"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    for part in ("f1", "f2"):
        path = tmp_path / f"{part}.ptf"
        path.write_text(_ptf_witness_text(result[f"{part}_witness"]))
        assert _eval_file_everywhere(path, 2, capsys) == result[part]


def test_extend_witness_round_trips_through_eval(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    code, out = run_json(
        ["extend", "0110", "fixtures/or2.ptf", "fixtures/and2.ptf"], capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(result["witness"]))
    assert _eval_file_everywhere(path, 3, capsys) == result["f_next"]


def test_synth_rep_round_trips_through_eval(tmp_path, capsys):
    code, out = run_json(["synth-mtf", "01101001", "--k-max", "3"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(result["rep"]))
    assert _eval_file_everywhere(path, 3, capsys) == "01101001"


def test_json_reports_have_no_timing_field(capsys):
    _, out = run_json(["analyze", "0110"], capsys)
    assert "elapsed_ms" not in json.loads(out)


def test_human_report_includes_timing(capsys):
    assert run(["analyze", "0110"]) == 0
    out = capsys.readouterr().out
    assert "elapsed_ms" in out


@pytest.mark.parametrize("args,golden", GOLDEN_CASES)
def test_golden_reports_byte_stable(args, golden, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    code, first = run_json(args, capsys)
    assert code == 0
    code, second = run_json(args, capsys)
    assert code == 0
    assert first == second
    assert first == (TESTS_DIR / "golden" / golden).read_text(encoding="utf-8")


def test_module_entry_point(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "ptfkit.cli", "--json", "analyze", "0110"],
        capture_output=True,
        text=True,
        cwd=TESTS_DIR,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["order"] == 2


def test_closed_stdout_exits_without_traceback(subprocess_env):
    # as in ``ptfkit --json analyze 0110 | head -1`` when the reader exits first
    with subprocess.Popen(
        [sys.executable, "-m", "ptfkit.cli", "--json", "analyze", "0110"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=TESTS_DIR,
        env=subprocess_env(),
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in stderr
    assert stderr == ""
