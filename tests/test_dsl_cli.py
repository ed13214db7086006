"""The input language and the command-line driver."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedk import cli
from gradedk.cli import EvalError, Session, run_text
from gradedk.dsl import Call, Command, Decl, ParseError, Script, parse, unparse
from gradedk.fields import GF, parse_field


def test_parse_smoke():
    script = parse("A = matrix(Q, [0,1,2,2,3])\nk0(A)\n")
    assert len(script.statements) == 2
    assert isinstance(script.statements[0], Decl)
    assert isinstance(script.statements[1], Command)
    assert script.statements[1].call.name == "k0"


def test_parse_nested_constructor():
    script = parse("B = poly(matrix(Q,[0,0]), deg=[1])")
    (decl,) = script.statements
    inner = decl.expr
    assert isinstance(inner, Call) and inner.name == "poly"
    assert isinstance(inner.args[0], Call) and inner.args[0].name == "matrix"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("A = matrix(Q, [0,1)\n")
    assert err.value.line == 1


def test_comments_and_multiline_lists():
    script = parse("# header\nA = free(B, shifts=[[0],\n  [1]])  # trailing\n")
    assert len(script.statements) == 1


def test_unknown_command_rejected():
    with pytest.raises(ParseError):
        parse("explode(A)")


def test_roundtrip_ast():
    text = (
        "A = matrix(Q, [0, 1, 2, 2, 3])\n"
        "B = poly(groupalg(Q, Z2), deg=[1, 1])\n"
        "P = proj(A, shifts=[[0], [1]], idem=[[[1, 0, 0, 0, 0, 0, 0], 0], [0, 0]])\n"
        "k0(A)\n"
        "lemma(A, Z^2)\n"
        "swan(P)\n"
    )
    ast1 = parse(text)
    printed = unparse(ast1)
    ast2 = parse(printed)
    assert ast1 == ast2
    assert unparse(ast2) == printed


def test_undefined_name_error():
    with pytest.raises(EvalError) as err:
        run_text("k0(C)\n")
    assert "undefined name 'C'" in str(err.value)


def test_arity_error():
    with pytest.raises(EvalError):
        run_text("A = matrix(Q)\nk0(A)\n")


@pytest.mark.parametrize(
    "script,message",
    [
        ("k0()", "k0 missing argument 1 (line 1)"),
        ("A = tensor(matrix(Q,[0]))", "tensor missing argument 2 (line 1)"),
    ],
)
def test_missing_argument_is_counted_from_one(script, message):
    with pytest.raises(EvalError, match=re.escape(message)):
        run_text(script + "\n")


def test_field_override():
    session = Session(field_override=GF(2))
    script = parse("A = matrix(Q, [0,1,2,2,3])\nk0(A)\n")
    reports = session.run_script(script)
    assert reports[0]["verdict"] == "pass"
    assert "F2" in reports[0]["data"]["k0"]["algebra"]


def test_reports_carry_seed_and_version():
    reports = run_text("k0(matrix(Q, [0]))\n", seed=9)
    assert reports[0]["seed"] == 9
    assert reports[0]["version"]
    assert reports[0]["command"] == "k0(matrix(Q, [0]))"


def test_json_determinism():
    text = "A = matrix(Q, [0,1,2,2,3])\nk0(A)\ndade(regrade_mod(matrix(Q,[0,1]), 2))\n"
    a = json.dumps(run_text(text, seed=3), sort_keys=True)
    b = json.dumps(run_text(text, seed=3), sort_keys=True)
    assert a == b


def test_proj_command_and_corrupted_idempotent():
    # a projector over M2(Q)(0,1) itself, which is not N-supported
    whole_text = (
        "A = matrix(Q, [0, 1])\n"
        "P = proj(A, shifts=[[0]], idem=[[[1, 0]]])\n"
        "swan(P)\n"
    )
    reports = run_text(whole_text)
    assert reports[-1]["verdict"] == "hypothesis-not-met"
    # a valid projector over the positive part, then a corrupted one
    ok_text = (
        "T = positive_part(matrix(Q, [0, 1]))\n"
        "P = proj(T, shifts=[[0]], idem=[[[1, 0]]])\n"
        "swan(P)\n"
    )
    reports = run_text(ok_text)
    assert reports[-1]["verdict"] == "pass"
    bad_text = (
        "T = positive_part(matrix(Q, [0, 1]))\n"
        "P = proj(T, shifts=[[0]], idem=[[[2, 0]]])\n"
        "swan(P)\n"
    )
    reports = run_text(bad_text)
    assert reports[0]["verdict"] == "fail"
    assert "idempotent" in reports[0]["hypothesis_checks"][0]["detail"]


def test_exit_codes(tmp_path):
    def run(text, *args):
        return cli.main([str(_write(tmp_path, text)), *args])

    assert run("k0(matrix(Q, [0,1,2,2,3]))\n") == 0
    # hypothesis-not-met is a successful determination, not a failure
    assert run("dade(matrix(Q, [0,1,2,2,3]))\n") == 0
    bad = "T = positive_part(matrix(Q, [0,1]))\nP = proj(T, shifts=[[0]], idem=[[[2, 0]]])\nswan(P)\n"
    assert run(bad) == 1
    assert cli.main([str(tmp_path / "missing.gk")]) == 2
    assert run("k0(Undeclared)\n") == 2
    assert run("A = matrix(Q, [0,1)\n") == 2
    assert run("k0(matrix(Q, [0]))\n", "--field", "nonsense") == 2


@pytest.mark.parametrize("bound", ["-1", "-5"])
def test_negative_degree_bound_is_refused(tmp_path, capsys, bound):
    # a negative margin can empty every free range of a window, and the
    # per-degree checks of swan, filtration and dade would then pass on
    # no degree at all
    script = str(_write(tmp_path, "swan(free(matrix(Q, [0,1]), shifts=[[0]]))\n"))
    assert cli.main([script, "--degree-bound", bound]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: --degree-bound must be >= 0, got {bound}"]
    assert cli.main([script, "--degree-bound", "0"]) == 0


@pytest.mark.parametrize("spec", ["fp:0", "F0", "gf0", "GF0"])
def test_field_of_characteristic_zero_is_refused(tmp_path, capsys, spec):
    # GF(0) would be the rationals under a prime field's name
    message = f"field spec {spec!r} has characteristic 0 (use q for the rationals)"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_field(spec)
    script = str(_write(tmp_path, "k0(matrix(Q, [0]))\n"))
    assert cli.main([script, "--field", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    with pytest.raises(ValueError, match="field characteristic 0 is not prime"):
        GF(0)


@pytest.mark.parametrize("command", ["k0", "dade"])
def test_unsupported_algebra_is_a_user_error(tmp_path, command):
    f = _write(tmp_path, f"{command}(tensor(matrix(Q,[0,1]), groupalg(Q,Z)))\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gradedk.cli", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {command}: ")


@pytest.mark.parametrize(
    "script",
    [
        "k0(matrix(Q, [1/0]))",
        "P = proj(matrix(F2,[0]), shifts=[0], idem=[[[1/2]]])",
        "k0(regrade_mod(matrix(Q,[0,1]), 2/0))",
        "k0(trivial_extension(matrix(Q,[0,1]), -1))",
        "k0(trivial_extension(matrix(Q,[0,1]), 1/2))",
        "lemma(matrix(Q,[0,1]), -2)",
        "k0(matrix(Q, [1/2]))",
        "k0(matrix(Q, [1/-2]))",
        "k0(matrix(Q, [0, 1], group=Z^2))",
        "k0(matrix(Q, [2/4]))",
        # a fraction where an integer is needed is refused, not truncated
        "A = matrix(Q, [[1/-2], [3/2]])",
        "basis(matrix(Q,[0,1]), deg=[1/2])",
        "k0(poly(matrix(Q,[0]), deg=[3/2]))",
        "G = group(rank=3/2)",
        "G = group(rank=1, moduli=[5/2])",
        "P = random_proj(positive_part(matrix(Q,[0,1])), shifts=[[0],[1]], seed=3/2)",
    ],
)
def test_bad_literal_is_a_user_error(tmp_path, capsys, script):
    assert cli.main([str(_write(tmp_path, script + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "line 1" in lines[0]
    # a value is printed as the script wrote it (1/2, not Fraction(1, 2))
    assert "Fraction(" not in lines[0]
    # a fraction is not normalized: 1/-2 is not -1/2, and 2/4 is not 1/2
    whole = {
        "k0(matrix(Q, [1/-2]))": "error: matrix: bad degree 1/-2 (line 1)",
        "k0(matrix(Q, [2/4]))": "error: matrix: bad degree 2/4 (line 1)",
        "A = matrix(Q, [[1/-2], [3/2]])":
            "error: matrix: degree coordinates must be integers, got 1/-2 (line 1)",
        "basis(matrix(Q,[0,1]), deg=[1/2])":
            "error: basis: degree coordinates must be integers, got 1/2 (line 1)",
        "k0(poly(matrix(Q,[0]), deg=[3/2]))":
            "error: poly: degree coordinates must be integers, got 3/2 (line 1)",
        "G = group(rank=3/2)": "error: group: free rank must be an integer >= 0, got 3/2 (line 1)",
        "G = group(rank=1, moduli=[5/2])":
            "error: group: torsion moduli must be integers, got 5/2 (line 1)",
        "P = random_proj(positive_part(matrix(Q,[0,1])), shifts=[[0],[1]], seed=3/2)":
            "error: random_proj: seed must be an integer, got 3/2 (line 1)",
    }
    if script in whole:
        assert lines[0] == whole[script]


@pytest.mark.parametrize(
    "script,literal",
    [
        # each whole fraction equals a degree interned on its group before
        ("basis(matrix(Q,[0,1]), deg=[2/2])", "2/2"),
        ("A = matrix(Q,[0,1])\nbasis(A, deg=2/2)", "2/2"),
        ("P = free(matrix(Q,[0,1]), [[2/2]])", "2/2"),
        ("G = group(rank=1)\nA = matrix(Q, [[0],[2]], group=G)\nB = matrix(Q, [[4/2]], group=G)", "4/2"),
        ("A = positive_part(matrix(Q,[0,1]))\nP = random_proj(A, [[0],[2/2]])", "2/2"),
        ("A = matrix(Q,[0,1])\nP = proj(A, shifts=[[0],[2/2]], idem=[[0,0],[0,0]])", "2/2"),
        ("A = matrix(Q,[0])\nB = poly(A, deg=[1])\nC = poly(A, deg=[2/2])", "2/2"),
        ("A = matrix(Q,[0])\nB = poly(A, deg=[1,1])\nC = poly(A, deg=[1,3/3])", "3/3"),
    ],
)
def test_fraction_degree_is_refused_whatever_was_interned(tmp_path, capsys, script, literal):
    assert cli.main([str(_write(tmp_path, script + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and literal in line


def test_demo_script_prints_its_golden_reports(capsys):
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    assert cli.main([str(perfbench / "demo.gk"), "--json"]) == 0
    out, _err = capsys.readouterr()
    assert out == (perfbench / "demo.golden.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("field", ["fp:2", "fp:7"])
def test_demo_script_passes_over_a_prime_field(capsys, field):
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    assert cli.main([str(perfbench / "demo.gk"), "--json", "--field", field]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 9
    assert [r["verdict"] for r in reports] == ["pass"] * 9
    assert all(c["ok"] for r in reports for c in r["hypothesis_checks"])


@pytest.mark.parametrize(
    "script",
    [
        "k0(poly(matrix(Q,[0]), deg=[0]))",
        "k0(zero_part(forget(matrix(Q,[0,1]))))",
        "basis(matrix(Q,[0,1]), deg=[0,0])",
        "A = zero_part(forget(matrix(Q,[0,1])))\nk0(A)",
        "basis(matrix(Q,[0,1]), deg=Q)",
    ],
)
def test_malformed_algebra_or_degree_is_a_user_error(tmp_path, capsys, script):
    assert cli.main([str(_write(tmp_path, script + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "line 1" in lines[0]


def test_algebra_error_from_a_computation_is_a_failure(tmp_path, monkeypatch):
    def broken(A):
        raise cli.AlgebraError("support is not finite")

    monkeypatch.setattr(cli.kt, "k0", broken)
    reports = run_text("k0(matrix(Q, [0, 1]))\n")
    assert reports[0]["verdict"] == "fail"
    assert "AlgebraError" in reports[0]["hypothesis_checks"][0]["detail"]
    assert cli.main([str(_write(tmp_path, "k0(matrix(Q, [0, 1]))\n"))]) == 1


@pytest.mark.parametrize(
    "by_position,by_keyword,both",
    [
        (
            "k0(trivial_extension(matrix(Q,[0,1]), 2))",
            "k0(trivial_extension(matrix(Q,[0,1]), k=2))",
            "k0(trivial_extension(matrix(Q,[0,1]), 2, k=3))",
        ),
        (
            "k0(poly(matrix(Q,[0]), [1]))",
            "k0(poly(matrix(Q,[0]), deg=[1]))",
            "k0(poly(matrix(Q,[0]), [1], deg=[2]))",
        ),
        (
            "swan(free(positive_part(matrix(Q,[0,1])), [[0],[1]]))",
            "swan(free(positive_part(matrix(Q,[0,1])), shifts=[[0],[1]]))",
            "swan(free(positive_part(matrix(Q,[0,1])), [[0],[1]], shifts=[[0]]))",
        ),
        (
            "filtration(random_proj(positive_part(matrix(Q,[0,1])), [[0],[1]], seed=3))",
            "filtration(random_proj(positive_part(matrix(Q,[0,1])), shifts=[[0],[1]], seed=3))",
            "filtration(random_proj(positive_part(matrix(Q,[0,1])), [[0],[1]], shifts=[[0]], seed=3))",
        ),
        (
            "basis(matrix(Q,[0,1]), [1])",
            "basis(matrix(Q,[0,1]), deg=[1])",
            "basis(matrix(Q,[0,1]), [1], deg=[-1])",
        ),
    ],
    ids=["trivial_extension", "poly", "free", "random_proj", "basis"],
)
def test_argument_given_both_ways_is_a_user_error(tmp_path, capsys, by_position, by_keyword, both):
    # one lookup: position or keyword read alike, never both at once
    strip = lambda reports: [{k: v for k, v in r.items() if k != "command"} for r in reports]
    assert strip(run_text(by_position + "\n")) == strip(run_text(by_keyword + "\n"))
    with pytest.raises(EvalError, match="given both by position and by keyword"):
        run_text(both + "\n")
    assert cli.main([str(_write(tmp_path, both + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "script,keyword",
    [
        ("k0(trivial_extension(matrix(Q,[0,1]), kk=3))", "kk"),
        ("k0(matrix(Q,[0,1], grp=Z))", "grp"),
        # positions that no lookup reads, refused without being evaluated
        ("A = matrix(Q,[0])\nk0(A, Y^2)", "Y^2"),
        ("A = matrix(Q,[0])\nk0(matrix(Q,[0]), A)", "A"),
        ("A = matrix(Q,[0])\nbasis(A, 0, 1)", "1"),
        ("G = group(1, [2])", "1"),
    ],
)
def test_unread_keyword_is_a_user_error(tmp_path, capsys, script, keyword):
    # a misspelt keyword or an extra argument is refused, not replaced by
    # the default or dropped; the error names the line of its call
    unread = (
        f"unknown keyword argument {keyword}"
        if f"{keyword}=" in script
        else f"unexpected argument {keyword}"
    )
    line = script.count("\n") + 1
    with pytest.raises(EvalError, match=re.escape(f"{unread} (line {line})")):
        run_text(script + "\n")
    assert cli.main([str(_write(tmp_path, script + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and keyword in lines[0] and f"(line {line})" in lines[0]


def test_error_in_a_declaration_names_its_line(tmp_path, capsys):
    # a declaration whose value is not a call names its line too
    script = "A = matrix(Q,[0])\nG = Y^2\nk0(A)\n"
    with pytest.raises(EvalError, match=re.escape("unknown group literal Y^2 (line 2)")):
        run_text(script)
    assert cli.main([str(_write(tmp_path, script))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: unknown group literal Y^2 (line 2)"]


@pytest.mark.parametrize(
    "literal,message",
    [
        ("F4", "field characteristic 4 is not prime"),
        ("F0", "field characteristic 0 is not prime"),
        ("Z1", "torsion moduli must be integers >= 2"),
        ("Z0", "torsion moduli must be integers >= 2"),
    ],
)
def test_bad_literal_in_a_declaration_names_its_line_and_column(
    tmp_path, capsys, literal, message
):
    # a field or group literal that cannot be built is malformed input,
    # inside a call or not, and not a failed verification
    script = f"A = matrix(Q,[0])\nK = {literal}\nk0(A)\n"
    assert cli.main([str(_write(tmp_path, script))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {literal}: {message} (line 2, column 5)"]


@pytest.mark.parametrize(
    "name,call", [("forget", "forget(X)"), ("regrade_mod", "regrade_mod(X, 2)")]
)
def test_regrading_without_finite_support_is_a_user_error(tmp_path, capsys, name, call):
    script = f"X = poly(matrix(Q,[0]),deg=[1])\nk0({call})\n"
    assert cli.main([str(_write(tmp_path, script))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {name}: regrading needs a finite-support parent (line 2)"
    ]


def test_zero_extension_count_is_valid(tmp_path):
    script = "k0(trivial_extension(matrix(Q,[0,1]), 0))\nlemma(matrix(Q,[0,1]), 0)\n"
    assert cli.main([str(_write(tmp_path, script))]) == 0


def test_random_proj_without_shifts_is_the_zero_module(tmp_path, capsys):
    # swan of it passes exactly as swan of the free module of rank 0 does
    strip = lambda reports: [{k: v for k, v in r.items() if k != "command"} for r in reports]
    T = "T = positive_part(matrix(Q,[0,1]))\n"
    random_proj = T + "swan(random_proj(T, shifts=[]))\n"
    free = T + "swan(free(T, shifts=[]))\n"
    reports = run_text(random_proj)
    assert reports[0]["verdict"] == "pass"
    assert strip(reports) == strip(run_text(free))
    assert cli.main([str(_write(tmp_path, random_proj))]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "[0] swan(random_proj(T, shifts=[])) -> PASS"


def test_identity_component_constructor(tmp_path, capsys):
    script = "k0(identity_component(matrix(Q,[0,1])))\n"
    assert cli.main([str(_write(tmp_path, script))]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "      k0: Z^2"
    script = "A = matrix(Q,[0])\nk0(identity_component(3))\n"
    assert cli.main([str(_write(tmp_path, script))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: identity_component: expected an algebra, got 3 (line 2)"]


def test_zero_entry_of_proj_is_an_absent_entry(tmp_path, capsys):
    T = "T = positive_part(matrix(Q,[0,1]))\n"
    script = T + "P = proj(T, shifts=[[0],[0]], idem=[[[1,0],0],[0,[0,1]]])\nswan(P)\n"
    session = Session()
    assert session.run_script(parse(script))[-1]["verdict"] == "pass"
    P = session.env["P"]
    assert P.entries[0][1] is None and P.entries[1][0] is None
    assert cli.main([str(_write(tmp_path, script))]) == 0
    capsys.readouterr()
    script = T + "P = proj(T, shifts=[[0],[0]], idem=[[[1,0],1],[0,[0,1]]])\n"
    assert cli.main([str(_write(tmp_path, script))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: proj: entry (0,1) must be 0 or a coefficient list (line 2)"
    ]


def test_text_report_of_basis_and_filtration(tmp_path, capsys):
    script = (
        "basis(matrix(Q,[0,1]), deg=[1])\n"
        "filtration(free(positive_part(matrix(Q,[0,1])), [[0],[1]]))\n"
    )
    assert cli.main([str(_write(tmp_path, script))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["[0] basis(matrix(Q, [0, 1]), deg=[1]) -> PASS", "      basis: ['(1, 0)']"]
    assert lines[2] == "[1] filtration(free(positive_part(matrix(Q, [0, 1])), [[0], [1]])) -> PASS"
    assert lines[-1] == "      jumps: [-1, 0] bound: 2"


def test_negative_denominator_literal(tmp_path):
    # -1/-1 is one literal, read as 1, so the idempotent is the identity
    script = "P = proj(matrix(Q,[0]), shifts=[[0]], idem=[[[-1/-1]]])\nswan(P)\n"
    assert "idem=[[[-1/-1]]]" in unparse(parse(script))
    assert cli.main([str(_write(tmp_path, script))]) == 0


@pytest.mark.parametrize(
    "script,message,line,col",
    [
        ("A = matrix(Q,[0])\n[1]", "statement must start with a name, found '['", 2, 1),
        ("A = matrix(Q,[0])\nA", "expected a command call", 2, 1),
        ("k0(matrix(Q,[0])) k0(A)", "unexpected 'k0' after statement", 1, 19),
        ("k0(A, k=1, 2)", "positional argument after keyword argument", 1, 12),
        ("A = matrix(Q,[0])\nk0(A) $", "unexpected character '$'", 2, 7),
    ],
)
def test_parse_error_names_its_line_and_column(tmp_path, capsys, script, message, line, col):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse(script + "\n")
    assert (exc.value.line, exc.value.col) == (line, col)
    assert cli.main([str(_write(tmp_path, script + "\n"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message} (line {line}, column {col})"]


def _write(tmp_path, text):
    f = tmp_path / "script.gk"
    f.write_text(text)
    return f


def test_cli_json_output(tmp_path):
    f = _write(tmp_path, "k0(matrix(Q, [0,1,2,2,3]))\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gradedk.cli", str(f), "--json", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert reports[0]["verdict"] == "pass"
    assert reports[0]["seed"] == 2
    proc2 = subprocess.run(
        [sys.executable, "-m", "gradedk.cli", str(f), "--json", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == proc2.stdout  # byte-identical reports


def test_cli_stdin(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gradedk.cli", "-"],
        input="basis(matrix(Q, [0,1]), deg=[1])\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "basis" in proc.stdout


def test_command_surface_matches_interface():
    text = (
        "A = matrix(Q, [0,1,2,2,3])\n"
        "B = groupalg(Q, Z2)\n"
        "T = poly(B, deg=[1,1])\n"
        "k0(A)\n"
        "dade(B)\n"
        "quillen(poly(matrix(Q,[0]), deg=[1]))\n"
        "theorem1(T)\n"
        "corollary(poly(poly(matrix(Q,[0]), deg=[1]), deg=[1,0]))\n"
        "lemma(B, Z)\n"
        "P = random_proj(T, shifts=[[0,0],[1,1]], seed=4)\n"
        "swan(P)\n"
        "filtration(P)\n"
    )
    reports = run_text(text, seed=1)
    verdicts = {r["command"].split("(")[0]: r["verdict"] for r in reports}
    assert set(verdicts) == {
        "k0",
        "dade",
        "quillen",
        "theorem1",
        "corollary",
        "lemma",
        "swan",
        "filtration",
    }
    assert all(v == "pass" for v in verdicts.values())
    for r in reports:
        for key in ("hypothesis_checks", "lhs_basis", "rhs_basis", "correspondence", "verdict", "seed", "version"):
            assert key in r


# -- fuzz: scripts from the constructor grammar ---------------------------------

_FIELDS = st.sampled_from(["Q", "F2", "F3"])
_SHIFTS = st.sampled_from(["-2", "-1", "0", "1", "2", "1/0", "2/0", "1/2", "-1/2"])
_COUNTS = st.sampled_from(["-2", "-1", "0", "1", "2", "1/2", "1/0", "Z", "Z^2"])
_BASES = st.one_of(
    st.builds(
        lambda F, s: f"matrix({F}, [{', '.join(s)}])",
        _FIELDS,
        st.lists(_SHIFTS, min_size=1, max_size=3),
    ),
    st.builds(
        lambda F, G: f"groupalg({F}, {G})", _FIELDS, st.sampled_from(["Z", "Z2", "Z3"])
    ),
    st.builds(lambda F, d: f"poly(matrix({F}, [0]), deg=[{d}])", _FIELDS, _SHIFTS),
    st.builds(
        lambda F, G, a, b: f"poly(groupalg({F}, {G}), deg=[{a}, {b}])",
        _FIELDS,
        st.sampled_from(["Z2", "Z3"]),
        _SHIFTS,
        _SHIFTS,
    ),
)


def _derived(inner):
    return st.one_of(
        inner,
        st.builds(
            lambda f, X: f"{f}({X})",
            st.sampled_from(["zero_part", "positive_part", "identity_component", "forget"]),
            inner,
        ),
        st.builds(lambda X, k: f"trivial_extension({X}, {k})", inner, _COUNTS),
        st.builds(
            lambda X, n: f"regrade_mod({X}, {n})",
            inner,
            st.sampled_from(["2", "3", "0", "1/2", "2/0"]),
        ),
    )


_ALGEBRAS = _derived(_derived(_BASES))
_COMMANDS = st.one_of(
    st.builds(
        lambda c, X: f"{c}({X})",
        st.sampled_from(["k0", "dade", "quillen", "theorem1", "corollary"]),
        _ALGEBRAS,
    ),
    st.builds(lambda X, d: f"basis({X}, deg=[{d}])", _ALGEBRAS, _SHIFTS),
    st.builds(lambda X, k: f"lemma({X}, {k})", _ALGEBRAS, _COUNTS),
    st.builds(
        lambda c, X, a, b: f"{c}(free({X}, shifts=[[{a}], [{b}]]))",
        st.sampled_from(["swan", "filtration"]),
        _ALGEBRAS,
        _SHIFTS,
        _SHIFTS,
    ),
    st.builds(
        lambda F, c: f"P = proj(matrix({F}, [0]), shifts=[0], idem=[[[{c}]]])\nk0(P)",
        _FIELDS,
        st.sampled_from(["0", "1", "2", "1/2", "1/3", "1/0"]),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@example("k0(matrix(Q, [1/0]))\n")
@example("P = proj(matrix(F2,[0]), shifts=[0], idem=[[[1/2]]])\n")
@example("k0(regrade_mod(matrix(Q,[0,1]), 2/0))\n")
@example("k0(trivial_extension(matrix(Q,[0,1]), -1))\n")
@example("k0(trivial_extension(matrix(Q,[0,1]), 1/2))\n")
@example("lemma(matrix(Q,[0,1]), -2)\n")
@given(st.lists(_COMMANDS, min_size=1, max_size=2).map(lambda cs: "\n".join(cs) + "\n"))
def test_generated_scripts_exit_cleanly(script):
    """Every script ends in exit 0, 1 or 2, never in an escaped exception;
    a user error (exit 2) prints one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "script.gk")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([path, "--json"])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
