"""End-to-end command-line behavior: output text, formats, exit codes."""

import doctest
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

import jkn.cli
from jkn import (
    Kind,
    OrbitKind,
    SystemParams,
    beta_vector,
    degree,
    enumerate_orbits,
    fundamental_weights,
    gamma,
    simple_root,
)
from jkn.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def readme_transcripts():
    """(argv, stdout) for every `$ jkn` line in README's console blocks.

    The output is every line up to the next blank line or prompt.  Blocks
    with an elided part are skipped.
    """
    cases = []
    for block in re.findall(r"```console\n(.*?)```", README.read_text("utf-8"), re.S):
        if "…" in block:
            continue
        for command, output in re.findall(
            r"^\$ jkn (.*)\n((?:[^$\n].*\n)*)", block, re.M
        ):
            cases.append(pytest.param(shlex.split(command), output, id=command))
    return cases


def test_readme_quick_start():
    """The examples of README's pycon blocks pass as doctests.  Each block is
    extracted first: doctest on the whole file reads a closing fence as
    expected output."""
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    blocks = re.findall(r"```pycon\n(.*?)```", README.read_text("utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README pycon {i}", str(README), 0))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv, expected", readme_transcripts())
def test_readme_transcript(capsys, argv, expected):
    main(argv)
    assert capsys.readouterr().out == expected


def test_check_real(capsys):
    code, out = run(capsys, "check", "3", "8", "2,1,1,1,1,1,1,1")
    assert code == 0
    assert "real positive, degree 3" in out
    assert "reached -beta" in out


def test_check_almost(capsys):
    code, out = run(capsys, "check", "4", "10", "3,3,3,1,1,1,1,1,1,1")
    assert code == 1
    assert "almost real" in out


# The four ends of a degree >= 1 input: "k n x", the kinds of x and of -x,
# the json terminal label, the plain terminal line, and the exit code of
# both x and -x
FOUR_ENDS = [
    (
        "3 8 2,1,1,1,1,1,1,1",
        ("RealPositive", "RealNegative"),
        "real",
        "reached -beta",
        0,
    ),
    (
        "4 10 3,3,3,1,1,1,1,1,1,1",
        ("AlmostRealPositive", "AlmostRealNegative"),
        "almost",
        "range violation",
        1,
    ),
    (
        "3 8 3,0,0,0,0,0,0,0",
        ("NotRealRangeViolation", "NotRealRangeViolation"),
        "range",
        "range violation before any step",
        2,
    ),
    ("3 8 2,2,2,0,0,0,0,0", ("NotRealQ", "NotRealQ"), "q", "q violation", 2),
]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("case", FOUR_ENDS, ids=[c[2] for c in FOUR_ENDS])
def test_check_names_each_end(capsys, case, negated):
    knx, kinds, label, line, code = case
    k, n, x = knx.split()
    if negated:
        x = ",".join(str(-int(c)) for c in x.split(","))
    kind = kinds[negated]
    assert main(["check", k, n, x, "--format", "json"]) == code
    blob = json.loads(capsys.readouterr().out)
    assert (blob["kind"], blob["trace"]["terminal"]) == (kind, label)
    code_plain, out = run(capsys, "check", k, n, x)
    assert code_plain == code
    assert out.splitlines()[-1] == f"  terminal: {line}"


# One input of each Kind, "k n x", and the exit code README documents for it:
# 0 real (degree 0 included), 1 almost real, 2 anything else
VERDICTS = {
    Kind.REAL_POSITIVE: ("3 8 2,1,1,1,1,1,1,1", 0),
    Kind.REAL_NEGATIVE: ("3 8 -2,-1,-1,-1,-1,-1,-1,-1", 0),
    Kind.DEGREE_ZERO_REAL: ("3 8 1,-1,0,0,0,0,0,0", 0),
    Kind.ALMOST_REAL_POSITIVE: ("4 10 3,3,3,1,1,1,1,1,1,1", 1),
    Kind.ALMOST_REAL_NEGATIVE: ("4 10 -3,-3,-3,-1,-1,-1,-1,-1,-1,-1", 1),
    Kind.NOT_REAL_Q: ("3 8 2,2,2,0,0,0,0,0", 2),
    Kind.NOT_REAL_RANGE: ("3 8 3,0,0,0,0,0,0,0", 2),
    Kind.NOT_IN_LATTICE: ("3 8 1,1,0,0,0,0,0,0", 2),
    Kind.ZERO: ("3 8 0,0,0,0,0,0,0,0", 2),
}


def test_verdict_tables_cover_every_kind():
    """Every Kind has a check message and a documented exit code, so a new
    Kind cannot reach the CLI without both."""
    assert set(jkn.cli._KIND_MESSAGES) == set(Kind) == set(VERDICTS)


@pytest.mark.parametrize("kind", list(VERDICTS), ids=lambda kind: kind.value)
def test_check_exit_code_of_each_kind(capsys, kind):
    knx, code = VERDICTS[kind]
    argv = ["check", *knx.split()]
    assert main([*argv, "--format", "json"]) == code
    assert json.loads(capsys.readouterr().out)["kind"] == kind.value
    assert run(capsys, *argv)[0] == code


def test_check_not_in_lattice(capsys):
    code, out = run(capsys, "check", "3", "8", "1,1,1,1,1,1,1,1")
    assert code == 2
    assert "not in root lattice" in out


def test_check_batch_exit_is_worst(capsys):
    code, out = run(
        capsys, "check", "3", "8", "2,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1"
    )
    assert code == 2
    assert "real positive, degree 3" in out
    assert "not in root lattice" in out


def test_check_batch_from_file(capsys, tmp_path):
    batch = tmp_path / "vectors.txt"
    batch.write_text("2,1,1,1,1,1,1,1\n1,1,1,1,1,1,0,0\n")
    code, out = run(capsys, "check", "3", "8", f"@{batch}")
    assert code == 0
    assert out.count("real") >= 2


def test_check_batch_file_skips_blank_lines(capsys, tmp_path):
    vectors = ["-1,-1,-1,0,0,0,0,0", "2,1,1,1,1,1,1,1", "1,1,1,1,1,1,0,0"]
    plain, blank = tmp_path / "plain.txt", tmp_path / "blank.txt"
    plain.write_text("\n".join(vectors) + "\n")
    blank.write_text(f"{vectors[0]}\n\n{vectors[1]}\n  \t\n{vectors[2]}\n\n")
    expected = run(capsys, "check", "3", "8", f"@{plain}")
    assert expected[0] == 0 and expected[1].count("real") == 3
    assert run(capsys, "check", "3", "8", f"@{blank}") == expected


def test_check_vector_with_leading_minus(capsys):
    code, out = run(capsys, "check", "3", "8", "-1,-1,-1,0,0,0,0,0")
    assert code == 0
    assert "real negative, degree -1" in out


def test_check_batch_file_line_with_leading_minus(capsys, tmp_path):
    batch = tmp_path / "vectors.txt"
    batch.write_text("-1,-1,-1,0,0,0,0,0\n2,1,1,1,1,1,1,1\n")
    code, out = run(capsys, "check", "3", "8", f"@{batch}")
    assert code == 0
    assert "real negative, degree -1" in out
    assert "real positive, degree 3" in out


def test_check_json(capsys):
    code, out = run(
        capsys, "check", "3", "8", "2,1,1,1,1,1,1,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "RealPositive"
    assert data["degree"] == 3
    assert data["trace"]["terminal"] == "real"
    assert len(data["trace"]["steps"]) == 3


def test_usage_errors_exit_3(capsys):
    assert main(["check", "3", "8", "2,1,x"]) == 3
    assert main(["check", "3", "8", "2,1,1"]) == 3
    assert main(["tables", "3", "9", "--max", "0"]) == 3
    assert main(["nonsense"]) == 3
    assert main([]) == 3


COMMANDS = list(jkn.cli._COMMANDS)


def _subparser(parser, name):
    (subs,) = parser._subparsers._group_actions
    return subs.choices[name]


def _outcome(parser, argv):
    """The parsed namespace, or the message of the refusal."""
    try:
        return vars(parser.parse_args(argv))
    except jkn.cli.ContractError as exc:
        return str(exc)


@pytest.mark.parametrize("name", COMMANDS)
def test_one_subcommand_parser_reads_as_the_full_one(capsys, name):
    """A command's parser is built alone, and its help, usage and refusal
    of missing arguments are the full parser's, through `main` too."""
    full, one = jkn.cli._build_parser(), jkn.cli._build_parser([name])
    assert list(full._subparsers._group_actions[0].choices) == COMMANDS
    assert list(one._subparsers._group_actions[0].choices) == [name]
    alone, within = _subparser(one, name), _subparser(full, name)
    assert alone.format_help() == within.format_help()
    assert alone.format_usage() == within.format_usage()
    assert _outcome(one, [name]) == _outcome(full, [name])
    assert _outcome(one, [name, "--format", "x"]) == _outcome(full, [name, "--format", "x"])
    with pytest.raises(SystemExit) as exit:
        main([name, "-h"])
    assert exit.value.code == 0
    assert capsys.readouterr() == (within.format_help(), "")


@pytest.mark.parametrize("argv", [[], ["-h"], ["nosuch", "3", "8"], ["@vectors.txt"]])
def test_parser_without_a_command_first_has_every_subcommand(argv):
    choices = jkn.cli._build_parser(argv)._subparsers._group_actions[0].choices
    assert list(choices) == COMMANDS


def test_top_level_usage_lists_every_subcommand(capsys, tmp_path):
    """No command, -h, an unknown command and an @file holding the command
    are read by the full parser, as before it was built per command."""
    assert main([]) == 3
    assert capsys.readouterr() == ("", "error: the following arguments are required: command\n")
    with pytest.raises(SystemExit) as exit:
        main(["-h"])
    assert exit.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: jkn [-h]\n")
    assert "{" + ",".join(COMMANDS) + "}" in out
    assert main(["nosuch", "3", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    # argparse's own wording, which quotes the names as its version does
    assert err.startswith("error: argument command: invalid choice: ")
    assert "nosuch" in err and [name for name in COMMANDS if name in err] == COMMANDS
    command = tmp_path / "command.txt"
    command.write_text("check\n3\n8\n2,1,1,1,1,1,1,1\n")
    assert main([f"@{command}"]) == 0
    from_file = capsys.readouterr()
    assert main(["check", "3", "8", "2,1,1,1,1,1,1,1"]) == 0
    assert from_file == capsys.readouterr()
    assert from_file.out.startswith("real positive, degree 3\n")


# Refusals with the one stderr line each prints: "argv", message
REFUSALS = [
    ("generic --degree 0", "enumerate_generic requires degree >= 1, got 0"),
    ("tables 3 9 --max 0", "--max must be >= 1"),
    ("convert 3 8 3,1,3 --from-roots", "expected 7 alpha coefficients, got 2"),
    ("families affine 4 10 --series A1 --sign +", "affine requires --series, --sign and --m"),
    ("families affine 4 10 --series Z9 --sign + --m 1", "unknown series 'Z9'"),
    (
        "families affine 4 10 --series A0 --sign - --m 1 --pair 9,2,1",
        "--pair takes two comma-separated indices i,j",
    ),
    ("reduce 3 8 3,0,0,0,0,0,0,0", "reduce_trace requires entries in [0, 1] (the degree)"),
    ("reduce 3 6 1,0,0,-1,0,0", "reduce_trace requires degree >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals_exit_3_with_one_line(capsys, argv, message):
    assert main(shlex.split(argv)) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_contract_errors_exit_3(capsys):
    assert main(["weights", "3", "9"]) == 3  # affine: no weights
    assert main(["manin", "3", "7", "1,1,1,0,0,0,0"]) == 3
    assert main(["families", "gamma", "3", "8"]) == 3  # missing --degree


def test_tables_csv_golden(capsys):
    cases = [
        (("3", "9", "--max", "7", "--kind", "real"), "tables_3_9_real.csv"),
        (("3", "11", "--max", "7", "--kind", "almost"), "tables_3_11_almost.csv"),
        (("5", "10", "--max", "3", "--kind", "real"), "tables_5_10_real.csv"),
    ]
    for args, fixture in cases:
        code, out = run(capsys, "tables", *args, "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / fixture).read_text()


def test_tables_plain_zeros(capsys):
    code, out = run(capsys, "tables", "3", "10", "--max", "7", "--kind", "almost")
    assert code == 0
    assert out.splitlines() == [f"degree {d}: 0" for d in range(1, 8)]


def test_orbits_csv(capsys):
    code, out = run(
        capsys, "orbits", "3", "9", "--degree", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "representative,degree,kind,orbit_size"
    assert lines[1] == "2 1 1 1 1 1 1 1 0,3,real,72"


def test_generic_summary(capsys):
    code, out = run(capsys, "generic", "--degree", "4")
    assert code == 0
    assert out.splitlines()[-1] == "8 real, 2 almost real"


def test_weights_plain(capsys):
    code, out = run(capsys, "weights", "3", "6")
    assert code == 0
    assert "1/3(-1,2,2,2,2,2)" in out


def test_weights_and_manin_json(capsys):
    code, out = run(capsys, "weights", "1", "4", "--format", "json")
    assert code == 0 and out.count("\n") == 1
    blob = json.loads(out)
    assert (blob["k"], blob["n"]) == (1, 4)
    assert [w["label"] for w in blob["weights"]] == ["beta", "alpha_1", "alpha_2", "alpha_3"]
    assert blob["weights"][1] == {
        "label": "alpha_1",
        "coords": ["-3/5", "2/5", "2/5", "2/5"],
        "root_coeffs": ["3/5", "6/5", "4/5", "2/5"],
    }
    code, out = run(capsys, "manin", "3", "8", "2,1,1,1,1,1,1,1", "--format", "json")
    assert (code, out) == (0, '{"a": 3, "b": [2, 1, 1, 1, 1, 1, 1, 1]}\n')


def test_k_equal_to_n_answers_match_hand_values(capsys):
    """J(n, n) is A_{n-1} x A_1: beta = (1^n) is orthogonal to every
    alpha_i, so it is the one positive root of nonzero degree, and the
    weights are beta/2 and the A_{n-1} weights of coordinate sum 0,
    omega_j = (j/n - 1)^j (j/n)^(n-j)."""
    assert run(capsys, "orbits", "1", "1", "--degree", "1") == (
        0,
        "(1) Real size=1\n1 real, 0 almost real\n",
    )
    for d in range(2, 5):
        assert run(capsys, "orbits", "3", "3", "--degree", str(d)) == (
            0,
            "0 real, 0 almost real\n",
        )
    assert run(capsys, "tables", "5", "5", "--max", "4") == (
        0,
        "degree 1: 1\ndegree 2: 0\ndegree 3: 0\ndegree 4: 0\n",
    )
    assert run(capsys, "weights", "4", "4") == (
        0,
        "beta: 1/2(1,1,1,1)\n"
        "alpha_1: 1/4(-3,1,1,1)\n"
        "alpha_2: 1/2(-1,-1,1,1)\n"
        "alpha_3: 1/4(-1,-1,-1,3)\n",
    )
    for n in range(2, 7):
        p = SystemParams(n, n)
        (beta,) = enumerate_orbits(p, 1)
        assert (beta.representative.x, beta.kind, beta.orbit_size) == ((1,) * n, OrbitKind.REAL, 1)
        assert all(enumerate_orbits(p, d) == () for d in range(2, 6))
        hand = [(Fraction(1, 2),) * n] + [
            (Fraction(j, n) - 1,) * j + (Fraction(j, n),) * (n - j) for j in range(1, n)
        ]
        weights = fundamental_weights(p)
        assert [w.coords for w in weights] == hand
        simple = [beta_vector(p)] + [simple_root(p, j) for j in range(1, n)]
        for i, w in enumerate(weights):
            for j, b in enumerate(simple):
                # B(u, v) = sum u_i v_i + (2 - k) deg(u) deg(v), with k = n
                pairing = sum(map(mul, w.coords, b.x)) + (2 - n) * sum(w.coords) / n * degree(b)
                assert pairing == (i == j), (n, i, j)


def test_families_null(capsys):
    code, out = run(capsys, "families", "null", "4", "8")
    assert code == 0
    assert "(1,1,1,1,1,1,1,1)" in out
    assert "q = 0" in out


def test_families_affine_pair(capsys):
    code, out = run(
        capsys,
        "families", "affine", "4", "10",
        "--series", "A0", "--sign", "-", "--m", "1", "--pair", "9,2",
    )
    assert code == 0
    assert "(3,2,1,1,1,1,1,1,0,1)" in out


def test_manin_plain(capsys):
    code, out = run(capsys, "manin", "3", "8", "2,1,1,1,1,1,1,1")
    assert code == 0
    assert "a = 3, b = (2,1,1,1,1,1,1,1)" in out


def test_profile_rotations(capsys):
    code, out = run(capsys, "profile", "3", "8", "2,1,1,1,1,1,1,1")
    assert code == 0
    assert out.splitlines() == ["258|147|136", "147|136|258", "136|258|147"]


def test_convert_round_trip(capsys):
    code, out = run(capsys, "convert", "3", "8", "2,1,1,1,1,1,1,1")
    assert code == 0
    assert "m_beta = 3" in out
    code, out = run(
        capsys, "convert", "3", "8", "3,1,3,5,4,3,2,1", "--from-roots"
    )
    assert code == 0
    assert "(2,1,1,1,1,1,1,1)" in out


def test_word_application(capsys):
    code, out = run(capsys, "word", "3", "6", "b,1", "1,1,1,0,0,0")
    assert code == 0
    assert "(-1,-1,-1,0,0,0)" in out


def test_reduce_json(capsys):
    code, out = run(
        capsys, "reduce", "4", "10", "3,3,3,1,1,1,1,1,1,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terminal"] == "almost"
    assert len(data["steps"]) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("built output of a format that is not printed")


def test_check_and_reduce_json_build_no_plain_lines(capsys, monkeypatch):
    monkeypatch.setattr(jkn.ReductionTrace, "plain_lines", _refuse)
    vectors = ("2,1,1,1,1,1,1,1", "3,3,3,0,0,0,0,0")
    assert main(["check", "3", "8", *vectors, "--format", "json"]) == 2
    assert [c["kind"] for c in json.loads(capsys.readouterr().out)] == [
        "RealPositive",
        "NotRealQ",
    ]
    assert main(["reduce", "3", "8", vectors[0], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["terminal"] == "real"


def test_check_and_reduce_plain_build_no_json(capsys, monkeypatch):
    monkeypatch.setattr(jkn.ReductionTrace, "as_json_dict", _refuse)
    code, out = run(capsys, "check", "4", "10", "3,3,3,1,1,1,1,1,1,1")
    assert code == 1
    assert out.splitlines()[-1] == "  terminal: range violation"
    code, out = run(capsys, "reduce", "3", "8", "2,1,1,1,1,1,1,1")
    assert code == 0
    assert out.splitlines()[-1] == "terminal: reached -beta"


def test_generic_json_builds_no_plain_or_csv_text(capsys, monkeypatch):
    monkeypatch.setattr(jkn.cli, "_vec_str", _refuse)
    monkeypatch.setattr(jkn.cli, "_spaced", _refuse)
    code, out = run(capsys, "generic", "--degree", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["orbits"]) == 3


def test_orbits_csv_builds_no_json_or_plain_text(capsys, monkeypatch):
    monkeypatch.setattr(jkn.cli.OrbitClass, "as_json_dict", _refuse)
    monkeypatch.setattr(jkn.cli, "_summary", _refuse)
    code, out = run(capsys, "orbits", "3", "8", "--degree", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "representative,degree,kind,orbit_size",
        "1 1 1 1 1 1 0 0,2,real,28",
    ]


def test_tables_and_generic_plain_build_no_json(capsys, monkeypatch):
    monkeypatch.setattr(jkn.cli.GenericOrbit, "as_json_dict", _refuse)
    code, out = run(capsys, "generic", "--degree", "2")
    assert code == 0
    assert out.splitlines()[-1] == "1 real, 0 almost real"
    # the tables json object is a literal with no method to refuse, so
    # _render is cut down to its plain branch: tables must hand it a builder
    # of the plain lines that needs neither of the other two
    monkeypatch.setattr(
        jkn.cli,
        "_render",
        lambda args, obj, plain, *csv: sys.stdout.writelines(
            line + "\n" for line in plain()
        ),
    )
    code, out = run(capsys, "tables", "3", "8", "--max", "2")
    assert code == 0
    assert out.splitlines() == ["degree 1: 56", "degree 2: 28"]


class _WriteSizes:
    """A stdout that records what each write call is given."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_generic_output_is_written_as_it_is_rendered(monkeypatch, fmt):
    """No write holds more than one line: the output is never buffered
    whole before it goes to stdout."""
    spy = _WriteSizes()
    monkeypatch.setattr(sys, "stdout", spy)
    assert main(["generic", "--degree", "6", "--format", fmt]) == 0
    lines = "".join(spy.writes).splitlines()
    # one line per orbit, and the csv header or the plain summary
    assert len(lines) == len(jkn.enumerate_generic(6)) + 1 == 58
    assert max(map(len, spy.writes)) <= max(map(len, lines)) + 1


def test_check_and_reduce_stream_the_plain_trace(monkeypatch):
    """The plain trace goes out a step at a time, each step expanded as its
    line is built: `ReductionTrace.steps`, which keeps every expanded step,
    is never read, and no write holds more than one line."""
    monkeypatch.setattr(jkn.ReductionTrace, "steps", property(_refuse))
    spy = _WriteSizes()
    monkeypatch.setattr(sys, "stdout", spy)
    x = ",".join(map(str, gamma(300, SystemParams(3, 602)).x))
    assert main(["check", "3", "602", x]) == 0
    assert main(["reduce", "3", "602", x]) == 0
    lines = "".join(spy.writes).splitlines()
    # each command: its first line, 300 steps, the terminal
    assert len(lines) == 2 * 302
    assert lines[301] == "  terminal: reached -beta"
    assert lines[-1] == "terminal: reached -beta"
    assert max(map(len, spy.writes)) <= max(map(len, lines)) + 1


def test_closed_pipe_exits_141_quietly():
    """A reader that has already exited is no internal error: the status
    is the 141 a shell reports for a writer killed by SIGPIPE, and stderr
    stays empty."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from jkn.cli import main; raise SystemExit("
                "main(['generic', '--degree', '6']))",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("k,n,d", [(3, 1500, 2), (1000, 1001, 1)])
def test_orbits_large_n(capsys, k, n, d):
    code, out = run(capsys, "orbits", str(k), str(n), "--degree", str(d))
    assert code == 0
    assert out.splitlines()[-1] == "1 real, 0 almost real"


@pytest.mark.parametrize(
    "k,n,d,summary", [(3, 5, 3000, "0 real"), (3, 9, 1000, "1 real")]
)
def test_orbits_high_degree(capsys, k, n, d, summary):
    code, out = run(capsys, "orbits", str(k), str(n), "--degree", str(d))
    assert code == 0
    assert out.splitlines()[-1] == f"{summary}, 0 almost real"


def test_internal_error_exit_5(capsys, monkeypatch):
    def broken(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(jkn.cli, "enumerate_orbits", broken)
    code = main(["orbits", "3", "9", "--degree", "3"])
    assert code == 5
    assert "RecursionError" in capsys.readouterr().err


def test_time_limit_exit_4():
    # check the status a real process exits with; nothing is cached
    # between calls, so the selftest recomputes every table and cannot
    # finish inside the limit
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from jkn.cli import main; raise SystemExit("
            "main(['selftest', '--time-limit', '0.01']))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    assert "time limit" in proc.stdout + proc.stderr


@pytest.mark.parametrize("limit", ["inf", "1e300", "nan", "-1"])
def test_time_limit_refuses_values_it_cannot_keep(capsys, limit):
    code = main(["check", "3", "8", "2,1,1,1,1,1,1,1", "--time-limit", limit])
    assert code == 3
    assert "--time-limit" in capsys.readouterr().err


def test_time_limit_zero_means_no_limit(capsys):
    code, out = run(capsys, "check", "3", "8", "2,1,1,1,1,1,1,1", "--time-limit", "0")
    assert code == 0
    assert "real positive, degree 3" in out


def test_time_limit_off_the_main_thread(capsys):
    """The alarm behind --time-limit belongs to the main thread: elsewhere a
    limit is a usage error naming --time-limit 0, and that runs."""
    results = []

    def call(*extra):
        try:
            results.append(main(["check", "3", "8", "2,1,1,1,1,1,1,1", *extra]))
        except BaseException as exc:  # nothing may escape main
            results.append(exc)

    for extra in ((), ("--time-limit", "0")):
        worker = threading.Thread(target=call, args=extra)
        worker.start()
        worker.join()
    assert results == [3, 0]
    captured = capsys.readouterr()
    assert "--time-limit 0" in captured.err
    assert "real positive, degree 3" in captured.out


def test_cli_import_leaves_single_use_modules_out():
    """The reference tables, json, csv and traceback are each needed by one
    subcommand or format only; `import jkn.cli` loads none of them beyond
    what the bare interpreter already has."""
    probe = (
        "import sys; before = set(sys.modules); import jkn.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "jkn.cli" in added
    assert not added & {"jkn.golden", "json", "csv", "traceback"}


def test_selftest_passes(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert out.splitlines()[-1] == "selftest passed"
    assert "MISMATCH" not in out


def test_selftest_json(capsys):
    code, out = run(capsys, "selftest", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert len(blob["checks"]) == 71
    assert all(set(c) == {"label", "ok", "detail"} for c in blob["checks"])
    assert all(c["ok"] for c in blob["checks"])


@pytest.mark.parametrize(
    "table, key, row, label, detail",
    [
        pytest.param(
            "REAL_COUNTS",
            (3, 8),
            (56, 28, 9, 0, 0, 0, 0),
            "real root counts J(3,8)",
            "(56, 28, 8, 0, 0, 0, 0) != (56, 28, 9, 0, 0, 0, 0)",
            id="real",
        ),
        pytest.param(
            "ALMOST_COUNTS",
            (4, 10),
            (0, 0, 0, 121, 0, 1260, 840),
            "almost real root counts J(4,10)",
            "(0, 0, 0, 120, 0, 1260, 840) != (0, 0, 0, 121, 0, 1260, 840)",
            id="almost",
        ),
        pytest.param(
            "ORBIT_COUNTS",
            (3, 10),
            ((1, 1, 1, 2, 2, 2, 3, 5, 5, 7, 8), (0,) * 11),
            "orbit counts J(3,10)",
            "[1, 1, 1, 2, 2, 2, 3, 5, 5, 7, 9]/[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
            id="concrete-orbits",
        ),
        pytest.param(
            "ORBIT_COUNTS",
            (3, None),
            (
                (1, 1, 1, 2, 3, 5, 7, 13, 17, 28, 37),
                (0, 0, 0, 0, 1, 1, 4, 7, 16, 27, 53),
            ),
            "generic orbit counts (k=3)",
            "[1, 1, 1, 2, 3, 5, 7, 13, 17, 28, 37]/[0, 0, 0, 0, 1, 1, 4, 7, 16, 27, 52]",
            id="generic-orbits",
        ),
        pytest.param(
            "GENERIC_REAL_CORES",
            2,
            (((1, 1, 1, 1, 1, 1), 4),),
            "generic orbit cores, degree 2",
            "",
            id="generic-cores",
        ),
    ],
)
def test_selftest_reports_a_wrong_row(capsys, monkeypatch, table, key, row, label, detail):
    """One wrong reference row fails the self test: exactly its MISMATCH
    line, exit 1, and "passed": false in json."""
    from jkn import golden

    monkeypatch.setitem(getattr(golden, table), key, row)
    code, out = run(capsys, "selftest")
    assert code == 1
    line = f"MISMATCH: {label}" + (f": {detail}" if detail else "")
    lines = [ln for ln in out.splitlines() if not ln.startswith("ok: ")]
    assert lines == [line, "selftest failed (1 mismatches)"]
    code, out = run(capsys, "selftest", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["passed"] is False and len(blob["checks"]) == 71
    assert [c for c in blob["checks"] if not c["ok"]] == [
        {"label": label, "ok": False, "detail": detail}
    ]


def _plain_json(obj):
    """obj as json.loads returns it: tuples become lists."""
    return json.loads(json.dumps(obj))


def test_json_output_is_one_line(capsys):
    """check, orbits and selftest print one compact line of json each."""
    p = jkn.SystemParams(3, 8)
    x = (2, 1, 1, 1, 1, 1, 1, 1)
    c = jkn.classify_entries(p, x)
    orbits = jkn.enumerate_orbits(jkn.SystemParams(3, 9), 3)
    code, plain = run(capsys, "selftest")
    assert code == 0
    labels = [line[len("ok: "):] for line in plain.splitlines()[:-1]]
    expected = {
        ("check", "3", "8", "2,1,1,1,1,1,1,1"): {
            "k": 3,
            "n": 8,
            "x": list(x),
            "kind": "RealPositive",
            "degree": 3,
            "q": None,
            "trace": _plain_json(c.trace.as_json_dict()),
        },
        ("orbits", "3", "9", "--degree", "3"): {
            "k": 3,
            "n": 9,
            "degree": 3,
            "orbits": _plain_json([oc.as_json_dict() for oc in orbits]),
        },
        ("selftest",): {
            "checks": [{"label": lb, "ok": True, "detail": ""} for lb in labels],
            "passed": True,
        },
    }
    for argv, obj in expected.items():
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert json.loads(out) == obj, argv
