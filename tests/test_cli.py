import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gentropies import (
    CheckConfig,
    conditional_entropy,
    joint_entropy,
    make_joint,
    renyi,
    run_suite,
    tsallis,
)
from gentropies import cli
from gentropies.cli import MAX_SWEEP_POINTS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"p": [0.25, 0.75]}\n')
    return str(path)


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.csv"
    path.write_text("0.5,0.5\n")
    return str(path)


@pytest.fixture
def probe_file(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text('{"rows": [[0.5, 0.0], [0.25, 0.25]]}\n')
    return str(path)


class TestCompute:
    def test_renyi_fifteen_digits(self, capsys, dist_file):
        code, out, err = run(capsys, "compute", "--family", "renyi", "--alpha", "2", dist_file)
        assert code == 0
        assert out == "0.678071905112638\n"
        assert err == ""

    def test_shannon_fair_coin(self, capsys, coin_file):
        code, out, _ = run(capsys, "compute", "--family", "shannon", "--tau", "-1", coin_file)
        assert code == 0
        assert out == "1\n"

    def test_invalid_parameters_exit_one(self, capsys, dist_file):
        code, out, err = run(
            capsys, "compute", "--family", "nath",
            "--alpha", "2", "--lambda", "1", "--tau", "-1", dist_file,
        )
        assert code == 1
        assert out == ""
        assert "ParameterError" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "renyi", "--alpha", "2", "/no/such/file")
        assert code == 1
        assert err != ""

    def test_multiline_csv(self, capsys, tmp_path):
        path = tmp_path / "many.csv"
        path.write_text("0.5,0.5\n0.25,0.25,0.25,0.25\n")
        code, out, _ = run(capsys, "compute", "--family", "shannon", str(path))
        assert code == 0
        assert out == "1\n2\n"

    def test_repeated_runs_identical_bytes(self, capsys, dist_file):
        args = ("compute", "--family", "renyi", "--alpha", "2", dist_file)
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_unknown_family(self, capsys, dist_file):
        code, _, err = run(capsys, "compute", "--family", "gibbs", dist_file)
        assert code == 1
        assert "ParameterError" in err

    def test_overflowing_entropy_exit_one(self, capsys, tmp_path):
        path = tmp_path / "u4.csv"
        path.write_text("0.25,0.25,0.25,0.25\n")
        code, out, err = run(capsys, "compute", "--family", "shannon", "--tau=-1.7e308", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("Overflow: ")

    def test_csv_line_is_validated_before_the_next_is_parsed(self, capsys, tmp_path):
        """Line 2 fails validation and line 3 has an unparseable token: the
        error is line 2's, and the file is read before anything is printed."""
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.25,0.25\n0.5,x\n")
        code, out, err = run(capsys, "compute", "--family", "shannon", str(path))
        assert (code, out) == (1, "")
        assert err == "NotNormalized: probabilities sum to 0.5, not 1\n"

    def test_values_before_an_overflow_are_printed(self, capsys, tmp_path):
        """Each value is printed as it is computed: the first distribution's
        entropy reaches stdout before the second one overflows."""
        path = tmp_path / "two.csv"
        path.write_text("1\n0.25,0.25,0.25,0.25\n")
        code, out, err = run(capsys, "compute", "--family", "shannon", "--tau=-1.7e308", str(path))
        assert (code, out) == (1, "0\n")
        assert err.startswith("Overflow: ")


class TestJointCommands:
    def test_conditional(self, capsys, probe_file):
        code, out, _ = run(
            capsys, "conditional", "--family", "tsallis", "--alpha", "2", probe_file
        )
        assert code == 0
        assert out == "0.25\n"

    def test_joint(self, capsys, probe_file):
        code, out, _ = run(capsys, "joint", "--family", "shannon", probe_file)
        assert code == 0
        assert out == "1.5\n"

    def test_csv_joint(self, capsys, tmp_path):
        path = tmp_path / "probe.csv"
        path.write_text("0.5,0\n0.25,0.25\n")
        code, out, _ = run(capsys, "joint", "--family", "renyi", "--alpha", "2", str(path))
        assert code == 0
        assert out == "1.41503749927884\n"


@pytest.mark.parametrize("command", ["compute", "joint", "conditional"])
def test_integer_past_the_float_range_exit_one(capsys, tmp_path, command):
    """float() of such a JSON integer raises OverflowError: the validating
    constructors report it as a non-finite entry, with no traceback."""
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    body = f'"p": [0.5, {huge}]' if command == "compute" else f'"rows": [[0.5], [{huge}]]'
    path.write_text(f"{{{body}}}")
    code, out, err = run(capsys, command, "--family", "shannon", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("NotNormalized: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "joint", "conditional"])
def test_file_that_is_not_utf8_exit_one(capsys, tmp_path, command):
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe0.5,0.5\n")
    code, out, err = run(capsys, command, "--family", "shannon", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("FormatError: ") and "Traceback" not in err


@pytest.mark.parametrize("command, body, message", [
    ("compute", "\n \n", "no distributions found"),
    ("joint", "\n \n", "no joint rows found"),
    ("conditional", "\n", "no joint rows found"),
    ("sweep", "", "no distributions found"),
    ("compute", '{"p": [0.5, 0.5]', "invalid JSON in "),
    ("conditional", '{"rows": [[1.0]]]}', "invalid JSON in "),
])
def test_blank_or_invalid_file_exit_one(capsys, tmp_path, command, body, message):
    path = tmp_path / "in.txt"
    path.write_text(body)
    flags = ["--family", "renyi", "--alpha=1:2:1"] if command == "sweep" else ["--family", "shannon"]
    code, out, err = run(capsys, command, *flags, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("FormatError: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command, body", [
    ("compute", "0.5,0.5\n"),
    ("compute", '{"p": [0.5, 0.5]}\n'),
    ("joint", "0.25,0.25\n0.5,0\n"),
    ("conditional", '{"rows": [[0.25, 0.25], [0.5, 0]]}\n'),
], ids=["compute-csv", "compute-json", "joint-csv", "conditional-json"])
def test_utf8_file_with_a_byte_order_mark(capsys, tmp_path, command, body):
    """A UTF-8 byte-order mark before a CSV or JSON file is not part of its text."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(body, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    code, out, err = run(capsys, command, "--family", "shannon", str(marked))
    assert (code, err) == (0, "") and out
    assert run(capsys, command, "--family", "shannon", str(plain)) == (code, out, err)


# The flags of every family whose zero entropy used to print as -0.
ZERO_FLAGS = {
    "shannon": [],
    "renyi": ["--alpha", "2"],
    "tsallis": ["--alpha", "2"],
    "nath": ["--alpha", "2", "--lambda", "-1", "--tau", "-1"],
    "general(lambda=0)": ["--alpha", "2", "--lambda", "0", "--tau", "-1"],
    "general(lambda=0.5)": ["--alpha", "2", "--lambda", "0.5", "--tau", "-1"],
}


@pytest.mark.parametrize("command, rows", [
    ("compute", "1.0,0.0\n"), ("joint", "1.0,0.0\n"), ("conditional", "0.5,0\n0,0.5\n"),
])
@pytest.mark.parametrize("family", ZERO_FLAGS)
def test_zero_entropy_prints_zero(capsys, tmp_path, command, rows, family):
    path = tmp_path / "zero.csv"
    path.write_text(rows)
    flags = ["--family", family.split("(")[0], *ZERO_FLAGS[family]]
    assert run(capsys, command, *flags, str(path)) == (0, "0\n", "")


@pytest.mark.parametrize("family", ["renyi", "tsallis"])
def test_trace_of_one_point_prints_zero(capsys, family):
    assert run(capsys, "trace", "--family", family, "--alpha", "2", "--n", "1") == (0, "0\n", "")


class TestReplayWorstInput:
    """A report's worst input, written as a file, replays through the CLI."""

    @pytest.mark.parametrize(
        "family, flags",
        [(renyi(2.0), ["--family", "renyi", "--alpha", "2"]),
         (tsallis(2.0), ["--family", "tsallis", "--alpha", "2"])],
        ids=["renyi(2)", "tsallis(2)"],
    )
    def test_strong_additivity_worst_input(self, capsys, tmp_path, family, flags):
        report = run_suite(CheckConfig(family=family, trials=20, seed=3))
        worst = next(c for c in report.checks if c.name == "strong_additivity").worst_input
        path = tmp_path / "worst.json"
        path.write_text(json.dumps(worst) + "\n")
        joint = make_joint(worst["rows"])
        for command, value in [
            ("joint", joint_entropy(family, joint)),
            ("conditional", conditional_entropy(family, joint)),
        ]:
            code, out, err = run(capsys, command, *flags, str(path))
            assert (code, out, err) == (0, f"{value:.15g}\n", "")


class TestTrace:
    def test_shannon(self, capsys):
        code, out, _ = run(capsys, "trace", "--family", "shannon", "--n", "1024")
        assert code == 0
        assert out == "10\n"

    def test_havrda_charvat(self, capsys):
        code, out, _ = run(capsys, "trace", "--family", "havrda-charvat", "--alpha", "2", "--n", "2")
        assert code == 0
        assert out == "1\n"

    def test_dimension_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "trace", "--family", "shannon", "--n", str(10 ** 400))
        assert code == 0
        assert float(out) == pytest.approx(400 * math.log2(10.0), rel=1e-14)
        assert err == ""

    def test_hct_beyond_float_range(self, capsys):
        code, out, err = run(
            capsys, "trace", "--family", "tsallis", "--alpha", "2", "--n", str(10 ** 400)
        )
        assert (code, out, err) == (0, "1\n", "")

    def test_hct_overflow_exit_one(self, capsys):
        code, out, err = run(
            capsys, "trace", "--family", "tsallis", "--alpha", "0.5", "--n", str(10 ** 700)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("Overflow: ")


class TestCheck:
    def test_constrained_family_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "--family", "tsallis", "--alpha", "2",
            "--trials", "200", "--seed", "7", "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["verdict"] == "pass"
        assert payload["seed"] == 7

    def test_expected_violation(self, capsys):
        code, out, _ = run(
            capsys, "check", "--family", "general", "--alpha", "2",
            "--tau", "-1", "--lambda", "1", "--trials", "50", "--expect-violation",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "violation detected"

    def test_unexpected_violation_exit_two(self, capsys):
        code, _, err = run(
            capsys, "check", "--family", "general", "--alpha", "2",
            "--tau", "-1", "--lambda", "1", "--trials", "50",
        )
        assert code == 2
        assert "violation detected" in err

    def test_reports_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "check", "--family", "renyi", "--alpha", "2",
                "--trials", "80", "--seed", "123", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overflow_exit_one(self, capsys):
        code, out, err = run(
            capsys, "check", "--family", "shannon", "--tau=-1.7e308", "--trials", "5"
        )
        assert (code, out) == (1, "")
        assert err.startswith("Overflow: ")

    def test_bad_config_exit_one(self, capsys):
        code, _, err = run(
            capsys, "check", "--family", "shannon", "--trials", "0"
        )
        assert code == 1
        assert "ConfigError" in err

    def test_over_the_cell_budget_exit_one(self, capsys):
        code, out, err = run(
            capsys, "check", "--family", "shannon", "--trials", "10000",
            "--max-rows", "100", "--max-cols", "100",
        )
        assert (code, out) == (1, "")
        assert err.startswith("ConfigError: trials * max_rows * max_cols = 100000000 exceeds")


class TestSweep:
    def test_uniform_renyi(self, capsys, coin_file):
        code, out, err = run(
            capsys, "sweep", "--family", "renyi", "--alpha", "0.5:2.5:1.0", coin_file
        )
        assert code == 0
        assert out == "param,entropy\n0.5,1\n1.5,1\n2.5,1\n"
        assert err == ""

    def test_invalid_points_skipped_with_warning(self, capsys, coin_file):
        code, out, err = run(
            capsys, "sweep", "--family", "tsallis", "--alpha", "0.5:1.5:0.5", coin_file
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,entropy"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.5", "1.5"]
        assert "ParameterError" in err and "alpha=1" in err

    def test_stop_included_when_on_grid(self, capsys, coin_file):
        code, out, _ = run(
            capsys, "sweep", "--family", "tsallis", "--alpha", "2:2:1", coin_file
        )
        assert code == 0
        assert out == "param,entropy\n2,0.5\n"

    def test_zero_step_exit_one(self, capsys, coin_file):
        code, _, err = run(
            capsys, "sweep", "--family", "renyi", "--alpha", "1:1:0", coin_file
        )
        assert code == 1
        assert "ParameterError" in err

    @pytest.mark.parametrize("spec, message", [
        ("1:2", "range must be start:stop:step, got '1:2'"),
        ("1:2:0.5:1", "range must be start:stop:step, got '1:2:0.5:1'"),
        ("1:x:0.5", "unparseable range '1:x:0.5': could not convert string to float: 'x'"),
        ("3:1:0.5", "empty range '3:1:0.5'"),
    ])
    def test_malformed_range_exit_one(self, capsys, coin_file, spec, message):
        code, out, err = run(capsys, "sweep", "--family", "renyi", f"--alpha={spec}", coin_file)
        assert (code, out, err) == (1, "", f"ParameterError: {message}\n")

    @pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:0.5", "0:nan:1"])
    def test_non_finite_range_exit_one(self, capsys, coin_file, spec):
        code, out, err = run(capsys, "sweep", "--family", "renyi", f"--alpha={spec}", coin_file)
        assert (code, out) == (1, "")
        assert err.startswith("ParameterError: ") and "finite" in err

    @pytest.mark.parametrize("spec", ["0:1e12:1e-6", "0.5:1000000.5:1"])
    def test_too_many_points_exit_one(self, capsys, coin_file, spec):
        # refused before a single point is built
        code, out, err = run(capsys, "sweep", "--family", "renyi", f"--alpha={spec}", coin_file)
        assert (code, out) == (1, "")
        assert err.startswith("ParameterError: ") and str(MAX_SWEEP_POINTS) in err

    def test_two_ranges_exit_one(self, capsys, coin_file):
        code, _, err = run(
            capsys, "sweep", "--family", "nath",
            "--alpha", "2:3:1", "--lambda=-1:-0.5:0.5", "--tau=-1", coin_file,
        )
        assert code == 1
        assert "ParameterError" in err

    def test_no_range_exit_one(self, capsys, coin_file):
        code, _, err = run(
            capsys, "sweep", "--family", "renyi", "--alpha", "2", coin_file
        )
        assert code == 1
        assert "ParameterError" in err

    @pytest.mark.parametrize("flags, message", [
        (["--family", "entropy", "--alpha", "0.5:1:0.5"], "unknown family 'entropy'"),
        (["--family", "shannon", "--alpha", "0.5:1:0.5"], "does not take --alpha"),
        (["--family", "nath", "--alpha", "0.5:1.5:0.5"], "needs --lambda --tau"),
    ], ids=["unknown", "extra flag", "missing flags"])
    def test_family_flags_refused_before_the_header(self, capsys, coin_file, flags, message):
        """A flag set that fails at every point is refused once, as
        ``compute`` refuses it, not warned about point by point."""
        code, out, err = run(capsys, "sweep", *flags, coin_file)
        assert (code, out) == (1, "")
        assert err.startswith("ParameterError: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("family, flags", [
        ("nath", ["--alpha", "2", "--tau=-1"]),
        ("hct", ["--alpha", "2", "--tau=-1"]),
    ])
    def test_ranged_lambda_matches_compute(self, capsys, tmp_path, family, flags):
        path = tmp_path / "d.csv"
        path.write_text("0.2,0.3,0.5\n")
        code, out, _ = run(
            capsys, "sweep", "--family", family, *flags, "--lambda=-1.5:-0.5:0.25", str(path)
        )
        assert code == 0
        lines = out.splitlines()[1:]
        assert lines
        for line in lines:
            lam, value = line.split(",")
            _, single, _ = run(capsys, "compute", "--family", family, *flags, f"--lambda={lam}", str(path))
            assert single == f"{value}\n"

    def test_bad_fixed_flag_exit_one(self, capsys, coin_file):
        code, out, err = run(
            capsys, "sweep", "--family", "nath",
            "--alpha", "2", "--lambda=-1:-0.5:0.5", "--tau=abc", coin_file,
        )
        assert (code, out) == (1, "")
        assert "invalid number for --tau" in err

    def test_multi_distribution_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "many.csv"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        code, _, err = run(
            capsys, "sweep", "--family", "renyi", "--alpha", "1:2:1", str(path)
        )
        assert code == 1
        assert "FormatError" in err


class TestParsing:
    def test_missing_subcommand_exit_one(self, capsys):
        code = main([])
        captured = capsys.readouterr()
        assert code == 1 or captured.err != ""

    def test_bad_flag_value_exit_one(self, capsys, coin_file):
        code = main(["compute", "--family", "renyi", "--alpha", "two", coin_file])
        assert code == 1


_FAMILY_FLAGS = [
    (("-h", "--help"), "help", None, argparse.SUPPRESS, False, "show this help message and exit"),
    (("--family",), "family", None, None, True,
     "one of: shannon, general, nath, renyi, tsallis, havrda-charvat, hct"),
    (("--alpha",), "alpha", "float", None, False, "order parameter"),
    (("--lambda",), "lam", "float", None, False, "deformation parameter"),
    (("--tau",), "tau", "float", None, False, "scale parameter (< 0)"),
]

_PARSER_SHAPE = [
    ("compute", "entropy of each distribution in a file", _FAMILY_FLAGS + [
        ((), "input", None, None, True, "distribution file (JSON or CSV)"),
    ]),
    ("conditional", "conditional entropy of a joint file", _FAMILY_FLAGS + [
        ((), "input", None, None, True, "joint file (JSON or CSV)"),
    ]),
    ("joint", "entropy of the flattened joint", _FAMILY_FLAGS + [
        ((), "input", None, None, True, "joint file (JSON or CSV)"),
    ]),
    ("trace", "closed-form entropy of the uniform distribution", _FAMILY_FLAGS + [
        (("--n",), "n", "int", None, True, "dimension"),
    ]),
    ("check", "run the seeded axiom suite", _FAMILY_FLAGS + [
        (("--trials",), "trials", "int", 100, False, None),
        (("--seed",), "seed", "int", 0, False, None),
        (("--tolerance",), "tolerance", "float", 1e-9, False, None),
        (("--max-rows",), "max_rows", "int", 8, False, None),
        (("--max-cols",), "max_cols", "int", 8, False, None),
        (("--output",), "output", None, None, False, "report path (default: stdout)"),
        (("--expect-violation",), "expect_violation", None, False, False,
         "succeed when the suite detects a strong-additivity violation"),
    ]),
    ("sweep", "CSV sweep over one ranged parameter", [
        (flags, dest, "str" if kind == "float" else kind, default, required, text)
        for flags, dest, kind, default, required, text in _FAMILY_FLAGS
    ] + [
        ((), "input", None, None, True, "distribution file (JSON or CSV)"),
    ]),
]


def test_parser_shape():
    """The subcommands, their help and every action's option strings, dest,
    type, default, required flag and help, in order (the structure, not
    argparse's rendering, which varies across Python versions)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in sub._choices_actions}
    shape = [
        (name, helps[name], [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
             a.default, a.required, a.help)
            for a in parser._actions
        ])
        for name, parser in sub.choices.items()
    ]
    assert shape == _PARSER_SHAPE


# ---------------------------------------------------------------------------
# The process contract: ``python -m gentropies.cli`` against main(argv)

ROOT = Path(__file__).resolve().parent.parent
# PYTHONUNBUFFERED unset: a child's stdout into a pipe is block-buffered, so
# output lost at exit would show; COLUMNS fixes argparse's usage width on both sides
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    "COLUMNS": "80",
}


def child(argv, stdout=subprocess.PIPE, env=CHILD_ENV):
    """(exit code, stdout bytes, stderr text) of a ``python -m gentropies.cli`` child."""
    proc = subprocess.run([sys.executable, "-m", "gentropies.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
                          cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def blas_env(threads):
    """`CHILD_ENV` with ``OPENBLAS_NUM_THREADS`` set to ``threads``, or unset for None."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    return env if threads is None else env | {"OPENBLAS_NUM_THREADS": threads}


# 10^4 points, 237,777 bytes: far past a pipe's and stdout's buffers
BIG_SWEEP = ["sweep", "--family", "renyi", "--alpha", "0.001:10:0.001"]


class TestProcess:
    @pytest.mark.parametrize("expected, argv", [
        (0, ["compute", "--family", "renyi", "--alpha", "2", "{dist}"]),
        (0, ["compute", "--family", "shannon", "{coin}"]),
        (0, ["conditional", "--family", "renyi", "--alpha", "0.5", "{probe}"]),
        (0, ["joint", "--family", "tsallis", "--alpha", "2", "{probe}"]),
        (0, ["trace", "--family", "shannon", "--n", "1024"]),
        (0, ["check", "--family", "renyi", "--alpha", "2", "--trials", "20", "--seed", "3"]),
        (0, ["sweep", "--family", "renyi", "--alpha", "0.5:3:0.25", "{coin}"]),
        (0, ["sweep", "--family", "renyi", "--alpha=0:2:1", "{dist}"]),  # warns on stderr
        (0, ["--help"]),
        (1, ["compute", "--family", "nath", "--alpha", "2", "--lambda", "1", "--tau", "-1",
             "{dist}"]),
        (1, ["compute", "--family", "renyi", "--alpha", "two", "{coin}"]),  # usage error
        (1, []),
        (2, ["check", "--family", "general", "--alpha", "2", "--tau", "-1", "--lambda", "1",
             "--trials", "50"]),
    ], ids=lambda v: " ".join(v[:1]) or "no-command" if isinstance(v, list) else str(v))
    def test_child_equals_main(self, capsys, monkeypatch, dist_file, coin_file, probe_file,
                               expected, argv):
        """Exit code, stdout bytes and stderr text of the process are main(argv)'s."""
        argv = [a.format(dist=dist_file, coin=coin_file, probe=probe_file) for a in argv]
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert child(argv) == (code, out.encode(), err)

    def test_check_output_file(self, capsys, tmp_path):
        argv = ["check", "--family", "tsallis", "--alpha", "2", "--trials", "30", "--seed", "7",
                "--output"]
        code, out, err = run(capsys, *argv, str(tmp_path / "in_process.json"))
        assert child([*argv, str(tmp_path / "child.json")]) == (code, out.encode(), err)
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

    def test_output_past_the_buffers(self, capsys, dist_file):
        code, out, err = run(capsys, *BIG_SWEEP, dist_file)
        assert len(out) > 64 * 1024
        assert child([*BIG_SWEEP, dist_file]) == (code, out.encode(), err)

    def test_closed_pipe_at_the_last_flush(self):
        """Output buffered until the exit's flush, into a pipe whose read end is
        closed: status 141 (128 + SIGPIPE) and nothing on stderr."""
        read, write = os.pipe()
        os.close(read)
        try:
            assert child(["trace", "--family", "shannon", "--n", "4"], stdout=write) == (
                141, None, "")
        finally:
            os.close(write)

    def test_pipe_closed_after_one_line(self, dist_file):
        """``gentropies sweep ... | head -1``: the reader goes away after a line,
        a write inside main fails, and the process ends as above."""
        proc = subprocess.Popen([sys.executable, "-m", "gentropies.cli", *BIG_SWEEP, dist_file],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, env=CHILD_ENV, cwd=ROOT)
        assert proc.stdout.readline() == b"param,entropy\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    def test_closed_pipe_in_process(self, capsys, monkeypatch, dist_file):
        """main returns 141 and points the closed stdout at the null device, so
        that the caller's later flush succeeds."""
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main([*BIG_SWEEP, dist_file]) == cli.EXIT_BROKEN_PIPE == 141
            stream.write("more\n")
            stream.flush()  # into the null device now
        assert capsys.readouterr().err == ""

    def test_console_script_is_the_main_block(self):
        """``gentropies`` (the installed script) and ``python -m gentropies.cli``
        end through the same function."""
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, name = target["gentropies"].partition(":")
        assert module == "gentropies.cli"
        tree = ast.parse(Path(cli.__file__).read_text())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
        assert callable(getattr(cli, name))

    # console_main, as the process entry, runs OpenBLAS with one thread unless the
    # caller chose a number: the stub main reports what numpy would load under
    CONSOLE_MAIN_STUB = """
import os, sys
from gentropies import cli
def main():
    print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
    return 0
cli.main = main
cli.console_main()
"""

    @pytest.mark.parametrize("threads, seen", [(None, "1"), ("4", "4")])
    def test_console_main_runs_openblas_with_one_thread_by_default(self, threads, seen):
        proc = subprocess.run([sys.executable, "-c", self.CONSOLE_MAIN_STUB],
                              capture_output=True, text=True, env=blas_env(threads), cwd=ROOT,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{seen} False\n", "")

    def test_main_leaves_the_environment_alone(self, capsys, monkeypatch, dist_file):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert run(capsys, "compute", "--family", "renyi", "--alpha", "2", dist_file)[0] == 0
        assert dict(os.environ) == before

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "renyi", "--alpha", "2", "{many}"],
        ["check", "--family", "tsallis", "--alpha", "2", "--trials", "30", "--seed", "5"],
    ], ids=lambda argv: argv[0])
    def test_output_does_not_depend_on_blas_threads(self, tmp_path, argv):
        many = tmp_path / "many.csv"
        many.write_text("".join(",".join(repr(k / (n * (n + 1) / 2)) for k in range(1, n + 1))
                                + "\n" for n in (2, 300, 5000)))
        argv = [a.format(many=many) for a in argv]
        unset = child(argv, env=blas_env(None))
        assert unset[0] == 0 and unset[1]
        assert child(argv, env=blas_env("2")) == unset


def test_importing_the_cli_loads_no_sampler(tmp_path):
    """A CLI process loads only the modules its command runs: ``numpy.random``
    alone costs about 9 ms to import, and the checker about 4 ms.  compute and
    trace load neither the suite, nor the means, nor ``numpy.random``, nor json;
    a conditional entropy with an exponential mean loads the generators, and
    check the checker."""
    dist = tmp_path / "d.csv"
    dist.write_text("0.25,0.75\n0.5,0.5\n")
    joint = tmp_path / "j.csv"
    joint.write_text("0.125,0.375\n0.25,0.25\n")
    code = f"""
import contextlib, io, sys
import gentropies.cli
WATCHED = ("gentropies.checker", "gentropies.generators", "numpy.random", "json")
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gentropies.cli.main(list(argv)) == 0
    print([m for m in WATCHED if m in sys.modules])
run("compute", "--family", "renyi", "--alpha", "2", {str(dist)!r})
run("trace", "--family", "tsallis", "--alpha", "2", "--n", "8")
run("conditional", "--family", "general", "--alpha", "2", "--tau", "-1", "--lambda", "-1",
    {str(joint)!r})
run("check", "--family", "shannon", "--trials", "2")
"""
    proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=120, check=True)
    compute, trace, conditional, check = proc.stdout.splitlines()
    assert compute == trace == "[]"
    assert conditional == "['gentropies.generators']"
    assert "'gentropies.checker'" in check
