import json
import math

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
from gentropies.cli import MAX_SWEEP_POINTS, main


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
