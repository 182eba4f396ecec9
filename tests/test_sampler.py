"""The suite's draws through numpy's C samplers, and the replayed row sums,
against the Generator methods and ``np.add.reduce`` bit for bit."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trial_views import reference_joints
from gentropies import CheckConfig, _sampler, checker, run_suite
from gentropies.entropies import general_escort, renyi, tsallis

SRC = Path(__file__).resolve().parent.parent / "src"

# Row lengths on both sides of numpy's pairwise switches (8 and 128 cells).
LENGTHS = st.one_of(st.sampled_from([1, 7, 8, 9, 16, 127, 128, 129]), st.integers(1, 129))


def _cells(rng, n: int, zeros: float, subnormals: float) -> np.ndarray:
    """``n`` non-negative cells of spread exponents, with a share of exact
    zeros and of subnormals."""
    cells = rng.exponential(size=n) * np.exp2(rng.integers(-60, 60, size=n))
    cells = np.where(rng.random(n) < subnormals, rng.integers(1, 2 ** 52, size=n) * 5e-324, cells)
    return np.where(rng.random(n) < zeros, 0.0, cells)


def _reduced(cells, lengths) -> bytes:
    bounds = np.cumsum([0, *lengths])
    return np.array([np.add.reduce(cells[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(LENGTHS, min_size=1, max_size=40),
    seed=st.integers(0, 2 ** 32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    subnormals=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_row_sums_are_add_reduce(lengths, seed, zeros, subnormals):
    cells = _cells(np.random.default_rng(seed), sum(lengths), zeros, subnormals)
    assert _sampler.row_sums(cells, lengths).tobytes() == _reduced(cells, lengths)


def test_row_sums_of_every_length_at_once():
    """One row of each length 1..300 in one call, then in reverse order:
    the short, blocked and ``add.reduce`` rows side by side."""
    rng = np.random.default_rng(8)
    for lengths in (list(range(1, 301)), list(range(300, 0, -1))):
        cells = _cells(rng, sum(lengths), 0.1, 0.1)
        assert _sampler.row_sums(cells, lengths).tobytes() == _reduced(cells, lengths)


def test_row_sums_of_many_rows_per_length():
    """20,000 rows each of 3, 8 and 129 cells and one row of 2**16 + 1:
    each length one matrix of many rows, shuffled, ascending, descending."""
    rng = np.random.default_rng(14)
    lengths = np.repeat([3, 8, 129], 20_000).tolist() + [2 ** 16 + 1]
    rng.shuffle(lengths)
    for order in (lengths, sorted(lengths), sorted(lengths, reverse=True)):
        cells = _cells(rng, sum(order), 0.2, 0.0)
        assert _sampler.row_sums(cells, order).tobytes() == _reduced(cells, order)


@pytest.mark.parametrize("counts", [[1], [3, 1, 4], [2] * 50, [1000, 1, 7]], ids=str)
def test_sequential_sums_are_left_to_right(counts):
    values = _cells(np.random.default_rng(3), sum(counts), 0.1, 0.1)
    bounds = np.cumsum([0, *counts])
    expected = []
    for i, j in zip(bounds[:-1], bounds[1:]):
        total = 0.0
        for v in values[i:j].tolist():
            total += v
        expected.append(total)
    assert _sampler.sequential_sums(values, counts).tolist() == expected


def _joint_draws(draw, seed: int, trials: int, max_rows: int, max_cols: int):
    """``trials`` joints drawn by ``draw`` on ``seed``, and the stream's next
    draw after them."""
    rng = np.random.default_rng(seed)
    flat, sizes, trial_rows = draw(rng, trials, max_rows, max_cols)
    return flat.tobytes(), list(sizes), list(trial_rows), rng.integers(2 ** 62)


@pytest.mark.parametrize(
    "shape, max_trials",
    [((2, 1), 8), ((8, 8), 8), ((3, 40), 8), ((40, 40), 3), ((2, 2 ** 20), 1)],
    ids=str,
)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_c_samplers_draw_what_the_generator_methods_draw(shape, max_trials, seed, data):
    """The joints of `checker._draw_joints`, drawn through the C samplers,
    are those of the Generator methods, and so is the stream after them."""
    trials = data.draw(st.integers(1, max_trials))
    c = _joint_draws(checker._draw_joints, seed, trials, *shape)
    assert c == _joint_draws(reference_joints, seed, trials, *shape)


def test_the_c_samplers_serve_a_pcg64_generator():
    """A silent fall-back would still pass every report test, only slower."""
    assert _sampler.c_samplers() is not None
    assert _sampler.draws(np.random.default_rng(0)).c


def test_samplers_that_are_missing_or_draw_otherwise_are_not_used(monkeypatch):
    bounded, exponential = _sampler.c_samplers()

    def doubled(state, count, address):
        exponential(state, count, address)
        ctypes.c_double.from_address(address).value *= 2.0

    assert _sampler._reproduces((bounded, exponential))
    assert not _sampler._reproduces((bounded, doubled))
    with monkeypatch.context() as patch:
        patch.setattr(_sampler, "_reproduces", lambda fills: False)
        assert _sampler.c_samplers.__wrapped__() is None

    def missing(path):
        raise OSError(path)

    monkeypatch.setattr(_sampler.ctypes, "CDLL", missing)
    assert _sampler.c_samplers.__wrapped__() is None


@pytest.mark.parametrize(
    "family", [renyi(2.0), tsallis(0.5), general_escort(2.0, -1.0, 1.0)], ids=repr
)
def test_reports_do_not_depend_on_the_sampler(monkeypatch, family):
    configs = [
        CheckConfig(family, trials=60, seed=11),
        CheckConfig(family, trials=4, max_rows=3, max_cols=300, seed=11),
    ]
    reports = [run_suite(cfg).to_json() for cfg in configs]
    monkeypatch.setattr(_sampler, "c_samplers", lambda: None)
    assert not _sampler.draws(np.random.default_rng(0)).c
    assert [run_suite(cfg).to_json() for cfg in configs] == reports


def test_importing_the_cli_loads_no_sampler():
    """``numpy.random`` costs about 9 ms to import: a process that draws
    nothing, like most CLI commands, must not load it or the sampler."""
    code = ("import sys, gentropies.cli; "
            "print([m for m in ('numpy.random', 'gentropies._sampler') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
