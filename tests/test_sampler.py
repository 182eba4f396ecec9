"""The suite's draws through numpy's C samplers, and the replayed row sums,
against the Generator methods and ``np.add.reduce`` bit for bit."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trial_views import reference_counts, reference_distributions, reference_joints
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


def _drawn(draw, seed: int, *args):
    """The store that ``draw(rng, *args)`` draws on ``seed``, as bytes and lists,
    and the stream's next draw after it."""
    rng = np.random.default_rng(seed)
    flat, sizes, trial_rows = draw(rng, *args)
    return flat.dtype.str, flat.tobytes(), list(sizes), list(trial_rows), rng.integers(2 ** 62)


# Store shapes (max_rows, max_cols): the least, the default, and long and tall rows.
SHAPES = [(2, 1), (8, 8), (3, 40), (40, 3)]


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
    c = _drawn(checker._draw_joints, seed, trials, *shape)
    assert c == _drawn(reference_joints, seed, trials, *shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 8))
def test_c_samplers_draw_the_distributions_and_counts_of_the_generator_methods(shape, seed, trials):
    """The stores of `checker._draw_distributions` and `checker._draw_counts`,
    drawn through the C samplers, are those of the Generator methods, and so
    is the stream after each."""
    assert _sampler.draws(np.random.default_rng(seed)).c
    max_dims = list(shape) * trials
    c = _drawn(checker._draw_distributions, seed, max_dims)
    assert c == _drawn(reference_distributions, seed, max_dims)
    c = _drawn(checker._draw_counts, seed, trials, *shape)
    assert c == _drawn(reference_counts, seed, trials, *shape)


@pytest.mark.parametrize("c", [True, False], ids=["c-samplers", "methods"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_numpy_integer_counts_and_shapes_draw_what_python_ints_draw(monkeypatch, c, shape):
    """ctypes takes no numpy integer as an argument: the C path must convert them."""
    if not c:
        monkeypatch.setattr(_sampler, "c_samplers", lambda: None)
    assert _sampler.draws(np.random.default_rng(0)).c == c
    n, (rows, cols) = np.int64(5), np.array(shape, dtype=np.int64)
    for draw, args, numpy_args in [
        (checker._draw_joints, (5, *shape), (n, rows, cols)),
        (checker._draw_distributions, (list(shape) * 5,), ([rows, cols] * n,)),
        (checker._draw_distributions, (list(shape) * 5,), (np.tile([rows, cols], n),)),
        (checker._draw_counts, (5, *shape), (n, rows, cols)),
    ]:
        assert _drawn(draw, 3, *numpy_args) == _drawn(draw, 3, *args)


def test_the_c_samplers_serve_a_pcg64_generator():
    """A silent fall-back would still pass every report test, only slower."""
    assert _sampler.c_samplers() is not None
    assert _sampler.draws(np.random.default_rng(0)).c


def test_samplers_that_are_missing_or_draw_otherwise_are_not_used(monkeypatch):
    bounded, exponential = _sampler.c_samplers()

    def doubled(state, count, address):
        exponential(state, count, address)
        ctypes.c_double.from_address(address.value).value *= 2.0

    # samplers that read an argument otherwise than the loop passes it
    def inclusive(state, low, high, count, masked, out):  # the high end, not the range
        bounded(state, low, ctypes.c_uint64(max(high.value - low.value, 0)), count, masked, out)

    def masking(state, low, span, count, masked, out):  # masked rejection where not asked
        bounded(state, low, span, count, ctypes.c_bool(not masked.value), out)

    assert _sampler._reproduces((bounded, exponential))
    assert not _sampler._reproduces((bounded, doubled))
    with monkeypatch.context() as patch:
        patch.setattr(_sampler, "_reproduces", lambda fills: False)
        assert _sampler.c_samplers.__wrapped__() is None
    for wrong in (inclusive, masking):
        lib = SimpleNamespace(random_bounded_uint64_fill=wrong,
                              random_standard_exponential_fill=exponential)
        with monkeypatch.context() as patch:
            patch.setattr(_sampler.ctypes, "CDLL", lambda path: lib)
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


def test_importing_the_cli_loads_no_sampler(tmp_path):
    """A CLI process loads only the modules its command runs: ``numpy.random``
    alone costs about 9 ms to import, and the checker about 4 ms.  compute and
    trace load neither the suite, nor the means, nor the sampler, nor json;
    a conditional entropy with an exponential mean loads the generators, and
    check the checker."""
    dist = tmp_path / "d.csv"
    dist.write_text("0.25,0.75\n0.5,0.5\n")
    joint = tmp_path / "j.csv"
    joint.write_text("0.125,0.375\n0.25,0.25\n")
    code = f"""
import contextlib, io, sys
import gentropies.cli
WATCHED = ("gentropies.checker", "gentropies.generators", "gentropies._sampler",
           "numpy.random", "json")
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
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    compute, trace, conditional, check = proc.stdout.splitlines()
    assert compute == trace == "[]"
    assert conditional == "['gentropies.generators']"
    assert "'gentropies.checker'" in check
