import itertools
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import distributions, joints
from gentropies import (
    DimensionError,
    Distribution,
    JointDistribution,
    EscortUndefined,
    FormatError,
    LinearGenerator,
    NegativeMass,
    NotNormalized,
    ZeroMarginal,
    conditional,
    conditional_entropy,
    direct_product,
    escort,
    flatten,
    general_escort,
    make_distribution,
    make_joint,
    marginal,
    nath,
    quasi_mean,
    read_distributions,
    read_joint,
    refinement_joint,
    renyi,
    shannon,
    uniform,
    write_distribution,
    write_joint,
)
from gentropies import distributions as distributions_module

PROBE_ROWS = ((0.5, 0.0), (0.25, 0.25))


class TestMakeDistribution:
    def test_already_normalized(self):
        assert make_distribution((0.5, 0.5)).probs == (0.5, 0.5)

    def test_point_mass(self):
        assert make_distribution((1.0,)).probs == (1.0,)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_distribution((0.3, 0.3, 0.3))

    def test_empty(self):
        with pytest.raises(DimensionError):
            make_distribution(())

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            make_distribution((1.0, -1e-6))

    def test_tiny_negative_clipped(self):
        d = make_distribution((1.0, -1e-13))
        assert d.probs[1] == 0.0

    def test_renormalizes_exactly(self):
        d = make_distribution((0.5 + 4e-10, 0.5))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)


class TestUniform:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_entries(self, n):
        assert uniform(n).probs == (1.0 / n,) * n

    def test_zero_dimension(self):
        with pytest.raises(DimensionError):
            uniform(0)

    def test_dimension_must_be_an_integer(self):
        with pytest.raises(DimensionError, match="uniform dimension must be an integer, got 2.5"):
            uniform(2.5)
        assert uniform(np.int64(3)) == uniform(3)

    @pytest.mark.parametrize("n", [2 ** 63, 2 ** 70])
    def test_dimension_no_array_holds(self, n):
        """Refused by its size before numpy is asked for the array."""
        with mock.patch.object(np, "full", side_effect=AssertionError("allocated")):
            with pytest.raises(DimensionError, match=f"uniform dimension {n} is over"):
                uniform(n)

    def test_dimension_memory_cannot_hold(self):
        """A failed allocation is a typed error naming the size (the allocator
        is patched: the test allocates nothing)."""
        with mock.patch.object(np, "full", side_effect=MemoryError):
            with pytest.raises(DimensionError, match=f"uniform dimension {2 ** 40} does not fit"):
                uniform(2 ** 40)


class TestDirectProduct:
    def test_point_mass_column(self):
        j = direct_product(make_distribution((0.5, 0.5)), make_distribution((1.0, 0.0)))
        assert j.rows == ((0.5, 0.0), (0.5, 0.0))

    def test_uniform_square(self):
        j = direct_product(uniform(2), uniform(2))
        assert j.rows == ((0.25, 0.25), (0.25, 0.25))

    def test_quarter_three_quarter(self):
        j = direct_product(make_distribution((0.25, 0.75)), uniform(2))
        assert j.rows == ((0.125, 0.125), (0.375, 0.375))


class TestMarginal:
    def test_probe(self):
        assert marginal(make_joint(PROBE_ROWS)).probs == (0.5, 0.5)

    def test_refinement(self):
        assert marginal(refinement_joint((1, 3))).probs == (0.25, 0.75)

    def test_zero_total_mass(self):
        """A raw joint of total mass 0 has no marginal: no (nan, nan)."""
        with pytest.raises(ZeroMarginal, match="zero total mass"):
            marginal(JointDistribution([[0.0, 0.0], [0.0, 0.0]]))

    @given(distributions(max_size=6), distributions(max_size=6))
    def test_product_marginal_is_left_factor(self, p, q):
        m = marginal(direct_product(p, q))
        assert all(abs(a - b) <= 1e-15 for a, b in zip(m.probs, p.probs))


class TestConditional:
    def test_probe_rows(self):
        j = make_joint(PROBE_ROWS)
        assert conditional(j, 0).probs == (1.0, 0.0)
        assert conditional(j, 1).probs == (0.5, 0.5)

    @given(distributions(max_size=5, positive=True), distributions(max_size=5, positive=True))
    def test_product_conditional_is_right_factor(self, p, q):
        j = direct_product(p, q)
        for k in range(len(p)):
            row = conditional(j, k)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(row.probs, q.probs))

    def test_zero_marginal(self):
        j = make_joint(((0.0, 0.0), (0.5, 0.5)))
        with pytest.raises(ZeroMarginal):
            conditional(j, 0)

    @given(joints())
    @settings(max_examples=50)
    def test_rows_sum_to_one(self, j):
        for k, row in enumerate(j.rows):
            if math.fsum(row) > 0.0:
                assert math.fsum(conditional(j, k).probs) == pytest.approx(1.0, abs=1e-12)


class TestEscort:
    def test_identity_at_one(self):
        p = make_distribution((0.25, 0.75))
        assert escort(p, 1.0) is p

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, -1.0])
    def test_uniform_fixed_point(self, alpha):
        u = uniform(5)
        assert escort(u, alpha).probs == u.probs

    def test_square_escort(self):
        e = escort(make_distribution((0.25, 0.75)), 2.0)
        assert e.probs[0] == pytest.approx(0.1, rel=1e-14)
        assert e.probs[1] == pytest.approx(0.9, rel=1e-14)

    def test_zero_exponent_gives_uniform(self):
        e = escort(make_distribution((0.25, 0.75)), 0.0)
        assert e.probs == (0.5, 0.5)

    def test_undefined_for_nonpositive_exponent_with_zero(self):
        with pytest.raises(EscortUndefined):
            escort(make_distribution((1.0, 0.0)), -1.0)

    def test_undefined_without_a_positive_entry(self):
        """A raw all-zero run has no escort at any exponent; so a conditional
        entropy, whose escort weights are the marginal's, of an all-zero joint."""
        with pytest.raises(EscortUndefined, match="escort of exponent 2.0 is undefined"):
            escort(Distribution([0.0, 0.0]), 2.0)
        with pytest.raises(EscortUndefined, match="escort of exponent 2.0 is undefined"):
            conditional_entropy(renyi(2.0), JointDistribution([[0.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "family", [shannon(), nath(1.0, 0.5, -2.0), general_escort(1.0, -1.5, 0.0)], ids=repr)
    def test_undefined_without_a_positive_entry_at_exponent_one(self, family):
        """At alpha 1 the escort is the input itself, once each run has a positive entry."""
        with pytest.raises(EscortUndefined, match="escort of exponent 1.0 is undefined"):
            escort(Distribution([0.0, 0.0]), 1.0)
        with pytest.raises(EscortUndefined, match="escort of exponent 1.0 is undefined"):
            conditional_entropy(family, JointDistribution([[0.0, 0.0], [0.0, 0.0]]))
        assert conditional_entropy(family, JointDistribution([[0.0, 0.0], [0.5, 0.5]])) > 0.0

    def test_large_exponent_stays_finite(self):
        e = escort(make_distribution((0.2, 0.8)), 100.0)
        assert math.fsum(e.probs) == pytest.approx(1.0, abs=1e-12)
        assert e.probs[1] > 1 - 1e-12

    @given(
        distributions(min_size=2, max_size=6, positive=True),
        st.floats(0.25, 4.0),
        st.floats(0.25, 4.0),
    )
    def test_composition(self, p, a, b):
        left = escort(escort(p, a), b)
        right = escort(p, a * b)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left.probs, right.probs))

    @given(
        distributions(min_size=2, max_size=5, positive=True),
        distributions(min_size=2, max_size=5, positive=True),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_commutes_with_products(self, p, q, alpha):
        left = escort(flatten(direct_product(p, q)), alpha)
        right = flatten(direct_product(escort(p, alpha), escort(q, alpha)))
        assert all(abs(x - y) <= 1e-12 for x, y in zip(left.probs, right.probs))


class TestRefinementJoint:
    def test_one_three(self):
        j = refinement_joint((1, 3))
        assert j.rows == ((0.25,), (0.25, 0.25, 0.25))
        assert marginal(j).probs == (0.25, 0.75)

    def test_one_one(self):
        assert refinement_joint((1, 1)).rows == ((0.5,), (0.5,))

    def test_two_two(self):
        j = refinement_joint((2, 2))
        assert j.rows == ((0.25, 0.25), (0.25, 0.25))
        assert marginal(j).probs == (0.5, 0.5)
        assert conditional(j, 0).probs == (0.5, 0.5)

    def test_errors(self):
        with pytest.raises(DimensionError):
            refinement_joint(())
        with pytest.raises(DimensionError):
            refinement_joint((2, 0))

    def test_counts_must_be_integers(self):
        """Rows of 1.5 cells are not built as rows of 1."""
        with pytest.raises(DimensionError, match="refinement count must be an integer, got 1.5"):
            refinement_joint([1.5, 2])
        assert refinement_joint([np.int64(2), np.int64(3)]) == refinement_joint((2, 3))

    def test_counts_may_be_an_iterator(self):
        """The counts are read once, so an iterator builds the list's joint."""
        j, expected = refinement_joint(iter([1, 2])), refinement_joint([1, 2])
        assert (j._flat.tobytes(), list(j._bounds)) == (expected._flat.tobytes(), list(expected._bounds))
        with pytest.raises(DimensionError, match="at least one block"):
            refinement_joint(iter([]))
        with pytest.raises(DimensionError, match=r"got \(2, 0\)"):
            refinement_joint(iter([2, 0]))

    def test_counts_may_be_an_array(self):
        """An array's truth value is ambiguous: its length decides emptiness."""
        j, expected = refinement_joint(np.array([1, 2])), refinement_joint([1, 2])
        assert (j._flat.tobytes(), list(j._bounds)) == (expected._flat.tobytes(), list(expected._bounds))
        with pytest.raises(DimensionError):
            refinement_joint(np.array([], dtype=int))

    @pytest.mark.parametrize("counts, m", [
        ([2 ** 63], 2 ** 63),
        ([2 ** 70], 2 ** 70),
        ([2 ** 62] * 4, 2 ** 64),  # wraps to 0 in an int64 cumsum
        ([np.int64(2 ** 62), np.int64(2 ** 62)], 2 ** 63),
    ])
    def test_size_no_array_holds(self, counts, m):
        """The cell count is summed in Python ints and refused before any array is made."""
        with mock.patch.object(np, "full", side_effect=AssertionError("allocated")):
            with pytest.raises(DimensionError, match=f"refinement size {m} is over"):
                refinement_joint(counts)

    def test_size_memory_cannot_hold(self):
        with mock.patch.object(np, "full", side_effect=MemoryError):
            with pytest.raises(DimensionError, match=f"refinement size {2 ** 33 + 1} does not fit"):
                refinement_joint([2 ** 33, 1])

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    def test_flatten_is_uniform_exactly(self, counts):
        assert flatten(refinement_joint(counts)) == uniform(sum(counts))


class TestFlatten:
    def test_probe(self):
        assert flatten(make_joint(PROBE_ROWS)).probs == (0.5, 0.0, 0.25, 0.25)

    def test_product_ordering(self):
        p = make_distribution((0.25, 0.75))
        q = make_distribution((0.5, 0.5))
        flat = flatten(direct_product(p, q))
        assert flat.probs == (0.125, 0.125, 0.375, 0.375)

    @pytest.mark.parametrize("n", range(1, 23))
    def test_fair_coin_step_is_uniform_bit_for_bit(self, n):
        # products of powers of two are exact: by induction the n-fold
        # fair-coin chain is uniform(2**n), which the chain check relies on
        step = flatten(direct_product(uniform(2 ** (n - 1)), uniform(2)))
        assert step._array.tobytes() == uniform(2 ** n)._array.tobytes()


class TestJointValidation:
    def test_empty_joint(self):
        with pytest.raises(DimensionError):
            make_joint(())

    def test_empty_row(self):
        with pytest.raises(DimensionError):
            make_joint(((0.5, 0.5), ()))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_joint(((0.5, 0.1),))

    def test_negative(self):
        with pytest.raises(NegativeMass):
            make_joint(((1.0, -1e-3),))


class TestFileFormats:
    def test_json_distribution_roundtrip(self, tmp_path):
        path = tmp_path / "d.json"
        d = make_distribution((0.25, 0.75))
        write_distribution(path, d)
        assert read_distributions(path) == [d]

    def test_csv_distribution_multiline(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,0.5\n0.25,0.25,0.25,0.25\n")
        dists = read_distributions(path)
        assert dists == [uniform(2), uniform(4)]

    def test_csv_distribution_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        d = make_distribution((1 / 3, 1 / 3, 1 / 3))
        write_distribution(path, d, fmt="csv")
        assert read_distributions(path) == [d]

    def test_json_joint_roundtrip(self, tmp_path):
        path = tmp_path / "j.json"
        j = make_joint(PROBE_ROWS)
        write_joint(path, j)
        assert read_joint(path) == j

    def test_csv_joint_roundtrip(self, tmp_path):
        path = tmp_path / "j.csv"
        j = make_joint(((0.1, 0.2), (0.3, 0.2, 0.2)))
        write_joint(path, j, fmt="csv")
        assert read_joint(path) == j

    def test_reader_applies_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"p": [0.3, 0.3]}')
        with pytest.raises(NotNormalized):
            read_distributions(path)

    def test_reader_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("0.5,banana\n")
        with pytest.raises(FormatError):
            read_distributions(path)

    def test_reader_rejects_wrong_json_shape(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"q": [1.0]}')
        with pytest.raises(FormatError, match='weird.json: expected an object with a "p" key$'):
            read_distributions(path)
        with pytest.raises(FormatError, match='weird.json: expected an object with a "rows" key$'):
            read_joint(path)

    @pytest.mark.parametrize(
        "payload",
        ['{"p": 0.5}', '{"p": ["x", 0.5]}', '{"p": [[0.5], [0.5]]}'],
    )
    def test_reader_rejects_non_numeric_json(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(FormatError):
            read_distributions(path)

    def test_readers_reject_an_integer_past_the_float_range(self, tmp_path):
        """The entries reach the validating constructors unconverted: an
        integer float() cannot read is a typed error, not an OverflowError."""
        huge = "1" + "0" * 400
        path = tmp_path / "huge.json"
        path.write_text(f'{{"p": [0.5, {huge}]}}')
        with pytest.raises(NotNormalized, match="probability entry 1000+ is not finite"):
            read_distributions(path)
        path.write_text(f'{{"rows": [[0.5], [{huge}]]}}')
        with pytest.raises(NotNormalized, match="joint entry 1000+ is not finite"):
            read_joint(path)

    @pytest.mark.parametrize("reader", [read_distributions, read_joint])
    def test_readers_reject_a_file_that_is_not_utf8(self, tmp_path, reader):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe0.5,0.5\n")
        with pytest.raises(FormatError, match="utf16.csv is not UTF-8 text"):
            reader(path)

    def test_joint_reader_rejects_non_numeric_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [[0.5, "x"], [0.25, 0.25]]}')
        with pytest.raises(FormatError):
            read_joint(path)
        path.write_text('{"rows": 3}')
        with pytest.raises(FormatError, match='bad.json: "rows" must be a list of rows$'):
            read_joint(path)

    def test_json_payload_is_plain(self, tmp_path):
        path = tmp_path / "d.json"
        write_distribution(path, uniform(2))
        assert json.loads(path.read_text()) == {"p": [0.5, 0.5]}

    @pytest.mark.parametrize("reader, key", [(read_distributions, "p"), (read_joint, "rows")])
    def test_readers_reject_invalid_json(self, tmp_path, reader, key):
        path = tmp_path / "cut.json"
        path.write_text(f'{{"{key}": [0.5,')
        with pytest.raises(FormatError, match=r"^invalid JSON in .*cut\.json: "):
            reader(path)

    @pytest.mark.parametrize("reader, what", [
        (read_distributions, "distributions"), (read_joint, "joint rows"),
    ])
    def test_readers_reject_a_blank_csv(self, tmp_path, reader, what):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n\t\n")
        with pytest.raises(FormatError, match=rf"blank\.csv: no {what} found$"):
            reader(path)

    def test_json_rows_are_checked_before_any_entry(self, tmp_path):
        """Every JSON row is checked to be a list before an entry is read."""
        path = tmp_path / "j.json"
        path.write_text('{"rows": [["x"], 0.5]}')
        with pytest.raises(FormatError, match="j.json: expected a list of numbers, got float$"):
            read_joint(path)

    def test_csv_joint_reads_every_line_before_validating(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text("0.5,-1\n0.5,x\n")
        with pytest.raises(FormatError, match="unparseable number in .*j.csv: "):
            read_joint(path)

    @pytest.mark.parametrize("writer, value", [
        (write_distribution, make_distribution([0.5, 0.5])),
        (write_joint, make_joint(PROBE_ROWS)),
    ])
    def test_writers_reject_an_unknown_format(self, tmp_path, writer, value):
        path = tmp_path / "out.xml"
        with pytest.raises(FormatError, match=r"^unknown format 'xml' \(expected 'json' or 'csv'\)$"):
            writer(path, value, fmt="xml")
        assert not path.exists()

    @pytest.mark.parametrize("fmt, expected", [
        ("json", b'{"p": [0.1, 0.2, 0.7000000000000001]}\n'),
        ("csv", b"0.1,0.2,0.7000000000000001\n"),
    ])
    def test_distribution_writer_bytes(self, tmp_path, fmt, expected):
        path = tmp_path / "d.out"
        write_distribution(path, make_distribution([0.1, 0.2, 0.7000000000000001]), fmt=fmt)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("fmt, expected", [
        ("json", b'{"rows": [[0.5, 0.0], [0.25, 0.125, 0.125]]}\n'),
        ("csv", b"0.5,0.0\n0.25,0.125,0.125\n"),
    ])
    def test_joint_writer_bytes(self, tmp_path, fmt, expected):
        path = tmp_path / "j.out"
        write_joint(path, make_joint([(0.5, 0.0), (0.25, 0.125, 0.125)]), fmt=fmt)
        assert path.read_bytes() == expected


@given(distributions())
def test_distribution_is_normalized(d):
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0.0 for v in d.probs)


def test_distribution_value_semantics():
    assert make_distribution((0.5, 0.5)) == uniform(2)
    assert Distribution((0.5, 0.5)) in {uniform(2)}


class TestArrayLayout:
    def test_views_are_cached_tuples(self):
        d = make_distribution([0.25, 0.75])
        assert d.probs == (0.25, 0.75) and d.probs is d.probs
        j = make_joint(PROBE_ROWS)
        assert j.rows == PROBE_ROWS and j.rows is j.rows
        assert j.row_lengths == (2, 2) and len(j) == 2

    def test_row_views_are_tuples_of_python_numbers(self, tmp_path):
        """Every constructor stores intp row bounds and gives its rows and row
        lengths as tuples of Python floats and ints."""
        path = tmp_path / "j.json"
        write_joint(path, make_joint(PROBE_ROWS))
        wrapped = JointDistribution._wrap(np.array([0.5, 0.25, 0.25]), [0, 1, 3])
        cases = [
            (JointDistribution(PROBE_ROWS), PROBE_ROWS),
            (make_joint(PROBE_ROWS), PROBE_ROWS),
            (read_joint(path), PROBE_ROWS),
            (direct_product(uniform(2), uniform(4)), ((0.125,) * 4,) * 2),
            (refinement_joint([1, 3]), ((0.25,), (0.25,) * 3)),
            (wrapped, ((0.5,), (0.25, 0.25))),
        ]
        for joint, rows in cases:
            assert joint._bounds.dtype == np.intp
            assert joint.rows == rows and joint.row_lengths == tuple(map(len, rows))
            assert type(joint.rows) is tuple and {type(r) for r in joint.rows} == {tuple}
            assert {type(v) for row in joint.rows for v in row} == {float}
            assert type(joint.row_lengths) is tuple and {type(n) for n in joint.row_lengths} == {int}

    def test_raw_constructors_accept_sequences(self):
        assert JointDistribution([[0.5, 0.0], [0.25, 0.25]]) == make_joint(PROBE_ROWS)
        assert hash(JointDistribution(PROBE_ROWS)) == hash(make_joint(PROBE_ROWS))
        assert Distribution([0.5, 0.5]) == Distribution((0.5, 0.5))
        assert repr(Distribution((0.5, 0.5))) == "Distribution(probs=(0.5, 0.5))"
        assert Distribution((0.5, 0.5)) != (0.5, 0.5)
        assert list(Distribution((0.25, 0.75))) == [0.25, 0.75]
        assert JointDistribution(PROBE_ROWS) != PROBE_ROWS
        assert repr(JointDistribution(PROBE_ROWS)) == (
            "JointDistribution(rows=((0.5, 0.0), (0.25, 0.25)))"
        )

    def test_stored_arrays_are_not_writable(self):
        j = make_joint(PROBE_ROWS)
        with pytest.raises(ValueError):
            flatten(j)._array[0] = 1.0

    def test_conditional_negative_index(self):
        j = make_joint(PROBE_ROWS)
        assert conditional(j, -1) == conditional(j, 1)
        assert conditional(j, -2) == conditional(j, 0)
        for k in (2, -3):
            with pytest.raises(IndexError):
                conditional(j, k)

    @pytest.mark.parametrize("counts", [(100, 200, 300), (1, 1023), (256,), (3, 5000)])
    def test_flatten_refinement_is_uniform_at_vector_sizes(self, counts):
        assert flatten(refinement_joint(counts)) == uniform(sum(counts))

    def test_large_product_marginal_and_conditional(self):
        rng = np.random.default_rng(4)
        p = make_distribution((lambda x: (x / x.sum()).tolist())(rng.exponential(1.0, 300)))
        q = make_distribution((0.25, 0.5, 0.25))
        j = direct_product(p, q)
        assert j.rows == tuple(tuple(pk * ql for ql in q.probs) for pk in p.probs)
        sums = [math.fsum(row) for row in j.rows]
        assert marginal(j).probs == tuple(s / math.fsum(sums) for s in sums)
        row = j.rows[-1]
        assert conditional(j, -1).probs == tuple(v / math.fsum(row) for v in row)


N_LARGE = 300
GOOD = 1.0 / N_LARGE
BAD_ENTRIES = {
    "nan": [(5, math.nan)],
    "inf": [(7, math.inf)],
    "-inf": [(7, -math.inf)],
    "negative": [(9, -1e-6)],
    "none": [(5, None)],
    "negative-before-none": [(3, -1.0), (10, None)],
    "none-before-nan": [(3, None), (10, math.nan)],
    "string": [(3, "abc")],
    "nested": [(3, [0.1])],
    "not-normalized": [(0, 0.5)],
}


def _error(fn, arg):
    try:
        fn(arg)
    except Exception as exc:  # noqa: BLE001 - comparing whatever is raised
        return type(exc), str(exc)
    return None


def _reference_error(values, what, summed):
    """What the `_clip` reference loop raises, else the sum check's error."""
    try:
        total = math.fsum(distributions_module._clip(values, what))
    except Exception as exc:  # noqa: BLE001 - comparing whatever is raised
        return type(exc), str(exc)
    return NotNormalized, f"{summed} sum to {total!r}, not 1"


@pytest.mark.parametrize("case", list(BAD_ENTRIES))
def test_vector_validation_raises_like_the_scalar_loop(case):
    for n in (3, 255, N_LARGE):
        values = [1.0 / n] * n
        for i, v in BAD_ENTRIES[case]:
            values[i % n] = v  # keeps the offenders' order at n = 3
        rows = [values[:n // 3], values[n // 3:]]
        assert _error(make_distribution, values) == _reference_error(
            values, "probability", "probabilities"
        )
        assert _error(make_joint, rows) == _reference_error(values, "joint", "joint entries")


@pytest.mark.parametrize(
    "entry, error, message",
    [
        ("abc", FormatError, "entry 'abc' is not a number"),
        ([0.5], FormatError, r"entry \[0.5\] is not a number"),
        (None, FormatError, "entry None is not a number"),
        (10 ** 400, NotNormalized, "entry 1000+ is not finite"),
    ],
    ids=["string", "nested", "none", "int-beyond-float"],
)
@pytest.mark.parametrize("n", [3, N_LARGE])
def test_unreadable_entries_are_typed_errors(entry, error, message, n):
    values = [1.0 / n] * n
    values[1] = entry
    with pytest.raises(error, match=f"probability {message}"):
        make_distribution(values)
    with pytest.raises(error, match=f"joint {message}"):
        make_joint([values[:1], values[1:]])


def test_numeric_strings_stay_accepted():
    assert make_distribution([0.5, "0.5"]) == make_distribution([0.5, 0.5])


def test_vector_validation_clips_tiny_negatives():
    values = [GOOD] * N_LARGE
    values[4], values[5] = -1e-13, 2 * GOOD
    d = make_distribution(values)
    assert d.probs[4] == 0.0 and math.copysign(1.0, d.probs[4]) == 1.0


def test_single_list_read_equals_the_chained_read():
    """`make_distribution` reads its one list directly, not through a chain
    of parts: 2**17 entries, ints and tiny negatives among them, give the
    bytes of the chained read."""
    n = 2 ** 17
    rng = np.random.default_rng(17)
    odd = rng.choice(n, 64, replace=False)
    x = rng.exponential(1.0, n)
    x[odd] = 0.0
    values = (x / x.sum()).tolist()
    for i in odd.tolist():
        values[i] = -1e-13 if i % 2 else 0
    parts = [values[:n // 3], values[n // 3:]]
    chained = distributions_module._clipped(parts, [0, n // 3, n], "probability")
    direct = distributions_module._clipped([values], [0, n], "probability")
    assert direct.tobytes() == chained.tobytes()
    expected = chained / distributions_module.exact_sum(chained)
    assert make_distribution(values)._array.tobytes() == expected.tobytes()


def test_vector_validation_empty_row_after_bad_entry():
    rows = [[GOOD] * 299 + [-1.0], [], [GOOD]]
    with pytest.raises(NegativeMass):
        make_joint(rows)
    with pytest.raises(DimensionError):
        make_joint([[GOOD] * 299, [], [GOOD, None]])


@st.composite
def near_simplex_entries(draw):
    """1-300 entries summing to 1 within tolerance, with exact zeros, -0.0
    and tiny negatives in [-1e-12, 0) among them."""
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from([255, 256, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = rng.integers(0, 4, n)
    kinds[rng.integers(0, n)] = 0
    positive = rng.exponential(1.0, n)
    positive /= math.fsum(positive[kinds == 0].tolist())
    tiny = -rng.uniform(0.0, 1e-12, n) - 5e-324
    values = np.select([kinds == 0, kinds == 1, kinds == 2], [positive, 0.0, -0.0], tiny)
    return values.tolist()


@given(values=near_simplex_entries(), cut_seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_stored_entries_are_clipped_over_fsum_bit_for_bit(values, cut_seed):
    clipped = [0.0 if v < 0.0 else v for v in values]
    total = math.fsum(clipped)
    expected = [(c / total).hex() for c in clipped]
    assert [v.hex() for v in make_distribution(values).probs] == expected
    rng = np.random.default_rng(cut_seed)
    cuts = sorted(rng.choice(np.arange(1, len(values)), min(len(values) - 1, 5), replace=False))
    rows = [values[i:j] for i, j in zip([0, *cuts], [*cuts, len(values)])]
    joint = make_joint(rows)
    assert [v.hex() for row in joint.rows for v in row] == expected
    assert joint.row_lengths == tuple(len(row) for row in rows)



# ---------------------------------------------------------------------------
# The struct reader: chunks of at most `_BLOCK` entries packed as C doubles

BLOCK = distributions_module._BLOCK


class _OnlyFloat:
    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class _OnlyIndex:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# Entry types that `float()` reads, each made from a uniform draw u in [0, 1).
ENTRY_TYPES = [
    lambda u: u,
    lambda u: -0.0,
    lambda u: 5e-324,
    lambda u: 2.225073858507201e-308 * u,  # subnormal
    lambda u: int(u * (2 ** 63 + 12345)),
    lambda u: u < 0.5,
    lambda u: np.float32(u),
    lambda u: np.int64(u * 2 ** 62),
    lambda u: np.longdouble(u) / 3,
    lambda u: Fraction(int(u * 10 ** 9), 7),
    lambda u: Decimal(f"{u:.30f}"),
    lambda u: _OnlyFloat(u),
    lambda u: _OnlyIndex(int(u * 2 ** 40)),
]
DTYPES = [np.float64, np.float32, np.float16, np.longdouble, np.int64, np.uint64, np.int8, np.bool_]


def _part_lengths(shape, rng):
    if shape == "long":  # one part longer than a chunk, with a ragged tail
        return [2 * BLOCK + int(rng.integers(1, BLOCK))]
    if shape == "rows of 8":
        return [8] * 4096
    # long and short rows mixed, two of them filling a chunk exactly
    lengths = rng.integers(1, 600, 200).tolist()
    lengths[50:50] = [BLOCK + 17]
    lengths[120:120] = [BLOCK, BLOCK - 1]
    return lengths


@st.composite
def typed_parts(draw):
    """Parts of nonnegative entries of every type in ``ENTRY_TYPES``, as
    lists, tuples or, mixed with lists, 1-D ndarrays of the ``DTYPES``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lengths = _part_lengths(draw(st.sampled_from(["long", "rows of 8", "mixed"])), rng)
    entries = rng.random(sum(lengths)).tolist()
    for at in rng.choice(len(entries), 400, replace=False).tolist():
        entries[at] = ENTRY_TYPES[at % len(ENTRY_TYPES)](entries[at])
    kind = draw(st.sampled_from(["list", "tuple", "ndarray"]))
    parts = []
    for i, j in itertools.pairwise(itertools.accumulate(lengths, initial=0)):
        if kind == "tuple":
            parts.append(tuple(entries[i:j]))
        elif kind == "ndarray" and rng.random() < 0.5:
            dtype = DTYPES[int(rng.integers(len(DTYPES)))]
            parts.append((rng.random(j - i) * 100).astype(dtype))
        else:
            parts.append(entries[i:j])
    return parts, [0, *itertools.accumulate(lengths)]


@given(typed_parts())
@settings(max_examples=30, deadline=None)
def test_reader_stores_the_bits_numpy_reads(case):
    """`struct` reads every chunk itself (the `_clip` loop never runs) and
    stores what `np.fromiter` stores, bit for bit."""
    parts, bounds = case
    expected = np.fromiter(itertools.chain.from_iterable(parts), np.float64, bounds[-1])
    with mock.patch.object(distributions_module, "_clip", side_effect=AssertionError("fell back")):
        got = distributions_module._clipped(parts, bounds, "joint")
    assert got.tobytes() == expected.tobytes()


def _raises_like_the_scalar_loop(values, rows):
    assert _error(make_distribution, values) == _reference_error(
        list(values), "probability", "probabilities"
    )
    assert _error(make_joint, rows) == _reference_error(list(values), "joint", "joint entries")


@pytest.mark.parametrize(
    "offender", [None, "abc", [0.1], 10 ** 400, math.nan, math.inf, -1e-11, -1],
    ids=["none", "string", "nested", "int-beyond-float", "nan", "inf", "negative", "minus-one"],
)
def test_offenders_in_a_later_chunk_raise_like_the_scalar_loop(offender):
    """An offender past the first chunk of one long part, or in the second
    chunk of rows of 8, raises what `_clip` raises; so does the earlier of it
    and a later offender that `struct` refuses or that only the checks reject."""
    n = 5000 * 8
    values = [1.0 / n] * n
    values[BLOCK + 5] = offender
    for later in (1.0 / n, None, math.nan):
        values[BLOCK + 9] = later
        _raises_like_the_scalar_loop(values, [values[i:i + 8] for i in range(0, n, 8)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.longdouble])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-6, -1e-13])
def test_ndarray_offenders_raise_like_the_scalar_loop(dtype, bad):
    arr = np.full(N_LARGE, GOOD, dtype)
    arr[7] = bad
    _raises_like_the_scalar_loop(arr, [arr[:100], arr[100:]])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1000, 2 * BLOCK + 5])
def test_ndarray_part_is_read_with_the_bits_of_float(dtype, n):
    arr = (np.random.default_rng(5).random(n) * 3).astype(dtype)
    expected = np.array([float(v) for v in arr])
    with mock.patch.object(distributions_module, "_clip", side_effect=AssertionError("fell back")):
        got = distributions_module._clipped([arr], [0, n], "probability")
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("at", [1, BLOCK + 5])
def test_masked_entries_are_not_mass(at):
    """A masked entry reads as nan, as ``float(np.ma.masked)`` does, not as
    the data under the mask: the array is rejected though its data sum to 1."""
    n = 2 * BLOCK
    arr = np.ma.array(np.full(n, 1.0 / n), mask=np.arange(n) == at)
    with pytest.warns(UserWarning, match="masked element"):
        with pytest.raises(NotNormalized, match="probability entry nan is not finite"):
            make_distribution(arr)
    with pytest.warns(UserWarning, match="masked element"):
        with pytest.raises(NotNormalized, match="joint entry nan is not finite"):
            make_joint([arr[:BLOCK], arr[BLOCK:]])


def test_object_and_string_arrays_are_read_entry_by_entry():
    assert make_distribution(np.array([0.5, "0.5"])) == make_distribution([0.5, 0.5])
    assert make_distribution(np.array([Decimal("0.5"), 0.5], object)) == make_distribution([0.5, 0.5])
    with pytest.raises(FormatError, match="probability entry None is not a number"):
        make_distribution(np.array([0.5, None], object))


def test_joint_of_a_2d_ndarray_equals_the_joint_of_its_lists():
    arr = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert make_joint(arr)._flat.tobytes() == make_joint(arr.tolist())._flat.tobytes()
    arr = np.random.default_rng(3).exponential(1.0, (40, 300))
    arr /= arr.sum()
    joint = make_joint(arr)
    assert joint._flat.tobytes() == make_joint(arr.tolist())._flat.tobytes()
    assert joint.row_lengths == (300,) * 40


def test_joint_of_an_empty_iterator_needs_a_row():
    with pytest.raises(DimensionError, match="at least one row"):
        make_joint(row for row in [])


def test_iterators_are_read_once():
    assert make_distribution(v for v in [0.5, 0.5]) == make_distribution([0.5, 0.5])
    assert make_joint(iter(row) for row in PROBE_ROWS) == make_joint(PROBE_ROWS)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_distribution(1.0), "probability vector 1.0 is not"),
        (lambda: make_distribution(np.float64(0.5)), r"probability vector np.float64\(0.5\) is not"),
        (lambda: make_distribution(np.array(1.0)), r"probability vector array\(1.\) is not"),
        (lambda: make_joint(1.0), "joint 1.0 is not"),
        (lambda: make_joint([0.5, 0.5]), "joint row 0.5 is not"),
        (lambda: make_joint([[0.5], 0.5]), "joint row 0.5 is not"),
    ],
    ids=["float", "numpy-scalar", "0-d-array", "joint", "first-row", "later-row"],
)
def test_a_scalar_for_values_or_a_row_is_a_format_error(call, message):
    with pytest.raises(FormatError, match=message):
        call()


def _traced_peak(fn):
    """The most bytes that ``fn()`` holds at once, as tracemalloc (which
    sees numpy's buffers) counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_constructors_hold_no_input_sized_temporary():
    """Lists are read a chunk at a time and normalized in place: on 2**20
    entries (8 MiB), as one run or as 1024 ragged rows, the peak stays below
    1.25x the result (a second input-sized array would make it 2x)."""
    rng = np.random.default_rng(11)
    x = rng.exponential(1.0, 2 ** 20)
    x[rng.random(x.size) < 0.1] = 0.0
    values = (x / x.sum()).tolist()
    assert _traced_peak(lambda: make_distribution(values)) < 1.25 * x.nbytes
    cuts = np.sort(rng.choice(np.arange(1, x.size), 1023, replace=False)).tolist()
    rows = [values[i:j] for i, j in itertools.pairwise([0, *cuts, x.size])]
    assert _traced_peak(lambda: make_joint(rows)) < 1.25 * x.nbytes


def test_conditional_entropy_holds_one_input_sized_array():
    """The rows of a held 1024 x 1024 joint are divided by their sums into one
    new array, with no divisor spread over the cells first: the peak stays
    below 1.25x one array of its cells."""
    square = np.random.default_rng(12).exponential(1.0, (1024, 1024))
    joint = make_joint((square / square.sum()).tolist())
    assert _traced_peak(lambda: conditional_entropy(shannon(), joint)) < 1.25 * square.nbytes


def test_marginal_of_many_short_rows_holds_one_block_of_pieces():
    """The exact row sums of a held 2**19 x 2 joint round each block's rows as
    the block ends, and take the joint's bounds as they are, from 0: `marginal`
    peaks at 1.05x its cells at most (holding every block's pieces until the
    last block took 4.2x, and a rebased copy of the bounds 1.24x)."""
    cells = np.random.default_rng(13).exponential(1.0, (2 ** 19, 2))
    joint = make_joint(cells / cells.sum())
    assert _traced_peak(lambda: marginal(joint)) <= 1.05 * cells.nbytes
    rows = joint._flat.reshape(-1, 2).tolist()
    assert joint._row_sums().tolist() == [math.fsum(row) for row in rows]


def test_escort_of_positive_entries_holds_one_input_sized_array():
    """With no zero entry the escort's weights are its result, written over its
    logs, with no zero array to scatter them into: `escort` of 2**20 positive
    entries peaks below 1.25x them (a full-length zero output took 2.13x)."""
    x = np.random.default_rng(14).exponential(1.0, 2 ** 20)
    p = make_distribution(x / x.sum())
    assert _traced_peak(lambda: escort(p, 2.0)) < 1.25 * x.nbytes


# A value of the wrong type names the expected class, not a private attribute.
WRONG_TYPE_CALLS = {
    "escort": (lambda v, path: escort(v, 2.0), "Distribution"),
    "marginal": (lambda v, path: marginal(v), "JointDistribution"),
    "conditional": (lambda v, path: conditional(v, 0), "JointDistribution"),
    "flatten": (lambda v, path: flatten(v), "JointDistribution"),
    "direct_product-p": (lambda v, path: direct_product(v, uniform(2)), "Distribution"),
    "direct_product-q": (lambda v, path: direct_product(uniform(2), v), "Distribution"),
    "write_distribution": (lambda v, path: write_distribution(path, v), "Distribution"),
    "write_joint": (lambda v, path: write_joint(path, v), "JointDistribution"),
    "quasi_mean": (lambda v, path: quasi_mean(LinearGenerator(), v, [1.0, 2.0]), "Distribution"),
}


@pytest.mark.parametrize("kind", ["list", "other-type"])
@pytest.mark.parametrize("call", list(WRONG_TYPE_CALLS))
def test_a_value_of_the_wrong_type_is_a_type_error(tmp_path, call, kind):
    fn, expected = WRONG_TYPE_CALLS[call]
    other = make_joint([[0.5], [0.5]]) if expected == "Distribution" else uniform(2)
    value = [0.5, 0.5] if kind == "list" else other
    path = tmp_path / "out.json"
    with pytest.raises(TypeError, match=f"^expected a {expected}, got "):
        fn(value, path)
    assert not path.exists()
