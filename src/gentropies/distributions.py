"""Finite probability distributions and ragged joint distributions.

Layout
------
A `Distribution` holds one float64 ndarray.  A `JointDistribution` is
stored CSR-style: one flat float64 array of all cells, row after row, and
the row bounds as one intp array, so row k is ``flat[bounds[k]:bounds[k + 1]]``.
No code writes to a stored array after construction, so arrays are shared
freely: `flatten` re-wraps the joint's flat array and `conditional` divides
a view of one row into a new array.  The flat arrays of joints are also
flagged read-only; flagging every small distribution's array as well costs
about 2 % of the axiom suite's run time.  The tuple views
``Distribution.probs`` and ``JointDistribution.rows`` are built on first use
and cached; equality and hashing are defined on them.

The two value types are immutable: every operation returns a new object and
is safe to call concurrently.  Validating constructors (`make_distribution`,
`make_joint`) accept anything within the input tolerances and renormalize
exactly by the sum.  They read every input into one float64 array with
`struct`, a chunk of at most ``_BLOCK`` entries at a time, check it in numpy
whatever its size, and report the same first offending entry as a scalar
loop.  The structural constructors (`uniform`, `direct_product`,
`refinement_joint`) build their entries directly so that identities such as
``flatten(refinement_joint(counts)) == uniform(sum(counts))`` hold exactly,
bit for bit.  The raw constructors ``Distribution(probs)`` and
``JointDistribution(rows)`` copy their sequences and trust the values.

File formats
------------
JSON: ``{"p": [..]}`` for a distribution, ``{"rows": [[..], [..]]}`` for a
joint.  CSV: one distribution per line (comma-separated probabilities); a
joint file holds one joint, one row per line.  Readers apply the same
validation as `make_distribution` / `make_joint`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._stable import _BLOCK, bounds_of, escort_weights, exact_sum, segment_sums
from .errors import (
    DimensionError,
    EscortUndefined,
    FormatError,
    NegativeMass,
    NotNormalized,
    ZeroMarginal,
    _integer,
)

#: |sum - 1| must be below this before renormalization.
SUM_TOLERANCE = 1e-9
#: entries in [-NEGATIVE_TOLERANCE, 0) are clipped to 0; below is an error.
NEGATIVE_TOLERANCE = 1e-12


class Distribution:
    """A point on the probability simplex: nonnegative entries summing to 1.

    Construct through `make_distribution` (validating) or `uniform`; the raw
    constructor trusts its input.
    """

    __slots__ = ("_array", "_probs")

    def __init__(self, probs: Sequence[float]) -> None:
        self._array = np.array(probs, dtype=np.float64)
        self._probs = None

    @classmethod
    def _wrap(cls, array: np.ndarray) -> Distribution:
        """Take a float64 array that nothing will write to."""
        self = cls.__new__(cls)
        self._array = array
        self._probs = None
        return self

    @property
    def probs(self) -> tuple[float, ...]:
        if self._probs is None:
            self._probs = tuple(self._array.tolist())
        return self._probs

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.probs == other.probs

    def __hash__(self) -> int:
        return hash(self.probs)

    def __repr__(self) -> str:
        return f"Distribution(probs={self.probs!r})"


class JointDistribution:
    """A ragged nonnegative array r_kl with grand total 1.

    Row k has its own length m_k; the marginal is the tuple of row sums and
    each positive-marginal row divided by its sum is a conditional
    distribution.
    """

    __slots__ = ("_flat", "_bounds", "_rows", "_sums")

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        rows = [list(row) for row in rows]
        self._flat = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.float64)
        self._flat.setflags(write=False)
        self._bounds = bounds_of([len(row) for row in rows])
        self._rows = None
        self._sums = None

    @classmethod
    def _wrap(cls, flat: np.ndarray, bounds: Sequence[int]) -> JointDistribution:
        """Take a flat float64 array and its row bounds; flags the array read-only."""
        self = cls.__new__(cls)
        flat.setflags(write=False)
        self._flat = flat
        self._bounds = np.asarray(bounds, dtype=np.intp)
        self._rows = None
        self._sums = None
        return self

    def _row_sums(self) -> np.ndarray:
        """The exact sum of every row, computed on first use and cached."""
        if self._sums is None:
            self._sums = np.array(segment_sums(self._flat, self._bounds))
        return self._sums

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        if self._rows is None:
            flat = self._flat.tolist()
            bounds = self._bounds.tolist()
            self._rows = tuple(tuple(flat[i:j]) for i, j in itertools.pairwise(bounds))
        return self._rows

    def __len__(self) -> int:
        return len(self._bounds) - 1

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return tuple(np.diff(self._bounds).tolist())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"JointDistribution(rows={self.rows!r})"


def _require(value, kind: type) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")


def _number(entry, what: str) -> float:
    """``float(entry)``, with a typed error for an entry that has no float value."""
    try:
        return float(entry)
    except (TypeError, ValueError):
        raise FormatError(f"{what} entry {entry!r} is not a number") from None
    except OverflowError:  # an int beyond the float range
        raise NotNormalized(f"{what} entry {entry!r} is not finite") from None


def _clip(values: Iterable[float], what: str) -> list[float]:
    out = []
    for entry in values:
        v = _number(entry, what)
        if not math.isfinite(v):
            raise NotNormalized(f"{what} entry {v!r} is not finite")
        if v < -NEGATIVE_TOLERANCE:
            raise NegativeMass(f"{what} entry {v!r} below -{NEGATIVE_TOLERANCE}")
        out.append(0.0 if v < 0.0 else v)
    return out


def _clipped(parts: list[Sequence[float]], bounds: list[int], what: str) -> np.ndarray:
    """`_clip` of the concatenated entries of ``parts``, as a float64 array.

    ``bounds`` are the cumulative part lengths from 0.  `struct` packs the
    entries as C doubles into one array, with the ``float()`` bits of every
    entry (``PyFloat_AsDouble``), one call per chunk of at most ``_BLOCK``
    entries: a longer part in slices, consecutive shorter parts chained, so
    that short rows cost no call each.  numpy then checks the array.  Input
    that `struct` refuses (None, strings, nested lists, ints beyond the float
    range), and the first entry the checks reject, go through `_clip`, so
    every error names the same first offender as that loop.
    """
    arr = np.empty(bounds[-1])
    i = 0
    try:
        while i < len(parts):
            at = bounds[i]
            j = bisect.bisect_right(bounds, at + _BLOCK, i + 1) - 1
            if j > i:  # the parts i to j - 1 fill at most _BLOCK entries
                entries = parts[i] if j == i + 1 else itertools.chain.from_iterable(parts[i:j])
                struct.pack_into(f"{bounds[j] - at}d", arr, 8 * at, *entries)
            else:  # part i alone is longer than _BLOCK
                part, j = parts[i], i + 1
                for k in range(0, len(part), _BLOCK):
                    chunk = part[k:k + _BLOCK]
                    struct.pack_into(f"{len(chunk)}d", arr, 8 * (at + k), *chunk)
            i = j
    except (struct.error, TypeError, ValueError, OverflowError):
        return np.array(_clip(itertools.chain.from_iterable(parts), what))
    lo = arr.min(initial=0.0)  # the initial 0.0 lets empty input through
    if not (lo >= -NEGATIVE_TOLERANCE and arr.max(initial=0.0) < math.inf):
        # a nan, an infinity or a negative entry: rerun `_clip` up to the first
        first = int((~np.isfinite(arr) | (arr < -NEGATIVE_TOLERANCE)).argmax())
        _clip(itertools.islice(itertools.chain.from_iterable(parts), first + 1), what)
    return np.where(arr < 0.0, 0.0, arr) if lo < 0.0 else arr


def _sized(values, what: str):
    """``values`` if it has a length, else its entries read once into a list.

    A scalar, which has neither, is a :class:`FormatError` that names it.
    """
    try:
        len(values)
    except TypeError:
        try:
            entries = iter(values)
        except TypeError:
            raise FormatError(f"{what} {values!r} is not a sequence of numbers") from None
        return list(entries)
    return values


def make_distribution(values: Sequence[float]) -> Distribution:
    """Validate and exactly renormalize a probability vector.

    Entries may be off by decimal rounding: anything in [-1e-12, 0) is
    clipped to 0 and the sum must be within 1e-9 of 1.  The stored entries
    are the clipped inputs divided by their sum.

    Raises
    ------
    DimensionError
        If ``values`` is empty.
    FormatError
        If ``values`` is a scalar, or an entry is not a number.
    NegativeMass
        If an entry is below -1e-12.
    NotNormalized
        If the sum is outside [1 - 1e-9, 1 + 1e-9].
    """
    values = _sized(values, "probability vector")
    vals = _clipped([values], [0, len(values)], "probability")
    if not len(vals):
        raise DimensionError("a distribution needs at least one entry")
    total = exact_sum(vals)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
    return Distribution._wrap(vals / total)


def make_joint(rows: Sequence[Sequence[float]]) -> JointDistribution:
    """Validate and exactly renormalize a ragged joint array.

    Same tolerances as `make_distribution`, applied to the grand total.
    """
    rows = [_sized(row, "joint row") for row in _sized(rows, "joint")]
    if not rows:
        raise DimensionError("a joint distribution needs at least one row")
    lengths = [len(row) for row in rows]
    bounds = bounds_of(lengths)
    if 0 in lengths:
        k = lengths.index(0)
        _clipped(rows[:k], bounds[:k + 1], "joint")  # raises for an offender before row k
        raise DimensionError("joint rows must be non-empty")
    flat = _clipped(rows, bounds, "joint")
    total = exact_sum(flat)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"joint entries sum to {total!r}, not 1")
    return JointDistribution._wrap(flat / total, bounds)


#: Most entries of one float64 array: numpy refuses more bytes than an intp holds.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _even(n: int, what: str) -> np.ndarray:
    """n entries of exactly 1/n.  A size that no array, or no free memory, can
    hold is a :class:`DimensionError` naming it, raised before any entry is set."""
    if n > _MAX_ENTRIES:
        raise DimensionError(f"{what} {n} is over the {_MAX_ENTRIES} entries an array holds")
    try:
        return np.full(n, 1.0 / n)
    except MemoryError:
        raise DimensionError(f"{what} {n} does not fit in memory") from None


def uniform(n: int) -> Distribution:
    """The n-dimensional uniform distribution (every entry exactly 1/n)."""
    n = _integer(n, "uniform dimension")
    if n < 1:
        raise DimensionError(f"uniform dimension must be >= 1, got {n}")
    return Distribution._wrap(_even(n, "uniform dimension"))


def direct_product(p: Distribution, q: Distribution) -> JointDistribution:
    """Joint distribution of independent components: r_kl = p_k * q_l."""
    _require(p, Distribution)
    _require(q, Distribution)
    m = len(q)
    return JointDistribution._wrap(
        np.outer(p._array, q._array).ravel(), np.arange(0, len(p) * m + 1, m, dtype=np.intp)
    )


def group_marginals(joint: JointDistribution, groups: Sequence[int]) -> np.ndarray:
    """The marginals of consecutive row groups of ``joint``, end to end.

    Rows ``groups[t]`` to ``groups[t + 1] - 1`` form joint t; each group's
    exact row sums are divided by that group's exact total.
    """
    sums = joint._row_sums()
    totals = segment_sums(sums, groups)
    return sums / np.repeat(totals, np.diff(groups))


def marginal(joint: JointDistribution) -> Distribution:
    """Row-sum marginal p_k = sum_l r_kl, returned exactly normalized."""
    _require(joint, JointDistribution)
    return Distribution._wrap(group_marginals(joint, [0, len(joint)]))


def conditional(joint: JointDistribution, k: int) -> Distribution:
    """Conditional distribution of row ``k`` (0-based): r_kl / p_k.

    Negative ``k`` counts from the last row.  Raises :class:`ZeroMarginal`
    if row ``k`` has zero mass.
    """
    _require(joint, JointDistribution)
    bounds = joint._bounds
    i = range(len(bounds) - 1)[k]
    row = joint._flat[bounds[i]:bounds[i + 1]]
    pk = joint._row_sums()[i]
    if pk <= 0.0:
        raise ZeroMarginal(f"row {k} has zero marginal")
    return Distribution._wrap(row / pk)


def escort(p: Distribution, alpha: float) -> Distribution:
    """The alpha-escort of ``p``: entry k proportional to p_k**alpha.

    Computed in log2 space with the largest term factored out, so the
    transform stays accurate for extreme exponents.  0**alpha := 0 for
    alpha > 0; for alpha <= 0 every entry must be strictly positive.
    """
    _require(p, Distribution)
    weights = _escort(p._array, [0, len(p)], alpha)
    return p if weights is p._array else Distribution._wrap(weights)


def _escort(flat: np.ndarray, bounds: Sequence[int], alpha: float) -> np.ndarray:
    """`escort` of each run between consecutive ``bounds``, which cover all of ``flat``."""
    if not math.isfinite(alpha):
        raise EscortUndefined(f"escort exponent must be finite, got {alpha!r}")
    if alpha <= 0.0 and not flat.all():  # some entry is exactly zero
        raise EscortUndefined(
            f"escort exponent {alpha!r} needs strictly positive entries"
        )
    return escort_weights(flat, bounds, alpha)


def _check_counts(counts: Iterable[int]) -> list:
    """The ``counts`` read once, if they are the block sizes of a refinement."""
    counts = list(counts)
    if not counts:
        raise DimensionError("refinement needs at least one block")
    if any(_integer(c, "refinement count") < 1 for c in counts):
        raise DimensionError(f"refinement counts must be >= 1, got {tuple(counts)}")
    return counts


def refinement_joint(counts: Iterable[int]) -> JointDistribution:
    """The even refinement joint: row i holds m_i cells of exactly 1/m.

    Here m = sum(counts).  The marginal is (m_1/m, ..., m_n/m) and every
    conditional row is uniform, which is the construction that pins the
    entropy of rational distributions to the uniform trace.
    """
    counts = _check_counts(counts)
    flat = _even(sum(map(int, counts)), "refinement size")
    return JointDistribution._wrap(flat, bounds_of(counts))


def flatten(joint: JointDistribution) -> Distribution:
    """Concatenate all rows into one distribution of dimension sum m_k."""
    _require(joint, JointDistribution)
    return Distribution._wrap(joint._flat)


# ---------------------------------------------------------------------------
# File input/output


def _rows(path: str | Path, key: str, what: str) -> Iterable[list]:
    """The rows of numbers in a file, read once: a JSON object's ``key`` entry
    (``"p"`` is one row, ``"rows"`` a list of rows), each row checked to be a
    list, or the non-blank lines of a CSV file, each parsed as it is taken (a
    UTF-8 byte-order mark is skipped).  A file that is not UTF-8 text, invalid
    JSON, another shape or no ``what`` at all is a :class:`FormatError`."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if not text.lstrip().startswith("{"):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError(f"{path}: no {what} found")

        def parse(line: str) -> list[float]:
            try:
                return [float(tok) for tok in line.split(",") if tok.strip()]
            except ValueError as exc:
                raise FormatError(f"unparseable number in {path}: {exc}") from exc
        return map(parse, lines)
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f'{path}: expected an object with a "{key}" key')
    rows = [obj[key]] if key == "p" else obj[key]
    if not isinstance(rows, list):
        raise FormatError(f'{path}: "{key}" must be a list of rows')
    for row in rows:  # entries are read and checked by the validating constructors
        if not isinstance(row, list):
            raise FormatError(f"{path}: expected a list of numbers, got {type(row).__name__}")
    return rows


def read_distributions(path: str | Path) -> list[Distribution]:
    """Read one or more distributions from a JSON or CSV file."""
    return [make_distribution(row) for row in _rows(path, "p", "distributions")]


def read_joint(path: str | Path) -> JointDistribution:
    """Read a joint distribution from a JSON or CSV file."""
    return make_joint(_rows(path, "rows", "joint rows"))


def _write(path: str | Path, fmt: str, key: str, rows: Sequence[Sequence[float]]) -> None:
    """Write ``rows`` as a JSON object's ``key`` entry (``"p"``: one flat row)
    or as CSV lines."""
    if fmt == "json":
        import json
        text = json.dumps({key: list(rows[0]) if key == "p" else [list(r) for r in rows]})
    elif fmt == "csv":
        text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    else:
        raise FormatError(f"unknown format {fmt!r} (expected 'json' or 'csv')")
    Path(path).write_text(text + "\n")


def write_distribution(path: str | Path, dist: Distribution, fmt: str = "json") -> None:
    """Write a distribution in the documented JSON or CSV format."""
    _require(dist, Distribution)
    _write(path, fmt, "p", [dist.probs])


def write_joint(path: str | Path, joint: JointDistribution, fmt: str = "json") -> None:
    """Write a joint distribution in the documented JSON or CSV format."""
    _require(joint, JointDistribution)
    _write(path, fmt, "rows", joint.rows)
