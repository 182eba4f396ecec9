"""Oracle pins for the vectorized kernels (inputs of 256 entries and more).

The hypothesis strategies elsewhere stop at a few entries, so they only reach
the scalar loops of `gentropies._stable`.  These seeded cases push
non-uniform, zero-laden inputs through the numpy branch of every family
and compare against the 50-digit oracle with the frozen tolerances:
entropy and joint entropy rel 1e-12 / abs 1e-13, conditional entropy
rel 1e-11 / abs 1e-12.
"""

import numpy as np
import pytest

from gentropies import (
    conditional_entropy,
    entropy,
    joint_entropy,
    make_distribution,
    make_joint,
)
from gentropies.entropies import (
    general_escort,
    havrda_charvat,
    nath,
    renyi,
    shannon,
    tsallis,
    uniform_trace,
)
from reference import ref_conditional_entropy, ref_entropy, ref_joint_entropy

ALPHAS = (0.5, 3.0, 100.0)
SIZES = (256, 4096)


def _family_cases():
    cases = [("shannon", shannon(-1.0)), ("nath(alpha=1)", nath(1.0, 0.0, -1.5))]
    for a in ALPHAS:
        cases += [
            (f"nath({a})", nath(a, 1.0 if a < 1.0 else -0.5, -2.0)),
            (f"general_escort({a},lam=0)", general_escort(a, -1.0, 0.0)),
            (f"general_escort({a},lam=-0.25)", general_escort(a, -1.0, -0.25)),
            (f"hct({a})", tsallis(a)),
        ]
    return cases


FAMILIES = _family_cases()
FAMILY_IDS = [label for label, _ in FAMILIES]


def _draw(rng, n):
    """Exponential draws with exactly n // 10 exact zeros, normalized."""
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    return x


@pytest.fixture(scope="module", params=SIZES, ids=[f"n={n}" for n in SIZES])
def dist(request):
    rng = np.random.default_rng(1311 + request.param)
    x = _draw(rng, request.param)
    return make_distribution((x / x.sum()).tolist())


@pytest.mark.parametrize("family", [f for _, f in FAMILIES], ids=FAMILY_IDS)
def test_entropy(family, dist):
    assert entropy(family, dist) == pytest.approx(
        ref_entropy(family, dist.probs), rel=1e-12, abs=1e-13
    )


# Row lengths on both sides of the 256-entry switch, plus an all-zero row; and
# 300 short rows, whose marginal takes the vector branch.
ROW_LENGTHS = {
    "ragged-long-rows": (60, 255, 256, 257, 300, 130),
    "ragged-300-rows": tuple(int(m) for m in np.random.default_rng(300).integers(1, 9, 300)),
}


@pytest.fixture(scope="module", params=list(ROW_LENGTHS), ids=list(ROW_LENGTHS))
def joint_rows(request):
    rng = np.random.default_rng(len(request.param))
    cells = [_draw(rng, m) for m in ROW_LENGTHS[request.param]]
    if request.param == "ragged-long-rows":
        cells.insert(3, np.zeros(40))
    total = sum(c.sum() for c in cells)
    joint = make_joint([(c / total).tolist() for c in cells])
    return joint, [list(r) for r in joint.rows]


@pytest.mark.parametrize("family", [f for _, f in FAMILIES], ids=FAMILY_IDS)
def test_conditional_entropy(family, joint_rows):
    joint, rows = joint_rows
    assert conditional_entropy(family, joint) == pytest.approx(
        ref_conditional_entropy(family, rows), rel=1e-11, abs=1e-12
    )


@pytest.mark.parametrize("family", [f for _, f in FAMILIES], ids=FAMILY_IDS)
def test_joint_entropy(family, joint_rows):
    joint, rows = joint_rows
    assert joint_entropy(family, joint) == pytest.approx(
        ref_joint_entropy(family, rows), rel=1e-12, abs=1e-13
    )


# Large inputs, past one block of the exact sums: a 2**12-entry draw, pinned
# by the oracle, tiled m times and shuffled.  The tiled input is the product
# of the draw with U_m, so its entropy is the draw's composed with the
# uniform trace of m.
TILED_FAMILIES = {
    "shannon": shannon(),
    "renyi(2)": renyi(2.0),
    "renyi(100)": renyi(100.0),
    "tsallis(2)": tsallis(2.0),
    "havrda_charvat(0.5)": havrda_charvat(0.5),
    "general_escort(2,-1,0)": general_escort(2.0, -1.0, 0.0),
    "general_escort(2,-1,1)": general_escort(2.0, -1.0, 1.0),
}
TILED_SIZES = (2 ** 15 + 2 ** 12, 2 ** 20)


@pytest.fixture(scope="module")
def tile_base():
    x = _draw(np.random.default_rng(4096), 2 ** 12)
    return make_distribution((x / x.sum()).tolist())


@pytest.fixture(scope="module", params=TILED_SIZES, ids=[f"n={n}" for n in TILED_SIZES])
def tiled(request, tile_base):
    m = request.param // len(tile_base)
    rng = np.random.default_rng(request.param)
    cells = np.tile(np.array(tile_base.probs), m) / m
    return m, make_distribution(cells[rng.permutation(len(cells))].tolist())


@pytest.mark.parametrize("name", list(TILED_FAMILIES))
def test_tiled_draw_composes_with_the_uniform_trace(name, tile_base, tiled):
    family = TILED_FAMILIES[name]
    m, dist = tiled
    expected = family.composition.add(
        ref_entropy(family, tile_base.probs), uniform_trace(family, m))
    assert entropy(family, dist) == pytest.approx(expected, rel=1e-12, abs=1e-13)


# Off the uniform inputs through the numpy branch: exponential draws with 10 %
# zeros and a near point mass, at n = 300 (one math.fsum of the terms) and
# n = 2,000 (the blocked exact sum), for the order-alpha members of every
# family; and a 40 x 40 joint with zero cells.  The conditional entropy stops
# at alpha = 3: beyond it the exponential mean of its rows loses digits.
def _order_families(alphas):
    cases = [("shannon", shannon())]
    for a in alphas:
        cases += [
            (f"renyi({a})", renyi(a)),
            (f"tsallis({a})", tsallis(a)),
            (f"havrda_charvat({a})", havrda_charvat(a)),
            (f"general_escort({a},lam=0)", general_escort(a, -1.0, 0.0)),
            (f"general_escort({a},lam=-0.25)", general_escort(a, -1.0, -0.25)),
        ]
    return dict(cases)


ORDER_FAMILIES = _order_families((0.5, 2.0, 3.0, 100.0))
JOINT_ORDER_FAMILIES = _order_families((0.5, 2.0, 3.0))
NON_UNIFORM = [(n, kind) for n in (300, 2000) for kind in ("exponential", "near-point-mass")]


@pytest.fixture(scope="module", params=NON_UNIFORM, ids=[f"{k}-n={n}" for n, k in NON_UNIFORM])
def non_uniform(request):
    n, kind = request.param
    rng = np.random.default_rng(n)
    x = _draw(rng, n)
    if kind == "near-point-mass":  # one entry holds all but about 1e-8 * n of the mass
        x *= 1e-8
        x[rng.integers(0, n)] = 1.0
    return make_distribution((x / x.sum()).tolist())


@pytest.mark.parametrize("name", list(ORDER_FAMILIES))
def test_entropy_of_non_uniform_inputs(name, non_uniform):
    family = ORDER_FAMILIES[name]
    assert entropy(family, non_uniform) == pytest.approx(
        ref_entropy(family, non_uniform.probs), rel=1e-12, abs=1e-13
    )


@pytest.fixture(scope="module")
def joint_with_zeros():
    rng = np.random.default_rng(40)
    cells = rng.exponential(1.0, (40, 40))
    cells[rng.random((40, 40)) < 0.2] = 0.0
    cells[7] = 0.0  # a row with no mass at all
    joint = make_joint((cells / cells.sum()).tolist())
    return joint, [list(r) for r in joint.rows]


@pytest.mark.parametrize("name", list(JOINT_ORDER_FAMILIES))
def test_conditional_entropy_of_a_joint_with_zeros(name, joint_with_zeros):
    family = JOINT_ORDER_FAMILIES[name]
    joint, rows = joint_with_zeros
    assert conditional_entropy(family, joint) == pytest.approx(
        ref_conditional_entropy(family, rows), rel=1e-11, abs=1e-12
    )


# Large |lambda|: the conditional entropy's exponential mean of the rows, where
# 2**(lam*H) of every row is far below 1 and 1 + gamma*acc keeps little but
# rounding noise of their sum; the mean is then taken max-factored.  Every
# family errs past the tolerance on one of the two joints unless it is.
LARGE_LAMBDA_FAMILIES = {
    "renyi(20)": renyi(20.0),
    "renyi(50)": renyi(50.0),
    "renyi(300)": renyi(300.0),
    "general_escort(11,-1,-10)": general_escort(11.0, -1.0, -10.0),
}


@pytest.fixture(scope="module", params=[8, 40], ids=["8x8", "40x40"])
def large_lambda_joint(request, joint_with_zeros):
    if request.param == 40:
        return joint_with_zeros
    rng = np.random.default_rng(140)
    cells = rng.exponential(1.0, (8, 8))
    cells[rng.random((8, 8)) < 0.2] = 0.0
    joint = make_joint((cells / cells.sum()).tolist())
    return joint, [list(r) for r in joint.rows]


@pytest.mark.parametrize("name", list(LARGE_LAMBDA_FAMILIES))
def test_conditional_entropy_at_large_lambda(name, large_lambda_joint):
    family = LARGE_LAMBDA_FAMILIES[name]
    joint, rows = large_lambda_joint
    assert conditional_entropy(family, joint) == pytest.approx(
        ref_conditional_entropy(family, rows), rel=1e-11, abs=1e-12
    )


# A tall joint: 1024 rows of 2 cells with zeros, whose per-row entropies and
# means are arrays of 1024 entries.
@pytest.fixture(scope="module")
def tall_joint():
    rng = np.random.default_rng(1024)
    cells = rng.exponential(1.0, (1024, 2))
    cells[rng.random((1024, 2)) < 0.2] = 0.0
    joint = make_joint((cells / cells.sum()).tolist())
    return joint, [list(r) for r in joint.rows]


@pytest.mark.parametrize("name", ["shannon", "renyi(2)", "tsallis(2)"])
def test_conditional_entropy_of_a_tall_joint(name, tall_joint):
    family = TILED_FAMILIES[name]
    joint, rows = tall_joint
    assert conditional_entropy(family, joint) == pytest.approx(
        ref_conditional_entropy(family, rows), rel=1e-11
    )
