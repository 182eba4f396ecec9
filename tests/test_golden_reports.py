"""Suite reports frozen byte for byte.

The files under ``golden/`` were written by `run_suite(...).to_json()` and
pin the whole numeric path: drawing, validation, the kernels on short and
long runs, and the report formatting.  Regenerate them only for a
deliberate change of results; ``tools/report_drift.py`` shows what such a
change moves.
"""

import hashlib
from pathlib import Path

import pytest

from gentropies import CheckConfig, run_suite
from gentropies.entropies import (
    general_escort,
    havrda_charvat,
    nath,
    renyi,
    shannon,
    strongly_additive_nath,
    tsallis,
)

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    # nath(2, -0.5) at default sizes: every joint below 256 cells
    "nath": CheckConfig(strongly_additive_nath(2.0, -0.5), seed=1311_0324),
    # havrda-charvat(0.5) on up to 40 x 40 joints: flattened joints and
    # products of 256 cells and more
    "hct": CheckConfig(
        havrda_charvat(0.5), trials=20, max_rows=40, max_cols=40, seed=1311_0324
    ),
    # general_escort(2, -1, 0), a forcing member: the lam == 0 escort sum
    "general_escort": CheckConfig(general_escort(2.0, -1.0, 0.0), seed=1311_0324),
    # shannon(-2): the Shannon formula and the plain additive composition
    "shannon": CheckConfig(shannon(-2.0), seed=1311_0324),
    # nath at alpha == 1: the Shannon branch of Nath with a linear mean
    "nath_alpha_one": CheckConfig(nath(1.0, 0.0, -1.5), seed=1311_0324),
    # general_escort(2, -1, 1), a forcing member: the lam != 0 branch with
    # the exponential mean
    "general_escort_exponential": CheckConfig(
        general_escort(2.0, -1.0, 1.0), seed=1311_0324
    ),
    # rows of up to 600 cells: within one joint, rows shorter and longer
    # than 256 cells, under the escort (alpha 0.5) and exponential mean ...
    "wide_rows_renyi": CheckConfig(
        renyi(0.5), trials=5, max_rows=3, max_cols=600, seed=1311_0324
    ),
    # ... and under the lam == 0 escort sum of a forcing member
    "wide_rows_general_escort": CheckConfig(
        general_escort(3.0, -1.0, 0.0), trials=5, max_rows=3, max_cols=600, seed=1311_0324
    ),
}


def golden_path(label: str) -> Path:
    return GOLDEN / f"suite_{label}.json"


@pytest.mark.parametrize("label", list(CONFIGS))
def test_report_bytes_unchanged(label):
    assert run_suite(CONFIGS[label]).to_json() == golden_path(label).read_text()


# The 18 families of the benchmark's `suite` workload, in its order: the
# strongly additive grid, then the forcing members with beta != 1.
DIGEST_FAMILIES = [
    shannon(-1.0),
    shannon(-2.0),
    renyi(0.5),
    renyi(2.0),
    renyi(3.0),
    strongly_additive_nath(0.5, 1.0),
    strongly_additive_nath(2.0, -0.5),
    tsallis(0.5),
    tsallis(2.0),
    tsallis(3.0),
    havrda_charvat(0.5),
    havrda_charvat(2.0),
    general_escort(1.0, -1.0, -0.5),
    general_escort(0.5, -1.0, 0.0),
    general_escort(1.0, -1.0, 1.0),
    general_escort(2.0, -1.0, 0.0),
    general_escort(2.0, -1.0, 1.0),
    general_escort(3.0, -1.0, 0.0),
]
#: The digest's 108 configurations, in its order: 18 families x 3 seeds x 2
#: shapes, the default 8 x 8 joints and 40 x 40 ones, whose flattened joints
#: and products have 256 cells and more.
DIGEST_CONFIGS = [
    CheckConfig(family, trials, max_rows=size, max_cols=size, seed=seed)
    for family in DIGEST_FAMILIES
    for seed in (0, 7, 12345)
    for trials, size in ((100, 8), (30, 40))
]
DIGEST = "0679799dbb0a019b1290ba08090261ea3a0ea47ee8ef3531a222e65edef3c198"


def test_108_report_digest_unchanged():
    """SHA-256 over the reports of `DIGEST_CONFIGS`, in order."""
    digest = hashlib.sha256()
    for cfg in DIGEST_CONFIGS:
        digest.update(run_suite(cfg).to_json().encode())
    assert digest.hexdigest() == DIGEST
