"""Drift of the suite reports between two checkouts of the repository.

Runs the 8 golden configurations and the 108 digest configurations of this
tool's own ``tests/test_golden_reports.py`` in each checkout, in one child
interpreter per checkout with that checkout's ``src`` on its path, so that
both run the same configurations, whatever the other checkout's tests
define; and compares the reports: which differ in any byte, which report or
check verdicts changed, which checks name a different worst input, and the
largest |delta| of each residual field.  Where the reports' ``prng`` (the
draw order) differs, it prints both values, and the deltas compare different
inputs.

Usage, from any directory::

    python tools/report_drift.py OLD_CHECKOUT NEW_CHECKOUT

Both child interpreters inherit this one's environment, so a variable set
in front of the command holds for both checkouts.  For example, the drift
between two checkouts as a host without numpy's AVX-512 dispatch sees it
(numpy reads the variable at import)::

    NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" python tools/report_drift.py OLD NEW

The exit status is 1 when a report or check verdict changed, 2 on a wrong
command line, else 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

# Printed by the child: {label: report JSON} for every golden configuration,
# then the digest's configurations in the order of its test.
_CHILD = """
import json
from gentropies import run_suite
import test_golden_reports as golden

configs = dict(golden.CONFIGS)
for cfg in golden.DIGEST_CONFIGS:
    configs[f"digest {cfg.family!r} seed={cfg.seed} {cfg.max_rows}x{cfg.max_cols}"] = cfg
print(json.dumps({label: run_suite(cfg).to_json() for label, cfg in configs.items()}))
"""


def reports(checkout: Path) -> dict[str, str]:
    """Every configuration's report JSON, as the checkout's code writes it."""
    path = os.pathsep.join([str(checkout / "src"), str(TESTS)])
    done = subprocess.run([sys.executable, "-c", _CHILD], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _residuals(check: dict) -> dict[str, float]:
    return {k: v for k, v in check.items() if isinstance(v, (int, float)) and k != "name"}


def compare(old: dict[str, str], new: dict[str, str]) -> tuple[list[str], bool]:
    """The lines of the drift report, and whether a verdict changed."""
    lines, verdicts, worst, largest, prngs = [], [], [], {}, set()
    differ = [label for label in old if new.get(label) != old[label]]
    for label in differ:
        if label not in new:
            lines.append(f"missing in the new checkout: {label}")
            continue
        a, b = json.loads(old[label]), json.loads(new[label])
        if a["prng"] != b["prng"]:
            prngs.add((a["prng"], b["prng"]))
        if a["verdict"] != b["verdict"]:
            verdicts.append(f"{label}: report {a['verdict']} -> {b['verdict']}")
        for ca, cb in zip(a["checks"], b["checks"]):
            where = f"{label} / {ca['name']}"
            if ca["verdict"] != cb["verdict"]:
                verdicts.append(f"{where}: {ca['verdict']} -> {cb['verdict']}")
            if ca.get("worst_input") != cb.get("worst_input"):
                worst.append(where)
            for field, va in _residuals(ca).items():
                delta = abs(cb[field] - va) if cb[field] != va else 0.0
                if math.isnan(delta) or delta > largest.setdefault(field, (0.0, ""))[0]:
                    largest[field] = (delta, where)
    lines[:0] = [f"reports: {len(old)} old, {len(new)} new, {len(differ)} differ"]
    lines[1:1] = [f"prng: {a!r} old, {b!r} new" for a, b in sorted(prngs)]
    lines += [f"  {label}" for label in differ]
    lines.append(f"verdicts changed: {len(verdicts)}")
    lines += [f"  {v}" for v in verdicts]
    lines.append(f"checks with a different worst input: {len(worst)}")
    lines += [f"  {w}" for w in worst]
    # a different prng draws different inputs: the deltas are not rounding
    lines.append("largest |delta| per residual field"
                 + (", between reports on different inputs:" if prngs else ":"))
    lines += [f"  {field}: {delta:.3g} ({where})" if delta else f"  {field}: 0"
              for field, (delta, where) in sorted(largest.items())]
    return lines, bool(verdicts)


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (reports(Path(a).resolve()) for a in args)
    lines, changed = compare(old, new)
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
