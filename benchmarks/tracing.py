"""Span tracing of the gentropies layers, installed from outside the package.

The package binds names at import (``from ._stable import log2_power_sum``),
so patching one module records nothing for the others.  `Tracer.install`
wraps every public function of each layer module and rebinds it at every
module of the package that holds it, plus the public `Deformation` methods
on the class; `Tracer.uninstall` puts the originals back.  A wrapper passes
its arguments through untouched: it only reads ``len()`` of a sized first
argument and never iterates one.

Each call becomes a span ``[name_id, start_ns, end_ns, parent, ok]``, kept
in memory.  A span's self time is its duration minus that of its direct
children; a category's busy time counts only spans with no ancestor in the
same category, so recursion and nesting are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

import gentropies as G

#: module -> layer name (metric names must start with a letter)
LAYERS = {
    "gentropies._stable": "stable",
    "gentropies.distributions": "distributions",
    "gentropies.entropies": "entropies",
    "gentropies.generators": "generators",
    "gentropies.deformed": "deformed",
    "gentropies.checker": "checker",
    "gentropies.cli": "cli",
}
#: the length-branched kernels of _stable and the length of their numpy branch
KERNELS = frozenset({"log2_power_sum", "power_sum", "plogp_sum", "escort_weights"})
VECTOR_MIN = 256
#: distributions functions by what they do
GROUPS = {
    **dict.fromkeys(("make_distribution", "make_joint", "uniform", "refinement_joint"), "construct"),
    **dict.fromkeys(("direct_product", "flatten", "marginal", "conditional", "escort"), "restructure"),
    **dict.fromkeys(("read_distributions", "read_joint"), "read"),
}
OP = "op"


def _cells(value) -> int:
    if isinstance(value, G.Distribution):
        return len(value)
    if isinstance(value, G.JointDistribution):
        return sum(value.row_lengths)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._cats: list[tuple[str, ...]] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_ids: dict[str, int] = {}

    def _name_id(self, name: str, cats: tuple[str, ...]) -> int:
        self.names.append(name)
        self._cats.append(cats)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        span = [nid, 0, 0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span around one benchmark op: ``with tracer.op(kind): ...``."""
        name = f"{OP}.{kind}"
        if name not in self._op_ids:
            self._op_ids[name] = self._name_id(name, (OP,))
        span = self._open(self._op_ids[name])
        try:
            yield
            span[4] = True
        finally:
            self._close(span)

    def _wrap(self, layer: str, qualname: str, fn):
        name = qualname.rsplit(".", 1)[-1]
        cats = (layer,)
        if layer == "distributions" and name in GROUPS:
            cats += (f"{layer}.{GROUPS[name]}",)
        nid = self._name_id(f"{layer}.{qualname}", cats)
        counts = self.counts
        before = after = None
        if layer == "stable":
            def before(args):
                try:
                    n = len(args[0])
                except (IndexError, TypeError):
                    return
                counts["stable.cells"] += n
                if name in KERNELS:
                    counts["stable.kernel_calls"] += 1
                    counts["stable.vector_calls"] += n >= VECTOR_MIN
        elif layer == "distributions" and GROUPS.get(name) in ("construct", "restructure"):
            def after(result):
                counts["distributions.cells_built"] += _cells(result)
        elif qualname == "run_suite":
            def before(args):
                counts["checker.trials"] += args[0].trials

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                self._close(span)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == modname):
                    wrappers[id(value)] = (value, self._wrap(layer, attr, value))
        for modname, module in list(sys.modules.items()):
            if modname != "gentropies" and not modname.startswith("gentropies."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        cls = G.Deformation
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self._patch(cls, attr, self._wrap("deformed", f"Deformation.{attr}", value))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -----------------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and total seconds per span name; calls, errors, busy and self
        seconds per layer (busy also per distributions group)."""
        spans = self.spans
        self_ns = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_ns[s[3]] -= s[2] - s[1]
        bits = {}
        for cats in self._cats:
            for c in cats:
                bits.setdefault(c, 1 << len(bits))
        cat_mask = [sum(bits[c] for c in cats) for cats in self._cats]
        above = [0] * len(spans)  # categories of a span's ancestors
        calls, errors, busy, self_s, total = Counter(), Counter(), Counter(), Counter(), Counter()
        for i, (nid, start, end, parent, ok) in enumerate(spans):
            if parent >= 0:
                above[i] = above[parent] | cat_mask[spans[parent][0]]
            dur = (end - start) / 1e9
            name, cats = self.names[nid], self._cats[nid]
            calls[name] += 1
            calls[cats[0]] += 1
            errors[cats[0]] += not ok
            self_s[cats[0]] += self_ns[i] / 1e9
            total[name] += dur
            for c in cats:
                if not above[i] & bits[c]:
                    busy[c] += dur
        return {"calls": calls, "errors": errors, "busy": busy, "self": self_s, "total": total}

    def dump(self) -> dict:
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "ok"],
            "names": self.names,
            "spans": [[n, s - t0, e - t0, p, int(ok)] for n, s, e, p, ok in self.spans],
        }

