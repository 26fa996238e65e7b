"""Span tracer that wraps leafatlas's public functions from outside the package.

Every wrapped call pushes a frame on one stack.  When it returns, its self
time (duration minus the time covered by wrapped calls made inside it) is
added to its layer name, and its duration is charged to the caller's frame.
Self times of all spans under a root therefore add up to the root's
duration exactly.

Spans of the coarse layers are also kept in memory (trace id, span id,
parent id, name, start, end) and written out when the child ends.  The hot
layers (exactnum, linalg.mat_vec, refgroup.mul, refgroup.reflections and
cherednik.yx_product, up to millions of calls a run) are only counted and
timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Stored spans per child process; calls beyond it are still aggregated.
SPAN_CAP = 50_000

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # [span id, child seconds, had child, name]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.leaf_calls: dict[str, int] = defaultdict(int)   # spans with no child span
        self.counts: dict[str, float] = defaultdict(float)   # layer-specific counters
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.trace_id = 0
        self.root_s = 0.0                  # measured around the root spans
        self._next_id = 1

    # -- spans -----------------------------------------------------------------
    def call(self, name: str, fn, args, kwargs, store: bool):
        stack = self.stack
        span_id = self._next_id
        self._next_id += 1
        parent_id = stack[-1][0] if stack else 0
        frame = [span_id, 0.0, False, name]
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if not frame[2]:
                self.leaf_calls[name] += 1
            if stack:
                parent = stack[-1]
                parent[1] += dur
                parent[2] = True
            if store:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.trace_id, span_id, parent_id, name, t0, t1))
                else:
                    self.spans_dropped += 1

    def root(self, name: str, trace_id: int, fn, *args):
        """Run fn(*args) as the root span of one trace; returns (result, seconds)."""
        self.trace_id = trace_id
        t0 = _clock()
        out = self.call(name, fn, args, {}, True)
        seconds = _clock() - t0
        self.root_s += seconds
        return out, seconds

    def parent_name(self) -> str | None:
        """Name of the innermost open span (None outside every span)."""
        return self.stack[-1][3] if self.stack else None

    # -- wrappers --------------------------------------------------------------
    def wrap(self, name: str, fn, store: bool = True, after=None):
        """Wrapper that records `fn` under `name`; after(result, args) counts."""
        call = self.call
        if after is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs, store)
        else:
            def wrapper(*args, **kwargs):
                out = call(name, fn, args, kwargs, store)
                after(out, args)
                return out
        return wrapper

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "leaf_calls": dict(self.leaf_calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
            for t, s, p, n, a, b in self.spans:
                fh.write(f"{t},{s},{p},{n},{a:.9f},{b:.9f}\n")


def _patch_function(modules, owner, attr: str, wrapper) -> None:
    """Replace owner.attr, and every module-level alias of it, by wrapper."""
    orig = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the leafatlas entry points named in perfbench/NOTES.md."""
    from leafatlas import cherednik, cli, exactnum, leaves, linalg, refgroup, tau

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "leafatlas" or name.startswith("leafatlas.")]
    counts = tracer.counts
    CycNum = exactnum.CycNum

    def method(cls, attr, name, store=True, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), store, after))

    def function(mod, attr, name, store=True, after=None):
        _patch_function(modules, mod, attr, tracer.wrap(name, getattr(mod, attr), store, after))

    # exactnum: counted and timed, never stored as spans
    method(CycNum, "__init__", "exactnum.new", store=False)
    method(CycNum, "__add__", "exactnum.add", store=False)
    method(CycNum, "inverse", "exactnum.inverse", store=False)
    method(CycNum, "sort_key", "exactnum.to_str", store=False)
    function(exactnum, "cyc_to_str", "exactnum.to_str", store=False)
    mul = CycNum.__mul__
    call = tracer.call

    def traced_mul(self, other):
        if self.conductor == 1 and (not isinstance(other, CycNum) or other.conductor == 1):
            counts["exactnum.mul.rational"] += 1
        return call("exactnum.mul", mul, (self, other), {}, False)
    CycNum.__mul__ = traced_mul

    # linalg
    for attr in ("rref", "nullspace", "intersect", "subspace_leq", "mat_mul"):
        function(linalg, attr, f"linalg.{attr}")
    function(linalg, "mat_vec", "linalg.mat_vec", store=False)

    # refgroup
    RG = refgroup.ReflectionGroup

    def count_order(out, args):
        counts["refgroup.group_order"] += out.order
    function(refgroup, "close_group", "refgroup.close_group", after=count_order)
    method(RG, "generated_by_reflections", "refgroup.generated_by_reflections")
    for attr in ("reflections", "hyperplanes"):
        setattr(RG, attr, property(tracer.wrap("refgroup.reflections", getattr(RG, attr).fget,
                                               store=False)))
    method(RG, "mul", "refgroup.mul", store=False)

    def count_scan(out, args):
        counts["refgroup.stabilizer.scanned"] += args[0].order
        counts["refgroup.stabilizer.kept"] += out.order if hasattr(out, "order") else len(out)
        if tracer.parent_name() == "tau.twist_classes":
            counts["tau.twist_classes.cosets_scanned"] += 1
    for attr in ("stabilizer_keys", "dual_stabilizer_keys", "pointwise_stabilizer",
                 "setwise_stabilizer_keys"):
        method(RG, attr, "refgroup.stabilizer", after=count_scan)
    method(RG, "witness_point", "refgroup.witness_point")
    for attr in ("flats", "parabolic_subgroups", "parabolic_classes", "class_of", "normalizer"):
        method(RG, attr, f"refgroup.{attr}")

    # tau and leaves
    TC = tau.TauContext
    method(TC, "__init__", "tau.context")
    for attr in ("split_parabolics", "split_orbits", "split_class_dictionary"):
        method(TC, attr, f"tau.{attr}")

    twist_classes = TC.twist_classes

    def traced_twist_classes(self, P):
        scanned = counts["tau.twist_classes.cosets_scanned"]
        out = call("tau.twist_classes", twist_classes, (self, P), {}, True)
        if counts["tau.twist_classes.cosets_scanned"] != scanned:   # not a cached answer
            counts["tau.twist_classes.kept"] += sum(len(c.coset_indices) for c in out[1])
        return out
    TC.twist_classes = traced_twist_classes

    def count_leaves(out, args):
        counts["leaves.leaf_count"] += len(out)
    function(leaves, "leaves_zero_tau", "leaves.leaves_zero_tau", after=count_leaves)

    # cherednik
    CA = cherednik.CherednikAlgebra
    method(CA, "__init__", "cherednik.algebra")

    def count_terms(out, args):
        counts["cherednik.product_terms"] += len(out.terms)
    method(CA, "multiply", "cherednik.multiply", after=count_terms)
    method(CA, "yx_product", "cherednik.yx_product", store=False)

    # cli
    function(cli, "run", "cli.run")
    function(cli, "emit", "cli.emit")
