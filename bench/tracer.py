"""Outside-in tracer for the orthologic layers.

The tracer wraps the public functions of each layer at every binding a
caller resolves: ``from .core import orthonormalize`` in ``subspace``
makes ``orthologic.subspace.orthonormalize`` a binding of its own, and
patching only the defining module would record nothing for its callers.
Each call through a wrapper appends one span ``[name, start, end,
parent span, op]``; spans stay in memory until the run writes them out.

The classical connectives are counted, not timed: they run about two
million times per classical op, and a timed wrapper there inflates the
op by more than half.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ORTHONORMALIZE = "core.orthonormalize"
SUBSPACE_OPS = ("join", "meet", "ortho", "equal", "leq", "projector_distance", "span_of",
                "random_subspace")
LAWS = ("check_orthomodular", "check_distributive", "compatible",
        "compatible_second_criterion", "commuting_projectors", "is_modular_pair",
        "check_covering", "check_triple_distributive")
COMPOSITE = ("verify_axioms", "verify_tensor_isomorphism", "build_basis_map",
             "classify_linearity")


def _defined(layer: str, functions) -> dict:
    return {f"{layer}.{fn}": (f"orthologic.{layer}:{fn}",) for fn in functions}


# span name -> the bindings ("module:attribute.path") its callers resolve
TIMED = {
    ORTHONORMALIZE: ("orthologic.core:orthonormalize", "orthologic.subspace:orthonormalize"),
    "core.random_unitary": (
        "orthologic.core:random_unitary",
        "orthologic.subspace:random_unitary",
        "orthologic.cli:random_unitary",
        "orthologic.composite:random_unitary",
    ),
    **_defined("subspace", SUBSPACE_OPS),
    **_defined("laws", LAWS),
    **_defined("composite", COMPOSITE),
    "composite.morphism_apply": ("orthologic.composite:SubspaceMorphism.__call__",),
    "composite.lift": (
        "orthologic.composite:BasisMap.lift", "orthologic.composite:BasisMap.lift_inverse"),
    **_defined("classical", ("product_space_isomorphism",)),
    "cli.sample": ("orthologic.cli:_nested_pair", "orthologic.cli:_mixed_pair"),
    "cli.emit": ("orthologic.cli:_emit",),
}
# second bindings, made by ``from .module import name`` in the caller
TIMED["subspace.span_of"] += ("orthologic.composite:span_of",)
TIMED["laws.compatible"] += ("orthologic.composite:compatible",)
TIMED["composite.verify_axioms"] += ("orthologic.cli:verify_axioms",)
TIMED["composite.verify_tensor_isomorphism"] += ("orthologic.cli:verify_tensor_isomorphism",)

COUNTED = {
    "classical.connective": (
        "orthologic.classical:prop_and",
        "orthologic.classical:prop_or",
        "orthologic.classical:prop_not",
    ),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    (f"{ORTHONORMALIZE}.calls", "count", "lower"),
    (f"{ORTHONORMALIZE}.self_s", "s", "lower"),
    (f"{ORTHONORMALIZE}.mean_us", "us", "lower"),
    (f"{ORTHONORMALIZE}.cols_in", "count", "lower"),
    (f"{ORTHONORMALIZE}.keep_ratio", "ratio", "higher"),
    ("core.random_unitary.calls", "count", "lower"),
    ("core.random_unitary.self_s", "s", "lower"),
    *[(f"subspace.{fn}.{stat}", unit, "lower")
      for fn in SUBSPACE_OPS for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("subspace.meet.orthonormalize_per_call", "count", "lower"),
    *[(f"laws.{fn}.{stat}", unit, "lower")
      for fn in LAWS for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))],
    ("laws.subspace_ops_per_check", "count", "lower"),
    *[(f"composite.{fn}.{stat}", "s", "lower") for fn in COMPOSITE for stat in ("self_s", "total_s")],
    ("composite.morphism_apply.calls", "count", "lower"),
    ("composite.morphism_apply.self_s", "s", "lower"),
    ("composite.lift.calls", "count", "lower"),
    ("composite.lift.self_s", "s", "lower"),
    ("classical.product_space_isomorphism.self_s", "s", "lower"),
    ("classical.product_space_isomorphism.total_s", "s", "lower"),
    ("classical.connective.calls", "count", "lower"),
    ("cli.sample.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _resolve(binding: str):
    """(owner, attribute, value) for "module:attr.path"; AttributeError or
    ImportError when the program no longer has that binding."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one run, plus the patches that record them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span id, op id]
        self.counts: defaultdict = defaultdict(int)
        self.unbound: list = []  # bindings the program no longer has
        self._stack: list = []
        self._op = -1

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _orthonormalize(self, fn):
        timed, counts = self.wrap(ORTHONORMALIZE, fn), self.counts

        def counted(vectors, *args, **kwargs):
            if not isinstance(vectors, np.ndarray):
                vectors = list(vectors)
            q = timed(vectors, *args, **kwargs)
            two_d = isinstance(vectors, np.ndarray) and vectors.ndim == 2
            counts["cols_in"] += vectors.shape[1] if two_d else len(vectors)
            counts["cols_out"] += q.shape[1]
            return q

        return counted

    def _wrapper(self, name: str, fn):
        if name in COUNTED:
            return self._count(name, fn)
        if name == ORTHONORMALIZE:
            return self._orthonormalize(fn)
        return self.wrap(name, fn)

    @contextmanager
    def installed(self, op: int):
        """Patch every binding for the duration of op ``op``."""
        patched = []
        self._op = op
        try:
            for name, bindings in {**TIMED, **COUNTED}.items():
                for binding in bindings:
                    try:
                        owner, attr, original = _resolve(binding)
                    except (ImportError, AttributeError):
                        if binding not in self.unbound:
                            self.unbound.append(binding)
                        continue
                    setattr(owner, attr, self._wrapper(name, original))
                    patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._op = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def span_stats(spans: list) -> dict:
    """Per span name: calls, self seconds and total seconds.  Self time
    is a span's duration minus that of its children; total time counts
    only spans with no ancestor of the same name."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[sid]
        if not any(spans[a][0] == name for a in _ancestors(spans, sid)):
            entry["total_s"] += end - start
    return stats


def _ancestors(spans: list, sid: int):
    parent = spans[sid][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op values of every per-layer metric the spans and counters
    give (all but cli.report_bytes and trace.overhead_ratio)."""
    spans, counts = tracer.spans, tracer.counts
    stats = span_stats(spans)
    out = {}
    for name, _, _ in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "total_s") and group in TIMED:
            out[name] = stats[group][stat] / n_ops if group in stats else 0
    orth = stats.get(ORTHONORMALIZE)
    out[f"{ORTHONORMALIZE}.mean_us"] = 1e6 * orth["total_s"] / orth["calls"] if orth else 0.0
    out[f"{ORTHONORMALIZE}.cols_in"] = counts["cols_in"] / n_ops
    out[f"{ORTHONORMALIZE}.keep_ratio"] = (
        counts["cols_out"] / counts["cols_in"] if counts["cols_in"] else 0.0)
    out["classical.connective.calls"] = counts["classical.connective"] / n_ops

    meets = stats["subspace.meet"]["calls"] if "subspace.meet" in stats else 0
    under_meet = sum(
        1 for sid, span in enumerate(spans)
        if span[0] == ORTHONORMALIZE
        and any(spans[a][0] == "subspace.meet" for a in _ancestors(spans, sid)))
    out["subspace.meet.orthonormalize_per_call"] = under_meet / meets if meets else 0.0

    def is_law(sid):
        return sid >= 0 and spans[sid][0].startswith("laws.")

    checks = sum(1 for s in spans if s[0].startswith("laws.") and not is_law(s[3]))
    ops = sum(1 for s in spans if s[0].startswith("subspace.") and is_law(s[3]))
    out["laws.subspace_ops_per_check"] = ops / checks if checks else 0.0
    return out


def self_shares(tracer: Tracer) -> dict:
    """Each span name's self time as a share of the traced ops' wall time."""
    stats = span_stats(tracer.spans)
    wall = stats["op"]["total_s"] if "op" in stats else 0.0
    if not wall:
        return {}
    shares = {name: s["self_s"] / wall for name, s in stats.items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
