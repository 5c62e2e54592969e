"""Checks of the benchmark itself: layer coverage, count determinism, the
verdict gate, the replay and the metric list in BENCHMARK.json.

    python3 -m pytest bench/tests/check_trace.py

The file name keeps it out of the repository's default test collection:
it makes two traced ops per workload, about a minute in all.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import PER_LAYER, TIMED, Tracer, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LQ, CQ, CE = "lattice-quantum", "composite-quantum", "classical-exhaustive"
QUANTUM = {LQ, CQ}

# span or counter name -> the workloads whose op must call it
EXERCISED = {
    "core.orthonormalize": QUANTUM,
    "core.random_unitary": QUANTUM,
    **{f"subspace.{fn}": QUANTUM for fn in ("join", "meet", "ortho", "equal", "leq",
                                            "projector_distance", "span_of",
                                            "random_subspace")},
    **{f"laws.{fn}": {LQ} for fn in ("check_distributive", "compatible_second_criterion",
                                     "commuting_projectors", "is_modular_pair",
                                     "check_covering")},
    "laws.check_orthomodular": {LQ, CE},
    "laws.compatible": QUANTUM,
    "laws.check_triple_distributive": {CE},
    **{f"composite.{fn}": {CQ} for fn in ("verify_axioms", "verify_tensor_isomorphism",
                                          "build_basis_map", "morphism_apply", "lift")},
    # The canonical morphisms carry their linearity class, so no CLI path
    # classifies today; the metric shows if one starts to.
    "composite.classify_linearity": set(),
    "classical.product_space_isomorphism": {CE},
    "classical.connective": {CE},
    "cli.sample": {LQ},
    "cli.emit": {LQ, CQ, CE},
}
# layer prefix -> the workloads that must bypass it with exactly zero calls
BYPASSED = {
    "classical.": QUANTUM,
    "core.": {CE},
    "subspace.": {CE},
    "composite.": {CE},
}
DETERMINISTIC = (".calls", ".cols_in", ".orthonormalize_per_call", "cli.report_bytes")


def traced_run(workload: str, seed: int = 3):
    run = bench.Run(workload, seed, Tracer())
    run.measure(seconds=1, max_ops=1)
    return run, bench.per_layer_metrics(run)


@functools.cache
def two_runs(workload: str) -> list:
    return [traced_run(workload) for _ in range(2)]


def calls(run, name: str) -> float:
    if name in TIMED:
        stats = span_stats(run.tracer.spans)
        return stats[name]["calls"] if name in stats else 0
    return run.tracer.counts[name]


def test_every_name_is_covered():
    assert set(EXERCISED) == set(TIMED) | {"classical.connective"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_coverage(workload):
    (run, metrics), _ = two_runs(workload)
    assert run.failed == 0
    assert run.tracer.unbound == []
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    for name, workloads in EXERCISED.items():
        n = calls(run, name)
        if workload in workloads:
            assert n > 0, f"{name} recorded no call on {workload}"
        if any(name.startswith(p) and workload in w for p, w in BYPASSED.items()):
            assert n == 0, f"{name} recorded {n} calls on {workload}, which bypasses it"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    (_, first), (_, second) = two_runs(workload)
    names = [n for n in first if n.endswith(DETERMINISTIC)]
    assert len(names) > 20
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_op_reports_the_untraced_bytes(workload):
    # The traced op replays the untraced one's argv, so a tracer that
    # perturbed the program would fail the run.
    (run, _), _ = two_runs(workload)
    assert run.replayed and all(not r["problems"] for r in run.ops)


def _reports(run) -> list:
    (outputs,) = run._reports.values()
    return [json.loads(text) for text in outputs]


@pytest.mark.parametrize(
    "workload, report, path, value",
    [
        (LQ, 0, ("results", "distributive", "failures"), 0),
        (LQ, 0, ("results", "orthomodular", "trials"), 99),
        (LQ, 0, ("results", "expected_pattern"), False),
        (CQ, 0, ("results", "isomorphism", "target"), "H1*xH2"),
        (CQ, 0, ("results", "isomorphism", "trials"), 24),
        (CE, 0, ("results", "classical", "prop_count"), 64),
        (CE, 1, ("results", "atomic"), False),
    ],
)
def test_gate_rejects_a_contradicting_report(workload, report, path, value):
    (run, _), _ = two_runs(workload)
    gate = WORKLOADS[workload].gate
    reports = _reports(run)
    assert gate(reports, run.seed) == []
    tampered = copy.deepcopy(reports)
    node = tampered[report]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert gate(tampered, run.seed) != []


def test_replay_mismatch_fails_the_op():
    run = bench.Run(LQ, 5)
    assert not run.op(0)["problems"]
    (key,) = run._reports
    run._reports[key] = [text.replace('"trials": 100', '"trials": 101')
                         for text in run._reports[key]]
    assert run.op(0, replay=True)["problems"] == [
        "replay with the same argv gave different report bytes"]
    assert run.failed == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
