"""The benchmark's workloads: the CLI invocations of one operation, a
warm-up, the verdict gate and the count of instances checked.

An operation is one verification session: the workload's CLI
invocations, run in order.  Op ``i`` of a quantum workload runs with
``--seed <workload seed> + i``; the classical workload is exhaustive and
takes no seed.  Each gate compares verdict fields and configured counts,
never residual bytes, so a kernel that changes the last digits of a
residual still passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

LQ_DIM, LQ_TRIALS = 8, 100
CQ_DIM, CQ_TRIALS = 4, 25
CE_N, CE_OMEGA = 3, 5
# the lattice-check laws whose reports carry a per-law trial count
LQ_COUNTED_LAWS = ("orthomodular", "distributive", "compatibility_criteria")


@dataclass(frozen=True)
class Workload:
    name: str
    # argvs(workload_seed, op_index) -> the CLI invocations of one op
    argvs: Callable[[int, int], list]
    # small invocations of the same subcommands, run once before timing
    warmup: list
    # gate(reports, seed) -> list of reasons the op contradicts the paper
    gate: Callable[[list, int], list]
    # checks(reports) -> instances checked, read from the reports
    checks: Callable[[list], int]


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# lattice-quantum ----------------------------------------------------------


def _lq_argvs(seed: int, i: int) -> list:
    return [["lattice-check", "--dim1", str(LQ_DIM), "--trials", str(LQ_TRIALS),
             "--seed", str(seed + i)]]


def _lq_gate(reports: list, seed: int) -> list:
    (rep,) = reports
    res, cfg = rep["results"], rep["config"]
    p: list = []
    _expect(p, (cfg["classical"], cfg["dim1"], cfg["trials"], cfg["seed"])
            == (False, LQ_DIM, LQ_TRIALS, seed), f"config {cfg}")
    _expect(p, res["expected_pattern"] is True, "expected_pattern is not true")
    _expect(p, res["orthomodular"]["holds"] is True, "orthomodularity fails")
    _expect(p, res["distributive"]["failures"] > 0, "no distributivity failure")
    _expect(p, res["distributive"]["counterexample"] is not None, "no counterexample")
    _expect(p, res["nondistributivity_witness"]["holds"] is False, "witness holds")
    _expect(p, res["compatibility_criteria"]["agree"] is True, "criteria disagree")
    for law in LQ_COUNTED_LAWS:
        _expect(p, res[law]["trials"] == LQ_TRIALS, f"{law} trials {res[law]['trials']}")
    return p


def _lq_checks(reports: list) -> int:
    res = reports[0]["results"]
    return sum(res[law]["trials"] for law in LQ_COUNTED_LAWS)


# composite-quantum --------------------------------------------------------


def _cq_argvs(seed: int, i: int) -> list:
    return [["composite-verify", "--dim1", str(CQ_DIM), "--dim2", str(CQ_DIM), "--twist",
             "--trials", str(CQ_TRIALS), "--seed", str(seed + i)]]


def _axiom_samples(trials: int) -> dict:
    # Axiom I samples the full and zero images plus `trials` triples per side.
    return {"I_c_morphism": 2 * (trials + 2), "II_compatibility": trials, "III_atoms": trials}


def _axioms_pass(p: list, axioms: list, trials: int, where: str) -> None:
    samples = {a["axiom"]: a["samples"] for a in axioms}
    _expect(p, samples == _axiom_samples(trials), f"{where} axiom samples {samples}")
    for a in axioms:
        _expect(p, a["passed"] is True, f"{where} axiom {a['axiom']} fails")


def _cq_gate(reports: list, seed: int) -> list:
    (rep,) = reports
    res, cfg = rep["results"], rep["config"]
    iso = res["isomorphism"]
    p: list = []
    _expect(p, (cfg["dim1"], cfg["dim2"], cfg["trials"], cfg["seed"], cfg["twist"])
            == (CQ_DIM, CQ_DIM, CQ_TRIALS, seed, True), f"config {cfg}")
    _axioms_pass(p, res["axioms"], CQ_TRIALS, "composite")
    _axioms_pass(p, iso["axioms"], max(10, CQ_TRIALS // 2), "isomorphism")
    _expect(p, iso["passed"] is True, f"isomorphism fails: {iso['failures'][:3]}")
    _expect(p, iso["target"] == "H1xH2", f"target {iso['target']}")
    _expect(p, iso["linearity"] == ["linear", "linear"], f"linearity {iso['linearity']}")
    _expect(p, iso["trials"] == CQ_TRIALS, f"isomorphism trials {iso['trials']}")
    return p


def _cq_checks(reports: list) -> int:
    res = reports[0]["results"]
    return sum(a["samples"] for a in res["axioms"]) + res["isomorphism"]["trials"]


# classical-exhaustive -----------------------------------------------------


def _ce_argvs(seed: int, i: int) -> list:
    return [
        ["composite-verify", "--classical", "--n1", str(CE_N), "--n2", str(CE_N)],
        ["lattice-check", "--classical", "--omega", str(CE_OMEGA)],
    ]


def _ce_gate(reports: list, seed: int) -> list:
    comp, lat = reports
    iso, res = comp["results"]["classical"], lat["results"]
    p: list = []
    _expect(p, iso["prop_count"] == 2 ** (CE_N * CE_N), f"product prop_count {iso['prop_count']}")
    for key in ("bijective", "preserves_union", "preserves_intersection",
                "preserves_complement", "passed"):
        _expect(p, iso[key] is True, f"isomorphism {key} is not true")
    _expect(p, res["omega"] == CE_OMEGA, f"omega {res['omega']}")
    _expect(p, res["prop_count"] == 2 ** CE_OMEGA, f"lattice prop_count {res['prop_count']}")
    for key in ("distributive", "orthomodular", "absorption", "atomic", "de_morgan",
                "expected_pattern"):
        _expect(p, res[key] is True, f"classical law {key} is not true")
    return p


def _ce_checks(reports: list) -> int:
    product = reports[0]["results"]["classical"]["prop_count"]
    lattice = reports[1]["results"]["prop_count"]
    return product ** 2 + lattice ** 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-quantum",
            _lq_argvs,
            [["lattice-check", "--dim1", "3", "--trials", "4"]],
            _lq_gate,
            _lq_checks,
        ),
        Workload(
            "composite-quantum",
            _cq_argvs,
            [["composite-verify", "--dim1", "3", "--dim2", "3", "--twist", "--trials", "2"]],
            _cq_gate,
            _cq_checks,
        ),
        Workload(
            "classical-exhaustive",
            _ce_argvs,
            [["composite-verify", "--classical", "--n1", "1", "--n2", "2"],
             ["lattice-check", "--classical", "--omega", "2"]],
            _ce_gate,
            _ce_checks,
        ),
    )
}


def verdict(workload: Workload, exit_codes: list, outputs: list, seed: int) -> list:
    """Reasons the op fails: a non-zero exit, an unreadable report, or a
    report that contradicts the paper or checked fewer instances than asked."""
    if any(code != 0 for code in exit_codes):
        return [f"exit codes {exit_codes}"]
    try:
        reports = [json.loads(text) for text in outputs]
        return workload.gate(reports, seed)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
