"""Every function in src/ is entered by a CLI run, or is allowlisted.

A fresh interpreter installs a call trace before it imports
``orthologic.cli`` and runs the CLI configurations of RUNS through
``cli.main``.  Every function of src/orthologic (methods and nested
functions included; lambdas and comprehensions are not counted) that no
run enters must be in ALLOWED, with its reason; an allowlisted function
that a run does enter must leave the list.  So surface that no command
reaches cannot come back unnoticed, and wiring a kept function into a
verdict shrinks the list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "orthologic"

RUNS = (
    ["lattice-check", "--dim1", "3", "--trials", "100"],
    ["lattice-check", "--dim1", "8", "--trials", "100"],
    ["lattice-check", "--classical", "--omega", "5"],
    ["composite-verify", "--dim1", "4", "--dim2", "4", "--twist"],
    ["composite-verify", "--dim1", "3", "--dim2", "5", "--twist", "--conjugate-h2"],
    ["composite-verify", "--dim1", "3", "--dim2", "3", "--conjugate-h1"],
    ["composite-verify", "--dim1", "5", "--dim2", "3", "--twist", "--conjugate-h1",
     "--conjugate-h2"],
    ["composite-verify", "--classical", "--n1", "3", "--n2", "3"],
    ["truth-demo"],
    ["truth-demo", "--energies", "--eigenfunctions-csv", "{out}/eig.csv",
     "--curve-csv", "{out}/curve.csv"],
)

WIRED = "the lemma chain, which a composite-verify verdict is to check"
REPLAY = "replays or serializes a recorded counterexample"
BENCH = "a binding that bench/tracer.py times"
FAILING = "runs only when a check fails"

# module.qualname -> why no CLI run enters it
ALLOWED = {
    # the lemma chain, with the tensor module that its separability and
    # Riesz identification checks use
    "composite.intertwiner_F": WIRED,
    "composite.intertwiner_F.apply": WIRED,
    "composite.restriction_iso_u": WIRED,
    "composite.restriction_iso_u.mapped": WIRED,
    "composite.check_commutation": WIRED,
    "composite.check_m_morphism": WIRED,
    "tensor.TensorIndex.__post_init__": WIRED,
    "tensor.TensorIndex.dim": WIRED,
    "tensor.TensorIndex.coefficient_matrix": WIRED,
    "tensor.DualVector.__post_init__": WIRED,
    "tensor.DualVector.dim": WIRED,
    "tensor.DualVector.__call__": WIRED,
    "tensor.riesz": WIRED,
    "tensor.riesz_inverse": WIRED,
    "tensor.dual_inner": WIRED,
    "tensor.elementary_tensor": WIRED,
    "tensor.is_separable": WIRED,
    # replay and counterexample forms
    "composite.recheck_axiom_counterexample": REPLAY,
    "subspace.subspace_from_json": REPLAY,
    "classical.ClassicalProp.to_json": REPLAY,
    "classical.ClassicalProp.from_json": REPLAY,
    # the benchmark tracer's bindings
    "composite.verify_axioms": BENCH,
    "composite.BasisMap.lift_inverse": BENCH,
    # failure paths
    "composite._axiom_ce": FAILING,
    "laws._bit_counts": FAILING,
    # other library code
    "classical.ClassicalMorphism.__call__": "maps propositions; every check reads the tables",
    "core._one": "gives the samplers their scalar seeds",
    "laws.check_triple_distributive.both": "the subspace hypothesis of the triple law",
    "subspace.Subspace.__repr__": "the readable form of a subspace",
}

# Runs RUNS under a call trace and prints the (file, first line, name) of
# every code object entered in src/orthologic.
TRACED = """
import contextlib, io, json, sys
entered = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(PACKAGE):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.settrace(trace)
from orthologic import cli
codes = []
for argv in RUNS:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def functions() -> dict:
    """(file, first line, name) -> module.qualname of every function
    defined in src/orthologic, from its compiled code objects."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
            walk(const, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


def test_every_unentered_function_is_allowlisted(tmp_path):
    runs = [[arg.format(out=tmp_path) for arg in argv] for argv in RUNS]
    script = f"PACKAGE = {str(PACKAGE)!r}\nRUNS = {runs!r}\n" + TRACED
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(RUNS)
    defined = functions()
    entered = {defined[tuple(key)] for key in result["entered"] if tuple(key) in defined}
    unentered = set(defined.values()) - entered
    for problem, names in (
        ("unentered and not allowlisted", unentered - ALLOWED.keys()),
        ("allowlisted but entered", ALLOWED.keys() & entered),
        ("allowlisted but not defined", ALLOWED.keys() - set(defined.values())),
    ):
        assert not names, f"{problem}: {sorted(names)}"
