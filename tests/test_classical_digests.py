"""The classical reports are pinned byte for byte.

``classical_digests.json`` holds, for every exhaustive classical run
(``lattice-check --classical`` at omega 1-8 and ``composite-verify
--classical`` at every n1 x n2 <= 12), its exit code and the sha256 of
its stdout.  Classical reports hold only booleans, integers and strings,
so the digests do not depend on the BLAS kernel or the numpy version.
A change that moves any of these bytes fails here; when the move is
intended, say so in CHANGES.md and rewrite the file with

    PYTHONPATH=src python tests/test_classical_digests.py > tests/classical_digests.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from orthologic import cli

DIGESTS = Path(__file__).resolve().parent / "classical_digests.json"

RUNS = [["lattice-check", "--classical", "--omega", str(omega)]
        for omega in range(1, cli.MAX_OMEGA + 1)] + [
    ["composite-verify", "--classical", "--n1", str(n1), "--n2", str(n2)]
    for n1 in range(1, cli.MAX_PRODUCT_POINTS + 1)
    for n2 in range(1, cli.MAX_PRODUCT_POINTS // n1 + 1)
]


def records() -> list:
    """The argv, exit code and stdout sha256 of every run of RUNS."""
    out = []
    for argv in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        out.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    return out


def test_every_classical_report_matches_its_digest():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in expected] == RUNS
    moved = [(e["argv"], e, r) for e, r in zip(expected, records()) if e != r]
    assert not moved, f"{len(moved)} classical reports moved, first {moved[0]}"


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]")
