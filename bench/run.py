"""orthologic benchmark: timed verification sessions through the public CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client in one process: the next operation starts
only when the previous one has finished.  An operation is one
verification session, the workload's ``orthologic.cli.main(argv)``
invocations run in order (see workloads.py).  Operations start while the
next one, at the median duration so far, still ends within ``--seconds``.

Every operation passes a verdict gate, and one operation per run is
replayed with the same argv and must give byte-identical reports.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (operation times rescaled to a reference
machine speed, see SpeedProbe), and with ``--trace 1`` the per-layer
metrics of tracer.py, from runs that pair every traced operation with an
untraced one.  The line before it holds the unscaled times, the failed
ratio and the provenance; run details and the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import PER_LAYER, Tracer, layer_metrics, self_shares  # noqa: E402
from workloads import WORKLOADS, verdict  # noqa: E402

END_TO_END = {
    "verdict_s_p50": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import orthologic.cli as cli; cli.build_parser()"
)
# The shared machine's speed drifts by a fifth and more within seconds,
# in CPU time as much as in wall time.  In untraced runs a SIGALRM handler
# times a fixed loop of small numpy calls, which does not use orthologic,
# every PROBE_INTERVAL_S of each op.  The op's time, less the probe's, is
# rescaled to the speed at which that loop takes REFERENCE_S, its median
# during ops on the 2-vCPU Xeon (2.1 GHz) the benchmark was defined on.
# Small numpy calls tracked the drift of all three workloads better than a
# pure-Python loop did.
PROBE_ITERS = 150
PROBE_INTERVAL_S = 0.05
REFERENCE_S = 0.001
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_cli():
    """orthologic.cli imported from this checkout's sources."""
    if not (SRC / "orthologic" / "cli.py").is_file():
        raise SystemExit(f"error: no orthologic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthologic.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "orthologic":
        raise SystemExit(f"error: orthologic imported from {cli.__file__}, not {SRC}")
    return cli


class SpeedProbe:
    """Samples the machine's speed while a function runs."""

    def __init__(self):
        self.samples: list = []
        self._busy = False
        self._vector = np.ones(16, dtype=complex) / 4

    def _sample(self, *_):
        if self._busy:  # a signal that lands while the loop runs
            return
        self._busy = True
        v = self._vector
        start = time.perf_counter()
        for _ in range(PROBE_ITERS):
            v = v - v * (np.vdot(v, v).real * 1e-9)
            float(np.linalg.norm(v))
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def timed(self, fn):
        """(fn(), its wall seconds less the probe's, mean probe seconds).
        One sample before and one after cover functions shorter than the
        interval."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self.samples[1:])
        self._sample()
        return result, elapsed - inside, statistics.mean(self.samples)


def plain_timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start, None


def invoke(main, argv: list):
    """(exit code, report text) of one in-process CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


class Run:
    """One benchmark run: its operations, their verdicts and the replay."""

    def __init__(self, workload_name: str, seed: int, tracer: Tracer | None = None):
        self.cli = load_cli()
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.tracer = tracer
        self.timed = plain_timed if tracer else SpeedProbe().timed
        self.ops: list = []  # one dict per operation run
        self._reports: dict = {}  # argv -> outputs of its first run
        self.replayed = False

    def op(self, i: int, traced: bool = False, replay: bool = False) -> dict:
        """Run op ``i``, gate it and compare it with any earlier run of
        the same argv.  A replay is left out of the metrics."""
        argvs = self.workload.argvs(self.seed, i)
        main = self.cli.main
        with self.tracer.installed(i) if traced else contextlib.nullcontext():
            if traced:
                main = self.tracer.wrap("cli.main", main)

            def session():
                try:
                    return [invoke(main, argv) for argv in argvs], []
                except Exception:  # a crashing op is a failed op, not a failed run
                    return [], [traceback.format_exc(limit=-3)]

            if traced:
                session = self.tracer.wrap("op", session)
            (results, problems), seconds, reference_s = self.timed(session)
        codes = [code for code, _ in results]
        outputs = [text for _, text in results]
        if not problems:
            problems = verdict(self.workload, codes, outputs, self.seed + i)
        key = json.dumps(argvs)
        if key in self._reports:
            self.replayed = True
            if self._reports[key] != outputs:
                problems.append("replay with the same argv gave different report bytes")
        elif not problems:
            self._reports[key] = outputs
        checks = 0 if problems else self.workload.checks([json.loads(t) for t in outputs])
        for reason in problems:
            print(f"op {i} ({self.workload.name}) failed: {reason}", file=sys.stderr)
        record = {
            "i": i, "seconds": seconds, "reference_s": reference_s, "traced": traced,
            "replay": replay, "checks": checks,
            "report_bytes": sum(len(t.encode("utf-8")) for t in outputs),
            "problems": problems,
        }
        self.ops.append(record)
        return record

    def measure(self, seconds: float, max_ops: int | None = None) -> None:
        """Run ops until the next would end after ``seconds`` (at least
        one); with a tracer each op runs untraced and traced, in
        alternating order."""
        for argv in self.workload.warmup:
            invoke(self.cli.main, argv)
        start, units, i = time.perf_counter(), [], 0
        while True:
            t0 = time.perf_counter()
            if self.tracer is None:
                self.op(i)
            else:
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self.op(i, traced)
            units.append(time.perf_counter() - t0)
            i += 1
            if max_ops is not None and i >= max_ops:
                break
            if time.perf_counter() - start + statistics.median(units) > seconds:
                break
        if not self.replayed:
            self.op(0, replay=True)

    def timed_ops(self, traced: bool) -> list:
        return [r for r in self.ops if r["traced"] == traced and not r["replay"]]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if r["problems"])


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import orthologic.cli and
    build its parser; one spawn before them warms the file cache.  No
    timeout: waiting with one polls in sleeps of up to 50 ms, which would
    round the times up to that step."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def end_to_end_metrics(run: Run) -> tuple:
    """(metrics, op times before rescaling to reference speed)."""
    ops = run.timed_ops(traced=False)
    checks = sum(r["checks"] for r in ops)
    scaled = [r["seconds"] * REFERENCE_S / r["reference_s"] for r in ops]
    raw = [r["seconds"] for r in ops]
    metrics = {
        "verdict_s_p50": statistics.median(scaled),
        "checks_per_s": checks / sum(scaled),
        "setup_s": setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"verdict_s_p50": statistics.median(raw), "checks_per_s": checks / sum(raw)}


def per_layer_metrics(run: Run) -> dict:
    traced, plain = run.timed_ops(traced=True), run.timed_ops(traced=False)
    values = layer_metrics(run.tracer, len(traced))
    values["cli.report_bytes"] = statistics.mean(r["report_bytes"] for r in traced)
    # Each traced op runs next to its untraced twin, so the machine's drift
    # cancels within a pair.
    values["trace.overhead_ratio"] = statistics.median(
        t["seconds"] / p["seconds"] for t, p in zip(traced, plain)) - 1
    return values


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args.workload, args.seed, Tracer() if args.trace else None)
    run.measure(args.seconds)
    unscaled = None
    if args.trace:
        values = per_layer_metrics(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values, unscaled = end_to_end_metrics(run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted, failed = len(run.ops), run.failed
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "ops": run.ops,
        "unscaled": unscaled,
        "failed_ratio": failed / attempted, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        detail["self_shares"] = self_shares(run.tracer)
        detail["unbound"] = run.tracer.unbound
        run.tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    timed = run.timed_ops(traced=bool(args.trace))
    print(json.dumps({
        "workload": args.workload, "ops_timed": len(timed),
        "op_seconds": [round(r["seconds"], 4) for r in timed],
        "failed_ratio": failed / attempted, "unscaled": unscaled,
        "provenance": detail["provenance"],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
