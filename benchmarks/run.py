"""Benchmark of ``specloss analyze`` and ``specloss synth``, run in process.

Usage, from the repository root::

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--short]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  With
``--workload all`` (the default) each workload runs in a process of its
own, one after another, so each set-up starts from a fresh process.

Each operation calls ``specloss.cli.main`` in this process with stdout
captured in memory, so a time covers argument parsing, loading, the
statistics and rendering, but not interpreter start-up.  Operations run
one after another (a closed loop with one caller) in whole rounds over
the workload's inputs until ``--seconds`` have passed.  Inputs are made
from ``--seed`` by the program's own generator.  Times are scaled to a
fixed machine pace measured by ``reference_work()`` between rounds.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced rounds with rounds in which every
``specloss`` layer is wrapped in spans (see ``instrument.py``), reports
the per-layer metrics, and writes the spans to ``.bench_out/``.
``--short`` runs one round of each operation with every check on.

Every output is checked against computations made apart from the
program (``check.py``).  A failed check makes the run exit with code 1.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

# Set-up time is counted from here, before specloss or numpy is imported.
_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import instrument
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_analyze.txt"
GOLDEN_SEED = 42
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUPS = 3        # set-ups per run, each in a fresh process
TAIL_MIN_OPS = 100  # fewest operations for which a p90 is a tail
# Seconds that reference_work() takes on the machine of the README's
# reference figures, in a fast spell.  Timings are scaled to that pace.
REFERENCE_S = 0.008
_REFERENCE_VEC = np.arange(4000.0)


def reference_work() -> float:
    """Seconds taken by a fixed piece of work that shares no code with specloss.

    The machine's other tenants slow it down by up to 2x for seconds to
    minutes.  Timed between rounds, this work measures how fast the
    machine runs at that moment: interpreted float, dict and string work
    and small numpy reductions, the mix whose slow-down tracked the
    workloads' best (README.md, Noise).
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(24000):
        acc += (i * 0.5) ** 0.5
        table[i & 1023] = (acc, i)
    acc += sum(float(x) for x in [str(float(i)) for i in range(6000)])
    for _ in range(300):
        acc += float((_REFERENCE_VEC * _REFERENCE_VEC).sum())
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    command: str       # "analyze" or "synth"
    days: int          # trading days per input (or per generated file)
    inputs: int        # distinct inputs, one operation each per round
    fmt: str = ""      # analyze output format

    def input_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + k for k in range(self.inputs)]


WORKLOADS = {
    w.name: w for w in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload("paper-255", "analyze", 255, 8, "text"),
        Workload("long-25500", "analyze", 25500, 2, "csv"),
        Workload("synth-25500", "synth", 25500, 2),
    )
}


def _capture(main, argv: list[str]) -> tuple[int | None, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _import_specloss():
    """Import specloss from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("specloss.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"specloss imported from {cli.__file__}, not from {SRC}")
    return cli


class Run:
    """One workload's inputs, operations and output checks."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.w = workload
        self.seeds = workload.input_seeds(seed)
        self.paths = [str(work / f"in-{s}.csv") for s in self.seeds]
        self.cli = None
        self.reference: dict[int, object] = {}   # first output per input
        self.mismatches = 0

    def ops(self) -> list[list[str]]:
        if self.w.command == "synth":
            return [["synth", "--seed", str(s), "--days", str(self.w.days), "--out", p]
                    for s, p in zip(self.seeds, self.paths)]
        return [["analyze", "--input", p, "--format", self.w.fmt] for p in self.paths]

    def setup(self) -> float:
        """Import specloss, write the inputs and warm up.

        Returns the seconds since this process started, so it must be the
        first thing the process does with specloss.
        """
        self.cli = _import_specloss()
        if self.w.command == "analyze":
            for s, p in zip(self.seeds, self.paths):
                code, _ = _capture(self.cli.main, [
                    "synth", "--seed", str(s), "--days", str(self.w.days), "--out", p])
                if code != 0:
                    raise SystemExit(f"synth --seed {s} exited {code} while making inputs")
        self.run_op(0)
        return time.perf_counter() - _PROCESS_START

    def run_op(self, index: int) -> tuple[bool, float]:
        """One operation; (succeeded, seconds).  Checks run after the clock."""
        argv = self.ops()[index]
        t0 = time.perf_counter()
        try:
            code, out = _capture(self.cli.main, argv)
        except Exception as exc:  # a crash counts as a failed operation
            print(f"operation {argv} raised {exc!r}", file=sys.stderr)
            return False, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if code != 0:
            return False, elapsed
        if self.w.command == "synth":
            out = (out, Path(argv[-1]).read_bytes())
        ref = self.reference.setdefault(index, out)
        if out != ref:
            self.mismatches += 1
        return True, elapsed

    def loop(self, seconds: float, rounds: int | None, recorder: SpanRecorder | None = None):
        """Whole rounds until ``seconds`` pass (or ``rounds`` are done).

        Returns (rounds, paces, attempted, failed), where each round is the
        list of its successful operations' times and its pace is the mean
        time reference_work() took just before it and just after it.
        """
        done: list[list[float]] = []
        marks = [reference_work()]
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            times: list[float] = []
            for index in range(len(self.seeds)):
                if recorder is not None:
                    recorder.begin_op()
                ok, elapsed = self.run_op(index)
                attempted += 1
                if ok:
                    times.append(elapsed)
                else:
                    failed += 1
            done.append(times)
            marks.append(reference_work())
            if (rounds is not None and len(done) >= rounds) or (
                    rounds is None and time.perf_counter() - start >= seconds):
                paces = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
                return done, paces, attempted, failed

    def peak_heap_mb(self) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            self.run_op(0)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def check(self) -> list[str]:
        """Independent checks of this run's outputs (outside any timing)."""
        import check

        problems = [f"{self.mismatches} operations gave output that differs from "
                    f"the first run on the same input"] if self.mismatches else []
        main = self.cli.main
        if self.w.command == "analyze":
            for index, path in enumerate(self.paths):
                if self.w.fmt == "csv" and index in self.reference:
                    report = self.reference[index]
                else:
                    code, report = _capture(main, ["analyze", "--input", path, "--format", "csv"])
                    if code != 0:
                        problems.append(f"analyze --format csv on {path} exited {code}")
                        continue
                try:
                    problems += check.check_analysis(path, report)
                except (KeyError, ValueError) as exc:
                    problems.append(f"{path}: CSV report lacks {exc}")
            code, text = _capture(main, ["analyze", "--synth-seed", str(GOLDEN_SEED)])
            if text != GOLDEN.read_text(encoding="utf-8"):
                problems.append(f"analyze --synth-seed {GOLDEN_SEED} differs from {GOLDEN.name}")
            return problems
        dataio = sys.modules["specloss.dataio"]
        for seed, path in zip(self.seeds, self.paths):
            problems += check.check_synth_file(path, seed, self.w.days)
            again = path + ".reloaded"
            dataio.write_market_csv(dataio.load_market_csv(path), again)
            if Path(again).read_bytes() != Path(path).read_bytes():
                problems.append(f"{path}: load_market_csv then write_market_csv changes the file")
        return problems


def _all_times(rounds: list[list[float]]) -> list[float]:
    return [t for times in rounds for t in times]


def _child_setup(workload: Workload, seed: int) -> float:
    """Set-up seconds of a fresh process that only sets up ``workload``."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=150)
    if child.returncode != 0:
        raise SystemExit(f"set-up process exited {child.returncode}: {child.stderr[-2000:]}")
    return float(child.stdout.split()[-1])


def bench(workload: Workload, args, work: Path) -> dict | None:
    run = Run(workload, args.seed, work)
    setups = [run.setup() * REFERENCE_S / reference_work()]
    if args.setup_only:
        print(setups[0])
        return None

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        # Untraced and traced rounds alternate, so both see the same
        # machine and trace.overhead_ms compares like with like.
        recorder = SpanRecorder()
        plain: list[float] = []
        traced: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            done, _, n, f = run.loop(0, 1)
            plain += _all_times(done)
            inst = instrument.install(recorder)
            try:
                done, _, n2, f2 = run.loop(0, 1, recorder)
            finally:
                inst.restore()
            traced += _all_times(done)
            attempted += n + n2
            failed += f + f2
            if args.short or time.perf_counter() >= deadline:
                break
        metrics = instrument.layer_metrics(recorder)
        # Medians over every operation, the population trace.self_sum_ms uses.
        traced_p50 = statistics.median(traced) * 1e3
        metrics["trace.op_ms_p50"] = (traced_p50, "ms")
        metrics["trace.overhead_ms"] = (traced_p50 - statistics.median(plain) * 1e3, "ms")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}.jsonl"
        recorder.write_jsonl(str(spans_path))
        print(f"{len(recorder.spans)} spans of {recorder.ops} traced operations "
              f"written to {spans_path}")
        if inst.absent:
            print("absent (reported as 0): " + ", ".join(inst.absent))
    else:
        timed, paces, attempted, failed = run.loop(args.seconds, 1 if args.short else None)
        setups += [_child_setup(workload, args.seed) for _ in range(SETUPS - 1)]
        wall = _all_times(timed)
        times = [t * REFERENCE_S / pace for pace, ts in zip(paces, timed) for t in ts]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["op_ms_p50"] = (statistics.median(times) * 1e3, "ms")
        metrics["days_per_s"] = (workload.days * len(times) / sum(times), "days/s")
        metrics["peak_heap_mb"] = (run.peak_heap_mb(), "MB")
        print(f"{len(times)} timed operations in {len(timed)} rounds; reference work "
              f"median {statistics.median(paces) * 1e3:.3f} ms; unscaled wall time "
              f"op_ms_p50 {statistics.median(wall) * 1e3:.3f} ms, "
              f"days_per_s {workload.days * len(wall) / sum(wall):.1f}")
        if len(times) >= TAIL_MIN_OPS:
            p90 = statistics.quantiles(times, n=10)[-1] * 1e3
            print(f"op_ms_p90 {p90:.3f} ms over {len(times)} operations")

    problems = run.check()
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"{workload.name} seed {args.seed}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one round of operations per workload, all checks on")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up one workload, print its scaled set-up seconds and exit")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")
    if not (SRC / "specloss").is_dir():
        print(f"no specloss sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = config["run_seconds"]
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            child = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                *(["--short"] if args.short else [])])
            code = max(code, child.returncode)
        return code
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = bench(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if result is None:
        return 0
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
