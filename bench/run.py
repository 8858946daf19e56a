"""Run one setfam benchmark workload and print its metrics.

    python3 bench/run.py --workload pierce|atoms|cli --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the ``src`` directory next
to this one. The run first checks that its checks reject corrupted outputs.
Then, for the given seconds and until at least MIN_OPS operations ran, it
repeats whole cycles: build the workload's inputs from the seed (set-up),
then one pass over the workload's operations. Between operations it times a
fixed reference task, and it states every time at the reference speed (see
pace.py), so that the host's drifting speed does not move the figures. Every
output of the first pass
is checked against an independent computation; later passes must reproduce
it exactly. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0`` and per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

MIN_OPS = 100
IMPORT_PROBES = 3
# Each cycle builds the inputs until the builds took this long, at least once,
# so that a set-up of a few milliseconds is sampled as often as a long one.
SETUP_MIN_S = 0.1


def _import_setfam():
    src = ROOT / "src"
    if not (src / "setfam" / "__init__.py").is_file():
        raise SystemExit(f"bench: no setfam package under {src}")
    sys.path.insert(0, str(src))
    import setfam
    import setfam.cli  # noqa: F401  (loads every layer module before tracing)

    return setfam


def _peak_rss_mib(workload: str) -> float:
    # The cli workload's work happens in its setfam child processes.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, args, setfam, tracer: spans.Tracer | None) -> None:
        self.args = args
        self.setfam = setfam
        self.tracer = tracer
        self.pace = pace.Pace()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Timed intervals as (start, end): each set-up, and each operation of
        # each pass.
        self.setups: list[tuple[float, float]] = []
        self.passes: list[list[tuple[float, float]]] = []
        self.report_bytes: list[int] = []

    def _phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def measure(self, workdir: Path) -> None:
        build = workloads.BUILDERS[self.args.workload]
        reference: dict[int, object] = {}
        start = time.perf_counter()
        last_cycle = 0.0
        # Whole cycles of set-up and pass only, and none that would end after
        # --seconds. Building the inputs again before every pass spreads the
        # set-up samples over the run, as the pass samples are.
        while (
            not self.passes
            or self.attempted < MIN_OPS
            or time.perf_counter() - start + last_cycle <= self.args.seconds
        ):
            cycle_start = time.perf_counter()
            built = 0.0
            while built < SETUP_MIN_S:
                self._phase(f"setup{len(self.setups)}")
                self.pace.sample()
                t0 = time.perf_counter()
                workload = build(self.setfam, self.args.seed, workdir, self.tracer is not None)
                t1 = time.perf_counter()
                self.setups.append((t0, t1))
                built += t1 - t0
                self.pace.sample()
            self._phase(f"pass{len(self.passes)}")
            timed: list[tuple[float, float]] = []
            for k, op in enumerate(workload.ops):
                if op.prepare:
                    op.prepare()
                self.pace.tick()
                # Start each operation with empty collector generations, so the
                # collector scans only what the operation itself allocates and
                # never the inputs and outputs the benchmark keeps.
                gc.collect()
                gc.freeze()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a crash of the program is a failed operation
                    out = exc
                timed.append((t0, time.perf_counter()))
                if isinstance(out, Exception):
                    self.failed += 1
                    if not self.passes:
                        print(f"failed: {op.name}: {type(out).__name__}: {out}", file=sys.stderr)
                else:
                    self._judge(k, op, out, reference)
            self.pace.sample()
            self.passes.append(timed)
            self.report_bytes.append(sum(p.stat().st_size for p in workload.reports if p.exists()))
            last_cycle = time.perf_counter() - cycle_start

    def _judge(self, k: int, op: workloads.Op, out, reference: dict) -> None:
        # Checking runs after the timed call, so it never counts as busy time.
        # An output the checks cannot even read (say, a report without its
        # keys) is as wrong as one they reject.
        try:
            if k not in reference:
                problem = op.check(out)
                reference[k] = op.fingerprint(out)
            elif op.fingerprint(out) != reference[k]:
                problem = "output differs from the first pass"
            else:
                problem = None
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self.problems.append(f"{op.name}: {problem}")

    def _scaled(self, interval: tuple[float, float]) -> float:
        start, end = interval
        return self.pace.scale(end - start, start, end)

    def _setup_scaled(self) -> list[float]:
        # Scaled by the samples taken right around each build only: on cli the
        # passes around a set-up run child processes, and the reference time
        # in between them differs from that in a set-up.
        return [self.pace.scale(end - start, start, end, window=0.0) for start, end in self.setups]

    def summary(self) -> str:
        """Medians as measured and at reference speed, for the log line."""
        raw = [end - start for ops in self.passes for start, end in ops]
        scaled = [self._scaled(op) for ops in self.passes for op in ops]
        figures = []
        for label, measured, at_ref in (
            ("setup", [end - start for start, end in self.setups], self._setup_scaled()),
            ("pass", [sum(end - start for start, end in ops) for ops in self.passes],
             [sum(map(self._scaled, ops)) for ops in self.passes]),
            ("op", raw, scaled),
        ):
            figures.append(f"{label} {statistics.median(measured):.6g} s measured, {statistics.median(at_ref):.6g} s at ref")
        return (
            f"{len(self.passes)} passes; " + "; ".join(figures)
            + f"; reference task {self.pace.median() * 1000:.4g} ms measured, {pace.REFERENCE_S * 1000:.4g} ms at ref"
        )

    def end_to_end(self) -> dict:
        samples = sorted(self._scaled(op) for ops in self.passes for op in ops)
        p90_rank = math.ceil(0.9 * len(samples))
        print(f"op_p90_s over {len(samples)} samples, {len(samples) - p90_rank} above it", file=sys.stderr)
        return {
            "setup_s": _metric(statistics.median(self._setup_scaled()), "s"),
            "pass_s": _metric(statistics.median(sum(map(self._scaled, ops)) for ops in self.passes), "s"),
            "op_p50_s": _metric(statistics.median(samples), "s"),
            "op_p90_s": _metric(samples[p90_rank - 1], "s"),
            "peak_rss_mib": _metric(_peak_rss_mib(self.args.workload), "MiB"),
        }

    def per_layer(self) -> dict:
        # phase -> name -> [self seconds at reference speed, calls]
        totals: dict[str, dict[str, list]] = {}
        for _, name, _, start, end, phase, self_s in self.tracer.spans:
            slot = totals.setdefault(phase, {}).setdefault(name, [0.0, 0])
            slot[0] += self.pace.scale(self_s, start, end)
            slot[1] += 1
        metrics = {}
        for name in spans.NAMES:
            # One set-up plus one pass: medians of self time, calls of the last.
            per_phase = [
                [totals.get(f"{phase}{k}", {}).get(name, (0.0, 0)) for k in range(count)]
                for phase, count in (("setup", len(self.setups)), ("pass", len(self.passes)))
            ]
            self_s = sum(statistics.median(t[0] for t in phase) for phase in per_phase)
            calls = sum(phase[-1][1] for phase in per_phase)
            metrics[f"{name}.self_s"] = _metric(self_s, "s")
            metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics["cli.import_s"] = _metric(self._import_seconds(), "s")
        metrics["cli.report_bytes"] = _metric(statistics.median(self.report_bytes), "bytes")
        return metrics

    def _import_seconds(self) -> float:
        """Median time to import setfam.cli in a fresh interpreter, at reference speed."""
        code = "import time; t = time.perf_counter(); import setfam.cli; print(time.perf_counter() - t)"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probes = []
        for _ in range(IMPORT_PROBES):
            self.pace.sample()
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
            )
            end = time.perf_counter()
            self.pace.sample()
            probes.append(self.pace.scale(float(proc.stdout), start, end))
        return statistics.median(probes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one setfam benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setfam = _import_setfam()
    missed, wrong = checks.self_test(setfam)
    if missed:
        for line in missed:
            print(f"self-test: {line}", file=sys.stderr)
        return 3

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run = Run(args, setfam, tracer)
    run.problems += wrong
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run.measure(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    for problem in run.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {run.summary()}; "
        f"{run.attempted} operations, {run.failed} failed, {len(run.problems)} incorrect"
    )
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer() if tracer else run.end_to_end(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
