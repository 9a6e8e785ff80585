#!/usr/bin/env python3
"""snnflow benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload explore-a2a4 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports ``snnflow`` from
``src/`` and refuses to run without it.  The run draws instances of the
workload from ``--seed`` and works through them until ``--seconds`` have
passed, checking every operation's output.  It prints a readable report,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics that ``BENCHMARK.json`` lists with
``--trace 0``, its per-layer metrics of a traced run with ``--trace 1``.  Scratch files go to
``.bench_out/`` in the checkout; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 2        # untraced operations per run, whatever --seconds says
SETUP_REPEATS = 5  # fresh processes timed for setup_s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def measure_setup(name: str, paths: dict[str, str]) -> float:
    """Median wall time from starting a process to its inputs being ready:
    interpreter start, ``import snnflow`` and loading the files."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name,
            *(f"{k}={v}" for k, v in paths.items())]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def past(deadline: float, durations: list[float]) -> bool:
    """Whether another step, lasting the median of ``durations``, would
    end more than half its length after ``deadline``."""
    step = statistics.median(durations) if durations else 0.0
    return time.perf_counter() + step / 2 >= deadline


class Run:
    """Operations of one run: timings, round outcomes and check results."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.spent: list[float] = []  # wall time of every operation
        self.rounds = 0
        self.round_failures = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: list[dict[str, float]] = []
        self.first = None  # (inputs, flow_seed, result) of instance 0

    def timed(self, inputs, flow_seed, jobs: int = 1):
        t0 = time.perf_counter()
        try:
            result = self.wl.run(inputs, flow_seed, jobs)
        except Exception as exc:  # an operation that raises is a failed one
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return result, time.perf_counter() - t0, None

    def record(self, index, inputs, flow_seed, result, elapsed, error):
        self.attempted += 1
        self.spent.append(elapsed)
        if error is None:
            errs = self.wl.check(inputs, flow_seed, result)
            error = "; ".join(errs) if errs else None
        if error is not None:
            self.failed += 1
            self.errors.append(f"instance {index}: {error}")
            return
        self.times.append(elapsed)
        fails = self.wl.round_failures(result)
        self.rounds += len(fails)
        self.round_failures += sum(fails)
        self.quality.append(self.wl.quality(result))
        if self.first is None:
            self.first = (inputs, flow_seed, result)


def run_untraced(wl, args, work) -> tuple[Run, dict]:
    """A fresh instance per operation until the time is up; ``run_s`` is
    the mean operation time, the measured time over the operations."""
    import workloads
    run = Run(wl)
    paths0 = None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_OPS or not past(deadline, run.spent):
        paths, flow_seed = wl.write_inputs(args.seed, index, work)
        paths0 = paths0 or paths
        inputs = workloads.load_inputs(paths)
        result, elapsed, error = run.timed(inputs, flow_seed)
        run.record(index, inputs, flow_seed, result, elapsed, error)
        index += 1
    metrics = {}
    if run.times:
        metrics = {"setup_s": measure_setup(wl.name, paths0),
                   "run_s": statistics.mean(run.times),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics.update(quality_metrics(run))
    return run, metrics


def run_traced(wl, args, work) -> tuple[Run, dict]:
    """Each instance runs both untraced and traced; the pairs give the
    layer shares of the untraced time and the tracing overhead."""
    import spans
    import workloads
    tracer = spans.Tracer()
    run = Run(wl)
    traced_s = untraced_s = 0.0
    deadline = time.perf_counter() + args.seconds
    index = 0
    pairs: list[float] = []
    while index < 1 or not past(deadline, pairs):
        t0 = time.perf_counter()
        paths, flow_seed = wl.write_inputs(args.seed, index, work)
        tracer.phase = "setup"
        tracer.install()
        try:
            inputs = workloads.load_inputs(paths)
        finally:
            tracer.uninstall()
        # alternate which run goes first, so warm-up favours neither
        if index % 2:
            plain, plain_s, error = run.timed(inputs, flow_seed)
        tracer.phase = "run"
        tracer.install()
        try:
            result, elapsed, traced_error = run.timed(inputs, flow_seed)
        finally:
            tracer.uninstall()
        if not index % 2:
            plain, plain_s, error = run.timed(inputs, flow_seed)
        error = error or traced_error
        if error is None and wl.fingerprint(plain) != wl.fingerprint(result):
            error = "the traced run's output differs from the untraced one"
        run.record(index, inputs, flow_seed, result, elapsed, error)
        traced_s += elapsed
        untraced_s += plain_s
        pairs.append(time.perf_counter() - t0)
        index += 1
    tracer.write(str(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"))
    metrics = tracer.metrics(index, traced_s, untraced_s) if run.times else {}
    metrics.update(quality_metrics(run))
    metrics["trace.untraced_run_s"] = untraced_s / index
    return run, metrics


def quality_metrics(run: Run) -> dict[str, float]:
    """Round failure share and front quality (median over operations);
    the front figures read 0 on a workload that builds no front."""
    out = {"round_fail_frac": run.round_failures / max(1, run.rounds)}
    for key in ("best_throughput", "buffer_at_best", "min_buffer_throughput"):
        values = [q[key] for q in run.quality if key in q]
        out[key] = statistics.median(values) if values else 0.0
    return out


def check_jobs(wl, run: Run) -> str | None:
    """The first instance, re-run with two worker processes, must give the
    same front as with one."""
    inputs, flow_seed, result = run.first
    parallel, _, error = run.timed(inputs, flow_seed, jobs=2)
    if error is not None:
        return f"jobs=2: {error}"
    if wl.fingerprint(parallel) != wl.fingerprint(result):
        return "jobs=2 gives a different front than jobs=1"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snnflow" / "__init__.py").is_file():
        print(f"error: no snnflow sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        if args.trace:
            run, metrics = run_traced(wl, args, work)
        else:
            run, metrics = run_untraced(wl, args, work)
    if wl.check_jobs and run.first is not None:
        run.attempted += 1
        error = check_jobs(wl, run)
        if error:
            run.failed += 1
            run.errors.append(error)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(run.times)}  rounds {run.rounds}")
    print(f"operation times (s) {[round(t, 3) for t in run.times]}")
    if run.first is not None:
        print(f"front fingerprint {wl.fingerprint(run.first[2])}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for error in run.errors:
        print(f"FAILED {error}")
    correct = run.failed == 0 and all(k in metrics for k in reported)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in reported if k in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
