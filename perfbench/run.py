"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up imports `nlie` from `src/`, builds
every input of the workload from the seed and runs one warm-up operation;
`setup_s` is the median of that set-up timed here and in two fresh child
processes.  The timed loop then runs the workload's operations in whole
passes until they have taken `--seconds` (two passes at least), checks
every result with the independent checker outside the timed window, and
prints {"correct", "attempted", "failed", "metrics"}.  Times are
reference-host times (see `measure` and README.md).  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones, from a run with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 2
SETUP_REF_SAMPLES = 40
MIN_PASSES = 2
# Host-speed reference: Gaussian elimination over Fraction on a fixed 7x7
# integer matrix, by the benchmark's own checker (no nlie code), timed
# after every step of every operation.  REF_NOMINAL_S is its time on the
# reference host: the machine the figures in README.md come from, with
# nothing else running on it.
REF_ROWS = [[(7 * i * i + 13 * j + 5 * i * j) % 61 - 30 for j in range(7)] for i in range(7)]
REF_NOMINAL_S = 0.0004
REF_SAMPLES = 3

sys.path.insert(0, HERE)
import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def setup(workload: str, seed: int, workdir: str):
    """Import nlie, build every input and run one warm-up operation."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import nlie
    import nlie.cli  # noqa: F401
    ops = workloads.WORKLOADS[workload](nlie, seed, workdir)
    ops[0].run()
    seconds = time.perf_counter() - start
    return seconds * host_factor([ref_sample() for _ in range(SETUP_REF_SAMPLES)]), nlie, ops


def child_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def ref_sample() -> float:
    t0 = time.perf_counter()
    checker.det(REF_ROWS)
    return time.perf_counter() - t0


def host_factor(samples) -> float:
    """Reference-kernel time on the reference host over its median here."""
    return REF_NOMINAL_S / statistics.median(samples)


def measure(ops, seconds: float, tracer=None, on_pass=None):
    """Whole passes over `ops` until the operations have taken `seconds`.

    Every step of an operation is followed by REF_SAMPLES timings of the
    reference kernel (outside the step's time); the step's wall time
    scaled by the host factor of the timings just before and just after it
    is its reference-host time, and an operation's time is the sum over its
    steps.  Returns, one list per op with one entry per pass, the
    reference-host times and the raw wall times, and the number of passes.
    `on_pass(results)` sees each pass's results outside the timed window."""
    times, raw = [[] for _ in ops], [[] for _ in ops]
    passes = 0
    spent = 0.0
    before = [ref_sample() for _ in range(REF_SAMPLES)]
    while passes < MIN_PASSES or spent < seconds:
        results = []
        for i, op in enumerate(ops):
            out, wall, scaled = [], 0.0, 0.0
            for step in op.steps:
                t0 = time.perf_counter()
                try:
                    out.append(tracer.op(lambda: step(out)) if tracer else step(out))
                except Exception as exc:  # a raising operation counts as failed
                    out = exc
                elapsed = time.perf_counter() - t0
                after = [ref_sample() for _ in range(REF_SAMPLES)]
                wall += elapsed
                scaled += elapsed * host_factor(before + after)
                before = after
                if isinstance(out, Exception):
                    break
            spent += wall
            raw[i].append(wall)
            times[i].append(scaled)
            results.append(out)
        passes += 1
        if tracer:
            tracer.keep = False
        if on_pass:
            on_pass(results)
    return times, raw, passes


class Tally:
    """Failed operations and check problems, pass by pass."""

    def __init__(self, ops):
        self.ops, self.failed, self.problems = ops, 0, []

    def add_pass(self, results):
        for op, out in zip(self.ops, results):
            if isinstance(out, Exception):
                self.failed += 1
                print(f"{op.name}: raised {out!r}", file=sys.stderr)
            elif op.failed(out):
                self.failed += 1
            else:
                try:
                    self.problems += op.check(out)
                except Exception:
                    self.problems.append(f"{op.name}: check raised\n{traceback.format_exc()}")


def end_to_end(ops, times, setup_samples):
    typical = [statistics.median(t) for t in times]
    return {
        "ops_per_s": len(ops) / sum(typical),
        "latency_p50_ms": 1000 * statistics.median(typical),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, names, npasses, nops):
    """Per-layer metrics; call counts and seconds are per pass."""
    values = {}
    for name in names:
        parts = name.split(".")
        head, tail = ".".join(parts[:-1]), parts[-1]
        if name == "trace.op_s":
            value = tracer.op_s / npasses
        elif name == "classify.steps_per_op":
            value = tracer.counters["classify.steps"] / nops
        elif name in tracer.counters:
            value = tracer.counters[name]
            if name.startswith("io."):
                value /= npasses
        elif tail == "self_s":
            stat = tracer.modules.get(head)
            value = stat.self_s / npasses if stat else 0.0
        elif head in LAYERS:
            stat = tracer.modules.get(head)
            value = stat.outer_s / npasses if stat else 0.0
        else:
            stat = tracer.functions.get(head)
            if stat is None:
                value = 0
            elif tail == "calls":
                value = stat.calls / npasses
            elif tail == "calls_per_op":
                value = stat.calls / nops
            else:
                value = stat.outer_s / npasses
        values[name] = value
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print the seconds (used for setup_s)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlie", "__init__.py")):
        print(f"error: no nlie sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        seconds, nlie, ops = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(seconds))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        setup_samples = [seconds]
        if not args.trace:
            setup_samples += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        tally = Tally(ops)
        try:
            times, raw, passes = measure(ops, args.seconds, tracer, tally.add_pass)
        finally:
            if tracer:
                tracer.uninstall()
        problems = tally.problems
        for line in problems[:20]:
            print(f"check: {line}", file=sys.stderr)

        if args.trace:
            metric_spec = spec["per_layer"]
            values = per_layer(tracer, [m["name"] for m in metric_spec if m["name"] != "trace.ops_per_s"],
                               passes, len(ops) * passes)
            values["trace.ops_per_s"] = end_to_end(ops, times, setup_samples)["ops_per_s"]
            own = sum(s.self_s for s in tracer.modules.values())
            if abs(own - tracer.op_s) > 1e-6 * max(1.0, tracer.op_s):
                problems.append(f"self times sum to {own}, operations took {tracer.op_s}")
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        else:
            metric_spec = spec["end_to_end"]
            values = end_to_end(ops, times, setup_samples)
        result = {
            "correct": not problems,
            "attempted": len(ops) * passes,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metric_spec},
        }
        detail = dict(result, setup_samples_s=setup_samples,
                      op_times_s={f"{op.name} #{i}": t for i, (op, t) in enumerate(zip(ops, times))},
                      op_raw_times_s={f"{op.name} #{i}": t for i, (op, t) in enumerate(zip(ops, raw))})
        with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
