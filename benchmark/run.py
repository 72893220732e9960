#!/usr/bin/env python3
"""Benchmark of slicelab: one workload, one seed, one fresh process.

    python3 benchmark/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the ops run one at a time (a closed loop with one
client) in whole blocks until at least ``--seconds`` of op time and at
least 100 ops are done, and the end-to-end metrics are printed.  Their
times are put on one reference scale by the machine's speed, sampled
between the ops (``speed.py``); the times as measured are printed beside
them.  With
``--trace 1`` a fixed number of blocks, set by ``--seconds``, runs once
untraced in a fresh process of its own and once traced in this one, and
the per-layer metrics are printed.  Every output is checked by its oracle
outside the timed region.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import speed as machine
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_REPEATS = 15

# Run in a fresh interpreter per repeat: import slicelab, then build the
# algebras every workload uses before its first op.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import slicelab
slicelab.lie_algebra(2)
slicelab.lie_algebra(3)
print(repr(time.perf_counter() - start))
"""


def per_layer_names() -> list:
    """The per-layer metrics of the JSON result, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def measure_setup(speed) -> tuple:
    """Median set-up time, as measured and on the reference scale."""
    runs = []  # (set-up seconds, start, end) of each interpreter
    for _ in range(SETUP_REPEATS):
        speed.sample()
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append((float(done.stdout.strip().splitlines()[-1]), start, time.perf_counter()))
    speed.sample()
    speed.sample()
    return (statistics.median(t for t, _, _ in runs),
            statistics.median(t * speed.scale(start, end) for t, start, end in runs))


class Record(NamedTuple):
    label: str
    start: float  # perf_counter when the op began
    seconds: float
    digest: str  # compares the traced output with the untraced one
    raised: str | None  # the exception the op raised
    wrong: str | None  # what is wrong with the output, or the exception if not a known defect

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.wrong is not None


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_ops(workload, ops, spans=None, totals=None, check=True, speed=None):
    """Run the ops one at a time; time each, then fold its spans and check its
    output.  With ``speed``, the machine's speed is sampled between ops."""
    records = []
    clock = time.perf_counter
    for op in ops:
        if speed is not None:
            speed.maybe_sample()
        start = clock()
        try:
            output = workload.call(op)
            error = None
        except Exception as exc:  # an op that raises is counted as failed, the run goes on
            error = exc
        seconds = clock() - start
        if spans is not None:
            totals.add_op(spans.take(), seconds)
        raised = wrong = None
        if error is not None:
            raised = f"{op.label}: {type(error).__name__}: {error}"
            if not isinstance(error, workload.known_defects.get(op.label, ())):
                wrong = f"raised {raised}"
            digest = _digest(raised)
        else:
            if check:
                try:
                    wrong = workload.check(op, output)
                except Exception as exc:  # an output the oracle cannot read is wrong
                    wrong = f"{op.label}: oracle could not read the output: {type(exc).__name__}: {exc}"
            digest = _digest(workload.digest(output))
        records.append(Record(op.label, start, seconds, digest, raised, wrong))
    return records


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of values (Biometrika 69, 1982),
    with the weights it gives a sample of MIN_OPS values.

    It is the mean of all order statistics, weighted by how much of the
    Beta((m+1)p, (m+1)(1-p)) distribution falls on each, for m = MIN_OPS.
    A workload's latencies form clusters, one per kind of op, and the 90th
    percentile sits at the edge of one: on ``verify-all`` the 3 slowest of
    its 32 checks lie just above it, on ``limits`` the dense two-sided
    curves (1 op in 15).  The plain percentile there reads one or two order
    statistics at the edge of a cluster and jumps with any op slowed by
    other work on the machine.  Harrell-Davis weighs the cluster above as
    well; with m the number of values, that weight shrinks as a run holds
    more ops, and a run holds fewer ops when the machine is slower.  A
    fixed m makes the estimate depend on the latencies alone.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (MIN_OPS + 1) * p, (MIN_OPS + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 8  # midpoint rule for the Beta density over each 1/n interval
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(blocks, setup_s, seconds):
    """The end-to-end metrics of a timed run, given its records block by block
    and each record's time (``seconds[record]``).

    Every block is a whole mix of the workload's ops, so its throughput is
    that of the mix; ``ops_per_s`` is the median over the run's blocks,
    which a few seconds of interference from other machines' work cannot
    move.  The latency percentiles are estimated from all ops of the run.  An
    op that raised is out of the latency figures and not completed; its
    time still counts in its block's.
    """
    records = [r for block in blocks for r in block]
    latencies = [seconds[r] for r in records if r.raised is None]
    failed = sum(r.failed for r in records)
    throughputs = [sum(r.raised is None for r in block) / sum(seconds[r] for r in block)
                   for block in blocks]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(throughputs), "ops/s"),
        "op_p50_ms": (_quantile(latencies, 0.5) * 1000, "ms"),
        "op_p90_ms": (_quantile(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (1 - failed / len(records), "ratio"),
    }


def block_ops(workload, seed, blocks):
    return [op for b in range(blocks) for op in workload.block(seed, b)]


def timed_run(workload, seed, seconds, speed):
    """Whole blocks until at least ``seconds`` of op time and MIN_OPS ops."""
    blocks = []
    done, ops = 0.0, 0
    while done < seconds or ops < MIN_OPS:
        blocks.append(run_ops(workload, workload.block(seed, len(blocks)), speed=speed))
        done += sum(r.seconds for r in blocks[-1])
        ops += len(blocks[-1])
    return blocks


def trace_blocks(workload, seconds) -> int:
    """Blocks of a traced run: fixed by --seconds, so that its counts repeat
    exactly, and about half of it, since the blocks run twice."""
    per_block = len(workload.block(0, 0))
    return max(-(-MIN_OPS // per_block), round(seconds / 2 / workload.nominal_block_s))


def untraced_pass(args, blocks):
    """The traced run's ops, untraced and checked, in a fresh process of their own."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--untraced-blocks", str(blocks)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return [Record(*r) for r in json.loads(done.stdout.splitlines()[-1])]


def traced_run(workload, args):
    """Per-layer numbers of the same ops as an untraced pass; each pass
    starts from a fresh process, so neither warms the other's caches."""
    from slicelab import suites

    blocks = trace_blocks(workload, args.seconds)
    plain = untraced_pass(args, blocks)
    ops = block_ops(workload, args.seed, blocks)
    entries = tracer.ENTRIES + tracer.suite_entries(suites)
    totals = tracer.Totals(entries)
    with tracer.Tracer(entries) as spans:
        traced = run_ops(workload, ops, spans, totals, check=False)
    if tracer.patched_count(entries):
        raise RuntimeError("the tracer left entry points patched")
    problems = [r.wrong for r in traced if r.wrong]
    problems += [f"traced output differs from the untraced one: {p.label}"
                 for p, t in zip(plain, traced) if p.digest != t.digest]
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    return plain, blocks, problems, totals, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The untraced pass of a traced run: its records as one JSON line.
    parser.add_argument("--untraced-blocks", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "slicelab" / "__init__.py").is_file():
        print(f"error: no slicelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.untraced_blocks:
        records = run_ops(workload, block_ops(workload, args.seed, args.untraced_blocks))
        print(json.dumps([list(r) for r in records]))
        return 0
    if args.trace:
        records, blocks, problems, totals, overhead = traced_run(workload, args)
        numbers = totals.metrics()
        numbers["trace_overhead"] = (overhead, "ratio")
        keep = per_layer_names()
    else:
        speed = machine.Speed()
        raw_setup_s, setup_s = measure_setup(speed)
        per_block = timed_run(workload, args.seed, args.seconds, speed)
        speed.sample()
        records = [r for block in per_block for r in block]
        blocks = len(per_block)
        problems = []
        scaled = {r: r.seconds * speed.scale(r.start, r.start + r.seconds) for r in records}
        numbers = end_to_end(per_block, setup_s, scaled)
        raw = end_to_end(per_block, raw_setup_s, {r: r.seconds for r in records})
        keep = list(numbers)

    failed = sum(r.failed for r in records)
    wrong = [r.wrong for r in records if r.wrong] + problems
    raised = sorted({r.raised for r in records if r.raised})
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in {blocks} blocks, "
          f"{failed} failed ({len(wrong)} wrong outputs, {len(raised)} distinct exceptions)")
    for message in wrong[:5] + raised[:5]:
        print(f"  failure: {message}")
    if not args.trace:
        print(f"  {'error_rate':32s} {failed / len(records):.6g} ratio")
        print(f"  calibration kernel: median {statistics.median(speed.samples) * 1000:.4g} ms "
              f"over {len(speed.samples)} samples, reference {machine.REFERENCE_S * 1000:.4g} ms; "
              f"times below are on the reference scale, as measured in brackets")
    for name, (value, unit) in numbers.items():
        measured = f" ({raw[name][0]:.6g})" if not args.trace and unit in ("s", "ms", "ops/s") else ""
        print(f"  {name:32s} {value:.6g} {unit}{measured}")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": numbers[name][0], "unit": numbers[name][1]} for name in keep},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
