#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of each workload.

    python3 benchmark/selftest.py

For each workload a few ops of its first block run once untraced, with
their oracles, and twice traced.  The test checks that spans nest, that
each op's self times sum to no more than its wall time (both raise in
``Totals.add_op``), that every count repeats exactly across the two traced
runs, that traced outputs equal untraced ones, that no slicelab module
still holds an original entry point while tracing, that every original is
back afterwards, and that the tracer gives every per-layer metric that
BENCHMARK.json lists.  Exit code 0 means all checks held.
"""

from __future__ import annotations

import sys

import run
import tracer

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the sources on sys.path)
from slicelab import suites  # noqa: E402

# A few cheap ops per workload that still reach every layer it touches.
PICKS = {
    "verify-all": ("check_jacobi_identity", "check_slice_structure", "check_limit_methods_agree",
                   "check_moment_condition_lie_poisson", "check_fibre_projective_dim"),
    "limits": ("sl2", "sl3-torus", "sl3-one-sided"),
    "cli-queries": ("slice-project a1 2", "slice-project a2 2,1", "fibre",
                    "malformed wrong-arity", "malformed zero-denominator"),
}


def tiny_ops(workload):
    picked = []
    for label in PICKS[workload.name]:
        picked += [op for op in workload.block(0, 0) if op.label == label][:2]
    return picked


def originals(entries):
    out = []
    for _, module, attr in entries:
        if "." not in attr:
            out.append(getattr(sys.modules[f"{tracer.PACKAGE}.{module}"], attr))
    return out


def unpatched_copies(funcs):
    """Module bindings that still hold one of ``funcs`` while tracing is on."""
    held = {id(f) for f in funcs}
    return [
        f"{name}.{key}"
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == tracer.PACKAGE
        for key, value in vars(module).items()
        if id(value) in held
    ]


def check_workload(workload) -> list:
    problems = []
    ops = tiny_ops(workload)
    plain = run.run_ops(workload, ops)
    problems += [r.wrong for r in plain if r.wrong]
    entries = tracer.ENTRIES + tracer.suite_entries(suites)
    funcs = originals(entries)
    counts = []
    for _ in range(2):
        totals = tracer.Totals(entries)
        try:
            with tracer.Tracer(entries) as spans:
                left = unpatched_copies(funcs)
                traced = run.run_ops(workload, ops, spans, totals, check=False)
        except tracer.SpanError as exc:
            return problems + [f"spans: {exc}"]
        if left:
            problems.append(f"still unpatched while tracing: {left}")
        if tracer.patched_count(entries):
            problems.append("entry points still patched after tracing")
        problems += [f"traced output differs: {p.label}"
                     for p, t in zip(plain, traced) if p.digest != t.digest]
        counts.append({k: v for k, (v, unit) in totals.metrics().items() if unit != "s"})
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"counts differ between two traced runs: {diff}")
    if not any(v for k, v in counts[0].items() if k.endswith(".calls")):
        problems.append("no spans were recorded")
    missing = set(run.per_layer_names()) - set(totals.metrics()) - {"trace_overhead"}
    if missing:
        problems.append(f"per_layer metrics of BENCHMARK.json that the tracer does not give: {sorted(missing)}")
    return problems


def main() -> int:
    status = 0
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        problems = check_workload(workload)
        print(f"{workload.name}: {'FAIL' if problems else 'ok'} ({len(tiny_ops(workload))} ops)")
        for p in problems:
            print(f"  {p}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
