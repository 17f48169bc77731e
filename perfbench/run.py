"""The repository's benchmark: four fixed-work workloads, reference-paired.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # each in its own process

``--seconds`` sizes a fixed request list (the same seed and seconds give the
same work); the run finishes that list rather than stopping on a timer.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the workload runs a warm-up
pass, a pass with spans around its layers' entry points and an untraced
pass, prints a per-layer self-time table and reports the per-layer
metrics instead.
Every run appends a record to ``perfbench/out/runs.jsonl``.  The command
exits non-zero if any correctness check fails.
"""

from __future__ import annotations

import os
import sys
import time

from record import THREAD_VARS

# Pin BLAS threads before numpy loads; forked workers inherit them.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

_import_start = time.perf_counter()
import numpy as np  # noqa: E402

import cascade  # noqa: E402
import decode  # noqa: E402
import record  # noqa: E402
import serve  # noqa: E402
import train  # noqa: E402
from pairing import Pairer  # noqa: E402
from tracing import Tracer, format_layer_table, layer_table  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

WORKLOADS = {module.NAME: module
             for module in (serve, cascade, decode, train)}

#: Per-layer metrics of every workload.  Every traced run reports all of
#: them; a layer the workload never calls reads 0.
PER_LAYER = {
    "serve": {
        "workers.start_ms": "ms", "workers.predict_ms": "ms",
        "workers.overhead_share": "fraction", "plans.compile_ms": "ms",
        "plans.run_ms.r0.25": "ms", "plans.run_ms.r0.5": "ms",
        "plans.run_ms.r0.75": "ms", "plans.run_ms.r1": "ms",
        "plans.cache_hit_ratio": "fraction",
    },
    "cascade": {
        "resume.run_ms": "ms", "resume.subset_ms": "ms",
        "resume.widen_ms.r0.5": "ms", "resume.widen_ms.r1": "ms",
        "resume.gflops": "GFLOP/s", "resume.spent_over_scratch": "ratio",
        "cascade.escalated_fraction.r0.25": "fraction",
        "cascade.escalated_fraction.r0.5": "fraction",
        "cascade.service_model_error": "fraction",
    },
    "decode": {
        "transformer.session_init_ms": "ms",
        "transformer.prefill_token_ms": "ms",
        "transformer.decode_token_ms": "ms", "transformer.round_ms": "ms",
        "transformer.session_bytes.h1-f1": "bytes",
        "transformer.session_bytes.h0.5-f0.5": "bytes",
        "transformer.session_bytes.h0.25-f1": "bytes",
        "transformer.session_bytes.h1-f0.25": "bytes",
        "transformer.resident_over_budget": "ratio",
    },
    "train": {
        "trainer.step_ms": "ms", "train.forward_ms": "ms",
        "train.backward_ms": "ms", "tensor.conv2d_ms": "ms",
        "optim.step_ms": "ms", "workspace.pool_hit_ratio": "fraction",
        "workspace.bytes": "bytes",
    },
    "all": {"unaccounted_share": "fraction",
            "trace_overhead_share": "fraction"},
}

END_TO_END_UNITS = {
    "setup_s": "s", "throughput": "items/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "accuracy": "fraction", "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0        # ru_maxrss is in KiB on Linux


def set_up(workload, pairer, count: int):
    """Build the serving/training state ``count`` times; keep the last.

    Returns ``(state, [(pairing index, raw build seconds)])``.
    """
    builds = []
    state = None
    for attempt in range(count):
        gc.collect()
        start = time.perf_counter()
        state = workload.build()
        elapsed = time.perf_counter() - start
        # A build that forks leaves the parent's pages copy-on-write; one
        # unpaired reference run takes those faults so the paired one
        # measures the host, not the fork.
        pairer.measure()
        builds.append((pairer.sample(elapsed), elapsed))
        if attempt < count - 1:
            workload.close(state)
    return state, builds


def new_pairer(module) -> Pairer:
    pairer = Pairer(module.REFERENCE_MIX)
    for _ in range(20):                 # warm the reference kernel
        pairer.measure()
    return pairer


def run_untraced(module, seed: int, seconds: float) -> dict:
    pairer = new_pairer(module)
    workload = module.Workload(seed, seconds)
    state, builds = set_up(workload, pairer, module.BUILDS)
    try:
        gc.collect()
        measured = workload.run(state, pairer)
        check_failed = workload.check(state, measured)
    finally:
        workload.close(state)
    ratios = pairer.ratios()
    measured.pair(ratios)
    setup = [raw * ratios[i] for i, raw in builds]
    metrics = {
        "setup_s": float(np.median(setup)),
        "throughput": measured.throughput,
        "latency_p50_ms": measured.percentile(50),
        "latency_p95_ms": measured.percentile(95),
        "accuracy": measured.accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    diagnostics = {
        "import_s": IMPORT_S,
        "setup_raw_s": [raw for _, raw in builds],
        "setup_paired_s": setup,
        "samples": len(measured.samples),
        "sample_unit": workload.unit,
        "items": measured.items,
        "check_failed": check_failed,
        "pairing": pairer.summary(),
        "raw_s": [round(v, 7) for v in pairer.raw],
        "reference_s": [round(v, 7) for v in pairer.reference],
        "reference_parts_s": [[round(v, 7) for v in parts]
                              for parts in pairer.parts],
        **measured.extra,
    }
    for name in measured.series:
        diagnostics[f"{name}_samples"] = len(measured.series[name])
        for q in (50, 95):
            diagnostics[f"{name}_p{q}_ms"] = measured.percentile(q, name)
            diagnostics[f"{name}_beyond_p{q}"] = measured.beyond(q, name)
    return {"metrics": metrics, "units": END_TO_END_UNITS,
            "attempted": measured.attempted,
            "failed": measured.failed + check_failed,
            "diagnostics": diagnostics}


def run_traced(module, seed: int, seconds: float) -> dict:
    """Warm, traced and untraced passes over the same state and inputs."""
    pairer = new_pairer(module)
    workload = module.Workload(seed, seconds)
    tracer = Tracer(clock=pairer.now)
    workload.install(tracer)
    try:
        setup_span = tracer.begin("setup")
        start = time.perf_counter()
        state = workload.build()
        setup_index = pairer.sample(time.perf_counter() - start)
        tracer.end(setup_span)
    finally:
        tracer.unwrap()
    try:
        # Warm pass first, so that neither measured pass pays one-off
        # warm-up (first-shape scratch buffers, allocator growth).
        workload.run(state, pairer)
        workload.install(tracer)
        try:
            gc.collect()
            traced = workload.run(state, pairer, tracer)
        finally:
            tracer.unwrap()
        gc.collect()
        untraced = workload.run(state, pairer)
        ratios = pairer.ratios()
        traced.pair(ratios)
        traced.extra["setup_ratio"] = float(ratios[setup_index])
        untraced.pair(ratios)
        try:
            values = workload.layers(state, tracer, traced, pairer,
                                     untraced)
        finally:
            tracer.unwrap()
        check_failed = workload.check(state, traced)
    finally:
        workload.close(state)
    rows, totals = layer_table(tracer, workload.root, traced.ratios)
    print(format_layer_table(module.NAME, rows, totals))
    values["unaccounted_share"] = totals["unaccounted_share"]
    values["trace_overhead_share"] = untraced.throughput / traced.throughput \
        - 1.0
    units = {}
    for group in PER_LAYER.values():
        units.update(group)
    metrics = {name: float(values.get(name, 0.0)) for name in units}
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>14.6g} {units[name]}")
    os.makedirs(record.OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(record.OUT_DIR, f"spans-{module.NAME}.jsonl"))
    return {"metrics": metrics, "units": units,
            "attempted": traced.attempted + untraced.attempted,
            "failed": traced.failed + untraced.failed + check_failed,
            "diagnostics": {"orphans": len(tracer.orphans()),
                            "own_metrics": sorted(PER_LAYER[module.NAME]),
                            "spans": len(tracer.spans),
                            "layers": [list(row) for row in rows],
                            "totals": totals,
                            "samples": len(traced.samples),
                            "pairing": pairer.summary()}}


def run_all(args) -> int:
    """Every workload, each in a fresh process; non-zero if any fails."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        result = subprocess.run(command, check=False)
        status = status or result.returncode
    return status


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    ``SharedMemory`` (the serve workload's weight arena) starts a tracker
    process that otherwise outlives this one until it notices the closed
    pipe; stopping it here leaves no process behind the run.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    module = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    started = time.perf_counter()
    try:
        result = runner(module, args.seed, args.seconds)
    finally:
        stop_resource_tracker()
    correct = result["failed"] == 0 \
        and result["diagnostics"].get("orphans", 0) == 0 \
        and all(np.isfinite(v) for v in result["metrics"].values())
    record.append({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_fraction": result["failed"] / result["attempted"],
        "metrics": result["metrics"], "wall_s": time.perf_counter() - started,
        "diagnostics": result["diagnostics"],
        "environment": record.environment(ROOT),
    })
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
