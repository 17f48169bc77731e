"""Confidence cascade vs fixed profiles: accuracy per FLOP, served.

The serving claim behind the cascade subsystem, measured end to end on
the seeded demo workload (planted easy/hard regions):

* **Batch level** — escalating only low-margin rows makes the cascade's
  measured accuracy beat every fixed profile that spends no more mean
  multiply-adds per request, and *incremental* escalation (resume the
  retained narrow pass via ``ResumablePlan.subset().widen()``) spends
  strictly fewer multiply-adds than recomputing the escalated rows from
  scratch while producing bit-identical predictions (exact mode).
* **Runtime level** — served through the event-driven runtime against
  the same arrival trace, the cascade policy's goodput-weighted
  accuracy beats every fixed profile whose per-request cost fits the
  cascade's mean FLOPs budget (the widest profile is reported as the
  reference ceiling it approaches at roughly half the cost).

* **Wall time** — median ms/request (warmed repeats, with the
  interquartile range) of three paths over the same batch: the
  incremental cascade, recompute escalation, and the fixed-full
  compiled plan.  Recorded, not asserted: the cascade's saving is in
  multiply-adds, and its canonical-GEMM arithmetic is slower per
  multiply-add than the compiled plan's BLAS (see EXPERIMENTS.md).

Everything but the wall times is seeded and deterministic.  Set
``REPRO_PLAN_SMOKE=1`` (CI does) for a smaller run.  Results go to
``BENCH_cascade.json`` and EXPERIMENTS.md.
"""

import json
import os
import platform
import time

import numpy as np

from repro.diagnose.demo import DEMO_RATES, train_demo_model
from repro.runtime import (
    CascadeExecutor,
    CascadeStage,
    InferenceRuntime,
    LatencyProfile,
    Replica,
    ReplicaPool,
    RuntimeConfig,
)
from repro.serving import (
    CascadeController,
    FixedRateController,
    diurnal_rate,
    generate_arrivals,
    spike_rate,
)
from repro.slicing import ResumablePlan, compile_plan, scratch_madds
from repro.utils import format_table

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_cascade.json")

SMOKE = os.environ.get("REPRO_PLAN_SMOKE") == "1" \
    or os.environ.get("REPRO_CASCADE_SMOKE") == "1"
RATES = list(DEMO_RATES)
THRESHOLDS = [1.0] * (len(RATES) - 1)
EPOCHS = 3 if SMOKE else 6
FULL_LATENCY = 0.002
SLO = 0.1
DURATION = 8.0 if SMOKE else 20.0
REPLICAS = 2
SEED = 0
WALL_WARMUP = 3
WALL_REPEATS = 7 if SMOKE else 31


def _stages():
    stages = [CascadeStage(rate, threshold)
              for rate, threshold in zip(RATES[:-1], THRESHOLDS)]
    stages.append(CascadeStage(RATES[-1]))
    return stages


def _wall_ms_per_request(call, requests):
    """Median and IQR of ``call()`` wall ms per request, warmed up."""
    for _ in range(WALL_WARMUP):
        call()
    samples = []
    for _ in range(WALL_REPEATS):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3 / requests)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(median), 6),
            "iqr": round(float(q3 - q1), 6)}


def _serve(model, inputs, labels, accuracy, controller, cascade,
           arrivals):
    pool = ReplicaPool(
        [Replica(f"r{i}", LatencyProfile(FULL_LATENCY), model=model)
         for i in range(REPLICAS)], seed=SEED)
    if cascade is not None:
        pool.warm_cascade(cascade)
    config = RuntimeConfig(latency_slo=SLO, max_batch_size=400, seed=SEED)
    runtime = InferenceRuntime(pool, controller, config, accuracy,
                               inputs=inputs, labels=labels,
                               cascade=cascade)
    return runtime.run(arrivals, DURATION)


def test_cascade_beats_fixed_profiles(emit):
    model, data = train_demo_model(seed=SEED, epochs=EPOCHS)
    inputs = data["eval_x"].astype(np.float32)
    labels = data["eval_y"]
    n = len(labels)

    # -- batch level: accuracy per multiply-add ------------------------
    fixed = {}
    for rate in RATES:
        logits = ResumablePlan(model, rate).run(inputs)
        fixed[rate] = {
            "accuracy": float(np.mean(np.argmax(logits, -1) == labels)),
            "madds_per_request": scratch_madds(model, rate),
        }

    incremental = CascadeExecutor(model, _stages(), exact=True)
    result = incremental.run_batch(inputs)
    recompute_result = CascadeExecutor(
        model, _stages(), exact=True, incremental=False).run_batch(inputs)

    cascade_accuracy = float(np.mean(result.predictions == labels))
    cascade_madds = result.spent_madds / n
    recompute_madds = recompute_result.spent_madds / n

    # Incremental escalation: same predictions, strictly cheaper.
    np.testing.assert_array_equal(result.predictions,
                                  recompute_result.predictions)
    assert result.escalated_rows > 0
    assert result.spent_madds < recompute_result.spent_madds, (
        f"incremental escalation spent {result.spent_madds} madds, "
        f"recompute baseline {recompute_result.spent_madds}")

    # The cascade never spends more than the widest fixed profile, and
    # beats every fixed profile that is at least as cheap per request.
    assert cascade_madds <= fixed[RATES[-1]]["madds_per_request"]
    cheaper = [rate for rate in RATES
               if fixed[rate]["madds_per_request"] <= cascade_madds]
    assert cheaper, "no fixed profile within the cascade's budget"
    for rate in cheaper:
        assert cascade_accuracy > fixed[rate]["accuracy"], (
            f"cascade {cascade_accuracy:.3f} does not beat fixed-{rate} "
            f"{fixed[rate]['accuracy']:.3f} at <= its FLOPs")

    # -- wall time: ms/request of the same batch, three paths ----------
    recompute = CascadeExecutor(model, _stages(), exact=True,
                                incremental=False)
    full_plan = compile_plan(model, RATES[-1])
    wall = {
        "incremental_cascade": _wall_ms_per_request(
            lambda: incremental.run_batch(inputs), n),
        "recompute_escalation": _wall_ms_per_request(
            lambda: recompute.run_batch(inputs), n),
        "fixed_full_plan": _wall_ms_per_request(
            lambda: full_plan.run(inputs), n),
    }

    # -- runtime level: goodput-weighted accuracy ----------------------
    calibrated = incremental.calibrate(inputs, labels)
    marginal = {rate: fixed[rate]["accuracy"] for rate in RATES}
    cost = {rate: FULL_LATENCY * rate * rate for rate in RATES}
    intensity = spike_rate(diurnal_rate(60.0, 2.0, 60.0),
                           [(DURATION * 0.25, DURATION * 0.1, 2.0)])
    arrivals = generate_arrivals(intensity, DURATION,
                                 np.random.default_rng(SEED))

    reports = {"cascade": _serve(model, inputs, labels, calibrated,
                                 CascadeController(RATES, cost, SLO),
                                 incremental, arrivals)}
    for rate in RATES:
        reports[f"fixed-{rate:g}"] = _serve(
            model, inputs, labels, marginal,
            FixedRateController(rate, FULL_LATENCY, SLO), None, arrivals)
    cascade_report = reports["cascade"]
    for rate in cheaper:
        report = reports[f"fixed-{rate:g}"]
        assert cascade_report.goodput_weighted_accuracy \
            > report.goodput_weighted_accuracy, (
                f"cascade {cascade_report.goodput_weighted_accuracy:.4f} "
                f"did not beat fixed-{rate:g} "
                f"{report.goodput_weighted_accuracy:.4f} at <= its FLOPs")

    # -- report --------------------------------------------------------
    rows = [["cascade", f"{cascade_accuracy:.4f}",
             f"{cascade_madds:.0f}",
             f"{cascade_report.goodput_weighted_accuracy:.4f}",
             f"{cascade_report.goodput:.1f}",
             f"{cascade_report.escalation_fraction:.2%}"]]
    for rate in RATES:
        report = reports[f"fixed-{rate:g}"]
        rows.append([
            f"fixed-{rate:g}", f"{fixed[rate]['accuracy']:.4f}",
            f"{fixed[rate]['madds_per_request']}",
            f"{report.goodput_weighted_accuracy:.4f}",
            f"{report.goodput:.1f}", "-"])
    emit("cascade", format_table(
        ["policy", "accuracy", "madds/req", "good*acc", "goodput",
         "escalated"], rows,
        title="Confidence cascade vs fixed profiles"))
    emit("cascade_wall", format_table(
        ["path", "median ms/req", "IQR ms/req"],
        [[name, f"{t['median']:.5f}", f"{t['iqr']:.5f}"]
         for name, t in wall.items()],
        title=f"Wall time per request (batch {n}, median of "
              f"{WALL_REPEATS} warmed repeats)"))

    with open(BENCH_PATH, "w") as handle:
        json.dump({
            "benchmark": "cascade",
            "config": {
                "rates": RATES,
                "thresholds": THRESHOLDS,
                "epochs": EPOCHS,
                "duration_s": DURATION,
                "replicas": REPLICAS,
                "seed": SEED,
                "smoke": SMOKE,
            },
            "batch": {
                "cascade_accuracy": round(cascade_accuracy, 6),
                "cascade_madds_per_request": round(cascade_madds, 2),
                "recompute_madds_per_request": round(recompute_madds, 2),
                "incremental_spent_madds": result.spent_madds,
                "recompute_spent_madds": recompute_result.spent_madds,
                "flops_saved": result.flops_saved,
                "exits_per_stage": result.stage_counts(),
                "fixed": {f"{r:g}": fixed[r] for r in RATES},
            },
            "wall_ms_per_request": {
                **wall,
                "batch": n,
                "warmup": WALL_WARMUP,
                "repeats": WALL_REPEATS,
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "numpy": np.__version__,
                "openblas_num_threads": os.environ.get(
                    "OPENBLAS_NUM_THREADS"),
            },
            "runtime": {
                name: {
                    "goodput": round(report.goodput, 3),
                    "goodput_weighted_accuracy": round(
                        report.goodput_weighted_accuracy, 6),
                    "drop_fraction": round(report.drop_fraction, 6),
                    "measured_accuracy": report.measured_accuracy,
                    "escalation_fraction": report.escalation_fraction,
                } for name, report in reports.items()},
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
