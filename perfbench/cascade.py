"""``cascade``: a confidence cascade 0.25 -> 0.5 -> 1.0, in-process.

A ``CascadeExecutor`` (exact mode, incremental escalation) runs a seeded
list of batches of the planted-hard-region demo distribution through an
MLP with hidden widths well above the demo default.  Rows whose margin
clears a stage's threshold exit there; the rest escalate by widening the
retained narrow pass.  A request (one row) has its batch's latency.

All of the work is in ``slicing.resume`` and ``runtime.cascade``; it
bypasses compiled plans, worker processes and the transformer.
"""

from __future__ import annotations

import numpy as np

import fixtures
from base import Measured, mean_ms, timed
from repro.runtime import CascadeExecutor, CascadeStage, LatencyProfile
from repro.slicing import ResumablePlan
from repro.slicing.plans import PlanCache

NAME = "cascade"
# Reference kernel repetitions (pairing.COMPONENTS): interpreter loops
# driving numpy axpy over strided columns, which is what ``_cgemm`` does.
REFERENCE_MIX = {"loop": 5, "axpy": 11}
BUILDS = 11
BATCH = 32
BATCHES_PER_SECOND = 28
STAGES = ((0.25, 4.0), (0.5, 4.0), (1.0, None))
CHECK_EVERY = 4                 # batches compared with recompute escalation
WARMUP_SEED = 1_000_003         # fixed set-up batch, independent of --seed


def _stages():
    return [CascadeStage(rate, threshold) for rate, threshold in STAGES]


class Workload:
    root = "cascade.batch"
    unit = "batch"

    def __init__(self, seed: int, seconds: float):
        count = max(4, int(round(BATCHES_PER_SECOND * seconds)))
        self.inputs, self.labels = fixtures.demo_rows(count * BATCH, seed)
        self.batches = [slice(i * BATCH, (i + 1) * BATCH)
                        for i in range(count)]
        self.model = fixtures.load_weights(fixtures.mlp(), "mlp_cascade")
        self.model.eval()
        # Set-up runs one fixed batch, the same for every seed: how far a
        # batch escalates, and so its cost, depends on its rows.
        self.first_batch, _ = fixtures.demo_rows(BATCH, WARMUP_SEED)

    # -- set-up ---------------------------------------------------------
    def build(self):
        """Executor construction and the first batch."""
        executor = CascadeExecutor(self.model, _stages(), exact=True)
        executor.run_batch(self.first_batch)
        return executor

    def close(self, state) -> None:
        pass

    # -- measured pass --------------------------------------------------
    def run(self, executor, pairer, tracer=None) -> Measured:
        samples, outputs, requests = [], [], {}
        failed = 0
        for index, rows in enumerate(self.batches):
            batch = self.inputs[rows]
            result, requests[index], raw = timed(
                pairer, tracer, index, self.root,
                lambda: executor.run_batch(batch))
            samples.append((requests[index], raw))
            if result is None:
                failed += BATCH
            outputs.append(result)
        correct = sum(int(np.count_nonzero(
            result.predictions == self.labels[rows]))
            for rows, result in zip(self.batches, outputs)
            if result is not None)
        rows = len(self.batches) * BATCH
        return Measured(items=rows, attempted=rows, failed=failed,
                        accuracy=correct / rows, samples=samples,
                        series={"latency": samples},
                        weights=[BATCH] * len(samples), requests=requests,
                        outputs=outputs)

    # -- correctness ----------------------------------------------------
    def check(self, executor, measured: Measured) -> int:
        """Predictions must equal recompute-from-scratch escalation's."""
        recompute = CascadeExecutor(self.model, _stages(), exact=True,
                                    incremental=False)
        failed = 0
        for index in range(0, len(self.batches), CHECK_EVERY):
            result = measured.outputs[index]
            if result is None:
                continue
            want = recompute.run_batch(self.inputs[self.batches[index]])
            if not np.array_equal(result.predictions, want.predictions):
                failed += BATCH
        return failed

    # -- traced run -----------------------------------------------------
    def install(self, tracer) -> None:
        tracer.wrap_method(CascadeExecutor, "run_batch", "cascade.run_batch")
        tracer.wrap_method(ResumablePlan, "__init__", "resume.build")
        tracer.wrap_method(ResumablePlan, "run", "resume.run")
        tracer.wrap_method(ResumablePlan, "subset", "resume.subset")
        tracer.wrap_method(ResumablePlan, "widen", "resume.widen",
                           label=lambda plan, to, *a, **k: {
                               "to": fixtures.rate_label(to)})

    def layers(self, executor, tracer, measured: Measured, pairer,
               untraced: Measured) -> dict:
        ratios = measured.ratios
        results = [r for r in measured.outputs if r is not None]
        spent = sum(r.spent_madds for r in results)
        scratch = sum(r.recompute_madds for r in results)
        resume = [span for name in ("resume.build", "resume.run",
                                    "resume.subset", "resume.widen")
                  for span in tracer.select(name) if span.request in ratios]
        busy_s = sum(span.duration * ratios[span.request] for span in resume)
        rows = sum(len(r) for r in results)
        out = {
            "resume.run_ms": mean_ms(tracer.select("resume.run"), ratios),
            "resume.subset_ms": mean_ms(tracer.select("resume.subset"),
                                        ratios),
            "resume.gflops": 2.0 * spent / busy_s / 1e9,
            "resume.spent_over_scratch": spent / scratch,
            "cascade.service_model_error":
                self._service_model_error(untraced, pairer),
        }
        for rate, _ in STAGES[1:]:
            label = fixtures.rate_label(rate)
            out[f"resume.widen_ms.{label}"] = mean_ms(
                tracer.select("resume.widen", to=label), ratios)
        for k, (rate, _) in enumerate(STAGES[:-1]):
            escalated = sum(count for r in results
                            for frm, _, count in r.escalations if frm == k)
            label = fixtures.rate_label(rate)
            out[f"cascade.escalated_fraction.{label}"] = escalated / rows
        return out

    def _service_model_error(self, measured: Measured, pairer) -> float:
        """|modelled - measured| / measured batch time, summed over batches.

        The model is ``CascadeExecutor.service_seconds`` under a
        ``LatencyProfile`` calibrated from measured compiled-plan time per
        sample at each stage rate; the measurement is ``run_batch`` itself.
        """
        cache = PlanCache()
        timed = {}
        for rate, _ in STAGES:
            plan = cache.get(self.model, rate)
            timed[rate] = []
            for rows in self.batches[:32]:
                start = pairer.now()
                plan.run(self.inputs[rows])
                raw = pairer.now() - start
                timed[rate].append((pairer.sample(raw), raw))
        ratios = pairer.ratios()
        per_sample = {
            rate: float(np.median([raw * ratios[i] for i, raw in values]))
            / BATCH for rate, values in timed.items()}
        profile = LatencyProfile(per_rate=per_sample)
        results = [r for r in measured.outputs if r is not None]
        executor = CascadeExecutor(self.model, _stages(), exact=True)
        modelled = sum(executor.service_seconds(r, profile) for r in results)
        measured_s = sum(s for s, r in zip(measured.sample_s,
                                           measured.outputs) if r is not None)
        return abs(modelled - measured_s) / measured_s
