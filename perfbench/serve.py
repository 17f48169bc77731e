"""``serve``: elastic batched classification through worker processes.

A ``SlicedVGG.cifar_mini`` (GroupNorm) model is served by a
``ProcessReplicaPool`` with one worker per available core.  Each wave
carries one batch per worker through ``predict_many``; the wave's slice
rate follows a seeded, evenly balanced budget mix over the four rates (the
paper's Sec. 4.1 per-batch rate choice), and batch sizes a seeded mix of a
small set, which exercises the plans' shape-keyed scratch buffers.  A
request (one image) has its wave's latency.

Nearly all of the time is in ``slicing.plans``, ``runtime.workers`` and
``tensor.shared``; nothing here touches ``slicing.resume``,
``DecoderSession`` or autograd.
"""

from __future__ import annotations

import os

import numpy as np

import fixtures
from base import Measured, mean_ms, timed
from repro.runtime import LatencyProfile, Replica
from repro.runtime.workers import ProcessReplicaPool
from repro.slicing import plans
from repro.slicing.plans import InferencePlan, PlanCache
from repro.tensor.shared import SharedArena

NAME = "serve"
# Reference kernel repetitions (pairing.COMPONENTS): mostly BLAS and
# streaming, like the workers' im2col GEMMs; the parent mostly waits.
REFERENCE_MIX = {"loop": 5, "gemm": 12, "stream": 4}
BUILDS = 9
WAVES_PER_SECOND = 36
BATCH_SIZES = (24, 32, 40)
POOL_IMAGES = 3072
CHECK_EVERY = 4                 # waves compared with an in-process replica


class Workload:
    root = "serve.wave"
    unit = "wave"

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        self.workers = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
        self.images, self.labels = fixtures.images(POOL_IMAGES, rng)
        count = max(4, int(round(WAVES_PER_SECOND * seconds)))
        # Every seed serves the same multiset of rates and batch sizes in
        # its own order, so the work per run does not drift with the seed.
        rates = fixtures.balanced(rng, fixtures.RATES, count)
        sizes = fixtures.balanced(rng, BATCH_SIZES, count * self.workers)
        # Set-up serves one fixed full-width wave, the same for every seed,
        # so set-up time does not depend on which rate the list opens with.
        self.first_wave = (1.0, [np.arange(BATCH_SIZES[1])] * self.workers)
        self.waves = []
        for index, rate in enumerate(rates):
            rows = [rng.integers(0, POOL_IMAGES, size=int(n)) for n in
                    sizes[index * self.workers:(index + 1) * self.workers]]
            self.waves.append((float(rate), rows))

    def _batches(self, wave):
        return [self.images[rows] for rows in wave[1]]

    # -- set-up ---------------------------------------------------------
    def build(self):
        """Weight load, shared-memory arena, worker start, plan warm-up
        for every rate in the mix, and the first wave."""
        model = fixtures.load_weights(fixtures.vgg(), "vgg_serve").eval()
        pool = ProcessReplicaPool(model, self.workers, seed=0)
        try:
            pool.warm_plans(list(fixtures.RATES))
            pool.predict_many(self._batches(self.first_wave), 1.0, window=1)
        except BaseException:
            pool.shutdown()
            raise
        return model, pool

    def close(self, state) -> None:
        state[1].shutdown()

    # -- measured pass --------------------------------------------------
    def run(self, state, pairer, tracer=None) -> Measured:
        _, pool = state
        samples, outputs, requests, weights = [], [], {}, []
        failed = 0
        for index, wave in enumerate(self.waves):
            rate, batches = wave[0], self._batches(wave)
            result, requests[index], raw = timed(
                pairer, tracer, index, self.root,
                lambda: pool.predict_many(batches, rate, window=1),
                rate=fixtures.rate_label(rate))
            samples.append((requests[index], raw))
            weights.append(sum(len(batch) for batch in batches))
            if result is None:
                failed += weights[-1]
            outputs.append(result)
        correct = total = 0
        for wave, result in zip(self.waves, outputs):
            if result is None:
                continue
            for rows, predicted in zip(wave[1], result):
                correct += int(np.count_nonzero(
                    predicted == self.labels[rows]))
                total += len(rows)
        return Measured(items=sum(weights), attempted=sum(weights),
                        failed=failed, accuracy=correct / max(total, 1),
                        samples=samples, series={"latency": samples},
                        weights=weights, requests=requests, outputs=outputs)

    # -- correctness ----------------------------------------------------
    def check(self, state, measured: Measured) -> int:
        """Pool outputs must be byte-identical to an in-process replica at
        every rate in the mix; returns requests that failed the check."""
        model, _ = state
        replica = Replica("reference", LatencyProfile(1.0), model=model,
                          plan_cache=PlanCache())
        first_of_rate = {}
        for index, wave in enumerate(self.waves):
            first_of_rate.setdefault(wave[0], index)
        chosen = set(range(0, len(self.waves), CHECK_EVERY))
        chosen.update(first_of_rate.values())
        failed = 0
        for index in sorted(chosen):
            rate, rows_list = self.waves[index]
            result = measured.outputs[index]
            if result is None:
                continue
            for rows, got in zip(rows_list, result):
                want = replica.predict(self.images[rows], rate)
                if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                    failed += len(rows)
        return failed

    # -- traced run -----------------------------------------------------
    def install(self, tracer) -> None:
        # Parent-side entry points only: worker processes fork from this
        # process and must not inherit span-recording wrappers.
        tracer.wrap_method(ProcessReplicaPool, "__init__", "workers.start")
        tracer.wrap_method(SharedArena, "create", "shared.create")
        tracer.wrap_method(ProcessReplicaPool, "warm_plans", "workers.warm")
        tracer.wrap_method(ProcessReplicaPool, "predict_many",
                           "workers.predict")

    def layers(self, state, tracer, measured: Measured, pairer,
               untraced: Measured) -> dict:
        """Per-layer metrics.  Worker processes are opaque to the parent's
        spans, so plan time is measured in-process on the same batches and
        compared with the parent-side ``predict_many`` time."""
        model, pool = state
        tracer.wrap_method(PlanCache, "get", "plans.get")
        tracer.wrap_function(plans, "compile_plan", "plans.compile")
        tracer.wrap_method(InferencePlan, "run", "plans.run",
                           label=lambda plan, *a, **k: {
                               "rate": fixtures.rate_label(plan.profile)})
        cache = PlanCache()
        requests = {}
        for index, wave in enumerate(self.waves):
            request = f"plans-{index}"
            tracer.request = request
            root = tracer.begin("plans.inprocess",
                                rate=fixtures.rate_label(wave[0]))
            start = pairer.now()
            for batch in self._batches(wave):
                cache.get(model, wave[0]).run(batch)
            raw = pairer.now() - start
            tracer.end(root)
            requests[request] = pairer.sample(raw)
        paired = pairer.ratios()
        ratios = dict(measured.ratios)
        ratios.update((r, float(paired[i])) for r, i in requests.items())
        # Batches of a wave run concurrently in the pool, so the slowest
        # batch's plan time is the wave's critical path.
        critical: dict = {}
        for span in tracer.select("plans.run"):
            ms = span.duration * ratios[span.request] * 1e3
            critical[span.request] = max(critical.get(span.request, 0.0), ms)
        predict = [span for span in tracer.select("workers.predict")
                   if span.request in measured.ratios]
        predict_ms = mean_ms(predict, ratios)
        setup = {None: measured.extra["setup_ratio"]}
        stats = pool.worker_stats()
        hits = sum(s["plan_cache"]["hits"] for s in stats)
        misses = sum(s["plan_cache"]["misses"] for s in stats)
        out = {
            "workers.start_ms": mean_ms(tracer.select("workers.start"),
                                        setup),
            "workers.predict_ms": predict_ms,
            "workers.overhead_share":
                1.0 - sum(critical.values()) / (predict_ms * len(predict)),
            "plans.compile_ms": mean_ms(tracer.select("plans.compile"),
                                        ratios),
            "plans.cache_hit_ratio": hits / max(hits + misses, 1),
        }
        for rate in fixtures.RATES:
            label = fixtures.rate_label(rate)
            out[f"plans.run_ms.{label}"] = mean_ms(
                tracer.select("plans.run", rate=label), ratios)
        return out
