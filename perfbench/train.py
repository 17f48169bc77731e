"""``train``: Algorithm 1 steps on ``SlicedVGG.cifar_mini`` for a fixed count.

``SliceTrainer.train_batch`` with a ``RandomStaticScheme`` over four rates
(the widest and narrowest every step, one random middle rate), SGD with
momentum, and the fast path (pooled workspace, fused kernels).  Training
continues from the stored serving fixture; batches come from the run's
seed.

This is the only workload that exercises ``tensor`` autograd,
``tensor.workspace``, the fused kernels and ``optim``.
"""

from __future__ import annotations

import numpy as np

import fixtures
from base import Measured, mean_ms, timed
from repro.optim import SGD
from repro.slicing.plans import PlanCache
from repro.slicing.schemes import RandomStaticScheme
from repro.slicing.trainer import SliceTrainer
from repro.tensor import Tensor, ops

NAME = "train"
# Reference kernel repetitions (pairing.COMPONENTS): autograd bookkeeping
# is interpreter-bound; the convolutions are BLAS.
REFERENCE_MIX = {"loop": 15, "gemm": 6}
BUILDS = 9
BATCH = 16
STEPS_PER_SECOND = 21
EVAL_IMAGES = 1024
EVAL_BATCH = 128
CHECK_STEPS = 3                 # leading steps compared with fast_path=False
RTOL = 1e-5                     # as tests/test_train_fast_path.py


class Workload:
    root = "train.step"
    unit = "step"

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        self.steps = max(CHECK_STEPS + 1,
                         int(round(STEPS_PER_SECOND * seconds)))
        images, labels = fixtures.images(self.steps * BATCH + EVAL_IMAGES,
                                         rng)
        cut = self.steps * BATCH
        self.x = images[:cut].reshape(self.steps, BATCH, *images.shape[1:])
        self.y = labels[:cut].reshape(self.steps, BATCH)
        self.eval_x, self.eval_y = images[cut:], labels[cut:]

    def _trainer(self, fast_path: bool = True) -> SliceTrainer:
        # Fine-tuning the trained serving fixture keeps held-out accuracy
        # steady from seed to seed; from a random start it is not.
        model = fixtures.load_weights(fixtures.vgg(), "vgg_serve")
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9,
                        weight_decay=5e-4)
        return SliceTrainer(model, RandomStaticScheme(list(fixtures.RATES)),
                            optimizer, rng=np.random.default_rng(7),
                            fast_path=fast_path)

    # -- set-up ---------------------------------------------------------
    def build(self):
        """Model (with weight load), optimizer and trainer, plus the first
        step, which fills the workspace arena."""
        trainer = self._trainer()
        first = trainer.train_batch(self.x[0], self.y[0])
        return trainer, [first]

    def close(self, state) -> None:
        pass

    # -- measured pass --------------------------------------------------
    def run(self, state, pairer, tracer=None) -> Measured:
        trainer, losses = state
        samples, requests = [], {}
        failed = 0
        for step in range(1, self.steps):
            step_losses, requests[step], raw = timed(
                pairer, tracer, step, self.root,
                lambda: trainer.train_batch(self.x[step], self.y[step]))
            samples.append((requests[step], raw))
            if step_losses is None or not all(
                    np.isfinite(v) for v in step_losses.values()):
                failed += 1
            if len(losses) < CHECK_STEPS:
                losses.append(step_losses)
        plan = PlanCache().get(trainer.model, 1.0)
        predicted = np.concatenate([
            np.argmax(plan.run(self.eval_x[i:i + EVAL_BATCH]), axis=-1)
            for i in range(0, EVAL_IMAGES, EVAL_BATCH)])
        return Measured(items=len(samples) * BATCH, attempted=len(samples),
                        failed=failed,
                        accuracy=float(np.mean(predicted == self.eval_y)),
                        samples=samples, series={"latency": samples},
                        requests=requests, outputs=list(losses))

    # -- correctness ----------------------------------------------------
    def check(self, state, measured: Measured) -> int:
        """The leading steps' losses must match the reference autograd path
        (``fast_path=False``) to ``RTOL``; returns failed steps."""
        reference = self._trainer(fast_path=False)
        failed = 0
        for step, got in enumerate(measured.outputs):
            want = reference.train_batch(self.x[step], self.y[step])
            if got is None or got.keys() != want.keys() or not all(
                    np.isclose(got[r], want[r], rtol=RTOL, atol=0.0)
                    for r in want):
                failed += 1
        return failed

    # -- traced run -----------------------------------------------------
    def install(self, tracer) -> None:
        model_cls = type(fixtures.vgg())
        tracer.wrap_method(SliceTrainer, "train_batch", "trainer.step")
        tracer.wrap_method(model_cls, "forward", "train.forward")
        tracer.wrap_method(Tensor, "backward", "train.backward")
        tracer.wrap_function(ops, "conv2d", "tensor.conv2d")
        tracer.wrap_method(SGD, "step", "optim.step")

    def layers(self, state, tracer, measured: Measured, pairer,
               untraced: Measured) -> dict:
        trainer, _ = state
        stats = trainer.arena.stats()
        lookups = stats["pool_hits"] + stats["pool_misses"]
        out = {name: mean_ms(tracer.select(span), measured.ratios)
               for name, span in (("trainer.step_ms", "trainer.step"),
                                  ("train.forward_ms", "train.forward"),
                                  ("train.backward_ms", "train.backward"),
                                  ("tensor.conv2d_ms", "tensor.conv2d"),
                                  ("optim.step_ms", "optim.step"))}
        return {
            **out,
            "workspace.pool_hit_ratio": stats["pool_hits"] / max(lookups, 1),
            "workspace.bytes": float(stats["bytes"]),
        }
