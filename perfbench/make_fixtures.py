"""Regenerate the served models' weights under ``perfbench/weights/``.

Usage (from the repository root)::

    python3 perfbench/make_fixtures.py

Trains the three served fixtures with Algorithm 1 (``SliceTrainer`` over
every slice rate the benchmark serves), fully seeded, and prints each
model's held-out accuracy per rate.  The benchmark never trains a served
model itself: it loads these files, so no run depends on state an earlier
run left behind.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
from repro.data.datasets import DataLoader  # noqa: E402
from repro.diagnose.demo import make_demo_data, train_demo_model  # noqa: E402
from repro.optim import SGD, clip_grad_norm  # noqa: E402
from repro.slicing import PlanCache, slice_profile  # noqa: E402
from repro.slicing.schemes import RandomStaticScheme  # noqa: E402
from repro.slicing.trainer import SliceTrainer  # noqa: E402
from repro.tensor import no_grad  # noqa: E402


def _plan_accuracy(model, inputs, labels, rates) -> dict:
    cache = PlanCache()
    return {rate: float(np.mean(np.argmax(
        cache.get(model, rate).run(inputs), -1) == labels))
        for rate in rates}


def make_vgg() -> None:
    task = fixtures.image_task()
    splits = task.build(train_size=4096, test_size=512)
    model = fixtures.vgg()
    trainer = SliceTrainer(
        model, RandomStaticScheme(list(fixtures.RATES)),
        SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4),
        rng=np.random.default_rng(1))
    trainer.fit(lambda: DataLoader(splits["train"], batch_size=32,
                                   shuffle=True,
                                   rng=np.random.default_rng(2)),
                epochs=8)
    model.eval()
    test = splits["test"]
    print("vgg", _plan_accuracy(model, test.inputs, test.targets,
                                fixtures.RATES))
    fixtures.save_weights(model, "vgg_serve")


def make_mlp() -> None:
    data = make_demo_data(0, num_train=4096, num_eval=1024)
    model, _ = train_demo_model(seed=0, hidden=fixtures.MLP_HIDDEN,
                                data=data, epochs=10)
    model.eval()
    print("mlp", _plan_accuracy(model, data["eval_x"], data["eval_y"],
                                (0.25, 0.5, 1.0)))
    fixtures.save_weights(model, "mlp_cascade")


def make_lm(steps: int = 600, seq: int = 32, batch: int = 16) -> None:
    rng = np.random.default_rng(3)
    stream = fixtures.text(60_000, rng)
    model = fixtures.lm()
    opt = SGD(model.parameters(), lr=0.3, momentum=0.9)
    grid = sorted({r for pair in fixtures.DECODE_PROFILES for r in pair})
    for _ in range(steps):
        starts = rng.integers(0, len(stream) - seq - 1, size=batch)
        x = np.stack([stream[s:s + seq] for s in starts], axis=1)
        y = np.stack([stream[s + 1:s + seq + 1] for s in starts], axis=1)
        opt.zero_grad()
        sampled = fixtures.decode_profile(
            model, (float(rng.choice(grid)), float(rng.choice(grid))))
        for profile in (fixtures.decode_profile(model, (1.0, 1.0)), sampled,
                        fixtures.decode_profile(model, (0.25, 0.25))):
            with slice_profile(profile):
                (model.sequence_nll(x, y) * (1.0 / 3)).backward()
        clip_grad_norm(model.parameters(), 1.0)
        opt.step()
    model.eval()
    held = fixtures.text(4096, np.random.default_rng(4))
    x = np.stack([held[s:s + seq] for s in range(0, 4000, seq)], axis=1)
    y = np.stack([held[s + 1:s + seq + 1] for s in range(0, 4000, seq)],
                 axis=1)
    for pair in fixtures.DECODE_PROFILES:
        with no_grad(), slice_profile(fixtures.decode_profile(model, pair)):
            predicted = model(x).data.argmax(-1)
        print("lm", fixtures.profile_label(pair),
              float(np.mean(predicted == y)))
    fixtures.save_weights(model, "lm_decode")


if __name__ == "__main__":
    for name in sys.argv[1:] or ["vgg", "mlp", "lm"]:
        {"vgg": make_vgg, "mlp": make_mlp, "lm": make_lm}[name]()
