"""Seeded fixtures: the benchmark's models, stored weights and request lists.

Every model architecture is fixed here.  Served models (``serve``,
``cascade``, ``decode``) load trained weights from ``weights/*.npz``, which
``make_fixtures.py`` regenerates deterministically; the ``train`` workload
starts from a seeded initialisation.  Request lists are drawn from the
run's ``--seed`` only, so the program under test receives nothing but
generated inputs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.data.synthetic_images import SyntheticImageTask
from repro.data.synthetic_text import SyntheticTextCorpus
from repro.diagnose.demo import make_demo_data
from repro.models import MLP, SlicedVGG, TransformerLM
from repro.models.transformer import head_ffn_profile

WEIGHTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "weights")

# Image task shared by ``serve`` (trained fixture) and ``train``.
IMAGE_CLASSES = 8
RATES = (0.25, 0.5, 0.75, 1.0)

# Cascade MLP: hidden widths well above the demo default, so that
# multiply-adds rather than per-call dispatch dominate.
MLP_HIDDEN = (128, 128)

# Decoder LM and its corpus.
VOCAB = 64
LM_MAX_SEQ = 64
# (head rate, ffn rate) pairs the decode workload draws session profiles from.
DECODE_PROFILES = ((1.0, 1.0), (0.5, 0.5), (0.25, 1.0), (1.0, 0.25))


def image_task() -> SyntheticImageTask:
    return SyntheticImageTask(num_classes=IMAGE_CLASSES, image_size=16,
                              seed=0)


def vgg() -> SlicedVGG:
    return SlicedVGG.cifar_mini(num_classes=IMAGE_CLASSES, width=16, seed=0)


def mlp() -> MLP:
    return MLP(in_features=16, hidden=list(MLP_HIDDEN), num_classes=4,
               seed=0)


def corpus() -> SyntheticTextCorpus:
    return SyntheticTextCorpus(vocab_size=VOCAB, num_states=4,
                               shared_words=8, stickiness=0.95, zipf=2.0,
                               seed=0)


def lm() -> TransformerLM:
    return TransformerLM(VOCAB, embed_dim=64, num_heads=4, ffn_dim=128,
                         depth=2, max_seq=LM_MAX_SEQ, seed=0)


def decode_profile(model: TransformerLM, pair) -> object:
    return head_ffn_profile(model, pair[0], pair[1])


def rate_label(rate) -> str:
    """Metric-name label of a uniform rate or profile: ``r0.25``, ``r1``."""
    return f"r{float(rate):g}"


def profile_label(pair) -> str:
    return f"h{pair[0]:g}-f{pair[1]:g}"


def weights_path(name: str) -> str:
    return os.path.join(WEIGHTS_DIR, f"{name}.npz")


def load_weights(model, name: str):
    """Load ``weights/<name>.npz`` into ``model``; returns the model."""
    with np.load(weights_path(name)) as stored:
        model.load_state_dict({key: stored[key] for key in stored.files})
    return model


def save_weights(model, name: str) -> None:
    os.makedirs(WEIGHTS_DIR, exist_ok=True)
    np.savez(weights_path(name), **model.state_dict())


# -- request lists ----------------------------------------------------------
def balanced(rng: np.random.Generator, values, count: int) -> np.ndarray:
    """``count`` draws, each value as equally often as possible, in a
    seeded order: every seed gets the same mix, so work per run does not
    drift with the seed."""
    return rng.permutation(np.resize(np.asarray(list(values)), count))


def images(count: int, rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray]:
    """``count`` labelled images of the fixed image task.

    Rendered in chunks: one large render holds float64 temporaries many
    times the size of the result, which would dominate peak memory.
    """
    task = image_task()
    labels = rng.integers(0, IMAGE_CLASSES, size=count)
    out = np.empty((count, task.channels, task.image_size, task.image_size),
                   dtype=np.float32)
    for start in range(0, count, 256):
        out[start:start + 256] = task.sample(labels[start:start + 256], rng)
    return out, labels


def demo_rows(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of the planted-hard-region demo distribution."""
    data = make_demo_data(seed, num_train=1, num_eval=count)
    return data["eval_x"].astype(np.float32), data["eval_y"]


def text(length: int, rng: np.random.Generator) -> np.ndarray:
    return corpus().generate(length, rng)
