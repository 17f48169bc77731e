"""Anytime prediction via progressive widening (paper Sec. 1 & 3.5).

A model trained with slicing supports *anytime prediction*: produce a
fast base-rate answer immediately, then — if the deadline allows — widen
the computation rate by rate, improving the answer.  Because of the
group-residual structure (Sec. 3.5), widening from ``r_a`` to ``r_b``
can *reuse* the narrow pass: each dense layer only computes the three
cross-term blocks, never re-multiplying the base block.

The engine below implements this for MLP-style chains of
:class:`~repro.slicing.layers.SlicedLinear` layers and accounts the
multiply-adds actually spent, so the anytime cost curve it reports is
real, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, SliceRateError
from ..models.mlp import MLP
from ..slicing.incremental import IncrementalLinearState, full_cost, widen
from ..slicing.layers import SlicedLinear
from ..slicing.plans import LinearStep, compile_layer


@dataclass
class AnytimeStep:
    """One refinement step of an anytime inference run."""

    rate: float
    logits: np.ndarray
    step_madds: int
    cumulative_madds: int


class AnytimeMLP:
    """Progressive-widening inference engine for a sliced MLP.

    Parameters
    ----------
    model:
        A :class:`~repro.models.MLP` (hidden layers + head built from
        ``SlicedLinear``).
    rates:
        Ascending refinement schedule; the first entry is the immediate
        answer's rate.
    """

    def __init__(self, model: MLP, rates: list[float]):
        if not isinstance(model, MLP):
            raise ConfigError("AnytimeMLP currently supports the MLP model")
        rates = sorted(float(r) for r in rates)
        if not rates:
            raise ConfigError("need at least one refinement rate")
        self.model = model
        self.rates = rates
        self.layers: list[SlicedLinear] = list(model.layers) + [model.head]
        # Compiled base-rate steps, reused across run() calls until the
        # parameters mutate (detected via their version counters).
        self._base_steps: list[LinearStep] | None = None
        self._base_key: tuple | None = None
        self.plan_compiles = 0

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray,
            budget_madds: int | None = None) -> list[AnytimeStep]:
        """Refine predictions through the schedule, reusing computation.

        Parameters
        ----------
        inputs:
            ``(batch, in_features)`` float array.
        budget_madds:
            Optional hard compute budget; refinement stops before the
            step that would exceed it (the base step always runs).

        Returns
        -------
        One :class:`AnytimeStep` per executed rate; the last step's
        ``logits`` is the best available answer.
        """
        inputs = np.asarray(inputs, dtype=np.float32)
        steps: list[AnytimeStep] = []
        states: list[IncrementalLinearState] = []

        # Base pass at the smallest rate: compiled narrow steps.  The
        # rescale stays *unfolded* (``fold_rescale=False``) so widen()'s
        # exact inversion of the post-processing still holds.
        base_rate = self.rates[0]
        x = inputs
        spent = 0
        for layer, step in zip(self.layers, self._base_plan()):
            y = step(x)
            spent += x.shape[0] * y.shape[-1] * x.shape[-1]
            states.append(IncrementalLinearState(x, y))
            x = self._activate(layer, y)
        cumulative = spent
        steps.append(AnytimeStep(base_rate, x, spent, cumulative))

        # Refinement passes: widen layer by layer with cross-terms only.
        for rate in self.rates[1:]:
            step_cost = 0
            new_states: list[IncrementalLinearState] = []
            x = inputs
            for layer, state in zip(self.layers, states):
                in_width = self._input_width(layer, rate, x)
                y, cost = widen(layer, x[:, :in_width], rate, state)
                step_cost += cost
                new_states.append(IncrementalLinearState(x[:, :in_width], y))
                x = self._activate(layer, y)
            if budget_madds is not None and \
                    cumulative + step_cost > budget_madds:
                break
            states = new_states
            cumulative += step_cost
            steps.append(AnytimeStep(rate, x, step_cost, cumulative))
        return steps

    def from_scratch_cost(self, batch: int, rate: float) -> int:
        """Multiply-adds of a non-incremental pass at ``rate``."""
        return sum(full_cost(layer, batch, rate) for layer in self.layers)

    # ------------------------------------------------------------------
    def _base_plan(self) -> list[LinearStep]:
        """The base-rate steps, recompiled only when parameters change."""
        key = tuple((id(p), p.version)
                    for layer in self.layers for p in layer.parameters())
        if self._base_steps is None or key != self._base_key:
            rate = self.rates[0]
            steps: list[LinearStep] = []
            width = self.layers[0].in_features
            for layer in self.layers:
                steps.append(compile_layer(layer, rate, fold_rescale=False,
                                           in_width=width))
                width = (layer.out_partition.width_for(rate)
                         if layer.slice_output else layer.out_features)
            self._base_steps = steps
            self._base_key = key
            self.plan_compiles += 1
        return self._base_steps

    def _activate(self, layer: SlicedLinear, y: np.ndarray) -> np.ndarray:
        if layer is self.layers[-1]:
            return y
        return np.maximum(y, 0.0)

    @staticmethod
    def _input_width(layer: SlicedLinear, rate: float, x: np.ndarray) -> int:
        if not layer.slice_input:
            return layer.in_features
        width = layer.in_partition.width_for(rate)
        if width > x.shape[-1]:
            raise SliceRateError(
                "upstream activation narrower than the requested rate"
            )
        return width


def anytime_accuracy_curve(engine: AnytimeMLP, inputs: np.ndarray,
                           labels: np.ndarray) -> list[dict]:
    """Accuracy and measured cost at each anytime refinement step."""
    steps = engine.run(inputs)
    curve = []
    for step in steps:
        accuracy = float((step.logits.argmax(axis=1) == labels).mean())
        curve.append({
            "rate": step.rate,
            "accuracy": accuracy,
            "step_madds": step.step_madds,
            "cumulative_madds": step.cumulative_madds,
            "from_scratch_madds": engine.from_scratch_cost(
                len(labels), step.rate),
        })
    return curve
