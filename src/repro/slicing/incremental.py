"""Incremental widening: reuse of base-subnet computation (Sec. 3.5).

Because a wider sub-layer's transform decomposes in block form

    [ y~a ]   [ Wa  B ]   [ xa ]   [ Wa xa + B xb ]
    [ yb  ] = [ C   D ] * [ xb ] = [ C xa  + D xb ]

the paper observes that ``y~a ~= ya`` (the already-computed narrow output),
so widening from rate ``r_a`` to ``r_b`` only needs the cross terms
``B xb``, ``C xa`` and ``D xb``.  For a dense layer this cuts the extra
cost of the wider pass from ``(wb_out * wb_in)`` multiplies to
``(wb_out * wb_in - wa_out * wa_in)``.

This module implements that inference-time optimization for chains of
:class:`~repro.slicing.layers.SlicedLinear` layers, in both an *exact*
mode (recompute ``y~a`` exactly, still skipping nothing) and the paper's
*approximate* mode (reuse ``ya``), so the approximation error and the
FLOPs saved can both be measured (ablation A-inc in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..errors import SliceRateError
from .layers import SlicedLinear


class IncrementalLinearState:
    """Cached activations of one sliced dense layer at the narrow rate."""

    def __init__(self, x_narrow: np.ndarray, y_narrow: np.ndarray):
        self.x_narrow = x_narrow
        self.y_narrow = y_narrow


def forward_narrow(layer: SlicedLinear, x: np.ndarray, rate: float
                   ) -> tuple[np.ndarray, IncrementalLinearState]:
    """Run the narrow pass of ``layer`` and cache what widening will reuse."""
    out_w = (layer.out_partition.width_for(rate)
             if layer.slice_output else layer.out_features)
    in_w = x.shape[-1]
    weight = layer.weight.data[:out_w, :in_w]
    y = x @ weight.T
    if layer.bias is not None:
        y = y + layer.bias.data[:out_w]
    if layer.rescale and layer.slice_input and in_w != layer.in_features:
        y = y * (layer.in_features / in_w)
    return y, IncrementalLinearState(x, y)


def widen(layer: SlicedLinear, x_wide: np.ndarray, rate_wide: float,
          state: IncrementalLinearState, exact: bool = False
          ) -> tuple[np.ndarray, int]:
    """Widen a cached narrow pass to ``rate_wide``.

    Parameters
    ----------
    x_wide:
        The widened input (its leading columns must equal the cached
        narrow input when ``exact=False`` is to be a good approximation).
    exact:
        If True, recompute the base block product instead of reusing the
        cached ``ya`` (used to measure the approximation error).

    Returns
    -------
    (y_wide, multiplies):
        The widened output and the number of multiply-adds actually spent,
        for comparison against the full-recompute cost.
    """
    in_narrow = state.x_narrow.shape[-1]
    out_narrow = state.y_narrow.shape[-1]
    in_wide = x_wide.shape[-1]
    out_wide = (layer.out_partition.width_for(rate_wide)
                if layer.slice_output else layer.out_features)
    if in_wide < in_narrow or out_wide < out_narrow:
        raise SliceRateError("widen() requires rate_wide >= the cached rate")
    batch = x_wide.shape[0]
    weight = layer.weight.data
    x_a = x_wide[:, :in_narrow]
    x_b = x_wide[:, in_narrow:in_wide]

    if exact:
        base = x_a @ weight[:out_narrow, :in_narrow].T
        spent = batch * out_narrow * in_narrow
    else:
        # Invert forward_narrow's post-processing: it computed
        # (x W^T + b) * scale, so recover the raw product x W^T.
        base = state.y_narrow.copy()
        if layer.rescale and layer.slice_input and in_narrow != layer.in_features:
            base = base / (layer.in_features / in_narrow)
        if layer.bias is not None:
            base = base - layer.bias.data[:out_narrow]
        spent = 0

    # Cross terms: B xb (top-right), C xa and D xb (bottom rows).
    if x_b.shape[-1]:
        base = base + x_b @ weight[:out_narrow, in_narrow:in_wide].T
        spent += batch * out_narrow * (in_wide - in_narrow)
    rows = []
    if out_wide > out_narrow:
        lower = x_a @ weight[out_narrow:out_wide, :in_narrow].T
        spent += batch * (out_wide - out_narrow) * in_narrow
        if x_b.shape[-1]:
            lower = lower + x_b @ weight[out_narrow:out_wide, in_narrow:in_wide].T
            spent += batch * (out_wide - out_narrow) * (in_wide - in_narrow)
        rows.append(lower)
    y = np.concatenate([base] + rows, axis=-1) if rows else base
    if layer.bias is not None:
        y = y + layer.bias.data[:out_wide]
    if layer.rescale and layer.slice_input and in_wide != layer.in_features:
        y = y * (layer.in_features / in_wide)
    return y, spent


def full_cost(layer: SlicedLinear, batch: int, rate: float) -> int:
    """Multiply-adds of a from-scratch pass of ``layer`` at ``rate``.

    Both widths come from the layer's own partitions: the input width a
    chain of layers sliced at one uniform rate hands this layer.
    """
    out_w = (layer.out_partition.width_for(rate)
             if layer.slice_output else layer.out_features)
    in_w = (layer.in_partition.width_for(rate)
            if layer.slice_input else layer.in_features)
    return batch * out_w * in_w
