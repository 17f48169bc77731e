"""What every workload returns from its measured pass."""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Measured:
    """One fixed-work pass over a workload's request list.

    Times are recorded raw, each tagged with the pairing index of the
    sample it was measured in; :meth:`pair` turns them into
    reference-paired values once the pass is over.

    ``samples`` holds every timed sample (a wave, a batch, a decode round,
    a training step); throughput is ``items`` over their paired sum.
    ``series["latency"]`` holds one latency per timed unit (a wave, batch,
    step or session) and ``weights`` how many requests share it;
    percentiles are taken over requests.  ``requests`` maps the request
    id of each sample's spans to its pairing index.
    """

    items: int
    attempted: int
    failed: int
    accuracy: float
    samples: list[tuple[int, float]]
    series: dict[str, list[tuple[int, float]]]
    weights: list[int] | None = None
    requests: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # Filled by pair():
    sample_s: list[float] = field(default_factory=list)
    paired_ms: dict[str, np.ndarray] = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)

    def pair(self, ratios: np.ndarray) -> "Measured":
        self.sample_s = [raw * ratios[i] for i, raw in self.samples]
        self.paired_ms = {
            name: np.array([raw * ratios[i] * 1e3 for i, raw in values])
            for name, values in self.series.items()}
        self.ratios = {request: float(ratios[i])
                       for request, i in self.requests.items()}
        return self

    @property
    def busy_s(self) -> float:
        return float(sum(self.sample_s))

    @property
    def throughput(self) -> float:
        return self.items / self.busy_s

    def percentile(self, q: float, name: str = "latency") -> float:
        """The ``q``-th percentile of a paired series, in ms (latency is
        taken over requests)."""
        values = self.paired_ms[name]
        if name == "latency" and self.weights is not None:
            values = np.repeat(values, self.weights)
        return float(np.percentile(values, q))

    def beyond(self, q: float, name: str = "latency") -> int:
        """Timed units whose value lies beyond the ``q``-th percentile."""
        return int(np.count_nonzero(
            self.paired_ms[name] > self.percentile(q, name)))


def mean_ms(spans, ratios) -> float:
    """Mean paired duration in ms of the ``spans`` whose request has a
    pairing ratio in ``ratios`` (0 when there are none)."""
    values = [span.duration * ratios[span.request] for span in spans
              if span.request in ratios]
    return float(np.mean(values) * 1e3) if values else 0.0


def timed(pairer, tracer, request, name: str, call, **attrs):
    """Run ``call()`` as one timed sample and pair it.

    When tracing, the call runs inside a root span ``name`` tagged with
    ``request``.  Returns ``(result, pairing index, raw seconds)``; the
    result is None if the call raised (the traceback goes to stderr and
    the caller counts the request as failed).
    """
    if tracer is not None:
        tracer.request = request
        span = tracer.begin(name, **attrs)
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        result = None
    raw = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
    return result, pairer.sample(raw), raw
