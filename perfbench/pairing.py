"""Reference-paired timing.

The host this benchmark runs on can change speed by up to 2x over a few
seconds, far more than the effects the benchmark must resolve.  So every
timed sample is paired with a fixed reference kernel, run right after the
sample while the program is idle, and reported as

    paired = raw * (NOMINAL_S / reference)

A host that runs everything 1.5x slower for a few seconds stretches the
sample and its reference alike, and the paired time stays put.  The
kernel calls no repository code.  It mixes the costs the workloads spend
their time on: a pure-Python loop (interpreter), a Python loop of numpy
axpy updates on strided column views (per-call dispatch, as in decode
steps and column-wise GEMM loops), small float32 GEMMs (BLAS) and an
elementwise op over a larger array (memory bandwidth).

One reference run is itself noisy (a single preemption can double it), so
a sample is paired with the median of the references taken within
``HALF_WINDOW_S`` of its own: short enough to follow the host's swings,
long enough to outvote one disturbed reference.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal duration of one reference kernel run; converts paired times
#: back into seconds-like units.  A constant, so paired numbers from
#: different runs and commits are comparable.
NOMINAL_S = 2.0e-3
HALF_WINDOW_S = 0.05

#: Kernel components, each about 0.1 ms per repetition on the reference
#: host (2-core x86, OpenBLAS 0.3.31, one thread).
COMPONENTS = ("loop", "axpy", "gemm", "stream")
_LOOP = 1200                    # pure-Python iterations per repetition
_AXPY = (2, 48)                 # columns x accumulation length per rep.
_GEMM = 128                     # square float32 GEMM side, 2 per rep.
_STREAM = 196608                # float32 elements per repetition


class Pairer:
    """Runs the reference kernel after each sample and keeps the record.

    ``mix`` gives the repetitions of each kernel component (see
    ``COMPONENTS``).  ``raw`` and ``reference`` hold every pairing's two
    times (seconds) and ``parts`` the per-component split of each
    reference; they are diagnostics for the run record, not metrics.
    ``excluded`` is the wall time spent inside the kernel so far: subtract
    it to get a clock that only advances while the program runs (see
    :meth:`now`).
    """

    def __init__(self, mix: dict[str, int]):
        rng = np.random.default_rng(12345)
        self.mix = [(name, int(mix.get(name, 0))) for name in COMPONENTS]
        self._a = rng.standard_normal((_GEMM, _GEMM)).astype(np.float32)
        self._b = rng.standard_normal((_GEMM, _GEMM)).astype(np.float32)
        self._c = np.empty((_GEMM, _GEMM), dtype=np.float32)
        self._w = rng.standard_normal(_AXPY).astype(np.float32)
        self._v = rng.standard_normal((32, _AXPY[1])).astype(np.float32)
        self._out = np.empty((32, _AXPY[0]), dtype=np.float32)
        self._x = rng.standard_normal(_STREAM).astype(np.float32)
        self._y = np.empty_like(self._x)
        self.raw: list[float] = []
        self.reference: list[float] = []
        self.parts: list[list[float]] = []
        self.stamps: list[float] = []
        self.last_parts: list[float] = []
        self.excluded = 0.0

    def _loop(self) -> None:
        acc = 0
        for i in range(_LOOP):
            acc = (acc * 31 + i) % 1000003

    def _axpy(self) -> None:
        x = self._v
        for j, row in enumerate(self._w):
            column = x[:, 0] * row[0]
            for k in range(1, len(row)):
                column += x[:, k] * row[k]
            self._out[:, j] = column

    def _gemm(self) -> None:
        for _ in range(2):
            np.matmul(self._a, self._b, out=self._c)

    def _stream(self) -> None:
        np.multiply(self._x, 1.0001, out=self._y)
        np.tanh(self._y, out=self._y)

    def _kernel(self) -> list[float]:
        parts = []
        for name, reps in self.mix:
            run = getattr(self, "_" + name)
            start = time.perf_counter()
            for _ in range(reps):
                run()
            parts.append(time.perf_counter() - start)
        return parts

    def measure(self) -> float:
        """One timed run of the reference kernel, in seconds."""
        start = time.perf_counter()
        self.last_parts = self._kernel()
        elapsed = time.perf_counter() - start
        self.excluded += time.perf_counter() - start
        return elapsed

    def sample(self, raw: float) -> int:
        """Pair a sample of ``raw`` seconds; returns its pairing index.

        Multiply any time measured during that sample by
        ``ratios()[index]``.
        """
        reference = self.measure()
        self.raw.append(raw)
        self.reference.append(reference)
        self.parts.append(self.last_parts)
        self.stamps.append(time.perf_counter())
        return len(self.reference) - 1

    def ratios(self) -> np.ndarray:
        """``NOMINAL_S / reference`` for every pairing so far."""
        ref = np.asarray(self.reference)
        stamps = np.asarray(self.stamps)
        low = np.searchsorted(stamps, stamps - HALF_WINDOW_S, side="left")
        high = np.searchsorted(stamps, stamps + HALF_WINDOW_S, side="right")
        smooth = np.array([np.median(ref[a:b]) for a, b in zip(low, high)])
        return NOMINAL_S / smooth

    def now(self) -> float:
        """A clock that stops while the reference kernel runs."""
        return time.perf_counter() - self.excluded

    def summary(self) -> dict:
        ref = np.asarray(self.reference)
        if not len(ref):
            return {"pairings": 0}
        return {
            "pairings": int(len(ref)),
            "raw_total_s": float(np.sum(self.raw)),
            "reference_median_ms": float(np.median(ref) * 1e3),
            "reference_min_ms": float(ref.min() * 1e3),
            "reference_max_ms": float(ref.max() * 1e3),
        }
