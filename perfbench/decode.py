"""``decode``: many resident ``DecoderSession``s served round-robin.

A ``TransformerLM`` trained on the synthetic corpus serves a seeded list
of generation requests from one process.  Up to ``RESIDENT`` sessions are
resident; each round appends one generated token to every resident
session.  When a session reaches its output length it leaves, and a new
one is admitted and prefilled within that round.  Prompt and output
lengths are seeded within ``max_seq``; session profiles follow an evenly
balanced, seeded ``head_ffn_profile`` mix.

All of the work is in ``models.transformer`` (session snapshot and
``append``) and the attention eval helpers.  Latency here is time to
first token: from admitting a session to its first generated token, which
covers session construction plus prompt prefill.
"""

from __future__ import annotations

import traceback

import numpy as np

import fixtures
from base import Measured, mean_ms
from repro.models.transformer import DecoderSession
from repro.slicing import slice_profile
from repro.tensor import no_grad

NAME = "decode"
# Reference kernel repetitions (pairing.COMPONENTS): per-token work is
# small matrix-vector products plus many tiny numpy calls.
REFERENCE_MIX = {"axpy": 4, "gemm": 12, "stream": 4}
BUILDS = 25
RESIDENT = 48
SESSIONS_PER_SECOND = 60
PROMPT = (24, 41)               # [low, high) prompt tokens
OUTPUT = (8, 25)                # [low, high) generated tokens
CHECK_EVERY = 16                # sessions compared with a live forward
ATOL = 1e-5                     # as tests/test_transformer.py
WARMUP_SEED = 1_000_003         # fixed set-up session, independent of --seed


class _Live:
    __slots__ = ("index", "session", "left", "token", "stamp")

    def __init__(self, index, session, left, token, stamp):
        self.index = index
        self.session = session
        self.left = left
        self.token = token
        self.stamp = stamp


def session_bytes(session: DecoderSession) -> int:
    """Bytes of every array a session holds (weights copy + KV cache)."""
    total = 0
    for value in vars(session).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    for layer in session.layers:
        total += sum(v.nbytes for v in layer.values()
                     if isinstance(v, np.ndarray))
    return total


class Workload:
    root = "decode.round"
    unit = "round"

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        count = max(4, int(round(SESSIONS_PER_SECOND * seconds)))
        lengths = rng.integers(*PROMPT, size=count)
        # Prompts are consecutive, disjoint windows of one seeded stream,
        # so prompt accuracy is measured on distinct text.
        stream = fixtures.text(int(lengths.sum()), rng)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        # Set-up admits one fixed session, the same for every seed.
        self.first = (fixtures.DECODE_PROFILES[0],
                      fixtures.text(PROMPT[0] + 8,
                                    np.random.default_rng(WARMUP_SEED)))
        pairs = fixtures.balanced(rng, range(len(fixtures.DECODE_PROFILES)),
                                  count)
        self.requests = [
            (fixtures.DECODE_PROFILES[int(pair)],
             stream[start:start + length], int(rng.integers(*OUTPUT)))
            for pair, start, length in zip(pairs, starts, lengths)]

    # -- set-up ---------------------------------------------------------
    def build(self):
        """Model load and the first session (construction and prefill)."""
        model = fixtures.load_weights(fixtures.lm(), "lm_decode").eval()
        profiles = {pair: fixtures.decode_profile(model, pair)
                    for pair in fixtures.DECODE_PROFILES}
        pair, prompt = self.first
        session = DecoderSession(model, profiles[pair])
        for token in prompt:
            session.append(token)
        return model, profiles

    def close(self, state) -> None:
        pass

    # -- measured pass --------------------------------------------------
    def run(self, state, pairer, tracer=None) -> Measured:
        model, profiles = state
        now = pairer.now
        pending = list(range(len(self.requests)))[::-1]
        resident: list[_Live] = []
        ttft, itl, samples, requests = [], [], [], {}
        kept = {}                        # session index -> prefill log-probs
        correct = total = tokens = failed = 0
        round_index = 0
        while pending or resident:
            if tracer is not None:
                tracer.request = round_index
                tracer.attrs = {"phase": "decode"}
                root = tracer.begin(self.root)
            start = now()
            round_itl, admitted = [], []
            still = []
            for live in resident:
                try:
                    log_probs = live.session.append(live.token)
                except Exception:        # a failed step fails its session
                    traceback.print_exc()
                    failed += 1
                    continue
                stamp = now()
                round_itl.append(stamp - live.stamp)
                live.stamp = stamp
                live.token = int(np.argmax(log_probs))
                live.left -= 1
                tokens += 1
                if live.left:
                    still.append(live)
            resident = still
            if tracer is not None:
                tracer.attrs = {"phase": "prefill"}
            while pending and len(resident) < RESIDENT:
                index = pending.pop()
                pair, prompt, length = self.requests[index]
                begun = now()
                try:
                    session = DecoderSession(model, profiles[pair])
                    steps = [session.append(token) for token in prompt]
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                stamp = now()
                # Time to first token is a sample of its own, paired right
                # away; the round clock stops while the reference runs.
                admitted.append((index, pairer.sample(stamp - begun),
                                 stamp - begun, steps))
                tokens += 1
                if length > 1:
                    resident.append(_Live(index, session, length - 1,
                                          int(np.argmax(steps[-1])), stamp))
            raw = now() - start
            if tracer is not None:
                tracer.end(root)
                tracer.attrs = {}
            pairing = pairer.sample(raw)
            requests[round_index] = pairing
            samples.append((pairing, raw))
            itl.extend((pairing, gap) for gap in round_itl)
            for index, own, seconds, steps in admitted:
                ttft.append((own, seconds))
                prompt = self.requests[index][1]
                predicted = np.array([np.argmax(s) for s in steps[:-1]])
                correct += int(np.count_nonzero(predicted == prompt[1:]))
                total += len(prompt) - 1
                if index % CHECK_EVERY == 0:
                    kept[index] = steps
            round_index += 1
        return Measured(
            items=tokens, attempted=len(self.requests), failed=failed,
            accuracy=correct / max(total, 1), samples=samples,
            series={"latency": ttft, "itl": itl}, requests=requests,
            outputs=kept, extra={"rounds": round_index,
                                 "generated_tokens": tokens})

    # -- correctness ----------------------------------------------------
    def check(self, state, measured: Measured) -> int:
        """Session log-probs must match a live forward at the same profile
        (``atol`` as the transformer tests use); returns failed sessions."""
        model, profiles = state
        failed = 0
        for index, steps in measured.outputs.items():
            pair, prompt, _ = self.requests[index]
            with no_grad(), slice_profile(profiles[pair]):
                full = model(np.asarray(prompt).reshape(-1, 1)).data[:, 0]
            if not np.allclose(np.stack(steps), full, atol=ATOL):
                failed += 1
        return failed

    # -- traced run -----------------------------------------------------
    def install(self, tracer) -> None:
        tracer.wrap_method(DecoderSession, "__init__",
                           "transformer.session_init")
        tracer.wrap_method(DecoderSession, "append", "transformer.append")

    def layers(self, state, tracer, measured: Measured, pairer,
               untraced: Measured) -> dict:
        model, profiles = state
        ratios = measured.ratios
        out = {
            "transformer.session_init_ms": mean_ms(
                tracer.select("transformer.session_init"), ratios),
            "transformer.prefill_token_ms": mean_ms(
                tracer.select("transformer.append", phase="prefill"), ratios),
            "transformer.decode_token_ms": mean_ms(
                tracer.select("transformer.append", phase="decode"), ratios),
            "transformer.round_ms": mean_ms(tracer.select(self.root), ratios),
        }
        tracer.request = None
        full = fixtures.DECODE_PROFILES[0]
        for pair in fixtures.DECODE_PROFILES:
            out[f"transformer.session_bytes.{fixtures.profile_label(pair)}"] \
                = float(session_bytes(DecoderSession(model, profiles[pair])))
        label = fixtures.profile_label(full)
        out["transformer.resident_over_budget"] = (
            out[f"transformer.session_bytes.{label}"]
            / model.kv_cache_bytes(profiles[full]))
        return out
