"""Simulated MLaaS-over-TEE oracle with side-channel trace observation.

``observe`` is the only interface the extractor may use: it returns the
pair ``(label, trace)``, the true prediction and a branch trace recovered
through one of three channel models. The perfect channel hands the trace
over directly; the register channel encodes it into history-register
doublets, pushes the enclave-exit doublets on top, reads the register
back through predictor collisions and decodes it; the step-counter
channel replays it from per-instruction retired-branch events.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Sequence

from . import phr
from .errors import TruncatedTraceError
from .trees import DecisionTree, infer, infer_with_trace

PERFECT = "perfect"
PHR_SGX = "phr_sgx"
STEP_COUNTER_SEV = "step_counter_sev"
_KINDS = (PERFECT, PHR_SGX, STEP_COUNTER_SEV)


@dataclass(frozen=True)
class ChannelModel:
    """Which side channel leaks the trace, and its parameters.

    ``flip_noise`` flips each returned trace bit independently with the
    given probability; the prediction itself is never perturbed. The
    register layout lives in ``phr``; ``phr_capacity`` repeats its
    capacity only because the benchmark reads it here, and goes with the
    benchmark-only change (ROADMAP item 1).
    """

    kind: str = PERFECT
    flip_noise: float = 0.0
    phr_capacity: ClassVar[int] = phr.PHR_CAPACITY

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.flip_noise < 1.0:
            raise ValueError("flip_noise must be in [0, 1)")


class StepLayout:
    """The single-stepped view of ``phr``'s victim binary: one step per
    event of ``phr.NODE_EVENTS`` and ``phr.EXIT_EVENTS``, no non-branch
    steps. The class stays only so bench/tracer.py can rebind
    ``events_for_trace`` on it; call that through the class.
    """

    @staticmethod
    def events_for_trace(trace: tuple[int, ...]) -> list[tuple[int, int]]:
        """The event log of one traversal and the exit: a
        (retired_conditional, retired_taken) pair per step."""
        events = [event for bit in trace for event in phr.NODE_EVENTS[bit]]
        events += phr.EXIT_EVENTS
        return [(conditional, taken) for conditional, taken, _ in events]


def decode_step_counters(event_log: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Recover a branch trace from retired-branch counter events.

    The layout retires exactly one conditional branch per node and none
    anywhere else, so the conditional steps are the node decisions in
    order: a taken one is the else/right path (bit 1), a not-taken one
    the then/left path (bit 0).
    """
    return tuple(taken for conditional, taken in event_log if conditional)


@lru_cache(maxsize=4096)
def _step_replay(true_trace: tuple[int, ...]) -> tuple[int, ...]:
    """The step channel's reading of one trace; the binary is fixed, so
    this runs once per distinct trace."""
    return decode_step_counters(StepLayout.events_for_trace(true_trace))


class ChannelSession:
    """One attack run's exclusive handle on the oracle.

    Owns the query counter, the noise RNG (seeded only when the model
    flips bits) and ``pht_mispredicts``, the predictor mispredictions its
    register readouts caused. A register readout that lost the trace's
    oldest decisions to the budget raises ``TruncatedTraceError``.
    ``strict`` is kept only for the benchmark's call shape and must be
    True; it goes with the benchmark-only change (ROADMAP item 1).
    """

    def __init__(self, model: ChannelModel, seed: int = 0, strict: bool = True):
        if not strict:
            raise ValueError("non-strict sessions were removed: a register readout "
                             "that loses decisions always raises")
        self.model = model
        self.queries_observed = 0
        self.pht_mispredicts = 0
        self._noise_rng = random.Random(seed) if model.flip_noise > 0.0 else None


def observe(tree: DecisionTree, x: Sequence[float],
            session: ChannelSession) -> tuple[object, tuple[int, ...]]:
    """Query the protected model once and observe its branch trace.

    Returns the plain pair ``(label, trace)``. The label is always the
    true prediction; only the trace goes through the configured side
    channel (and noise, if any).
    """
    model = session.model
    label, true_trace = infer_with_trace(tree, x)
    session.queries_observed += 1

    if model.kind == PERFECT:
        trace = true_trace
    elif model.kind == STEP_COUNTER_SEV:
        trace = _step_replay(true_trace)
    else:
        trace = _observe_via_register(true_trace, session)

    if model.flip_noise > 0.0:
        rng = session._noise_rng
        p = model.flip_noise
        trace = tuple(b ^ 1 if rng.random() < p else b for b in trace)

    return label, trace


@lru_cache(maxsize=4096)
def _register_image(true_trace: tuple[int, ...]) -> bytes:
    """The register a traversal leaves behind the enclave exit; the code
    layout and the exit doublets are fixed, so this runs once per
    distinct trace."""
    return phr.register_image(true_trace)


@lru_cache(maxsize=4096)
def _decode_register(recovered: bytes) -> tuple[int, ...]:
    """Decoded trace of one recovered image, cached per image; decode
    errors are not."""
    return phr.decode_branch_trace(recovered).trace


def _observe_via_register(true_trace: tuple[int, ...],
                          session: ChannelSession) -> tuple[int, ...]:
    """Encode, exit, read back via collisions, decode; raise
    ``TruncatedTraceError`` when the readout lost decisions."""
    recovered, mispredicts = phr.extract_via_collisions(_register_image(true_trace))
    session.pht_mispredicts += mispredicts
    trace = _decode_register(recovered)
    # The register image alone cannot distinguish an exactly-at-budget
    # trace from a deeper one; the simulator knows the true depth.
    if len(trace) < len(true_trace):
        raise TruncatedTraceError(
            f"leaf depth {len(true_trace)} exceeds the register budget of "
            f"{phr.MAX_DEPTH} decisions",
            recovered_depth=len(trace), true_depth=len(true_trace))
    return trace


def make_oracle(tree: DecisionTree, session: ChannelSession
                ) -> Callable[[Sequence[float]], tuple[object, tuple[int, ...]]]:
    """Bind a tree and session into the single-argument oracle callable
    the attack logic consumes; it returns ``observe``'s ``(label, trace)``
    pair. ``observe`` is looked up on each query, so a rebinding of
    ``channel.observe`` in place sees every query, even of an oracle made
    before it."""
    def oracle(x):
        return observe(tree, x, session)
    return oracle


def label_only_oracle(tree: DecisionTree, session: ChannelSession) -> Callable[[Sequence[float]], object]:
    """Black-box view of the same service: the true prediction, counted on
    the session, with no side channel run and no trace returned."""
    def query(x):
        session.queries_observed += 1
        return infer(tree, x)
    return query
