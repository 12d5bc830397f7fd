"""Simulated MLaaS-over-TEE oracle with side-channel trace observation.

``observe`` is the only interface the extractor may use: it returns the
true prediction plus a branch trace recovered through one of three
channel models. The perfect channel hands the trace over directly; the
register channel encodes it into history-register doublets, pushes the
enclave-exit doublets on top, reads the register back through predictor
collisions and decodes it; the step-counter channel replays it from
per-instruction retired-branch events.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, ClassVar, Sequence

from . import phr
from .errors import ChannelDecodeError, TruncatedTraceError
from .trees import DecisionTree, infer, infer_with_trace

PERFECT = "perfect"
PHR_SGX = "phr_sgx"
STEP_COUNTER_SEV = "step_counter_sev"
_KINDS = (PERFECT, PHR_SGX, STEP_COUNTER_SEV)

STEP_LAYOUT_SEED = 0
STEP_LAYOUT_DEPTH = 64


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


@dataclass(slots=True)
class OracleResult:
    label: object
    trace: tuple[int, ...]
    queries_observed: int


class StepLayout:
    """Simulated code layout for the single-stepped inference binary.

    Each node costs a deterministic number of non-branch steps, then its
    conditional branch; left traversals additionally retire the follow-up
    unconditional jump. Offsets of the conditional steps identify where
    the per-node decisions live in the event log. The filler counts come
    from a fixed seed and repeat every ``STEP_LAYOUT_DEPTH`` nodes.
    """

    def __init__(self):
        rng = random.Random(STEP_LAYOUT_SEED)
        self.filler_steps = tuple(1 + rng.randrange(3) for _ in range(STEP_LAYOUT_DEPTH))

    def events_for_trace(self, trace: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[int]]:
        """(event log, node step offsets) for one traversal.

        Events are (retired_conditional, retired_taken) pairs per step.
        """
        log: list[tuple[int, int]] = []
        offsets: list[int] = []
        for i, bit in enumerate(trace):
            log.extend([(0, 0)] * self.filler_steps[i % len(self.filler_steps)])
            offsets.append(len(log))
            if bit == 1:
                log.append((1, 1))  # taken conditional: else/right path
            else:
                log.append((1, 0))  # not taken, then the follow-up jump
                log.append((0, 1))
        log.append((0, 1))  # function return
        return log, offsets


_STEP_LAYOUT = StepLayout()  # the layout every session single-steps


def decode_step_counters(
    event_log: Sequence[tuple[int, int]],
    node_step_offsets: Sequence[int],
) -> tuple[int, ...]:
    """Recover a branch trace from retired-branch counter events.

    At each node offset a conditional must have retired; a taken one is
    the else/right path (bit 1), a not-taken one the then/left path
    (bit 0). The offsets come from knowing the simulated code layout.
    """
    bits = []
    for offset in node_step_offsets:
        if not 0 <= offset < len(event_log):
            raise ChannelDecodeError(f"node step offset {offset} outside the event log")
        conditional, taken = event_log[offset]
        if not conditional:
            raise ChannelDecodeError(f"no retired conditional branch at step {offset}")
        bits.append(1 if taken else 0)
    return tuple(bits)


@lru_cache(maxsize=4096)
def _step_replay(true_trace: tuple[int, ...]) -> tuple[int, ...]:
    """The step channel's reading of one trace; the layout is a module
    constant, so this runs once per distinct trace."""
    return decode_step_counters(*_STEP_LAYOUT.events_for_trace(true_trace))


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


def observe(tree: DecisionTree, x: Sequence[float], session: ChannelSession) -> OracleResult:
    """Query the protected model once and observe its branch trace.

    The returned label is always the true prediction; only the trace goes
    through the configured side channel (and noise, if any).
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

    return OracleResult(label, trace, session.queries_observed)


@lru_cache(maxsize=4096)
def _decode_register(recovered: bytes) -> phr.DecodedTrace:
    """Decode of one recovered image, cached per image; decode errors are not."""
    return phr.decode_branch_trace(recovered)


def _observe_via_register(true_trace: tuple[int, ...],
                          session: ChannelSession) -> tuple[int, ...]:
    """Encode, exit, read back via collisions, decode; raise
    ``TruncatedTraceError`` when the readout lost decisions."""
    recovered, mispredicts = phr.extract_via_collisions(phr.register_image(true_trace))
    session.pht_mispredicts += mispredicts
    trace = _decode_register(recovered).trace
    # The register image alone cannot distinguish an exactly-at-budget
    # trace from a deeper one; the simulator knows the true depth.
    if len(trace) < len(true_trace):
        raise TruncatedTraceError(
            f"leaf depth {len(true_trace)} exceeds the register budget of "
            f"{phr.MAX_DEPTH} decisions",
            recovered_depth=len(trace), true_depth=len(true_trace))
    return trace


def make_oracle(tree: DecisionTree, session: ChannelSession) -> Callable[[Sequence[float]], OracleResult]:
    """Bind a tree and session into the single-argument oracle callable
    the attack logic consumes. ``observe`` is looked up when the oracle
    is made, so a rebinding of ``channel.observe`` in place by then sees
    every query."""
    return partial(observe, tree, session=session)


def label_only_oracle(tree: DecisionTree, session: ChannelSession) -> Callable[[Sequence[float]], object]:
    """Black-box view of the same service: the true prediction, counted on
    the session, with no side channel run and no trace returned."""
    def query(x):
        session.queries_observed += 1
        return infer(tree, x)
    return query
