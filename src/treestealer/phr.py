"""Bit-exact branch-history-register and pattern-history-table simulation.

The history register is a 194-entry shift queue of 2-bit doublets; taken
branches shift in a footprint of (branch, target) addresses, not-taken
branches leave it untouched. A small tagged predictor on top of it makes
the prime/probe readout loop work: writing candidate doublets and counting
mispredictions of a shared test branch recovers the register content one
doublet at a time.

Doublet sequences everywhere in this module are ``bytes``, one doublet
per byte, newest-first: index 0 is the most recently shifted-in doublet.
"""
from __future__ import annotations

import functools
import random
from typing import NamedTuple, Sequence

from .errors import DoubletDecodeError

PHR_CAPACITY = 194
EXIT_DOUBLETS = 103  # doublets the enclave exit pushes on top of a traversal
READOUT_ROUNDS = 8   # prime/probe rounds per readout candidate

# The victim binary both side channels observe, as events
# (conditional, taken, doublet) in execution order; the doublet is the
# footprint a taken branch shifts into the register, None on a branch not
# taken. Each node runs eight always-taken jumps, then its decision: a
# taken conditional for right, a not-taken one and its follow-up jump for
# left. The enclave exit runs EXIT_DOUBLETS jumps of fixed footprints.
COMMON_BLOCK_PUSH_ORDER = (2, 0, 3, 1, 0, 1, 3, 0)
LEFT_DOUBLET = 3
RIGHT_DOUBLET = 2
_COMMON_BLOCK = tuple((0, 1, d) for d in COMMON_BLOCK_PUSH_ORDER)
NODE_EVENTS = (_COMMON_BLOCK + ((1, 0, None), (0, 1, LEFT_DOUBLET)),  # bit 0
               _COMMON_BLOCK + ((1, 1, RIGHT_DOUBLET),))              # bit 1
_exit_rng = random.Random(0xE517)
EXIT_EVENTS = tuple((0, 1, _exit_rng.randrange(4)) for _ in range(EXIT_DOUBLETS))


def _pushed(events) -> bytes:
    """The doublets a run of events leaves in the register, newest first."""
    return bytes(d for _, taken, d in reversed(events) if taken)


# The register's view of the binary, as the decoder parses it from the
# newest end: the common block, and a node's whole pattern per direction bit.
_COMMON_NEWEST_FIRST = _pushed(_COMMON_BLOCK)
_NODE_NEWEST_FIRST = tuple(_pushed(events) for events in NODE_EVENTS)
_DIR_BITS = {pattern[0]: bit for bit, pattern in enumerate(_NODE_NEWEST_FIRST)}
DOUBLETS_PER_NODE = len(_NODE_NEWEST_FIRST[0])
EXIT_IMAGE = _pushed(EXIT_EVENTS)

# Deepest leaf whose trace survives the exit: whole node patterns below
# the exit doublets, plus one bare doublet for the decision after the root.
MAX_DEPTH = (PHR_CAPACITY - EXIT_DOUBLETS - 1) // DOUBLETS_PER_NODE + 1

# History windows (in doublets) folded into the predictor index, one per
# table; the base table (window 0) ignores history entirely.
PHT_WINDOWS = (0, 24, 68, 194)
COUNTER_INIT = 3  # weak not-taken
TAG_MASK = 0x1FFF


def footprint(branch_addr: int, target_addr: int) -> int:
    """Doublet shifted in by a taken branch: XOR of branch and target
    address, folded with its own bits 2-3."""
    if branch_addr < 0 or target_addr < 0:
        raise ValueError("addresses must be non-negative")
    x = branch_addr ^ target_addr
    return (x ^ (x >> 2)) & 3


def _fold7(x: int, bit_width: int) -> int:
    """XOR-fold a bit string into 7 bits, 7-bit group alignment preserved."""
    w = ((bit_width + 6) // 7) * 7
    while w > 7:
        half = ((w + 13) // 14) * 7  # smallest multiple of 7 >= w / 2
        x = (x & ((1 << half) - 1)) ^ (x >> half)
        w = half
    return x


# The predictor: tagged tables of 3-bit saturating counters over folded
# history. Table 0 is indexed by address bits alone; tables 1-3 fold
# progressively longer history windows into a 7-bit index combined with
# bit 6 of the branch address. Tags are the 13 low address bits.
# Prediction comes from the longest-history table holding a matching
# tag, falling back to the base table; counters move one step toward
# each outcome and saturate at [0, 7]. Its state is a plain dict of
# entry key -> counter.


def _keys_from_bits(phr_bits: int, branch_addr: int) -> list[int]:
    """Entry keys for tables 0..3, base first, from the register as one
    int (newest doublet in the low two bits)."""
    tag = branch_addr & TAG_MASK
    addr_bit = (branch_addr >> 6) & 1
    keys = [(0 << 25) | (((branch_addr >> 2) & 0x7F) << 13)]
    for table in (1, 2, 3):
        window = PHT_WINDOWS[table]
        window_bits = phr_bits & ((1 << (2 * window)) - 1)
        idx = _fold7(window_bits, 2 * window) ^ (addr_bit << 6)
        keys.append((table << 25) | (idx << 13) | tag)
    return keys


def _predict_update(entries: dict[int, int], keys: list[int], taken: bool) -> bool:
    """Predict one branch from ``entries``, train them on the outcome and
    return whether the prediction missed."""
    provider = keys[0]
    for key in (keys[3], keys[2], keys[1]):
        if key in entries:
            provider = key
            break
    counter = entries.get(provider, COUNTER_INIT)
    if taken:
        entries[provider] = min(7, counter + 1)
    else:
        entries[provider] = max(0, counter - 1)
    for key in keys[1:]:
        if key not in entries:
            entries[key] = COUNTER_INIT + (1 if taken else -1)
    return (counter >= 4) != taken


# Address of the shared prime/probe test branch; only its low 13 bits and
# bit 6 matter to the predictor.
_TEST_BRANCH_ADDR = 0x41A4

_OLDEST_SHIFT = 2 * (PHR_CAPACITY - 1)
_TWO_BIT = bytes(range(4))


@functools.lru_cache(maxsize=None)
def _readout_table() -> tuple[tuple[tuple[int, ...], ...], int]:
    """The readout's outcome table: per victim doublet 0..3 its four
    per-candidate mispredict counts, and the mispredictions one position
    costs. Each one-doublet victim runs ``READOUT_ROUNDS`` prime/probe
    rounds per candidate on a fresh predictor, the doublet (prime) or the
    candidate (probe) in the oldest slot and zeros in the newer ones.
    Raises ``RuntimeError`` unless each doublet is the unique maximum of
    its own counts and all four cost the same, the two facts the readout
    relies on.
    """
    rows, costs = [], []
    for doublet in range(4):
        entries: dict[int, int] = {}
        prime = _keys_from_bits(doublet << _OLDEST_SHIFT, _TEST_BRANCH_ADDR)
        counts = [0, 0, 0, 0]
        prime_missed = 0
        for x in range(4):
            probe = _keys_from_bits(x << _OLDEST_SHIFT, _TEST_BRANCH_ADDR)
            for _ in range(READOUT_ROUNDS):
                prime_missed += _predict_update(entries, prime, False)
                counts[x] += _predict_update(entries, probe, True)
        if sorted(counts)[-2] >= counts[doublet]:
            raise RuntimeError(f"doublet {doublet} is no unique spike of its counts {counts}")
        rows.append(tuple(counts))
        costs.append(prime_missed + sum(counts))
    if len(set(costs)) != 1:
        raise RuntimeError(f"doublets 0..3 cost unequal mispredictions {costs}")
    return tuple(rows), costs[0]


def readout_counts(doublet: int) -> tuple[int, ...]:
    """A readout position's four per-candidate mispredict counts; ``doublet`` spikes."""
    return _readout_table()[0][doublet]


def extract_via_collisions(victim_doublets: Sequence[int]) -> tuple[bytes, int]:
    """Recover a doublet sequence through enforced predictor collisions;
    returns it with the mispredictions the readout caused.

    For position k the prime path replays the victim and shifts the
    register by capacity-1-k, isolating doublet k at the oldest slot with
    everything newer known, then runs the test branch not-taken. The probe
    path writes each candidate X with the known suffix, runs the test
    branch taken, and counts its mispredictions over ``READOUT_ROUNDS``
    repetitions; the candidate colliding with the prime entry spikes.

    Predictor entries are flushed between positions, since index aliasing
    with saturated leftovers would drown the spike, so a position's
    outcome depends only on which of its predictor keys coincide. Keys of
    different tables never do (the table id sits in bits 25 and up), the
    base-table key depends on the branch address alone, and the candidate,
    alone in the oldest slot, moves only the full-window table-3 key. The
    probe sharing the prime's table-3 key mispredicts in every round,
    since the not-taken prime run holds that counter at 1 or below; every
    other probe mispredicts at most in its first round, before its own
    table-3 entry exists. Over two rounds or more the colliding probe is
    the unique maximum, so each recovered doublet is the victim's, the
    known suffix equals the prime register outside its oldest slot, and a
    position's outcome depends only on its doublet. Each call therefore
    charges every position the one per-position cost of a table built and
    checked once per process (``_readout_table``). Nothing per victim is
    cached, so every call reads the whole image. The table assumes an
    unchanging predictor model.
    """
    # An exact bytes image is read as given; any other sequence goes
    # through bytes(), which rejects values outside 0..255. Deleting 0..3
    # leaves any of 4..255.
    victim = victim_doublets if type(victim_doublets) is bytes else bytes(victim_doublets)
    if len(victim) > PHR_CAPACITY:
        raise ValueError("victim exceeds register capacity")
    if victim.translate(None, _TWO_BIT):
        raise ValueError(f"doublet must be 2-bit, got {max(victim)}")
    return victim, _readout_table()[1] * len(victim)


def encode_inference(trace: tuple[int, ...]) -> bytes:
    """Doublets (newest first) a traversal pushes into the register: per
    node, those of the taken events of ``NODE_EVENTS[bit]``.

    The code layout puts every branch on a word-aligned address and its
    target at the address XOR the wanted doublet, so each ``footprint``
    is that doublet. The exit's doublets are not emitted here;
    ``register_image`` adds them.
    """
    return b"".join([_NODE_NEWEST_FIRST[bit] for bit in reversed(trace)])


def register_image(trace: tuple[int, ...]) -> bytes:
    """The register after a traversal and the enclave exit, newest first:
    the doublets of every taken event of the run, the exit's
    (``EXIT_IMAGE``) on top, cut or zero-padded to the register capacity."""
    return (EXIT_IMAGE + encode_inference(trace))[:PHR_CAPACITY].ljust(PHR_CAPACITY, b"\0")


class DecodedTrace(NamedTuple):
    trace: tuple[int, ...]
    truncated: bool


def decode_branch_trace(doublets: Sequence[int]) -> DecodedTrace:
    """Parse per-node patterns out of a register image (newest-first).

    Drops the newest ``EXIT_DOUBLETS`` doublets, then consumes 9-doublet
    blocks toward the oldest end. A trailing bare direction doublet is
    the decision right after the root when the budget allows exactly one
    extra. ``truncated`` is set when the data runs to the register's
    oldest edge, i.e. older decisions may have been shifted out; a zero
    tail proves completeness instead. Any other sequence of ints is
    read as bytes: a value in 4..255 fails every check, and one outside
    0..255 raises ``ValueError``.
    """
    if len(doublets) <= EXIT_DOUBLETS:
        raise ValueError("register image must be longer than the exit doublets")
    region = bytes(doublets[EXIT_DOUBLETS:])
    bits_deepest_first: list[int] = []
    i = 0
    n = len(region)
    while i < n:
        block = len(bits_deepest_first)
        head = region[i]
        if head == 0:
            if region.count(0, i) != n - i:
                raise DoubletDecodeError(f"zero doublet inside block {block}",
                                         block_index=block)
            return DecodedTrace(tuple(reversed(bits_deepest_first)), False)
        bit = _DIR_BITS.get(head)
        if bit is None:
            raise DoubletDecodeError(
                f"doublet {head} is not a direction marker at block {block}",
                block_index=block)
        end = i + DOUBLETS_PER_NODE
        got = region[i + 1:end]
        if got != _COMMON_NEWEST_FIRST[:len(got)]:
            raise DoubletDecodeError(
                f"fixed doublets {tuple(got)} != "
                f"{tuple(_COMMON_NEWEST_FIRST[:len(got)])} in block {block}",
                block_index=block)
        bits_deepest_first.append(bit)
        if end > n:
            # Partial pattern at the oldest edge: that node's direction is
            # recovered but anything older was shifted out.
            return DecodedTrace(tuple(reversed(bits_deepest_first)), True)
        i = end
    # Patterns run flush to the oldest edge; completeness is unknowable.
    return DecodedTrace(tuple(reversed(bits_deepest_first)), True)


def format_doublets(doublets: Sequence[int]) -> str:
    """Space-grouped digit string, newest-first, ``DOUBLETS_PER_NODE`` to a group."""
    digits = "".join(str(int(d)) for d in doublets)
    n = DOUBLETS_PER_NODE
    return " ".join(digits[i:i + n] for i in range(0, len(digits), n))
