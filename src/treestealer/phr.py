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

from .errors import CollisionAmbiguityError, DoubletDecodeError

PHR_CAPACITY = 194
EXIT_DOUBLETS = 103  # doublets the enclave exit pushes on top of a traversal
READOUT_ROUNDS = 8   # prime/probe rounds per readout candidate

# Per-node doublet pattern of the simulated inference loop, push order
# (oldest first): eight fixed always-taken branches, then one doublet
# whose value depends on the traversal direction.
COMMON_BLOCK_PUSH_ORDER = (2, 0, 3, 1, 0, 1, 3, 0)
LEFT_DOUBLET = 3   # not-taken conditional, follow-up unconditional jump
RIGHT_DOUBLET = 2  # taken conditional branch
DOUBLETS_PER_NODE = len(COMMON_BLOCK_PUSH_ORDER) + 1
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


@functools.lru_cache(maxsize=None)
def _readout_table() -> tuple[tuple[tuple[int, ...], int, int | None], ...]:
    """Outcome of one readout position per victim doublet 0..3: its
    per-candidate mispredict counts, total mispredictions and unique
    winner (None if the maximum is shared).

    Runs ``READOUT_ROUNDS`` prime/probe rounds per candidate on a fresh
    predictor for each one-doublet victim ``[doublet]``: the prime register
    holds the doublet at the oldest slot, each probe register the candidate
    there, and the newer slots are zero on both sides.
    """
    table = []
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
        winner = counts.index(max(counts)) if counts.count(max(counts)) == 1 else None
        table.append((tuple(counts), prime_missed + sum(counts), winner))
    return tuple(table)


def extract_via_collisions(
    victim_doublets: Sequence[int],
    probe_counts: list[list[int]] | None = None,
) -> tuple[bytes, int]:
    """Recover a doublet sequence through enforced predictor collisions;
    returns it with the mispredictions the readout caused.

    For position k the prime path replays the victim and shifts the
    register by capacity-1-k, isolating doublet k at the oldest slot with
    everything newer known, then runs the test branch not-taken. The probe
    path writes each candidate X with the known suffix, runs the test
    branch taken, and counts its mispredictions over ``READOUT_ROUNDS``
    repetitions; the candidate colliding with the prime entry spikes.

    Predictor entries are flushed between positions: index aliasing with
    saturated leftovers from earlier positions would otherwise drown the
    spike. Pass ``probe_counts`` to record the four per-candidate
    mispredict counts of every position.

    Because of the flush, a position's outcome depends only on which of
    its predictor keys coincide. Keys of different tables never do (the
    table id sits in bits 25 and up), the base-table key depends on the
    branch address alone, and the candidate, alone in the oldest slot,
    moves only the full-window table-3 key. The probe sharing the prime's
    table-3 key mispredicts in every round, since the not-taken prime run
    holds that counter at 1 or below; every other probe mispredicts at
    most in its first round, before its own table-3 entry exists. Over
    two rounds or more the colliding probe is the unique maximum, so each
    recovered doublet is the victim's, the known suffix equals the prime
    register outside its oldest slot, and a position's outcome depends
    only on its doublet. Each call therefore charges the victim's doublet
    counts against one table built once per process (``_readout_table``);
    nothing per victim is cached, so every call reads the whole image. The
    table assumes an unchanging predictor model.
    An ambiguous position raises ``CollisionAmbiguityError`` carrying the
    mispredictions up to and including it.
    """
    # bytes() rejects values outside 0..255; the tally check rejects 4..255.
    victim = bytes(victim_doublets)
    if len(victim) > PHR_CAPACITY:
        raise ValueError("victim exceeds register capacity")
    tallies = [victim.count(d) for d in range(4)]
    if sum(tallies) != len(victim):
        raise ValueError(f"doublet must be 2-bit, got {max(victim)}")
    table = _readout_table()
    (_, m0, w0), (_, m1, w1), (_, m2, w2), (_, m3, w3) = table
    stop = min((victim.index(d) for d in range(4) if tallies[d] and table[d][2] is None),
               default=None) if None in (w0, w1, w2, w3) else None
    read = victim
    if stop is not None:
        # Positions up to the ambiguous one ran before the readout gave up.
        read = victim[:stop + 1]
        tallies = [read.count(d) for d in range(4)]
    mispredicts = tallies[0] * m0 + tallies[1] * m1 + tallies[2] * m2 + tallies[3] * m3
    if probe_counts is not None:
        probe_counts.extend(list(table[d][0]) for d in read)
    if stop is not None:
        raise CollisionAmbiguityError(
            f"no unique mispredict maximum at doublet {stop}: "
            f"counts {list(table[victim[stop]][0])}", position=stop,
            mispredicts=mispredicts)
    return victim, mispredicts


# Newest-first rendering of the common block, as it appears when parsing
# the register from the newest end, and of a whole node's pattern per
# direction bit (0 left, 1 right).
_COMMON_NEWEST_FIRST = bytes(reversed(COMMON_BLOCK_PUSH_ORDER))
_NODE_NEWEST_FIRST = (bytes([LEFT_DOUBLET]) + _COMMON_NEWEST_FIRST,
                      bytes([RIGHT_DOUBLET]) + _COMMON_NEWEST_FIRST)
_DIR_BITS = {LEFT_DOUBLET: 0, RIGHT_DOUBLET: 1}


def encode_inference(trace: tuple[int, ...]) -> bytes:
    """Doublets (newest-first) a traversal pushes into the register.

    Per node, the eight-branch common block then the direction doublet:
    3 for a left traversal, 2 for right. The code layout puts every
    branch on a word-aligned address and its target at the address XOR
    the wanted doublet, so each ``footprint`` is that doublet. Exit-code
    doublets are not emitted here; ``register_image`` adds them.
    """
    return b"".join([_NODE_NEWEST_FIRST[bit] for bit in reversed(trace)])


def _exit_image() -> bytes:
    """Fixed pseudorandom doublets the enclave exit pushes, as the
    register holds them right after the exit (newest first)."""
    rng = random.Random(0xE517)
    return bytes(reversed([rng.randrange(4) for _ in range(EXIT_DOUBLETS)]))


EXIT_IMAGE = _exit_image()


def register_image(trace: tuple[int, ...]) -> bytes:
    """The register after a traversal and the enclave exit, newest first:
    the exit doublets on top of the traversal's, cut or zero-padded to
    the register capacity."""
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
    read as the same bytes, a value outside 0..3 failing every check.
    """
    if len(doublets) <= EXIT_DOUBLETS:
        raise ValueError("register image must be longer than the exit doublets")
    source = doublets[EXIT_DOUBLETS:]
    region = source if isinstance(source, bytes) else \
        bytes(d if 0 <= d < 4 else 4 for d in source)
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
                f"doublet {source[i]} is not a direction marker at block {block}",
                block_index=block)
        end = i + DOUBLETS_PER_NODE
        got = region[i + 1:end]
        if got != _COMMON_NEWEST_FIRST[:len(got)]:
            raise DoubletDecodeError(
                f"fixed doublets {tuple(source[i + 1:end])} != "
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


def format_doublets(doublets: Sequence[int], group: int = DOUBLETS_PER_NODE) -> str:
    """Space-grouped digit string, newest-first, groups of ``group``."""
    digits = "".join(str(int(d)) for d in doublets)
    return " ".join(digits[i:i + group] for i in range(0, len(digits), group))
