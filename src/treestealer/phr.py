"""Bit-exact branch-history-register and pattern-history-table simulation.

The history register is a 194-entry shift queue of 2-bit doublets; taken
branches shift in a footprint of (branch, target) addresses, not-taken
branches leave it untouched. A small tagged predictor on top of it makes
the prime/probe readout loop work: writing candidate doublets and counting
mispredictions of a shared test branch recovers the register content one
doublet at a time.

Doublet lists everywhere in this module are newest-first: index 0 is the
most recently shifted-in doublet.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import CollisionAmbiguityError, DoubletDecodeError
from .trees import BranchTrace

PHR_CAPACITY = 194

# Per-node doublet pattern of the simulated inference loop, push order
# (oldest first): eight fixed always-taken branches, then one doublet
# whose value depends on the traversal direction.
COMMON_BLOCK_PUSH_ORDER = (2, 0, 3, 1, 0, 1, 3, 0)
LEFT_DOUBLET = 3   # not-taken conditional, follow-up unconditional jump
RIGHT_DOUBLET = 2  # taken conditional branch
DOUBLETS_PER_NODE = len(COMMON_BLOCK_PUSH_ORDER) + 1

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


class PhrState:
    """Fixed-capacity queue of 2-bit doublets, index 0 = newest.

    Stored as one integer with the newest doublet in the low two bits;
    untouched positions read as zero, so the length is always exactly
    the capacity.
    """

    __slots__ = ("capacity", "_bits", "_mask")

    def __init__(self, capacity: int = PHR_CAPACITY):
        self.capacity = capacity
        self._bits = 0
        self._mask = (1 << (2 * capacity)) - 1

    def push_doublet(self, doublet: int) -> None:
        if doublet not in (0, 1, 2, 3):
            raise ValueError(f"doublet must be 2-bit, got {doublet}")
        self._bits = ((self._bits << 2) | doublet) & self._mask

    def shift(self, n: int) -> None:
        """Insert n zero doublets at the newest end."""
        if not 0 <= n <= self.capacity:
            raise ValueError(f"shift amount {n} outside [0, {self.capacity}]")
        self._bits = (self._bits << (2 * n)) & self._mask

    def write(self, values: Sequence[int]) -> None:
        """Set the newest len(values) doublets (newest-first) and zero the rest."""
        if len(values) > self.capacity:
            raise ValueError(f"{len(values)} doublets exceed capacity {self.capacity}")
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1, 2, 3):
                raise ValueError(f"doublet must be 2-bit, got {v}")
            bits |= v << (2 * i)
        self._bits = bits

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.capacity:
            raise IndexError(index)
        return (self._bits >> (2 * index)) & 3

    def __len__(self) -> int:
        return self.capacity

    @property
    def doublets(self) -> tuple[int, ...]:
        bits = self._bits
        out = []
        for _ in range(self.capacity):
            out.append(bits & 3)
            bits >>= 2
        return tuple(out)

    def __eq__(self, other) -> bool:
        if isinstance(other, PhrState):
            return self.capacity == other.capacity and self._bits == other._bits
        return NotImplemented

    def __hash__(self):
        return hash((self.capacity, self._bits))


def _fold7(x: int, bit_width: int) -> int:
    """XOR-fold a bit string into 7 bits, 7-bit group alignment preserved."""
    w = ((bit_width + 6) // 7) * 7
    while w > 7:
        half = ((w + 13) // 14) * 7  # smallest multiple of 7 >= w / 2
        x = (x & ((1 << half) - 1)) ^ (x >> half)
        w = half
    return x


class PhtSim:
    """Tagged tables of 3-bit saturating counters over folded history.

    Table 0 is indexed by address bits alone; tables 1-3 fold
    progressively longer history windows into a 7-bit index combined
    with bit 6 of the branch address. Tags are the 13 low address bits.
    Prediction comes from the longest-history table holding a matching
    tag, falling back to the base table; counters move one step toward
    each outcome and saturate at [0, 7].

    ``extract_via_collisions`` memoizes its readouts and its per-position
    collision outcomes on the instance it is given, so both memos live
    exactly as long as the predictor.
    """

    __slots__ = ("entries", "mispredict_counter", "_readouts", "_outcomes")

    def __init__(self):
        self.entries: dict[int, int] = {}
        self.mispredict_counter = 0
        self._readouts: dict[tuple[tuple[int, ...], int], _Readout] = {}
        # (victim doublet, rounds) -> (counts, mispredictions, unique
        # winner or None) of one prime/probe position.
        self._outcomes: dict[tuple[int, int], tuple[list[int], int, int | None]] = {}

    @staticmethod
    def _keys_from_bits(phr_bits: int, branch_addr: int) -> list[int]:
        """Entry keys for tables 0..3, base first, from a raw register int."""
        tag = branch_addr & TAG_MASK
        addr_bit = (branch_addr >> 6) & 1
        keys = [(0 << 25) | (((branch_addr >> 2) & 0x7F) << 13)]
        for table in (1, 2, 3):
            window = PHT_WINDOWS[table]
            window_bits = phr_bits & ((1 << (2 * window)) - 1)
            idx = _fold7(window_bits, 2 * window) ^ (addr_bit << 6)
            keys.append((table << 25) | (idx << 13) | tag)
        return keys

    @staticmethod
    def _keys(phr: PhrState, branch_addr: int) -> list[int]:
        return PhtSim._keys_from_bits(phr._bits, branch_addr)

    def lookup_update(self, phr: PhrState, branch_addr: int, taken: bool) -> tuple[bool, bool]:
        """Predict the branch, update counters, return (predicted_taken,
        mispredicted). Never touches the history register itself."""
        keys = self._keys(phr, branch_addr)
        return self._lookup_update_keys(keys, taken)

    def _lookup_update_keys(self, keys: list[int], taken: bool) -> tuple[bool, bool]:
        entries = self.entries
        provider = keys[0]
        for key in (keys[3], keys[2], keys[1]):
            if key in entries:
                provider = key
                break
        counter = entries.get(provider, COUNTER_INIT)
        predicted = counter >= 4
        mispredicted = predicted != taken
        if mispredicted:
            self.mispredict_counter += 1
        if taken:
            entries[provider] = min(7, counter + 1)
        else:
            entries[provider] = max(0, counter - 1)
        for key in keys[1:]:
            if key not in entries:
                entries[key] = COUNTER_INIT + (1 if taken else -1)
        return predicted, mispredicted


# Address of the shared prime/probe test branch; only its low 13 bits and
# bit 6 matter to the predictor.
_TEST_BRANCH_ADDR = 0x41A4

_OLDEST_SHIFT = 2 * (PHR_CAPACITY - 1)
_REGISTER_MASK = (1 << (2 * PHR_CAPACITY)) - 1

# Probe x's table-3 key is the shared table-3 key XOR _PROBE_FOLD[x]: the
# candidate sits alone in the oldest slot and _fold7 is XOR-linear. The
# readout requires the four values to be distinct.
_PROBE_FOLD = tuple(_fold7(x << _OLDEST_SHIFT, 2 * PHR_CAPACITY) << 13 for x in range(4))


class _Readout(NamedTuple):
    recovered: list[int]
    rows: list[list[int]]
    mispredicts: int
    entries: dict[int, int]


def extract_via_collisions(
    victim_doublets: Sequence[int],
    pht: PhtSim,
    rounds: int = 8,
    probe_counts: list[list[int]] | None = None,
) -> list[int]:
    """Recover a doublet sequence through enforced predictor collisions.

    For position k the prime path replays the victim and shifts the
    register by capacity-1-k, isolating doublet k at the oldest slot with
    everything newer known, then runs the test branch not-taken. The probe
    path writes each candidate X with the known suffix, runs the test
    branch taken, and counts its mispredictions over ``rounds``
    repetitions; the candidate colliding with the prime entry spikes.

    Predictor entries are flushed between positions: index aliasing with
    saturated leftovers from earlier positions would otherwise drown the
    spike. Pass ``probe_counts`` to record the four per-candidate
    mispredict counts of every position.

    Because of the flush, a position's outcome depends only on which of
    its predictor keys coincide. Keys of different tables never do (the
    table id sits in bits 25 and up), the base-table key depends on the
    branch address alone, and the four probes' table-3 keys differ by the
    distinct ``_PROBE_FOLD`` offsets. The probe sharing the prime's
    table-3 key mispredicts in every round, since the not-taken prime run
    holds that counter at 1 or below; every other probe mispredicts at
    most in its first round, before its own table-3 entry exists. With
    ``rounds`` >= 2 the colliding probe is the unique maximum, so each
    recovered doublet is the victim's, the known suffix equals the prime
    register outside its oldest slot, and a position's outcome depends
    only on its doublet and ``rounds``. ``pht`` keeps a table of outcomes
    per doublet and ``rounds`` for its lifetime, so the prime/probe loop
    runs once per doublet value in a session, and again at each
    readout's last position so that ``pht.entries`` ends as a full run
    leaves it; other positions replay the counts and mispredictions.

    A whole readout depends only on the victim and ``rounds``, so ``pht``
    also keeps a memo of successful readouts: a repeated register image
    replays the recovered doublets, the ``probe_counts`` rows, the
    mispredict count and the final ``pht.entries``. Both tables assume
    the predictor model does not change during the predictor's lifetime.
    """
    if rounds < 2:
        raise ValueError("rounds must be at least 2 to separate the spike")
    victim = tuple(map(int, victim_doublets))
    if len(victim) > PHR_CAPACITY:
        raise ValueError("victim exceeds register capacity")
    if not victim:
        return []  # touches no predictor state, so nothing to memoize
    key = (victim, rounds)
    readout = pht._readouts.get(key)
    if readout is None:
        rows: list[list[int]] = []
        before = pht.mispredict_counter
        try:
            recovered = _collide(victim, pht, rounds, rows)
        finally:
            if probe_counts is not None:
                probe_counts.extend(list(row) for row in rows)
        pht._readouts[key] = _Readout(recovered, rows, pht.mispredict_counter - before,
                                      dict(pht.entries))
        return list(recovered)
    pht.mispredict_counter += readout.mispredicts
    pht.entries.clear()
    pht.entries.update(readout.entries)
    if probe_counts is not None:
        probe_counts.extend(list(row) for row in readout.rows)
    return list(readout.recovered)


def _collide(victim: Sequence[int], pht: PhtSim, rounds: int,
             rows: list[list[int]]) -> list[int]:
    """The prime/probe loop of ``extract_via_collisions``, without the
    readout memo.

    Appends each position's counts to ``rows`` before checking it, so the
    rows up to an ambiguous position are recorded when that raises.
    """
    replayed = PhrState()
    replayed.write(victim)
    outcomes = pht._outcomes
    recovered: list[int] = []
    known_bits = 0  # doublets recovered so far, laid out for the next position
    last = len(victim) - 1
    for k, doublet in enumerate(victim):
        key = (doublet, rounds)
        outcome = outcomes.get(key)
        if outcome is None or k == last:
            # Prime register content is fixed across rounds: the victim
            # replay shifted so doublet k sits at the oldest slot. A probe
            # register carries the attacker's recovered doublets in the
            # newer slots and the candidate in the oldest one, outside
            # every window but the full-length one, so the four probes
            # share their other keys.
            prime_bits = (replayed._bits << (2 * (PHR_CAPACITY - 1 - k))) & _REGISTER_MASK
            prime = PhtSim._keys_from_bits(prime_bits, _TEST_BRANCH_ADDR)
            shared = PhtSim._keys_from_bits(known_bits, _TEST_BRANCH_ADDR)
            pht.entries.clear()
            before = pht.mispredict_counter
            counts = [0, 0, 0, 0]
            for x in range(4):
                probe = [shared[0], shared[1], shared[2], shared[3] ^ _PROBE_FOLD[x]]
                for _ in range(rounds):
                    pht._lookup_update_keys(prime, False)
                    counts[x] += pht._lookup_update_keys(probe, True)[1]
            winners = [x for x in range(4) if counts[x] == max(counts)]
            outcome = outcomes[key] = (counts, pht.mispredict_counter - before,
                                       winners[0] if len(winners) == 1 else None)
        else:
            pht.mispredict_counter += outcome[1]
        counts, _, winner = outcome
        rows.append(counts)
        if winner is None:
            raise CollisionAmbiguityError(
                f"no unique mispredict maximum at doublet {k}: counts {counts}",
                position=k)
        recovered.append(winner)
        # Re-lay the known suffix for position k+1: everything moves one
        # slot toward the newest end and the new doublet joins below the
        # oldest slot.
        known_bits = (known_bits >> 2) | (winner << (_OLDEST_SHIFT - 2))
    return recovered


def encode_inference(trace: BranchTrace) -> list[int]:
    """Doublets (newest-first) a traversal pushes into the register.

    Per node, the eight-branch common block then the direction doublet:
    3 for a left traversal, 2 for right. The code layout puts every
    branch on a word-aligned address and its target at the address XOR
    the wanted doublet, so each ``footprint`` is that doublet. Exit-code
    doublets are the channel's business, not emitted here.
    """
    pushes: list[int] = []
    for bit in trace:
        pushes.extend(COMMON_BLOCK_PUSH_ORDER)
        pushes.append(RIGHT_DOUBLET if bit == 1 else LEFT_DOUBLET)
    pushes.reverse()
    return pushes


class DecodedTrace(NamedTuple):
    trace: BranchTrace
    truncated: bool


# Newest-first rendering of the common block, as it appears when parsing
# the register from the newest end.
_COMMON_NEWEST_FIRST = tuple(reversed(COMMON_BLOCK_PUSH_ORDER))
_DIR_BITS = {LEFT_DOUBLET: 0, RIGHT_DOUBLET: 1}


def decode_branch_trace(doublets: Sequence[int], exit_count: int) -> DecodedTrace:
    """Parse per-node patterns out of a register image (newest-first).

    Drops the newest ``exit_count`` doublets, then consumes 9-doublet
    blocks toward the oldest end. A trailing bare direction doublet is
    the decision right after the root when the budget allows exactly one
    extra. ``truncated`` is set when the data runs to the register's
    oldest edge, i.e. older decisions may have been shifted out; a zero
    tail proves completeness instead.
    """
    if not 0 <= exit_count < len(doublets):
        raise ValueError("exit_count must be inside the register")
    region = [int(d) for d in doublets[exit_count:]]
    bits_deepest_first: list[int] = []
    i = 0
    n = len(region)
    while i < n:
        remaining = n - i
        head = region[i]
        if head == 0:
            if any(region[i:]):
                raise DoubletDecodeError(
                    f"zero doublet inside block {len(bits_deepest_first)}",
                    block_index=len(bits_deepest_first))
            return DecodedTrace(BranchTrace(reversed(bits_deepest_first)), False)
        if head not in _DIR_BITS:
            raise DoubletDecodeError(
                f"doublet {head} is not a direction marker at block "
                f"{len(bits_deepest_first)}", block_index=len(bits_deepest_first))
        block_len = min(DOUBLETS_PER_NODE, remaining)
        expected = _COMMON_NEWEST_FIRST[:block_len - 1]
        got = tuple(region[i + 1:i + block_len])
        if got != expected:
            raise DoubletDecodeError(
                f"fixed doublets {got} != {expected} in block "
                f"{len(bits_deepest_first)}", block_index=len(bits_deepest_first))
        bits_deepest_first.append(_DIR_BITS[head])
        if block_len < DOUBLETS_PER_NODE:
            # Partial pattern at the oldest edge: that node's direction is
            # recovered but anything older was shifted out.
            return DecodedTrace(BranchTrace(reversed(bits_deepest_first)), True)
        i += DOUBLETS_PER_NODE
    # Patterns run flush to the oldest edge; completeness is unknowable.
    return DecodedTrace(BranchTrace(reversed(bits_deepest_first)), True)


def format_doublets(doublets: Sequence[int], group: int = DOUBLETS_PER_NODE) -> str:
    """Space-grouped digit string, newest-first, groups of ``group``."""
    digits = "".join(str(int(d)) for d in doublets)
    return " ".join(digits[i:i + group] for i in range(0, len(digits), group))
