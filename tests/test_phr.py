import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer import phr
from treestealer.errors import DoubletDecodeError
from treestealer.phr import (
    _TEST_BRANCH_ADDR,
    COMMON_BLOCK_PUSH_ORDER,
    COUNTER_INIT,
    DOUBLETS_PER_NODE,
    LEFT_DOUBLET,
    PHR_CAPACITY,
    RIGHT_DOUBLET,
    DecodedTrace,
    _keys_from_bits,
    _predict_update,
    _readout_table,
    decode_branch_trace,
    encode_inference,
    extract_via_collisions,
    footprint,
    format_doublets,
    readout_counts,
    register_image,
)
from treestealer.trees import trace_from_text, trace_text

EXIT = 103


def exit_padded(trace_bits):
    """Register image (newest-first) after a traversal plus exit code, as
    a list so tests can plant any value in it."""
    return list(register_image(tuple(trace_bits)))


def packed(doublets, shift=0):
    """The register as one int, newest doublet in the low two bits:
    ``doublets`` written newest-first, then ``shift`` zeros shifted in."""
    bits = 0
    for i, d in enumerate(doublets):
        bits |= d << (2 * i)
    return (bits << (2 * shift)) & ((1 << (2 * PHR_CAPACITY)) - 1)


def all_traces(max_length):
    """Every bit tuple of length 0 to ``max_length``."""
    for length in range(max_length + 1):
        for n in range(1 << length):
            yield tuple((n >> i) & 1 for i in range(length))


class TestFootprint:
    def test_self_xor_cancels(self):
        assert footprint(0x1234, 0x1234) == 0

    def test_low_bit(self):
        assert footprint(0b0001, 0b0000) == 1

    def test_bit_fold(self):
        # (0b0101 ^ 0b01) & 3 == 0
        assert footprint(0b0101, 0b0000) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            footprint(-1, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1 << 20), st.integers(0, 3))
    def test_word_aligned_branch_to_xor_target_pushes_doublet(self, word, doublet):
        # The layout encode_inference assumes: a branch on a word-aligned
        # address whose target is the address XOR the wanted doublet.
        branch = word << 2
        assert footprint(branch, branch ^ doublet) == doublet


class TestPhtSim:
    KEYS = _keys_from_bits(0, 0x1234)

    def test_fresh_branch_predicts_not_taken(self):
        assert _predict_update({}, self.KEYS, taken=False) is False
        assert _predict_update({}, self.KEYS, taken=True) is True

    def test_training_saturates_toward_taken(self):
        entries = {}
        for _ in range(8):
            _predict_update(entries, self.KEYS, taken=True)
        assert _predict_update(entries, self.KEYS, taken=True) is False
        assert entries[self.KEYS[3]] == 7  # the longest-history entry provides

    def test_single_doublet_difference_changes_long_history_index(self):
        # Any change to one doublet must move the full-window fold; the
        # readout loop relies on this at the oldest position.
        rng = random.Random(1)
        for _ in range(50):
            doublets = [rng.randrange(4) for _ in range(PHR_CAPACITY)]
            keys_a = _keys_from_bits(packed(doublets), 0x1234)
            position = rng.randrange(PHR_CAPACITY)
            doublets[position] = (doublets[position] + rng.randrange(1, 4)) % 4
            keys_b = _keys_from_bits(packed(doublets), 0x1234)
            assert keys_a[3] != keys_b[3]

    def test_mispredict_counter_increments(self):
        # Counters start weak not-taken: a taken outcome misses and moves
        # the base entry one step up; each history table gets an entry.
        entries = {}
        assert _predict_update(entries, self.KEYS, taken=True) is True
        assert entries == dict.fromkeys(self.KEYS, COUNTER_INIT + 1)


def _never_learning_update(entries, keys, taken):
    # A predictor that never stores an entry: every lookup reads the
    # initial counter.
    return (COUNTER_INIT >= 4) != taken


def _doublet_3_prime_always_misses(entries, keys, taken):
    # The real predictor, except that the not-taken prime run of a
    # position holding doublet 3 always mispredicts: every spike stays,
    # but that doublet's position costs more than the others.
    missed = _predict_update(entries, keys, taken)
    return missed or (not taken and keys == _keys_from_bits(
        packed([3], PHR_CAPACITY - 1), _TEST_BRANCH_ADDR))


@contextmanager
def patched(name, value):
    """Read out with ``phr.<name>`` set to ``value`` inside the block, such
    as another ``READOUT_ROUNDS`` or ``_predict_update``. The process-wide
    outcome table is emptied on entry and exit, so no outcome computed
    under the patch outlives it."""
    _readout_table.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(phr, name, value)
            yield
    finally:
        _readout_table.cache_clear()


class TestCollisionReadout:
    def test_single_doublet(self):
        assert extract_via_collisions([3])[0] == bytes([3])

    def test_small_sequence(self):
        for victim in ([2, 3, 0, 3], bytes([2, 3, 0, 3])):
            assert extract_via_collisions(victim)[0] == bytes([2, 3, 0, 3])

    def test_identity_on_random_victims(self):
        rng = random.Random(7)
        for _ in range(25):
            victim = [rng.randrange(4) for _ in range(rng.randint(1, 30))]
            assert extract_via_collisions(victim)[0] == bytes(victim)

    def test_collision_spike_strictly_dominates(self):
        rng = random.Random(8)
        victim = [rng.randrange(4) for _ in range(12)]
        recovered, _ = extract_via_collisions(victim)
        assert recovered == bytes(victim)
        for doublet in recovered:
            row = readout_counts(doublet)
            spike = row[doublet]
            others = [c for x, c in enumerate(row) if x != doublet]
            assert spike > max(others)

    def test_full_register_length(self):
        rng = random.Random(9)
        victim = [rng.randrange(4) for _ in range(PHR_CAPACITY)]
        assert extract_via_collisions(victim)[0] == bytes(victim)

    @pytest.mark.parametrize("kwargs", [
        {"victim_doublets": [0] * (PHR_CAPACITY + 1)},
        {"victim_doublets": [1, 4, 2]},
        {"victim_doublets": [2] * 10 + [-1]},
    ], ids=["oversized", "doublet-4", "doublet-minus-1"])
    def test_rejected_inputs_charge_nothing(self, kwargs):
        # A rejected victim raises before any position is read.
        before = _readout_table.cache_info()
        with pytest.raises(ValueError) as exc:
            extract_via_collisions(**kwargs)
        assert not hasattr(exc.value, "mispredicts")
        assert _readout_table.cache_info() == before


class TestReadoutTableBuild:
    """The readout's two facts are checked when its table is built; a
    predictor breaking either fails every readout."""

    def test_a_shared_maximum_fails_the_build(self):
        # A predictor that never learns mispredicts every taken probe.
        with patched("_predict_update", _never_learning_update):
            for _ in range(2):  # a failed build is not cached
                with pytest.raises(RuntimeError,
                                   match=r"doublet 0 is no unique spike of its counts \[8, 8, 8, 8\]"):
                    extract_via_collisions([1, 2])

    def test_unequal_costs_fail_the_build(self):
        # Each position costs 10; doublet 3's 32 prime runs add 32.
        with patched("_predict_update", _doublet_3_prime_always_misses):
            for _ in range(2):
                with pytest.raises(RuntimeError,
                                   match=r"cost unequal mispredictions \[10, 10, 10, 42\]"):
                    extract_via_collisions([1, 2])


def reference_readout(victim, rows):
    """The prime/probe readout spelled out position by position.

    Per position k: start from an empty predictor, lay the victim so
    doublet k is oldest (prime) and the recovered doublets plus each
    candidate the same way (probe), then alternate ``READOUT_ROUNDS``
    not-taken prime and taken probe runs of the test branch, counting the
    probe's mispredictions into ``rows``. Returns the recovered bytes and
    every misprediction; a position without a unique maximum fails the
    test.
    """
    recovered = []
    mispredicts = 0
    for k in range(len(victim)):
        entries = {}
        shift = PHR_CAPACITY - 1 - k
        prime = _keys_from_bits(packed(victim, shift), _TEST_BRANCH_ADDR)
        counts = []
        for x in range(4):
            probe = _keys_from_bits(packed(recovered + [x], shift), _TEST_BRANCH_ADDR)
            missed = 0
            for _ in range(phr.READOUT_ROUNDS):
                mispredicts += phr._predict_update(entries, prime, False)
                missed += phr._predict_update(entries, probe, True)
            counts.append(missed)
            mispredicts += missed
        rows.append(counts)
        winners = [x for x in range(4) if counts[x] == max(counts)]
        assert len(winners) == 1, f"no unique maximum at position {k}: {counts}"
        recovered.append(winners[0])
    return bytes(recovered), mispredicts


def readout_effects(victim):
    """What ``extract_via_collisions`` reports: the result, each
    position's ``readout_counts`` row and the mispredict charge."""
    result, charge = extract_via_collisions(victim)
    return result, [list(readout_counts(d)) for d in result], charge


def reference_effects(victim):
    """The same three from ``reference_readout``."""
    rows = []
    result, charge = reference_readout(victim, rows)
    return result, rows, charge


class TestReadoutMatchesReference:
    @pytest.mark.parametrize("length", [1, 2, 193, PHR_CAPACITY])
    @pytest.mark.parametrize("rounds", [2, 3, 8])
    def test_cold_and_repeated_readouts(self, length, rounds):
        rng = random.Random(1000 * length + rounds)
        victim = [rng.randrange(4) for _ in range(length)]
        with patched("READOUT_ROUNDS", rounds):
            expected = reference_effects(victim)
            assert readout_effects(victim) == expected
            # The same register image again reads and charges the same.
            assert readout_effects(victim) == expected

    @pytest.mark.parametrize("rounds", range(2, 41))
    def test_outcome_table_matches_reference(self, rounds):
        # The spike argument holds at any round count from 2 on, not only
        # at the READOUT_ROUNDS the channel reads with.
        with patched("READOUT_ROUNDS", rounds):
            for doublet in range(4):
                rows = []
                recovered, charge = reference_readout([doublet], rows)
                assert recovered == bytes([doublet])
                assert readout_counts(doublet) == tuple(rows[0])
                assert _readout_table()[1] == charge == rounds + 2
            victim = [3, 0, 2, 1, 1, 0, 3]
            assert readout_effects(victim) == reference_effects(victim)


def direct_pattern(prime_bits, known_bits):
    """A position's collision pattern by comparing predictor keys: prime
    vs. shared table-1 key, prime vs. shared table-2 key, and which
    probe's table-3 key (candidate in the oldest slot) equals the prime's."""
    prime = _keys_from_bits(prime_bits, _TEST_BRANCH_ADDR)
    shared = _keys_from_bits(known_bits, _TEST_BRANCH_ADDR)
    oldest = PHR_CAPACITY - 1
    probes = [_keys_from_bits(known_bits | packed([x], oldest), _TEST_BRANCH_ADDR)[3]
              for x in range(4)]
    return (prime[1] == shared[1], prime[2] == shared[2],
            probes.index(prime[3]) if prime[3] in probes else -1)


class TestCollisionPattern:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=PHR_CAPACITY),
           st.sampled_from((2, 3, 8)))
    def test_readout_uses_each_positions_direct_pattern(self, victim, rounds):
        # The outcome table is keyed by doublet alone; that is sound only
        # while every position's keys collide the same way: both shared
        # keys equal the prime's and probe victim[k] takes its table-3 key.
        with patched("READOUT_ROUNDS", rounds):
            assert extract_via_collisions(victim)[0] == bytes(victim)
        for k in range(len(victim)):
            shift = PHR_CAPACITY - 1 - k
            assert direct_pattern(packed(victim, shift), packed(victim[:k], shift)) == \
                (True, True, victim[k])

    def test_one_predictor_reads_many_victims_like_fresh_ones(self):
        # Outcomes tabled for one victim are reused for the next; each
        # readout must still equal a fresh reference readout.
        rng = random.Random(77)
        for rounds in (2, 3, 8):
            lengths = [1, 193, PHR_CAPACITY]
            rng.shuffle(lengths)
            with patched("READOUT_ROUNDS", rounds):
                for length in lengths:
                    victim = [rng.randrange(4) for _ in range(length)]
                    assert readout_effects(victim) == reference_effects(victim)


class TestEncode:
    def test_all_left_path_matches_reference_rendering(self):
        encoded = encode_inference(trace_from_text("LLLLL"))
        assert len(encoded) == 5 * DOUBLETS_PER_NODE
        # Drop the root's fixed block (the 8 oldest doublets) to match the
        # reference table's relevant part.
        assert format_doublets(encoded[:-8]) == \
            "303101302 303101302 303101302 303101302 3"

    def test_alternating_path_direction_doublets(self):
        encoded = encode_inference(trace_from_text("RLRLR"))
        assert format_doublets(encoded[:-8]) == \
            "203101302 303101302 203101302 303101302 2"

    def test_empty_trace(self):
        assert encode_inference(()) == b""

    def test_matches_push_order(self):
        # Newest-first bytes: the pushes of every node, root first, reversed.
        for trace in all_traces(6):
            pushes = []
            for bit in trace:
                pushes.extend(COMMON_BLOCK_PUSH_ORDER)
                pushes.append(RIGHT_DOUBLET if bit == 1 else LEFT_DOUBLET)
            assert encode_inference(trace) == bytes(reversed(pushes))


def reference_decode(doublets):
    """The block parser spelled out on a list of ints, one slice per block."""
    if len(doublets) <= EXIT:
        raise ValueError("register image must be longer than the exit doublets")
    region = list(doublets[EXIT:])
    common = tuple(reversed(COMMON_BLOCK_PUSH_ORDER))
    dir_bits = {LEFT_DOUBLET: 0, RIGHT_DOUBLET: 1}
    bits_deepest_first = []
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
            return DecodedTrace(tuple(reversed(bits_deepest_first)), False)
        if head not in dir_bits:
            raise DoubletDecodeError(
                f"doublet {head} is not a direction marker at block "
                f"{len(bits_deepest_first)}", block_index=len(bits_deepest_first))
        block_len = min(DOUBLETS_PER_NODE, remaining)
        expected = common[:block_len - 1]
        got = tuple(region[i + 1:i + block_len])
        if got != expected:
            raise DoubletDecodeError(
                f"fixed doublets {got} != {expected} in block "
                f"{len(bits_deepest_first)}", block_index=len(bits_deepest_first))
        bits_deepest_first.append(dir_bits[head])
        if block_len < DOUBLETS_PER_NODE:
            return DecodedTrace(tuple(reversed(bits_deepest_first)), True)
        i += DOUBLETS_PER_NODE
    return DecodedTrace(tuple(reversed(bits_deepest_first)), True)


def decode_effects(decode, doublets):
    """A decoder's result, or its error type, block index and message."""
    try:
        return decode(doublets)
    except DoubletDecodeError as exc:
        return type(exc), exc.block_index, str(exc)


class TestDecodeMatchesReference:
    def test_every_trace_up_to_length_twelve(self):
        for trace in all_traces(12):
            image = exit_padded(trace)
            expected = reference_decode(image)
            assert decode_branch_trace(bytes(image)) == expected
            assert decode_branch_trace(image) == expected

    @pytest.mark.parametrize("text", ["", "L", "RL", "LRRLL", "RLLRLRRLLRR", "LRLRLRLRLRLR"])
    def test_every_single_doublet_substitution(self, text):
        image = exit_padded(trace_from_text(text))
        for position in range(EXIT, PHR_CAPACITY):
            for value in range(4):
                bad = list(image)
                bad[position] = value
                expected = decode_effects(reference_decode, bad)
                assert decode_effects(decode_branch_trace, bytes(bad)) == expected
                assert decode_effects(decode_branch_trace, bad) == expected

    @pytest.mark.parametrize("value", [4, 7, 255, -1, 256])
    def test_out_of_range_values_match_reference(self, value):
        image = exit_padded(trace_from_text("RLR"))
        for position in (EXIT, EXIT + 3, EXIT + 27, EXIT + 40):
            bad = list(image)
            bad[position] = value
            if 0 <= value <= 255:
                assert decode_effects(decode_branch_trace, bad) == \
                    decode_effects(reference_decode, bad)
            else:
                # The image is read as bytes, which cannot hold the value.
                with pytest.raises(ValueError):
                    decode_branch_trace(bad)


class TestDecode:
    def test_round_trip_shallow(self):
        for text in ("", "L", "R", "LRL", "LLLLL", "RLRLRLR"):
            decoded = decode_branch_trace(exit_padded(trace_from_text(text)))
            assert trace_text(decoded.trace) == text
            assert decoded.truncated is False

    def test_depth_eleven_recovers_fully(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
        decoded = decode_branch_trace(exit_padded(bits))
        assert decoded.trace == tuple(bits)

    def test_depth_twelve_loses_root_decision_first(self):
        rng = random.Random(4)
        bits = [rng.randrange(2) for _ in range(12)]
        decoded = decode_branch_trace(exit_padded(bits))
        assert decoded.truncated is True
        assert len(decoded.trace) == 11
        assert decoded.trace == tuple(bits[1:])

    @pytest.mark.parametrize("length", [0, EXIT])
    def test_image_no_longer_than_the_exit_is_rejected(self, length):
        with pytest.raises(ValueError, match="longer than the exit doublets"):
            decode_branch_trace(bytes(length))

    def test_empty_post_exit_region(self):
        decoded = decode_branch_trace(exit_padded([]))
        assert len(decoded.trace) == 0
        assert decoded.truncated is False

    @pytest.mark.parametrize("depth", [1, 5])
    def test_patterns_flush_to_the_oldest_edge_are_truncated(self, depth):
        # An image ending right after a whole node pattern may have lost
        # older decisions, so the decode flags it.
        trace = tuple(i % 2 for i in range(depth))
        image = phr.EXIT_IMAGE + encode_inference(trace)
        assert len(image) == EXIT + depth * DOUBLETS_PER_NODE
        assert decode_branch_trace(image) == DecodedTrace(trace, True)

    def test_malformed_block_reports_index(self):
        register = exit_padded([0, 0, 1])
        bad = list(register)
        bad[EXIT + 4] = (bad[EXIT + 4] + 1) % 4  # corrupt inside block 0
        with pytest.raises(DoubletDecodeError) as exc:
            decode_branch_trace(bad)
        assert exc.value.block_index == 0

    @pytest.mark.parametrize("value, error", [(4, DoubletDecodeError), (-1, ValueError)],
                             ids=["4", "-1"])
    @pytest.mark.parametrize("slot", [0, 4], ids=["direction", "fixed"])
    def test_out_of_range_doublet_raises(self, value, error, slot):
        # 4 is a byte no doublet takes; -1 is no byte at all.
        bad = exit_padded([0, 0, 1])
        bad[EXIT + slot] = value
        with pytest.raises(error) as exc:
            decode_branch_trace(bad)
        assert getattr(exc.value, "block_index", 0) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=11))
    def test_round_trip_property(self, bits):
        decoded = decode_branch_trace(exit_padded(bits))
        assert decoded.trace == tuple(bits)
