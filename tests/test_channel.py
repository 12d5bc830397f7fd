import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer import phr
from treestealer.channel import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    StepLayout,
    _decode_register,
    _register_image,
    _step_replay,
    decode_step_counters,
    label_only_oracle,
    observe,
)
from treestealer.errors import DoubletDecodeError, TruncatedTraceError
from treestealer.phr import EXIT_DOUBLETS, EXIT_IMAGE, MAX_DEPTH, PHR_CAPACITY, register_image
from treestealer.trees import generate_random_tree, infer_with_trace

from conftest import chain_tree


class TestChannelModel:
    def test_defaults(self):
        model = ChannelModel()
        assert model.kind == PERFECT
        assert model.phr_capacity == 194

    def test_budget_arithmetic(self):
        assert MAX_DEPTH == 11

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(kind="telepathy")
        with pytest.raises(ValueError):
            ChannelModel(flip_noise=1.0)


class TestPerfectChannel:
    def test_example_observation(self, example_target):
        session = ChannelSession(ChannelModel(), seed=0)
        label, trace = observe(example_target, [7, 3], session)
        assert label == 0
        assert trace == (0, 0)
        assert session.queries_observed == 1

    def test_query_counter_is_per_call(self, example_target):
        session = ChannelSession(ChannelModel(), seed=0)
        for i in range(5):
            observe(example_target, [7, 3], session)
        assert session.queries_observed == 5


class TestRegisterChannel:
    def test_matches_perfect_up_to_budget_depth(self):
        rng = random.Random(2)
        for seed in range(6):
            tree = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=seed)
            phr_session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
            for _ in range(5):
                x = [rng.uniform(0, 8), rng.uniform(0, 8)]
                expected = infer_with_trace(tree, x)
                label, trace = observe(tree, x, phr_session)
                assert (label, trace) == expected

    def test_depth_eleven_is_exact(self):
        tree = chain_tree(11)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        _, trace = observe(tree, [4096.0], session)
        assert trace == (0,) * 11

    def test_strict_mode_raises_on_truncation(self):
        # A depth-12 readout keeps only the last 11 decisions; the query
        # and the readout's mispredicts still count.
        tree = chain_tree(12)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        with pytest.raises(TruncatedTraceError) as exc:
            observe(tree, [4096.0], session)
        assert str(exc.value) == "leaf depth 12 exceeds the register budget of 11 decisions"
        assert exc.value.recovered_depth == 11
        assert exc.value.true_depth == 12
        assert session.queries_observed == 1
        _, trace = infer_with_trace(tree, [4096.0])
        charged = phr.extract_via_collisions(register_image(trace))[1]
        assert session.pht_mispredicts == charged > 0

    def test_label_only_queries_skip_the_register(self):
        tree = chain_tree(12)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        query = label_only_oracle(tree, session)
        assert [query([x]) for x in (4096.0, 0.0)] == [12, 0]
        assert session.queries_observed == 2
        assert session.pht_mispredicts == 0

    def test_exit_sequence_is_fixed(self):
        assert type(EXIT_IMAGE) is bytes
        assert len(EXIT_IMAGE) == EXIT_DOUBLETS == 103
        assert max(EXIT_IMAGE) <= 3
        assert register_image(()) == EXIT_IMAGE + bytes(PHR_CAPACITY - 103)

    @pytest.mark.parametrize("depth", [1, 11, 12])
    def test_register_image_puts_the_traversal_under_the_exit(self, depth):
        trace = tuple(i % 2 for i in range(depth))
        image = register_image(trace)
        assert len(image) == PHR_CAPACITY
        assert image[:103] == EXIT_IMAGE
        pushed = phr.encode_inference(trace)[:PHR_CAPACITY - 103]
        assert image[103:] == pushed.ljust(PHR_CAPACITY - 103, b"\0")


class TestRegisterSession:
    TREE = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=3)

    def inputs(self, count, seed=7):
        rng = random.Random(seed)
        distinct = [[rng.uniform(0, 8), rng.uniform(0, 8)] for _ in range(count)]
        return distinct * 3

    def test_mispredicts_sum_fresh_readouts(self, monkeypatch):
        images = []
        readout = phr.extract_via_collisions

        def recording(victim, *args, **kwargs):
            images.append(victim)
            return readout(victim, *args, **kwargs)

        monkeypatch.setattr(phr, "extract_via_collisions", recording)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        inputs = self.inputs(6)
        for x in inputs:
            observe(self.TREE, x, session)
        assert len(images) == len(inputs)
        # The bench counts readout positions as the length of this argument.
        for image in images:
            assert type(image) is bytes
            assert len(image) == ChannelModel.phr_capacity
        assert len(set(images)) < len(images)
        fresh = [readout(image)[1] for image in images]
        assert type(session.pht_mispredicts) is int
        assert session.pht_mispredicts == sum(fresh)

    @pytest.mark.parametrize("depth", [0, 1, 11, 12, 30])
    def test_readout_gets_one_full_register_image(self, monkeypatch, depth):
        # Empty, fitting, at-budget and overflowing traces all reach the
        # readout as one capacity-long bytes image; an overflowing one
        # raises after that single readout.
        images = []
        readout = phr.extract_via_collisions

        def recording(victim, *args, **kwargs):
            images.append(victim)
            return readout(victim, *args, **kwargs)

        monkeypatch.setattr(phr, "extract_via_collisions", recording)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        if depth > 11:
            with pytest.raises(TruncatedTraceError):
                observe(chain_tree(depth), [4096.0], session)
        else:
            observe(chain_tree(depth), [4096.0], session)
        assert [type(image) for image in images] == [bytes]
        assert len(images[0]) == ChannelModel.phr_capacity

    def test_identical_queries_read_out_every_time_and_decode_once(self, monkeypatch):
        # The image is built once per trace, but every query still pays
        # for its own readout.
        encoded, images, decoded = [], [], []
        encode = phr.encode_inference
        readout, decode = phr.extract_via_collisions, phr.decode_branch_trace

        def recording_encode(trace):
            encoded.append(trace)
            return encode(trace)

        def recording_readout(victim, *args, **kwargs):
            images.append(victim)
            return readout(victim, *args, **kwargs)

        def recording_decode(doublets):
            decoded.append(doublets)
            return decode(doublets)

        monkeypatch.setattr(phr, "encode_inference", recording_encode)
        monkeypatch.setattr(phr, "extract_via_collisions", recording_readout)
        monkeypatch.setattr(phr, "decode_branch_trace", recording_decode)
        _register_image.cache_clear()
        _decode_register.cache_clear()
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        x = self.inputs(1)[0]
        for _ in range(5):
            observe(self.TREE, x, session)
        assert len(encoded) == 1
        assert len(images) == 5
        assert {len(image) for image in images} == {ChannelModel.phr_capacity}
        assert len(decoded) == 1
        assert session.pht_mispredicts == 5 * readout(images[0])[1]

    def test_cached_decode_matches_the_decoder_on_every_short_trace(self):
        traces = [bits for length in range(13)
                  for bits in itertools.product((0, 1), repeat=length)]
        assert len(traces) == 8191
        deep = [tuple(i % 2 for i in range(depth)) for depth in (12, 30)]
        for trace in traces + deep:
            image = register_image(trace)
            assert _register_image(trace) == image
            assert _decode_register(image) == phr.decode_branch_trace(image)

    def test_corrupted_image_raises_on_every_query(self, monkeypatch):
        # A 1 in the newest direction slot under the exit doublets is no
        # direction marker; the failed decode must not be remembered.
        readout = phr.extract_via_collisions

        def corrupting(victim, *args, **kwargs):
            recovered, mispredicts = readout(victim, *args, **kwargs)
            return recovered[:EXIT_DOUBLETS] + b"\x01" + recovered[EXIT_DOUBLETS + 1:], mispredicts

        monkeypatch.setattr(phr, "extract_via_collisions", corrupting)
        session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        for _ in range(2):
            with pytest.raises(DoubletDecodeError):
                observe(chain_tree(3), [4096.0], session)
        assert session.queries_observed == 2

    def test_new_session_starts_at_zero_and_sessions_agree(self):
        first = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        for x in self.inputs(2):
            observe(self.TREE, x, first)
        assert first.pht_mispredicts > 0
        second = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
        assert second.pht_mispredicts == 0
        for x in self.inputs(2):
            observe(self.TREE, x, second)
        assert second.pht_mispredicts == first.pht_mispredicts

    def test_noise_is_fresh_for_repeated_inputs(self):
        model = ChannelModel(kind=PHR_SGX, flip_noise=0.3)
        session = ChannelSession(model, seed=11)
        rng = random.Random(11)
        inputs = self.inputs(2)
        got, expected = [], []
        for x in inputs:
            _, trace = observe(self.TREE, x, session)
            got.append(trace)
            _, clean = infer_with_trace(self.TREE, x)
            expected.append(tuple(b ^ 1 if rng.random() < 0.3 else b for b in clean))
        assert got == expected
        assert len({got[i] for i in range(0, len(inputs), 2)}) > 1


class TestStepCounterChannel:
    def test_single_node_decodes(self):
        assert decode_step_counters([(1, 0)]) == (0,)
        assert decode_step_counters([(1, 1)]) == (1,)

    def test_only_conditional_steps_are_decisions(self):
        # Non-branch steps, the left path's jump and the exit's jumps
        # retire no conditional branch, so they carry no decision.
        assert decode_step_counters([(0, 1), (0, 0)]) == ()
        assert decode_step_counters([(0, 0), (1, 0), (0, 1), (0, 0), (1, 1), (0, 1)]) == (0, 1)

    def test_synthetic_walks_match_true_traces(self):
        rng = random.Random(5)
        for seed in range(10):
            tree = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=seed)
            for _ in range(20):
                x = [rng.uniform(0, 8) for _ in range(3)]
                _, expected = infer_with_trace(tree, x)
                assert decode_step_counters(StepLayout.events_for_trace(expected)) == expected

    @pytest.mark.parametrize("length", range(12))
    def test_replay_matches_uncached_decode(self, length):
        for bits in itertools.product((0, 1), repeat=length):
            assert _step_replay(bits) == \
                decode_step_counters(StepLayout.events_for_trace(bits)) == bits

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1)).map(tuple), st.data())
    def test_zero_steps_anywhere_leave_the_decode_unchanged(self, trace, data):
        log = StepLayout.events_for_trace(trace)
        for _ in range(data.draw(st.integers(1, 20))):
            log.insert(data.draw(st.integers(0, len(log))), (0, 0))
        assert decode_step_counters(log) == trace

    def test_sessions_share_one_replay(self):
        tree = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=4)
        rng = random.Random(8)
        inputs = [[rng.uniform(0, 8) for _ in range(3)] for _ in range(40)]
        a = ChannelSession(ChannelModel(kind=STEP_COUNTER_SEV), seed=0)
        b = ChannelSession(ChannelModel(kind=STEP_COUNTER_SEV), seed=1)
        seen_a = [trace for _, trace in (observe(tree, x, a) for x in inputs)]
        misses = _step_replay.cache_info().misses
        assert [trace for _, trace in (observe(tree, x, b) for x in inputs)] == seen_a
        assert _step_replay.cache_info().misses == misses

    def test_channel_equals_perfect(self):
        tree = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=20)
        rng = random.Random(6)
        session = ChannelSession(ChannelModel(kind=STEP_COUNTER_SEV), seed=0)
        for _ in range(30):
            x = [rng.uniform(0, 8), rng.uniform(0, 8)]
            label, trace = observe(tree, x, session)
            assert (label, trace) == infer_with_trace(tree, x)


class TestNoise:
    def test_label_never_perturbed(self, example_target):
        session = ChannelSession(ChannelModel(flip_noise=0.8), seed=1)
        for _ in range(50):
            label, _ = observe(example_target, [7, 3], session)
            assert label == 0

    def test_flips_are_seed_deterministic(self, example_target):
        traces = []
        for _ in range(2):
            session = ChannelSession(ChannelModel(flip_noise=0.5), seed=42)
            traces.append([trace for _, trace in
                           (observe(example_target, [7, 3], session) for _ in range(20))])
        assert traces[0] == traces[1]
        flat = [b for t in traces[0] for b in t]
        assert 0 < sum(flat) < len(flat)  # some but not all bits flipped


class TestChannelFaithfulness:
    def test_all_channels_agree_without_noise(self):
        tree = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=33)
        rng = random.Random(12)
        inputs = [[rng.uniform(0, 8) for _ in range(3)] for _ in range(8)]
        observed = {}
        for kind in (PERFECT, PHR_SGX, STEP_COUNTER_SEV):
            session = ChannelSession(ChannelModel(kind=kind), seed=0)
            observed[kind] = [(label, trace)
                              for label, trace in (observe(tree, x, session) for x in inputs)]
        assert observed[PERFECT] == observed[PHR_SGX] == observed[STEP_COUNTER_SEV]


class TestOneVictimBinary:
    """Both channels observe one binary, ``phr``'s event table: the step
    log is its (conditional, taken) projection and the register image
    the doublets of its taken events."""

    def test_exit_image_is_pinned(self):
        assert hashlib.sha256(EXIT_IMAGE).hexdigest() == \
            "3d1e49e718e88722ed03f60fba76aef0c16260d3f0de33da4a8c8c0f6fef0bc4"

    def test_only_taken_events_carry_a_doublet(self):
        for events in (*phr.NODE_EVENTS, phr.EXIT_EVENTS):
            for conditional, taken, doublet in events:
                assert (doublet is not None) == bool(taken)
                assert doublet is None or 0 <= doublet <= 3

    @pytest.mark.parametrize("length", range(14))
    def test_step_log_and_register_image_project_one_run(self, length):
        for trace in itertools.product((0, 1), repeat=length):
            run = [event for bit in trace for event in phr.NODE_EVENTS[bit]]
            run += phr.EXIT_EVENTS
            log = StepLayout.events_for_trace(trace)
            assert log == [(conditional, taken) for conditional, taken, _ in run]
            start = 0
            for bit in trace:
                end = start + len(phr.NODE_EVENTS[bit])
                assert sum(conditional for conditional, _ in log[start:end]) == 1
                start = end
            assert not any(conditional for conditional, _ in log[start:])
            pushed = bytes(doublet for _, taken, doublet in reversed(run) if taken)
            assert pushed[:PHR_CAPACITY].ljust(PHR_CAPACITY, b"\0") == register_image(trace)
            assert decode_step_counters(log) == trace
