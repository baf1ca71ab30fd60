"""The span engine against the per-slot reference, and what byte-identity rests on.

`reference_trace` steps a pair's `make_pair` nodes one slot at a time with
`SlotObservation`s, the way the benchmark tracer replays a pair; the span
engine (`PairSimulation.run`) must produce the same trace from the same
seeds, for every protocol, channel plan, drift sign and PU setting, and for
horizons that end anywhere in a search or probe frame.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolemhop.protocol import (
    BroadcastSender,
    CssReceiver,
    RandomHopper,
    ReceiverPhase,
    SassReceiver,
    SlotObservation,
)
from skolemhop.simenv import PairSimulation, SimConfig
from skolemhop.skolem import ess_for_channel_count


def reference_trace(config, pair_index):
    """(trace fields, receiver) of one pair simulated slot by slot."""
    sim = PairSimulation(config, pair_index)
    sender, receiver = sim.sender, sim.receiver
    alias = sim.plan.alias
    busy = sim.pu.rows.tolist()
    tx_base, rx_base = max(sim.drift, 0), max(-sim.drift, 0)
    for t in range(rx_base):
        receiver.observe(SlotObservation(False, receiver.next_channel(t)))
    tx_rec, rx_rec, pu_rec, del_rec = [], [], [], []
    for s in range(config.horizon):
        tx = sender.next_channel(tx_base + s)
        rx = receiver.next_channel(rx_base + s)
        tx_busy, rx_busy = busy[s][alias[tx]], busy[s][alias[rx]]
        delivered = alias[tx] == alias[rx] and not tx_busy
        sender.observe(SlotObservation(delivered, tx))
        receiver.observe(SlotObservation(delivered, rx))
        tx_rec.append(tx)
        rx_rec.append(rx)
        pu_rec.append(tx_busy or rx_busy)
        del_rec.append(delivered)
    committed = receiver.committed_offset
    missync = None
    if config.protocol == "sass" and committed is not None:
        missync = (committed - sim.drift) % sim.period != 0
    first = del_rec.index(True) if True in del_rec else None
    fields = (tx_rec, rx_rec, pu_rec, del_rec, first, committed, missync)
    return fields, receiver


def engine_trace(config, pair_index):
    sim = PairSimulation(config, pair_index)
    t = sim.run()
    arrays = (t.sender_channel, t.receiver_channel, t.pu_blocked, t.delivered)
    fields = tuple(a.tolist() for a in arrays)
    return fields + (t.first_delivery, t.committed_offset, t.missync), sim.receiver


def receiver_state(receiver):
    if not isinstance(receiver, SassReceiver):
        return None
    return (receiver.phase, receiver.case, receiver.first_delivery, receiver.sb)


def assert_engine_matches_reference(config, pair_index=0):
    got, got_rx = engine_trace(config, pair_index)
    want, want_rx = reference_trace(config, pair_index)
    names = ("sender_channel", "receiver_channel", "pu_blocked", "delivered",
             "first_delivery", "committed_offset", "missync")
    for name, a, b in zip(names, got, want):
        assert a == b, name
    assert receiver_state(got_rx) == receiver_state(want_rx)


configs = st.builds(
    SimConfig,
    n_channels=st.integers(4, 15),
    protocol=st.sampled_from(["sass", "rch", "css"]),
    plan_mode=st.sampled_from(["padding", "downsizing"]),
    pu_channels=st.integers(0, 4),
    busy_len=st.integers(1, 40),
    idle_mean=st.floats(0.5, 12.0),
    drift=st.one_of(st.none(), st.integers(0, 200), st.integers(-120, -1)),
    horizon=st.integers(1, 400),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=300, deadline=None)
@given(config=configs, pair_index=st.integers(0, 3))
def test_engine_matches_per_slot_reference(config, pair_index):
    assert_engine_matches_reference(config, pair_index)


@pytest.mark.parametrize("drift", [0, 1, 3, 4, 6, -3, -13])
@pytest.mark.parametrize("pu_channels", [0, 2])
def test_every_end_slot_of_search_and_probe_frames(drift, pu_channels):
    # N' = 4: the first delivery lands within a few 8-slot frames, so the
    # horizons below end at every slot of the search and probe frames.
    for horizon in range(1, 65):
        config = SimConfig(n_channels=4, protocol="sass", pu_channels=pu_channels,
                           busy_len=5, idle_mean=3.0, drift=drift, horizon=horizon,
                           seed=11)
        assert_engine_matches_reference(config)


class TestSpans:
    def test_sass_span_ends_at_frame_until_synced(self):
        ess = ess_for_channel_count(4)
        rx = SassReceiver(ess)
        assert rx.span(0) == 8
        rx.observe_block(0, np.zeros(3, dtype=bool))
        assert rx.span(3) == 5
        with pytest.raises(ValueError):
            rx.channels(3, 6)  # crosses the frame boundary
        with pytest.raises(ValueError):
            rx.channels(2, 1)  # not the next slot
        rx.observe_block(3, np.ones(5, dtype=bool))
        assert rx.phase is ReceiverPhase.SYNCED
        assert rx.span(8) is None
        assert rx.channels(8, 50).tolist() == [ess.values[t % 8] for t in range(50)]

    @given(local_slot=st.integers(0, 10_000), count=st.integers(0, 100),
           protocol=st.sampled_from(["sender", "css"]))
    def test_fixed_channels_match_next_channel(self, local_slot, count, protocol):
        ess = ess_for_channel_count(9)
        node = (BroadcastSender if protocol == "sender" else CssReceiver)(ess)
        want = [node.next_channel(local_slot + t) for t in range(count)]
        assert node.channels(local_slot, count).tolist() == want


class TestByteIdentityPins:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20260801, 2**63 + 5])
    def test_direct_streams_equal_spawned_children(self, seed):
        # A pair builds stream k as spawn_key=(j, k) instead of spawning four
        # children of spawn_key=(j,); the digests rest on the two agreeing.
        for j in (0, 1, 2, 99, 999, 123_456):
            children = np.random.SeedSequence(seed, spawn_key=(j,)).spawn(4)
            for k, child in enumerate(children):
                direct = np.random.SeedSequence(seed, spawn_key=(j, k))
                assert direct.generate_state(8).tolist() == child.generate_state(8).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 7, 20260801])
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 12, 13, 64])
    def test_rch_draws_do_not_depend_on_batching(self, seed, n):
        gen = lambda: np.random.Generator(np.random.PCG64(seed))
        one = RandomHopper(n, gen()).channels(0, 3000).tolist()
        scalar = RandomHopper(n, gen())
        assert [scalar.next_channel(t) for t in range(3000)] == one
        split = RandomHopper(n, gen())
        blocks, start = [], 0
        for count in (1, 24, 1024, 7, 1944):
            blocks.extend(split.channels(start, count).tolist())
            start += count
        assert blocks == one

    @pytest.mark.parametrize("per_slot", [False, True])
    def test_sass_frame_counts_stop_at_commit(self, per_slot):
        last_frame = {1: 0, 2: 1, 3: 2}  # frames after f0 that the dispatch reads
        for drift in range(8):
            config = SimConfig(n_channels=4, protocol="sass", drift=drift,
                               horizon=20_000, seed=5)
            simulate = reference_trace if per_slot else engine_trace
            _, rx = simulate(config, 0)
            assert rx.phase is ReceiverPhase.SYNCED
            assert max(rx.sb) <= rx.first_delivery[0] + last_frame[rx.case]
