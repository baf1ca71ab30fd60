"""The table engine against the per-slot reference, and what byte-identity rests on.

`reference_trace` steps a pair's `make_pair` nodes one slot at a time with
`SlotObservation`s, the way the benchmark tracer replays a pair; the table
engine (`PairSimulation.run`) must produce the same trace from the same
seeds, for every protocol, channel plan, drift sign and PU setting, and for
horizons that end anywhere in a search or probe frame.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolemhop import simenv
from skolemhop.protocol import (
    PROTOCOLS,
    BroadcastSender,
    CssReceiver,
    RandomHopper,
    SassReceiver,
    SlotObservation,
)
from skolemhop.simenv import PairSimulation, SimConfig, sequence_tables
from skolemhop.skolem import ess_for_channel_count, make_channel_plan


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
    return (receiver.committed_offset, receiver.case, receiver.first_delivery, receiver.sb)


def assert_engine_matches_reference(config, pair_index=0):
    got, got_rx = engine_trace(config, pair_index)
    want, want_rx = reference_trace(config, pair_index)
    names = ("sender_channel", "receiver_channel", "pu_blocked", "delivered",
             "first_delivery", "committed_offset", "missync")
    for name, a, b in zip(names, got, want):
        assert a == b, name
    assert receiver_state(got_rx) == receiver_state(want_rx)


@st.composite
def configs(draw):
    n_channels = draw(st.integers(4, 15))
    plan_mode = draw(st.sampled_from(["padding", "downsizing"]))
    period = 2 * make_channel_plan(n_channels, plan_mode).effective_count
    # The reference idles through a negative drift slot by slot, so those
    # stay within a few P^2; horizons past P^2 (where the CSS schedule
    # repeats) only for N' <= 13, for the same reason.
    drift = draw(st.one_of(
        st.none(), st.integers(0, 200), st.integers(0, 10**6),
        st.integers(-120, -1), st.integers(-3 * period**2, -period**2),
    ))
    horizons = st.integers(1, 400)
    if period <= 26:
        horizons |= st.integers(period**2, period**2 + 2 * period)
    return SimConfig(
        n_channels=n_channels,
        protocol=draw(st.sampled_from(["sass", "rch", "css"])),
        plan_mode=plan_mode,
        pu_channels=draw(st.integers(0, 4)),
        busy_len=draw(st.integers(1, 40)),
        idle_mean=draw(st.floats(0.5, 12.0)),
        drift=drift,
        horizon=draw(horizons),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=300, deadline=None)
@given(config=configs(), pair_index=st.integers(0, 3))
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


class TestTableViews:
    def test_sass_frames_end_at_frame_until_synced(self):
        ess = ess_for_channel_count(4)
        rx = SassReceiver(ess)
        assert rx.frame() == (0, 8)
        rx.step(3)
        assert rx.frame() == (3, 5)
        with pytest.raises(ValueError):
            rx.step(6, [5])  # crosses the frame boundary with a delivery
        with pytest.raises(ValueError):
            rx.next_channel(2)  # not the next slot
        rx.step(5, range(5))
        assert rx.case == 1 and rx.committed_offset == 0
        index, left = rx.frame()
        assert left is None
        base = sequence_tables(make_channel_plan(4), 50)["base"]
        assert base[index:index + 50].tolist() == [ess.values[t % 8] for t in range(50)]

    @given(local_slot=st.integers(0, 10**6), count=st.integers(0, 100),
           protocol=st.sampled_from(["sender", "css"]))
    def test_fixed_views_match_next_channel(self, local_slot, count, protocol):
        plan = make_channel_plan(9)
        tables = sequence_tables(plan, 100)
        ess = ess_for_channel_count(9)
        node = (BroadcastSender if protocol == "sender" else CssReceiver)(ess)
        want = [node.next_channel(local_slot + t) for t in range(count)]
        period = ess.period
        if protocol == "sender":
            start, table = local_slot % period, tables["base"]
        else:
            start, table = local_slot % period**2, tables["css"]
        assert table[start:start + count].tolist() == want
        phys = tables["phys_base" if protocol == "sender" else "phys_css"]
        assert phys[start:start + count].tolist() == [plan.alias[c] for c in want]

    def test_tables_are_read_only(self):
        for mode in ("padding", "downsizing"):
            for table in sequence_tables(make_channel_plan(10, mode), 300).values():
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_trace_shares_no_writeable_memory_with_tables(self, protocol):
        for drift in (None, -37, 5000):
            config = SimConfig(n_channels=10, protocol=protocol, pu_channels=3, busy_len=20,
                               idle_mean=5.0, drift=drift, horizon=300, seed=4)
            tables = sequence_tables(config.plan, config.horizon).values()
            trace = PairSimulation(config, 1).run()
            for a in (trace.sender_channel, trace.receiver_channel, trace.pu_blocked,
                      trace.delivered):
                assert not any(a.flags.writeable and np.shares_memory(a, t) for t in tables)


class TestNegativeDrift:
    """A receiver ahead of the sender idles through |d| slots before the trace:
    one `step`, whatever the drift."""

    def test_idle_steps_cross_frames_until_a_delivery(self):
        rx = SassReceiver(ess_for_channel_count(4))
        rx.step(8 * 10**6 + 3)
        assert rx.frame() == ((3 + 10**6) % 8, 5)
        rx.step(5, [4])
        assert rx.case == 3 and rx.committed_offset is None
        with pytest.raises(ValueError):
            rx.step(9)  # a delivery has been seen: frames go one at a time

    def test_pair_steps_once_per_frame(self):
        config = SimConfig(n_channels=12, protocol="sass", pu_channels=6, busy_len=400,
                           idle_mean=400.0, drift=-10**6, horizon=1000, seed=3)
        for pair_index in range(20):
            sim = PairSimulation(config, pair_index)
            calls, step = [], sim.receiver.step
            sim.receiver.step = lambda *args: (calls.append(args), step(*args))
            sim.run()
            assert len(calls) <= -(-config.horizon // sim.period) + 4

    @pytest.mark.parametrize("protocol", ["sass", "css"])
    @pytest.mark.parametrize("n_channels", [4, 10, 12, 13])
    def test_drift_matters_modulo_p_squared(self, protocol, n_channels):
        period = 2 * make_channel_plan(n_channels).effective_count
        far = SimConfig(n_channels=n_channels, protocol=protocol, pu_channels=2, busy_len=30,
                        idle_mean=20.0, drift=-10**9, horizon=600, seed=8)
        near = dataclasses.replace(far, drift=-(10**9 % period**2) - period**2)
        for pair_index in range(4):
            assert engine_trace(far, pair_index)[0] == engine_trace(near, pair_index)[0]

    def test_rch_preroll_blocks_keep_the_draws(self, monkeypatch):
        # Three whole blocks and a part: the receiver's channels are still the
        # tail of one array of |d| + horizon draws, and no trace field moves.
        pre = 3 * simenv.PREROLL_BLOCK + 7
        config = SimConfig(n_channels=10, protocol="rch", pu_channels=3, busy_len=30,
                           idle_mean=20.0, drift=-pre, horizon=300, seed=4)
        blocked = [engine_trace(config, j)[0] for j in range(3)]
        for j, fields in enumerate(blocked):
            one_array = PairSimulation(config, j).receiver.channels(0, pre + config.horizon)
            assert fields[1] == one_array[pre:].tolist()
        monkeypatch.setattr(simenv, "PREROLL_BLOCK", pre + 1)
        assert [engine_trace(config, j)[0] for j in range(3)] == blocked

    def test_rch_preroll_memory_is_bounded(self):
        config = SimConfig(n_channels=12, protocol="rch", pu_channels=2, busy_len=400,
                           idle_mean=400.0, drift=-10**7, horizon=1000, seed=6)
        sim = PairSimulation(config, 0)
        sequence_tables(sim.plan, config.horizon)
        tracemalloc.start()
        try:
            sim.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # one array of the pre-roll would take 80 MB


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
            assert rx.committed_offset is not None
            assert max(rx.sb) <= rx.first_delivery[0] + last_frame[rx.case]
