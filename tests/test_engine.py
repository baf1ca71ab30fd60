"""The table engine against the per-slot reference, and what byte-identity rests on.

`reference_trace` steps fresh `make_pair` nodes one slot at a time with
`SlotObservation`s, the way the benchmark tracer replays a pair; the table
engine (`PairSimulation.run`), which builds no protocol node, must produce
the same trace from the same seeds, for every protocol,
channel plan, drift sign and PU setting, and for horizons that end anywhere
in a search or probe frame.  This is the one check of the engine: every
hypothesis example also checks the delivery and PU adjudication (through the
reference), the sender and CSS closed forms and a from-scratch SASS rebuild.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skolemhop import cli, simenv
from skolemhop import protocol as protocol_module
from skolemhop.protocol import (
    PROTOCOLS,
    BroadcastSender,
    CssReceiver,
    RandomHopper,
    SassReceiver,
    SlotObservation,
    make_pair,
)
from skolemhop.simenv import PairSimulation, SimConfig, pair_stream, sequence_tables
from skolemhop.skolem import ess_for_channel_count, make_channel_plan


def reference_trace(config, pair_index):
    """(trace fields, receiver) of one pair simulated slot by slot."""
    sim = PairSimulation(config, pair_index)  # for its drift and PU rows
    rngs = [pair_stream(config.seed, pair_index, k) for k in (2, 3)]  # rch's tx and rx
    sender, receiver = make_pair(config.protocol, sim.ess, *rngs)
    alias = config.plan.alias
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
        missync = (committed - sim.drift) % sim.ess.period != 0
    first = del_rec.index(True) if True in del_rec else None
    fields = (tx_rec, rx_rec, pu_rec, del_rec, first, committed, missync)
    return fields, receiver


def engine_trace(config, pair_index):
    t = PairSimulation(config, pair_index).run()
    arrays = (t.sender_channel, t.receiver_channel, t.pu_blocked, t.delivered)
    fields = tuple(a.tolist() for a in arrays)
    return fields + (t.first_delivery, t.committed_offset, t.missync)


def assert_engine_matches_reference(config, pair_index=0):
    """The engine's trace fields, once they equal the per-slot reference's."""
    got = engine_trace(config, pair_index)
    want, _ = reference_trace(config, pair_index)
    names = ("sender_channel", "receiver_channel", "pu_blocked", "delivered",
             "first_delivery", "committed_offset", "missync")
    for name, a, b in zip(names, got, want):
        assert a == b, name
    return got


def reconstruct_receiver_channels(local_delivered, ess):
    """Recompute the adaptive receiver's channel per local slot, from scratch.

    Uses only the frame rules and the delivered history -- an independent
    re-statement of the receiver behavior with no incremental state.
    """
    period = ess.period
    n_eff = ess.n_effective
    mu = ess.values
    total = len(local_delivered)
    hits = [t for t, d in enumerate(local_delivered) if d]
    offsets = {}

    def offset_for(frame):
        return offsets.get(frame, frame)  # searching default

    if hits and hits[0] // period < (total - 1) // period:  # frames after f0 to rebuild
        first = hits[0]
        f0 = first // period
        alpha = mu[(first + f0) % period]
        frame_seq = [mu[(t + f0) % period] for t in range(period)]
        twins = [t for t in range(period) if frame_seq[t] == alpha]
        tau2 = [t for t in twins if t != first % period][0]
        sb = {}
        for t, d in enumerate(local_delivered):
            if d:
                sb[t // period] = sb.get(t // period, 0) + 1
        last_frame = (total - 1) // period
        if alpha == n_eff - 1:
            chosen = f0 if sb.get(f0, 0) >= sb.get(f0 + 1, 0) else f0 + n_eff
            for f in range(f0 + 1, last_frame + 1):
                offsets[f] = (f0 + n_eff) if f == f0 + 1 else chosen
        elif local_delivered[f0 * period + tau2]:
            for f in range(f0 + 1, last_frame + 1):
                offsets[f] = f0
        else:
            chosen = (
                f0 + alpha + 1
                if sb.get(f0 + 1, 0) >= sb.get(f0 + 2, 0)
                else f0 - (alpha + 1)
            )
            for f in range(f0 + 1, last_frame + 1):
                if f == f0 + 1:
                    offsets[f] = f0 + alpha + 1
                elif f == f0 + 2:
                    offsets[f] = f0 - (alpha + 1)
                else:
                    offsets[f] = chosen
    return [mu[(t + offset_for(t // period)) % period] for t in range(total)]


@st.composite
def configs(draw, protocols=PROTOCOLS):
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
        protocol=draw(st.sampled_from(protocols)),
        plan_mode=plan_mode,
        pu_channels=draw(st.integers(0, n_channels)),
        busy_len=draw(st.integers(1, 40)),
        idle_mean=draw(st.floats(0.5, 12.0)),
        drift=drift,
        horizon=draw(horizons),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=300, deadline=None)
@given(config=configs(), pair_index=st.integers(0, 3))
def test_engine_matches_per_slot_reference(config, pair_index):
    tx, rx, _, delivered, *_ = assert_engine_matches_reference(config, pair_index)
    # The schedules, checked apart from any node: the sender and the CSS
    # receiver by their closed forms, SASS by a from-scratch rebuild of its
    # frame rules from the delivered history (pre-roll slots deliver nothing).
    sim = PairSimulation(config, pair_index)
    mu, period = sim.ess.values, sim.ess.period
    tx_base, rx_base = max(sim.drift, 0), max(-sim.drift, 0)
    if config.protocol != "rch":
        assert tx == [mu[(tx_base + s) % period] for s in range(config.horizon)]
    if config.protocol == "css":
        assert rx == [mu[(t + t // period) % period]
                      for t in range(rx_base, rx_base + config.horizon)]
    elif config.protocol == "sass":
        rebuilt = reconstruct_receiver_channels([False] * rx_base + delivered, sim.ess)
        assert rx == rebuilt[rx_base:]


# Exact, padded and downsized plans, PU off and on, both drift signs.
@example(SimConfig(n_channels=12, protocol="sass", drift=97, horizon=400, seed=1), 0)
@example(SimConfig(n_channels=10, protocol="sass", pu_channels=3, busy_len=30, idle_mean=5.0,
                   drift=-37, horizon=400, seed=2), 1)
@example(SimConfig(n_channels=11, protocol="sass", plan_mode="downsizing", pu_channels=2,
                   busy_len=20, idle_mean=8.0, drift=5000, horizon=400, seed=3), 2)
@example(SimConfig(n_channels=13, protocol="sass", drift=-700, horizon=700, seed=4), 3)
@settings(max_examples=200, deadline=None)
@given(config=configs(protocols=["sass"]), pair_index=st.integers(0, 3))
def test_sass_plays_css_until_its_first_frame_ends(config, pair_index):
    # The premise of the engine's closed form, slot by slot: searching plays
    # shift(mu, n) in frame n, so the per-slot receiver's channels are CSS's
    # through the end of its first-delivery frame f0 (the whole run if none).
    (_, rx_rec, *_), rx = reference_trace(config, pair_index)
    pre = max(-PairSimulation(config, pair_index).drift, 0)
    end = config.horizon
    if rx.first_delivery is not None:
        end = min(end, (rx.first_delivery[0] + 1) * rx.ess.period - pre)
    css = CssReceiver(rx.ess)
    assert rx_rec[:end] == [css.next_channel(pre + s) for s in range(end)]


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


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engine_builds_no_node(protocol, monkeypatch):
    # The per-slot nodes are the reference only: the engine neither builds
    # nor drives one, on a padded plan (10 -> 12) with PU and a negative drift.
    config = SimConfig(n_channels=10, protocol=protocol, pu_channels=3, busy_len=20,
                       idle_mean=5.0, drift=-37, horizon=300, seed=4)
    want, _ = reference_trace(config, 1)

    def no_node(*args, **kwargs):
        raise AssertionError("the engine built a protocol node")

    monkeypatch.setattr(protocol_module, "make_pair", no_node)
    for node in (BroadcastSender, SassReceiver, CssReceiver, RandomHopper, SlotObservation):
        monkeypatch.setattr(node, "__init__", no_node)
    assert engine_trace(config, 1) == want


VIEW_HORIZON = 100  # the tables' horizon, and the longest view the test takes


def far_start_examples(test):
    """The starts 0, P - 1, 100 007 and 10**6 at a count of 3P + 5, for the sender
    and for CSS (one slice checks every shorter count too); and each table's last
    start at the whole horizon, which reads up to the table's last slot but one."""
    for physical in (3, 10, 13):  # padded to N' = 4, 12, 13
        period = 2 * make_channel_plan(physical).effective_count
        starts = [(start, 3 * period + 5) for start in (0, period - 1, 100_007, 10**6)]
        for protocol, last in (("sender", period - 1), ("css", period**2 - 1)):
            for local_slot, count in starts + [(last, VIEW_HORIZON)]:
                test = example(physical=physical, local_slot=local_slot, count=count,
                               protocol=protocol)(test)
    return test


class TestTableViews:
    @far_start_examples
    @given(physical=st.sampled_from([3, 9, 10, 13]), local_slot=st.integers(0, 10**6),
           count=st.integers(0, VIEW_HORIZON), protocol=st.sampled_from(["sender", "css"]))
    def test_fixed_views_match_next_channel(self, physical, local_slot, count, protocol):
        plan = make_channel_plan(physical)
        tables = sequence_tables(plan, VIEW_HORIZON)
        ess = ess_for_channel_count(plan.effective_count)
        node = (BroadcastSender if protocol == "sender" else CssReceiver)(ess)
        want = [node.next_channel(local_slot + t) for t in range(count)]
        period = ess.period
        if protocol == "sender":
            start, table = local_slot % period, tables["base"]
        else:
            start, table = local_slot % period**2, tables["css"]
        assert table[start:start + count].tolist() == want
        phys = tables["alias"].take(table[start:start + count])
        assert phys.tolist() == [plan.alias[c] for c in want]

    def test_tables_hold_effective_channels_and_the_alias_map(self):
        plan = make_channel_plan(10)
        tables = sequence_tables(plan, 300)
        assert set(tables) == {"base", "css", "alias", "cells"}
        assert tables["alias"].tolist() == list(plan.alias)
        assert tables["base"].max() == tables["css"].max() == plan.effective_count - 1

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
    """A receiver ahead of the sender idles through |d| slots before the trace,
    and the trace depends on |d| only modulo P^2 (rch aside)."""

    @pytest.mark.parametrize("protocol", ["sass", "css"])
    @pytest.mark.parametrize("n_channels", [4, 10, 12, 13])
    def test_drift_matters_modulo_p_squared(self, protocol, n_channels):
        period = 2 * make_channel_plan(n_channels).effective_count
        far = SimConfig(n_channels=n_channels, protocol=protocol, pu_channels=2, busy_len=30,
                        idle_mean=20.0, drift=-10**9, horizon=600, seed=8)
        near = dataclasses.replace(far, drift=-(10**9 % period**2) - period**2)
        for pair_index in range(4):
            assert engine_trace(far, pair_index) == engine_trace(near, pair_index)

    def test_rch_preroll_blocks_keep_the_draws(self, monkeypatch):
        # Three whole blocks and a part: the receiver's channels are still the
        # tail of one array of |d| + horizon draws, and no trace field moves.
        pre = 3 * simenv.PREROLL_BLOCK + 7
        config = SimConfig(n_channels=10, protocol="rch", pu_channels=3, busy_len=30,
                           idle_mean=20.0, drift=-pre, horizon=300, seed=4)
        blocked = [engine_trace(config, j) for j in range(3)]
        for j, fields in enumerate(blocked):
            rx_rng = pair_stream(config.seed, j, 3)
            one_array = rx_rng.integers(0, config.plan.effective_count, size=pre + config.horizon)
            assert fields[1] == one_array[pre:].tolist()
        monkeypatch.setattr(simenv, "PREROLL_BLOCK", pre + 1)
        assert [engine_trace(config, j) for j in range(3)] == blocked

    def test_rch_preroll_memory_is_bounded(self):
        config = SimConfig(n_channels=12, protocol="rch", pu_channels=2, busy_len=400,
                           idle_mean=400.0, drift=-10**7, horizon=1000, seed=6)
        sim = PairSimulation(config, 0)
        sequence_tables(config.plan, config.horizon)
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
        # The engine draws rch's channels in blocks, the per-slot hopper one at a time.
        gen = lambda: np.random.Generator(np.random.PCG64(seed))
        one = gen().integers(0, n, size=3000).tolist()
        scalar = RandomHopper(n, gen())
        assert [scalar.next_channel(t) for t in range(3000)] == one
        split = gen()
        blocks = []
        for count in (1, 24, 1024, 7, 1944):
            blocks.extend(split.integers(0, n, size=count).tolist())
        assert blocks == one

    def test_sass_frame_counts_stop_at_commit(self):
        last_frame = {1: 0, 2: 1, 3: 2}  # frames after f0 that the dispatch reads
        for drift in range(8):
            config = SimConfig(n_channels=4, protocol="sass", drift=drift,
                               horizon=20_000, seed=5)
            _, rx = reference_trace(config, 0)
            assert rx.committed_offset is not None
            assert max(rx.sb) <= rx.first_delivery[0] + last_frame[rx.case]


class TestPresetMissyncs:
    """The `delivery-rate` preset's two mis-synced pairs (ROADMAP item 3): a
    first delivery on alpha = 0 with tau2 PU-blocked takes case 3, both probe
    frames deliver nothing, and the 0-0 tie commits the first vouching frame's
    offset, one off the drift residue (P = 24)."""

    @pytest.mark.parametrize("pu,pair_index,drift,f0,deliveries,committed", [
        ("25", 954, 97, 1, 19, 2),
        ("75", 568, 48, 0, 7, 1),
    ], ids=["sass-pu25-954", "sass-pu75-568"])
    def test_probe_tie_commits_first_candidate(self, pu, pair_index, drift, f0, deliveries,
                                               committed):
        config = next(config for _, config, label in cli._resolve_all(cli.preset("delivery-rate"))
                      if config.protocol == "sass" and label == pu)
        trace = PairSimulation(config, pair_index).run()
        assert (trace.drift, trace.committed_offset, trace.missync) == (drift, committed, True)
        assert drift % 24 == committed - 1
        _, rx = reference_trace(config, pair_index)
        assert (rx.first_delivery[0], rx.first_delivery[2]) == (f0, 0)
        assert rx.case == 3
        assert rx.sb == {f0: deliveries}  # the probe frames f0+1 and f0+2 deliver 0 times
        assert rx.committed_offset == committed
