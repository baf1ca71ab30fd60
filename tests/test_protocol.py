"""Protocol state machines: search, the three calibration cases, baselines."""

import copy

import numpy as np
import pytest

from skolemhop.hopping import delivery_channels, shift
from skolemhop.protocol import (
    BroadcastSender,
    CssReceiver,
    RandomHopper,
    ReceiverPhase,
    SassReceiver,
    SlotObservation,
    make_pair,
)
from skolemhop.simenv import sequence_tables
from skolemhop.skolem import EssSequence, ess_for_channel_count, make_channel_plan

MU = EssSequence(order=3, values=(0, 0, 3, 1, 2, 1, 3, 2))


def feed(receiver, slot, delivered):
    """One slot of the per-slot interface; returns the tuned channel."""
    channel = receiver.next_channel(slot)
    receiver.observe(SlotObservation(delivered, channel))
    return channel


def frame_channels(receiver):
    """The rest of the receiver's frame, as the slice `frame()` names of the
    base sequence tiled twice."""
    index, left = receiver.frame()
    return (receiver.ess.values * 2)[index:index + left]


def drive_frames(receiver, start_slot, delivered_slots_by_frame):
    """Feed whole frames; delivered_slots_by_frame maps frame -> in-frame slots."""
    slot = start_slot
    period = receiver.ess.period
    for frame, hits in delivered_slots_by_frame.items():
        for t in range(period):
            assert slot == frame * period + t
            feed(receiver, slot, t in hits)
            slot += 1
    return slot


class TestSender:
    def test_first_period(self):
        tx = BroadcastSender(MU)
        assert [tx.next_channel(t) for t in range(8)] == [0, 0, 3, 1, 2, 1, 3, 2]

    def test_wraps(self):
        tx = BroadcastSender(MU)
        assert tx.next_channel(8) == 0
        assert tx.next_channel(4 * 4 * 3) == MU.values[0]

    def test_independent_slot_walker(self):
        tx = BroadcastSender(MU)
        walker = 0
        for t in range(100):
            assert tx.next_channel(t) == MU.values[walker]
            walker = (walker + 1) % 8


class TestSearching:
    def test_frame0_plays_base(self):
        rx = SassReceiver(MU)
        channels = [feed(rx, t, False) for t in range(8)]
        assert channels == list(MU.values)

    def test_frame1_plays_shift1(self):
        rx = SassReceiver(MU)
        for t in range(8):
            feed(rx, t, False)
        channels = [feed(rx, 8 + t, False) for t in range(8)]
        assert channels == list(shift(MU, 1))

    def test_lockstep_enforced(self):
        rx = SassReceiver(MU)
        rx.next_channel(0)
        with pytest.raises(ValueError):
            rx.next_channel(1)

    def test_observe_requires_next_channel(self):
        rx = SassReceiver(MU)
        with pytest.raises(ValueError):
            rx.observe(SlotObservation(False, 0))

    def test_delivery_on_wrong_channel_rejected(self):
        rx = SassReceiver(MU)
        channel = rx.next_channel(0)
        with pytest.raises(ValueError):
            rx.observe(SlotObservation(True, channel + 1))


class TestCaseOne:
    def test_blocked_zero_and_three(self):
        # Aligned clocks, channels 0 and 3 unavailable: first delivery on
        # channel 1 in the 4th slot, the 6th slot delivers too, so the
        # receiver keeps its current offset.
        rx = SassReceiver(MU)
        blocked = {0, 3}
        for t in range(8):
            ch = rx.next_channel(t)
            delivered = MU.values[t] == ch and ch not in blocked
            rx.observe(SlotObservation(delivered, ch))
        assert rx.case == 1
        assert rx.phase is ReceiverPhase.SYNCED
        assert rx.committed_offset == 0
        assert rx.first_delivery == (0, 3, 1)
        assert rx.sb[0] == 4
        assert [rx.next_channel(8 + t) for t in [0]] == [MU.values[0]]


class TestCaseTwo:
    def test_paper_walkthrough(self):
        # First delivery lands on channel 3 (= N'-1) in a frame playing
        # shift(mu, 4); the probe frame must play the base sequence and win
        # the delivery count 4 to 2, committing to the half-period shift.
        rx = SassReceiver(MU)
        slot = drive_frames(rx, 0, {f: set() for f in range(4)})
        assert frame_channels(rx) == (2, 1, 3, 2, 0, 0, 3, 1)
        slot = drive_frames(rx, slot, {4: {2, 6}})
        assert rx.case == 2
        assert rx.phase is ReceiverPhase.PROBING_CASE2
        assert rx.first_delivery == (4, 2, 3)
        assert frame_channels(rx) == MU.values
        slot = drive_frames(rx, slot, {5: {0, 1, 2, 6}})
        assert rx.sb[4] == 2 and rx.sb[5] == 4
        assert rx.phase is ReceiverPhase.SYNCED
        assert rx.committed_offset == 0
        assert [rx.next_channel(slot + t) for t in range(0)] == []

    def test_tie_keeps_first_candidate(self):
        # Equal counts commit the frame the delivery was seen in.
        rx = SassReceiver(MU)
        slot = drive_frames(rx, 0, {0: set()})
        slot = drive_frames(rx, slot, {1: {1, 5}})  # shift(mu,1) has 3 at 1 and 5
        assert rx.case == 2
        slot = drive_frames(rx, slot, {2: {0, 5}})  # tie: 2 deliveries each
        assert rx.committed_offset == 1


class TestCaseThree:
    def test_paper_walkthrough(self):
        # Channels 2 and 3 unavailable, first delivery on channel 1 in the
        # 6th slot of a frame playing shift(mu, 6); no delivery at the other
        # channel-1 slot, so both one-sided probes run and the first wins 4-0.
        rx = SassReceiver(MU)
        slot = drive_frames(rx, 0, {f: set() for f in range(6)})
        assert frame_channels(rx) == (3, 2, 0, 0, 3, 1, 2, 1)
        slot = drive_frames(rx, slot, {6: {5}})
        assert rx.case == 3
        assert rx.phase is ReceiverPhase.PROBING_CASE3_A
        assert rx.first_delivery == (6, 5, 1)
        assert frame_channels(rx) == MU.values  # shift(u_j, alpha+1)
        slot = drive_frames(rx, slot, {7: {0, 1, 3, 5}})
        assert rx.phase is ReceiverPhase.PROBING_CASE3_B
        assert frame_channels(rx) == (2, 1, 3, 2, 0, 0, 3, 1)  # shift(u_j, -(alpha+1))
        slot = drive_frames(rx, slot, {8: set()})
        assert rx.sb[7] == 4 and rx.sb.get(8, 0) == 0
        assert rx.phase is ReceiverPhase.SYNCED
        assert rx.committed_offset == 0

    def test_other_direction_commits_negative(self):
        # Make the second probe the winner: drift puts the sender alpha+1
        # slots the other way.
        rx = SassReceiver(MU)
        sender_seq = shift(MU, 6)  # relative drift -2 against frame 0
        ch1 = [t for t in range(8) if MU.values[t] == 1]
        slot = 0
        for t in range(8):
            ch = rx.next_channel(t)
            delivered = ch == sender_seq[t]
            rx.observe(SlotObservation(delivered, ch))
            slot += 1
        assert rx.case == 3 and rx.first_delivery is not None
        for frame in (1, 2):
            probe = frame_channels(rx)
            played = []
            for t in range(8):
                ch = rx.next_channel(slot)
                rx.observe(SlotObservation(ch == sender_seq[t], ch))
                played.append(ch)
                slot += 1
            assert tuple(played) == probe
        assert rx.phase is ReceiverPhase.SYNCED
        assert rx.committed_offset == 6
        assert shift(MU, rx.committed_offset) == sender_seq
        # PU-free discrimination: the matching candidate frame delivers on
        # every slot, the mismatched one on at most two.
        assert rx.sb[2] == 8
        assert rx.sb[1] <= 2


class TestFirstDeliveryOnLaterTwin:
    def test_second_occurrence_first_is_case3_evidence(self):
        # The earlier channel-alpha slot passed without delivery, so the
        # dispatch must treat it as the failed tau2 check.
        rx = SassReceiver(MU)
        # frame 0 plays mu; channel 2 sits at slots 4 and 7; deliver at 7 only
        drive_frames(rx, 0, {0: {7}})
        assert rx.first_delivery == (0, 7, 2)
        assert rx.case == 3


class TestCasePartition:
    def test_exactly_one_case_every_drift_and_mask(self):
        # Exhaustive N'=4 sweep over drifts and static availability masks.
        for drift in range(8):
            sender_seq = shift(MU, drift)
            for mask in range(16):
                blocked = {c for c in range(4) if mask & (1 << c)}
                rx = SassReceiver(MU)
                slot = 0
                for frame in range(12):
                    for t in range(8):
                        ch = rx.next_channel(slot)
                        hit = ch == sender_seq[slot % 8] and ch not in blocked
                        rx.observe(SlotObservation(hit, ch))
                        slot += 1
                    if rx.first_delivery is not None:
                        break
                if rx.first_delivery is None:
                    assert blocked == {0, 1, 2, 3} or (
                        drift != 0
                        and next(iter(delivery_channels(sender_seq, MU.values) - blocked), None)
                        is None
                    )
                    continue
                assert rx.case in (1, 2, 3)


class TestCss:
    def test_matches_searching_rule(self):
        css = CssReceiver(MU)
        sass = SassReceiver(MU)
        for t in range(48):
            channel = sass.next_channel(t)
            assert css.next_channel(t) == channel
            sass.observe(SlotObservation(False, channel))
            css.observe(SlotObservation(False, channel))

    def test_never_commits(self):
        css = CssReceiver(MU)
        for t in range(8 * 10_000):
            css.next_channel(t)
            css.observe(SlotObservation(True, 0))
        assert css.committed_offset is None

    def test_zero_drift_recurrence(self):
        # Against an aligned sender the full-match frame recurs with period
        # 2N' frames; count deliveries over one full cycle.
        css = CssReceiver(MU)
        hits_per_frame = []
        slot = 0
        for frame in range(8):
            hits = 0
            for t in range(8):
                ch = css.next_channel(slot)
                hits += ch == MU.values[slot % 8]
                slot += 1
            hits_per_frame.append(hits)
        assert hits_per_frame[0] == 8
        assert all(h in (1, 2) for h in hits_per_frame[1:])


class TestRch:
    def test_reproducible_under_seed(self):
        a = RandomHopper(4, np.random.Generator(np.random.PCG64(9)))
        b = RandomHopper(4, np.random.Generator(np.random.PCG64(9)))
        assert [a.next_channel(t) for t in range(100)] == [
            b.next_channel(t) for t in range(100)
        ]

    def test_single_channel(self):
        hopper = RandomHopper(1, np.random.Generator(np.random.PCG64(0)))
        assert {hopper.next_channel(t) for t in range(50)} == {0}

    def test_pairwise_coincidence_rate(self):
        n = 4
        slots = 100_000
        a = RandomHopper(n, np.random.Generator(np.random.PCG64(1)))
        b = RandomHopper(n, np.random.Generator(np.random.PCG64(2)))
        hits = sum(a.next_channel(t) == b.next_channel(t) for t in range(slots))
        p = 1 / n
        sigma = (slots * p * (1 - p)) ** 0.5
        assert abs(hits - slots * p) < 3 * sigma


class TestMakePair:
    def test_protocols(self):
        rng = lambda s: np.random.Generator(np.random.PCG64(s))
        tx, rx = make_pair("sass", MU)
        assert isinstance(tx, BroadcastSender) and isinstance(rx, SassReceiver)
        tx, rx = make_pair("css", MU)
        assert isinstance(rx, CssReceiver)
        tx, rx = make_pair("rch", MU, tx_rng=rng(1), rx_rng=rng(2))
        assert isinstance(tx, RandomHopper) and isinstance(rx, RandomHopper)
        with pytest.raises(ValueError):
            make_pair("ach", MU)
        with pytest.raises(ValueError):
            make_pair("rch", MU)


def synced_sass(ess, drift):
    """A SassReceiver locked onto a PU-free sender `drift` slots ahead."""
    sender, rx = BroadcastSender(ess), SassReceiver(ess)
    slot = 0
    while rx.phase is not ReceiverPhase.SYNCED:
        channel = rx.next_channel(slot)
        rx.observe(SlotObservation(channel == sender.next_channel(slot + drift), channel))
        slot += 1
    return rx, slot


class TestBlockLookups:
    """A node's block of k channels from local slot s is one slice of the
    cached tables, far from the origin and across frame boundaries; the SASS
    receiver's is one per frame until it commits, then one slice."""

    @pytest.mark.parametrize("physical", [3, 10, 13])  # padded to N' = 4, 12, 13
    @pytest.mark.parametrize("start", ["0", "P-1", 100_007, 1_000_000])
    @pytest.mark.parametrize("kind", ["sender", "css", "sass", "searching"])
    def test_channels_match_next_channel(self, physical, start, kind):
        plan = make_channel_plan(physical, "padding")
        ess = ess_for_channel_count(plan.effective_count)
        period = ess.period
        s = {"0": 0, "P-1": period - 1}.get(start, start)
        counts = (1, period - 1, period, period + 1, 3 * period + 5)
        tables = sequence_tables(plan, max(counts))
        if kind in ("sender", "css"):
            node = (BroadcastSender if kind == "sender" else CssReceiver)(ess)
            table, at = (tables["base"], s % period) if kind == "sender" else (
                tables["css"], s % period**2)
            for k in counts:
                want = [node.next_channel(t) for t in range(s, s + k)]
                assert table[at:at + k].tolist() == want
            return
        if kind == "searching":
            rx = SassReceiver(ess)
            for frame_start in range(0, s, period):  # idle to slot s, as a pre-roll does
                rx.step(min(period, s - frame_start))
            for k in counts:
                walker, views, left_over = copy.deepcopy(rx), [], k
                while left_over:
                    index, left = walker.frame()
                    n = min(left, left_over)
                    views.extend(tables["base"][index:index + n].tolist())
                    walker.step(n)
                    left_over -= n
                walker = copy.deepcopy(rx)
                want = [feed(walker, t, False) for t in range(s, s + k)]
                assert views == want
            return
        for drift in range(period):
            rx, synced_at = synced_sass(ess, drift)
            at = s if s >= synced_at else synced_at + s
            rx.step(at - synced_at)
            index, left = rx.frame()
            assert left is None
            for k in counts:
                walker = copy.deepcopy(rx)
                want = [feed(walker, t, False) for t in range(at, at + k)]
                assert tables["base"][index:index + k].tolist() == want
