"""Cyclic shift algebra and exhaustive drift-property checks.

The checkers in `skolemhop.hopping` read every shift pair off one rotation
table; the pair-by-pair versions below, built on `shift` and the coincidence
sets `delivery_channels` and `delivery_slots`, are kept as their oracle.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skolemhop.hopping import (
    ALL_CHANNELS,
    canonical_drift,
    check_channel_map,
    check_slot_counts,
    drift_channel_table,
)
from skolemhop.skolem import EssSequence, ess_for_channel_count

ESS4 = EssSequence(order=3, values=(0, 0, 3, 1, 2, 1, 3, 2))
ADMISSIBLE = [n for n in range(4, 65) if n % 4 in (0, 1)]


def shift(ess: EssSequence, offset: int) -> tuple[int, ...]:
    """Cyclic shift: result[t] = u[(t + offset) mod P]."""
    a = offset % ess.period
    return ess.values[a:] + ess.values[:a]


def delivery_channels(u, v) -> frozenset[int]:
    """Channels on which the two equal-length sequences ever coincide."""
    return frozenset(a for a, b in zip(u, v, strict=True) if a == b)


def delivery_slots(u, v) -> frozenset[int]:
    """Slot indices at which the two equal-length sequences coincide."""
    return frozenset(t for t, (a, b) in enumerate(zip(u, v, strict=True)) if a == b)


def predicted_delivery_channel(g: int) -> int | str:
    """Delivery channel for canonical drift g: ALL_CHANNELS at 0, else |g|-1."""
    return ALL_CHANNELS if g == 0 else abs(g) - 1


def oracle_drift_channel_table(ess: EssSequence) -> list[int | str]:
    """Observed delivery channel of shift(u, a) against u, for a = 0..2N'-1."""
    base = ess.values
    table: list[int | str] = []
    for a in range(ess.period):
        chans = delivery_channels(shift(ess, a), base)
        table.append(ALL_CHANNELS if len(chans) == ess.n_effective else min(chans))
    return table


def oracle_check_channel_map(ess: EssSequence) -> list[str]:
    """Exhaustively compare delivery-channel sets against the drift prediction.

    Sweeps every shift pair (a, b) of the base sequence; returns one message
    per violation (empty list means the property holds).
    """
    period = ess.period
    all_set = frozenset(range(ess.n_effective))
    violations = []
    shifted = [shift(ess, a) for a in range(period)]
    for a in range(period):
        for b in range(period):
            got = delivery_channels(shifted[a], shifted[b])
            g = canonical_drift(a - b, period)
            want = all_set if g == 0 else frozenset({abs(g) - 1})
            if got != want:
                violations.append(
                    f"shift pair ({a},{b}): channels {sorted(got)} != {sorted(want)}"
                )
    return violations


def oracle_check_slot_counts(ess: EssSequence) -> list[str]:
    """Exhaustively check delivery-slot counts: 2N' at g=0, 1 inside, 2 at |g|=N'."""
    period = ess.period
    n_eff = ess.n_effective
    violations = []
    shifted = [shift(ess, a) for a in range(period)]
    for a in range(period):
        for b in range(period):
            count = len(delivery_slots(shifted[a], shifted[b]))
            g = canonical_drift(a - b, period)
            want = period if g == 0 else (2 if abs(g) == n_eff else 1)
            if count != want:
                violations.append(f"shift pair ({a},{b}): |slots| {count} != {want}")
    return violations


def unchecked_ess(values) -> EssSequence:
    """An EssSequence holding `values` without EssSequence's own validation."""
    return tuple.__new__(EssSequence, (len(values) // 2 - 1, tuple(values)))


@st.composite
def broken_sequences(draw):
    """A valid ESS with two entries swapped, or any tuple over 0..N'-1."""
    n_eff = draw(st.sampled_from([4, 5, 8, 9, 12]))
    period = 2 * n_eff
    if draw(st.booleans()):
        values = list(ess_for_channel_count(n_eff).values)
        i, j = draw(st.lists(st.integers(0, period - 1), min_size=2, max_size=2, unique=True))
        values[i], values[j] = values[j], values[i]
    else:
        values = draw(st.lists(st.integers(0, n_eff - 1), min_size=period, max_size=period))
    return unchecked_ess(values)


def outcome(func, ess):
    """func(ess), or the type of the exception it raises."""
    try:
        return func(ess)
    except Exception as exc:  # compared with the other side, not swallowed
        return type(exc)


class TestDeliverySets:
    def test_shift1_channel0(self):
        assert delivery_channels(shift(ESS4, 1), ESS4.values) == {0}

    def test_shift5_channel2(self):
        assert delivery_channels(shift(ESS4, 5), ESS4.values) == {2}

    def test_zero_drift_all_channels(self):
        assert delivery_channels(ESS4.values, ESS4.values) == {0, 1, 2, 3}

    def test_slots_zero_drift(self):
        assert delivery_slots(ESS4.values, ESS4.values) == set(range(8))

    def test_slots_half_period_two(self):
        assert len(delivery_slots(shift(ESS4, 4), ESS4.values)) == 2

    @pytest.mark.parametrize("g", [1, 2, 3, 5, 6, 7])
    def test_slots_single(self, g):
        assert len(delivery_slots(shift(ESS4, g), ESS4.values)) == 1


class TestCanonicalDrift:
    @pytest.mark.parametrize(
        "raw,period,expected", [(5, 8, -3), (0, 8, 0), (12, 8, 4), (4, 8, 4), (-4, 8, 4)]
    )
    def test_examples(self, raw, period, expected):
        assert canonical_drift(raw, period) == expected

    @given(st.integers(-200, 200), st.sampled_from([8, 10, 16, 18, 26]))
    def test_properties(self, raw, period):
        g = canonical_drift(raw, period)
        assert abs(g) <= period // 2
        assert (g - raw) % period == 0
        if raw % period == period // 2:
            assert g == period // 2

    def test_bad_period(self):
        with pytest.raises(ValueError):
            canonical_drift(3, 7)


class TestPrediction:
    def test_values(self):
        assert predicted_delivery_channel(1) == 0
        assert predicted_delivery_channel(-3) == 2
        assert predicted_delivery_channel(4) == 3
        assert predicted_delivery_channel(0) == ALL_CHANNELS

    @pytest.mark.parametrize("n_eff", [4, 5])
    def test_matches_brute_force_every_drift(self, n_eff):
        ess = ess_for_channel_count(n_eff)
        for g in range(-n_eff, n_eff + 1):
            got = delivery_channels(shift(ess, g), ess.values)
            if g == 0:
                assert got == set(range(n_eff))
            else:
                assert got == {predicted_delivery_channel(g)}


class TestExhaustiveChecks:
    def test_drift_table_n4(self):
        assert drift_channel_table(ESS4) == [ALL_CHANNELS, 0, 1, 2, 3, 2, 1, 0]

    @pytest.mark.parametrize("n_eff", ADMISSIBLE)
    def test_channel_map_holds(self, n_eff):
        assert check_channel_map(ess_for_channel_count(n_eff)) == []

    @pytest.mark.parametrize("n_eff", ADMISSIBLE)
    def test_slot_counts_hold(self, n_eff):
        assert check_slot_counts(ess_for_channel_count(n_eff)) == []

    def test_swapped_entries_reported(self):
        # ESS4 with the entries at 2 and 4 swapped, past EssSequence's own
        # check: drift +-2 now meets on channels 1 and 3, drift 4 never meets.
        bad = tuple.__new__(EssSequence, (3, (0, 0, 2, 1, 3, 1, 3, 2)))
        pairs = [(a, b) for a in range(8) for b in range(8) if (a - b) % 8 in (2, 4, 6)]
        assert check_channel_map(bad) == [
            f"shift pair ({a},{b}): channels [] != [3]" if (a - b) % 8 == 4
            else f"shift pair ({a},{b}): channels [1, 3] != [1]"
            for a, b in pairs
        ]
        assert check_slot_counts(bad) == [
            f"shift pair ({a},{b}): |slots| 0 != 2" if (a - b) % 8 == 4
            else f"shift pair ({a},{b}): |slots| 2 != 1"
            for a, b in pairs
        ]


class TestRotationTableMatchesOracle:
    @pytest.mark.parametrize("n_eff", ADMISSIBLE)
    def test_admissible_sequences(self, n_eff):
        ess = ess_for_channel_count(n_eff)
        assert drift_channel_table(ess) == oracle_drift_channel_table(ess)
        assert check_channel_map(ess) == oracle_check_channel_map(ess)
        assert check_slot_counts(ess) == oracle_check_slot_counts(ess)

    @given(broken_sequences())
    def test_broken_sequences(self, ess):
        assert check_channel_map(ess) == oracle_check_channel_map(ess)
        assert check_slot_counts(ess) == oracle_check_slot_counts(ess)
        assert outcome(drift_channel_table, ess) == outcome(oracle_drift_channel_table, ess)

    def test_alternating_sequences_get_their_own_table(self):
        # The checkers and the drift table share one cached table per sequence; alternating
        # a valid and a broken sequence of one order, every call must see its own sequence.
        bad = unchecked_ess((0, 0, 2, 1, 3, 1, 3, 2))
        checks = [
            (check_channel_map, oracle_check_channel_map),
            (check_slot_counts, oracle_check_slot_counts),
            (drift_channel_table, oracle_drift_channel_table),
        ]
        calls = [(ess, check) for ess in (ESS4, bad, ESS4) for check in checks]
        calls += [(ess, check) for check in checks for ess in (bad, ESS4, bad)]
        for ess, (func, oracle) in calls:
            assert outcome(func, ess) == outcome(oracle, ess)

    def test_plain_ints_in_output(self):
        bad = unchecked_ess((0,) * 8)
        for result in (check_channel_map(bad), check_slot_counts(bad)):
            assert result and not any("int64" in message for message in result)
        assert all(type(entry) is int for entry in drift_channel_table(ESS4)[1:])
