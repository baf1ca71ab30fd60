"""Sequence construction, verification, and channel-plan tests."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skolemhop.skolem import (
    EXISTENCE_CONDITION,
    EssSequence,
    SkolemSequence,
    construct_skolem,
    enumerate_skolem,
    ess_for_channel_count,
    extend_to_ess,
    make_channel_plan,
    verify_skolem,
)

ADMISSIBLE_ORDERS_BELOW_64 = [n for n in range(1, 64) if n % 4 in (0, 3)]

# sha256 of repr([construct_skolem(n).values for n in SEQUENCE_DIGEST_ORDERS]):
# pins the constructed sequences (order 11 is the presets' N' = 12).
SEQUENCE_DIGEST_ORDERS = [n for n in ADMISSIBLE_ORDERS_BELOW_64 if n != 31]
SEQUENCE_DIGEST = "eaafd226118383937767a473f8eb1e1f98cc1cb5de3f72066681e74c333e826c"


def independent_check(values, zero_based=False):
    """Reference predicate, written against the definition from scratch."""
    values = list(values)
    if len(values) == 0 or len(values) % 2 != 0:
        return False
    n = len(values) // 2
    lo = 0 if zero_based else 1
    wanted = list(range(lo, lo + n))
    by_value = {}
    for idx, v in enumerate(values):
        by_value.setdefault(v, []).append(idx)
    if sorted(by_value.keys()) != wanted:
        return False
    for v, idxs in by_value.items():
        if len(idxs) != 2:
            return False
        if idxs[1] - idxs[0] != v + 1:
            return False
    return True


class TestVerify:
    def test_order3_example(self):
        assert verify_skolem([3, 1, 2, 1, 3, 2])

    def test_extended_example(self):
        assert verify_skolem([0, 0, 3, 1, 2, 1, 3, 2], zero_based=True)

    def test_wrong_spacing_rejected(self):
        assert not verify_skolem([1, 2, 1, 2])

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1],
            [1, 1, 1, 1],
            [2, 1, 2, 1, 3, 3],
            [0, 0, 3, 1, 2, 1, 3, 2],  # zero-based sequence checked one-based
            ["a", "b"],
            [1.5, 1.5],
        ],
    )
    def test_malformed_is_false_not_error(self, values):
        assert verify_skolem(values) is False

    def test_extended_checked_without_flag_fails(self):
        assert not verify_skolem([0, 0, 3, 1, 2, 1, 3, 2])

    @given(st.lists(st.integers(min_value=-3, max_value=12), max_size=20),
           st.booleans())
    def test_matches_independent_predicate(self, values, zero_based):
        assert verify_skolem(values, zero_based) == independent_check(values, zero_based)


class TestConstruct:
    def test_order3_is_the_known_sequence_shape(self):
        seq = construct_skolem(3)
        assert verify_skolem(seq.values)
        assert seq.values in {(3, 1, 2, 1, 3, 2), (2, 3, 1, 2, 1, 3)}

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10])
    def test_nonexistent_orders_rejected(self, n):
        with pytest.raises(ValueError, match=EXISTENCE_CONDITION):
            construct_skolem(n)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            construct_skolem(3.0)
        with pytest.raises(TypeError):
            construct_skolem(True)

    @pytest.mark.parametrize("n", ADMISSIBLE_ORDERS_BELOW_64)
    def test_orders_up_to_24_validate(self, n):
        seq = construct_skolem(n)
        assert seq.order == n
        assert len(seq.values) == 2 * n
        assert verify_skolem(seq.values)

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_small_orders_in_oracle_solution_set(self, n):
        solutions = set(enumerate_skolem(n))
        assert construct_skolem(n).values in solutions

    def test_sequence_digest(self):
        values = [construct_skolem(n).values for n in SEQUENCE_DIGEST_ORDERS]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == SEQUENCE_DIGEST

    def test_deterministic(self):
        assert construct_skolem(12).values == construct_skolem(12).values

    def test_oracle_counts(self):
        # Known solution counts (both chiralities) for the smallest orders.
        assert len(list(enumerate_skolem(3))) == 2
        assert len(list(enumerate_skolem(4))) == 2
        assert len(list(enumerate_skolem(7))) == 52
        assert list(enumerate_skolem(5)) == []

    def test_sequence_type_rejects_invalid(self):
        with pytest.raises(ValueError):
            SkolemSequence(order=2, values=(1, 2, 1, 2))


class TestExtend:
    def test_paper_shape(self):
        s = SkolemSequence(order=3, values=(3, 1, 2, 1, 3, 2))
        assert extend_to_ess(s).values == (0, 0, 3, 1, 2, 1, 3, 2)

    @pytest.mark.parametrize("n", ADMISSIBLE_ORDERS_BELOW_64)
    def test_extension_preserves_validity(self, n):
        s = construct_skolem(n)
        ess = extend_to_ess(s)
        assert ess.order == n
        assert len(ess.values) == len(s.values) + 2
        assert verify_skolem(ess.values, zero_based=True)

    def test_ess_type_rejects_invalid(self):
        with pytest.raises(ValueError):
            EssSequence(order=3, values=(0, 3, 0, 1, 2, 1, 3, 2))

    def test_period(self):
        ess = EssSequence(order=3, values=(0, 0, 3, 1, 2, 1, 3, 2))
        assert ess.period == 8
        assert ess.n_effective == 4


class TestChannelPlan:
    def test_padding_three_channels(self):
        plan = make_channel_plan(3, "padding")
        assert plan.effective_count == 4
        assert plan.alias[3] == 0
        assert plan.alias[:3] == (0, 1, 2)

    def test_padding_identity(self):
        plan = make_channel_plan(4, "padding")
        assert plan.effective_count == 4
        assert plan.alias == (0, 1, 2, 3)

    def test_seven_channels_both_modes(self):
        assert make_channel_plan(7, "padding").effective_count == 8
        down = make_channel_plan(7, "downsizing")
        assert down.effective_count == 5
        assert down.discarded == (5, 6)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_padding_adds_at_most_two(self, n):
        plan = make_channel_plan(n, "padding")
        assert plan.effective_count % 4 in (0, 1)
        assert plan.effective_count - n in (0, 1, 2)
        assert all(plan.alias[i] == i for i in range(n))
        assert all(plan.alias[i] == i - n for i in range(n, plan.effective_count))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_downsizing_discards_at_most_two(self, n):
        plan = make_channel_plan(n, "downsizing")
        assert plan.effective_count % 4 in (0, 1)
        assert n - plan.effective_count in (0, 1, 2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_channel_plan(4, "trim")


class TestEssForChannels:
    def test_four_channels(self):
        ess = ess_for_channel_count(4)
        assert ess.n_effective == 4
        assert verify_skolem(ess.values, zero_based=True)

    @pytest.mark.parametrize("n_eff", [6, 7, 3, 1])
    def test_inadmissible_counts(self, n_eff):
        with pytest.raises(ValueError):
            ess_for_channel_count(n_eff)

    def test_built_once_per_count(self):
        assert ess_for_channel_count(12) is ess_for_channel_count(12)

    def test_cached_entry_does_not_admit_other_types(self):
        ess_for_channel_count(12)
        with pytest.raises(TypeError):
            ess_for_channel_count(12.0)
        with pytest.raises(ValueError):
            ess_for_channel_count(True)
