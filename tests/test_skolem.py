"""Sequence construction, verification, and channel-plan tests.

`enumerate_skolem`, the brute-force enumerator, is the small-order oracle
for `construct_skolem`; `_fill_search`, a pruned backtracking search, is the
reference that re-derives every entry of its table.
"""

import hashlib
import textwrap
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skolemhop import skolem
from skolemhop.skolem import (
    EXISTENCE_CONDITION,
    MAX_ORDER,
    EssSequence,
    _order_exists,
    construct_skolem,
    ess_for_channel_count,
    make_channel_plan,
    verify_skolem,
)

ADMISSIBLE_ORDERS_BELOW_64 = [n for n in range(1, 64) if n % 4 in (0, 3)]

# sha256 of repr([construct_skolem(n) for n in SEQUENCE_DIGEST_ORDERS]):
# pins the constructed sequences (order 11 is the presets' N' = 12).
SEQUENCE_DIGEST_ORDERS = [n for n in ADMISSIBLE_ORDERS_BELOW_64 if n != 31]
SEQUENCE_DIGEST = "eaafd226118383937767a473f8eb1e1f98cc1cb5de3f72066681e74c333e826c"
# The same pin for order 31 and the admissible orders 64..79, taken from the
# search before it gained its forced-placement cut.
LARGE_DIGEST_ORDERS = [31] + [n for n in range(64, 80) if n % 4 in (0, 3)]
LARGE_DIGEST = "8167b6b8aa20eb084aa52b3c7a55773216cf4e9cec590a77d0642c71db7ad044"


def enumerate_skolem(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every order-n sequence (brute force; independent of construct).

    Placement order: values descending, positions left to right.  Intended
    as an oracle for small orders; counts grow fast beyond order 12.
    """
    if not _order_exists(n):
        return
    size = 2 * n
    seq = [0] * size
    out: list[tuple[int, ...]] = []

    def place(k: int, free: int) -> None:
        # Bit i of `free` is set while slot i is empty; every slot is written again
        # on the way to a full sequence, so a placement is never undone.
        if k == 0:
            out.append(tuple(seq))
            return
        d = k + 1
        fits = free & free >> d  # bit i: slots i and i + d are both empty
        while fits:
            low = fits & -fits
            i = low.bit_length() - 1
            seq[i] = seq[i + d] = k
            place(k - 1, free ^ low ^ low << d)
            fits ^= low

    place(n, (1 << size) - 1)
    yield from out


def _fill_search(n: int) -> tuple[int, ...] | None:
    """Deterministic backtracking: values descending into the leftmost empty slot.

    `free` is a bitmask of the empty slots.  This branching finds the
    lexicographically greatest sequence first.  After each placement `settle`
    places every forced value (an unused j with one placement `m`: free slots
    p and p + j + 1) until none is left, or refutes the state: a value with no
    placement, a free slot in no placement, or a clash of forced values.
    Forced values are in every completion, so the search goes on from the
    settled state, in the same order, and writes them once it succeeds.  A
    settled state (free slots and unused values) that has no completion goes
    into `dead`, for the rest of the call, and is never searched again.
    """
    size = 2 * n
    seq = [0] * size
    dead: set[tuple[int, ...]] = set()

    def settle(free: int, unused: list[int], skip: int):
        placed = []
        while True:
            cover = forced = 0
            left = []
            for j in unused:
                if j == skip:
                    continue
                m = free & free >> (j + 1)
                pair = m | m << (j + 1)
                if m & (m - 1):
                    left.append(j)
                elif not m or forced & pair:
                    return None
                else:
                    forced |= pair
                    placed.append((m.bit_length() - 1, j))
                cover |= pair
            if cover != free or not forced:
                return (free, left, placed) if cover == free else None
            free ^= forced
            unused = left

    def place(free: int, unused: list[int]) -> bool:
        if not free:
            return True
        p = (free & -free).bit_length() - 1
        for k in unused:
            q = p + k + 1
            if free >> q & 1:
                settled = settle(free ^ (1 << p) ^ (1 << q), unused, k)
                if settled is None:
                    continue
                rest, others, placed = settled
                state = (rest, *others)
                if state in dead:
                    continue
                if place(rest, others):
                    seq[p] = seq[q] = k
                    for i, j in placed:
                        seq[i] = seq[i + j + 1] = j
                    return True
                dead.add(state)
        return False

    return tuple(seq) if place((1 << size) - 1, list(range(n, 0, -1))) else None


def table_entry(n: int, values: tuple[int, ...]) -> str:
    """The order-n values as their `skolem._FIRST_SLOTS` entry: first slots of k = n..1."""
    head = f"    {n}: "
    # Lines of at most 99 columns: the head, two quotes and a trailing space or comma.
    pieces = textwrap.wrap(" ".join(str(values.index(k)) for k in range(n, 0, -1)),
                           99 - len(head) - 3)
    lines = [f'"{piece} "' for piece in pieces[:-1]] + [f'"{pieces[-1]}",']
    return "\n".join([head + lines[0]] + [" " * len(head) + line for line in lines[1:]])


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


def search_channel_plan(n: int, mode: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(N', alias, discarded) by stepping N' one channel at a time (oracle)."""
    n_eff = n
    while n_eff % 4 not in (0, 1):
        n_eff += 1 if mode == "padding" else -1
    if mode == "padding":
        return n_eff, tuple(range(n)) + tuple(i - n for i in range(n, n_eff)), ()
    return n_eff, tuple(range(n_eff)), tuple(range(n_eff, n))


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
        values = construct_skolem(3)
        assert verify_skolem(values)
        assert values in {(3, 1, 2, 1, 3, 2), (2, 3, 1, 2, 1, 3)}

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10])
    def test_nonexistent_orders_rejected(self, n):
        with pytest.raises(ValueError, match=EXISTENCE_CONDITION):
            construct_skolem(n)

    def test_orders_past_the_bound_refused_before_the_search(self, monkeypatch):
        monkeypatch.setattr(skolem, "_FIRST_SLOTS", {})  # any read of the table raises
        for n in (MAX_ORDER + 4, 99):
            with pytest.raises(ValueError, match=f"at most {MAX_ORDER + 1} effective channels"):
                construct_skolem(n)
        with pytest.raises(ValueError, match=f"at most {MAX_ORDER + 1} effective channels"):
            ess_for_channel_count(100)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            construct_skolem(3.0)
        with pytest.raises(TypeError):
            construct_skolem(True)

    @pytest.mark.parametrize("n", ADMISSIBLE_ORDERS_BELOW_64)
    def test_orders_up_to_24_validate(self, n):
        values = construct_skolem(n)
        assert len(values) == 2 * n
        assert verify_skolem(values)

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_small_orders_in_oracle_solution_set(self, n):
        solutions = set(enumerate_skolem(n))
        assert construct_skolem(n) in solutions

    def test_table_holds_every_admissible_order_up_to_the_bound(self):
        assert MAX_ORDER == 79
        assert list(skolem._FIRST_SLOTS) == [n for n in range(MAX_ORDER + 1) if _order_exists(n)]

    @pytest.mark.parametrize("n", [n for n in range(MAX_ORDER + 1) if _order_exists(n)])
    def test_table_entry_is_the_reference_search(self, n):
        found = _fill_search(n)
        assert construct_skolem(n) == found, "the reference search gives\n" + table_entry(n, found)

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 11])
    def test_lexicographically_greatest(self, n):
        # The table's specification; order 11 has 35 584 solutions (~2 s).
        assert construct_skolem(n) == max(enumerate_skolem(n))

    def test_sequence_digest(self):
        values = [construct_skolem(n) for n in SEQUENCE_DIGEST_ORDERS]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == SEQUENCE_DIGEST

    def test_large_order_digest(self):
        values = [construct_skolem(n) for n in LARGE_DIGEST_ORDERS]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == LARGE_DIGEST

    def test_deterministic(self):
        # The refuted-state set is the call's own: a second search meets none of the first's.
        first = _fill_search(12)
        assert first is not None and _fill_search(12) == first

    def test_oracle_counts(self):
        # Known solution counts (both chiralities) for the smallest orders.
        assert len(list(enumerate_skolem(3))) == 2
        assert len(list(enumerate_skolem(4))) == 2
        assert len(list(enumerate_skolem(7))) == 52
        assert list(enumerate_skolem(5)) == []


class TestExtend:
    def test_paper_shape(self):
        assert ess_for_channel_count(4).values == (0, 0, 3, 1, 2, 1, 3, 2)

    @pytest.mark.parametrize("n", ADMISSIBLE_ORDERS_BELOW_64)
    def test_extension_preserves_validity(self, n):
        ess = ess_for_channel_count(n + 1)
        assert ess.order == n
        assert ess.values[2:] == construct_skolem(n)
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

    @pytest.mark.parametrize("mode", ["padding", "downsizing"])
    def test_closed_form_matches_search(self, mode):
        for n in range(1, 1001):
            plan = make_channel_plan(n, mode)
            got = (plan.effective_count, plan.alias, plan.discarded)
            assert got == search_channel_plan(n, mode), n

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_channel_plan(4, "trim")

    @pytest.mark.parametrize("n", [12.0, True, "12"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(TypeError, match="channel count must be an integer"):
            make_channel_plan(n)


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
