"""Algebraic properties of the permutation and Koszul-sign kernels."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge._kernels import (
    Memo,
    SignForm,
    add_precomposed,
    apply_perm_to_word,
    compose_perms,
    form_at,
    invert_perm,
    koszul_sign,
    odd_mask,
    precompose_entries,
)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_inverse_undoes_word_action(n, seed):
    rng = random.Random(seed)
    perm = random_perm(rng, n)
    word = tuple(rng.randint(0, 3) for _ in range(n))
    moved = apply_perm_to_word(perm, word)
    assert apply_perm_to_word(invert_perm(perm), moved) == word


@given(st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_perm_times_inverse_is_identity(n, seed):
    perm = random_perm(random.Random(seed), n)
    identity = tuple(range(n))
    assert compose_perms(perm, invert_perm(perm)) == identity
    assert compose_perms(invert_perm(perm), perm) == identity


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cocycle_property(seed):
    """sign(st, deg) = sign(s, t.deg) * sign(t, deg) on random permutations."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    s, t = random_perm(rng, n), random_perm(rng, n)
    degs = tuple(rng.randint(-2, 3) for _ in range(n))
    st_perm = compose_perms(s, t)
    permuted = [0] * n
    for i in range(n):
        permuted[t[i]] = degs[i]
    lhs = koszul_sign(st_perm, degs)
    rhs = koszul_sign(s, tuple(permuted)) * koszul_sign(t, degs)
    assert lhs == rhs


def test_koszul_examples():
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (0, 1)) == 1
    # a 3-cycle on three odd slots composes two adjacent swaps
    assert koszul_sign((1, 2, 0), (1, 1, 1)) == 1


def sign_at(form, z):
    """The sign of a ``SignForm`` at the odd mask z, through ``form_at``."""
    return -1 if form_at(form.rows, form.linear, z)[0] else 1


# a permutation of range(n), n from 0 to 9, with one degree per slot
PERM_CASES = st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.permutations(range(n)).map(tuple),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


@given(PERM_CASES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_form_of_a_permutation_is_its_koszul_sign(case):
    """``SignForm.of_perm`` is koszul_sign's count of inverted odd pairs,
    with negative odd degrees too, and it is the form ``add_move`` builds
    for the same move of all the slots."""
    perm, degrees = case
    n = len(perm)
    form = SignForm.of_perm(perm)
    z = odd_mask(range(n), [d % 2 for d in degrees])
    assert sign_at(form, z) == koszul_sign(perm, degrees)
    assert form.linear == 0
    moved = SignForm(n)
    moved.add_move(range(n), invert_perm(perm))
    assert (moved.rows, moved.linear) == (form.rows, 0)


@given(PERM_CASES.filter(lambda case: case[0]).flatmap(lambda case: st.tuples(
           st.just(case),
           st.lists(st.integers(0, len(case[0]) - 1), unique=True)
           .flatmap(lambda before: st.tuples(
               st.just(before), st.permutations(before))))))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_move_of_some_slots_is_their_koszul_sign(case):
    """``add_move`` over a sub-list of the slots, in any order, is the
    Koszul sign of the permutation it makes of the letters it lists."""
    (perm, degrees), (before, after) = case
    n = len(perm)
    form = SignForm(n)
    form.add_move(before, after)
    rank = {s: k for k, s in enumerate(after)}
    z = odd_mask(range(n), [d % 2 for d in degrees])
    assert sign_at(form, z) == koszul_sign(
        [rank[i] for i in before], [degrees[i] for i in before])


SLOT_LISTS = st.lists(st.integers(0, 7), max_size=6)


@given(st.lists(st.tuples(st.booleans(), SLOT_LISTS, SLOT_LISTS), max_size=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_products_and_linear_terms_match_brute_force(ops):
    """A form built from ``add_product`` over slot lists that may overlap or
    repeat (z_i z_i = z_i) and from ``add_linear`` is, at every odd mask,
    the sum of those products and linear terms over GF(2); its rows stay
    triangular."""
    form = SignForm(8)
    for product, first, second in ops:
        if product:
            form.add_product(first, second)
        else:
            form.add_linear(first)
    for i, row in enumerate(form.rows):
        assert row >> (i + 1) << (i + 1) == row
    for z in range(1 << 8):
        bit = [z >> i & 1 for i in range(8)]
        total = 0
        for product, first, second in ops:
            if product:
                total += sum(bit[i] for i in first) * sum(bit[j] for j in second)
            else:
                total += sum(bit[i] for i in first)
        assert form_at(form.rows, form.linear, z)[0] == total % 2


@given(PERM_CASES, st.integers(0, 9), st.integers(0, 1023),
       st.lists(st.tuples(SLOT_LISTS, SLOT_LISTS), max_size=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_split_read_gives_the_whole_sign(case, shift, linear, products):
    """A word's sign read in two parts, as the joins read it: the slots
    below ``shift`` (the bracket's rest2, the first factor of a gluing)
    and the ones from ``shift`` on.  Each part reads its own sign, and the
    pairs across are the earlier part's accumulated row against the later
    part's odd mask; the rows stay triangular, with no cross terms added
    by hand.  On a permutation's form the product is its Koszul sign."""
    perm, degrees = case
    n = len(perm)
    shift = min(shift, n)
    form = SignForm.of_perm(perm)
    z = odd_mask(range(n), [d % 2 for d in degrees])
    early, late = z & ((1 << shift) - 1), z >> shift << shift

    def split_sign():
        own_early, acc = form_at(form.rows, form.linear, early)
        own_late = form_at(form.rows, form.linear, late)[0]
        return -1 if own_early ^ own_late ^ (acc & late).bit_count() & 1 else 1

    assert split_sign() == sign_at(form, z) == koszul_sign(perm, degrees)
    if n:
        form.add_linear(i for i in range(n) if linear >> i & 1)
        for first, second in products:
            form.add_product([i % n for i in first], [j % n for j in second])
        assert split_sign() == sign_at(form, z)


def test_form_at_with_a_linear_part():
    """The linear part adds one to the parity per odd slot it lists."""
    rows = SignForm.of_perm((2, 0, 1)).rows
    for z in range(8):
        for linear in range(8):
            got, acc = form_at(rows, linear, z)
            base = form_at(rows, 0, z)
            assert acc == base[1]
            assert got == base[0] ^ (linear & z).bit_count() & 1


def test_precompose_identity_copies_entries():
    entries = {(0, 1, 2): Fraction(3), (1, 1, 0): Fraction(-1, 2)}
    out = precompose_entries(entries, (0, 1, 2), (0, 1, -1))
    assert out == entries
    assert out is not entries
    assert precompose_entries({(): Fraction(2)}, (), ()) == {(): Fraction(2)}


def test_precompose_matches_per_word_definition():
    """(T o perm)(a_w) = koszul(perm, deg w) * T(a_{perm . w}) on every word;
    ``add_precomposed`` adds the same entries into a dict that holds some
    of the words already."""
    rng = random.Random(5)
    degs = (0, 1, -1, 2)
    for _ in range(40):
        n = rng.randint(1, 5)
        perm = random_perm(rng, n)
        entries = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-5, 5))
            for _ in range(6)
        }
        entries = {w: v for w, v in entries.items() if v}
        inv = invert_perm(perm)
        expected = {}
        for w in entries:
            u = apply_perm_to_word(inv, w)
            sign = koszul_sign(perm, tuple(degs[k] for k in u))
            expected[u] = sign * entries[apply_perm_to_word(perm, u)]
        assert precompose_entries(entries, perm, degs) == expected
        held = {w: Fraction(rng.randint(-5, 5)) for w in list(expected)[::2]}
        held[(9,) * n] = Fraction(1, 3)
        out = dict(held)
        add_precomposed(out, entries, perm, degs)
        assert out == {w: held.get(w, 0) + expected.get(w, 0)
                       for w in held.keys() | expected.keys()}


def test_memo_fills_each_missing_key_once():
    calls = []

    def fill(k):
        calls.append(k)
        return k * k

    memo = Memo(fill)
    assert [memo[3], memo[4], memo[3]] == [9, 16, 9]
    assert calls == [3, 4] and memo == {3: 9, 4: 16}
    assert memo.get(5) is None and 5 not in memo


def test_precompose_is_right_action():
    rng = random.Random(9)
    degs = (0, 1, -1, 2)
    for _ in range(30):
        n = rng.randint(1, 5)
        p, q = random_perm(rng, n), random_perm(rng, n)
        entries = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(1, 5))
            for _ in range(5)
        }
        once = precompose_entries(precompose_entries(entries, p, degs), q, degs)
        both = precompose_entries(entries, compose_perms(p, q), degs)
        assert once == both
