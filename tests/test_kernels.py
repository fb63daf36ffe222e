"""Algebraic properties of the permutation and Koszul-sign kernels."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge._kernels import (
    Memo,
    add_precomposed,
    apply_perm_to_word,
    compose_perms,
    form_at,
    invert_perm,
    inversion_masks,
    koszul_sign,
    mask_sign,
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


def test_mask_sign_matches_pairwise_definition():
    """The sign read from inversion masks is koszul_sign's count of inverted
    odd pairs, for lengths 0 to 10 and negative odd degrees."""
    rng = random.Random(13)
    table = (0, 1, -1, 2, -3, -2)
    parities = tuple(d % 2 for d in table)
    signs = set()
    for n in range(11):
        for _ in range(40):
            perm = random_perm(rng, n)
            word = tuple(rng.randrange(len(table)) for _ in range(n))
            got = mask_sign(inversion_masks(perm), odd_mask(word, parities))
            want = koszul_sign(perm, tuple(table[k] for k in word))
            assert got == want, (perm, word)
            signs.add(got)
    assert signs == {1, -1}


@given(st.permutations(range(8)).flatmap(
           lambda perm: st.tuples(st.just(tuple(perm)),
                                  st.lists(st.integers(-3, 3), min_size=8,
                                           max_size=8),
                                  st.integers(0, 255))),
       st.integers(0, 8))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_split_form_matches_mask_sign(case, n):
    """A word's Koszul sign read in two parts, as the bracket's joins read
    it: the odd slots split into A (inside ``part``) and B (outside), each
    part's own sign from ``form_at``, and the pairs across from one AND of
    A's accumulated row with B, when each row of a slot in ``part`` also
    holds its inverted partners outside ``part``, before or after it."""
    perm, degrees, part = case
    perm = tuple(p for p in perm if p < n)  # a permutation of range(n)
    degrees = degrees[:n]
    part &= (1 << n) - 1
    z = odd_mask(range(n), [d % 2 for d in degrees])
    masks = inversion_masks(perm)
    rows = list(masks)
    for i in range(n):
        if part >> i & 1:
            partners = sum(1 << j for j in range(n)
                           if (j - i) * (perm[j] - perm[i]) < 0)
            rows[i] = masks[i] & part | partners & ~part
    a, b = z & part, z & ~part
    own_a, cross = form_at(rows, 0, a)
    own_b = form_at(rows, 0, b)[0]
    parity = own_a ^ own_b ^ (cross & b).bit_count() & 1
    assert (-1) ** parity == mask_sign(masks, z) == koszul_sign(perm, degrees)


def test_form_at_with_a_linear_part():
    """The linear part adds one to the parity per odd slot it lists."""
    rows = inversion_masks((2, 0, 1))
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
