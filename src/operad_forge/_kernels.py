"""Pure-Python kernels for permutation and Koszul-sign bookkeeping, and for
rational values carried as integer numerators over a common denominator.

These functions are the innermost loops of every residual and axiom
check; tests/test_kernels.py checks their algebraic properties.

Permutations are words in one-line notation over 0-based slots:
``perm[i]`` is the slot that input slot ``i`` is sent to.  The induced
action on tensors is ``perm(v_0 @ ... @ v_{n-1}) = sign * v_{q(0)} @ ...``
with ``q`` the inverse permutation, i.e. the factor starting in slot ``i``
ends up in slot ``perm[i]``.
"""

import math
from operator import itemgetter

# The benchmark's run record reads this name; there is one implementation.
BACKEND = "python"


def invert_perm(perm):
    """Inverse permutation, one-line notation."""
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def compose_perms(p, q):
    """The permutation acting as q first, then p: (p*q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def koszul_sign(perm, degrees):
    """Sign of ``perm`` acting on homogeneous factors of the given degrees.

    Each inverted pair (i < j with perm[i] > perm[j]) of odd-degree factors
    contributes a factor -1.
    """
    n = len(perm)
    sign = 1
    for i in range(n):
        if degrees[i] % 2 == 0:
            continue
        pi = perm[i]
        for j in range(i + 1, n):
            if degrees[j] % 2 and perm[j] < pi:
                sign = -sign
    return sign


def apply_perm_to_word(perm, word):
    """Rearrange a word of slot data: output slot perm[i] holds word[i]."""
    out = [0] * len(word)
    for i, p in enumerate(perm):
        out[p] = word[i]
    return tuple(out)


def inversion_masks(perm):
    """Per slot i, the bitmask of the slots j > i with perm[j] < perm[i].

    They depend on the permutation alone, so a caller moving many words
    along one permutation computes them once and reads each word's Koszul
    sign from them with ``mask_sign``.
    """
    n = len(perm)
    return tuple(
        sum(1 << j for j in range(i + 1, n) if perm[j] < p)
        for i, p in enumerate(perm)
    )


def word_getter(positions):
    """The function taking a word to the tuple of its letters at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda word: (word[p],)
    return lambda word: ()


def odd_mask(word, parities):
    """Bitmask of the slots of ``word`` whose letter has odd degree."""
    mask = 0
    for i, k in enumerate(word):
        if parities[k]:
            mask |= 1 << i
    return mask


def mask_sign(masks, odd):
    """``koszul_sign`` from a permutation's inversion masks and the odd mask
    of the word it acts on.

    The sign is -1 to the number of inverted pairs of odd slots, which has
    the parity of (XOR of masks[i] over the odd slots i) & odd.
    """
    acc = 0
    rest = odd
    while rest:
        low = rest & -rest
        acc ^= masks[low.bit_length() - 1]
        rest ^= low
    return -1 if (acc & odd).bit_count() & 1 else 1


def form_at(rows, linear, z):
    """``(parity, acc)`` of a quadratic form over GF(2) at the odd mask
    ``z``: ``mask_sign`` with a linear part.

    The form is the sum of z_i z_j over the bits j of ``rows[i]`` and of
    z_i over the bits i of ``linear``.  acc is the XOR of ``rows`` over the
    odd slots, and the parity counts the pairs and linear slots among them;
    acc's bits outside ``z`` are the form's cross terms with ``z``, so a
    caller splitting a word's odd slots into disjoint parts A and B reads
    the pairs of A with B as ``(acc & B).bit_count()`` when ``rows[i]``
    holds, for each i in A, every partner of i in B, before or after it.
    """
    acc = 0
    rest = z
    while rest:
        low = rest & -rest
        acc ^= rows[low.bit_length() - 1]
        rest ^= low
    return ((acc ^ linear) & z).bit_count() & 1, acc


def precompose_entries(entries, perm, basis_degrees):
    """Entries of ``T o perm`` for a tensor T given as {word: coefficient}.

    (T o perm)(a_w) = koszul(perm, deg w) * T(a_{perm . w}); iterating over
    the support of T, the output word is inverse(perm) . w with the matching
    sign koszul(inverse(perm), deg w).
    """
    if all(p == i for i, p in enumerate(perm)):
        return dict(entries)
    # a permutation other than the identity moves at least two slots
    move = itemgetter(*perm)
    masks = inversion_masks(invert_perm(perm))
    parities = tuple(d % 2 for d in basis_degrees)
    out = {}
    for word, value in entries.items():
        if mask_sign(masks, odd_mask(word, parities)) < 0:
            value = -value
        out[move(word)] = value
    return out


class Memo(dict):
    """A dict that fills a missing key k with ``fill(k)``.  Callers keep
    one for as long as its values hold, at most one call."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def add_precomposed(out, entries, perm, basis_degrees):
    """Add the entries of ``T o perm`` (``precompose_entries``) into the
    dict ``out``, each signed entry written straight in."""
    move = word_getter(perm)
    masks = inversion_masks(invert_perm(perm))
    parities = tuple(d % 2 for d in basis_degrees)
    get = out.get
    for word, value in entries.items():
        w = move(word)
        if mask_sign(masks, odd_mask(word, parities)) < 0:
            out[w] = get(w, 0) - value
        else:
            out[w] = get(w, 0) + value


def lcm_of_denominators(values):
    """The lcm of the denominators of the rational ``values``; 1 for none."""
    return math.lcm(*{v.denominator for v in values})


def numerators(values: dict, denom: int) -> dict:
    """The values as integer numerators over ``denom``, a multiple of each
    value's denominator."""
    return {k: v.numerator * (denom // v.denominator) for k, v in values.items()}
