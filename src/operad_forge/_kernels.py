"""Pure-Python kernels for permutation and Koszul-sign bookkeeping, and for
rational values carried as integer numerators over a common denominator.

These functions are the innermost loops of every residual and axiom
check; tests/test_kernels.py checks their algebraic properties.

Permutations are words in one-line notation over 0-based slots:
``perm[i]`` is the slot that input slot ``i`` is sent to.  The induced
action on tensors is ``perm(v_0 @ ... @ v_{n-1}) = sign * v_{q(0)} @ ...``
with ``q`` the inverse permutation, i.e. the factor starting in slot ``i``
ends up in slot ``perm[i]``.

Every planned sign is -1 to a quadratic form in the parities of a word's
letters.  ``SignForm`` is the one builder of such forms (slot moves, whole
permutations, products and linear terms) and ``form_at`` the one
evaluator; ``koszul_sign`` is the definition the tests check them against.
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


class SignForm:
    """-1 to a quadratic form over GF(2) in the odd-degree indicators z_i of
    the letters of a word: the sum of z_i z_j over the recorded pairs of
    slots plus the sum of z_i over the recorded linear slots.

    ``rows[i]`` is the bitmask of the slots j > i paired with i, and
    ``linear`` the bitmask of the linear slots; ``form_at`` reads the form
    at a word's odd mask.  Koszul signs of moving slots and the signs of
    the gluing formulas are all of this shape, so one form holds the
    product of the signs of a whole operation.
    """

    def __init__(self, n):
        self.rows = [0] * n
        self.linear = 0

    @classmethod
    def of_perm(cls, perm):
        """The form of ``koszul_sign(perm, .)``: ``rows[i]`` holds the slots
        j > i with perm[j] < perm[i]."""
        n = len(perm)
        form = cls(n)
        for i, p in enumerate(perm):
            form.rows[i] = sum(1 << j for j in range(i + 1, n) if perm[j] < p)
        return form

    def add_linear(self, slots):
        """Add the sum of z over ``slots``."""
        for i in slots:
            self.linear ^= 1 << i

    def add_product(self, first, second):
        """Add (sum of z over ``first``) * (sum of z over ``second``)."""
        for i in first:
            for j in second:
                if i == j:
                    self.linear ^= 1 << i  # z_i z_i = z_i
                elif i < j:
                    self.rows[i] ^= 1 << j
                else:
                    self.rows[j] ^= 1 << i

    def add_move(self, before, after):
        """Add the Koszul sign of bringing the letters at the slots listed
        in ``before`` into the order in which ``after`` lists them."""
        rank = {s: k for k, s in enumerate(after)}
        before = list(before)
        rows = self.rows
        for x, i in enumerate(before):
            for j in before[x + 1 :]:
                if rank[i] > rank[j]:  # the pair z_i z_j, with i != j
                    if i < j:
                        rows[i] ^= 1 << j
                    else:
                        rows[j] ^= 1 << i


def form_at(rows, linear, z):
    """``(parity, acc)`` of the form ``rows``, ``linear`` (a ``SignForm``'s)
    at the odd mask ``z``; the sign is -1 to the parity.

    acc is the XOR of ``rows`` over the odd slots, and the parity counts
    the pairs and linear slots among them.  acc's bits outside ``z`` are
    the form's cross terms with ``z``: a caller splitting a word's odd
    slots into disjoint parts A and B, every slot of A before every slot
    of B, reads the pairs of A with B as ``(acc & B).bit_count()``, with
    acc taken at A.
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
    rows = SignForm.of_perm(invert_perm(perm)).rows
    parities = tuple(d % 2 for d in basis_degrees)
    out = {}
    for word, value in entries.items():
        if form_at(rows, 0, odd_mask(word, parities))[0]:
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
    rows = SignForm.of_perm(invert_perm(perm)).rows
    parities = tuple(d % 2 for d in basis_degrees)
    get = out.get
    for word, value in entries.items():
        w = move(word)
        if form_at(rows, 0, odd_mask(word, parities))[0]:
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
