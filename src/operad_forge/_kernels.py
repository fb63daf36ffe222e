"""Pure-Python kernels for permutation and Koszul-sign bookkeeping.

These functions are the innermost loops of every residual and axiom
check; tests/test_kernels.py checks their algebraic properties.

Permutations are words in one-line notation over 0-based slots:
``perm[i]`` is the slot that input slot ``i`` is sent to.  The induced
action on tensors is ``perm(v_0 @ ... @ v_{n-1}) = sign * v_{q(0)} @ ...``
with ``q`` the inverse permutation, i.e. the factor starting in slot ``i``
ends up in slot ``perm[i]``.
"""

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


def precompose_entries(entries, perm, basis_degrees):
    """Entries of ``T o perm`` for a tensor T given as {word: coefficient}.

    (T o perm)(a_w) = koszul(perm, deg w) * T(a_{perm . w}); iterating over
    the support of T, the output word is inverse(perm) . w with the matching
    sign koszul(inverse(perm), deg w).
    """
    inv = invert_perm(perm)
    out = {}
    for word, value in entries.items():
        sign = koszul_sign(inv, tuple(basis_degrees[k] for k in word))
        if sign < 0:
            value = -value
        out[apply_perm_to_word(inv, word)] = value
    return out
