"""Labels, cycles, b-sequences, Koszul signs and symmetric-group bookkeeping.

Conventions used throughout the package:

- Labels are integers.  Canonical corollas live on ``[n] = {1, ..., n}``;
  label ``i`` of a canonical corolla corresponds to tensor slot ``i - 1``.
- Permutations of slots are tuples in 0-based one-line notation, see
  ``_kernels``.  A permutation ``s`` of ``[n]`` acts on the label ``l`` as
  ``s[l - 1] + 1``.
- A cycle is stored in its canonical rotation (minimal label first).
- A representative's stabilizer has a shape ``(bseq, free)``: it rotates
  and swaps the cycle blocks of the b-sequence's canonical surface and
  permutes ``free`` slots after them (closed ends, or all ends of a closed
  surface).  ``stabilizer_size`` and ``stabilizer_generators`` take it.
- ``tuple_orbits`` walks the orbits of tuples (of ends, say) under moves
  such as a stabilizer's generators; no group element is listed.
- The stabilizer moves words of basis letters, with Koszul signs from the
  letters' parities: each generator's sign is a ``_kernels.SignForm``,
  read with ``_kernels.form_at`` like every planned sign.  ``symmetrize``
  sums values over it, walking each orbit of words once along the
  generators, and ``WordSymmetry`` puts words in canonical form and
  expands classes back; the whole group is never listed.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from ._kernels import SignForm, form_at, invert_perm, odd_mask, word_getter
from .errors import DuplicateLabel, OverlappingCycles, Unstable

__all__ = [
    "QCElement",
    "QOSurface",
    "QOCSurface",
    "canonicalize_cycle",
    "block_permutation",
    "b_sequence",
    "bseq_arity",
    "bseq_boundaries",
    "trim_bseq",
    "orbit_representative",
    "stabilizer_size",
    "stabilizer_generators",
    "stabilizer_moves",
    "symmetrize",
    "WordSymmetry",
    "tuple_orbits",
    "rep_cycle_slots",
]


def canonicalize_cycle(entries: Iterable[int]) -> tuple[int, ...]:
    """Rotate a cyclic word so its minimal label comes first.

    All rotations of the same word canonicalize identically; the empty
    cycle is its own canonical form.
    """
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DuplicateLabel(f"cycle with repeated labels: {entries}")
    if not entries:
        return entries
    k = entries.index(min(entries))
    return entries[k:] + entries[:k]


def block_permutation(beta: Sequence[int], lengths: Sequence[int]) -> tuple[int, ...]:
    """Permutation of sum(lengths) slots moving contiguous blocks by beta.

    Block i (0-based) of size lengths[i] is sent, in order, to the position
    it occupies once the blocks are rearranged so that output position
    beta[i] holds block i.
    """
    if any(l < 0 for l in lengths):
        raise ValueError("negative block length")
    b = len(beta)
    starts_out = [0] * b
    inv = invert_perm(tuple(beta))
    pos = 0
    for out_idx in range(b):
        starts_out[inv[out_idx]] = pos
        pos += lengths[inv[out_idx]]
    out = []
    for i in range(b):
        out.extend(range(starts_out[i], starts_out[i] + lengths[i]))
    return tuple(out)


def trim_bseq(counts: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros; (b_0,) is kept even when b_0 = 0."""
    counts = list(counts)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    if not counts:
        counts = [0]
    return tuple(counts)


def b_sequence(cycles: Iterable[tuple[int, ...]], empties: int = 0) -> tuple[int, ...]:
    """Count cycles by length; index 0 counts the empty cycles."""
    cycles = list(cycles)
    seen: set[int] = set()
    for c in cycles:
        cs = set(c)
        if len(cs) != len(c):
            raise DuplicateLabel(f"cycle with repeated labels: {c}")
        if cs & seen:
            raise OverlappingCycles(f"cycles overlap at {sorted(cs & seen)}")
        seen |= cs
    top = max((len(c) for c in cycles), default=0)
    counts = [0] * (top + 1)
    counts[0] = empties + sum(1 for c in cycles if not c)
    for c in cycles:
        if c:
            counts[len(c)] += 1
    return trim_bseq(counts)


def bseq_arity(bseq: Sequence[int]) -> int:
    return sum(k * bk for k, bk in enumerate(bseq))


def bseq_boundaries(bseq: Sequence[int]) -> int:
    return sum(bseq)


class QCElement(NamedTuple):
    """Connected closed surface: a label set and doubled genus."""

    labels: frozenset
    genus2: int

    @property
    def arity(self) -> int:
        return len(self.labels)

    def is_stable(self) -> bool:
        return self.genus2 + len(self.labels) > 2


class QOSurface(NamedTuple):
    """Surface with open ends only: disjoint cycles, empty-boundary count, genus."""

    cycles: tuple
    empties: int
    g: int

    @property
    def labels(self) -> frozenset:
        return frozenset(l for c in self.cycles for l in c)

    @property
    def arity(self) -> int:
        return sum(map(len, self.cycles))

    @property
    def boundaries(self) -> int:
        return self.empties + len(self.cycles)

    @property
    def genus2(self) -> int:
        return 4 * self.g + 2 * self.boundaries - 2

    def bseq(self) -> tuple[int, ...]:
        return b_sequence(self.cycles, self.empties)

    def is_stable(self) -> bool:
        cycles = self.cycles
        return 4 * self.g + 2 * (self.empties + len(cycles)) - 4 + sum(map(len, cycles)) > 0


class QOCSurface(NamedTuple):
    """Surface with open ends on boundary cycles and labelled closed ends."""

    cycles: tuple
    empties: int
    g: int
    closed: frozenset

    @property
    def labels(self) -> frozenset:
        return frozenset(l for c in self.cycles for l in c)

    @property
    def arity(self) -> int:
        return sum(map(len, self.cycles))

    @property
    def boundaries(self) -> int:
        return self.empties + len(self.cycles)

    @property
    def genus2(self) -> int:
        return 4 * self.g + 2 * self.boundaries + len(self.closed) - 2

    def bseq(self) -> tuple[int, ...]:
        return b_sequence(self.cycles, self.empties)

    def is_stable(self) -> bool:
        cycles = self.cycles
        return (4 * self.g + 2 * (self.empties + len(cycles) + len(self.closed)) - 4
                + sum(map(len, cycles)) > 0)


def _cycle_order(c: tuple[int, ...]):
    """Sort key of the canonical order: by length, then lexicographically."""
    return len(c), c


def sort_cycles(cycles: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Canonical order: by length, then lexicographically on the rotation."""
    return tuple(sorted((canonicalize_cycle(c) for c in cycles), key=_cycle_order))


def orbit_representative(bseq: Sequence[int], g: int) -> QOSurface:
    """Canonical surface for a b-sequence: consecutive blocks of [n].

    Length-1 cycles come first, then length-2 and so on, entries increasing
    within each cycle and across cycles of equal length.
    """
    bseq = trim_bseq(bseq)
    n = bseq_arity(bseq)
    b = bseq_boundaries(bseq)
    if g < 0 or any(c < 0 for c in bseq):
        raise ValueError("negative count")
    if not (4 * g + 2 * b - 4 + n > 0):
        raise Unstable(f"b-sequence {bseq} at genus {g} is unstable")
    return QOSurface(cycles=_rep_cycles(bseq), empties=bseq[0], g=g)


def _rep_cycles(bseq: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of the canonical surface: consecutive blocks of [n], shortest first."""
    cycles = []
    next_label = 1
    for k in range(1, len(bseq)):
        for _ in range(bseq[k]):
            cycles.append(tuple(range(next_label, next_label + k)))
            next_label += k
    return tuple(cycles)


def stabilizer_size(bseq: Sequence[int], closed_arity: int = 0) -> int:
    """Order of the subgroup fixing the canonical surface (times closed!)."""
    size = math.factorial(closed_arity)
    for k, bk in enumerate(bseq):
        if k == 0:
            continue
        size *= math.factorial(bk) * k**bk
    return size


def rep_cycle_slots(bseq: Sequence[int]) -> list[tuple[int, int]]:
    """(start_slot, length) for each nonempty cycle of the representative."""
    return [(c[0] - 1, len(c)) for c in _rep_cycles(bseq)]


def stabilizer_generators(bseq: Sequence[int], free: int = 0) -> list[tuple[int, ...]]:
    """Slot permutations generating the stabilizer of the canonical surface
    followed by ``free`` slots: a rotation of each cycle block of length
    >= 2, the aligned swap of each two consecutive blocks of one length, and
    the adjacent transpositions of the free slots."""
    n, blocks = bseq_arity(bseq), rep_cycle_slots(bseq)
    ident = list(range(n + free))
    gens = []
    for start, length in blocks:
        if length > 1:
            p = ident[:]
            p[start : start + length] = ident[start + 1 : start + length] + [start]
            gens.append(tuple(p))
    for (s1, l1), (s2, l2) in zip(blocks, blocks[1:]):
        if l1 == l2:
            p = ident[:]
            p[s1 : s1 + l1], p[s2 : s2 + l1] = ident[s2 : s2 + l1], ident[s1 : s1 + l1]
            gens.append(tuple(p))
    for i in range(n, n + free - 1):
        p = ident[:]
        p[i], p[i + 1] = i + 1, i
        gens.append(tuple(p))
    return gens


def stabilizer_moves(bseq: Sequence[int], free: int = 0) -> tuple:
    """The stabilizer's generators as pairs of word getter and sign-form
    rows: the getter moves a word along the generator, and the rows
    (``SignForm.of_perm``'s, with no linear part) give the Koszul sign of
    the move with one ``form_at``."""
    return tuple(
        (word_getter(invert_perm(t)), SignForm.of_perm(t).rows)
        for t in stabilizer_generators(bseq, free)
    )


def _word_orbit(word, moves, parities):
    """The orbit of ``word`` under the group the moves generate, each word
    with the sign of the elements reaching it from ``word``, and whether
    some word is reached with both signs.

    The walk tries every generator on every word of the orbit, so it checks
    every Schreier generator of the stabilizer of ``word``: that stabilizer
    holds an element of sign -1 exactly when some edge reaches a word with
    the other sign."""
    signs = {word: 1}
    both = False
    todo = [word]
    for w in todo:  # grows while it is walked
        s, odd = signs[w], odd_mask(w, parities)
        for move, rows in moves:
            u = move(w)
            su = -s if form_at(rows, 0, odd)[0] else s
            prev = signs.get(u)
            if prev is None:
                signs[u] = su
                todo.append(u)
            elif prev != su:
                both = True
    return signs, both


def symmetrize(values: dict, bseq, free, parities, moves=None) -> dict:
    """The sum of s.values over the stabilizer of the shape (bseq, free),
    which moves words of letters of the given parities with Koszul signs;
    ``moves`` are the shape's ``stabilizer_moves``, built here when not
    given.

    Each orbit is walked once.  An orbit reached with both signs is
    dropped: its class vanishes.  On any other orbit, the elements taking
    one word to another are a coset of a word's stabilizer, of order
    |G| / |orbit|, and share one sign; so the sum is |G| / |orbit| times
    the signed sum of the values on the orbit, written with its sign on
    every word of the orbit.
    """
    if moves is None:
        moves = stabilizer_moves(bseq, free)
    size = stabilizer_size(bseq, free)
    out: dict = {}
    seen: set = set()
    for w0 in values:
        if w0 in seen:
            continue
        signs, both = _word_orbit(w0, moves, parities)
        seen.update(signs)
        if both:
            continue
        total = 0
        for w, s in signs.items():
            v = values.get(w)
            if v:
                total += v if s > 0 else -v
        if total:
            total *= size // len(signs)
            for w, s in signs.items():
                out[w] = total if s > 0 else -total
    return out


def tuple_orbits(tuples, moves) -> list:
    """(first member, members) of each orbit that ``tuples`` meets under the
    group the ``moves`` generate, in the order of the first members; each
    move maps a tuple to a tuple.  The walk tries every move on every
    member, so the members are the whole orbit, whether or not ``tuples``
    lists them all."""
    out, seen = [], set()
    for t in tuples:
        if t in seen:
            continue
        orbit, todo = {t}, [t]
        for u in todo:  # grows while it is walked
            for move in moves:
                v = move(u)
                if v not in orbit:
                    orbit.add(v)
                    todo.append(v)
        seen |= orbit
        out.append((t, orbit))
    return out


# ---------------------------------------------------------------------------
# word canonicalization under a stabilizer


def _rotation_sign(odd, r):
    """Koszul sign of rotating the first r letters of a block past the rest,
    read from the block's odd mask: -1 to the product of the two degree
    sums, which is odd exactly when the head is odd and the whole block
    even."""
    if (odd & ((1 << r) - 1)).bit_count() & 1 and not odd.bit_count() & 1:
        return -1
    return 1


def _least_rotation(sub, parities):
    """(least rotation of a block, its sign, the block's odd mask), or None
    when two rotations reach it with opposite signs.

    A least rotation starts at the block's least letter, so only those
    rotations are compared.
    """
    odd = odd_mask(sub, parities)
    m = min(sub)
    r = sub.index(m)
    best = sub[r:] + sub[:r] if r else sub
    sign = _rotation_sign(odd, r)
    if sub.count(m) > 1:
        for q in range(r + 1, len(sub)):
            if sub[q] != m:
                continue
            cand = sub[q:] + sub[:q]
            if cand > best:
                continue
            s = _rotation_sign(odd, q)
            if cand < best:
                best, sign = cand, s
            elif s != sign:
                return None
    return best, sign, odd


def _odd_inversions(odds):
    """Parity of the inverted pairs among the odd items, listed in word
    order, and whether one of them repeats: sorting costs -1 to that
    parity, and a repeated odd item kills the class."""
    flips = 0
    for i, a in enumerate(odds):
        for b in odds[i + 1 :]:
            if b < a:
                flips += 1
            elif b == a:
                return 0, True
    return flips & 1, False


class WordSymmetry:
    """The symmetry plan of one stabilizer shape (bseq, free) on words of
    letters of the given parities: canonical forms of words, and the
    expansion of classes back over the stabilizer.

    The stabilizer rotates each cycle block of the b-sequence's canonical
    surface, permutes blocks of equal length and permutes the tail, its
    ``free`` slots from slot ``tail`` on.  The plan holds the blocks
    grouped by length; a group with one member is never sorted.  The
    generators (``stabilizer_moves``) are built once a class is expanded.
    """

    def __init__(self, bseq, free, parities):
        self.bseq, self.free, self.parities = bseq, free, parities
        self.tail = bseq_arity(bseq)
        groups: dict = {}
        for start, length in rep_cycle_slots(bseq):
            groups.setdefault(length, []).append(start)
        self.groups = tuple((length, tuple(starts))
                            for length, starts in groups.items())

    @cached_property
    def moves(self):
        return stabilizer_moves(self.bseq, self.free)

    def canonical(self, word, rotations=None):
        """(canonical word, sign) or (None, 0) for a vanishing class.

        ``rotations`` is a caller's memo of ``_least_rotation`` per block,
        valid for as long as the letter parities are the plan's.
        """
        parities = self.parities
        if rotations is None:
            rotations = {}
        sign = 1
        out = []
        for length, starts in self.groups:
            rots = []
            for start in starts:
                sub = word[start : start + length]
                rot = rotations.get(sub, False)
                if rot is False:
                    rot = rotations[sub] = _least_rotation(sub, parities)
                if rot is None:
                    return None, 0
                sign *= rot[1]
                rots.append(rot)
            if len(rots) > 1:
                # arrange equal-length blocks in word order
                flip, repeated = _odd_inversions(
                    [r[0] for r in rots if r[2].bit_count() & 1])
                if repeated:
                    return None, 0
                sign *= -1 if flip else 1
                rots.sort(key=itemgetter(0))
            for rot in rots:
                out += rot[0]
        tail = word[self.tail :]
        if len(tail) > 1:
            flip, repeated = _odd_inversions([k for k in tail if parities[k]])
            if repeated:
                return None, 0
            sign *= -1 if flip else 1
            tail = sorted(tail)
        out += tail
        return tuple(out), sign

    def expand(self, comp: dict) -> dict:
        """The invariant entries of the classes ``comp`` (canonical word to
        coefficient, of any number type), by ``symmetrize``: each word of a
        class's orbit gets the coefficient times the word's stabilizer size,
        with the Koszul sign of the stabilizer elements reaching it."""
        return symmetrize(comp, self.bseq, self.free, self.parities,
                          self.moves)
