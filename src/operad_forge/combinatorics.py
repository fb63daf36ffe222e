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
  surface).  ``stabilizer_size``/``_generators`` and the sections take it.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from ._kernels import (
    apply_perm_to_word,
    compose_perms,
    invert_perm,
    koszul_sign,
)
from .errors import DuplicateLabel, OverlappingCycles, Unstable

__all__ = [
    "QCElement",
    "QOSurface",
    "QOCSurface",
    "canonicalize_cycle",
    "koszul_sign",
    "apply_perm_to_word",
    "compose_perms",
    "invert_perm",
    "block_permutation",
    "b_sequence",
    "bseq_arity",
    "bseq_boundaries",
    "trim_bseq",
    "orbit_representative",
    "stabilizer_size",
    "stabilizer_generators",
    "orbit_transversal",
    "transversal_slot_counts",
    "transversal_slot_pair_counts",
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
        return sum(len(c) for c in self.cycles)

    @property
    def boundaries(self) -> int:
        return self.empties + len(self.cycles)

    @property
    def genus2(self) -> int:
        return 4 * self.g + 2 * self.boundaries - 2

    def bseq(self) -> tuple[int, ...]:
        return b_sequence(self.cycles, self.empties)

    def is_stable(self) -> bool:
        return 4 * self.g + 2 * self.boundaries - 4 + self.arity > 0


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
        return sum(len(c) for c in self.cycles)

    @property
    def boundaries(self) -> int:
        return self.empties + len(self.cycles)

    @property
    def genus2(self) -> int:
        return 4 * self.g + 2 * self.boundaries + len(self.closed) - 2

    def bseq(self) -> tuple[int, ...]:
        return b_sequence(self.cycles, self.empties)

    def is_stable(self) -> bool:
        return (
            4 * self.g + 2 * self.boundaries + 2 * len(self.closed) - 4 + self.arity
            > 0
        )


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
    out = []
    pos = 0
    for k in range(1, len(bseq)):
        for _ in range(bseq[k]):
            out.append((pos, k))
            pos += k
    return out


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


def _transversal_ok(perm: tuple[int, ...], blocks: list[tuple[int, int]], n: int) -> bool:
    prev_start_image: dict[int, int] = {}
    for start, length in blocks:
        imgs = perm[start : start + length]
        if imgs[0] != min(imgs):
            return False
        if length in prev_start_image and not prev_start_image[length] < imgs[0]:
            return False
        prev_start_image[length] = imgs[0]
    return all(a < b for a, b in zip(perm[n:], perm[n + 1 :]))


@lru_cache(maxsize=None)
def _transversal_of(bseq: tuple[int, ...], free: int = 0) -> tuple[tuple[int, ...], ...]:
    """Sorted coset section of the stabilizer of the shape (bseq, free)."""
    bseq = trim_bseq(bseq)
    n = bseq_arity(bseq)
    blocks = rep_cycle_slots(bseq)
    return tuple(
        p for p in itertools.permutations(range(n + free))
        if _transversal_ok(p, blocks, n)
    )


def orbit_transversal(bseq, g: int = 0) -> tuple[tuple[int, ...], ...]:
    """Coset section for the orbit of the canonical surface.

    Every surface in the orbit is the image of the representative under
    exactly one returned permutation; the list is sorted lexicographically
    on one-line notation.
    """
    orbit_representative(bseq, g)  # stability check
    return _transversal_of(trim_bseq(bseq))


@lru_cache(maxsize=None)
def transversal_slot_counts(bseq: tuple[int, ...], free: int = 0) -> dict:
    """Multiplicity of each value of inverse(perm)[0] over the section."""
    counts: dict[int, int] = {}
    for p in _transversal_of(trim_bseq(bseq), free):
        i = invert_perm(p)[0]
        counts[i] = counts.get(i, 0) + 1
    return counts


@lru_cache(maxsize=None)
def transversal_slot_pair_counts(bseq: tuple[int, ...], free: int = 0) -> dict:
    """Multiplicity of (inverse(perm)[0], inverse(perm)[1]) pairs."""
    counts: dict[tuple[int, int], int] = {}
    for p in _transversal_of(trim_bseq(bseq), free):
        q = invert_perm(p)
        key = (q[0], q[1])
        counts[key] = counts.get(key, 0) + 1
    return counts
