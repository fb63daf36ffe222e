"""Coset sections of a representative's stabilizer, listed in full.

No library path lists a section: the BV end weights and the verifier's end
orbits walk orbits under the stabilizer's generators instead.  The tests
keep the section as criterion 10's counting route and as the oracle of the
end weights, at small bounds.
"""
import itertools
from functools import lru_cache

from operad_forge.combinatorics import (
    bseq_arity,
    orbit_representative,
    rep_cycle_slots,
    trim_bseq,
)


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
def transversal_of(bseq: tuple[int, ...], free: int = 0) -> tuple[tuple[int, ...], ...]:
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
    return transversal_of(trim_bseq(bseq))
