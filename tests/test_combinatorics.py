"""Cycles, b-sequences, representatives, stabilizers and transversals."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge import _kernels as K
from operad_forge import combinatorics as cb
from operad_forge.errors import DuplicateLabel, OverlappingCycles, Unstable

from coset_sections import orbit_transversal, transversal_of


class TestCanonicalizeCycle:
    def test_rotation_to_minimum(self):
        assert cb.canonicalize_cycle((2, 3, 1)) == (1, 2, 3)

    def test_empty_cycle(self):
        assert cb.canonicalize_cycle(()) == ()

    def test_rotation_equivalence(self):
        assert cb.canonicalize_cycle((5, 4)) == cb.canonicalize_cycle((4, 5)) == (4, 5)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            cb.canonicalize_cycle((1, 2, 1))

    @given(st.lists(st.integers(0, 20), min_size=0, max_size=7, unique=True),
           st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_on_rotations(self, entries, rot):
        entries = tuple(entries)
        if entries:
            rot %= len(entries)
        rotated = entries[rot:] + entries[:rot]
        assert cb.canonicalize_cycle(rotated) == cb.canonicalize_cycle(entries)


class TestBlockPermutation:
    def test_example_from_ordered_blocks(self):
        # beta sending blocks (1, 3, 2) to the arrangement (third, first, second)
        beta = (1, 2, 0)  # 0-based one-line of [231]
        got = cb.block_permutation(beta, (1, 3, 2))
        assert got == (2, 3, 4, 5, 0, 1)  # 0-based [345612]

    def test_identity(self):
        assert cb.block_permutation((0, 1, 2), (2, 1, 3)) == tuple(range(6))

    def test_block_swap(self):
        assert cb.block_permutation((1, 0), (2, 2)) == (2, 3, 0, 1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_compatible_with_composition(self, seed):
        rng = random.Random(seed)
        b = rng.randint(1, 4)
        lengths = tuple(rng.randint(0, 3) for _ in range(b))
        beta = list(range(b))
        rng.shuffle(beta)
        beta2 = list(range(b))
        rng.shuffle(beta2)
        beta, beta2 = tuple(beta), tuple(beta2)
        # lengths permuted by beta2: slot beta2[i] gets lengths[i]
        permuted = [0] * b
        for i in range(b):
            permuted[beta2[i]] = lengths[i]
        lhs = cb.block_permutation(K.compose_perms(beta, beta2), lengths)
        rhs = K.compose_perms(
            cb.block_permutation(beta, tuple(permuted)),
            cb.block_permutation(beta2, lengths),
        )
        assert lhs == rhs


class TestBSequence:
    def test_direct_count(self):
        assert cb.b_sequence([(1,), (2, 3)]) == (0, 1, 1)

    def test_with_empty_boundaries(self):
        got = cb.b_sequence([(), (), (3,), (1, 4), (2, 5)])
        assert got == (2, 1, 2)

    def test_empty(self):
        assert cb.b_sequence([]) == (0,)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingCycles):
            cb.b_sequence([(1, 2), (2, 3)])


class TestOrbitRepresentative:
    def test_two_fixed_points_and_pair(self):
        rep = cb.orbit_representative((0, 2, 1), 0)
        assert rep.cycles == ((1,), (2,), (3, 4))
        assert rep.empties == 0 and rep.g == 0

    def test_empty_boundary_and_pair(self):
        rep = cb.orbit_representative((1, 0, 1), 1)
        assert rep.cycles == ((1, 2),) and rep.empties == 1 and rep.g == 1

    def test_single_triple(self):
        rep = cb.orbit_representative((0, 0, 0, 1), 0)
        assert rep.cycles == ((1, 2, 3),)

    def test_unstable(self):
        with pytest.raises(Unstable):
            cb.orbit_representative((0, 1), 0)


def _slot_image(bseq, p):
    """The cycles of the canonical surface of ``bseq`` and the set of the
    free slots after them, moved by the slot permutation p."""
    blocks = cb.rep_cycle_slots(bseq)
    return (cb.sort_cycles(tuple(tuple(p[a : a + k]) for a, k in blocks)),
            frozenset(p[cb.bseq_arity(bseq) :]))


class TestStabilizer:
    def test_point_and_pair(self):
        assert cb.stabilizer_size((0, 1, 1)) == 2
        orbit = set()
        rep = cb.orbit_representative((0, 1, 1), 0)
        for p in itertools.permutations(range(1, 4)):
            rho = dict(zip(range(1, 4), p))
            cycles = cb.sort_cycles(tuple(tuple(rho[l] for l in c) for c in rep.cycles))
            orbit.add(cycles)
        assert len(orbit) == math.factorial(3) // 2 == 3

    def test_two_pairs(self):
        assert cb.stabilizer_size((0, 0, 2)) == 8
        rep = cb.orbit_representative((0, 0, 2), 0)
        orbit = set()
        for p in itertools.permutations(range(1, 5)):
            rho = dict(zip(range(1, 5), p))
            orbit.add(cb.sort_cycles(tuple(tuple(rho[l] for l in c) for c in rep.cycles)))
        assert len(orbit) == math.factorial(4) // 8

    def test_closed_factor(self):
        assert cb.stabilizer_size((0, 1), closed_arity=2) == 2

    def test_generators_generate_the_stabilizer(self):
        """stabilizer_generators(bseq, free) generates the slot permutations
        fixing the cycles of the canonical surface and the set of free
        slots, stabilizer_size of them."""
        for bseq, free in [((0,), 3), ((0, 0, 0, 1), 0), ((1, 2, 1), 2),
                           ((0, 0, 2), 1), ((0, 1, 0, 1), 0)]:
            ident = tuple(range(cb.bseq_arity(bseq) + free))
            fixed = {p for p in itertools.permutations(ident)
                     if _slot_image(bseq, p) == _slot_image(bseq, ident)}
            group, todo = {ident}, [ident]
            while todo:
                p = todo.pop()
                for s in cb.stabilizer_generators(bseq, free):
                    q = K.compose_perms(s, p)
                    if q not in group:
                        group.add(q)
                        todo.append(q)
            assert group == fixed and len(fixed) == cb.stabilizer_size(bseq, free)


def _stabilizer(bseq, free):
    """Every slot permutation fixing the cycles of the canonical surface
    and the set of free slots."""
    ident = tuple(range(cb.bseq_arity(bseq) + free))
    return [p for p in itertools.permutations(ident)
            if _slot_image(bseq, p) == _slot_image(bseq, ident)]


def _reference_sum(values, group, parities):
    """The sum of s.values over the listed group elements, each sign a
    koszul_sign; zero entries dropped."""
    out = {}
    for s in group:
        for w, v in values.items():
            u = K.apply_perm_to_word(s, w)
            out[u] = out.get(u, 0) + K.koszul_sign(
                s, tuple(parities[k] for k in w)) * v
    return {w: v for w, v in out.items() if v}


SHAPES = [((0,), 3), ((0,), 5), ((0, 0, 0, 0, 1), 0), ((1, 2, 1), 2),
          ((0, 0, 2), 1), ((0, 1, 1, 1), 0), ((0, 2, 0, 1), 1)]
PARITIES = (0, 1, 1)  # of the letters 0, 1 and 2


class TestSymmetrize:
    @pytest.mark.parametrize("bseq,free", SHAPES)
    def test_orbits_against_the_whole_stabilizer(self, bseq, free):
        """Each word's orbit is its image under the whole stabilizer, the
        orbit's size times the number of elements fixing the word is the
        stabilizer's order, and the orbit is dropped exactly when the sum
        over the stabilizer of the word's images vanishes."""
        group = _stabilizer(bseq, free)
        moves = cb.stabilizer_moves(bseq, free)
        dropped = kept = 0
        for word in itertools.product(range(3), repeat=len(group[0])):
            orbit, both = cb._word_orbit(word, moves, PARITIES)
            assert set(orbit) == {K.apply_perm_to_word(s, word) for s in group}
            fixing = sum(K.apply_perm_to_word(s, word) == word for s in group)
            assert len(orbit) * fixing == cb.stabilizer_size(bseq, free)
            reference = _reference_sum({word: 1}, group, PARITIES)
            assert both == (not reference)
            assert cb.symmetrize({word: 1}, bseq, free, PARITIES) == reference
            dropped += both
            kept += not both
        assert dropped and kept

    @pytest.mark.parametrize("bseq,free", SHAPES)
    def test_random_values(self, bseq, free):
        """On random values over several orbits, with integer and rational
        values, the orbit walk sums what the whole stabilizer sums."""
        group = _stabilizer(bseq, free)
        rng = random.Random(sum(bseq) + free)
        for _ in range(20):
            values = {}
            for _ in range(rng.randint(1, 8)):
                word = tuple(rng.randrange(3) for _ in group[0])
                values[word] = rng.choice(
                    [rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
            assert cb.symmetrize(values, bseq, free, PARITIES) == \
                _reference_sum(values, group, PARITIES)


class TestTransversal:
    def test_single_triple(self):
        ts = orbit_transversal((0, 0, 0, 1), 0)
        assert len(ts) == 2
        assert {K.invert_perm(p)[0] for p in ts} <= {0}

    def test_fixed_points_only(self):
        ts = orbit_transversal((0, 4), 0)
        assert ts == (tuple(range(4)),)

    def test_single_pair(self):
        # the section itself only depends on the block structure; genus one
        # makes the surface stable
        assert len(orbit_transversal((0, 0, 1), 1)) == 1

    @pytest.mark.parametrize("bseq,g", [
        ((0, 2, 1), 0), ((0, 0, 2), 0), ((1, 1, 1), 0), ((0, 1, 0, 1), 0),
        ((0, 0, 0, 2), 0), ((2, 2), 1),
    ])
    def test_orbit_size_and_distinctness(self, bseq, g):
        rep = cb.orbit_representative(bseq, g)
        n = rep.arity
        ts = orbit_transversal(bseq, g)
        assert len(ts) * cb.stabilizer_size(bseq) == math.factorial(n)
        images = set()
        for p in ts:
            rho = {l: p[l - 1] + 1 for l in range(1, n + 1)}
            images.add(
                (cb.sort_cycles(tuple(tuple(rho[l] for l in c) for c in rep.cycles)),
                 rep.empties, rep.g)
            )
        assert len(images) == len(ts)

    @pytest.mark.parametrize("bseq,free", [((0,), 4), ((0, 1, 1), 2)])
    def test_orbit_size_and_distinctness_with_free_slots(self, bseq, free):
        """The section with ``free`` symmetric slots after the cycle blocks:
        one permutation per coset, told apart by the cycles and the set of
        free slots they reach."""
        n = cb.bseq_arity(bseq)
        ts = transversal_of(bseq, free)
        assert len(ts) * cb.stabilizer_size(bseq, free) == math.factorial(n + free)
        assert len({_slot_image(bseq, p) for p in ts}) == len(ts)
        if n == 0:
            assert ts == (tuple(range(free)),)
