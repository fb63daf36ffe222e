"""Generating functions, the three operations and the block-indexed forms."""
import itertools
import math
import random
from fractions import Fraction as Fr

import pytest

from operad_forge import bv
from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge._kernels import apply_perm_to_word
from operad_forge.errors import KindMismatch, PreconditionViolated


@pytest.fixture(scope="module")
def v2():
    return G.rich_space(2)


@pytest.fixture(scope="module")
def v4():
    return G.rich_space(4, with_differential=True)


@pytest.fixture(scope="module")
def v4c():
    return G.rich_space(4)


class TestGeneratingFunction:
    def test_zero_maps(self, v2):
        data = FT.AlgebraData(kind="loop", space=v2, maps={})
        assert bv.generating_function(data).is_zero()

    def test_symmetric_weight(self, v2):
        """A single arity-3 symmetric map enters with weight 1/3! spread
        over the word orbits."""
        rng = random.Random(0)
        key = FT.LoopKey(3, 1)
        f = FT.random_invariant_map(rng, "loop", v2, None, key, density=1.0)
        data = FT.AlgebraData(kind="loop", space=v2, maps={key: f})
        S = bv.generating_function(data)
        comp = S.component(key)
        sym = bv._symmetry("loop", key, v2.degrees)
        for w0, c in comp.items():
            assert c == f.entries[w0] / sym.stab_word_size(w0)
        # summing the class coefficients over each orbit recovers 1/n! of
        # the total tensor mass
        total = sum(
            f.entries[w] / math.factorial(3)
            for w in itertools.product(range(2), repeat=3) if w in f.entries
        )
        orbit_total = Fr(0)
        for w0, c in comp.items():
            orbit_total += c * sym.stab_word_size(w0) / math.factorial(3) * \
                (math.factorial(3) // sym.stab_word_size(w0))
        assert orbit_total == total

    def test_cyclic_weight(self, v4c):
        """A single cyclic arity-3 map enters with weight 1/3."""
        key = FT.CyclicKey(3)
        f = FT.make_map("cyclic_ainfty", v4c, None, key,
                        {(0, 0, 0): Fr(6)})
        data = FT.AlgebraData(kind="cyclic_ainfty", space=v4c, maps={key: f})
        S = bv.generating_function(data)
        # the word (0,0,0) is fixed by all three rotations
        assert S.component(key) == {(0, 0, 0): Fr(2)}

    def test_functional_round_trip(self, v4):
        """The stabilizer-weighted series carries back exactly the stored
        invariant functionals."""
        rng = random.Random(1)
        data = FT.random_algebra("quantum_ainfty", v4, 3, 4, rng)
        S = bv.generating_function(data)
        for key in data.maps:
            assert S.functional(key).entries == data.tensor(key)


class TestOperations:
    def test_zero(self, v2):
        x = bv.BVElement("loop", v2, None)
        assert bv.bv_diff(x).is_zero()
        assert bv.bv_delta(x).is_zero()
        assert bv.bv_bracket(x, x).is_zero()

    @pytest.mark.parametrize("kind,mn,mg,closed", [
        ("loop", 4, 6, False),
        ("quantum_ainfty", 3, 6, False),
        ("qoc", 2, 4, True),
    ])
    def test_ncbv_identities(self, v2, kind, mn, mg, closed):
        rng = random.Random(40)
        cspace = v2 if closed else None
        keys = FT.enumerate_keys(kind, mn, mg)
        for _ in range(3):
            pa, pb, pc = (rng.choice([0, 1]) for _ in range(3))
            a = bv.random_bv_element(rng, kind, v2, cspace, keys, parity=pa)
            b = bv.random_bv_element(rng, kind, v2, cspace, keys, parity=pb)
            c = bv.random_bv_element(rng, kind, v2, cspace, keys, parity=pc)
            assert bv.bv_diff(bv.bv_diff(a)).is_zero()
            assert bv.bv_delta(bv.bv_delta(a)).is_zero()
            assert bv.bv_diff(bv.bv_delta(a)).plus(
                bv.bv_delta(bv.bv_diff(a))).is_zero()
            j = bv.bv_bracket(bv.bv_bracket(a, b), c)
            j = j.plus(bv.bv_bracket(bv.bv_bracket(c, a), b).scaled(
                -1 if (pc * (pa + pb)) % 2 else 1))
            j = j.plus(bv.bv_bracket(bv.bv_bracket(b, c), a).scaled(
                -1 if (pa * (pb + pc)) % 2 else 1))
            assert j.is_zero()
            for operation in (bv.bv_diff, bv.bv_delta):
                t = operation(bv.bv_bracket(a, b))
                t = t.plus(bv.bv_bracket(operation(a), b))
                t = t.plus(bv.bv_bracket(a, operation(b)).scaled(
                    -1 if pa % 2 else 1))
                assert t.is_zero()

    def test_cyclic_kind_has_no_loop_operation(self, v2):
        x = bv.BVElement("cyclic_ainfty", v2, None)
        x.add_term(FT.CyclicKey(3), (0, 0, 1), Fr(1))
        with pytest.raises(KindMismatch):
            bv.bv_delta(x)


class TestMasterEquationEquivalence:
    @pytest.mark.parametrize("kind,mn,mg", [
        ("loop", 4, 4), ("cyclic_ainfty", 4, 0), ("quantum_ainfty", 4, 4),
    ])
    def test_master_residual_matches_generic(self, v4, kind, mn, mg):
        data = FT.random_algebra(kind, v4, mn, mg, random.Random(len(kind)))
        S = bv.generating_function(data)
        M = bv.master_residual(S)
        fam = {k: FT.ft_residual(data, k).entries
               for k in FT.enumerate_keys(kind, mn, mg)}
        X = bv.series_from_maps(kind, v4, None, fam)
        for key in sorted(set(M.terms) | set(X.terms), key=repr):
            if FT.key_arity(key) > mn or FT.key_genus2(key) > mg:
                continue
            assert M.component(key) == X.component(key), key

    def test_two_coloured(self, v2, v4c):
        data = FT.random_algebra("qoc", v4c, 2, 4, random.Random(6),
                                 closed_space=v2)
        S = bv.generating_function(data)
        M = bv.master_residual(S)
        fam = {k: FT.ft_residual(data, k).entries
               for k in FT.enumerate_keys("qoc", 2, 4)}
        X = bv.series_from_maps("qoc", v4c, v2, fam)
        for key in sorted(set(M.terms) | set(X.terms), key=repr):
            if FT.key_arity(key) + FT.key_closed(key) > 2 or FT.key_genus2(key) > 4:
                continue
            assert M.component(key) == X.component(key), key


class TestPolynomialForms:
    def test_delta_of_constant(self, v2):
        x = bv.BVElement("loop", v2, None)
        x.add_term(FT.LoopKey(0, 2), (), Fr(5))
        assert bv.qc_poly_delta(x).is_zero()

    def test_degree_one_monomial_brackets(self, v4):
        for i in range(4):
            for j in range(4):
                x = bv.BVElement("loop", v4, None)
                x.add_term(FT.LoopKey(1, 1), (i,), Fr(1))
                y = bv.BVElement("loop", v4, None)
                y.add_term(FT.LoopKey(1, 1), (j,), Fr(1))
                if not x.terms or not y.terms:
                    continue
                assert bv.bv_bracket(x, y).same_as(bv.qc_poly_bracket(x, y))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_poly_ops_match_transferred(self, v2, v4, dim):
        space = v2 if dim == 2 else v4
        rng = random.Random(dim)
        keys = FT.enumerate_keys("loop", 4, 4)
        for _ in range(6):
            x = bv.random_bv_element(rng, "loop", space, None, keys,
                                     parity=rng.choice([0, 1]))
            y = bv.random_bv_element(rng, "loop", space, None, keys,
                                     parity=rng.choice([0, 1]))
            assert bv.bv_delta(x).same_as(bv.qc_poly_delta(x))
            assert bv.bv_bracket(x, y).same_as(bv.qc_poly_bracket(x, y))

    def test_s_prime_identity(self, v4):
        data = FT.random_algebra("loop", v4, 4, 4, random.Random(7))
        S = bv.generating_function(data)
        Sp = bv.s_prime(S)
        lhs = bv.bv_delta(Sp).plus(bv.bv_bracket(Sp, Sp).scaled(Fr(1, 2)))
        assert lhs.same_as(bv.master_residual(S))

    def test_s_prime_identity_cyclic(self, v4):
        data = FT.random_algebra("cyclic_ainfty", v4, 4, 0, random.Random(8))
        S = bv.generating_function(data)
        Sp = bv.s_prime(S)
        lhs = bv.bv_bracket(Sp, Sp).scaled(Fr(1, 2))
        assert lhs.same_as(bv.master_residual(S))

    def test_s_prime_trivial_without_differential(self, v2):
        data = FT.random_algebra("loop", v2, 4, 4, random.Random(9))
        S = bv.generating_function(data)
        assert bv.s_prime(S).same_as(S)

    def test_quadratic_term_is_the_pairing_with_d(self, v4):
        data = FT.random_algebra("loop", v4, 3, 4, random.Random(10))
        S = bv.generating_function(data)
        quad = bv.s_prime(S).minus(S)
        assert set(quad.terms) == {FT.LoopKey(2, 0)}
        # the bracket with the quadratic term generates the differential
        gen = bv.bv_bracket(quad, S)
        assert gen.same_as(bv.bv_diff(S))


class TestAccumulation:
    """Summing raw contributions per (key, word) before canonicalizing gives
    the element that adding them one by one gives."""

    @pytest.mark.parametrize("kind, max_n, max_genus2", [
        ("loop", 4, 2), ("cyclic_ainfty", 4, 0), ("quantum_ainfty", 4, 2),
        ("qoc", 3, 2),
    ])
    def test_add_raw_matches_add_term(self, v2, kind, max_n, max_genus2):
        cspace = v2 if kind == "qoc" else None
        ref = bv.BVElement(kind, v2, cspace)
        table = ref.table()
        dim = v2.dim
        odd = next(k for k in range(dim) if table[k] % 2)
        rng = random.Random(3)
        contributions = []
        for key in FT.enumerate_keys(kind, max_n, max_genus2):
            n, c = FT.key_arity(key), FT.key_closed(key)
            words = [(odd,) * n + (dim + odd,) * c]  # repeated odd letters
            words += [
                tuple(rng.randrange(dim) for _ in range(n))
                + tuple(dim + rng.randrange(dim) for _ in range(c))
                for _ in range(4)
            ]
            group = FT.stab_group(kind, key)
            for word in words:
                # stabilizer images land in one class, some with opposite signs
                for s in rng.sample(group, min(3, len(group))) + [group[0]]:
                    value = Fr(rng.randint(-3, 3), rng.randint(1, 3))
                    contributions.append(
                        (key, apply_perm_to_word(s, word), value)
                    )
        raw = {}
        for key, word, value in contributions:
            ref.add_term(key, word, value)
            raw[(key, word)] = raw.get((key, word), Fr(0)) + value
        assert len(raw) < len(contributions)
        assert any(
            bv._symmetry(kind, key, table).canonical(word)[0] is None
            for key, word in raw
        )
        got = bv._add_raw(bv.BVElement(kind, v2, cspace), raw)
        assert ref.terms
        assert got.terms == ref.terms


class TestStringVertices:
    def setup_method(self):
        self.space = G.rich_space(4)
        rng = random.Random(11)
        maps = {}
        for key in FT.enumerate_keys("quantum_ainfty", 5, 4):
            f = FT.random_invariant_map(rng, "quantum_ainfty", self.space, None, key)
            if f.entries:
                maps[key] = f
        self.data = FT.AlgebraData(kind="quantum_ainfty", space=self.space,
                                   maps=maps)

    def test_single_and_double_block_examples(self):
        T = self.data.tensor(FT.QuantumKey((2, 1, 1), 0))
        for args in itertools.product(range(4), repeat=3):
            got = bv.string_vertex_F(self.data, 0, 4, (1, 2), args)
            assert got == -Fr(1, 2) * T.get(args, Fr(0))
        T2 = self.data.tensor(FT.QuantumKey((0, 1, 1), 0))
        degs = self.space.degrees
        for args in itertools.product(range(4), repeat=3):
            got = bv.string_vertex_F(self.data, 0, 2, (2, 1), args)
            sgn = -1 if (degs[args[2]] * (degs[args[0]] + degs[args[1]])) % 2 else 1
            want = -Fr(1, 2) * sgn * T2.get((args[2], args[0], args[1]), Fr(0))
            assert got == want

    @pytest.mark.parametrize("b_total, blocks, args, message", [
        (3, (2, 0), (0, 1), "blocks must be nonempty"),
        (2, (2, 1), (0, 1), "arguments do not fill the blocks"),
        (1, (2, 1), (0, 1, 2), "more blocks than boundaries"),
    ])
    def test_preconditions(self, b_total, blocks, args, message):
        """Bad calls raise every time, and the shape plan they share with
        good calls stays usable."""
        for _ in range(2):
            with pytest.raises(PreconditionViolated, match=message):
                bv.string_vertex_F(self.data, 0, b_total, blocks, args)
        # the fill case shares its shape (2, (2, 1)) with the second example
        self.test_single_and_double_block_examples()

    def test_block_swap_symmetry(self):
        degs = self.space.degrees
        for args in itertools.product(range(4), repeat=4):
            lhs = bv.string_vertex_F(self.data, 0, 2, (2, 2), args)
            swapped = args[2:] + args[:2]
            sgn = -1 if (
                (degs[args[0]] + degs[args[1]]) * (degs[args[2]] + degs[args[3]])
            ) % 2 else 1
            assert lhs == sgn * bv.string_vertex_F(self.data, 0, 2, (2, 2), swapped)

    def test_cyclic_rotation_symmetry(self):
        degs = self.space.degrees
        for args in itertools.product(range(4), repeat=3):
            lhs = bv.string_vertex_F(self.data, 0, 1, (3,), args)
            rotated = (args[2],) + args[:2]
            sgn = -1 if (degs[args[2]] * (degs[args[0]] + degs[args[1]])) % 2 else 1
            assert lhs == sgn * bv.string_vertex_F(self.data, 0, 1, (3,), rotated)

    def test_beta_choice_independence(self):
        for args in itertools.product(range(4), repeat=4):
            a = bv.string_vertex_F(self.data, 0, 3, (2, 1, 1), args, tie="stable")
            b = bv.string_vertex_F(self.data, 0, 3, (2, 1, 1), args, tie="revstable")
            assert a == b

    def test_vertex_with_empty_blocks(self):
        for args in itertools.product(range(4), repeat=2):
            got = bv.string_vertex_V(self.data, 0, (0, 2, 0), args)
            want = 2 * bv.string_vertex_F(self.data, 0, 3, (2,), args)
            assert got == want


class TestHerbst:
    def _minimal_data(self, seed=42):
        space = G.rich_space(4)
        rng = random.Random(seed)
        maps = {}
        for key in FT.enumerate_keys("quantum_ainfty", 5, 4):
            if key.bseq[0] > 0:
                continue
            f = FT.random_invariant_map(rng, "quantum_ainfty", space, None, key)
            if f.entries:
                maps[key] = f
        return FT.AlgebraData(kind="quantum_ainfty", space=space, maps=maps)

    def test_preconditions(self, v4):
        data = FT.random_algebra("quantum_ainfty", v4, 3, 2, random.Random(1))
        with pytest.raises(PreconditionViolated):
            bv.herbst_residual(data, (0, 0, 1), 0, (0, 0))

    def test_matches_quantum_residual(self):
        data = self._minimal_data()
        dim = data.space.dim
        for key in FT.enumerate_keys("quantum_ainfty", 4, 4):
            if key.bseq[0] > 0:
                continue
            qres = FT.quantum_residual(data, key.bseq, key.g)
            n = FT.key_arity(key)
            for w in itertools.product(range(dim), repeat=n):
                assert 4 * bv.herbst_residual(data, key.bseq, key.g, w) == \
                    qres.entries.get(w, Fr(0))

    def test_pairing_symmetry_of_splitting_terms(self):
        """Swapping the two factors of a splitting reproduces the same
        summand, which the right side uses to pair terms."""
        data = self._minimal_data()
        # direct check: the residual built from the paired ranges agrees
        # with the quantum one, which sums the unpaired ranges
        key = FT.QuantumKey((0, 0, 2), 0)
        qres = FT.quantum_residual(data, key.bseq, key.g)
        for w in itertools.product(range(4), repeat=4):
            assert 4 * bv.herbst_residual(data, key.bseq, key.g, w) == \
                qres.entries.get(w, Fr(0))

    def test_generating_function_reindexing(self):
        data = self._minimal_data()
        S1 = bv.generating_function(data)
        S2 = bv.herbst_generating_function(data, 4, 4)
        for key in sorted(set(S1.terms) | set(S2.terms), key=repr):
            if FT.key_arity(key) > 4 or FT.key_genus2(key) > 4:
                continue
            assert S1.component(key) == S2.component(key), key


class TestSolutions:
    """Generating functions of honest solutions solve the master equation."""

    def test_cyclic_solution(self):
        V = G.rich_space(4)
        f3 = FT.make_map("cyclic_ainfty", V, None, FT.CyclicKey(3),
                         {(0, 0, 0): Fr(-1)})
        data = FT.AlgebraData(kind="cyclic_ainfty", space=V,
                              maps={FT.CyclicKey(3): f3})
        S = bv.generating_function(data)
        assert not S.is_zero()
        assert bv.master_residual(S).is_zero()

    def test_loop_solution(self):
        V = G.rich_space(4)
        entries = {w: Fr(1) for w in [(0, 0, 0)]}
        f3 = FT.make_map("loop", V, None, FT.LoopKey(3, 0), entries)
        data = FT.AlgebraData(kind="loop", space=V,
                              maps={FT.LoopKey(3, 0): f3})
        for key in FT.enumerate_keys("loop", 5, 4):
            assert FT.ft_residual(data, key).is_zero(), key
        S = bv.generating_function(data)
        assert not S.is_zero()
        assert bv.master_residual(S).is_zero()
