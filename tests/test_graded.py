"""Spaces, functionals, slot assignments and the differential."""
import itertools
import json
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from operad_forge import endo
from operad_forge import graded as G
from operad_forge._kernels import precompose_entries
from operad_forge.errors import SingularOmega


def two_dim(omega=None, degrees=(0, 1), diff=None):
    omega = omega or [[0, 1], [-1, 0]]
    diff = diff or [[0, 0], [0, 0]]
    return G.GradedSymplecticSpace(
        basis_names=("a", "b"), degrees=degrees, differential=diff, omega=omega
    )


class TestValidateSpace:
    def test_canonical_pair_is_valid(self):
        assert G.validate_space(two_dim()) == []

    def test_omega_degree_violation(self):
        space = two_dim(omega=[[0, 1], [-1, 0]], degrees=(0, 0))
        assert any("degree of omega" in v for v in G.validate_space(space))

    def test_differential_squares(self):
        space = two_dim(degrees=(0, 1), diff=[[0, 0], [1, 0]])
        assert G.validate_space(space) == []
        bad = G.GradedSymplecticSpace(
            basis_names=("a", "b", "c", "d"), degrees=(0, 1, 1, 2),
            differential=[[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]],
            omega=[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        )
        assert any("squares to zero" in v for v in G.validate_space(bad))

    def test_singular_omega(self):
        space = two_dim(omega=[[0, 0], [0, 0]])
        assert any("singular" in v for v in G.validate_space(space))


class TestContractionPair:
    def test_canonical_pair(self):
        pair = G.contraction_pair(two_dim())
        # the partner of the first vector is the second and conversely
        assert pair.coefficients == ((Fr(0), Fr(1)), (Fr(1), Fr(0)))

    def test_permuted_basis_covariance(self):
        space = G.GradedSymplecticSpace(
            basis_names=("b", "a"), degrees=(1, 0),
            differential=[[0, 0], [0, 0]], omega=[[0, -1], [1, 0]],
        )
        pair = G.contraction_pair(space)
        assert pair.coefficients == ((Fr(0), Fr(1)), (Fr(1), Fr(0)))

    def test_blockwise(self):
        space = G.canonical_space(4)
        pair = G.contraction_pair(space)
        for i in range(4):
            for j in range(4):
                if i // 2 != j // 2:
                    assert pair.coefficients[i][j] == 0

    def test_singular(self):
        with pytest.raises(G.SingularOmega):
            G.contraction_pair(two_dim(omega=[[0, 0], [0, 0]]))

    @pytest.mark.parametrize("space", [
        two_dim(), G.canonical_space(4, with_differential=True),
        G.rich_space(2), G.rich_space(4, with_differential=True),
    ])
    def test_pairing_identity(self, space):
        """sum_i omega(v, a_i) b_i = (-1)^{|v|} v for every basis vector v."""
        pair = G.contraction_pair(space)
        n = space.dim
        for v in range(n):
            acc = [sum(space.omega[v][i] * pair.coefficients[i][j] for i in range(n))
                   for j in range(n)]
            want = [Fr(0)] * n
            want[v] = Fr(-1 if space.degrees[v] % 2 else 1)
            assert acc == want, v


class TestEvalViaIota:
    def setup_method(self):
        self.space = two_dim()
        self.f = G.MultiFunctional(
            space=self.space, labels=(3, 7),
            entries={(0, 1): Fr(5), (1, 0): Fr(2), (1, 1): Fr(3)}, degree=None,
        )

    def test_identity_assignment(self):
        psi = {3: 1, 7: 2}
        assert G.eval_via_iota(self.f, psi, (0, 1)) == 5

    def test_odd_transposition(self):
        psi = {3: 2, 7: 1}
        # both slots odd: the swap contributes a minus sign
        assert G.eval_via_iota(self.f, psi, (1, 1)) == -3
        # even past odd keeps the value (on the swapped word)
        assert G.eval_via_iota(self.f, psi, (0, 1)) == 2

    def test_bad_assignment(self):
        with pytest.raises(G.LabelMismatch):
            G.eval_via_iota(self.f, {3: 1, 8: 2}, (0, 0))

    def test_quotient_relation(self):
        """Evaluating through psi agrees with evaluating through tau o psi
        after acting by tau on the arguments."""
        from operad_forge._kernels import apply_perm_to_word, koszul_sign

        rng = random.Random(3)
        space = G.rich_space(4)
        f = G.random_functional(rng, space, (1, 2, 3), degree=0)
        psi = {1: 2, 2: 3, 3: 1}
        for tau in itertools.permutations(range(3)):
            taupsi = {l: tau[psi[l] - 1] + 1 for l in psi}
            for w in itertools.product(range(4), repeat=3):
                degs = tuple(space.degrees[k] for k in w)
                lhs = G.eval_via_iota(f, psi, w)
                rhs = koszul_sign(tau, degs) * G.eval_via_iota(
                    f, taupsi, apply_perm_to_word(tau, w)
                )
                assert lhs == rhs


class TestFunctionalDifferential:
    def test_zero_differential(self):
        f = G.MultiFunctional(space=two_dim(), labels=(1,), entries={(0,): Fr(1)},
                              degree=0)
        assert G.functional_differential(f).is_zero()

    def test_rank_one_expansion(self):
        space = two_dim(diff=[[0, 0], [1, 0]])
        # f = dual of the second vector, degree -1
        f = G.MultiFunctional(space=space, labels=(1,), entries={(1,): Fr(1)},
                              degree=-1)
        df = G.functional_differential(f)
        # (-1)^{|f|} picks up the single matrix entry
        assert df.entries == {(0,): Fr(-1)}
        assert df.degree == 0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_squares_to_zero(self, dim):
        rng = random.Random(11)
        space = G.rich_space(dim, with_differential=(dim == 4))
        for _ in range(10):
            n = rng.randint(1, 4)
            f = G.random_functional(rng, space, range(1, n + 1),
                                    degree=rng.choice([-1, 0, 1]))
            ddf = G.functional_differential(G.functional_differential(f))
            assert ddf.is_zero()


    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("degree", [-1, 0, 1])
    def test_dense_leibniz(self, two, degree):
        """The sparse push-forward against the Leibniz sum taken one output
        word u at a time:  (df)(u) = sum over slots i and letters k of
        (-1)^(|f| + |u_1| + ... + |u_(i-1)|) d[k][u_i] f(u with u_i -> k),
        closed letters offset by dim and acted on by the closed d."""
        space = G.rich_space(4, with_differential=True)
        rng = random.Random(f"dense {two} {degree}")
        compared = 0
        for arity in (1, 2, 3):
            for nc in range(1, arity + 1) if two else (0,):
                f = G.random_functional(
                    rng, space, range(1, arity - nc + 1), degree=degree,
                    cspace=space if two else None, clabels=range(1, nc + 1),
                )
                want = _dense_leibniz(f, space, arity - nc, nc)
                got = G.functional_differential(f)
                assert got.entries == want and got.degree == degree + 1
                compared += len(want)
        assert compared

    @pytest.mark.parametrize("two", [False, True])
    def test_dense_leibniz_with_two_entries_in_a_row(self, two):
        """On a space whose differential has rows with two nonzero entries
        the sparse sum still meets every one: ``differential_rows`` lists
        exactly the nonzero entries, and the differential equals the dense
        Leibniz sum."""
        space = _mixed_differential_space()
        rows = space.differential_rows
        assert rows == tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in space.differential)
        assert max(map(len, rows)) == 2
        assert space.differential_rows is rows
        rng = random.Random(f"two in a row {two}")
        compared = 0
        for arity in (1, 2, 3):
            for nc in range(1, arity + 1) if two else (0,):
                for degree in (-1, 0, 1):
                    f = G.random_functional(
                        rng, space, range(1, arity - nc + 1), degree=degree,
                        cspace=space if two else None, clabels=range(1, nc + 1),
                    )
                    want = _dense_leibniz(f, space, arity - nc, nc)
                    assert G.functional_differential(f).entries == want
                    compared += len(want)
        assert compared


def _dense_leibniz(f, space, no, nc):
    """The Leibniz sum taken one output word u at a time:  (df)(u) = sum
    over slots i and letters k of (-1)^(|f| + |u_1| + ... + |u_(i-1)|)
    d[k][u_i] f(u with u_i -> k), closed letters offset by dim and acted
    on by the closed d, here the same space's."""
    dim = space.dim
    table = space.degrees * 2
    want = {}
    for u in itertools.product(*[range(dim)] * no, *[range(dim, 2 * dim)] * nc):
        acc = Fr(0)
        for i, ui in enumerate(u):
            off = dim if ui >= dim else 0
            sign = -1 if (f.degree + sum(table[k] for k in u[:i])) % 2 else 1
            for k in range(dim):
                c = space.differential[k][ui - off]
                if c:
                    acc += sign * c * f.value(u[:i] + (k + off,) + u[i + 1:])
        if acc:
            want[u] = acc
    return want


def _mixed_differential_space():
    """Two copies of ``rich_space(4)``, the differential on the first copy
    only, in a basis mixing the two vectors of each degree: vector i and
    i + 4 go to a_i + a_(i+4) and a_(i+4) - 2 a_i.  The differential
    becomes B^-1 D B and the pairing B^T omega B, so each row of the
    differential that is nonzero has two nonzero entries."""
    V = G.block_space([0, -1, 0, -1], {(3, 1): 1, (0, 2): 1})
    n, h = V.dim, V.dim // 2
    B = [[Fr(0)] * n for _ in range(n)]
    for i in range(h):
        B[i][i], B[i + h][i] = Fr(1), Fr(1)
        B[i][i + h], B[i + h][i + h] = Fr(-2), Fr(1)
    Binv = G.invert_matrix(B)

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    Bt = [list(col) for col in zip(*B)]
    space = G.GradedSymplecticSpace(
        basis_names=V.basis_names, degrees=V.degrees,
        differential=mul(mul(Binv, V.differential), B),
        omega=mul(mul(Bt, V.omega), B),
    )
    assert G.validate_space(space) == []
    return space


class TestSpaceJson:
    def test_round_trip(self):
        space = G.rich_space(4, with_differential=True)
        doc = G.space_to_json(space)
        text = json.dumps(doc)
        assert G.space_from_json(json.loads(text)) == space

    def test_rational_strings(self):
        assert G.parse_rational("3/4") == Fr(3, 4)
        assert G.format_rational(Fr(-5, 3)) == "-5/3"
        assert G.format_rational(Fr(4, 2)) == "2"


class TestSpaceHash:
    def test_equal_spaces_share_hash_and_cache_entry(self):
        """Spaces built separately from equal data hash equal, compare equal
        and get equal inverse pairing records."""
        space = G.rich_space(4, with_differential=True)
        copy = G.space_from_json(json.loads(json.dumps(G.space_to_json(space))))
        assert copy is not space and copy.omega is not space.omega
        assert copy == space and hash(copy) == hash(space)
        assert copy.pairing == space.pairing
        assert two_dim(omega=[[0, 2], [-2, 0]]) != two_dim()

    def test_pairing_kept_per_space_object(self):
        """The inverse pairing is computed once per space object, on first
        use: an equal copy read back from JSON gets an equal record of its
        own, and a singular omega raises only when the record is read."""
        space = G.rich_space(4, with_differential=True)
        copy = G.space_from_json(json.loads(json.dumps(G.space_to_json(space))))
        rec = space.pairing
        assert copy.pairing == rec and copy.pairing is not rec
        assert space.pairing is rec and copy.pairing is copy.pairing
        for V in (space, two_dim(omega=[[0, Fr(2, 3)], [Fr(-2, 3), 0]])):
            rec = V.pairing
            assert rec.matrix == G.contraction_pair(V).coefficients
            assert rec.rows == tuple(
                tuple((j, c) for j, c in enumerate(row) if c) for row in rec.matrix
            )
            assert rec.den == math.lcm(*(c.denominator for row in rec.matrix
                                         for c in row))
            assert all(rec.int_matrix[i][j] == rec.matrix[i][j] * rec.den
                       for i in range(V.dim) for j in range(V.dim))
            assert all(type(c) is int for row in rec.int_matrix for c in row)
            assert rec.int_rows == tuple(
                tuple((j, c) for j, c in enumerate(row) if c)
                for row in rec.int_matrix
            )
        assert rec.den == 2
        singular = two_dim(omega=[[0, 0], [0, 0]])
        assert "omega is singular" in G.validate_space(singular)
        with pytest.raises(SingularOmega):
            singular.pairing
        assert pickle.loads(pickle.dumps(copy)) == copy

    def test_pickle_round_trip(self):
        """An unpickled space equals the original and hashes equal, its hash
        taken from its fields in the receiving interpreter."""
        space = G.rich_space(4)
        back = pickle.loads(pickle.dumps(space))
        assert back == space and hash(back) == hash(space)


class TestFunctionalEntries:
    def test_entries_are_nonzero_fractions(self):
        """int, Fraction and string values come out as Fractions equal to
        the input, a Fraction value is kept as it is, and zeros of any type
        are dropped."""
        half = Fr(1, 2)
        f = G.MultiFunctional(
            space=two_dim(), labels=(2, 1),
            entries={(0, 1): 3, (1, 0): half, (0, 0): 0, (1, 1): Fr(0),
                     (1, 2): "-2/6"},
        )
        assert f.entries == {(0, 1): Fr(3), (1, 0): half, (1, 2): Fr(-1, 3)}
        assert all(type(v) is Fr and v for v in f.entries.values())
        assert f.entries[(1, 0)] is half
        assert f.labels == (1, 2)


class TestFunctionalArithmetic:
    """``scaled``, ``plus`` and ``minus`` give exact entries, drop zeros and
    keep the labels; ``plus`` and ``minus`` take the other degree when the
    first operand has no entries."""

    @staticmethod
    def make(entries, degree, labels=(1, 2)):
        return G.MultiFunctional(space=two_dim(), labels=labels, entries=entries,
                                 degree=degree)

    def test_scaled(self):
        f = self.make({(0, 1): Fr(1, 2), (1, 0): 3}, -1)
        g = f.scaled(Fr(-2, 3))
        assert g.entries == {(0, 1): Fr(-1, 3), (1, 0): Fr(-2)}
        assert (g.degree, g.labels, g.space) == (-1, (1, 2), f.space)
        assert all(type(v) is Fr for v in g.entries.values())
        zero = f.scaled(0)
        assert zero.entries == {} and zero.degree == -1
        assert self.make({}, 2).scaled(5) == self.make({}, 2)
        assert f.entries == {(0, 1): Fr(1, 2), (1, 0): Fr(3)}

    def test_plus_and_minus(self):
        f = self.make({(0, 1): Fr(1, 2), (1, 0): 3}, -1)
        g = self.make({(0, 1): Fr(-1, 2), (1, 1): 1}, None)
        s = f.plus(g)
        assert s.entries == {(1, 0): Fr(3), (1, 1): Fr(1)} and s.degree == -1
        d = f.minus(g)
        assert d.entries == {(0, 1): Fr(1), (1, 0): Fr(3), (1, 1): Fr(-1)}
        assert d.degree == -1
        assert f.minus(f).entries == {} and f.minus(f).degree == -1
        assert f.plus(f.scaled(-1)) == self.make({}, -1)
        assert f.entries == {(0, 1): Fr(1, 2), (1, 0): Fr(3)}
        assert g.entries == {(0, 1): Fr(-1, 2), (1, 1): Fr(1)}

    def test_empty_operands(self):
        f = self.make({(0, 1): Fr(1, 2)}, -1)
        empty = self.make({}, 4)
        assert empty.plus(f) == self.make({(0, 1): Fr(1, 2)}, -1)
        assert empty.minus(f) == self.make({(0, 1): Fr(-1, 2)}, -1)
        assert f.plus(empty) == f and f.minus(empty) == f
        both = empty.plus(self.make({}, 7))
        assert both.entries == {} and both.degree == 7

    def test_label_mismatch(self):
        with pytest.raises(G.LabelMismatch):
            self.make({}, 0).plus(self.make({}, 0, labels=(1, 3)))
        with pytest.raises(G.LabelMismatch):
            self.make({}, 0).minus(self.make({}, 0, labels=(1,)))


def _fields(h):
    assert all(type(v) is Fr and v for v in h.entries.values())
    return h.space, h.labels, h.entries, h.degree, h.cspace, h.clabels


class TestDirectConstruction:
    """precompose_slots, functional_differential and endo_relabel build
    their results directly instead of through dataclasses.replace, which
    reran __post_init__; every field equals that construction's, on one-
    and two-coloured random functionals."""

    @staticmethod
    def functional(seed, two):
        rng = random.Random(seed)
        V = G.rich_space(4, with_differential=True)
        f = G.random_functional(
            rng, V, (4, 1, 7), degree=rng.choice([-1, 0]),
            cspace=V if two else None, clabels=(5, 2) if two else (),
        )
        assert f.entries
        return rng, f

    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_precompose_slots(self, seed, two):
        rng, f = self.functional(seed, two)
        for perm in (tuple(range(f.arity)), tuple(rng.sample(range(f.arity), f.arity))):
            old = replace(f, entries=precompose_entries(f.entries, perm,
                                                        f.degree_table))
            assert _fields(f.precompose_slots(perm)) == _fields(old)

    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_functional_differential(self, seed, two):
        _, f = self.functional(seed, two)
        got = G.functional_differential(f)
        assert got.entries and got.degree == f.degree + 1
        old = replace(f, entries=dict(got.entries), degree=got.degree)
        assert _fields(got) == _fields(old)

    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_endo_relabel(self, seed, two):
        _, f = self.functional(seed, two)
        rho, rho_c = {1: 9, 4: 3, 7: 6}, {2: 8, 5: 1}
        # the slots of the old labels in the order of their new ones
        opens = [l for _, l in sorted((rho[l], l) for l in f.labels)]
        closeds = [l for _, l in sorted((rho_c[l], l) for l in f.clabels)]
        old = replace(
            f, labels=(3, 6, 9), clabels=(1, 8) if two else (),
            entries=precompose_entries(f.entries,
                                       tuple(endo._slots(f, opens, closeds)),
                                       f.degree_table),
        )
        assert _fields(endo.endo_relabel(f, rho, rho_c)) == _fields(old)
