"""The twisted endomorphism operad: signed axioms and slot assignments."""
import random
from fractions import Fraction as Fr

import pytest

from operad_forge import graded as G
from operad_forge._kernels import precompose_entries
from operad_forge.endo import (
    endo_compose,
    endo_contract,
    endo_relabel,
    verify_twisted_axioms,
)
from operad_forge.errors import LabelCollision, MissingLabel


@pytest.fixture(scope="module")
def spaces():
    return {
        2: G.canonical_space(2, with_differential=True),
        4: G.rich_space(4, with_differential=True),
    }


class TestRelabel:
    def test_identity(self, spaces):
        V = spaces[2]
        f = G.MultiFunctional(space=V, labels=(1, 2), entries={(0, 1): Fr(3)},
                              degree=-1)
        assert endo_relabel(f, {1: 1, 2: 2}).entries == f.entries

    def test_defining_identity(self, spaces):
        import itertools

        V = spaces[4]
        rng = random.Random(0)
        f = G.random_functional(rng, V, (1, 2, 3), degree=0)
        rho = {1: 5, 2: 1, 3: 9}
        g = endo_relabel(f, rho)
        assert g.labels == (1, 5, 9)
        psi = {1: 2, 5: 3, 9: 1}
        psirho = {l: psi[rho[l]] for l in rho}
        for w in itertools.product(range(4), repeat=3):
            assert G.eval_via_iota(g, psi, w) == G.eval_via_iota(f, psirho, w)

    def test_transposition_on_symmetric_tensor(self, spaces):
        V = spaces[2]
        f = G.MultiFunctional(
            space=V, labels=(1, 2), entries={(0, 0): Fr(2)}, degree=0
        )
        assert endo_relabel(f, {1: 2, 2: 1}).entries == f.entries


class TestComposeContract:
    def test_zero_factor(self, spaces):
        V = spaces[2]
        z = G.zero_functional(V, (1, 9), degree=0)
        g = G.MultiFunctional(space=V, labels=(2, 8), entries={(0, 1): Fr(1)},
                              degree=-1)
        assert endo_compose(z, 9, g, 8).is_zero()
        assert endo_contract(z, 1, 9).is_zero()

    def test_rank_one_contraction_value(self, spaces):
        """Contracting a two-slot functional against the inverse pairing."""
        V = spaces[2]
        pair = G.contraction_pair(V)
        f = G.MultiFunctional(
            space=V, labels=(1, 2),
            entries={(0, 1): Fr(2), (1, 0): Fr(5), (0, 0): Fr(7)}, degree=None,
        )
        got = endo_contract(f, 1, 2)
        # (-1)^{|f|} sum_{d,e} P[d][e] f(a_d (x) a_e), per homogeneous piece
        expected = Fr(0)
        for d in range(2):
            for e in range(2):
                c = pair.coefficients[d][e]
                if not c:
                    continue
                parity = (V.degrees[d] + V.degrees[e]) % 2
                v = f.entries.get((d, e), Fr(0))
                expected += (-c if parity else c) * v
        assert got.entries.get((), Fr(0)) == expected

    def test_compose_direct_sum_oracle(self, spaces):
        """Arity-one factors: the gluing reduces to a signed pairing sum."""
        V = spaces[2]
        pair = G.contraction_pair(V)
        rng = random.Random(7)
        f = G.random_functional(rng, V, (5,), degree=0, density=1.0)
        g = G.random_functional(rng, V, (6,), degree=-1, density=1.0)
        got = endo_compose(f, 5, g, 6)
        # the prefactor (-1)^{|f| + |g||pair|} collapses to a global minus on
        # the support of the pairing, whose degrees always sum to one
        expected = Fr(0)
        for d in range(2):
            for e in range(2):
                c = pair.coefficients[d][e]
                if not c:
                    continue
                expected -= c * f.entries.get((d,), Fr(0)) * g.entries.get(
                    (e,), Fr(0)
                )
        assert got.entries.get((), Fr(0)) == expected

    def test_label_collision(self, spaces):
        V = spaces[2]
        f = G.MultiFunctional(space=V, labels=(1, 2), entries={(0, 1): Fr(1)},
                              degree=-1)
        g = G.MultiFunctional(space=V, labels=(2, 3), entries={(0, 1): Fr(1)},
                              degree=-1)
        with pytest.raises(LabelCollision):
            endo_compose(f, 1, g, 3)
        with pytest.raises(MissingLabel):
            endo_contract(f, 1, 7)

    def test_assignment_independence(self, spaces):
        """The result does not depend on the pinned slot assignment."""
        V = spaces[4]
        rng = random.Random(2)
        f = G.random_functional(rng, V, (1, 3, 5), degree=0)
        g = G.random_functional(rng, V, (2, 4), degree=1)
        default = endo_compose(f, 3, g, 4)
        shuffled = endo_compose(f, 3, g, 4, order=[[5, 1], [], [2], []])
        assert default.same_entries(shuffled)
        assert default.labels == shuffled.labels


def _mixed_space():
    """block_space([0, 0]) in a basis that mixes the two vectors of each
    degree, so that rows of the inverse pairing have two nonzeros."""
    V = G.block_space([0, 0])  # degrees (0, 1, 0, 1)
    # column j holds the new basis vector j in the old basis
    B = [[1, 0, -2, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 3, 0, 1]]
    n = V.dim
    omega = [
        [sum(B[i][j] * V.omega[i][k] * B[k][l] for i in range(n) for k in range(n))
         for l in range(n)]
        for j in range(n)
    ]
    return G.GradedSymplecticSpace(
        basis_names=V.basis_names, degrees=V.degrees,
        differential=V.differential, omega=omega,
    )


def _all_pairs_compose(f, a, g, b, colour):
    """endo_compose by visiting every pair of entries of the two factors."""
    def split(h, drop):
        lo = [l for l in h.labels if not (colour == "open" and l == drop)]
        lc = [l for l in h.clabels if not (colour == "closed" and l == drop)]
        return lo, lc

    def reorder(h, opens, closeds):
        slots = [h.labels.index(l) for l in opens]
        slots += [len(h.labels) + h.clabels.index(l) for l in closeds]
        return precompose_entries(h.entries, tuple(slots), h.degree_table)

    lo1, lc1 = split(f, a)
    lo2, lc2 = split(g, b)
    table = f.degree_table
    if colour == "open":
        P = G.contraction_pair(f.space).coefficients
        off, slot_f, slot_g = 0, 0, 0
        F, Gs = reorder(f, [a] + lo1, lc1), reorder(g, [b] + lo2, lc2)
    else:
        P = G.contraction_pair(f.cspace).coefficients
        off, slot_f, slot_g = f.space.dim, len(lo1), len(lo2)
        F, Gs = reorder(f, lo1, [a] + lc1), reorder(g, lo2, [b] + lc2)

    def parts(w, slot, no):
        rest = w[:slot] + w[slot + 1:]
        return w[slot], rest[:no], rest[no:]

    out = {}
    for wf, vf in F.items():
        for wg, vg in Gs.items():
            d, x1, y1 = parts(wf, slot_f, len(lo1))
            e, x2, y2 = parts(wg, slot_g, len(lo2))
            coeff = P[d - off][e - off]
            if not coeff:
                continue
            deg_d, deg_e = table[d], table[e]
            deg_x1, deg_y1 = sum(table[k] for k in x1), sum(table[k] for k in y1)
            deg_x2, deg_y2 = sum(table[k] for k in x2), sum(table[k] for k in y2)
            deg_u = deg_x1 + deg_y1
            p_f = (deg_d + deg_u) % 2
            p_g = (deg_e + deg_x2 + deg_y2) % 2
            s = p_f + p_g * deg_e + (p_g + deg_e) * deg_u + deg_x2 * deg_y1
            if colour == "closed":
                s += deg_d * deg_x1 + deg_e * deg_x2
            word = x1 + x2 + y1 + y2
            val = vf * vg * coeff
            out[word] = out.get(word, Fr(0)) + (-val if s % 2 else val)
    pos = {l: i for i, l in enumerate(lo1 + lo2)}
    pos.update({("c", l): len(pos) + i for i, l in enumerate(lc1 + lc2)})
    perm = tuple([pos[l] for l in sorted(lo1 + lo2)]
                 + [pos[("c", l)] for l in sorted(lc1 + lc2)])
    return precompose_entries({w: v for w, v in out.items() if v}, perm, table)


class TestHashJoin:
    """endo_compose joins the factors on the glued index; on a space whose
    inverse pairing has several nonzeros in a row it must still visit every
    pair the pairing connects."""

    @pytest.mark.parametrize("colour, a, b", [("open", 2, 5), ("closed", 1, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_all_pairs(self, colour, a, b, seed):
        V = _mixed_space()
        assert G.validate_space(V) == []
        rows = G.contraction_pair(V).coefficients
        assert max(sum(1 for c in row if c) for row in rows) >= 2
        W = G.rich_space(4)
        cases = [(W, V)] if colour == "closed" else [(V, W), (V, V)]
        rng = random.Random(seed)
        for space, cspace in cases:
            f = G.random_functional(rng, space, (1, 2, 3), degree=rng.choice([0, -1]),
                                    cspace=cspace, clabels=(1, 2))
            g = G.random_functional(rng, space, (4, 5), degree=rng.choice([-1, -2]),
                                    cspace=cspace, clabels=(3, 4))
            assert f.entries and g.entries
            got = endo_compose(f, a, g, b, colour=colour)
            want = _all_pairs_compose(f, a, g, b, colour)
            assert want
            assert got.entries == want


class TestTwistedAxioms:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_functionals(self, spaces, dim):
        report = verify_twisted_axioms(spaces[dim], max_n=4, samples=40, seed=dim)
        assert report.passed, report.failures[:4]

    def test_degenerate_omega_surfaces(self):
        space = G.GradedSymplecticSpace(
            basis_names=("a", "b"), degrees=(0, 1),
            differential=[[0, 0], [0, 0]], omega=[[0, 0], [0, 0]],
        )
        with pytest.raises(G.SingularOmega):
            verify_twisted_axioms(space, max_n=2, samples=1)

    def test_degree_bookkeeping(self, spaces):
        rng = random.Random(5)
        V = spaces[4]
        f = G.random_functional(rng, V, (1, 2, 3), degree=1, density=1.0)
        g = G.random_functional(rng, V, (4, 5), degree=0, density=1.0)
        assert endo_compose(f, 1, g, 4).degree == 2
        assert endo_contract(f, 1, 2).degree == 2
