"""The twisted endomorphism operad: signed axioms and slot assignments."""
import itertools
import json
import math
import random
from fractions import Fraction as Fr

import pytest

from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge._kernels import apply_perm_to_word, precompose_entries
from operad_forge.endo import (
    endo_compose,
    endo_compose_raw,
    endo_contract,
    endo_contract_raw,
    endo_relabel,
    endo_sum_raw,
    verify_twisted_axioms,
)
from operad_forge.errors import LabelCollision, LabelMismatch, MissingLabel

from hand_residuals import hand_residual


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


def _mixed_pairs(pair_degrees):
    """block_space(pair_degrees), which lists each degree pair twice, in a
    basis mixing the two vectors of each degree (tests/test_bv.py builds
    the same spaces); for [-1, -1] the inverse pairing is over 9."""
    V = G.block_space(pair_degrees)
    n = V.dim
    h = n // 2  # vectors i and i + h share a degree
    B = [[0] * n for _ in range(n)]
    for i in range(h):
        B[i][i], B[i + h][i] = 1, 1
        B[i][i + h], B[i + h][i + h] = -2, 1
    omega = [
        [sum(B[i][j] * V.omega[i][k] * B[k][l] for i in range(n) for k in range(n))
         for l in range(n)]
        for j in range(n)
    ]
    M = G.GradedSymplecticSpace(
        basis_names=V.basis_names, degrees=V.degrees,
        differential=V.differential, omega=omega,
    )
    assert G.validate_space(M) == []
    return M


def _reference_contract(f, a, b, colour):
    """endo_contract in Fractions: f moved into glue order, then each entry
    contracted through the inverse pairing with its sign."""
    lo = [l for l in f.labels if colour == "closed" or l not in (a, b)]
    lc = [l for l in f.clabels if colour == "open" or l not in (a, b)]
    if colour == "open":
        P = G.contraction_pair(f.space).coefficients
        off, base = 0, 0
        slots = [f.labels.index(l) for l in [a, b] + lo]
        slots += [len(f.labels) + f.clabels.index(l) for l in lc]
    else:
        P = G.contraction_pair(f.cspace).coefficients
        off, base = f.space.dim, len(lo)
        slots = [f.labels.index(l) for l in lo]
        slots += [len(f.labels) + f.clabels.index(l) for l in [a, b] + lc]
    table = f.degree_table
    F = precompose_entries(f.entries, tuple(slots), table)
    out = {}
    for wf, vf in F.items():
        coeff = P[wf[base] - off][wf[base + 1] - off]
        if not coeff:
            continue
        word = wf[:base] + wf[base + 2:]
        deg_de = table[wf[base]] + table[wf[base + 1]]
        s = deg_de + sum(table[k] for k in word)
        if colour == "closed":
            s += deg_de * sum(table[k] for k in wf[:base])
        val = vf * coeff
        out[word] = out.get(word, Fr(0)) + (-val if s % 2 else val)
    return {w: v for w, v in out.items() if v}


def _coprime(rng, h):
    """h with each entry's numerator put over one of 2, 3, 5 and 7."""
    entries = {w: Fr(v.numerator, rng.choice((2, 3, 5, 7)))
               for w, v in h.entries.items()}
    return G.MultiFunctional(space=h.space, labels=h.labels, entries=entries,
                             degree=h.degree, cspace=h.cspace, clabels=h.clabels)


def _coprime_maps(rng, data):
    """data's maps with the entries of each stabilizer orbit of words put
    over 2, 3, 5 and 7 in turn; a map scaled on whole orbits stays
    invariant."""
    dens = itertools.cycle((2, 3, 5, 7))
    maps = {}
    for key, f in data.maps.items():
        gens = FT.stab_generators(data.kind, key)
        scale = {}
        for w in sorted(f.entries):
            if w in scale:
                continue
            p = next(dens)
            c = Fr(rng.choice([k for k in range(-9, 10) if k % p]), p) / f.entries[w]
            scale[w] = c
            todo = [w]
            while todo:
                u = todo.pop()
                for perm in gens:
                    v = apply_perm_to_word(perm, u)
                    if v not in scale:
                        scale[v] = c
                        todo.append(v)
        maps[key] = G.MultiFunctional(
            space=f.space, labels=f.labels, degree=f.degree, cspace=f.cspace,
            clabels=f.clabels, entries={w: v * scale[w] for w, v in f.entries.items()},
        )
    return maps


def _nonzero_fractions(entries):
    return all(type(v) is Fr and v for v in entries.values())


class TestCommonDenominator:
    """endo_compose and endo_contract sum integer numerators: per factor
    over the lcm of its entries' denominators, times the lcm of the inverse
    pairing's; ft_residual sums their raw terms over a running common
    denominator.  With coefficients over 2, 3, 5 and 7 and a pairing over 9
    they still equal the Fraction references exactly."""

    @pytest.mark.parametrize("colour, a, b", [("open", 2, 5), ("closed", 1, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compose_and_contract(self, colour, a, b, seed):
        M = _mixed_pairs([-1, -1])  # degrees (-1, 2, -1, 2)
        assert {c.denominator for row in G.contraction_pair(M).coefficients
                for c in row if c} == {9}
        W = G.rich_space(4)
        B = G.block_space([0, 0])  # a qoc pair (M, B) with pairings over 9 and 1
        cases = [(W, M), (M, B)] if colour == "closed" else [(M, W), (M, M), (M, B)]
        rng = random.Random(seed)
        contracted = 0
        for space, cspace in cases:
            table = space.degrees + cspace.degrees
            factors = []
            for labels, clabels in (((1, 2, 3), (1, 2)), ((4, 5), (3, 4))):
                # the degree of a random word, so that the factor has entries
                word = [rng.randrange(space.dim) for _ in labels]
                word += [space.dim + rng.randrange(cspace.dim) for _ in clabels]
                h = G.random_functional(
                    rng, space, labels, degree=-sum(table[k] for k in word),
                    cspace=cspace, clabels=clabels, density=1.0, max_num=9,
                )
                factors.append(_coprime(rng, h))
            f, g = factors
            assert math.lcm(*{v.denominator for h in factors
                              for v in h.entries.values()}) == 210
            got = endo_compose(f, a, g, b, colour=colour)
            assert got.entries
            assert got.entries == _all_pairs_compose(f, a, g, b, colour)
            assert _nonzero_fractions(got.entries)
            for h in factors:
                pool = h.labels if colour == "open" else h.clabels
                for x, y in ((pool[0], pool[1]), (pool[1], pool[0])):
                    got = endo_contract(h, x, y, colour=colour)
                    assert got.entries == _reference_contract(h, x, y, colour)
                    assert _nonzero_fractions(got.entries)
                    contracted += len(got.entries)
        assert contracted

    def test_sum_raw(self):
        """endo_sum_raw adds weighted raw terms over a running common
        denominator; it equals the Fraction sum of the public results."""
        M = _mixed_pairs([-1, -1])  # degrees (-1, 2, -1, 2)
        rng = random.Random(3)

        def rand(labels, degree):
            return _coprime(rng, G.random_functional(
                rng, M, labels, degree=degree, density=1.0, max_num=9))

        # every term and the base live on the labels 2, 3, 5, 6
        f, g = rand((1, 2, 3), 0), rand((4, 5, 6), 0)
        f2, g2 = rand((2, 3, 8), 0), rand((5, 6, 9), 0)
        h = rand((1, 2, 3, 5, 6, 7), 0)
        base = rand((2, 3, 5, 6), 1)
        terms = [(Fr(-1, 2), endo_compose_raw(f, 1, g, 4)),
                 (Fr(3, 7), endo_compose_raw(f2, 8, g2, 9)),
                 (5, endo_contract_raw(h, 1, 7))]
        assert all(t[1][2] for t in terms)
        want = base
        for c, (labels, clabels, nums, den, degree) in terms:
            want = want.plus(base._built(M, labels, {
                w: Fr(n, den) * c for w, n in nums.items()}, degree, None, clabels))
        got = endo_sum_raw(base, iter(terms))
        assert got.entries == want.entries and got.labels == base.labels
        assert got.degree == base.degree and _nonzero_fractions(got.entries)
        with pytest.raises(LabelMismatch):
            endo_sum_raw(base, [(1, endo_contract_raw(h, 1, 2))])

    @pytest.mark.parametrize("kind, bounds", [
        ("loop", (3, 2)), ("cyclic_ainfty", (6, 0)),
        ("quantum_ainfty", (3, 2)), ("qoc", (3, 2)),
    ])
    def test_generic_residual(self, kind, bounds):
        space = _mixed_pairs([-1, -1])
        cspace = _mixed_pairs([0, 0]) if kind == "qoc" else None
        rng = random.Random(f"coprime {kind}")
        data = FT.random_algebra(kind, space, *bounds, rng, closed_space=cspace,
                                 density=1.0)
        data = FT.AlgebraData(kind=kind, space=space, closed_space=cspace,
                              maps=_coprime_maps(rng, data))
        assert math.lcm(*{v.denominator for f in data.maps.values()
                          for v in f.entries.values()}) % 210 == 0
        compared = 0
        for key in FT.enumerate_keys(kind, *bounds):
            generic = FT.ft_residual(data, key)
            assert generic.entries == hand_residual(data, key).entries, key
            assert _nonzero_fractions(generic.entries)
            compared += len(generic.entries)
        assert compared


def test_json_read_space_compares_no_spaces(monkeypatch):
    """The integer inverse pairing is kept on the space object: after the
    first call on a space read back from JSON, equal to a space used before
    but another object, endo_compose and endo_contract compare no spaces."""
    V = G.rich_space(4, with_differential=True)
    W = G.space_from_json(json.loads(json.dumps(G.space_to_json(V))))
    assert W == V and W is not V
    rng = random.Random(4)

    def calls(space):
        f = G.random_functional(rng, space, (1, 2, 3), degree=0, cspace=space,
                                clabels=(1, 2), density=1.0)
        g = G.random_functional(rng, space, (4, 5), degree=0, cspace=space,
                                clabels=(3, 4), density=1.0)
        for colour, a, b, c in (("open", 1, 4, 2), ("closed", 1, 3, 2)):
            assert not endo_compose(f, a, g, b, colour=colour).is_zero()
            endo_contract(f, a, c, colour=colour)

    calls(V)
    calls(W)
    compared = []
    eq = G.GradedSymplecticSpace.__eq__

    def counting(self, other):
        compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(G.GradedSymplecticSpace, "__eq__", counting)
    calls(W)
    calls(W)
    assert compared == []


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
