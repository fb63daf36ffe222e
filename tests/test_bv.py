"""Generating functions, the three operations and the block-indexed forms."""
import collections
import functools
import itertools
import math
import random
from fractions import Fraction as Fr

import pytest

from operad_forge import bv, endo
from operad_forge import combinatorics as cb
from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge import operads as op
from operad_forge._kernels import (
    apply_perm_to_word,
    invert_perm,
    koszul_sign,
    odd_mask,
    word_getter,
)
from operad_forge.combinatorics import rep_cycle_slots, trim_bseq
from operad_forge.errors import KindMismatch, LabelMismatch, PreconditionViolated

from coset_sections import transversal_of


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
        for w0, c in comp.items():
            size = _stab_word_size("loop", key, v2.degrees, w0)
            assert c == f.entries[w0] / size
        # summing the class coefficients over each orbit recovers 1/n! of
        # the total tensor mass
        total = sum(
            f.entries[w] / math.factorial(3)
            for w in itertools.product(range(2), repeat=3) if w in f.entries
        )
        orbit_total = Fr(0)
        for w0, c in comp.items():
            size = _stab_word_size("loop", key, v2.degrees, w0)
            orbit_total += c * size / math.factorial(3) * \
                (math.factorial(3) // size)
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

    def test_sums_refuse_other_kinds_and_spaces(self, v2, v4c):
        """plus, minus and same_as combine elements of one kind on one
        space only."""
        rng = random.Random(7)
        a = bv.random_bv_element(rng, "loop", v2, None,
                                 FT.enumerate_keys("loop", 3, 2), density=1.0)
        q = bv.random_bv_element(rng, "quantum_ainfty", v4c, None,
                                 FT.enumerate_keys("quantum_ainfty", 3, 2),
                                 density=1.0)
        far = bv.random_bv_element(rng, "loop", v4c, None,
                                   FT.enumerate_keys("loop", 3, 2), density=1.0)
        assert a.terms and q.terms and far.terms
        for other, error in ((q, KindMismatch), (far, LabelMismatch)):
            for x, y, combine in ((a, other, "plus"), (a, other, "minus"),
                                  (a, other, "same_as"), (other, a, "plus")):
                with pytest.raises(error):
                    getattr(x, combine)(y)

    def test_bracket_checks_spaces_before_an_empty_factor(self, v2, v4c):
        a = bv.random_bv_element(random.Random(8), "loop", v2, None,
                                 FT.enumerate_keys("loop", 3, 2), density=1.0)
        empty = bv.BVElement("loop", v4c, None)
        for x, y in ((empty, a), (a, empty)):
            with pytest.raises(LabelMismatch):
                bv.bv_bracket(x, y)
        with pytest.raises(KindMismatch):
            bv.bv_bracket(bv.BVElement("quantum_ainfty", v2, None), a)

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


# ---------------------------------------------------------------------------
# the operations as composites of the endomorphism-operad maps, kept as the
# reference for the planned joins of bv_bracket and bv_delta


def _raw_transported(raw, out_key, sigma, entries, scale, table):
    """Add the entries, transported along sigma with Koszul signs, times
    scale."""
    for w, v in entries.items():
        sign = koszul_sign(sigma, tuple(table[k] for k in w))
        rk = (out_key, apply_perm_to_word(sigma, w))
        raw[rk] = raw.get(rk, Fr(0)) + sign * scale * v


def _section_counts(kind, key, colour, k):
    """Per k-tuple of distinct ends of the colour, the number of elements of
    the coset section of the representative's stabilizer that bring that
    tuple to the colour's first k slots.  The stabilizer permutes the
    closed ends freely, so the section is the open one (of the open part of
    the stabilizer shape, in the n! open slot permutations) times the
    identity on the closed ends; the closed ends brought to the front are
    always the first k."""
    n, c = FT.key_arity(key), FT.key_closed(key)
    if (n if colour == "open" else c) < k:
        return {}
    bseq, _ = FT.stab_shape(kind, key)
    counts = {}
    for p in transversal_of(trim_bseq(bseq), n - cb.bseq_arity(bseq)):
        t = invert_perm(p)[:k] if colour == "open" else tuple(range(k))
        counts[t] = counts.get(t, 0) + 1
    return counts


def _rest_factorial(key, colour, k):
    """The factorials of the slots that stay once k ends of the colour go."""
    n, c = FT.key_arity(key), FT.key_closed(key)
    if colour == "open":
        return math.factorial(n - k) * math.factorial(c)
    return math.factorial(n) * math.factorial(c - k)


def _reference_delta(x, colours=None):
    """bv_delta through endo_contract, one contraction per pair of ends."""
    table = x.table()
    colours = colours or (("open", "closed") if x.kind == "qoc" else ("open",))
    raw = {}
    for key in list(x.terms):
        rep = FT.representative(key)
        f = x.functional(key)
        for colour in colours:
            for (i, j), mult in _section_counts(x.kind, key, colour, 2).items():
                g = endo.endo_contract(f, i + 1, j + 1, colour=colour)
                z = op.natural_contract(rep, i + 1, j + 1, colour=colour)
                rep_out, sigma = op.canonical_perm(z)
                _raw_transported(raw, FT.key_of(x.kind, rep_out), sigma,
                                 g.entries,
                                 Fr(-mult, _rest_factorial(key, colour, 2)),
                                 table)
    return bv._add_raw(bv.BVElement(x.kind, x.space, x.cspace), raw)


def _reference_bracket(x, y, colours=None):
    """bv_bracket through endo_relabel and endo_compose, one gluing per
    pair of ends."""
    kind = x.kind
    table = x.table()
    colours = colours or (("open", "closed") if kind == "qoc" else ("open",))

    off = 1 + max(
        (max(FT.key_arity(k), FT.key_closed(k)) for k in x.terms), default=0
    )
    seconds = []
    for key2 in list(y.terms):
        f2 = y.functional(key2)
        rho = {l: l + off for l in f2.labels}
        rho_c = {l: l + off for l in f2.clabels}
        seconds.append((key2, endo.endo_relabel(f2, rho, rho_c)))
    raw = {}
    for key1 in list(x.terms):
        f1 = x.functional(key1)
        rep1 = FT.representative(key1)
        for key2, f2s in seconds:
            rep2 = FT.representative(key2)
            for colour in colours:
                for (i,), m1 in _section_counts(kind, key1, colour, 1).items():
                    for (j,), m2 in _section_counts(kind, key2, colour, 1).items():
                        h = endo.endo_compose(f1, i + 1, f2s, j + 1 + off,
                                              colour=colour)
                        z = op.natural_compose(rep1, i + 1, rep2, j + 1,
                                               colour=colour)
                        rep_out, sigma = op.canonical_perm(z)
                        scale = Fr(-m1 * m2, _rest_factorial(key1, colour, 1)
                                   * _rest_factorial(key2, colour, 1))
                        _raw_transported(raw, FT.key_of(kind, rep_out), sigma,
                                         h.entries, scale, table)
    return bv._add_raw(bv.BVElement(kind, x.space, x.cspace), raw)


def _mixed_space(pair_degrees):
    """block_space(pair_degrees), which lists each degree pair twice, in a
    basis mixing the two vectors of each degree, so that every row of the
    inverse pairing has two nonzeros."""
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
    rows = G.contraction_pair(M).coefficients
    assert min(sum(1 for c in row if c) for row in rows) == 2
    return M


def _random_element(rng, kind, space, cspace, keys, parity):
    """A random element of the given word parity; "mixed" sums one of each."""
    if parity == "mixed":
        return _random_element(rng, kind, space, cspace, keys, 0).plus(
            _random_element(rng, kind, space, cspace, keys, 1))
    return bv.random_bv_element(rng, kind, space, cspace, keys, parity=parity,
                                density=0.4)


class TestPlannedJoins:
    """bv_bracket and bv_delta equal their endomorphism-operad composites
    on spaces whose inverse pairing has two nonzeros in every row, for
    homogeneous elements of both parities and for mixed ones."""

    BOUNDS = {"loop": (3, 2), "cyclic_ainfty": (4, 0),
              "quantum_ainfty": (3, 2), "qoc": (3, 2)}

    @pytest.mark.parametrize("kind", ["loop", "cyclic_ainfty",
                                      "quantum_ainfty", "qoc"])
    @pytest.mark.parametrize("pa, pb", [(0, 1), (1, 1), ("mixed", "mixed")])
    def test_matches_endo_composites(self, kind, pa, pb):
        space = _mixed_space([-1, -1])  # degrees (-1, 2, -1, 2)
        cspace = _mixed_space([0, 0]) if kind == "qoc" else None
        keys = FT.enumerate_keys(kind, *self.BOUNDS[kind])
        rng = random.Random(f"{kind}{pa}{pb}")
        a = _random_element(rng, kind, space, cspace, keys, pa)
        b = _random_element(rng, kind, space, cspace, keys, pb)
        assert a.terms and b.terms
        colours = ("open", "closed") if kind == "qoc" else ("open",)
        for colour in colours:
            # every colour glues and contracts something on its own
            assert not _reference_bracket(a, b, (colour,)).is_zero(), colour
            if kind != "cyclic_ainfty":
                assert not _reference_delta(a, (colour,)).is_zero(), colour
        assert bv.bv_bracket(a, b).terms == _reference_bracket(a, b).terms
        assert bv.bv_bracket(a, a).terms == _reference_bracket(a, a).terms
        if kind != "cyclic_ainfty":
            assert bv.bv_delta(a).terms == _reference_delta(a).terms


class TestSelfBracket:
    """bv_bracket(a, a) joins each unordered pair of glued ends once: the
    pair's two orders differ by (-1)^{|w1||w2|}, so it doubles an
    off-diagonal word pair unless both words are odd.  It must equal the
    ordered route, which an equal copy of a takes."""

    @staticmethod
    def _count_joins(monkeypatch):
        """Per colour, the joins the brackets run, and the (key, word) sums
        they write."""
        joins, sums, colour = collections.Counter(), collections.Counter(), []
        plan, join = bv._bracket_plan, bv._bracket_join

        def planning(*args):
            colour[:] = args[-1:]
            return plan(*args)

        def joining(raw, *args):
            before = len(raw)
            join(raw, *args)
            joins[colour[0]] += 1
            sums[colour[0]] += len(raw) - before

        monkeypatch.setattr(bv, "_bracket_plan", planning)
        monkeypatch.setattr(bv, "_bracket_join", joining)
        return joins, sums

    @pytest.mark.parametrize("kind", ["loop", "cyclic_ainfty",
                                      "quantum_ainfty", "qoc"])
    @pytest.mark.parametrize("parity", [0, 1, "mixed"])
    def test_matches_the_ordered_route(self, monkeypatch, kind, parity):
        space = _mixed_space([-1, -1])
        cspace = _mixed_space([0, 0]) if kind == "qoc" else None
        keys = FT.enumerate_keys(kind, *TestPlannedJoins.BOUNDS[kind])
        a = _random_element(random.Random(f"self {kind}{parity}"), kind, space,
                            cspace, keys, parity)
        b = a.scaled(1)  # equal terms, another object
        assert b is not a and b.terms == a.terms
        joins, sums = self._count_joins(monkeypatch)
        got = bv.bv_bracket(a, a)
        self_joins, self_sums = dict(joins), dict(sums)
        joins.clear()
        assert got.terms == bv.bv_bracket(a, b).terms
        assert bool(got.terms) == (parity != 1)  # an odd a has [a, a] = 0
        colours = ("open", "closed") if kind == "qoc" else ("open",)
        for colour in colours:
            n = sum(len(bv._end_weights(kind, key, colour, 1)) for key in a.terms)
            assert n > 1
            assert self_joins[colour] == n * (n + 1) // 2
            assert joins[colour] == n * n
            assert self_sums[colour] > 0, colour  # every colour glues words


def test_bv_route_does_not_call_the_endomorphism_operad(monkeypatch, v2):
    """The master residual and the operations it is built from never reach
    endo_compose, endo_contract or endo_relabel, on which the generic route
    they are compared with is built, nor the integer forms
    endo_compose_raw and endo_contract_raw, or endo_sum_raw, which sums
    them in the generic route."""
    def refuse(*args, **kwargs):
        raise AssertionError("the BV route called the endomorphism operad")

    for name in ("endo_compose", "endo_contract", "endo_relabel",
                 "endo_compose_raw", "endo_contract_raw", "endo_sum_raw"):
        monkeypatch.setattr(endo, name, refuse)
        monkeypatch.setattr(bv, name, refuse, raising=False)
    V4 = G.rich_space(4, with_differential=True)
    for kind, mn, mg in (("loop", 3, 2), ("cyclic_ainfty", 4, 0),
                         ("quantum_ainfty", 3, 2), ("qoc", 2, 2)):
        closed = v2 if kind == "qoc" else None
        data = FT.random_algebra(kind, V4, mn, mg, random.Random(3),
                                 closed_space=closed)
        S = bv.generating_function(data)
        assert S.terms
        bv.master_residual(S)
        assert not bv.bv_bracket(S, S).is_zero()
        if kind != "cyclic_ainfty":
            bv.bv_delta(S)


def _reference_rotations(sub, degs):
    """Every rotation of a block, each with its koszul_sign."""
    k = len(sub)
    out = []
    for r in range(k):
        perm = tuple((i - r) % k for i in range(k))
        out.append((apply_perm_to_word(perm, sub), koszul_sign(perm, degs)))
    return out


def test_rotation_signs_match_koszul_sign():
    """The plan's rotation sign, read from a block's odd mask, is the
    koszul_sign of the rotation; its least rotation is the least of all
    rotations, or None when two of them reach it with opposite signs."""
    rng = random.Random(17)
    table = (0, 1, -1, 2, -3)
    parities = tuple(d % 2 for d in table)
    vanishing = 0
    for k in range(9):
        for _ in range(30):
            sub = tuple(rng.randrange(len(table)) for _ in range(k))
            degs = tuple(table[i] for i in sub)
            ref = _reference_rotations(sub, degs)
            odd = odd_mask(sub, parities)
            assert [cb._rotation_sign(odd, r) for r in range(k)] == [
                s for _, s in ref]
            if not k:
                continue
            least = min(cand for cand, _ in ref)
            signs = {s for cand, s in ref if cand == least}
            expected = None if len(signs) > 1 else (least, signs.pop(), odd)
            assert cb._least_rotation(sub, parities) == expected
            vanishing += expected is None
    assert vanishing


def _reference_blocks(kind, key):
    """The (start, length) cycle blocks of the representative of key and
    the first slot of its freely permuted tail."""
    n = FT.key_arity(key)
    if kind == "loop":
        return [], 0
    if kind == "cyclic_ainfty":
        return [(0, n)] if n else [], n
    return rep_cycle_slots(key.bseq), n


def _reference_sort_with_sign(word, table):
    """Sorted word and the Koszul sign of the sorting permutation."""
    perm = invert_perm(sorted(range(len(word)), key=lambda i: (word[i], i)))
    return apply_perm_to_word(perm, word), koszul_sign(
        perm, tuple(table[k] for k in word)
    )


def _reference_canonical(kind, key, table, word):
    """The canonical form of a word as a class of the key, built from every
    rotation of every block: (canonical word, sign) or (None, 0)."""
    blocks, tail_start = _reference_blocks(kind, key)
    word = tuple(word)
    sign = 1
    pieces = []
    for start, length in blocks:
        sub = word[start : start + length]
        degs = tuple(table[k] for k in sub)
        best = None
        best_signs = set()
        for cand, s in _reference_rotations(sub, degs):
            if best is None or cand < best:
                best, best_signs = cand, {s}
            elif cand == best:
                best_signs.add(s)
        if len(best_signs) > 1:
            return None, 0
        sign *= best_signs.pop()
        pieces.append((length, best, sum(degs)))
    # arrange equal-length blocks in word order
    by_len = {}
    for length, sub, deg in pieces:
        by_len.setdefault(length, []).append((sub, deg))
    out = []
    for length in sorted(by_len):
        group = by_len[length]
        order = sorted(range(len(group)), key=lambda i: (group[i][0], i))
        # Koszul sign of permuting the blocks into sorted order
        sign *= koszul_sign(invert_perm(order), tuple(deg for _, deg in group))
        blocks = [group[i] for i in order]
        for (s1, deg), (s2, _) in zip(blocks, blocks[1:]):
            if s1 == s2 and deg % 2:
                return None, 0
        for sub, _ in blocks:
            out.extend(sub)
    tail = word[tail_start:]
    if tail:
        wc, sc = _reference_sort_with_sign(tail, table)
        for a, b in zip(wc, wc[1:]):
            if a == b and table[a] % 2:
                return None, 0
        sign *= sc
        out.extend(wc)
    return tuple(out), sign


def _reference_stab_word_size(kind, key, table, word0):
    """Number of stabilizer elements fixing the canonical word, counting
    the rotations of each block that fix it."""
    blocks, tail_start = _reference_blocks(kind, key)
    size = 1
    subs = []
    for start, length in blocks:
        sub = word0[start : start + length]
        subs.append((length, sub))
        size *= sum(
            1
            for cand, _ in _reference_rotations(sub, tuple(table[k] for k in sub))
            if cand == sub
        )
    for _, grp in itertools.groupby(subs):
        size *= math.factorial(len(list(grp)))
    for _, grp in itertools.groupby(word0[tail_start:]):
        size *= math.factorial(len(list(grp)))
    return size


def _stab_word_size(kind, key, table, word):
    """Number of stabilizer elements fixing the word: the stabilizer's
    order over the size of the word's orbit."""
    shape = FT.stab_shape(kind, key)
    orbit, _ = cb._word_orbit(word, cb.stabilizer_moves(*shape),
                              tuple(d % 2 for d in table))
    return cb.stabilizer_size(*shape) // len(orbit)


@functools.lru_cache(maxsize=None)
def _stab_group(kind, key):
    """Full stabilizer of the representative, as slot permutations (n! of
    them for a loop key of arity n), by a walk over the products of its
    generators.  The library walks orbits instead
    (``combinatorics.symmetrize``)."""
    n = FT.key_arity(key) + FT.key_closed(key)
    gens = FT.stab_generators(kind, key)
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = tuple(s[p[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(group))


@pytest.mark.parametrize("kind, max_n, max_genus2", [
    ("loop", 4, 4), ("cyclic_ainfty", 5, 0), ("quantum_ainfty", 4, 4),
    ("qoc", 3, 2),
])
@pytest.mark.parametrize("space", [G.rich_space(4), _mixed_space([-1, -1])],
                         ids=["rich", "mixed"])
def test_symmetry_plan_matches_reference(kind, max_n, max_genus2, space):
    """On every word of every key, the symmetry plan gives the canonical
    form and sign that the all-rotations reference gives, and the word's
    orbit is as large as the stabilizer's order over the reference's count
    of the elements fixing the canonical word."""
    cspace = space if kind == "qoc" else None
    table = space.degrees + (cspace.degrees if cspace else ())
    dim = space.dim
    vanishing = fixed = 0
    for key in FT.enumerate_keys(kind, max_n, max_genus2):
        plan = bv._symmetry(kind, key, table)
        n, c = FT.key_arity(key), FT.key_closed(key)
        for wo in itertools.product(range(dim), repeat=n):
            for wc in itertools.product(range(dim, 2 * dim), repeat=c):
                word = wo + wc
                got = plan.canonical(word)
                assert got == _reference_canonical(kind, key, table, word), (
                    key, word)
                if got[0] is None:
                    vanishing += 1
                    continue
                size = _stab_word_size(kind, key, table, word)
                assert size == _reference_stab_word_size(kind, key, table,
                                                         got[0]), (key, word)
                fixed += size > 1
    assert vanishing and fixed


@pytest.mark.parametrize("kind, key", [
    ("cyclic_ainfty", FT.CyclicKey(4)),
    ("quantum_ainfty", FT.QuantumKey((1, 2, 2), 0)),
    ("qoc", FT.QocKey((0, 1, 1), 0, 2)),
])
def test_stab_word_size_matches_rotation_count(kind, key):
    """The stabilizer's order over the size of a canonical word's orbit
    counts the stabilizer elements fixing the word; with the koszul_sign
    rotations it counts the same."""
    table = (0, 1, -1, 2, 0, -1)
    sym = cb.WordSymmetry(*FT.stab_shape(kind, key),
                          tuple(d % 2 for d in table))
    n, c = FT.key_arity(key), FT.key_closed(key)
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        word = tuple(rng.randrange(2) for _ in range(n)) + tuple(
            4 + rng.randrange(2) for _ in range(c))
        w0, _ = sym.canonical(word)
        if w0 is None:
            continue
        seen += 1
        size = _reference_stab_word_size(kind, key, table, w0)
        assert _stab_word_size(kind, key, table, w0) == size
        assert size == sum(
            1 for s in _stab_group(kind, key) if apply_perm_to_word(s, w0) == w0
        )
    assert seen


def _reference_random_invariant_map(rng, kind, space, cspace, key):
    """random_invariant_map, at its default density and numerators, as a
    walk over the whole stabilizer: the same random values on the same
    words, each moved by every group element."""
    n, c = FT.key_arity(key), FT.key_closed(key)
    table = space.degrees + (cspace.degrees if cspace else ())
    raw = {}
    for w in FT._words_for_dims(kind, space.dim, cspace.dim if cspace else 0,
                                n, c):
        if sum(table[k] for k in w) != 0:
            continue
        if rng.random() < 0.6:
            num = rng.randint(-3, 3)
            if num:
                raw[w] = Fr(num, rng.randint(1, 3))
    entries = {}
    for s in _stab_group(kind, key):
        inv = invert_perm(s)
        for w, v in raw.items():
            sign = koszul_sign(inv, tuple(table[k] for k in w))
            nw = apply_perm_to_word(inv, w)
            entries[nw] = entries.get(nw, Fr(0)) + (v if sign > 0 else -v)
    return {w: v for w, v in entries.items() if v}


def _reference_expand(kind, key, table, comp):
    """WordSymmetry.expand as a walk over the whole stabilizer: each word of
    a class's orbit gets the coefficient times the reference count of the
    elements fixing the class word, with the sign of the first element
    reaching it."""
    degrees = tuple(table)
    entries = {}
    for w0, c in comp.items():
        base = c * _reference_stab_word_size(kind, key, table, w0)
        for s in _stab_group(kind, key):
            w = apply_perm_to_word(s, w0)
            if w not in entries:
                sign = koszul_sign(s, tuple(degrees[k] for k in w0))
                entries[w] = base if sign > 0 else -base
    return entries


SYMMETRY_BOUNDS = [("loop", 5, 4), ("cyclic_ainfty", 6, 0),
                   ("quantum_ainfty", 4, 4), ("qoc", 3, 2)]


@pytest.mark.parametrize("kind, max_n, max_genus2", SYMMETRY_BOUNDS)
@pytest.mark.parametrize("space", [G.rich_space(4), _mixed_space([-1, -1])],
                         ids=["rich", "mixed"])
def test_random_invariant_map_matches_group_walk(kind, max_n, max_genus2,
                                                 space):
    """The orbit walk of random_invariant_map gives the entries of the walk
    over the whole stabilizer, from the same random draws, for every key."""
    cspace = space if kind == "qoc" else None
    compared = 0
    for seed in (0, 1, 2):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for key in FT.enumerate_keys(kind, max_n, max_genus2):
            f = FT.random_invariant_map(rng, kind, space, cspace, key)
            ref = _reference_random_invariant_map(ref_rng, kind, space,
                                                  cspace, key)
            assert f.entries == ref, (seed, key)
            assert rng.getstate() == ref_rng.getstate()
            compared += len(ref)
    assert compared


@pytest.mark.parametrize("kind, max_n, max_genus2", SYMMETRY_BOUNDS)
@pytest.mark.parametrize("space", [G.rich_space(4), _mixed_space([-1, -1])],
                         ids=["rich", "mixed"])
def test_expand_matches_group_walk(kind, max_n, max_genus2, space):
    """expand gives the entries of the walk over the whole stabilizer on
    random class dicts with integer and rational coefficients, and on the
    classes of random stored maps."""
    cspace = space if kind == "qoc" else None
    table = space.degrees + (cspace.degrees if cspace else ())
    dim = space.dim
    for seed in (3, 4):
        rng = random.Random(seed)
        for key in FT.enumerate_keys(kind, max_n, max_genus2):
            plan = bv._symmetry(kind, key, table)
            n, c = FT.key_arity(key), FT.key_closed(key)
            comp = {}
            for _ in range(12):
                word = tuple(rng.randrange(dim) for _ in range(n)) + tuple(
                    dim + rng.randrange(dim) for _ in range(c))
                w0, _ = plan.canonical(word)
                if w0 is not None:
                    comp[w0] = rng.choice([rng.randint(1, 5),
                                           Fr(-rng.randint(1, 5), 3)])
            assert plan.expand(comp) == _reference_expand(kind, key, table,
                                                          comp), (seed, key)
            f = FT.random_invariant_map(rng, kind, space, cspace, key)
            x = bv.series_from_maps(kind, space, cspace, {key: f.entries})
            classes = x.component(key)
            assert plan.expand(classes) == _reference_expand(
                kind, key, table, classes) == f.entries


def test_stab_group_is_the_relabelling_stabilizer():
    """_stab_group is the set of colour-preserving slot permutations that fix
    the representative under ``relabel``, and _stab_size is its order, for
    every key with open arity <= 5, closed arity <= 2 and doubled genus
    <= 4."""
    kinds = set()
    for kind in FT.ALGEBRA_KINDS:
        for key in FT.enumerate_keys(kind, 7, 4):
            n, c = FT.key_arity(key), FT.key_closed(key)
            if n > 5 or c > 2:
                continue
            kinds.add(kind)
            rep = FT.representative(key)
            fixed = set()
            for so, sc in itertools.product(itertools.permutations(range(n)),
                                            itertools.permutations(range(n, n + c))):
                rho = {l: so[l - 1] + 1 for l in range(1, n + 1)}
                rho_c = {l: sc[l - 1] - n + 1 for l in range(1, c + 1)}
                if op.relabel(rep, rho, rho_c) == rep:
                    fixed.add(so + sc)
            assert set(_stab_group(kind, key)) == fixed, (kind, key)
            assert bv._stab_size(kind, key) == len(fixed)
    assert kinds == set(FT.ALGEBRA_KINDS)


def test_end_weights_match_the_section():
    """The orbit weights of single ends and ordered pairs of ends are the
    coset section's multiplicities over the factorials of the slots that
    stay, on the same least tuples: every key of the four kinds up to arity
    5 and genus2 4, both colours."""
    seen = set()
    for kind in FT.ALGEBRA_KINDS:
        for key in FT.enumerate_keys(kind, 5, 4):
            for colour in ("open", "closed"):
                for k in (1, 2):
                    expected = {
                        t: Fr(m, _rest_factorial(key, colour, k))
                        for t, m in _section_counts(kind, key, colour, k).items()
                    }
                    assert bv._end_weights(kind, key, colour, k) == expected, (
                        kind, key, colour, k)
                    if expected:
                        seen.add((kind, colour, k))
    assert len(seen) == 4 * 2 + 2


def _reference_diff(x):
    """bv_diff with every contribution added by add_term in Fractions."""
    out = bv.BVElement(x.kind, x.space, x.cspace)
    for key in x.terms:
        stab = bv._stab_size(x.kind, key)
        for w, v in G.functional_differential(x.functional(key)).entries.items():
            out.add_term(key, w, v / stab)
    return out


def _coprime_element(rng, kind, space, cspace, keys, parity):
    """A random element whose class coefficients have the denominators 2,
    3, 5 and 7."""
    x = _random_element(rng, kind, space, cspace, keys, parity)
    out = bv.BVElement(kind, space, cspace)
    for key, comp in x.terms.items():
        for w, v in comp.items():
            out.add_term(key, w, Fr(v.numerator, rng.choice((2, 3, 5, 7))))
    return out


def _all_nonzero_fractions(x):
    return all(type(v) is Fr and v for comp in x.terms.values()
               for v in comp.values())


class TestCommonDenominator:
    """The operations sum integer numerators over one denominator per call:
    per factor the lcm of its class coefficients' denominators times the
    lcm of its weights', times the lcm of the inverse pairing's.  With
    coefficients over 2, 3, 5 and 7 and a pairing over 9 they still equal
    the Fraction references exactly."""

    @pytest.mark.parametrize("kind", ["loop", "cyclic_ainfty",
                                      "quantum_ainfty", "qoc"])
    def test_bracket(self, kind):
        space = _mixed_space([-1, -1])  # inverse pairing over 9
        cspace = _mixed_space([0, 0]) if kind == "qoc" else None
        keys = FT.enumerate_keys(kind, *TestPlannedJoins.BOUNDS[kind])
        rng = random.Random(f"coprime {kind}")
        a = _coprime_element(rng, kind, space, cspace, keys, "mixed")
        b = _coprime_element(rng, kind, space, cspace, keys, 1)
        assert {v.denominator for comp in a.terms.values()
                for v in comp.values()} >= {2, 3, 5, 7}
        for got, ref in ((bv.bv_bracket(a, b), _reference_bracket(a, b)),
                         (bv.bv_bracket(a, a), _reference_bracket(a, a))):
            assert got.terms and got.terms == ref.terms
            assert _all_nonzero_fractions(got)

    @pytest.mark.parametrize("kind, max_n, max_genus2", [
        ("loop", 4, 2), ("quantum_ainfty", 4, 2), ("qoc", 3, 2),
    ])
    def test_delta(self, kind, max_n, max_genus2):
        """Bounds at which some contraction scale has a denominator."""
        space = _mixed_space([-1, -1])
        cspace = _mixed_space([0, 0]) if kind == "qoc" else None
        keys = FT.enumerate_keys(kind, max_n, max_genus2)
        rng = random.Random(f"coprime delta {kind}")
        a = _coprime_element(rng, kind, space, cspace, keys, "mixed")
        got = bv.bv_delta(a)
        assert got.terms and got.terms == _reference_delta(a).terms
        assert _all_nonzero_fractions(got)

    def test_per_colour_pairing_denominator(self):
        """Open pairing over 9, closed pairing over 1: each colour's integer
        pairing is over its own lcm, so the closed joins must carry the
        factor 9 of the common one."""
        space, cspace = _mixed_space([-1, -1]), G.block_space([0, 0])
        assert (space.pairing.den, cspace.pairing.den) == (9, 1)
        keys = FT.enumerate_keys("qoc", 3, 2)
        rng = random.Random("per-colour pairing")
        a = _coprime_element(rng, "qoc", space, cspace, keys, "mixed")
        b = _coprime_element(rng, "qoc", space, cspace, keys, 1)
        for x, y in ((a, b), (a, a)):
            assert _reference_bracket(x, y, colours=("closed",)).terms
            got, ref = bv.bv_bracket(x, y), _reference_bracket(x, y)
            assert got.terms and got.terms == ref.terms
            assert _all_nonzero_fractions(got)
        assert _reference_delta(a, colours=("closed",)).terms
        got = bv.bv_delta(a)
        assert got.terms and got.terms == _reference_delta(a).terms
        assert _all_nonzero_fractions(got)

    @pytest.mark.parametrize("kind, max_n, max_genus2", [
        ("loop", 4, 4), ("cyclic_ainfty", 4, 0), ("quantum_ainfty", 3, 4),
    ])
    def test_diff(self, v4, kind, max_n, max_genus2):
        keys = FT.enumerate_keys(kind, max_n, max_genus2)
        rng = random.Random(f"coprime diff {kind}")
        a = _coprime_element(rng, kind, v4, None, keys, "mixed")
        got = bv.bv_diff(a)
        assert got.terms and got.terms == _reference_diff(a).terms
        assert _all_nonzero_fractions(got)


def _reference_poly_left_derivative(word, i, table):
    """Summands of the left derivative at variable i: (rest, sign).

    The derivative moves past the preceding variables with the Koszul sign
    of its own parity against theirs, which is what consistency on the
    graded symmetric algebra forces.
    """
    out = []
    di = table[i] % 2
    prefix = 0
    for k, idx in enumerate(word):
        if idx == i:
            out.append((word[:k] + word[k + 1 :], -1 if (di * prefix) % 2 else 1))
        prefix += table[idx]
    return out


def _reference_poly_right_derivative(word, i, table):
    out = []
    di = table[i] % 2
    total = sum(table[k] for k in word)
    prefix = 0
    for k, idx in enumerate(word):
        if idx == i:
            suffix = total - prefix - table[idx]
            out.append((word[:k] + word[k + 1 :], -1 if (di * suffix) % 2 else 1))
        prefix += table[idx]
    return out


def _reference_qc_poly_delta(x):
    """qc_poly_delta as a dense loop over the inverse pairing, one
    ``add_term`` per summand."""
    bv._require_loop(x)
    inv = G.invert_matrix(x.space.omega)
    table = x.space.degrees
    dim = x.space.dim
    out = bv.BVElement(x.kind, x.space, None)
    for key, comp in x.terms.items():
        out_key = FT.LoopKey(key.n - 2, key.genus + 1) if key.n >= 2 else None
        if out_key is None:
            continue
        for w, c in comp.items():
            # the transferred operation twists odd classes by a sign
            cc = -c if sum(table[k] for k in w) % 2 else c
            for i in range(dim):
                for j in range(dim):
                    wij = inv[i][j]
                    if not wij:
                        continue
                    coeff = -wij if table[i] % 2 else wij
                    for rest1, s1 in _reference_poly_left_derivative(w, j, table):
                        for rest2, s2 in _reference_poly_left_derivative(
                                rest1, i, table):
                            out.add_term(out_key, rest2, coeff * s1 * s2 * cc)
    return out


def _reference_qc_poly_bracket(x, y):
    """qc_poly_bracket as a dense loop over the inverse pairing, one sort
    and one ``add_term`` per summand."""
    bv._require_loop(x)
    bv._require_loop(y)
    bv._same_home(x, y)
    inv = G.invert_matrix(x.space.omega)
    table = x.space.degrees
    dim = x.space.dim
    out = bv.BVElement(x.kind, x.space, None)
    for key1, comp1 in x.terms.items():
        for key2, comp2 in y.terms.items():
            if key1.n < 1 or key2.n < 1:
                continue
            out_key = FT.LoopKey(key1.n + key2.n - 2, key1.genus + key2.genus)
            for w1, c1 in comp1.items():
                p1 = sum(table[k] for k in w1) % 2
                for w2, c2 in comp2.items():
                    p2 = sum(table[k] for k in w2) % 2
                    # the transferred bracket twists by the factor parities
                    cc = c1 * c2
                    if ((p1 + 1) * p2) % 2:
                        cc = -cc
                    for i in range(dim):
                        for j in range(dim):
                            wij = inv[i][j]
                            if not wij:
                                continue
                            for r1, s1 in _reference_poly_right_derivative(
                                    w1, i, table):
                                for r2, s2 in _reference_poly_left_derivative(
                                        w2, j, table):
                                    # sorted with its own Koszul sign,
                                    # apart from the symmetry plan
                                    word = r1 + r2
                                    perm = invert_perm(sorted(
                                        range(len(word)),
                                        key=lambda p: (word[p], p)))
                                    sm = koszul_sign(perm, tuple(
                                        table[k] for k in word))
                                    out.add_term(
                                        out_key, apply_perm_to_word(perm, word),
                                        wij * s1 * s2 * sm * cc,
                                    )
    return out


def _criterion_7_pairs():
    """Criterion 7's 20 pairs of random closed-surface series."""
    V4 = G.rich_space(4, with_differential=True)
    keys = FT.enumerate_keys("loop", 4, 4)
    rng = random.Random(70)
    pairs = []
    for _ in range(20):
        x = bv.random_bv_element(rng, "loop", V4, None, keys,
                                 parity=rng.choice([0, 1]), density=0.4)
        y = bv.random_bv_element(rng, "loop", V4, None, keys,
                                 parity=rng.choice([0, 1]), density=0.4)
        pairs.append((x, y))
    return pairs


class TestPolynomialForms:
    def test_derivatives_match_the_one_variable_forms(self, v4c):
        """The one-pass helper lists, per letter, the summands of the left
        and right derivatives at that letter, in the word's order."""
        table = v4c.degrees
        for n in range(5):
            for w in itertools.product(range(v4c.dim), repeat=n):
                for right, ref in ((False, _reference_poly_left_derivative),
                                   (True, _reference_poly_right_derivative)):
                    got = bv._poly_derivatives(w, table, right)
                    for i in range(v4c.dim):
                        assert [(rest, s) for a, rest, s in got if a == i] == \
                            ref(w, i, table), (w, i, right)

    def test_match_dense_oracles_on_criterion_7(self):
        for x, y in _criterion_7_pairs():
            assert bv.qc_poly_delta(x).terms == _reference_qc_poly_delta(x).terms
            assert bv.qc_poly_bracket(x, y).terms == \
                _reference_qc_poly_bracket(x, y).terms

    @pytest.mark.parametrize("dim", [2, 4])
    def test_match_dense_oracles_on_random_series(self, v2, v4, dim):
        """Both parities, keys of arity 0 and 1 (which both forms skip),
        and the zero element."""
        space = v2 if dim == 2 else v4
        rng = random.Random(100 + dim)
        keys = FT.enumerate_keys("loop", 4, 4)
        assert {FT.key_arity(k) for k in keys} >= {0, 1}
        series = [bv.BVElement("loop", space, None)] + [
            bv.random_bv_element(rng, "loop", space, None, keys, parity=parity)
            for parity in (0, 1)]
        series[1].add_term(FT.LoopKey(0, 2), (), Fr(3))
        assert all(x.terms for x in series[1:])
        assert {FT.key_arity(k) for x in series for k in x.terms} >= {0, 1}
        for x in series:
            assert bv.qc_poly_delta(x).terms == _reference_qc_poly_delta(x).terms
            for y in series:
                assert bv.qc_poly_bracket(x, y).terms == \
                    _reference_qc_poly_bracket(x, y).terms

    def test_does_not_share_the_planned_joins(self, monkeypatch, v4):
        """The polynomial forms are a route of their own: with the planned
        joins of the transferred operations, their integer functionals and
        their sign-form kernels made to raise, they still equal their
        dense oracles."""
        rng = random.Random(12)
        keys = FT.enumerate_keys("loop", 4, 4)
        x = bv.random_bv_element(rng, "loop", v4, None, keys, parity=0)
        y = bv.random_bv_element(rng, "loop", v4, None, keys, parity=1)
        expected = [_reference_qc_poly_delta(x).terms,
                    _reference_qc_poly_bracket(x, y).terms,
                    _reference_qc_poly_bracket(y, x).terms]
        assert all(expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the polynomial forms used the planned joins")

        for name in ("_bracket_plan", "_delta_plan", "_end_weights",
                     "_split_at_end", "_bracket_join", "_integer_functionals",
                     "form_at", "mask_sign"):
            monkeypatch.setattr(bv, name, refuse)
        assert [bv.qc_poly_delta(x).terms, bv.qc_poly_bracket(x, y).terms,
                bv.qc_poly_bracket(y, x).terms] == expected

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

    def test_bracket_refuses_other_spaces(self, v2, v4):
        """The two series of a bracket live on one space: in either order,
        factors on spaces of dimensions 4 and 2 raise ``LabelMismatch``."""
        rng = random.Random(5)
        keys = FT.enumerate_keys("loop", 4, 4)
        x = bv.random_bv_element(rng, "loop", v4, None, keys, density=1.0)
        y = bv.random_bv_element(rng, "loop", v2, None, keys, density=1.0)
        assert x.terms and y.terms
        for a, b in ((x, y), (y, x)):
            with pytest.raises(LabelMismatch):
                bv.qc_poly_bracket(a, b)

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
    the element that adding them one by one gives, whether the sums are
    Fractions or integer numerators over a common denominator."""

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
            group = _stab_group(kind, key)
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
        # the same sums as integer numerators over a common denominator
        denom = math.lcm(*(v.denominator for v in raw.values()))
        assert denom > 1
        numerators = {rk: int(v * denom) for rk, v in raw.items()}
        got = bv._add_raw(bv.BVElement(kind, v2, cspace), numerators, denom)
        assert got.terms == ref.terms
        assert _all_nonzero_fractions(got)


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
        """The two one-letter blocks go onto the key's two one-cycles in
        subscript order, and exchanging their arguments changes the value
        by exactly their Koszul sign."""
        T = self.data.tensor(FT.QuantumKey((0, 2, 1), 0))
        degs = self.space.degrees
        flips = 0
        for args in itertools.product(range(4), repeat=4):
            d0, d1, d2, d3 = (degs[k] for k in args)
            lhs = bv.string_vertex_F(self.data, 0, 3, (2, 1, 1), args)
            sgn = -1 if ((d0 + d1) * (d2 + d3)) % 2 else 1
            assert lhs == -Fr(1, 2) * sgn * T.get(args[2:] + args[:2], Fr(0))
            swapped = args[:2] + (args[3], args[2])
            swap = -1 if (d2 * d3) % 2 else 1
            assert lhs == swap * bv.string_vertex_F(self.data, 0, 3, (2, 1, 1),
                                                    swapped)
            flips += lhs != 0 and swap < 0
        assert flips

    def test_vertex_with_empty_blocks(self):
        for args in itertools.product(range(4), repeat=2):
            got = bv.string_vertex_V(self.data, 0, (0, 2, 0), args)
            want = 2 * bv.string_vertex_F(self.data, 0, 3, (2,), args)
            assert got == want


def _reference_herbst_generating_function(data, max_n, max_genus2):
    """herbst_generating_function mapping each target word back through the
    vertex's block permutation and evaluating it through string_vertex_F,
    with a second Koszul sign for the canonicalizing permutation."""
    if data.kind != "quantum_ainfty":
        raise KindMismatch("the block-indexed series needs open-surface data")
    out = bv.BVElement(data.kind, data.space, None)
    table = data.space.degrees
    for n in range(0, max_n + 1):
        for bbar in range(0 if n == 0 else 1, n + 1):
            for comp in bv._compositions(n, bbar):
                for g in range(0, max_genus2 // 4 + 1):
                    for b0 in range(0, max_genus2 // 2 + 2):
                        b = bbar + b0
                        genus2 = 4 * g + 2 * b - 2
                        if genus2 > max_genus2 or genus2 + n <= 2:
                            continue
                        cycles = []
                        nxt = 1
                        for l in comp:
                            cycles.append(tuple(range(nxt, nxt + l)))
                            nxt += l
                        elem = op.qo_surface(cycles, b0, g)
                        rep, sigma = op.canonical_perm(elem)
                        key = FT.key_of("quantum_ainfty", rep)
                        denom = math.factorial(bbar)
                        for l in comp:
                            denom *= l
                        _, vkey, vperm = bv._vertex_plan(data.kind, g, b, comp, 0)
                        back = word_getter(vperm)
                        for target in data.tensor(vkey):
                            word = back(target)
                            val = bv.string_vertex_F(data, g, b, comp, word)
                            if not val:
                                continue
                            sign = koszul_sign(
                                sigma, tuple(table[k] for k in word)
                            )
                            out.add_term(
                                key, apply_perm_to_word(sigma, word),
                                Fr(-2, denom) * sign * val,
                            )
    return out.prune()


def _criterion_9_data(seed):
    """Criterion 9's random minimal data set of one seed."""
    space = G.rich_space(4)
    rng = random.Random(seed)
    maps = {}
    for key in FT.enumerate_keys("quantum_ainfty", 5, 4):
        if key.bseq[0] > 0:
            continue
        f = FT.random_invariant_map(rng, "quantum_ainfty", space, None,
                                    key, density=0.4)
        if f.entries:
            maps[key] = f
    return FT.AlgebraData(kind="quantum_ainfty", space=space, maps=maps)


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

    def test_does_not_share_the_residual_enumerators(self, monkeypatch):
        """The block-indexed relation has its own merged-cycle and
        split-cycle loops: with the enumerators of the open-surface families
        and the joins of the hand-coded residuals made to raise, it still
        matches the quantum residual it is compared with."""
        data = self._minimal_data()
        keys = [k for k in FT.enumerate_keys("quantum_ainfty", 3, 4)
                if k.bseq[0] == 0]
        expected = {k: FT.quantum_residual(data, k.bseq, k.g).entries for k in keys}
        assert any(expected.values())

        def refuse(*args, **kwargs):
            raise AssertionError("the relation used the residual enumerators")

        for name in ("_open_contractions", "_open_splittings", "_closed_splittings"):
            monkeypatch.setattr(op, name, refuse)
        for name in ("_glue_join", "_pull_back", "_self_glue"):
            monkeypatch.setattr(FT, name, refuse)
            monkeypatch.setattr(bv, name, refuse, raising=False)
        for key in keys:
            for w in itertools.product(range(data.space.dim), repeat=FT.key_arity(key)):
                assert 4 * bv.herbst_residual(data, key.bseq, key.g, w) == \
                    expected[key].get(w, Fr(0))

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

    def test_generating_function_matches_round_trip(self):
        """One planned move per shape gives the series that the round trip
        through string_vertex_F gives, term for term."""
        for data, bounds in [(self._minimal_data(), ((4, 4), (5, 4)))] + [
                (_criterion_9_data(seed), ((5, 4),)) for seed in range(900, 910)]:
            for max_n, max_genus2 in bounds:
                got = bv.herbst_generating_function(data, max_n, max_genus2)
                assert got.terms
                assert got.terms == _reference_herbst_generating_function(
                    data, max_n, max_genus2).terms

    def test_generating_function_canonicalizes_only_stored_shapes(self, monkeypatch):
        """The series canonicalizes the surface of a (composition, genus,
        empty boundaries) shape only when the shape's vertex has a stored
        word: the reference, which canonicalizes every shape, lists the
        shapes, and those without a stored tensor are skipped."""
        data = _criterion_9_data(900)
        real = op.canonical_perm
        seen = []

        def counting(x):
            seen.append(x)
            return real(x)

        monkeypatch.setattr(op, "canonical_perm", counting)
        want = _reference_herbst_generating_function(data, 5, 4).terms
        stored = [x for x in seen if data.tensor(FT.key_of(data.kind, x))]
        assert 0 < len(stored) < len(seen)
        seen.clear()
        assert bv.herbst_generating_function(data, 5, 4).terms == want
        assert seen == stored


def _reference_herbst_residual(data, bseq, g, args, families=None):
    """herbst_residual evaluated term by term through string_vertex_F, one
    Koszul sign for the reordering and one per vertex; ``families`` picks
    some of "merged", "split" and "splitting"."""
    families = families or ("merged", "split", "splitting")
    bv._check_minimal(data)
    bseq = trim_bseq(bseq)
    if bseq[0] != 0:
        raise PreconditionViolated("the relation is indexed by profiles without "
                                   "empty boundaries")
    rep = FT.representative(FT.QuantumKey(bseq, g))
    cyc = list(rep.cycles)
    nb = len(cyc)
    n = rep.arity
    args = tuple(args)
    if len(args) != n:
        raise PreconditionViolated("argument word has the wrong length")
    space = data.space
    table = space.degrees
    dim = space.dim
    P = space.pairing.matrix
    slot_of = {}
    for c in cyc:
        for l in c:
            slot_of[l] = l + 1  # source index: 0 = a, 1 = b, label l at l+1
    arg_degs = tuple(table[k] for k in args)

    def koszul_to(sources, d, e):
        degs = (table[d], table[e]) + arg_degs
        return koszul_sign(invert_perm(sources), degs)

    def vword(labels):
        return tuple(args[l - 1] for l in labels)

    acc = Fr(0)
    # merged-cycle terms
    for i in range(nb if "merged" in families else 0):
        for j in range(i + 1, nb):
            ci, cj = cyc[i], cyc[j]
            rest = [cyc[k] for k in range(nb) if k not in (i, j)]
            rest_labels = [l for c in rest for l in c]
            for p in range(len(ci)):
                for q in range(len(cj)):
                    blocks = (len(ci) + len(cj) + 2,) + tuple(len(c) for c in rest)
                    sources = tuple(
                        [0] + [slot_of[l] for l in ci[p:] + ci[:p]]
                        + [1] + [slot_of[l] for l in cj[q:] + cj[:q]]
                        + [slot_of[l] for l in rest_labels]
                    )
                    for d in range(dim):
                        for e in range(dim):
                            if not P[d][e]:
                                continue
                            word = (d,) + vword(ci[p:] + ci[:p]) + (e,) \
                                + vword(cj[q:] + cj[:q]) + vword(rest_labels)
                            val = bv.string_vertex_F(
                                data, g, rep.boundaries - 1, blocks, word
                            )
                            if val:
                                acc += P[d][e] * koszul_to(sources, d, e) * val
    # split-cycle terms
    if g >= 1 and "split" in families:
        for m in range(nb):
            cm = cyc[m]
            L = len(cm)
            rest = [cyc[k] for k in range(nb) if k != m]
            rest_labels = [l for c in rest for l in c]
            for s in range(L):
                wordm = cm[s:] + cm[:s]
                for l in range(L - s, L + 1):
                    arc1, arc2 = wordm[:l], wordm[l:]
                    blocks = (l + 1, L - l + 1) + tuple(len(c) for c in rest)
                    sources = tuple(
                        [0] + [slot_of[x] for x in arc1]
                        + [1] + [slot_of[x] for x in arc2]
                        + [slot_of[x] for x in rest_labels]
                    )
                    for d in range(dim):
                        for e in range(dim):
                            if not P[d][e]:
                                continue
                            word = (d,) + vword(arc1) + (e,) + vword(arc2) \
                                + vword(rest_labels)
                            val = bv.string_vertex_F(
                                data, g - 1, rep.boundaries + 1, blocks, word
                            )
                            if val:
                                acc += P[d][e] * koszul_to(sources, d, e) * val
    # splitting terms (the right-hand side, weighted by one half)
    rhs = Fr(0)
    for m in range(nb if "splitting" in families else 0):
        cm = cyc[m]
        L = len(cm)
        others = [k for k in range(nb) if k != m]
        for r in range(len(others) + 1):
            for I in itertools.combinations(others, r):
                setI = set(I)
                J = tuple(k for k in others if k not in setI)
                cyc1 = [cyc[k] for k in I]
                cyc2 = [cyc[k] for k in J]
                lab1 = [l for c in cyc1 for l in c]
                lab2 = [l for c in cyc2 for l in c]
                for g1 in range(g + 1):
                    g2 = g - g1
                    for s in range(L):
                        wordm = cm[s:] + cm[:s]
                        for l in range(L + 1):
                            arc1, arc2 = wordm[:l], wordm[l:]
                            if not (g1 > 0 or I or l >= 2):
                                continue
                            if not (g2 > 0 or J or L - l >= 2):
                                continue
                            blocks1 = (l + 1,) + tuple(len(c) for c in cyc1)
                            blocks2 = (L - l + 1,) + tuple(len(c) for c in cyc2)
                            sources = tuple(
                                [0] + [slot_of[x] for x in arc1]
                                + [slot_of[x] for x in lab1]
                                + [1] + [slot_of[x] for x in arc2]
                                + [slot_of[x] for x in lab2]
                            )
                            for d in range(dim):
                                for e in range(dim):
                                    if not P[d][e]:
                                        continue
                                    w1 = (d,) + vword(arc1) + vword(lab1)
                                    w2 = (e,) + vword(arc2) + vword(lab2)
                                    v1 = bv.string_vertex_F(
                                        data, g1, len(cyc1) + 1, blocks1, w1
                                    )
                                    if not v1:
                                        continue
                                    v2 = bv.string_vertex_F(
                                        data, g2, len(cyc2) + 1, blocks2, w2
                                    )
                                    if not v2:
                                        continue
                                    rhs += (
                                        P[d][e] * koszul_to(sources, d, e) * v1 * v2
                                    )
    return acc - Fr(1, 2) * rhs


class TestPlannedHerbst:
    """herbst_residual, walking its per-profile plan, equals the term-by-term
    evaluation through string_vertex_F on every word of every profile up
    to arity 4 and doubled genus 4."""

    FAMILIES = ("merged", "split", "splitting")

    @pytest.mark.parametrize("space", [
        G.rich_space(4),
        _mixed_space([-1, -1]),  # degrees (-1, 2, -1, 2)
    ], ids=["rich", "mixed"])
    def test_matches_term_by_term_evaluation(self, space):
        rng = random.Random(31)
        maps = {}
        for key in FT.enumerate_keys("quantum_ainfty", 6, 4):
            if key.bseq[0] > 0:
                continue
            f = FT.random_invariant_map(rng, "quantum_ainfty", space, None, key,
                                        density=0.3)
            if f.entries:
                maps[key] = f
        data = FT.AlgebraData(kind="quantum_ainfty", space=space, maps=maps)
        seen = set()
        words = 0
        for key in FT.enumerate_keys("quantum_ainfty", 4, 4):
            if key.bseq[0] > 0:
                continue
            for w in itertools.product(range(space.dim), repeat=FT.key_arity(key)):
                got = bv.herbst_residual(data, key.bseq, key.g, w)
                parts = {
                    family: _reference_herbst_residual(data, key.bseq, key.g, w,
                                                       (family,))
                    for family in self.FAMILIES
                }
                assert got == sum(parts.values()), (key, w)
                seen.update(family for family, v in parts.items() if v)
                words += 1
        assert words and seen == set(self.FAMILIES)


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
