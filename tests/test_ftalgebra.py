"""Algebra data, the generic residual and the hand-coded specializations."""
import json
import random
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from operad_forge import endo
from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge import operads as op
from operad_forge._kernels import precompose_entries
from operad_forge.errors import (
    KeyMissing,
    SymmetryViolation,
    Unstable,
)


@pytest.fixture(scope="module")
def v2():
    return G.rich_space(2)


@pytest.fixture(scope="module")
def v4():
    return G.rich_space(4, with_differential=True)


class TestAlgebraData:
    def test_symmetry_violation_rejected(self, v4):
        # a cyclic map must be invariant under the full rotation
        entries = {(0, 1, 3): Fr(1)}
        f = FT.make_map("cyclic_ainfty", v4, None, FT.CyclicKey(3), entries)
        with pytest.raises(SymmetryViolation):
            FT.AlgebraData(kind="cyclic_ainfty", space=v4, maps={FT.CyclicKey(3): f})

    def test_loop_symmetric_accepted(self, v4):
        rng = random.Random(0)
        f = FT.random_invariant_map(rng, "loop", v4, None, FT.LoopKey(3, 1))
        data = FT.AlgebraData(kind="loop", space=v4, maps={FT.LoopKey(3, 1): f})
        assert data.tensor(FT.LoopKey(3, 1)) == f.entries

    def test_quantum_stabilizer_accepted(self, v4):
        rng = random.Random(1)
        key = FT.QuantumKey((0, 1, 1), 0)
        f = FT.random_invariant_map(rng, "quantum_ainfty", v4, None, key)
        FT.AlgebraData(kind="quantum_ainfty", space=v4, maps={key: f})

    def test_bad_key(self, v4):
        with pytest.raises(Unstable):
            FT.check_key("cyclic_ainfty", FT.CyclicKey(2))
        with pytest.raises(KeyMissing):
            FT.check_key("loop", FT.CyclicKey(4))

    def test_wrong_degree_rejected(self, v4):
        entries = {(0, 0, 0): Fr(1)}  # total degree 0+0+0 with degrees 0,1,-1,2
        f = G.MultiFunctional(space=v4, labels=(1, 2, 3), entries=entries, degree=0)
        sym = f.precompose_slots((1, 0, 2)).entries == f.entries
        bad = G.MultiFunctional(space=v4, labels=(1, 2, 3),
                                entries={(0, 0, 1): Fr(1)}, degree=0)
        with pytest.raises(SymmetryViolation):
            FT.AlgebraData(kind="loop", space=v4, maps={FT.LoopKey(3, 1): bad})


class TestJsonRoundTrip:
    @pytest.mark.parametrize("kind", ["loop", "cyclic_ainfty", "quantum_ainfty"])
    def test_round_trip(self, kind, v4):
        rng = random.Random(3)
        data = FT.random_algebra(kind, v4, 3, 2, rng)
        doc = json.dumps(FT.algebra_to_json(data))
        back = FT.algebra_from_json(json.loads(doc))
        assert back.kind == data.kind
        assert set(back.maps) == set(data.maps)
        for key in data.maps:
            assert back.tensor(key) == data.tensor(key)

    def test_round_trip_two_coloured(self, v2):
        rng = random.Random(4)
        data = FT.random_algebra("qoc", v2, 2, 3, rng, closed_space=v2)
        back = FT.algebra_from_json(json.dumps(FT.algebra_to_json(data)))
        for key in data.maps:
            assert back.tensor(key) == data.tensor(key)


    @pytest.mark.parametrize("kind", ["loop", "cyclic_ainfty", "quantum_ainfty",
                                      "qoc"])
    def test_keys_and_space_round_trip(self, kind, v4):
        keys = FT.enumerate_keys(kind, 3, 2)
        assert keys
        for key in keys:
            doc = json.loads(json.dumps(FT.key_to_json(key)))
            assert FT.key_from_json(kind, doc) == key
        back = G.space_from_json(json.dumps(G.space_to_json(v4)))
        assert back == v4

    @pytest.mark.parametrize("where, field", [
        ("document", "map"),
        ("map", "weight"),
        ("entry", "note"),
        ("key", "genus"),
    ])
    def test_unknown_fields_are_rejected(self, where, field):
        """A misspelled or extra field is malformed input, at every level
        of the file, instead of being read as absent."""
        V = G.rich_space(4)
        key = FT.QuantumKey((0, 0, 0, 1), 0)
        f = FT.random_invariant_map(random.Random(6), "quantum_ainfty", V, None,
                                    key, density=1.0)
        data = FT.AlgebraData(kind="quantum_ainfty", space=V, maps={key: f})
        doc = FT.algebra_to_json(data)
        assert FT.algebra_from_json(doc).tensor(key) == f.entries
        if where == "document":
            doc[field] = doc.pop("maps")
        elif where == "map":
            doc["maps"][0][field] = 1
        elif where == "entry":
            doc["maps"][0]["entries"][0][field] = "x"
        else:
            doc["maps"][0]["key"][field] = 7
        with pytest.raises(ValueError, match=f"unknown field '{field}'"):
            FT.algebra_from_json(doc)


class TestEquivariantExtension:
    def test_relabelled_element(self, v4):
        import operad_forge.operads as op

        rng = random.Random(5)
        key = FT.QuantumKey((0, 1, 1), 0)
        f = FT.random_invariant_map(rng, "quantum_ainfty", v4, None, key)
        data = FT.AlgebraData(kind="quantum_ainfty", space=v4, maps={key: f})
        x = op.qo_surface([(2,), (1, 3)])  # a non-representative element
        fx = FT.functional_for(data, x)
        assert fx.labels == (1, 2, 3)
        assert not fx.is_zero()
        # the representative itself returns the stored tensor
        rep = FT.representative(key)
        assert FT.functional_for(data, rep).entries == f.entries


def _rebuilt_functional_for(data, x):
    """functional_for as it was built through precompose_slots's
    dataclasses.replace and a second MultiFunctional."""
    lo = sorted(op.open_labels(x)) if data.kind != "loop" else sorted(x.labels)
    lc = sorted(op.closed_labels(x)) if data.kind == "qoc" else []
    rho = {l: i + 1 for i, l in enumerate(lo)}
    rho_c = {l: i + 1 for i, l in enumerate(lc)}
    y = op.relabel(x, rho, rho_c) if data.kind == "qoc" else op.relabel(x, rho)
    rep, sigma = op.canonical_perm(y)
    base = data.functional(FT.key_of(data.kind, rep))
    if sigma:
        base = replace(base, entries=precompose_entries(
            base.entries, tuple(sigma), base.degree_table))
    return G.MultiFunctional(
        space=data.space, labels=tuple(lo), entries=base.entries, degree=0,
        cspace=data.closed_space if data.kind == "qoc" else None,
        clabels=tuple(lc),
    )


class TestFunctionalForBuiltOnce:
    """functional_for precomposes the stored map and builds its result
    once; every field equals the rebuilt construction, on the factors of
    every gluing term of one- and two-coloured algebras."""

    @pytest.mark.parametrize("kind, bounds", [
        ("loop", (4, 2)), ("quantum_ainfty", (3, 2)), ("qoc", (3, 2)),
    ])
    def test_equal_to_rebuilt(self, v2, v4, kind, bounds):
        data = FT.random_algebra(kind, v4, *bounds, random.Random(21),
                                 closed_space=v2 if kind == "qoc" else None,
                                 density=1.0)
        seen = 0
        for key in FT.enumerate_keys(kind, *bounds):
            rep = FT.representative(key)
            for colour in ("open", "closed") if kind == "qoc" else ("open",):
                a, b = op.fresh_pair(rep, colour)
                for pair in op.dual_compose(FT.OPERAD_OF[kind], rep, a, b,
                                            colour=colour):
                    for x in pair:
                        got = FT.functional_for(data, x)
                        old = _rebuilt_functional_for(data, x)
                        assert all(type(v) is Fr for v in got.entries.values())
                        assert (got.space, got.labels, got.entries, got.degree,
                                got.cspace, got.clabels) == (
                            old.space, old.labels, old.entries, old.degree,
                            old.cspace, old.clabels)
                        seen += bool(got.entries)
        assert seen


def _compare(data, keys, specialized):
    for key in keys:
        generic = FT.ft_residual(data, key)
        special = specialized(key)
        assert generic.entries == special.entries, key


class TestSpecializations:
    def test_loop(self, v4):
        data = FT.random_algebra("loop", v4, 3, 4, random.Random(11))
        _compare(data, FT.enumerate_keys("loop", 3, 4),
                 lambda k: FT.loop_residual(data, k.n, k.genus))

    def test_cyclic(self, v4):
        data = FT.random_algebra("cyclic_ainfty", v4, 5, 0, random.Random(12))
        _compare(data, FT.enumerate_keys("cyclic_ainfty", 5, 0),
                 lambda k: FT.cyclic_residual(data, k.n))

    def test_quantum(self, v4):
        data = FT.random_algebra("quantum_ainfty", v4, 3, 4, random.Random(13))
        _compare(data, FT.enumerate_keys("quantum_ainfty", 3, 4),
                 lambda k: FT.quantum_residual(data, k.bseq, k.g))

    def test_qoc(self, v2, v4):
        data = FT.random_algebra("qoc", v4, 3, 4, random.Random(14),
                                 closed_space=v2)
        _compare(data, FT.enumerate_keys("qoc", 3, 4),
                 lambda k: FT.qoc_residual(data, k))

    @pytest.mark.parametrize("kind,bounds", [("quantum_ainfty", (4, 4)), ("qoc", (3, 4))])
    def test_each_splitting_factor_built_once(self, monkeypatch, v2, v4, kind, bounds):
        """Within one ``_glue_splittings`` call every distinct factor shape
        runs the body of ``_factor`` once, and the residuals still match."""
        data = FT.random_algebra(kind, v4, *bounds, random.Random(15),
                                 closed_space=v2 if kind == "qoc" else None)
        real_factor, real_glue = FT._factor, FT._glue_splittings
        builds, repeats = [], []

        def factor(data, cycles, arc, empties, g, closed_n, colour, table, tie):
            builds.append((cycles, arc, empties, g, closed_n))
            return real_factor(data, cycles, arc, empties, g, closed_n, colour,
                               table, tie)

        def glue(*args):
            builds.clear()
            real_glue(*args)
            repeats.append(len(builds) - len(set(builds)))

        monkeypatch.setattr(FT, "_factor", factor)
        monkeypatch.setattr(FT, "_glue_splittings", glue)
        special = (FT.qoc_residual if kind == "qoc"
                   else lambda d, k: FT.quantum_residual(d, k.bseq, k.g))
        _compare(data, FT.enumerate_keys(kind, *bounds), lambda k: special(data, k))
        assert repeats and not any(repeats)

    @staticmethod
    def _open_cases(v2, v4):
        """Both open-surface kinds on random data, with every key's generic
        and hand-coded residual, computed before any guard is installed."""
        cases = []
        for kind, bounds in (("quantum_ainfty", (3, 4)), ("qoc", (3, 4))):
            data = FT.random_algebra(kind, v4, *bounds, random.Random(19),
                                     closed_space=v2 if kind == "qoc" else None,
                                     density=1.0)
            hand = (FT.qoc_residual if kind == "qoc"
                    else lambda d, k: FT.quantum_residual(d, k.bseq, k.g))
            for key in FT.enumerate_keys(kind, *bounds):
                cases.append((data, key, FT.ft_residual(data, key).entries,
                              hand(data, key).entries))
        assert any(generic for _, _, generic, _ in cases)
        return cases

    def test_generic_residual_does_not_walk_the_enumerators(self, monkeypatch,
                                                             v2, v4):
        """ft_residual reaches the preimages only through the pairing
        oracles: with the shared enumerators and the explicit dual formulas
        made to raise, it still equals the hand-coded residual."""
        cases = self._open_cases(v2, v4)

        def refuse(*args, **kwargs):
            raise AssertionError("the generic residual walked a formula")

        for name in ("_open_contractions", "_open_splittings", "_closed_splittings",
                     "dual_contract_formula", "dual_compose_formula"):
            monkeypatch.setattr(op, name, refuse)
        for data, key, _, hand in cases:
            assert FT.ft_residual(data, key).entries == hand, key

    def test_hand_residual_does_not_call_the_oracles(self, monkeypatch, v2, v4):
        """The hand-coded open-surface residuals never reach the pairing
        oracles or the endomorphism operations the generic one is built on:
        with those made to raise, they still equal the generic residual."""
        cases = self._open_cases(v2, v4)

        def refuse(*args, **kwargs):
            raise AssertionError("the hand residual called the generic route")

        for name in ("dual_contract", "dual_compose"):
            monkeypatch.setattr(op, name, refuse)
        for name in ("endo_contract", "endo_compose"):
            monkeypatch.setattr(endo, name, refuse)
        # the integer forms the generic residual sums, where ftalgebra
        # reaches them and where they are defined
        for name in ("endo_contract_raw", "endo_compose_raw", "endo_sum_raw"):
            monkeypatch.setattr(FT, name, refuse)
            monkeypatch.setattr(endo, name, refuse)
        for data, key, generic, _ in cases:
            if data.kind == "qoc":
                got = FT.qoc_residual(data, key)
            else:
                got = FT.quantum_residual(data, key.bseq, key.g)
            assert got.entries == generic, key

    def test_quantum_many_empty_boundaries(self, v4):
        """Keys with two or more empty boundaries, at doubled genus up to 6,
        where a contraction preimage keeps two empty boundaries; the bounds
        of test_quantum do not reach them."""
        data = FT.random_algebra("quantum_ainfty", v4, 3, 6, random.Random(18),
                                 density=1.0)
        keys = [k for k in FT.enumerate_keys("quantum_ainfty", 3, 6)
                if k.bseq[0] >= 2]
        _compare(data, keys, lambda k: FT.quantum_residual(data, k.bseq, k.g))

    def test_quantum_tie_break_independence(self, v4):
        """The residual does not depend on the admissible orderings chosen
        inside the contribution formulas."""
        data = FT.random_algebra("quantum_ainfty", v4, 4, 4, random.Random(15))
        for key in FT.enumerate_keys("quantum_ainfty", 4, 4):
            a = FT.quantum_residual(data, key.bseq, key.g, tie="lex")
            b = FT.quantum_residual(data, key.bseq, key.g, tie="revlex")
            assert a.entries == b.entries

    def test_residuals_stabilizer_invariant(self, v4):
        data = FT.random_algebra("quantum_ainfty", v4, 4, 4, random.Random(16))
        for key in FT.enumerate_keys("quantum_ainfty", 4, 4):
            res = FT.ft_residual(data, key)
            for s in FT.stab_generators("quantum_ainfty", key):
                assert res.precompose_slots(s).entries == res.entries

    def test_zero_maps_zero_residual(self, v4):
        data = FT.AlgebraData(kind="loop", space=G.rich_space(2), maps={})
        for key in FT.enumerate_keys("loop", 3, 4):
            assert FT.ft_residual(data, key).is_zero()

    def test_quantum_reduces_to_cyclic(self, v4):
        """Single-boundary genus-zero data satisfies the cyclic equations."""
        rng = random.Random(17)
        maps = {}
        for key in FT.enumerate_keys("quantum_ainfty", 5, 0):
            if key.g == 0 and FT.bseq_boundaries(key.bseq) == 1 and key.bseq[0] == 0:
                f = FT.random_invariant_map(rng, "quantum_ainfty", v4, None, key)
                if f.entries:
                    maps[key] = f
        data = FT.AlgebraData(kind="quantum_ainfty", space=v4, maps=maps)
        cyc_maps = {
            FT.CyclicKey(FT.key_arity(k)): FT.make_map(
                "cyclic_ainfty", v4, None, FT.CyclicKey(FT.key_arity(k)),
                data.tensor(k))
            for k in maps
        }
        cdata = FT.AlgebraData(kind="cyclic_ainfty", space=v4, maps=cyc_maps)
        for key in maps:
            n = FT.key_arity(key)
            q = FT.quantum_residual(data, key.bseq, key.g)
            c = FT.cyclic_residual(cdata, n)
            assert q.entries == c.entries


def _mixed_space(pair_degrees):
    """block_space(pair_degrees), which lists each degree pair twice, in a
    basis mixing the two vectors of each degree, so that every row of the
    inverse pairing has two nonzeros."""
    V = G.block_space(pair_degrees)
    n = V.dim
    h = n // 2  # vectors i and i + h share a degree
    # column j holds the new basis vector j in the old basis
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


@pytest.fixture(scope="module")
def mixed8():
    return _mixed_space([0, -1, 0, -1])


@pytest.fixture(scope="module")
def mixed4():
    return _mixed_space([-1, -1])


class TestSpecializationsMixedPairing:
    """The hand-coded residuals join factor entries through the nonzero
    entries of the inverse pairing; on these spaces a join that visits only
    one column per pairing row gives wrong residuals."""

    def _compare(self, kind, bounds, specialized, space, closed_space=None):
        data = FT.random_algebra(kind, space, *bounds, random.Random(5),
                                 closed_space=closed_space, density=1.0)
        compared = 0
        for key in FT.enumerate_keys(kind, *bounds):
            generic = FT.ft_residual(data, key)
            assert generic.entries == specialized(data, key).entries, key
            compared += len(generic.entries)
        assert compared

    def test_loop(self, mixed8):
        self._compare("loop", (3, 4),
                      lambda d, k: FT.loop_residual(d, k.n, k.genus), mixed8)

    def test_cyclic(self, mixed8):
        self._compare("cyclic_ainfty", (4, 0),
                      lambda d, k: FT.cyclic_residual(d, k.n), mixed8)

    @pytest.mark.parametrize("tie", ["lex", "revlex"])
    def test_quantum(self, mixed8, tie):
        self._compare("quantum_ainfty", (3, 2),
                      lambda d, k: FT.quantum_residual(d, k.bseq, k.g, tie=tie),
                      mixed8)

    @pytest.mark.parametrize("tie", ["lex", "revlex"])
    def test_qoc(self, mixed8, mixed4, tie):
        self._compare("qoc", (3, 4),
                      lambda d, k: FT.qoc_residual(d, k, tie=tie), mixed8, mixed4)


class TestCyclicForms:
    def test_bracket_of_zero(self, v4):
        fam = {3: {(0, 0, 1): Fr(1)}}
        assert FT.hom_bracket(fam, {}, v4) == {}

    def test_bracket_symmetry(self, v4):
        rng = random.Random(19)
        data1 = FT.random_algebra("cyclic_ainfty", v4, 4, 0, rng)
        data2 = FT.random_algebra("cyclic_ainfty", v4, 4, 0, rng)
        F, Gf = FT.family_of(data1), FT.family_of(data2)
        lhs = FT.hom_bracket(F, Gf, v4, 0, 0)
        rhs = FT.hom_bracket(Gf, F, v4, 0, 0)
        assert lhs == rhs  # both families of even degree

    def test_bracket_identity_on_random_data(self, v4):
        data = FT.random_algebra("cyclic_ainfty", v4, 5, 0, random.Random(20))
        fam = FT.family_of(data)
        br = FT.hom_bracket(fam, fam, v4, 0, 0)
        for key in FT.enumerate_keys("cyclic_ainfty", 5, 0):
            res = FT.cyclic_residual(data, key.n)
            lhs = dict(FT.functional_differential(data.functional(key)).entries)
            for w, v in br.get(key.n, {}).items():
                lhs[w] = lhs.get(w, Fr(0)) - Fr(1, 2) * v
            lhs = {w: v for w, v in lhs.items() if v}
            assert lhs == res.entries


def associative_example():
    """A four-dimensional space whose only product squares the degree-zero
    vector into the degree-one one; trivially associative, and the ambient
    mixed degrees leave room for perturbations with real content."""
    V = G.rich_space(4)
    f3 = FT.make_map("cyclic_ainfty", V, None, FT.CyclicKey(3), {(0, 0, 0): Fr(-1)})
    return V, FT.AlgebraData(kind="cyclic_ainfty", space=V,
                             maps={FT.CyclicKey(3): f3})


class TestAssociativeExample:
    def test_all_three_residuals_vanish(self):
        V, data = associative_example()
        for n in (3, 4, 5):
            assert FT.cyclic_residual(data, n).is_zero()
        fam = FT.family_of(data)
        br = FT.hom_bracket(fam, fam, V, 0, 0)
        assert all(not any(t.values()) for t in br.values())
        assert FT.suspended_relation_residual(data, max_n=5) == {}

    def test_perturbation_breaks_all_three(self):
        V, data = associative_example()
        rng = random.Random(23)
        f4 = FT.random_invariant_map(rng, "cyclic_ainfty", V, None,
                                     FT.CyclicKey(4), density=1.0)
        assert f4.entries
        maps = dict(data.maps)
        maps[FT.CyclicKey(4)] = f4
        pdata = FT.AlgebraData(kind="cyclic_ainfty", space=V, maps=maps)
        broken_direct = any(
            not FT.cyclic_residual(pdata, n).is_zero() for n in (3, 4, 5, 6)
        )
        fam = FT.family_of(pdata)
        br = FT.hom_bracket(fam, fam, V, 0, 0)
        broken_bracket = any(any(t.values()) for n, t in br.items() if n <= 6)
        broken_suspended = FT.suspended_relation_residual(pdata, max_n=5) != {}
        assert broken_direct and broken_bracket and broken_suspended

    def test_multiplication_maps(self):
        V, data = associative_example()
        m = FT.multiplication_maps(data)
        # the product takes the degree-zero vector squared to the odd one
        assert m == {2: {(0, 0, 1): Fr(1)}}
