"""Algebra data, the generic residual and the hand-coded specializations."""
import itertools
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
    KindMismatch,
    SymmetryViolation,
    Unstable,
)
from hand_residuals import hand_residual


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

        def factor(data, cycles, arc, empties, g, closed_n, colour, table):
            builds.append((cycles, arc, empties, g, closed_n))
            return real_factor(data, cycles, arc, empties, g, closed_n, colour,
                               table)

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
        for name in ("endo_contract_raw", "_compose_integers", "_integers",
                     "endo_sum_raw"):
            monkeypatch.setattr(FT, name, refuse)
            monkeypatch.setattr(endo, name, refuse)
        monkeypatch.setattr(endo, "endo_compose_raw", refuse)
        # the generic route's extensions, so that no extension is shared
        for name in ("functional_for", "_extended"):
            monkeypatch.setattr(FT, name, refuse)
        for data, key, generic, _ in cases:
            if data.kind == "qoc":
                got = FT.qoc_residual(data, key)
            else:
                got = FT.quantum_residual(data, key.bseq, key.g)
            assert got.entries == generic, key

    @staticmethod
    def _half_stored(v2, v4, kind):
        """A density-1 random algebra of one kind with every other stored
        key dropped, and its keys."""
        bounds = {"loop": (4, 4), "cyclic_ainfty": (6, 0),
                  "quantum_ainfty": (3, 4), "qoc": (3, 4)}[kind]
        data = FT.random_algebra(kind, v4, *bounds, random.Random(f"half {kind}"),
                                 closed_space=v2 if kind == "qoc" else None,
                                 density=1.0)
        kept = sorted(data.maps, key=repr)[::2]
        data = FT.AlgebraData(kind=kind, space=v4,
                              maps={k: data.maps[k] for k in kept},
                              closed_space=data.closed_space)
        return data, FT.enumerate_keys(kind, *bounds)

    @pytest.mark.parametrize("kind", FT.ALGEBRA_KINDS)
    def test_half_stored_algebra_matches_the_hand_residual(self, v2, v4, kind):
        """With half of the stored maps dropped, many oracle terms have a
        factor without a map; skipping them leaves every key's generic
        residual equal to the hand-coded one."""
        data, keys = self._half_stored(v2, v4, kind)
        _compare(data, keys, lambda k: hand_residual(data, k))
        assert any(FT.ft_residual(data, k).entries for k in keys)

    @pytest.mark.parametrize("kind", FT.ALGEBRA_KINDS)
    def test_operations_run_only_on_stored_factors(self, monkeypatch, v2, v4,
                                                   kind):
        """The generic residual runs a contraction or a gluing exactly for
        the oracle terms whose factors all have a stored map: counted
        around the operations it calls, against the pairing oracles'
        terms classified by each factor's key."""
        data, keys = self._half_stored(v2, v4, kind)
        okind = FT.OPERAD_OF[kind]

        def stored(x):
            rho = {l: i + 1 for i, l in enumerate(sorted(op.open_labels(x)))}
            rho_c = {l: i + 1 for i, l in enumerate(sorted(op.closed_labels(x)))}
            rep, _ = op.canonical_perm(op.relabel(x, rho, rho_c))
            return FT.key_of(kind, rep) in data.maps

        want = got = skipped = 0
        for key in keys:
            rep = FT.representative(key)
            for colour in op.colours(kind):
                a, b = op.fresh_pair(rep, colour)
                if kind != "cyclic_ainfty":
                    for x in op.dual_contract(okind, rep, a, b, colour=colour):
                        want += stored(x)
                        skipped += not stored(x)
                for x, y in op.dual_compose(okind, rep, a, b, colour=colour):
                    want += stored(x) and stored(y)
                    skipped += not (stored(x) and stored(y))
        real = {name: getattr(FT, name)
                for name in ("endo_contract_raw", "_compose_integers")}

        def counted(name):
            def run(*args):
                nonlocal got
                got += 1
                return real[name](*args)
            return run

        for name in real:
            monkeypatch.setattr(FT, name, counted(name))
        for key in keys:
            FT.ft_residual(data, key)
        assert skipped and got == want

    def test_quantum_many_empty_boundaries(self, v4):
        """Keys with two or more empty boundaries, at doubled genus up to 6,
        where a contraction preimage keeps two empty boundaries; the bounds
        of test_quantum do not reach them."""
        data = FT.random_algebra("quantum_ainfty", v4, 3, 6, random.Random(18),
                                 density=1.0)
        keys = [k for k in FT.enumerate_keys("quantum_ainfty", 3, 6)
                if k.bseq[0] >= 2]
        _compare(data, keys, lambda k: FT.quantum_residual(data, k.bseq, k.g))

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

    def test_quantum(self, mixed8):
        self._compare("quantum_ainfty", (3, 2),
                      lambda d, k: FT.quantum_residual(d, k.bseq, k.g), mixed8)

    def test_qoc(self, mixed8, mixed4):
        self._compare("qoc", (3, 4), FT.qoc_residual, mixed8, mixed4)


class TestCyclicForms:
    def test_bracket_of_zero(self, v4):
        fam = {3: {(0, 0, 1): Fr(1)}}
        assert FT.hom_bracket(fam, {}, v4) == {}

    def test_bracket_symmetry(self, v4):
        rng = random.Random(19)
        data1 = FT.random_algebra("cyclic_ainfty", v4, 4, 0, rng)
        data2 = FT.random_algebra("cyclic_ainfty", v4, 4, 0, rng)
        F, Gf = FT.family_of(data1), FT.family_of(data2)
        lhs = FT.hom_bracket(F, Gf, v4)
        rhs = FT.hom_bracket(Gf, F, v4)
        assert lhs == rhs  # both families of even degree

    def test_bracket_identity_on_random_data(self, v4):
        data = FT.random_algebra("cyclic_ainfty", v4, 5, 0, random.Random(20))
        fam = FT.family_of(data)
        br = FT.hom_bracket(fam, fam, v4)
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
        br = FT.hom_bracket(fam, fam, V)
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
        br = FT.hom_bracket(fam, fam, V)
        broken_bracket = any(any(t.values()) for n, t in br.items() if n <= 6)
        broken_suspended = FT.suspended_relation_residual(pdata, max_n=5) != {}
        assert broken_direct and broken_bracket and broken_suspended

    def test_multiplication_maps(self):
        V, data = associative_example()
        m = FT.multiplication_maps(data)
        # the product takes the degree-zero vector squared to the odd one
        assert m == {2: {(0, 0, 1): Fr(1)}}


# ---------------------------------------------------------------------------
# the dense forms of the cyclic equations, kept as oracles of the sparse
# joins: every word of dim^N at every cut.  The suspended residual reads the
# library's suspended_maps, whose multiplication maps are compared on their
# own.

ZERO = Fr(0)


def _reference_hom_bracket(F: dict, G: dict, space, deg_F: int = 0, deg_G: int = 0) -> dict:
    """Bracket of two arity-keyed families of functionals.

    The transported commutator of the coderivations the families induce on
    the tensor coalgebra: one family is applied inside the other with the
    paired basis vectors bridging the two, minus the sign-twisted swap.
    With a single degree-0 cyclic family f this yields d(f) = [f,f]/2.
    """
    P = space.pairing.matrix
    table = space.degrees
    dim = space.dim
    out: dict = {}

    def one_sided(A, B, dB, global_sign):
        # A(pre (x) b_e (x) post (x) last) * B(mid (x) a_e) summed over cuts
        for nA, TA in A.items():
            for nB, TB in B.items():
                N = nA + nB - 2
                if N < 1:
                    continue
                acc = out.setdefault(N, {})
                i2 = nB - 1
                for i1 in range(0, N - i2):
                    for w in itertools.product(range(dim), repeat=N):
                        pre = w[:i1]
                        mid = w[i1 : i1 + i2]
                        post = w[i1 + i2 :]
                        deg_pre = sum(table[k] for k in pre)
                        deg_mid = sum(table[k] for k in mid)
                        s_move = (dB + 1) * deg_pre
                        s_inner = dB + deg_mid
                        val = ZERO
                        for e in range(dim):
                            vB = TB.get(mid + (e,), ZERO)
                            if not vB:
                                continue
                            row = P[e]
                            for k in range(dim):
                                coeff = row[k]
                                if not coeff:
                                    continue
                                vA = TA.get(pre + (k,) + post, ZERO)
                                if not vA:
                                    continue
                                val += coeff * vA * vB
                        if val:
                            if (s_move + s_inner) % 2:
                                val = -val
                            val *= global_sign
                            nv = acc.get(w, ZERO) + val
                            if nv:
                                acc[w] = nv
                            elif w in acc:
                                del acc[w]

    one_sided(F, G, deg_G, 1)
    swap_sign = -1 if ((deg_F + 1) * (deg_G + 1)) % 2 else 1
    one_sided(G, F, deg_F, -swap_sign)
    return {n: T for n, T in out.items() if T}


def _reference_multiplication_maps(data: FT.AlgebraData) -> dict:
    """Degree +1 maps keyed by arity, solved from f_{n+1} = omega(m_n (x) id).

    Returned as {n: {word+(k,): coefficient of a_k in m_n(a_word)}}.
    """
    if data.kind != "cyclic_ainfty":
        raise KindMismatch("multiplication maps need cyclic data")
    space = data.space
    table = space.degrees
    dim = space.dim
    P = space.pairing.matrix
    out = {}
    for key in data.maps:
        n = key.n - 1
        T = data.tensor(key)
        m: dict = {}
        for w in itertools.product(range(dim), repeat=n):
            degw = sum(table[k] for k in w)
            sgn = -1 if (degw + 1) % 2 else 1
            for j in range(dim):
                v = T.get(w + (j,), ZERO)
                if not v:
                    continue
                for k in range(dim):
                    if P[j][k]:
                        c = sgn * v * P[j][k]
                        m[w + (k,)] = m.get(w + (k,), ZERO) + c
        m = {wk: v for wk, v in m.items() if v}
        if m:
            out[n] = m
    return out


def _reference_suspended_relation_residual(data: FT.AlgebraData, mprime: dict | None = None,
                                max_n: int | None = None) -> dict:
    """Residual of the standard shifted relation with the differential as
    the arity-1 map; zero exactly when the algebra solves its equations."""
    space = data.space
    dim = space.dim
    up = tuple(d + 1 for d in space.degrees)
    if mprime is None:
        mprime = dict(FT.suspended_maps(data))
    mprime = dict(mprime)
    d1 = {}
    for col in range(dim):
        for row in range(dim):
            c = space.differential[row][col]
            if c:
                d1[(col, row)] = c
    if d1:
        mprime[1] = d1
    out = {}
    arities = sorted(mprime)
    top = max_n if max_n is not None else (max(arities) + max(arities) - 1 if arities else 0)
    for n in range(1, top + 1):
        acc: dict = {}
        for i2 in arities:
            outer_n = n - i2 + 1
            if outer_n < 1 or outer_n not in mprime:
                continue
            inner = mprime[i2]
            outer = mprime[outer_n]
            deg_inner = 2 - i2
            for i1 in range(0, n - i2 + 1):
                i3 = n - i1 - i2
                sgn_base = -1 if (i1 * i2 + i3) % 2 else 1
                for w in itertools.product(range(dim), repeat=n):
                    pre = sum(up[k] for k in w[:i1])
                    move = -1 if (deg_inner * pre) % 2 else 1
                    for k_mid in range(dim):
                        v_in = inner.get(w[i1 : i1 + i2] + (k_mid,), ZERO)
                        if not v_in:
                            continue
                        outer_word = w[:i1] + (k_mid,) + w[i1 + i2 :]
                        for k_out in range(dim):
                            v_out = outer.get(outer_word + (k_out,), ZERO)
                            if not v_out:
                                continue
                            key = w + (k_out,)
                            acc[key] = acc.get(key, ZERO) + sgn_base * move * v_in * v_out
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[n] = acc
    return out


def _random_family(rng, dim, arities):
    """Random entries on random words of each arity: neither invariant nor
    of degree 0, with some zero values stored."""
    return {
        n: {tuple(rng.randrange(dim) for _ in range(n)):
            Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)}
        for n in arities
    }


class TestCyclicFormsAgainstDenseReference:
    """The sparse joins give exactly the dense loops' dicts."""

    SPACES = {
        "rich4": lambda: G.rich_space(4),
        "rich4_d": lambda: G.rich_space(4, with_differential=True),
        "mixed8": lambda: _mixed_space([0, -1, 0, -1]),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_equal_to_reference(self, name, seed):
        V = self.SPACES[name]()
        rng = random.Random(seed)
        top = 3 if V.dim > 4 else 4  # the dense bracket visits dim^(2 top - 2) words
        data = FT.random_algebra("cyclic_ainfty", V, top, 0, rng)
        other = FT.random_algebra("cyclic_ainfty", V, top, 0, rng)
        F, Gf = FT.family_of(data), FT.family_of(other)
        raw = _random_family(rng, V.dim, range(1, top + 1))
        raw_other = _random_family(rng, V.dim, range(1, top))
        assert F and Gf and F != Gf
        for A, B in ((F, Gf), (raw, raw_other), (raw_other, F)):
            assert FT.hom_bracket(A, B, V) == _reference_hom_bracket(A, B, V)
        for d in (data, other):
            assert FT.multiplication_maps(d) == _reference_multiplication_maps(d)
            for max_n in (None, top):
                assert (FT.suspended_relation_residual(d, max_n=max_n)
                        == _reference_suspended_relation_residual(d, max_n=max_n))


# ---------------------------------------------------------------------------
# enumerate_keys with one stability formula per kind, kept as its oracle


def _reference_stable_open(g, boundaries, arity, closed=0):
    return 4 * g + 2 * boundaries + 2 * closed - 4 + arity > 0


def _reference_enumerate_keys(kind, max_n, max_genus2):
    """All admissible representative keys within arity and genus bounds."""
    out = []
    if kind == "loop":
        for n in range(0, max_n + 1):
            for g in range(0, max_genus2 // 2 + 1):
                if 2 * (g - 1) + n > 0:
                    out.append(FT.LoopKey(n, g))
        return out
    if kind == "cyclic_ainfty":
        return [FT.CyclicKey(n) for n in range(3, max_n + 1)]
    for n in range(0, max_n + 1):
        for part in FT._partitions(n):
            nonzero = (0,) + part
            base_b = FT.bseq_boundaries(nonzero)
            for b0 in range(0, max_genus2 // 2 + 2):
                bseq = FT.trim_bseq((b0,) + part)
                b = base_b + b0
                for g in range(0, max_genus2 // 4 + 1):
                    if kind == "quantum_ainfty":
                        if b < 1 or 4 * g + 2 * b - 2 > max_genus2:
                            continue
                        if not _reference_stable_open(g, b, n):
                            continue
                        out.append(FT.QuantumKey(bseq, g))
                    else:
                        for c in range(0, max_n + 1 - n):
                            if 4 * g + 2 * b + c - 2 > max_genus2:
                                continue
                            if not _reference_stable_open(g, b, n, c):
                                continue
                            out.append(FT.QocKey(bseq, g, c))
    return sorted(set(out), key=repr)


@pytest.mark.parametrize("kind", FT.ALGEBRA_KINDS)
def test_enumerate_keys_matches_per_kind_rules(kind):
    for max_n in range(7):
        for max_genus2 in range(9):
            assert (FT.enumerate_keys(kind, max_n, max_genus2)
                    == _reference_enumerate_keys(kind, max_n, max_genus2)), (max_n, max_genus2)
