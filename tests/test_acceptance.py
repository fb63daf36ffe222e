"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is zero: all comparisons are exact equalities of rational
numbers.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""
import itertools
import math
import random
import time
from fractions import Fraction as Fr

import pytest

from operad_forge import bv
from operad_forge import combinatorics as cb
from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge import operads as op
from operad_forge.axioms import verify_axioms
from operad_forge.endo import verify_twisted_axioms

from coset_sections import orbit_transversal
from hand_residuals import hand_residual


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_operad_axiom_suite():
    """Axioms 1-8 hold exhaustively for all three operads, within budget:
    the instances run cover every instance within the bounds."""
    t0 = time.time()
    results = {}
    for kind, max_n, max_g2, covered in (("qc", 6, 8, 2798999),
                                         ("qo", 5, 6, 8071367),
                                         ("qoc", 4, 5, 128089)):
        rep = verify_axioms(kind, max_n, max_g2)
        assert rep.passed, (kind, rep.failures[:3])
        assert sum(rep.covered.values()) == covered, (kind, rep.covered)
        results[kind] = f"{rep.checked} run / {covered} covered"
    elapsed = time.time() - t0
    assert elapsed <= 300, f"axiom suite took {elapsed:.0f}s"
    report(1, f"operad axioms: qc {results['qc']}, qo {results['qo']}, "
              f"qoc {results['qoc']} instances, 0 violations, "
              f"{elapsed:.0f}s <= 300s")


def test_criterion_02_twisted_endomorphism_axioms():
    """All eight signed axioms on >= 50 random functionals per axiom at
    dimensions 2 and 4."""
    totals = {}
    for dim, space in ((2, G.canonical_space(2, with_differential=True)),
                       (4, G.rich_space(4, with_differential=True))):
        rep = verify_twisted_axioms(space, max_n=4, samples=50, seed=dim,
                                    min_per_axiom=50)
        assert rep.passed, rep.failures[:3]
        assert all(rep.per_axiom.get(ax, 0) >= 50 for ax in range(1, 9)), \
            rep.per_axiom
        totals[dim] = rep.checked
    report(2, f"twisted axioms: dim 2 across {totals[2]} instances, "
              f"dim 4 across {totals[4]}, >= 50 per axiom, all exact")


def test_criterion_03_duality_adjunction():
    """Dual structure maps match the pairing-adjoint oracle and the
    splitting formulas reproduce it term for term."""
    checked = 0
    for kind in ("qo", "qc"):
        for n in range(0, 5):
            for g2 in range(0, 5):
                try:
                    els = op.basis(kind, range(1, n + 1), g2)
                except op.Unstable:
                    continue
                for z in els:
                    oc = op.dual_contract(kind, z)
                    og = op.dual_compose(kind, z)
                    assert oc == op.dual_contract_formula(kind, z), z
                    assert og == op.dual_compose_formula(kind, z), z
                    # adjunction against the structure maps themselves
                    a, b = op.fresh_pair(z)
                    for x in oc:
                        assert op.contract(x, a, b) == z
                    for x, y in og:
                        assert op.compose(x, a, y, b) == z
                    checked += 1
    report(3, f"duality adjunction: {checked} basis elements of the open and "
              f"closed operads, formulas match the oracle term for term")


def test_criterion_04_specialization_equivalence():
    """Hand-coded residuals equal the generic one on >= 20 random data sets
    per kind at dimension 2 (plus mixed-degree dimension-4 coverage)."""
    V2 = G.rich_space(2)
    V4 = G.rich_space(4, with_differential=True)
    counts = {}
    nonzero = 0
    for kind in ("loop", "cyclic_ainfty", "quantum_ainfty", "qoc"):
        runs = 0
        for i in range(20):
            rng = random.Random(1000 + i)
            closed = V2 if kind == "qoc" else None
            mn = 3 if kind == "qoc" else 4
            data = FT.random_algebra(kind, V2, mn, 4 if kind != "cyclic_ainfty"
                                     else 0, rng, closed_space=closed)
            for key in FT.enumerate_keys(kind, mn, 4 if kind != "cyclic_ainfty"
                                          else 0):
                generic = FT.ft_residual(data, key)
                special = hand_residual(data, key)
                assert generic.entries == special.entries, (kind, key)
            runs += 1
        # a dimension-4 run so the compared residuals are visibly nonzero
        rng = random.Random(7)
        closed = V2 if kind == "qoc" else None
        data = FT.random_algebra(kind, V4, 3, 4 if kind != "cyclic_ainfty"
                                 else 0, rng, closed_space=closed)
        for key in FT.enumerate_keys(kind, 3, 4 if kind != "cyclic_ainfty"
                                     else 0):
            generic = FT.ft_residual(data, key)
            special = hand_residual(data, key)
            assert generic.entries == special.entries, (kind, key)
            nonzero += bool(special.entries)
        counts[kind] = runs
    assert nonzero > 0
    report(4, f"specialization equivalence: 20 random data sets per kind at "
              f"dim 2 plus dim-4 runs with {nonzero} nonzero residuals, exact")


def test_criterion_05_master_equation_equivalence():
    """Components of the master-equation residual equal the image of the
    generic residual family under the orbit-series identification."""
    V = G.rich_space(4, with_differential=True)
    compared = 0
    for kind, mn, mg in (("loop", 4, 4), ("cyclic_ainfty", 4, 0),
                         ("quantum_ainfty", 4, 4)):
        for seed in (1, 2):
            data = FT.random_algebra(kind, V, mn, mg, random.Random(seed))
            S = bv.generating_function(data)
            M = bv.master_residual(S)
            fam = {k: FT.ft_residual(data, k).entries
                   for k in FT.enumerate_keys(kind, mn, mg)}
            X = bv.series_from_maps(kind, V, None, fam)
            for key in sorted(set(M.terms) | set(X.terms), key=repr):
                if FT.key_arity(key) > mn or FT.key_genus2(key) > mg:
                    continue
                assert M.component(key) == X.component(key), (kind, key)
                compared += 1
    report(5, f"equivalence of the master equation with the defining "
              f"equations: {compared} components, exact, zero tolerance")


def test_criterion_06_ncbv_axioms():
    """Squares, commutators, graded Jacobi and both derivation rules vanish
    exactly on >= 20 random element triples per kind."""
    V2 = G.rich_space(2)
    checked = 0
    for kind, mn, mg, closed in (("loop", 4, 6, False),
                                 ("cyclic_ainfty", 4, 0, False),
                                 ("quantum_ainfty", 3, 6, False),
                                 ("qoc", 2, 4, True)):
        cspace = V2 if closed else None
        keys = FT.enumerate_keys(kind, mn, mg)
        rng = random.Random(6)
        for trial in range(20):
            pa, pb, pc = (rng.choice([0, 1]) for _ in range(3))
            a = bv.random_bv_element(rng, kind, V2, cspace, keys, parity=pa,
                                     density=0.3)
            b = bv.random_bv_element(rng, kind, V2, cspace, keys, parity=pb,
                                     density=0.3)
            c = bv.random_bv_element(rng, kind, V2, cspace, keys, parity=pc,
                                     density=0.3)
            assert bv.bv_diff(bv.bv_diff(a)).is_zero()
            if kind != "cyclic_ainfty":
                assert bv.bv_delta(bv.bv_delta(a)).is_zero()
                assert bv.bv_diff(bv.bv_delta(a)).plus(
                    bv.bv_delta(bv.bv_diff(a))).is_zero()
            j = bv.bv_bracket(bv.bv_bracket(a, b), c)
            j = j.plus(bv.bv_bracket(bv.bv_bracket(c, a), b).scaled(
                -1 if (pc * (pa + pb)) % 2 else 1))
            j = j.plus(bv.bv_bracket(bv.bv_bracket(b, c), a).scaled(
                -1 if (pa * (pb + pc)) % 2 else 1))
            assert j.is_zero()
            ops = [bv.bv_diff] + ([bv.bv_delta] if kind != "cyclic_ainfty" else [])
            for operation in ops:
                t = operation(bv.bv_bracket(a, b))
                t = t.plus(bv.bv_bracket(operation(a), b))
                t = t.plus(bv.bv_bracket(a, operation(b)).scaled(
                    -1 if pa % 2 else 1))
                assert t.is_zero()
            checked += 1
    report(6, f"noncommutative BV axioms: {checked} random triples across "
              f"the four kinds, every identity exactly zero")


def test_criterion_07_qc_derivation_formulas():
    """The closed-surface operations agree with the polynomial derivative
    formulas, and the quadratic substitution absorbs the differential."""
    V4 = G.rich_space(4, with_differential=True)
    keys = FT.enumerate_keys("loop", 4, 4)
    rng = random.Random(70)
    for _ in range(20):
        x = bv.random_bv_element(rng, "loop", V4, None, keys,
                                 parity=rng.choice([0, 1]), density=0.4)
        y = bv.random_bv_element(rng, "loop", V4, None, keys,
                                 parity=rng.choice([0, 1]), density=0.4)
        assert bv.bv_delta(x).same_as(bv.qc_poly_delta(x))
        assert bv.bv_bracket(x, y).same_as(bv.qc_poly_bracket(x, y))
    identities = 0
    for seed in (71, 72, 73):
        data = FT.random_algebra("loop", V4, 4, 4, random.Random(seed))
        assert any(any(row) for row in V4.differential)
        S = bv.generating_function(data)
        Sp = bv.s_prime(S)
        lhs = bv.bv_delta(Sp).plus(bv.bv_bracket(Sp, Sp).scaled(Fr(1, 2)))
        assert lhs.same_as(bv.master_residual(S))
        identities += 1
    report(7, f"derivation formulas equal the transferred operations on 20 "
              f"random series; the quadratic substitution identity held on "
              f"{identities} random data sets with nonzero differential")


def test_criterion_08_cyclic_equivalences():
    """The three forms of the cyclic equations vanish together on the
    associative example and break together under a perturbation."""
    V = G.rich_space(4)
    f3 = FT.make_map("cyclic_ainfty", V, None, FT.CyclicKey(3),
                     {(0, 0, 0): Fr(-1)})
    data = FT.AlgebraData(kind="cyclic_ainfty", space=V,
                          maps={FT.CyclicKey(3): f3})
    for n in (3, 4, 5):
        assert FT.cyclic_residual(data, n).is_zero()
    fam = FT.family_of(data)
    br = FT.hom_bracket(fam, fam, V)
    for key in FT.enumerate_keys("cyclic_ainfty", 5, 0):
        lhs = dict(FT.functional_differential(data.functional(key)).entries)
        for w, v in br.get(key.n, {}).items():
            lhs[w] = lhs.get(w, Fr(0)) - Fr(1, 2) * v
        assert not {w: v for w, v in lhs.items() if v}
    assert FT.suspended_relation_residual(data, max_n=5) == {}
    # perturb the arity-4 map
    rng = random.Random(23)
    f4 = FT.random_invariant_map(rng, "cyclic_ainfty", V, None,
                                 FT.CyclicKey(4), density=1.0)
    pdata = FT.AlgebraData(kind="cyclic_ainfty", space=V,
                           maps={FT.CyclicKey(3): f3, FT.CyclicKey(4): f4})
    broken_direct = any(not FT.cyclic_residual(pdata, n).is_zero()
                        for n in (4, 5, 6))
    pfam = FT.family_of(pdata)
    pbr = FT.hom_bracket(pfam, pfam, V)
    broken_bracket = False
    for key in FT.enumerate_keys("cyclic_ainfty", 6, 0):
        lhs = dict(FT.functional_differential(pdata.functional(key)).entries)
        for w, v in pbr.get(key.n, {}).items():
            lhs[w] = lhs.get(w, Fr(0)) - Fr(1, 2) * v
        if {w: v for w, v in lhs.items() if v}:
            broken_bracket = True
    broken_suspended = FT.suspended_relation_residual(pdata, max_n=5) != {}
    assert broken_direct and broken_bracket and broken_suspended
    report(8, "cyclic algebra equivalences: direct, bracket and shifted "
              "forms vanish on the associative example and co-fail under a "
              "random arity-4 perturbation")


def test_criterion_09_herbst_equivalence():
    """With vanishing differential and no empty-boundary maps, the
    block-indexed relation carries exactly the defining equations, and the
    block-indexed series equals the direct one."""
    space = G.rich_space(4)
    datasets = 0
    for seed in range(10):
        rng = random.Random(900 + seed)
        maps = {}
        for key in FT.enumerate_keys("quantum_ainfty", 5, 4):
            if key.bseq[0] > 0:
                continue
            f = FT.random_invariant_map(rng, "quantum_ainfty", space, None,
                                        key, density=0.4)
            if f.entries:
                maps[key] = f
        data = FT.AlgebraData(kind="quantum_ainfty", space=space, maps=maps)
        for key in FT.enumerate_keys("quantum_ainfty", 5, 4):
            if key.bseq[0] > 0 or FT.key_arity(key) > 4:
                continue
            qres = FT.quantum_residual(data, key.bseq, key.g)
            n = FT.key_arity(key)
            for w in itertools.product(range(space.dim), repeat=n):
                # the conventional one-half per vertex scales the relation
                # by four relative to the raw defining equation
                assert 4 * bv.herbst_residual(data, key.bseq, key.g, w) == \
                    qres.entries.get(w, Fr(0)), (key, w)
        S1 = bv.generating_function(data)
        S2 = bv.herbst_generating_function(data, 5, 4)
        for key in sorted(set(S1.terms) | set(S2.terms), key=repr):
            if FT.key_arity(key) > 5 or FT.key_genus2(key) > 4:
                continue
            assert S1.component(key) == S2.component(key), key
        datasets += 1
    report(9, f"block-indexed equivalence: {datasets} random minimal data "
              f"sets, relation and series both match exactly")


def test_criterion_10_counting_identities():
    """Dimension and orbit counting."""
    for n in range(3, 7):
        assert len(op.basis("ass", range(1, n + 1), 0)) == math.factorial(n - 1)
    checked = 0
    for n in range(0, 7):
        for part in FT._partitions(n):
            for b0 in (0, 1, 2):
                bseq = cb.trim_bseq((b0,) + tuple(part))
                for c in range(0, 4):
                    for g in (0, 1):
                        b = cb.bseq_boundaries(bseq)
                        if not (4 * g + 2 * b - 4 + n > 0):
                            continue
                        orbit = len(orbit_transversal(bseq, g))
                        stab = cb.stabilizer_size(bseq, closed_arity=c)
                        assert orbit * stab == math.factorial(n) * \
                            math.factorial(c), (bseq, c)
                        checked += 1
    report(10, f"counting identities: arity dimensions match factorials and "
               f"{checked} orbit-stabilizer products are exact")
