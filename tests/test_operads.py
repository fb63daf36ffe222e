"""Bases, structure maps, duals and the axiom verifier."""
import functools
import itertools
import math
import random
import re
import tracemalloc

import pytest

from operad_forge import axioms as ax
from operad_forge import operads as op
from operad_forge.axioms import AxiomReport, verify_axioms
from operad_forge.combinatorics import (
    QCElement,
    QOCSurface,
    QOSurface,
    _cycle_order,
    sort_cycles,
)
from operad_forge.errors import (
    ColourMismatch,
    DuplicateLabel,
    KindMismatch,
    LabelCollision,
    MissingLabel,
    Unstable,
)
from operad_forge.operads import (
    _arc_after,
    _cycle_with,
    _merge_sorted,
    _missing,
    _shared,
    element_kind,
    is_admissible,
)


class TestBasis:
    def test_qc_single_element(self):
        els = op.basis("qc", (1, 2, 3), 2)
        assert els == (op.qc_element((1, 2, 3), 2),)

    def test_qo_three_points_genus_zero(self):
        els = op.basis("qo", (1, 2, 3), 0)
        assert set(els) == {
            op.qo_surface([(1, 2, 3)]), op.qo_surface([(1, 3, 2)]),
        }

    def test_empty_labels_unstable(self):
        with pytest.raises(Unstable):
            op.basis("qo", (), 2)
        els = op.basis("qo", (), 4)
        assert els and all(4 * x.g + 2 * x.boundaries > 4 for x in els)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ass_dimension(self, n):
        assert len(op.basis("ass", range(1, n + 1), 0)) == math.factorial(n - 1)

    def test_qoc_extension_flag(self):
        with pytest.raises(Unstable):
            op.basis("qoc", (), 1, closed=(1,))
        els = op.basis("qoc", (), 1, closed=(1,), extended=True)
        assert els == (op.qoc_surface((), empties=1, g=0, closed=(1,)),)
        els2 = op.basis("qoc", (), 2, closed=(), extended=True)
        assert els2 == (op.qoc_surface((), empties=2, g=0),)
        # the genus-one surface with no ends stays excluded
        assert all(x.g == 0 for x in els2)

    @pytest.mark.parametrize("kind", ["qc", "qo", "ass"])
    def test_closed_labels_need_two_colours(self, kind):
        with pytest.raises(KindMismatch):
            op.basis(kind, (1, 2, 3), 2, closed=(4,))


class TestRelabel:
    def test_identity(self):
        x = op.qo_surface([(1, 2), (3,)], 1, 1)
        assert op.relabel(x, {1: 1, 2: 2, 3: 3}) == x

    def test_swap_on_pair_invariant(self):
        x = op.qo_surface([(1, 2)], 0, 1)
        assert op.relabel(x, {1: 2, 2: 1}) == x

    def test_three_cycle(self):
        x = op.qo_surface([(1, 2, 3)])
        assert op.relabel(x, {1: 1, 2: 3, 3: 2}) == op.qo_surface([(1, 3, 2)])

    def test_functorial(self):
        x = op.qo_surface([(1, 2, 3), (4,)], 0, 0)
        rho = {1: 3, 2: 1, 3: 4, 4: 2}
        sig = {1: 2, 2: 3, 3: 4, 4: 1}
        comp = {l: rho[sig[l]] for l in sig}
        assert op.relabel(x, comp) == op.relabel(op.relabel(x, sig), rho)

    @pytest.mark.parametrize("x,rho,rho_closed,message", [
        (op.qc_element((1, 2, 3), 2), {1: 1}, None,
         "relabelling undefined on [2, 3]"),
        (op.qo_surface([(1, 2), (3,)]), {1: 2, 2: 1, 5: 5}, None,
         "relabelling undefined on [3]"),
        (op.qoc_surface([(1, 2)], closed=(1, 2)), {2: 1}, {1: 1, 2: 2},
         "relabelling undefined on [1]"),
        (op.qoc_surface([(1, 2)], closed=(1, 2, 3)), {1: 2, 2: 1}, {2: 2},
         "closed relabelling undefined on [1, 3]"),
        (op.qoc_surface([(1,)], closed=(2,)), {1: 1}, None,
         "closed relabelling undefined on [2]"),
    ])
    def test_missing_label_message(self, x, rho, rho_closed, message):
        """Every unmapped label of the failing colour is named, sorted."""
        with pytest.raises(MissingLabel) as exc:
            op.relabel(x, rho, rho_closed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x", [
        op.qo_surface([(1, 2, 3), (4,)], 0, 1),
        op.qoc_surface([(1, 2, 3)], closed=(1, 2)),
    ])
    def test_non_injective_map_raises_duplicate_label(self, x):
        """Two labels of one cycle sent to one label raise ``DuplicateLabel``
        with ``sort_cycles``' message."""
        rho = {1: 1, 2: 3, 3: 3, 4: 4}
        with pytest.raises(DuplicateLabel) as exc:
            op.relabel(x, rho)
        with pytest.raises(DuplicateLabel) as want:
            sort_cycles([tuple(rho[l] for l in c) for c in x.cycles])
        assert str(exc.value) == str(want.value) == \
            "cycle with repeated labels: (1, 3, 3)"

    @pytest.mark.parametrize("kind", ["qo", "ass", "qoc"])
    def test_cycles_match_sort_cycles(self, kind):
        """On every basis element up to arity 4 and genus2 4, seeded maps
        (injective into a wider label range, or not injective) give the
        cycles, or the error, of ``sort_cycles`` on the mapped cycles."""
        rng = random.Random(4)
        seen = 0
        for o, c, g2 in itertools.product(range(5), range(5), range(5)):
            if o + c > 4 or (kind != "qoc" and c):
                continue
            try:
                xs = op.basis(kind, range(1, o + 1), g2, closed=range(1, c + 1))
            except Unstable:
                continue
            for x in xs:
                ident = {l: l for l in op.closed_labels(x)}
                for _ in range(6):
                    rho = dict(zip(range(1, o + 1), rng.sample(range(1, 12), o)))
                    if rng.random() < 0.3:
                        rho = {l: rng.randint(1, 3) for l in rho}
                    mapped = [tuple(rho[l] for l in cyc) for cyc in x.cycles]
                    try:
                        want = sort_cycles(mapped)
                    except DuplicateLabel as exc:
                        with pytest.raises(DuplicateLabel, match=re.escape(str(exc))):
                            op.relabel(x, rho, ident)
                        continue
                    assert op.relabel(x, rho, ident).cycles == want, (x, rho)
                    seen += 1
        assert seen > 10


class TestCompose:
    def test_qo_splice(self):
        x = op.qo_surface([(8, 1, 2)])
        y = op.qo_surface([(9, 3, 4)])
        assert op.compose(x, 8, y, 9) == op.qo_surface([(1, 2, 3, 4)])

    def test_qc_genus_addition(self):
        x = op.qc_element((1, 8), 2)
        y = op.qc_element((9, 2, 3), 4)
        assert op.compose(x, 8, y, 9) == op.qc_element((1, 2, 3), 6)

    def test_qoc_closed_gluing(self):
        x = op.qoc_surface([(1,)], closed=(10,))
        y = op.qoc_surface([(2,)], closed=(11, 4))
        got = op.compose(x, 10, y, 11, colour="closed")
        assert got == op.qoc_surface([(1,), (2,)], closed=(4,))
        assert got.genus2 == 2 * 0 + 2 * 2 + 1 - 2

    def test_colour_mismatch(self):
        x = op.qoc_surface([(1,)], closed=(2,))
        y = op.qoc_surface([(3,)], closed=(4,))
        with pytest.raises(ColourMismatch):
            op.compose(x, 2, y, 3, colour="open")

    def test_label_collision(self):
        x = op.qo_surface([(1, 2)], 0, 1)
        y = op.qo_surface([(2, 3)], 0, 1)
        with pytest.raises(LabelCollision):
            op.compose(x, 1, y, 3)

    _qo, _qoc, _qc = op.qo_surface, op.qoc_surface, op.qc_element

    @pytest.mark.parametrize("x,a,y,b,colour,error,message", [
        # kind mismatch, and a factor that is no element at all
        (_qc((1, 2, 3), 0), 1, _qo([(4, 5, 6)]), 4, "open", KindMismatch,
         "cannot compose elements of different kinds"),
        ((1, 2), 1, _qo([(4, 5, 6)]), 4, "open", KindMismatch,
         "not an operad element: (1, 2)"),
        (_qo([(1, 2, 3)]), 1, (4,), 4, "open", KindMismatch,
         "not an operad element: (4,)"),
        # the kind is tested before stability
        (_qo([(1,)]), 1, _qc((4, 5, 6), 0), 4, "open", KindMismatch,
         "cannot compose elements of different kinds"),
        # closed colour on qo, tested before stability
        (_qo([(1, 2, 3)]), 1, _qo([(4, 5, 6)]), 4, "closed", ColourMismatch,
         "closed gluing needs the two-coloured kind"),
        (_qo([(1,)]), 1, _qo([(2, 3), (4,)]), 4, "closed", ColourMismatch,
         "closed gluing needs the two-coloured kind"),
        # an unstable factor, tested before labels
        (_qo([(1,)]), 1, _qo([(2, 3, 4)]), 2, "open", Unstable,
         "composition of an unstable element"),
        (_qo([(1, 2, 3)]), 1, _qo([(5,)]), 5, "open", Unstable,
         "composition of an unstable element"),
        (_qo([(1,)]), 1, _qo([(2, 4, 5)]), 9, "open", Unstable,
         "composition of an unstable element"),
        (_qc((1, 2), 0), 1, _qc((3, 4, 5), 0), 3, "open", Unstable,
         "composition of an unstable element"),
        (_qoc([], empties=1, closed=(7,)), 7, _qoc([(2,)], closed=(9,)), 9,
         "closed", Unstable, "composition of an unstable element"),
        # shared labels, tested before the glued ends
        (_qc((1, 2, 3), 0), 1, _qc((3, 4, 5), 0), 4, "open", LabelCollision,
         "factors share labels"),
        (_qo([(1, 2), (3,)], 0, 1), 1, _qo([(2, 4)], 0, 1), 4, "open",
         LabelCollision, "factors share labels"),
        (_qo([(1, 2, 3)]), 9, _qo([(2, 4, 5)]), 4, "open", LabelCollision,
         "factors share labels"),
        (_qoc([(1,)], closed=(7, 8)), 1, _qoc([(2,)], closed=(8, 9)), 2, "open",
         LabelCollision, "factors share labels"),
        # missing or wrong-colour ends
        (_qc((1, 2, 3), 0), 9, _qc((4, 5, 6), 0), 4, "open", MissingLabel,
         "glued label absent"),
        (_qo([(1, 2, 3)]), 9, _qo([(4, 5, 6)]), 4, "open", MissingLabel,
         "label 9 is not an open end of the first factor"),
        (_qo([(1, 2, 3)]), 1, _qo([(4, 5, 6)]), 9, "open", MissingLabel,
         "label 9 is not an open end of the second factor"),
        (_qoc([(1,)], closed=(7,)), 5, _qoc([(2,)], closed=(9,)), 2, "open",
         MissingLabel, "label 5 is not an open end of the first factor"),
        (_qoc([(1,)], closed=(7,)), 7, _qoc([(2,)], closed=(9,)), 2, "open",
         ColourMismatch, "label 7 is not an open end of the first factor"),
        (_qoc([(1,)], closed=(7,)), 1, _qoc([(2,)], closed=(9,)), 9, "open",
         ColourMismatch, "label 9 is not an open end of the second factor"),
        (_qoc([(1,)], closed=(7,)), 5, _qoc([(2,)], closed=(9,)), 9, "closed",
         MissingLabel, "label 5 is not a closed end of the first factor"),
        (_qoc([(1,)], closed=(7,)), 7, _qoc([(2,)], closed=(9,)), 5, "closed",
         MissingLabel, "label 5 is not a closed end of the second factor"),
        (_qoc([(1,)], closed=(7,)), 1, _qoc([(2,)], closed=(9,)), 9, "closed",
         ColourMismatch, "label 1 is not a closed end of the first factor"),
        (_qoc([(1,)], closed=(7,)), 7, _qoc([(2,)], closed=(9,)), 2, "closed",
         ColourMismatch, "label 2 is not a closed end of the second factor"),
        # closed colour on qc, whose ends are all open, tested before
        # stability as on qo
        (_qc((1, 2, 3), 0), 1, _qc((4, 5, 6), 0), 4, "closed", ColourMismatch,
         "closed gluing needs the two-coloured kind"),
        (_qc((1, 2), 0), 1, _qc((3, 4, 5), 0), 3, "closed", ColourMismatch,
         "closed gluing needs the two-coloured kind"),
        # the factors share an end of the colour not glued, whose number is
        # that of a glued end
        (_qoc([(1,)], closed=(1,)), 1, _qoc([(2,)], closed=(1,)), 2, "open",
         LabelCollision, "factors share labels"),
        (_qoc([(1,)], closed=(1,)), 1, _qoc([(1,)], closed=(2,)), 2, "closed",
         LabelCollision, "factors share labels"),
    ])
    def test_malformed_call_raises(self, x, a, y, b, colour, error, message):
        """Each malformed gluing raises one exception, with its message;
        where several faults meet, the earlier test in the order kind,
        colour, stability, shared labels, ends decides."""
        with pytest.raises(error) as exc:
            op.compose(x, a, y, b, colour=colour)
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestContract:
    def test_two_points_merge_to_empty(self):
        x = op.qo_surface([(1,), (2,)], 0, 1)
        got = op.contract(x, 1, 2)
        assert got == op.qo_surface([], empties=1, g=2)

    def test_pair_splits_to_two_empties(self):
        x = op.qo_surface([(1, 2)], 0, 1)
        got = op.contract(x, 1, 2)
        assert got == op.qo_surface([], empties=2, g=1)

    def test_split_within_cycle(self):
        x = op.qo_surface([(5, 1, 6, 2)])
        assert op.contract(x, 5, 6) == op.qo_surface([(1,), (2,)])

    def test_missing_label(self):
        with pytest.raises(MissingLabel):
            op.contract(op.qo_surface([(1, 2, 3)]), 1, 9)

    @pytest.mark.parametrize("x", [
        op.qo_surface([(1, 2, 3)]), op.qc_element((1, 2, 3, 4), 0),
        op.qc_element((1, 2, 3), 2),
    ])
    def test_closed_colour_needs_two_colours(self, x):
        """A kind without closed ends has nothing to contract in the closed
        colour, even at labels it has."""
        with pytest.raises(ColourMismatch) as exc:
            op.contract(x, 1, 2, colour="closed")
        assert str(exc.value) == "closed contraction needs the two-coloured kind"


class TestEndConvention:
    """The ends each colour glues: a closed surface's are all open."""

    @pytest.mark.parametrize("z, opened, closed, fresh", [
        (op.qc_element((2, 5, 7), 2), {2, 5, 7}, set(), (8, 9)),
        (op.qo_surface([(1, 4), (6,)], 1, 0), {1, 4, 6}, set(), (7, 8)),
        (op.qoc_surface([(2, 3)], 0, 1, closed=(1, 5)), {2, 3}, {1, 5}, (4, 5)),
    ])
    def test_labels_of_each_colour(self, z, opened, closed, fresh):
        assert op.open_labels(z) == opened
        assert op.closed_labels(z) == closed
        assert op.fresh_pair(z, "open") == fresh

    def test_natural_maps_on_loop_representatives(self):
        x, y = op.qc_element((1, 2, 3), 2), op.qc_element((1, 2, 3, 4), 0)
        assert op.natural_compose(x, 2, y, 3) == op.qc_element(range(1, 6), 2)
        assert op.natural_contract(y, 1, 3) == op.qc_element((1, 2), 2)
        assert op.natural_contract(x, 1, 3) == op.qc_element((1,), 4)


class TestCanonicalPerm:
    @pytest.mark.parametrize("kind,o,c,g2", [
        ("qo", 3, 0, 2), ("qo", 4, 0, 2), ("qoc", 3, 1, 3), ("qoc", 2, 2, 4),
        ("qoc", 4, 2, 4),
    ])
    def test_permutes_all_slots_onto_representative(self, kind, o, c, g2):
        """The permutation covers the open and the closed slots, fixes the
        closed ones, and its open part relabels x onto the representative."""
        closed = range(1, c + 1)
        for x in op.basis(kind, range(1, o + 1), g2, closed=closed):
            rep, perm = op.canonical_perm(x)
            assert len(perm) == o + c
            assert perm[o:] == tuple(range(o, o + c))
            rho = {l: perm[l - 1] + 1 for l in range(1, o + 1)}
            assert op.relabel(x, rho, {l: l for l in closed}) == rep


class TestDuals:
    def test_qc_contract_single_term(self):
        z = op.qc_element((1, 2), 4)
        d = op.dual_contract("qc", z, a=3, b=4)
        assert d == {op.qc_element((1, 2, 3, 4), 2): 1}

    def test_no_preimage_below_genus(self):
        z = op.qo_surface([(1, 2, 3)])
        assert op.dual_contract("qo", z) == {}

    def test_qo_contract_matches_listing(self):
        z = op.qo_surface([], empties=1, g=1)  # one empty boundary, genus one
        d = op.dual_contract("qo", z, a=1, b=2)
        # two glued points merge into the empty boundary, raising the genus
        assert d == {op.qo_surface([(1,), (2,)], 0, 0): 1}
        # a glued pair on one cycle splits into two empty boundaries instead
        z2 = op.qo_surface([], empties=2, g=1)
        d2 = op.dual_contract("qo", z2, a=1, b=2)
        assert op.qo_surface([(1, 2)], 0, 1) in d2

    def test_ass_four_splits(self):
        z = op.qo_surface([(1, 2, 3, 4)])
        d = op.dual_compose_formula("ass", z, a=8, b=9)
        assert len(d) == 4
        assert all(len(x.cycles[0]) == 3 for x, _ in d)

    def test_ass_below_four_vanishes(self):
        z = op.qo_surface([(1, 2, 3)])
        assert op.dual_compose_formula("ass", z, a=8, b=9) == {}

    def test_qc_compose_stability_filter(self):
        z = op.qc_element((1, 2), 4)
        d = op.dual_compose("qc", z, a=3, b=4)
        for x, y in d:
            assert x.is_stable() and y.is_stable()
        assert d == op.dual_compose_formula("qc", z, a=3, b=4)

    @pytest.mark.parametrize("kind,n,g2", [
        ("qo", 2, 4), ("qo", 3, 2), ("qo", 4, 2), ("qc", 3, 4), ("ass", 5, 0),
    ])
    def test_formula_matches_pairing_oracle(self, kind, n, g2):
        for z in op.basis(kind, range(1, n + 1), g2):
            assert op.dual_contract(kind, z) == op.dual_contract_formula(kind, z)
            assert op.dual_compose(kind, z) == op.dual_compose_formula(kind, z)

    def test_qc_contract_formula_is_its_own_route(self, monkeypatch):
        """The qc contraction formula does not go through ``contract``: with
        a contraction that is wrong on closed surfaces, the pairing oracle
        and the formula disagree on every basis element of genus >= 1."""
        real = op._contract.__wrapped__

        def broken(x, a, b, colour, extended):
            z = real(x, a, b, colour, extended)
            return z._replace(genus2=z.genus2 + 2) if isinstance(z, op.QCElement) else z

        monkeypatch.setattr(op, "_contract", broken)
        seen = 0
        for n, g2 in [(0, 4), (1, 2), (2, 2), (3, 2), (3, 4)]:
            for z in op.basis("qc", range(1, n + 1), g2):
                assert op.dual_contract("qc", z) != op.dual_contract_formula("qc", z)
                seen += 1
        assert seen == 5
        z = op.qo_surface([(1, 2)], 0, 1)
        assert op.dual_contract("qo", z) == op.dual_contract_formula("qo", z)

    @pytest.mark.parametrize("o,c,g2", [(1, 1, 2), (2, 1, 1), (0, 2, 2), (1, 2, 1)])
    def test_qoc_formula_matches_oracle(self, o, c, g2):
        for z in op.basis("qoc", range(1, o + 1), g2, closed=range(1, c + 1)):
            for colour in ("open", "closed"):
                assert op.dual_contract("qoc", z, colour=colour) == \
                    op.dual_contract_formula("qoc", z, colour=colour)
                assert op.dual_compose("qoc", z, colour=colour) == \
                    op.dual_compose_formula("qoc", z, colour=colour)

    def test_qoc_formula_matches_oracle_extended(self):
        """With the two extension shapes admitted, on every basis element
        with at most 3 open and 3 closed ends and genus2 at most 4."""
        cases = 0
        for o, c, g2 in itertools.product(range(4), range(4), range(5)):
            for z in op.basis("qoc", range(1, o + 1), g2, closed=range(1, c + 1),
                              extended=True):
                for colour in ("open", "closed"):
                    assert op.dual_contract("qoc", z, colour=colour, extended=True) == \
                        op.dual_contract_formula("qoc", z, colour=colour, extended=True)
                    assert op.dual_compose("qoc", z, colour=colour, extended=True) == \
                        op.dual_compose_formula("qoc", z, colour=colour, extended=True)
                    cases += 1
        assert cases == 124

    @pytest.mark.parametrize("kind, z", [
        ("qo", op.qo_surface([(1, 2, 3)])),
        ("ass", op.qo_surface([(1, 2, 3, 4)])),
        ("qc", op.qc_element((1, 2, 3), 2)),
        # odd genus2 as well: the colour is tested first
        ("qc", op.QCElement(frozenset({1, 2}), 3)),
    ])
    @pytest.mark.parametrize("dual", [
        op.dual_contract, op.dual_compose,
        op.dual_contract_formula, op.dual_compose_formula,
    ])
    def test_closed_ends_need_two_colours(self, kind, z, dual):
        """A one-coloured kind has no closed ends, with default ends (drawn
        from the empty closed labels) or explicit ones."""
        with pytest.raises(ColourMismatch, match="two-coloured kind"):
            dual(kind, z, colour="closed")
        with pytest.raises(ColourMismatch, match="two-coloured kind"):
            dual(kind, z, a=8, b=9, colour="closed")

    @pytest.mark.parametrize("z", [
        op.QCElement(frozenset({1, 2}), 3),
        op.QCElement(frozenset({1, 2, 3, 4}), 1),
    ])
    @pytest.mark.parametrize("dual", [
        op.dual_contract, op.dual_compose,
        op.dual_contract_formula, op.dual_compose_formula,
    ])
    def test_closed_surface_of_odd_genus_raises(self, z, dual, monkeypatch):
        """No basis holds a closed surface of odd genus2, so every dual map
        refuses one before doing any work, instead of the two routes giving
        different sums."""
        def refuse(*args, **kwargs):
            raise AssertionError("worked on an odd genus")

        monkeypatch.setattr(op, "basis", refuse)
        for ends in ({}, {"a": 8, "b": 9}):
            with pytest.raises(KindMismatch, match="odd genus2") as exc:
                dual("qc", z, **ends)
            assert type(exc.value) is KindMismatch

    def test_adjunction_against_structure_maps(self):
        """The coefficient of z in the contraction of x equals the
        coefficient of x in the contraction adjoint of z."""
        for g2 in (2, 4):
            for z in op.basis("qo", (1, 2), g2):
                pre = op.dual_contract("qo", z, a=3, b=4)
                for x in op.basis("qo", (1, 2, 3, 4), g2 - 2):
                    expected = 1 if op.contract(x, 3, 4) == z else 0
                    assert pre.get(x, 0) == expected

    @pytest.mark.parametrize("kind", ["qo", "qoc"])
    def test_open_contractions_up_to_the_swap(self, kind):
        """The enumerator yields each open contraction preimage once up to
        the a<->b swap: a mult-1 preimage is its own swap, a mult-2 one is
        not and its swap is never yielded, and with the swaps added the
        preimages are those of the pairing oracle."""
        two = kind == "qoc"
        checked = 0
        for n in range(5):
            for g2 in range(5):
                for c in range(5 - n) if two else (0,):
                    try:
                        els = op.basis(kind, range(1, n + 1), g2, closed=range(1, c + 1))
                    except Unstable:
                        continue
                    for z in els:
                        a, b = op.fresh_pair(z)
                        rho = {l: l for l in z.labels} | {a: b, b: a}
                        ident = {l: l for l in op.closed_labels(z)}
                        yielded, swaps, count = set(), set(), 0
                        for kept, new, e, g, mult in op._open_contractions(
                            z.cycles, z.empties, z.g, a, b
                        ):
                            x = op._make(two, kept + new, e, g, op.closed_labels(z))
                            swapped = op.relabel(x, rho, ident)
                            assert (swapped == x) == (mult == 1), x
                            assert x not in yielded, x
                            yielded.add(x)
                            if mult == 2:
                                swaps.add(swapped)
                            count += mult
                        assert yielded.isdisjoint(swaps), z
                        oracle = op.dual_contract(kind, z)
                        assert count == len(oracle), z
                        assert yielded | swaps == set(oracle), z
                        checked += bool(oracle)
        assert checked


def _glued_pairs(corollas, max_n, max_g2, extra_genus2=0):
    """The pairs of corollas whose gluing fits the bounds, with
    ``extra_genus2`` more genus."""
    for s1, s2 in itertools.product(corollas, repeat=2):
        if s1[2] + s2[2] + extra_genus2 <= max_g2 and \
                s1[0] + s1[1] + s2[0] + s2[1] - 2 <= max_n:
            yield s1, s2


class TestAxiomVerifier:
    def test_small_bounds_pass(self):
        for kind, n, g2 in [("qc", 4, 4), ("qo", 3, 4), ("qoc", 2, 3)]:
            report = verify_axioms(kind, n, g2)
            assert report.passed, report.failures[:3]
            assert report.checked > 0

    def test_extension_bounds_pass(self):
        report = verify_axioms("qoc", 2, 3, extended=True)
        assert report.passed, report.failures[:3]

    def test_detects_broken_composition(self, monkeypatch):
        """A deliberately wrong gluing must surface as failures."""
        real = op._compose.__wrapped__

        def broken(x, a, y, b, colour, extended):
            z = real(x, a, y, b, colour, extended)
            if isinstance(z, op.QOSurface) and a < b:
                return op.QOSurface(cycles=z.cycles, empties=z.empties, g=z.g + 1)
            return z

        monkeypatch.setattr(op, "_compose", broken)
        report = verify_axioms("qo", 2, 4)
        assert not report.passed
        assert report.failures == self._exhaustive("qo", 2, 4).failures

    @pytest.mark.parametrize("kind,n,g2,checked,per_axiom,covered", [
        ("qo", 3, 4, 1710,
         {1: 43, 2: 295, 3: 1223, 4: 88, 5: 0, 6: 8, 7: 6, 8: 47},
         {1: 331, 2: 565, 3: 2265, 4: 88, 5: 0, 6: 96, 7: 30, 8: 1116}),
        ("qoc", 2, 3, 57,
         {1: 10, 2: 17, 3: 28, 4: 0, 5: 0, 6: 0, 7: 0, 8: 2},
         {1: 16, 2: 17, 3: 28, 4: 0, 5: 0, 6: 0, 7: 0, 8: 2}),
    ], ids=["qo-3-4", "qoc-2-3"])  # ids without the counts, which re-pins change
    def test_gluing_memo_lives_for_one_check(self, kind, n, g2, checked,
                                             per_axiom, covered):
        """Each axiom check glues through its own memo: ``verify_axioms``
        leaves the process-wide ``_compose``/``_contract`` caches as it
        found them, and its counts are unchanged."""
        before = op._compose.cache_info(), op._contract.cache_info()
        report = verify_axioms(kind, n, g2)
        assert (op._compose.cache_info(), op._contract.cache_info()) == before
        assert (report.checked, report.per_axiom, report.covered, report.failures) \
            == (checked, per_axiom, covered, [])

    def test_gluing_memo_sees_a_replaced_compose(self, monkeypatch):
        """A ``_compose`` replaced before the run is what every check's memo
        wraps; the fallback then runs with its own memo, and the
        process-wide caches still stay as they were."""
        cached = op._compose
        real = cached.__wrapped__

        def broken(x, a, y, b, colour, extended):
            z = real(x, a, y, b, colour, extended)
            if isinstance(z, op.QOSurface) and a < b:
                return op.QOSurface(cycles=z.cycles, empties=z.empties, g=z.g + 1)
            return z

        monkeypatch.setattr(op, "_compose", broken)
        before = cached.cache_info(), op._contract.cache_info()
        report = verify_axioms("qo", 2, 4)
        assert (cached.cache_info(), op._contract.cache_info()) == before
        assert report.checked == 128
        assert report.per_axiom == {1: 34, 2: 25, 3: 65, 4: 4, 5: 0, 6: 0, 7: 0, 8: 0}
        assert report.covered == {1: 25, 2: 25, 3: 81, 4: 4, 5: 0, 6: 0, 7: 0, 8: 0}
        assert len(report.failures) == 25
        assert {f["axiom"] for f in report.failures} == {1}
        assert report.failures[0] == {
            "axiom": 1,
            "instance": "(QOSurface(cycles=((1, 2),), empties=1, g=0), 1, "
                        "QOSurface(cycles=((3, 4),), empties=1, g=0), 3, 'open')",
            "lhs": "QOSurface(cycles=((2, 4),), empties=2, g=1)",
            "rhs": "QOSurface(cycles=((2, 4),), empties=2, g=0)",
        }

    @staticmethod
    def _all_pairs_ax2(kind, max_n, max_g2):
        """Axiom 2 by its definition: three ``relabel`` calls per pair."""
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        for shape in ax._corollas(kind, max_n, max_g2, False):
            for x in ax._basis(kind, shape, False):
                lo = sorted(op.open_labels(x) if kind == "qoc" else x.labels)
                lc = sorted(op.closed_labels(x)) if kind == "qoc" else []
                maps_o, maps_c = ax._perm_maps(lo), ax._perm_maps(lc)
                for rho_o, sig_o in itertools.product(maps_o, repeat=2):
                    for rho_c, sig_c in itertools.product(maps_c, repeat=2):
                        comp_o = {l: rho_o[sig_o[l]] for l in lo}
                        comp_c = {l: rho_c[sig_c[l]] for l in lc}
                        lhs = op.relabel(x, comp_o, comp_c)
                        rhs = op.relabel(op.relabel(x, sig_o, sig_c), rho_o, rho_c)
                        report.record(2, (x, rho_o, sig_o, rho_c, sig_c), lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _verifier(axiom, kind, max_n, max_g2, **reduced):
        """One axiom as ``verify_axioms`` checks it, by its exhaustive loop
        unless ``reduced=True`` is given."""
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        ax._AXIOM_FUNCS[axiom](report, kind, ax._corollas(kind, max_n, max_g2, False),
                               max_n, max_g2, False, **reduced)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _exhaustive(kind, max_n, max_g2, extended=False):
        """Every axiom by its exhaustive loop, into one report."""
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, extended)
        for axiom, fn in ax._AXIOM_FUNCS.items():
            before = report.checked
            fn(report, kind, corollas, max_n, max_g2, extended)
            report.per_axiom[axiom] = report.checked - before
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    RELABEL_BOUNDS = [("qc", 4, 2), ("qo", 4, 2), ("qoc", 3, 3)]

    @pytest.mark.parametrize("kind,n,g2", RELABEL_BOUNDS)
    def test_relabel_table_matches_all_pairs(self, kind, n, g2):
        """The table-driven axiom 2 checks exactly the all-pairs instances,
        and the reduced one of ``verify_axioms`` passes, checks fewer and
        covers them."""
        table, direct = self._verifier(2, kind, n, g2), self._all_pairs_ax2(kind, n, g2)
        assert table.checked == direct.checked > 0
        assert table.passed and direct.passed
        report = verify_axioms(kind, n, g2)
        assert report.passed
        assert report.covered[2] == direct.checked > report.per_axiom[2]

    @pytest.mark.parametrize("kind,n,g2", [("qo", 3, 2), ("qoc", 3, 3)])
    def test_detects_broken_relabelling(self, monkeypatch, kind, n, g2):
        """A relabelling that is not a group action fails axiom 2, with the
        same failures as the all-pairs check."""
        real = op.relabel

        def broken(x, rho, rho_closed=None):
            y = real(x, rho, rho_closed)
            moved = [l for l in sorted(rho) if rho[l] != l]
            if moved and moved[0] == min(rho) and not isinstance(y, op.QCElement):
                return y._replace(g=y.g + 1)
            return y

        monkeypatch.setattr(op, "relabel", broken)
        table, direct = self._verifier(2, kind, n, g2), self._all_pairs_ax2(kind, n, g2)
        assert not table.passed
        assert table.checked == direct.checked
        assert table.failures == direct.failures
        report = verify_axioms(kind, n, g2)
        assert [f for f in report.failures if f["axiom"] == 2] == direct.failures
        assert report.failures == self._exhaustive(kind, n, g2).failures

    @pytest.mark.parametrize("kind,n,g2,colour",
                             [(*b, "open") for b in RELABEL_BOUNDS] + [("qoc", 3, 3, "closed")])
    def test_three_cycle_relabel_fails_reduced_axiom_2(self, monkeypatch, kind, n, g2,
                                                       colour):
        """A relabelling that is wrong only when its map of ``colour`` is the
        3-cycle l1 -> l3 -> l2 -> l1 of its sorted labels, which is not in
        the small generating set of the reduced axiom 2 (on three labels
        that set holds the other 3-cycle), fails it, and the verifier
        reports the all-pairs failures.  The wrong result is another basis
        element with the same labels, so the reduced check fails at its own
        instances and not because an element left the basis."""
        real = op.relabel
        same_labels = {}
        for shape in ax._corollas(kind, n, g2, False):
            for x in ax._basis(kind, shape, False):
                same_labels.setdefault((op.open_labels(x), op.closed_labels(x)), []).append(x)
        other = {}
        for xs in same_labels.values():
            xs.sort(key=repr)
            other.update(zip(xs, xs[1:] + xs[:1]))

        def three_cycle(rho):
            ls = sorted(rho)
            return len(ls) > 2 and rho == {**{l: l for l in ls},
                                           ls[0]: ls[2], ls[2]: ls[1], ls[1]: ls[0]}

        def broken(x, rho, rho_closed=None):
            y = real(x, rho, rho_closed)
            return other[y] if three_cycle(rho if colour == "open" else rho_closed) else y

        assert not any(three_cycle(m) for k in range(6)
                       for m in ax._label_maps(range(1, k + 1), True))
        monkeypatch.setattr(op, "relabel", broken)
        trial = self._verifier(2, kind, n, g2, reduced=True)
        report, direct = verify_axioms(kind, n, g2), self._all_pairs_ax2(kind, n, g2)
        assert trial.failures and all(f in direct.failures for f in trial.failures)
        assert report.failures == direct.failures
        assert report.per_axiom[2] > report.covered[2] == direct.checked  # fell back

    def test_relabel_out_of_the_basis_falls_back(self, monkeypatch):
        """A relabelling that is functorial but maps genus 0 to genus 1 under
        odd permutations leaves the basis of ``qo``(3,0).  The reduced
        axiom 2 then stops, and the exhaustive loop runs and passes."""
        real = op.relabel

        def odd(rho):
            ls = sorted(rho)
            return sum(rho[i] > rho[j] for i, j in itertools.combinations(ls, 2)) % 2

        def toggled(x, rho, rho_closed=None):
            y = real(x, rho, rho_closed)
            return y._replace(g=y.g ^ 1) if odd(rho) else y

        monkeypatch.setattr(op, "relabel", toggled)
        report, direct = verify_axioms("qo", 3, 0), self._all_pairs_ax2("qo", 3, 0)
        assert direct.passed
        assert not [f for f in report.failures if f["axiom"] == 2]
        assert report.per_axiom[2] > report.covered[2] == direct.checked

    # Reference definitions of axioms 1, 3 and 5-8, one instance at a time:
    # every basis element and every tuple of ends, and for axiom 3 each
    # factor's generator relabellings and free maps, recomputed for every
    # instance.
    @staticmethod
    def _per_instance_ax1(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, False)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2):
            xs = ax._basis(kind, s1, False)
            ys = ax._basis(kind, s2, False, offset_o=s1[0], offset_c=s1[1])
            for colour in op.colours(kind):
                for x, y in itertools.product(xs, ys):
                    for a in ax._ends(x, colour):
                        for b in ax._ends(y, colour):
                            lhs = op._compose(x, a, y, b, colour, False)
                            rhs = op._compose(y, b, x, a, colour, False)
                            report.record(1, (x, a, y, b, colour), lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _per_instance_ax3(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, False)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2):
            xs = ax._basis(kind, s1, False)
            ys = ax._basis(kind, s2, False, offset_o=s1[0], offset_c=s1[1])
            for colour in op.colours(kind):
                for x, y in itertools.product(xs, ys):
                    gens_x = ax._generator_maps(x)
                    gens_y = ax._generator_maps(y)
                    for a in ax._ends(x, colour):
                        for b in ax._ends(y, colour):
                            z = op.compose(x, a, y, b, colour=colour)
                            for rho_o, rho_c in gens_x:
                                for sig_o, sig_c in gens_y:
                                    closed = colour == "closed" and kind == "qoc"
                                    look_x = rho_c if closed else rho_o
                                    look_y = sig_c if closed else sig_o
                                    ro, rc = ax._free_map(rho_o, rho_c, colour, a)
                                    so, sc = ax._free_map(sig_o, sig_c, colour, b)
                                    lhs = op.relabel(z, {**ro, **so}, {**rc, **sc})
                                    rhs = op.compose(
                                        op.relabel(x, rho_o, rho_c), look_x[a],
                                        op.relabel(y, sig_o, sig_c), look_y[b],
                                        colour=colour,
                                    )
                                    report.record(3, (x, a, y, b, colour), lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _per_instance_ax8(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, False)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2):
            for s3 in corollas:
                if s1[2] + s2[2] + s3[2] > max_g2:
                    continue
                if sum(s[0] + s[1] for s in (s1, s2, s3)) - 4 > max_n:
                    continue
                xs = ax._basis(kind, s1, False)
                ys = ax._basis(kind, s2, False, offset_o=s1[0], offset_c=s1[1])
                zs = ax._basis(kind, s3, False, offset_o=s1[0] + s2[0],
                               offset_c=s1[1] + s2[1])
                for col_ab, col_cd in itertools.product(op.colours(kind), repeat=2):
                    for x, y, z in itertools.product(xs, ys, zs):
                        for a in ax._ends(x, col_ab):
                            for b in ax._ends(y, col_ab):
                                xy = op._compose(x, a, y, b, col_ab, False)
                                for c in ax._ends(y, col_cd):
                                    if col_ab == col_cd and c == b:
                                        continue
                                    for d in ax._ends(z, col_cd):
                                        yz = op._compose(y, c, z, d, col_cd, False)
                                        lhs = op._compose(x, a, yz, b, col_ab, False)
                                        rhs = op._compose(xy, c, z, d, col_cd, False)
                                        report.record(
                                            8, (x, y, z, a, b, c, d, col_ab, col_cd),
                                            lhs, rhs,
                                        )
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _per_instance_ax5(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        for shape in ax._corollas(kind, max_n, max_g2, False):
            if shape[2] + 4 > max_g2:
                continue
            for x in ax._basis(kind, shape, False):
                for col1, col2 in itertools.product(op.colours(kind), repeat=2):
                    for a, b in itertools.combinations(ax._ends(x, col1), 2):
                        for c, d in itertools.combinations(ax._ends(x, col2), 2):
                            if col1 == col2 and (c <= a or {a, b} & {c, d}):
                                continue
                            lhs = op._contract(op._contract(x, c, d, col2, False),
                                               a, b, col1, False)
                            rhs = op._contract(op._contract(x, a, b, col1, False),
                                               c, d, col2, False)
                            report.record(5, (x, a, b, c, d, col1, col2), lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _per_instance_ax6(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, False)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2, extra_genus2=2):
            xs = ax._basis(kind, s1, False)
            ys = ax._basis(kind, s2, False, offset_o=s1[0], offset_c=s1[1])
            for col_ab, col_cd in itertools.product(op.colours(kind), repeat=2):
                for x, y in itertools.product(xs, ys):
                    for a, c in itertools.product(ax._ends(x, col_ab), ax._ends(x, col_cd)):
                        for b, d in itertools.product(ax._ends(y, col_ab),
                                                      ax._ends(y, col_cd)):
                            if col_ab == col_cd and (a == c or b == d):
                                continue
                            lhs = op._contract(op._compose(x, c, y, d, col_cd, False),
                                               a, b, col_ab, False)
                            rhs = op._contract(op._compose(x, a, y, b, col_ab, False),
                                               c, d, col_cd, False)
                            report.record(6, (x, y, a, b, c, d, col_ab, col_cd), lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    @staticmethod
    def _per_instance_ax7(kind, max_n, max_g2):
        report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_g2)
        corollas = ax._corollas(kind, max_n, max_g2, False)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2, extra_genus2=2):
            xs = ax._basis(kind, s1, False)
            ys = ax._basis(kind, s2, False, offset_o=s1[0], offset_c=s1[1])
            for col_ab, col_cd in itertools.product(op.colours(kind), repeat=2):
                for x, y in itertools.product(xs, ys):
                    for c, d in itertools.combinations(ax._ends(x, col_cd), 2):
                        for a in ax._ends(x, col_ab):
                            if col_ab == col_cd and a in (c, d):
                                continue
                            for b in ax._ends(y, col_ab):
                                lhs = op._compose(op._contract(x, c, d, col_cd, False),
                                                  a, y, b, col_ab, False)
                                rhs = op._contract(op._compose(x, a, y, b, col_ab, False),
                                                   c, d, col_cd, False)
                                report.record(7, (x, y, a, b, c, d, col_ab, col_cd),
                                              lhs, rhs)
        report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
        return report

    def _assert_matches_reference(self, kind, n, g2):
        """The exhaustive loops of axioms 1, 3 and 5-8 check exactly the
        per-instance definitions' instances, with the same failures;
        ``verify_axioms`` covers them and reports the exhaustive failures."""
        refs = {axiom: getattr(self, f"_per_instance_ax{axiom}")(kind, n, g2)
                for axiom in (1, 3, 5, 6, 7, 8)}
        full = self._exhaustive(kind, n, g2)
        for axiom, ref in refs.items():
            assert full.per_axiom[axiom] == ref.checked
            assert [f for f in full.failures if f["axiom"] == axiom] == ref.failures
        assert all(refs[axiom].checked for axiom in (1, 3, 8))
        report = verify_axioms(kind, n, g2)
        assert {axiom: report.covered[axiom] for axiom in refs} == \
            {axiom: ref.checked for axiom, ref in refs.items()}
        assert report.failures == full.failures
        return report

    GLUING_BOUNDS = [("qc", 5, 4), ("qo", 4, 2), ("qoc", 3, 3)]

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_gluing_matches_per_instance(self, kind, n, g2):
        """Axioms 3 and 8 cover exactly the per-instance definitions'
        instances, and ``covered`` counts them."""
        assert self._assert_matches_reference(kind, n, g2).passed

    @pytest.mark.parametrize("kind,n,g2,extended",
                             [(*b, False) for b in GLUING_BOUNDS] + [("qoc", 2, 3, True)])
    def test_reduced_covers_exhaustive(self, kind, n, g2, extended):
        """The reduced run passes, evaluates at most the instances it covers,
        and covers per axiom exactly what the exhaustive loops check."""
        report = verify_axioms(kind, n, g2, extended=extended)
        full = self._exhaustive(kind, n, g2, extended)
        assert report.passed and full.passed
        assert report.covered == full.per_axiom
        assert all(report.per_axiom[a] <= report.covered[a] for a in range(1, 9))
        assert report.checked == sum(report.per_axiom.values()) <= full.checked

    def test_contractions_match_per_instance(self, monkeypatch):
        """At ``qoc``(4,6) axioms 5-7 contract ends of both colours, in every
        pair of colours.  The reduced run covers exactly the per-instance
        definitions' instances; under a contraction that adds genus at end 1
        of an element with four ends of its colour or more, each exhaustive
        loop checks them with the same failures."""
        kind, n, g2 = "qoc", 4, 6
        refs = {axiom: getattr(self, f"_per_instance_ax{axiom}")(kind, n, g2)
                for axiom in (5, 6, 7)}
        report = verify_axioms(kind, n, g2)
        assert report.passed
        assert {axiom: report.covered[axiom] for axiom in refs} == \
            {axiom: ref.checked for axiom, ref in refs.items()} == {5: 74, 6: 7370, 7: 3603}
        real = op._contract.__wrapped__

        def broken(x, a, b, colour, extended):
            z = real(x, a, b, colour, extended)
            if a == 1 and len(ax._ends(x, colour)) >= 4:
                return z._replace(g=z.g + 1)
            return z

        monkeypatch.setattr(op, "_contract", broken)
        for axiom in refs:
            ref, loop = getattr(self, f"_per_instance_ax{axiom}")(kind, n, g2), \
                self._verifier(axiom, kind, n, g2)
            assert loop.checked == ref.checked == refs[axiom].checked
            assert loop.failures == ref.failures != []

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_non_equivariant_relabel_fails_axiom_3(self, monkeypatch, kind, n, g2):
        """A relabelling that adds genus when it sends label 2 to 1, in
        either colour, fails axiom 3, with the same failures as the
        per-instance definition."""
        real = op.relabel

        def broken(x, rho, rho_closed=None):
            y = real(x, rho, rho_closed)
            if 1 in (rho.get(2), (rho_closed or {}).get(2)):
                if isinstance(y, op.QCElement):
                    return y._replace(genus2=y.genus2 + 2)
                return y._replace(g=y.g + 1)
            return y

        monkeypatch.setattr(op, "relabel", broken)
        report = self._assert_matches_reference(kind, n, g2)
        assert any(f["axiom"] == 3 for f in report.failures)

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_non_associative_compose_fails_axiom_8(self, monkeypatch, kind, n, g2):
        """A gluing that adds genus when the first factor is the larger one
        is not associative: axiom 8 fails, as in the per-instance definition."""
        real = op._compose.__wrapped__

        def broken(x, a, y, b, colour, extended):
            z = real(x, a, y, b, colour, extended)
            if len(op.open_labels(x) | op.closed_labels(x)) > len(
                op.open_labels(y) | op.closed_labels(y)
            ):
                if isinstance(z, op.QCElement):
                    return z._replace(genus2=z.genus2 + 2)
                return z._replace(g=z.g + 1)
            return z

        monkeypatch.setattr(op, "_compose", broken)
        report = self._assert_matches_reference(kind, n, g2)
        assert any(f["axiom"] == 8 for f in report.failures)

    @pytest.mark.parametrize("kind,n,g2", [b for b in GLUING_BOUNDS if b[0] != "qc"])
    def test_compose_wrong_off_representatives(self, monkeypatch, kind, n, g2):
        """A gluing that is wrong only when a factor is not the first basis
        element of its orbit is right on every orbit representative.  Axiom 3
        relabels the factors off the representatives and fails, and the
        fallback then reports the exhaustive failures.  (``qc`` has one
        element per corolla, so there the mutant is the real gluing.)"""
        real = op._compose.__wrapped__

        @functools.lru_cache(maxsize=None)
        def first_of_orbit(x):
            lo, lc = sorted(op.open_labels(x)), sorted(op.closed_labels(x))
            ids_c = {l: l for l in lc}
            orbit = [op.relabel(x, dict(zip(lo, p)), ids_c)
                     for p in itertools.permutations(lo)]
            return x == min(orbit, key=repr)  # bases are sorted by repr

        def broken(x, a, y, b, colour, extended):
            z = real(x, a, y, b, colour, extended)
            if first_of_orbit(x) and first_of_orbit(y):
                return z
            return z._replace(g=z.g + 1)

        monkeypatch.setattr(op, "_compose", broken)
        report = self._assert_matches_reference(kind, n, g2)
        assert any(f["axiom"] == 3 for f in report.failures)

    @staticmethod
    def _stabilizer_by_search(kind, x):
        """Every slot permutation (open map, closed map) that fixes x."""
        lo = sorted(x.labels if kind == "qc" else op.open_labels(x))
        lc = sorted(op.closed_labels(x)) if kind == "qoc" else []
        group = [(dict(zip(lo, po)), dict(zip(lc, pc)))
                 for po in itertools.permutations(lo)
                 for pc in itertools.permutations(lc)]
        return [(mo, mc) for mo, mc in group if op.relabel(x, mo, mc) == x]

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_compose_wrong_off_first_ends(self, monkeypatch, kind, n, g2):
        """A gluing that is wrong only when a glued end is not the least end
        of its orbit under its factor's stabilizer is right on every end
        tuple that the reduced axioms 1, 6 and 8 evaluate.  The verifier
        still fails and reports the exhaustive failures."""
        real = op._compose.__wrapped__
        search = self._stabilizer_by_search

        @functools.lru_cache(maxsize=None)
        def first(x, a, colour):
            closed = kind == "qoc" and colour == "closed"
            return a == min((mc if closed else mo)[a] for mo, mc in search(kind, x))

        def broken(x, a, y, b, colour, extended):
            z = real(x, a, y, b, colour, extended)
            if first(x, a, colour) and first(y, b, colour):
                return z
            if isinstance(z, op.QCElement):
                return z._replace(genus2=z.genus2 + 2)
            return z._replace(g=z.g + 1)

        monkeypatch.setattr(op, "_compose", broken)
        report = verify_axioms(kind, n, g2)
        assert not report.passed
        assert report.failures == self._exhaustive(kind, n, g2).failures

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_relabel_wrong_off_small_generators(self, monkeypatch, kind, n, g2):
        """A relabelling that is wrong only for the transposition of the
        least and the third least of its labels, a map outside the small
        generating set of axiom 3, fails axiom 2, and the verifier
        reports the exhaustive failures."""
        real = op.relabel

        def swaps_first_and_third(rho):
            ls = sorted(rho)
            return len(ls) > 2 and rho == {**{l: l for l in ls}, ls[0]: ls[2], ls[2]: ls[0]}

        def broken(x, rho, rho_closed=None):
            y = real(x, rho, rho_closed)
            if not any(map(swaps_first_and_third, (rho, rho_closed or {}))):
                return y
            if isinstance(y, op.QCElement):
                return y._replace(genus2=y.genus2 + 2)
            return y._replace(g=y.g + 1)

        assert not any(swaps_first_and_third(m) for m in ax._label_maps(range(1, 6), True))
        monkeypatch.setattr(op, "relabel", broken)
        report = verify_axioms(kind, n, g2)
        assert any(f["axiom"] == 2 for f in report.failures)
        assert report.failures == self._exhaustive(kind, n, g2).failures

    def test_asymmetric_contraction_fails_axiom_7(self, monkeypatch):
        """A contraction that is equivariant but depends on the order of its
        two ends: wrong when the first end lies on the longer boundary of a
        sphere with boundaries of lengths 1 and 2.  Axioms 2-4 pass, and on
        the first element of each orbit every pair c < d puts the
        length-1 boundary first, so axiom 7 at pairs c < d alone passes
        there.  The verifier contracts in either order and reports the
        exhaustive failures."""
        real = op._contract.__wrapped__

        def broken(x, a, b, colour, extended):
            z = real(x, a, b, colour, extended)
            if colour == "open" and isinstance(x, op.QOSurface) and (
                    (x.g, x.empties, tuple(map(len, x.cycles))) == (0, 0, (1, 2))):
                if len(op._cycle_with(x, a)) > len(op._cycle_with(x, b)):
                    return z._replace(g=z.g + 1)
            return z

        monkeypatch.setattr(op, "_contract", broken)
        report = verify_axioms("qo", 4, 4)
        assert {f["axiom"] for f in report.failures} == {7}
        assert report.failures == self._exhaustive("qo", 4, 4).failures

    @pytest.mark.parametrize("kind,n,g2", GLUING_BOUNDS)
    def test_reversed_contraction_fails_axiom_4(self, monkeypatch, kind, n, g2):
        """A contraction that is wrong only when its ends come in reverse
        order and the second is not the least end of its colour.  On the
        small generating set {id, (l1 l2), l1 -> ... -> ln} a reversed pair
        on the right-hand side of axiom 4 always ends at l1, so only the
        transpositions that axiom 4 runs over, (l2 l3) say, find it."""
        real = op._contract.__wrapped__

        def broken(x, a, b, colour, extended):
            z = real(x, a, b, colour, extended)
            if a < b or b == min(ax._ends(x, colour)):
                return z
            if isinstance(z, op.QCElement):
                return z._replace(genus2=z.genus2 + 2)
            return z._replace(g=z.g + 1)

        monkeypatch.setattr(op, "_contract", broken)
        report = verify_axioms(kind, n, g2)
        assert any(f["axiom"] == 4 for f in report.failures)
        assert report.failures == self._exhaustive(kind, n, g2).failures

    def test_corollas_skip_empty_bases(self):
        """A stable corolla is listed exactly when its basis is not empty:
        45 of the 80 stable ``qoc``(4,5) corollas have an empty one."""
        kept = ax._corollas("qoc", 4, 5, False)
        assert len(kept) == 35
        stable = 0
        for o, c, g2 in itertools.product(range(5), range(5), range(6)):
            if o + c > 4:
                continue
            try:
                nonempty = bool(ax._basis("qoc", (o, c, g2), False))
            except Unstable:
                continue
            stable += 1
            assert ((o, c, g2) in kept) == nonempty
        assert stable == 80

    def test_per_axiom_counts(self):
        """``per_axiom`` splits ``checked`` by axiom, ``covered`` gives the
        exhaustive count each axiom's instances stand for, and both appear
        in the JSON."""
        report = verify_axioms("qoc", 4, 5)
        assert report.covered == {1: 4759, 2: 32525, 3: 45735, 4: 1232,
                                  5: 18, 6: 2082, 7: 1168, 8: 40570}
        assert sum(report.covered.values()) == 128089
        assert report.per_axiom == {1: 535, 2: 4649, 3: 17805, 4: 1232,
                                    5: 6, 6: 108, 7: 116, 8: 1722}
        assert sum(report.per_axiom.values()) == report.checked == 26173
        doc = report.to_json()
        assert doc["per_axiom"] == {str(k): v for k, v in report.per_axiom.items()}
        assert doc["covered"] == {str(k): v for k, v in report.covered.items()}
        assert doc["checked"] == report.checked

    def test_relabel_memory_stays_bounded(self):
        """The reduced axiom 2 builds no product table of the whole group:
        at seven labels, 5040 permutations, the run stays far below the
        about 1 GiB that a 5040 x 5040 table of ids takes."""
        tracemalloc.start()
        try:
            report = verify_axioms("qc", 7, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert report.covered[2] == 25_935_012
        assert peak < 64 * 2**20


class TestStabilizer:
    """``axioms._stabilizer`` and ``axioms._orbits`` against the whole slot
    group of each element, enumerated."""

    @staticmethod
    def _elements():
        for n, g2 in itertools.product(range(6), (0, 2, 4)):
            try:
                yield from (("qc", x) for x in ax._basis("qc", (n, 0, g2), False))
            except Unstable:
                pass
        for kind, o, c, g2 in itertools.product(("qo", "qoc"), range(5), range(3), range(5)):
            if kind == "qo" and c:
                continue
            try:
                yield from ((kind, x) for x in ax._basis(kind, (o, c, g2), False))
            except Unstable:
                pass

    @staticmethod
    def _as_pair(kind, x, gen):
        """A generator (colour, moved labels) as (open map, closed map)."""
        colour, move = gen
        ids = {c: {l: l for l in ax._ends(x, c)} for c in op.colours(kind)}
        ids[colour] = {**ids[colour], **move}
        return ids["open"], ids.get("closed", {})

    @staticmethod
    def _key(pair):
        return tuple(sorted(pair[0].items())), tuple(sorted(pair[1].items()))

    def test_generators_generate_the_stabilizer(self):
        """The generators lie in the stabilizer and generate all of it."""
        kinds = set()
        for kind, x in self._elements():
            kinds.add(kind)
            fixed = TestAxiomVerifier._stabilizer_by_search(kind, x)
            gens = [self._as_pair(kind, x, g) for g in ax._stabilizer(kind, x)]
            group = {self._key(p): p for p in fixed[:1]}  # the identity
            todo = list(group.values())
            while todo:
                mo, mc = todo.pop()
                for go, gc in gens:
                    p = ({l: go[m] for l, m in mo.items()}, {l: gc[m] for l, m in mc.items()})
                    if self._key(p) not in group:
                        group[self._key(p)] = p
                        todo.append(p)
            assert set(group) == {self._key(p) for p in fixed}, (kind, x)
        assert kinds == {"qc", "qo", "qoc"}

    def test_end_orbits_partition_the_tuples(self):
        """The orbits of end tuples are those of the whole stabilizer: each
        listed tuple is the first of its orbit, with the orbit's size, and
        the orbits partition the tuples."""
        for kind, x in self._elements():
            fixed = TestAxiomVerifier._stabilizer_by_search(kind, x)
            gens = ax._stabilizer(kind, x)
            colours = op.colours(kind)
            for cols in [(c,) for c in colours] + list(itertools.product(colours, repeat=2)):
                tuples = [t for t in itertools.product(*(ax._ends(x, c) for c in cols))
                          if len(set(zip(cols, t))) == len(t)]
                covered = []
                for t, size in ax._orbits(tuples, cols, gens, 3):
                    orbit = {
                        tuple((mc if c == "closed" else mo)[l] for c, l in zip(cols, t))
                        for mo, mc in fixed
                    }
                    assert size == 3 * len(orbit), (kind, x, cols, t)
                    assert t == min(orbit, key=tuples.index)
                    covered += orbit
                assert sorted(covered) == sorted(tuples), (kind, x, cols)


# ---------------------------------------------------------------------------
# Reference routes: direct forms of ``_compose`` (uncached), ``relabel`` and
# ``_cycle_decorations``, kept as oracles for the single-pass forms in
# ``operads``.  They call the module's helpers.


def _reference_cycle_decorations(labels: tuple):
    """All ways to partition a label set into disjoint nonempty cycles."""
    labels = tuple(sorted(labels))
    n = len(labels)
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(labels[i])
                i = perm[i]
            cycles.append(tuple(cyc))
        yield sort_cycles(cycles)


def _reference_relabel(x, rho: dict, rho_closed: dict | None = None):
    """Functorial relabelling; one map per colour for two-coloured elements.

    Each label is mapped in one pass; a label the map lacks surfaces as the
    lookup's ``KeyError`` and is reported as ``MissingLabel``.  Whether the
    map is injective on the open labels is checked once per call; only a
    map that is not goes through ``sort_cycles``, whose ``DuplicateLabel``
    reports two labels of one cycle sent to one."""
    if isinstance(x, QCElement):
        try:
            labels = frozenset(map(rho.__getitem__, x.labels))
        except KeyError:
            raise _missing("relabelling", x.labels, rho) from None
        return QCElement(labels=labels, genus2=x.genus2)
    get = rho.__getitem__
    try:
        mapped = [tuple(map(get, c)) for c in x.cycles]
    except KeyError:
        raise _missing("relabelling", x.labels, rho) from None
    if len(set().union(*mapped)) == sum(map(len, mapped)):
        # Injective on the open labels, so no cycle repeats a label: rotate
        # each to its minimum without canonicalize_cycle's duplicate check.
        cycles = []
        for c in mapped:
            if len(c) > 1:
                k = c.index(min(c))
                if k:
                    c = c[k:] + c[:k]
            cycles.append(c)
        cycles.sort(key=_cycle_order)
        cycles = tuple(cycles)
    else:
        cycles = sort_cycles(mapped)  # raises DuplicateLabel within a cycle
    if isinstance(x, QOSurface):
        return QOSurface(cycles=cycles, empties=x.empties, g=x.g)
    rho_closed = rho_closed if rho_closed is not None else rho
    try:
        closed = frozenset(map(rho_closed.__getitem__, x.closed))
    except KeyError:
        raise _missing("closed relabelling", x.closed, rho_closed) from None
    return QOCSurface(cycles=cycles, empties=x.empties, g=x.g, closed=closed)


def _reference_compose(x, a, y, b, colour, extended):
    kind = element_kind(x)
    if element_kind(y) != kind:
        raise KindMismatch("cannot compose elements of different kinds")
    if colour == "closed" and kind != "qoc":
        raise ColourMismatch("closed gluing needs the two-coloured kind")
    if not (is_admissible(x, extended) and is_admissible(y, extended)):
        raise Unstable("composition of an unstable element")
    if kind == "qc":
        lx, ly = x.labels, y.labels
        if a not in lx or b not in ly:
            raise MissingLabel("glued label absent")
        if _shared(lx, a, ly, b):
            raise LabelCollision("factors share labels")
        return QCElement(labels=(lx - {a}) | (ly - {b}), genus2=x.genus2 + y.genus2)
    ox, oy = x.labels, y.labels
    two = kind == "qoc"
    cx = x.closed if two else frozenset()
    cy = y.closed if two else frozenset()
    # only the glued colour's label sets may share the glued ends' label
    if colour == "open":
        shared = _shared(ox, a, oy, b) or bool(cx & cy)
    else:
        shared = _shared(cx, a, cy, b) or bool(ox & oy)
    if shared:
        raise LabelCollision("factors share labels")
    if colour == "open":
        if a not in ox:
            raise (ColourMismatch if a in cx else MissingLabel)(
                f"label {a} is not an open end of the first factor"
            )
        if b not in oy:
            raise (ColourMismatch if b in cy else MissingLabel)(
                f"label {b} is not an open end of the second factor"
            )
        ca = _cycle_with(x, a)
        cb = _cycle_with(y, b)
        merged = _arc_after(ca, a) + _arc_after(cb, b)
        cycles = tuple(c for c in x.cycles if c != ca) + tuple(
            c for c in y.cycles if c != cb
        )
        empties = x.empties + y.empties
        new = ()
        if merged:
            new = (merged,)
        else:
            empties += 1
        if two:
            return QOCSurface(
                cycles=_merge_sorted(cycles, new), empties=empties, g=x.g + y.g,
                closed=cx | cy,
            )
        return QOSurface(cycles=_merge_sorted(cycles, new), empties=empties, g=x.g + y.g)
    if a not in cx:
        raise (ColourMismatch if a in ox else MissingLabel)(
            f"label {a} is not a closed end of the first factor"
        )
    if b not in cy:
        raise (ColourMismatch if b in oy else MissingLabel)(
            f"label {b} is not a closed end of the second factor"
        )
    return QOCSurface(
        cycles=_merge_sorted(x.cycles + y.cycles, ()), empties=x.empties + y.empties,
        g=x.g + y.g, closed=(cx - {a}) | (cy - {b}),
    )


def _outcome(fn, *args):
    """What a call returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


class TestAgainstReference:
    """The single-pass ``_compose``, ``relabel`` and ``_cycle_decorations``
    give what the reference routes give, results and exception types."""

    EXTENDED = (False, True, "free")

    @staticmethod
    def _factors(kind, max_n=4, max_g2=4):
        """Every (x, y) of the bases within the bounds, y's labels after
        x's, with the extension shapes in."""
        corollas = ax._corollas(kind, max_n, max_g2, True)
        for s1, s2 in _glued_pairs(corollas, max_n, max_g2):
            for x in ax._basis(kind, s1, True):
                for y in ax._basis(kind, s2, True, offset_o=s1[0], offset_c=s1[1]):
                    yield x, y

    @pytest.mark.parametrize("kind", ["qo", "qoc"])
    def test_compose_on_the_bases(self, kind):
        compose = op._compose.__wrapped__
        seen = 0
        for x, y in self._factors(kind):
            for colour in ("open", "closed"):
                for a in ax._ends(x, colour) or [1]:
                    for b in ax._ends(y, colour) or [1]:
                        for extended in self.EXTENDED:
                            args = (x, a, y, b, colour, extended)
                            assert _outcome(compose, *args) == _outcome(
                                _reference_compose, *args), args
                            seen += 1
        assert seen > 1000

    def test_compose_on_malformed_calls(self):
        """Shared labels, a missing end, the wrong colour, an unstable factor,
        mixed kinds and overlapping cycles, alone and together."""
        qo, qoc, qc = op.qo_surface, op.qoc_surface, op.qc_element
        pool = [
            qo([(1, 2, 3)]), qo([(1,)]), qo([(2, 3), (4,)]), qo([(1, 2)], 1),
            qo([(4, 5)], 0, 1), qo([], 2), qo([(1, 2), (1, 2)]), qo([(4,), (4, 9)]),
            qoc([(1,)], closed=(7,)), qoc([(2,)], closed=(7, 9)), qoc([], 1, 0, (7,)),
            qoc([(1, 2)], closed=(1,)), qoc([(3, 4)], 0, 1),
            qc((1, 2, 3), 0), qc((1, 2), 0), qc((3, 4, 5), 2),
            (1, 2),
        ]
        compose = op._compose.__wrapped__
        for x, y in itertools.product(pool, repeat=2):
            for a, b in itertools.product((1, 2, 4, 7, 9), repeat=2):
                for colour in ("open", "closed"):
                    for extended in self.EXTENDED:
                        args = (x, a, y, b, colour, extended)
                        assert _outcome(compose, *args) == _outcome(
                            _reference_compose, *args), args

    @pytest.mark.parametrize("kind", ["qc", "qo", "qoc"])
    def test_relabel_on_the_bases(self, kind):
        """Every slot permutation of every basis element, and maps that are
        not injective, lack a label or leave out the closed map."""
        seen = 0
        for shape in ax._corollas(kind, 4, 4, True):
            for x in ax._basis(kind, shape, True):
                lo, lc = ax._ends(x, "open"), ax._ends(x, "closed")
                maps = [(mo, mc) for mo in ax._perm_maps(lo) for mc in ax._perm_maps(lc)]
                if lo:
                    maps += [({l: lo[0] for l in lo}, {l: l for l in lc}),
                             ({l: l for l in lo[1:]}, {l: l for l in lc}),
                             ({l: l + 10 for l in lo}, None)]
                if lc:
                    maps += [({l: l for l in lo}, {l: l for l in lc[1:]}),
                             ({l: l for l in lo}, {l: lc[0] for l in lc})]
                for mo, mc in maps:
                    assert _outcome(op.relabel, x, mo, mc) == _outcome(
                        _reference_relabel, x, mo, mc), (x, mo, mc)
                    seen += 1
        assert seen > 100

    @pytest.mark.parametrize("labels", [
        (), (1,), (1, 2, 3), (2, 5, 9, 10), (3, 1, 2, 6), tuple(range(1, 7)),
        (4, 11, 7, 12, 30, 8), (1, 1), (2, 3, 2, 5),
    ])
    def test_cycle_decorations(self, labels):
        assert _outcome(lambda: list(op._cycle_decorations(labels))) == _outcome(
            lambda: list(_reference_cycle_decorations(labels)))

    @pytest.mark.parametrize("kind", ["qo", "ass", "qoc"])
    def test_basis_order(self, monkeypatch, kind):
        """``basis`` lists the same elements in the same order for n <= 6."""
        bases = op._qo_bases.__wrapped__
        cases = []
        for n in range(7):
            for labels in (tuple(range(1, n + 1)), tuple(range(3, 3 * n + 3, 3))):
                for g2 in range(4 if n < 6 else 2):
                    for closed in ((), (1, 2)) if kind == "qoc" else ((),):
                        for extended in (False, True):
                            cases.append((labels, g2, closed, kind, extended))
        ours = [bases(*case) for case in cases]
        monkeypatch.setattr(op, "_cycle_decorations", _reference_cycle_decorations)
        assert ours == [bases(*case) for case in cases]
        assert sum(map(len, ours)) > 100


class TestRelabelMemo:
    @pytest.mark.parametrize("kind,n,g2", [("qoc", 3, 3), ("qo", 4, 4)])
    def test_one_relabel_per_element_and_map(self, monkeypatch, kind, n, g2):
        """Within each axiom check of one ``verify_axioms`` run, ``relabel``
        is called exactly once per distinct (element, open map, closed map)."""
        real = op.relabel
        calls, check = {}, [None]

        def counted(x, rho, rho_closed=None):
            key = (x, frozenset(rho.items()), frozenset((rho_closed or {}).items()))
            per_check = calls.setdefault(check[0], {})
            per_check[key] = per_check.get(key, 0) + 1
            return real(x, rho, rho_closed)

        def tagged(axiom, fn):
            def run(*args, **kwargs):
                check[0] = (axiom, kwargs.get("reduced", False))
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(op, "relabel", counted)
        for axiom, fn in list(ax._AXIOM_FUNCS.items()):
            monkeypatch.setitem(ax._AXIOM_FUNCS, axiom, tagged(axiom, fn))
        report = verify_axioms(kind, n, g2)
        assert report.passed
        assert {2, 3, 4} <= {axiom for axiom, _ in calls}
        for per_check in calls.values():
            assert set(per_check.values()) == {1}
