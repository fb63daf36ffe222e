"""Generating functions and the noncommutative BV operations.

Elements live in the direct sum over components (orbit representative,
dual-word) of coinvariant classes: a class is a canonical representative
key together with a word of basis indices canonicalized under the
representative's stabilizer, with Koszul signs tracked and classes killed
by a sign-reversing stabilizer element dropped.

The three operations of degree +1 act per component: the differential is
the slotwise Leibniz sum, the loop operation contracts two ends of one
representative through the inverse pairing (weighted by the formal
parameter, so the component genus rises by one), and the bracket glues two
representatives end to end.  The only group data they need is, per glued
end or contracted ordered pair of ends, its orbit under the representative's
stabilizer: each orbit enters once, at its least member, with weight
|orbit| / |stabilizer| (``_end_weights``, which gives the argument).

The stabilizer orders, those end weights and the symmetry plans all derive
from one description of the stabilizer, its shape (``ftalgebra.stab_shape``).
Each key has one ``lru_cache``d symmetry plan (``_symmetry``), the
``combinatorics.WordSymmetry`` of its shape and letter parities: its cycle
blocks grouped by length, and, once a class is expanded into its invariant
functional, the stabilizer's generators as pairs of word getter and
inversion masks.  A canonical word rotates each block to its least
rotation, trying only the rotations that start at the block's least letter
and reading each sign off the block's odd mask; it sorts a group of
equal-length blocks only when the group has more than one member, and the
tail by the inversions among its odd letters.  A class expands by one walk
of its orbit along the generators (``combinatorics.symmetrize``).  The plan
shares ``stab_shape`` and the kernels with the generic route, and nothing
else.

The bulk producers (the three operations and ``series_from_maps``) sum
their raw contributions per (component key, word) first and canonicalize
each distinct word once, which is exact by linearity.  Within one call the
sums are integer numerators over one common denominator: the product of
the lcm of the value denominators, the lcm of the weight denominators
(stabilizer orders, end weights, contraction scales) and the lcm of the
glued colours' inverse-pairing denominators, with the first two taken per
factor in the bracket.  It must be the product: a weighted value has a
denominator dividing the product of the two lcms, not in general their
joint lcm.  Each class becomes one ``Fraction`` at the end.  The pairing
is read as integers off each space's ``pairing`` record, over that
space's own lcm; the quotient of the common lcm by a colour's own rides
on that colour's end weights and contraction scales.

The bracket and the loop operation do not go through the endomorphism
operad's ``endo_compose``/``endo_contract``, on which the generic residual
they are checked against is built.  What depends on the shape only (the
output key, the permutation carrying the glued or contracted surface onto
its representative, its inversion masks and the end weights) is an
``lru_cache``d plan per (kind, keys, ends, colour); each factor is split
around each glued end once per call, and a hash join over the nonzero
entries of the inverse pairing writes every glued word through the plan's
permutation into the raw sums with one Koszul sign.

That sign is -1 to a quadratic form in the parities of the joined word's
letters, so one form per join (the plan's) is split along the two words:
each first entry reads its own sign and its row of cross terms once per
join, each second entry its own sign, and a pair then costs one AND and
one ``bit_count`` (``_kernels.form_at``, which the endomorphism operad's
joins evaluate too).

The self-bracket [S, S] visits each unordered pair of (key, glued-end
orbit) entries of one colour once.  A diagonal pair runs as an ordered
one.  Off the diagonal, the swapped pair (w2 at q, w1 at p) gives the
same class as (w1 at p, w2 at q) times (-1)^{|w1||w2|}, the Koszul sign
of exchanging the two words: gluing is symmetric (axiom 1), so both
orders build one surface with the same ends, and the join's sign differs
only by that exchange.  So an off-diagonal word pair counts twice, unless
both words are odd, when the two orders cancel and the pair is skipped.

``_add_raw`` memoizes the least rotation of each block it meets for the
length of one call, whose words share one table of letter parities; no
memo outlives the call.

The block-indexed relation ``herbst_residual`` is planned the same way,
once per profile (bseq, g): the plan lists its merged-cycle, split-cycle
and splitting terms, each with its scale, the map key and source positions
of each string vertex, and the inversion masks of the one permutation
taking the source word (d, e) + args to the vertex target words.  Koszul
signs compose, so that permutation's sign, read with one ``mask_sign``,
is the sign of the reordering times the sign of each vertex's block
permutation.  The relation shares the vertex plans, the inverse pairing
rows and the kernels with the route it checks, and nothing else.

The polynomial forms of the closed-surface kind, the second route for
the loop operation and the bracket, use none of these plans: they keep
``Fraction``s and their own inverse pairing, list each word's derivative
summands once and sort each distinct joined word once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import operads as op
from ._kernels import (
    apply_perm_to_word,
    form_at,
    invert_perm,
    inversion_masks,
    koszul_sign,
    lcm_of_denominators,
    mask_sign,
    numerators,
    odd_mask,
    word_getter,
)
from .combinatorics import (
    WordSymmetry,
    block_permutation,
    stabilizer_size,
    trim_bseq,
    tuple_orbits,
)
from .errors import (
    KindMismatch,
    LabelMismatch,
    PreconditionViolated,
    SymmetryViolation,
)
from .ftalgebra import (
    AlgebraData,
    CyclicKey,
    LoopKey,
    QocKey,
    QuantumKey,
    _words_for_dims,
    key_arity,
    key_closed,
    key_of,
    representative,
    stab_generators,
    stab_shape,
)
from .graded import MultiFunctional, functional_differential, invert_matrix

ZERO = Fraction(0)
HALF = Fraction(1, 2)

__all__ = [
    "BVElement",
    "generating_function",
    "series_from_maps",
    "bv_diff",
    "bv_delta",
    "bv_bracket",
    "master_residual",
    "qc_poly_delta",
    "qc_poly_bracket",
    "s_prime",
    "string_vertex_F",
    "string_vertex_V",
    "herbst_residual",
    "herbst_generating_function",
    "random_bv_element",
]


# ---------------------------------------------------------------------------
# word canonicalization under the representative's stabilizer


@lru_cache(maxsize=None)
def _symmetry(kind, key, table):
    """The symmetry plan of one key, on letters of the degrees ``table``."""
    return WordSymmetry(*stab_shape(kind, key), tuple(d % 2 for d in table))


def _stab_size(kind, key) -> int:
    return stabilizer_size(*stab_shape(kind, key))


@lru_cache(maxsize=None)
def _end_weights(kind, key, colour, k) -> dict:
    """The k-tuples of distinct ends of the colour that the bracket glues
    (k = 1) or the loop operation contracts (k = 2) at the representative
    of ``key``, each with its weight: the least tuple of each orbit under
    the representative's stabilizer H, with weight |orbit| / |H|.  A tuple
    lists ends by their index within the colour: open end i is slot i and
    closed end i slot n + i.

    The operations sum over a coset section of H in the slot permutations
    that keep each colour: per section element, the term at the ends it
    brings to the front of the colour, over the factorials of the slots
    that stay.  Ends in one H-orbit give one class: the stored functionals
    are H-invariant, so moving the ends by an element of H moves the term
    by a relabelling within its coinvariant class.  The section sum is
    therefore 1/|H| times the sum over all those permutations, which bring
    each k-tuple to the front once per permutation of the slots that stay:
    an orbit weighs |orbit| / |H| (orbit-stabilizer), gathered on one
    member, and the least member is the section's choice.  The test suite
    checks both against the section at small bounds.
    """
    n, c = key_arity(key), key_closed(key)
    base, m = (0, n) if colour == "open" else (n, c)
    moves = [lambda t, s=s: tuple(s[base + i] - base for i in t)
             for s in stab_generators(kind, key)]
    size = _stab_size(kind, key)
    return {t: Fraction(len(orbit), size) for t, orbit in
            tuple_orbits(itertools.permutations(range(m), k), moves)}


# ---------------------------------------------------------------------------
# elements


@dataclass
class BVElement:
    """Formal series of coinvariant classes, graded by component keys."""

    kind: str
    space: object
    cspace: object = None
    terms: dict = field(default_factory=dict)

    def table(self):
        if self.cspace is None:
            return self.space.degrees
        return self.space.degrees + self.cspace.degrees

    def add_term(self, key, word, value):
        if not value:
            return
        sym = _symmetry(self.kind, key, self.table())
        w0, sign = sym.canonical(word)
        if w0 is None:
            return
        comp = self.terms.setdefault(key, {})
        nv = comp.get(w0, ZERO) + sign * value
        if nv:
            comp[w0] = nv
        else:
            comp.pop(w0, None)
            if not comp:
                self.terms.pop(key, None)

    def prune(self):
        for key in list(self.terms):
            comp = {w: v for w, v in self.terms[key].items() if v}
            if comp:
                self.terms[key] = comp
            else:
                del self.terms[key]
        return self

    def is_zero(self):
        self.prune()
        return not self.terms

    def scaled(self, c):
        c = Fraction(c)
        out = BVElement(self.kind, self.space, self.cspace)
        if c:
            out.terms = {
                key: {w: c * v for w, v in comp.items()}
                for key, comp in self.terms.items()
            }
        return out

    def plus(self, other):
        _same_home(self, other)
        out = BVElement(self.kind, self.space, self.cspace)
        out.terms = {key: dict(comp) for key, comp in self.terms.items()}
        for key, comp in other.terms.items():
            acc = out.terms.setdefault(key, {})
            for w, v in comp.items():
                nv = acc.get(w, ZERO) + v
                if nv:
                    acc[w] = nv
                else:
                    acc.pop(w, None)
        return out.prune()

    def minus(self, other):
        return self.plus(other.scaled(-1))

    def same_as(self, other):
        return self.minus(other).is_zero()

    def component(self, key) -> dict:
        return dict(self.terms.get(key, {}))

    def functional(self, key) -> MultiFunctional:
        """The invariant functional carried by one component."""
        plan = _symmetry(self.kind, key, self.table())
        entries = plan.expand(self.terms.get(key, {}))
        n, cc = key_arity(key), key_closed(key)
        return MultiFunctional(
            space=self.space, labels=tuple(range(1, n + 1)), entries=entries,
            degree=None, cspace=self.cspace,
            clabels=tuple(range(1, cc + 1)) if cc else (),
        )


def _same_home(x: BVElement, y: BVElement):
    """Refuse to combine elements of different kinds or spaces."""
    if x.kind != y.kind:
        raise KindMismatch(f"elements of kinds {x.kind} and {y.kind}")
    if (x.space, x.cspace) != (y.space, y.cspace):
        raise LabelMismatch("functionals over different spaces")


def _add_raw(out: BVElement, raw: dict, denom: int = 1) -> BVElement:
    """Fill the empty element ``out`` with raw contributions summed per
    (key, word), as numerators over the common denominator ``denom``: the
    plan of each key is looked up once, each distinct word canonicalized
    once, and each class written as one ``Fraction``.  The least rotations
    of the words' blocks are memoized for the call: its words share one
    table of letter parities."""
    table = out.table()
    rotations: dict = {}
    sums: dict = {}  # key -> (canonical, numerator per canonical word)
    for (key, word), num in raw.items():
        if not num:
            continue
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = (_symmetry(out.kind, key, table).canonical, {})
        w0, sign = acc[0](word, rotations)
        if w0 is not None:
            acc[1][w0] = acc[1].get(w0, 0) + (num if sign > 0 else -num)
    for key, (_, acc) in sums.items():
        comp = {w0: Fraction(num, denom) for w0, num in acc.items() if num}
        if comp:
            out.terms[key] = comp
    return out


def series_from_maps(kind, space, cspace, families: dict) -> BVElement:
    """The coinvariant series with one summand per stabilizer coset.

    ``families`` maps component keys to full invariant entry dicts; each
    component contributes with weight one over its stabilizer order.  The
    raw sums are numerators over the lcm of the value denominators times
    the lcm of the stabilizer orders.
    """
    dv = lcm_of_denominators(
        v for entries in families.values() for v in entries.values()
    )
    orders = {key: _stab_size(kind, key) for key in families}
    ds = math.lcm(*orders.values())
    raw: dict = {}
    for key, entries in families.items():
        weight = ds // orders[key]
        for w, num in numerators(entries, dv).items():
            raw[(key, w)] = weight * num
    return _add_raw(BVElement(kind, space, cspace), raw, dv * ds)


def generating_function(data: AlgebraData) -> BVElement:
    """The stabilizer-weighted series collecting all stored maps."""
    for key, f in data.maps.items():
        if f.degree != 0:
            raise SymmetryViolation(f"map {key} is not of degree 0")
    return series_from_maps(
        data.kind, data.space, data.closed_space,
        {key: data.tensor(key) for key in data.maps},
    )


# ---------------------------------------------------------------------------
# the three operations


def bv_diff(x: BVElement) -> BVElement:
    """Slotwise Leibniz differential, degree +1, preserving components."""
    return series_from_maps(x.kind, x.space, x.cspace, {
        key: functional_differential(x.functional(key)).entries
        for key in x.terms
    })


@lru_cache(maxsize=None)
def _delta_plan(kind, key, i, j, colour):
    """The shape-only part of contracting ends i and j of one colour of the
    representative of ``key``: (output key, slots of the two ends, getter of
    the remaining letters in canonical order, inversion masks, scale).

    The move tau sends the two ends to the front and every other slot s to
    2 + sigma(s), with sigma the canonicalizing permutation of the
    contracted surface; its Koszul sign is the sign of bringing the ends
    together in front (in ``endo_contract``'s closed case, bringing them in
    front of the open block) times the sign of sigma on the rest.  The
    scale is minus the pair's end weight.
    """
    n, c = key_arity(key), key_closed(key)
    base = 0 if colour == "open" else n
    z = op.natural_contract(representative(key), i + 1, j + 1, colour=colour)
    rep_out, sigma = op.canonical_perm(z)
    pa, pb = base + i, base + j
    tau = [0] * (n + c)
    tau[pa], tau[pb] = 0, 1
    rest = [s for s in range(n + c) if s not in (pa, pb)]
    for k, s in enumerate(rest):
        tau[s] = 2 + sigma[k]
    return (key_of(kind, rep_out), pa, pb,
            word_getter(invert_perm(tau)[2:]), inversion_masks(tau),
            -_end_weights(kind, key, colour, 2)[i, j])


def _glued_space(x: BVElement, colour):
    """The space of the glued colour and the offset of its letters."""
    if colour == "open":
        return x.space, 0
    return x.cspace, x.space.dim


def _integer_functionals(x: BVElement):
    """Per key, the invariant entries of x as integer numerators over the
    lcm of its class coefficients' denominators; and that lcm."""
    denom = lcm_of_denominators(
        v for comp in x.terms.values() for v in comp.values()
    )
    table = x.table()
    return {
        key: _symmetry(x.kind, key, table).expand(numerators(comp, denom))
        for key, comp in x.terms.items()
    }, denom


def bv_delta(x: BVElement) -> BVElement:
    """The loop contraction weighted by the formal parameter: components of
    arity n+2 and genus2 G feed components of arity n and genus2 G+2.

    Each stored word is contracted through the inverse pairing and moved
    straight into canonical slot order with one Koszul sign; the sign of
    the contraction itself, as in ``endo_contract``, is the parity of the
    whole word.
    """
    if x.kind == "cyclic_ainfty":
        raise KindMismatch("the genus-zero cyclic kind carries no loop operation")
    kind = x.kind
    parities = tuple(d % 2 for d in x.table())
    colours = op.colours(kind)
    fx, dv = _integer_functionals(x)
    dp = math.lcm(*(_glued_space(x, colour)[0].pairing.den for colour in colours))
    jobs = [
        (key, colour, _delta_plan(kind, key, i, j, colour))
        for key in fx for colour in colours
        for i, j in _end_weights(kind, key, colour, 2)
    ]
    ds = lcm_of_denominators(plan[5] for _, _, plan in jobs)
    raw: dict = {}
    for key, colour, (out_key, pa, pb, rest, masks, scale) in jobs:
        space, off = _glued_space(x, colour)
        matrix, den = space.pairing.int_matrix, space.pairing.den
        # the scale carries the colour's share of the common pairing lcm
        sn = scale.numerator * (ds // scale.denominator) * (dp // den)
        for w, v in fx[key].items():
            coeff = matrix[w[pa] - off][w[pb] - off]
            if not coeff:
                continue
            odd = odd_mask(w, parities)
            val = sn * coeff * v
            # the contraction's own sign is the parity of the word
            if (mask_sign(masks, odd) < 0) != (odd.bit_count() & 1):
                val = -val
            rk = (out_key, rest(w))
            raw[rk] = raw.get(rk, 0) + val
    return _add_raw(BVElement(kind, x.space, x.cspace), raw, dv * dp * ds)


def _split_at_end(entries, slot, weight, parities, off, first):
    """One factor's entries split around its glued slot, as (glued index,
    rest, odd mask of rest, parity of the word, signed value times weight),
    the rest being the open and then the closed letters that stay.

    The sign is the factor's own part of ``endo_compose``'s: moving the
    glued letter to the front past the letters before it (for a closed
    end, past the open block too), times -1 to p_f for the first factor
    and to p_g |e| for the second, p being the parity of the word.
    """
    before = (1 << slot) - 1
    out = []
    for w, v in entries.items():
        g = w[slot]
        deg_g = parities[g]
        rest = w[:slot] + w[slot + 1 :]
        odd = odd_mask(rest, parities)
        p = deg_g ^ odd.bit_count() & 1
        s = deg_g & (odd & before).bit_count() ^ (p if first else p & deg_g)
        out.append((g - off, rest, odd, p, -v * weight if s & 1 else v * weight))
    return out


def _integer_factor(x: BVElement, colours):
    """One factor of the bracket in integers: its entries (as
    ``_integer_functionals``) and the weights of its ends (as
    ``_end_weights`` of single ends), each over the lcm of their own
    denominators, and the factor's denominator, the product of the two
    lcms.  A weighted entry has a denominator dividing that product but
    not, in general, the lcm of both sets of denominators."""
    entries, dv = _integer_functionals(x)
    weights = {(key, colour): _end_weights(x.kind, key, colour, 1)
               for key in entries for colour in colours}
    dw = lcm_of_denominators(
        w for ws in weights.values() for w in ws.values()
    )
    return entries, {kc: numerators(ws, dw) for kc, ws in weights.items()}, dv * dw


@lru_cache(maxsize=None)
def _bracket_plan(kind, key1, i, key2, j, colour):
    """The shape-only part of gluing end i of one colour of key1's
    representative to end j of key2's: (output key, getter moving the word
    rest2 + rest1 into canonical slot order, the join's sign form over
    that word, and the length of rest2).

    In ``natural_compose``'s slot order the glued surface reads x1 x2 y1
    y2 (x the opens, y the closeds that stay), and ``canonical_perm``
    carries it to its representative by sigma.  The join reads the word
    as x2 y2 x1 y1 and moves it by tau, sigma after that reordering.  The
    reordering costs (|x2| + |y2|)(|x1| + |y1|) + |x2| |y1|, which is
    exactly the part of ``endo_compose``'s sign that pairs the two
    factors, so the whole pair sign is the two factors' own signs times
    the Koszul sign of tau.  The form holds tau's inversion masks, and
    each slot of rest1 also holds its inversions with the slots of rest2
    before it (``form_at``'s cross terms).
    """
    z = op.natural_compose(representative(key1), i + 1, representative(key2),
                           j + 1, colour=colour)
    rep_out, sigma = op.canonical_perm(z)
    n1, c1 = key_arity(key1), key_closed(key1)
    n2, c2 = key_arity(key2), key_closed(key2)
    nx1, nx2 = (n1 - 1, n2 - 1) if colour == "open" else (n1, n2)
    m1, m2 = n1 + c1 - 1, n2 + c2 - 1
    cuts = (0, nx1, nx1 + nx2, nx2 + m1, m1 + m2)
    x1, x2, y1, y2 = (range(a, b) for a, b in zip(cuts, cuts[1:]))
    tau = [sigma[t] for t in (*x2, *y2, *x1, *y1)]
    rows = list(inversion_masks(tau))
    for t in range(m2, m2 + m1):
        rows[t] |= sum(1 << u for u in range(m2) if tau[u] > tau[t])
    return (key_of(kind, rep_out), word_getter(invert_perm(tau)), tuple(rows),
            m2)


def bv_bracket(x: BVElement, y: BVElement) -> BVElement:
    """Glue one end of each factor through the inverse pairing.

    Each factor is split around each of its glued ends once; the second
    one is bucketed by its glued letter and joined with the first through
    the nonzero entries of the inverse pairing, with ``endo_compose``'s
    sign.  Each joined word goes through the planned canonicalizing
    permutation into the output with one Koszul sign.  The self-bracket
    joins each unordered pair of glued ends once (see the module
    docstring).
    """
    _same_home(x, y)
    kind = x.kind
    out = BVElement(kind, x.space, x.cspace)
    if not (x.terms and y.terms):
        return out
    parities = tuple(d % 2 for d in x.table())
    colours = op.colours(kind)
    fx, wx, dx = _integer_factor(x, colours)
    fy, wy, dy = (fx, wx, dx) if y is x else _integer_factor(y, colours)
    dp = math.lcm(*(_glued_space(x, colour)[0].pairing.den for colour in colours))
    raw: dict = {}
    for colour in colours:
        closed = colour == "closed"
        space, off = _glued_space(x, colour)
        rows = space.pairing.int_rows
        share = dp // space.pairing.den  # the colour's share of the common lcm
        seconds = []
        for key2, entries in fy.items():
            n2 = key_arity(key2)
            for (j,), weight in wy[key2, colour].items():
                buckets: dict = {}
                for e, r2, b, par, v in _split_at_end(
                        entries, n2 * closed + j, weight, parities, off, False):
                    buckets.setdefault(e, []).append((r2, b, par, v))
                seconds.append((key2, j, buckets))
        k = 0  # for y is x, the index of each first end among the seconds
        for key1, entries in fx.items():
            n1 = key_arity(key1)
            for (i,), weight in wx[key1, colour].items():
                firsts = _split_at_end(entries, n1 * closed + i, -weight * share,
                                       parities, off, True)
                for q, (key2, j, buckets) in enumerate(
                        seconds[k:] if y is x else seconds):
                    _bracket_join(raw, _bracket_plan(kind, key1, i, key2, j, colour),
                                  firsts, buckets, rows, y is x and q > 0)
                k += 1
    return _add_raw(out, raw, dx * dp * dy)


def _bracket_join(raw, plan, firsts, buckets, rows, twice):
    """Add the glued words of one pair of ends, in canonical slot order,
    to the raw (key, word) sums; ``twice`` for the two orders of a
    self-bracket's pair of distinct ends."""
    out_key, move, form, shift = plan
    signed: dict = {}  # each second entry with its own sign of tau
    evens: dict = {}  # the even ones, which an odd first entry meets twice
    for e, bucket in buckets.items():
        row = signed[e] = []
        for r2, b, p, v in bucket:
            item = (r2, b, -v if form_at(form, 0, b)[0] else v)
            row.append(item)
            if twice and not p:
                evens.setdefault(e, []).append(item)
    for d, r1, a, p, vf in firsts:
        own, cross = form_at(form, 0, a << shift)
        if own:
            vf = -vf
        meets = signed
        if twice:
            vf += vf
            if p:
                meets = evens
        for e, coeff in rows[d]:
            bucket = meets.get(e)
            if bucket is None:
                continue
            vfc = vf * coeff
            for r2, b, vg in bucket:
                val = vfc * vg
                if (cross & b).bit_count() & 1:
                    val = -val
                rk = (out_key, move(r2 + r1))
                raw[rk] = raw.get(rk, 0) + val


def master_residual(S: BVElement) -> BVElement:
    """d(S) plus the parameter-weighted loop term plus half the self-bracket."""
    result = bv_diff(S)
    if S.kind != "cyclic_ainfty":
        result = result.plus(bv_delta(S))
    return result.plus(bv_bracket(S, S).scaled(HALF)).prune()


# ---------------------------------------------------------------------------
# polynomial forms for the closed-surface kind


def _require_loop(x: BVElement):
    if x.kind != "loop":
        raise KindMismatch("polynomial forms exist for the closed-surface kind")


def _poly_derivatives(word, table, right=False):
    """Every summand of the left (or right) derivative of a word, as
    (letter, rest, sign), in one pass.

    A left derivative moves past the preceding letters with the Koszul sign
    of its own parity against theirs, which is what consistency on the
    graded symmetric algebra forces; a right derivative moves past the
    following ones, whose degree is the total minus the prefix minus the
    letter.
    """
    total = sum(table[k] for k in word)
    out = []
    prefix = 0
    for k, a in enumerate(word):
        past = total - prefix - table[a] if right else prefix
        out.append((a, word[:k] + word[k + 1 :], -1 if table[a] * past % 2 else 1))
        prefix += table[a]
    return out


def qc_poly_delta(x: BVElement) -> BVElement:
    """Second-order left-derivative form of the loop operation."""
    _require_loop(x)
    inv = invert_matrix(x.space.omega)
    table = x.space.degrees
    out = BVElement(x.kind, x.space, None)
    for key, comp in x.terms.items():
        if key.n < 2:
            continue
        out_key = LoopKey(key.n - 2, key.genus + 1)
        for w, c in comp.items():
            # the transferred operation twists odd classes by a sign
            cc = -c if sum(table[k] for k in w) % 2 else c
            for j, rest1, s1 in _poly_derivatives(w, table):
                for i, rest2, s2 in _poly_derivatives(rest1, table):
                    wij = inv[i][j]
                    if wij:
                        coeff = -wij if table[i] % 2 else wij
                        out.add_term(out_key, rest2, coeff * s1 * s2 * cc)
    return out


def qc_poly_bracket(x: BVElement, y: BVElement) -> BVElement:
    """Right-by-left derivative pairing of two polynomial series.

    The terms are summed per (output key, joined word), and each distinct
    joined word is sorted with its own Koszul sign once, apart from the
    symmetry plan.
    """
    _require_loop(x)
    _require_loop(y)
    _same_home(x, y)
    inv = invert_matrix(x.space.omega)
    table = x.space.degrees

    def summands(z, right):
        return [(key, [(c, sum(table[k] for k in w) % 2,
                        _poly_derivatives(w, table, right))
                       for w, c in comp.items()])
                for key, comp in z.terms.items() if key.n >= 1]

    sums: dict = {}
    right_of_x, left_of_y = summands(x, True), summands(y, False)
    for key1, words1 in right_of_x:
        for key2, words2 in left_of_y:
            acc = sums.setdefault(
                LoopKey(key1.n + key2.n - 2, key1.genus + key2.genus), {})
            for c1, p1, d1 in words1:
                for c2, p2, d2 in words2:
                    # the transferred bracket twists by the factor parities
                    cc = -c1 * c2 if (p1 + 1) * p2 % 2 else c1 * c2
                    for i, r1, s1 in d1:
                        row = inv[i]
                        for j, r2, s2 in d2:
                            wij = row[j]
                            if wij:
                                word = r1 + r2
                                v = wij * cc
                                acc[word] = acc.get(word, ZERO) + (
                                    v if s1 == s2 else -v)
    out = BVElement(x.kind, x.space, None)
    for out_key, acc in sums.items():
        for word, value in acc.items():
            perm = invert_perm(sorted(range(len(word)),
                                      key=lambda p: (word[p], p)))
            sm = koszul_sign(perm, tuple(table[k] for k in word))
            out.add_term(out_key, apply_perm_to_word(perm, word), sm * value)
    return out


def s_prime(S: BVElement) -> BVElement:
    """Absorb the differential into a quadratic term of the series."""
    if S.kind not in ("loop", "cyclic_ainfty"):
        raise KindMismatch("the quadratic substitution needs symmetric or cyclic series")
    space = S.space
    table = space.degrees
    dim = space.dim
    quad = BVElement(S.kind, space, None)
    key = LoopKey(2, 0) if S.kind == "loop" else CyclicKey(2)
    for i in range(dim):
        for j in range(dim):
            acc = ZERO
            for k in range(dim):
                if space.differential[k][i]:
                    acc += space.differential[k][i] * space.omega[k][j]
            if acc:
                quad.add_term(key, (i, j), HALF * acc)
    # the pairing-with-the-differential term generates d under the bracket;
    # with the conventions here it enters with a plus sign
    return S.plus(quad)


# ---------------------------------------------------------------------------
# string vertices


def _block_sort_perm(lengths):
    """Block permutation arranging block lengths in nondecreasing order,
    blocks of equal length keeping their order."""
    return invert_perm(sorted(range(len(lengths)), key=lengths.__getitem__))


@lru_cache(maxsize=None)
def _vertex_plan(kind, g, b_total, blocks, n_closed):
    """The argument-independent part of a string vertex: (number of open
    arguments, map key, block permutation); the key is None when there are
    more blocks than boundaries."""
    blocks = tuple(int(l) for l in blocks)
    if any(l < 1 for l in blocks):
        raise PreconditionViolated("blocks must be nonempty")
    b0 = b_total - len(blocks)
    if b0 < 0:
        return sum(blocks), None, None
    counts = [b0] + [0] * (max(blocks) if blocks else 0)
    for l in blocks:
        counts[l] += 1
    bseq = trim_bseq(counts)
    if kind == "qoc":
        key = QocKey(bseq, g, n_closed)
    else:
        key = QuantumKey(bseq, g)
    perm = block_permutation(_block_sort_perm(blocks), blocks)
    return sum(blocks), key, perm


def string_vertex_F(data: AlgebraData, g, b_total, blocks, args,
                    closed_args=()) -> Fraction:
    """Block-indexed evaluation of one map, minus one half by convention.

    ``blocks`` are the nonempty block lengths in subscript order; the total
    boundary count ``b_total`` fixes how many empty boundaries the map key
    carries.  The blocks are sorted stably by length onto the key's cycles,
    so exchanging the arguments of two blocks of one length only changes
    the value by their Koszul sign, since the stored map is invariant.
    """
    n_open, key, perm = _vertex_plan(
        data.kind, g, b_total, tuple(blocks), len(closed_args)
    )
    if n_open != len(args):
        raise PreconditionViolated("arguments do not fill the blocks")
    if key is None:
        raise PreconditionViolated("more blocks than boundaries")
    T = data.tensor(key)
    if not T:
        return ZERO
    word = tuple(args)
    target = apply_perm_to_word(perm, word)
    if data.kind == "qoc":
        off = data.space.dim
        target = target + tuple(k + off for k in closed_args)
    value = T.get(target)
    if not value:
        return ZERO
    table = data.space.degrees
    if koszul_sign(perm, tuple(table[k] for k in word)) > 0:
        return -HALF * value
    return HALF * value


def string_vertex_V(data: AlgebraData, g, blocks, args,
                    closed_args=()) -> Fraction:
    """String vertex allowing empty blocks: the empty ones are dropped in
    order and contribute a factorial weight."""
    blocks = tuple(int(l) for l in blocks)
    nonzero = tuple(l for l in blocks if l)
    b0 = len(blocks) - len(nonzero)
    return math.factorial(b0) * string_vertex_F(
        data, g, len(blocks), nonzero, args, closed_args=closed_args
    )


# ---------------------------------------------------------------------------
# the block-indexed relation and generating function


def _check_minimal(data: AlgebraData):
    if data.kind != "quantum_ainfty":
        raise KindMismatch("the block-indexed relation needs open-surface data")
    if any(any(row) for row in data.space.differential):
        raise PreconditionViolated("the block-indexed relation needs d = 0")
    for key, f in data.maps.items():
        if key.bseq[0] > 0 and f.entries:
            raise PreconditionViolated(
                "maps with empty boundaries must vanish for the block-indexed form"
            )


@lru_cache(maxsize=None)
def _herbst_plan(bseq, g):
    """The word-independent part of the block-indexed relation of the
    profile (bseq, g): its arity and its terms (scale, vertices, inversion
    masks), in the order merged-cycle, split-cycle, splitting.

    A term reads its vertex words off the source word (d, e) + args, in
    which a is slot 0, b slot 1 and label l slot l + 1: each vertex is
    (map key, getter of the source slots filling the key's target word).
    Listed in the order of the vertex's block-indexed word, those slots
    go through its block permutation into target order.  The masks are
    those of the composite, which sends each source slot to its slot in
    the target words side by side; its Koszul sign is the sign of
    reordering the source word into the block-indexed words times the
    sign of each vertex's block permutation.
    """
    rep = representative(QuantumKey(bseq, g))
    cyc = [tuple(l + 1 for l in c) for c in rep.cycles]  # as source slots
    nb = len(cyc)
    terms = []

    def add(scale, vertices):
        # vertices: (genus, boundaries, blocks, source positions) per vertex
        parts, targets = [], []
        for gv, b_total, blocks, sources in vertices:
            _, key, perm = _vertex_plan("quantum_ainfty", gv, b_total, blocks, 0)
            at = apply_perm_to_word(perm, sources)
            parts.append((key, word_getter(at)))
            targets += at
        terms.append((scale, tuple(parts),
                      inversion_masks(invert_perm(targets))))

    # merged-cycle terms: a and b join two boundary cycles into one
    for i in range(nb):
        for j in range(i + 1, nb):
            ci, cj = cyc[i], cyc[j]
            rest = [c for k, c in enumerate(cyc) if k not in (i, j)]
            tail = tuple(l for c in rest for l in c)
            blocks = (len(ci) + len(cj) + 2,) + tuple(len(c) for c in rest)
            for p in range(len(ci)):
                for q in range(len(cj)):
                    add(-HALF, [(g, nb - 1, blocks, (0,) + ci[p:] + ci[:p]
                                 + (1,) + cj[q:] + cj[:q] + tail)])
    # split-cycle terms: a and b cut one boundary cycle in two
    if g >= 1:
        for m in range(nb):
            cm = cyc[m]
            L = len(cm)
            rest = [c for k, c in enumerate(cyc) if k != m]
            tail = tuple(l for c in rest for l in c)
            for s in range(L):
                wordm = cm[s:] + cm[:s]
                for l in range(L - s, L + 1):
                    blocks = (l + 1, L - l + 1) + tuple(len(c) for c in rest)
                    add(-HALF, [(g - 1, nb + 1, blocks,
                                 (0,) + wordm[:l] + (1,) + wordm[l:] + tail)])
    # splitting terms: one half of the right-hand side, each vertex carrying
    # its own minus one half
    for m in range(nb):
        cm = cyc[m]
        L = len(cm)
        others = [k for k in range(nb) if k != m]
        for r in range(len(others) + 1):
            for I in itertools.combinations(others, r):
                cyc1 = [cyc[k] for k in I]
                cyc2 = [cyc[k] for k in others if k not in I]
                lab1 = tuple(l for c in cyc1 for l in c)
                lab2 = tuple(l for c in cyc2 for l in c)
                for g1 in range(g + 1):
                    g2 = g - g1
                    for s in range(L):
                        wordm = cm[s:] + cm[:s]
                        for l in range(L + 1):
                            if not (g1 > 0 or I or l >= 2):
                                continue
                            if not (g2 > 0 or cyc2 or L - l >= 2):
                                continue
                            add(-HALF * HALF * HALF, [
                                (g1, len(cyc1) + 1,
                                 (l + 1,) + tuple(len(c) for c in cyc1),
                                 (0,) + wordm[:l] + lab1),
                                (g2, len(cyc2) + 1,
                                 (L - l + 1,) + tuple(len(c) for c in cyc2),
                                 (1,) + wordm[l:] + lab2),
                            ])
    return rep.arity, tuple(terms)


def herbst_residual(data: AlgebraData, bseq, g, args) -> Fraction:
    """Left minus right side of the minimal block-indexed relation.

    The terms come from ``_herbst_plan``, which holds per term its scale
    (-1/2 for the merged-cycle and split-cycle terms, -1/8 for a
    splitting term: one half of the right side times one half per
    vertex), the map key and source positions of each vertex, and
    inversion masks.  Per nonzero entry (d, e, c) of the inverse pairing a
    term gathers its vertex words from (d, e) + args and looks each up in
    its stored tensor.  Its sign is the Koszul sign of reordering
    (d, e) + args into the vertex words times that of each vertex's block
    permutation; Koszul signs compose, so this is the sign of the
    composite permutation, one ``mask_sign`` of its masks on the odd mask
    of (d, e) + args.
    """
    _check_minimal(data)
    bseq = trim_bseq(bseq)
    if bseq[0] != 0:
        raise PreconditionViolated("the relation is indexed by profiles without "
                                   "empty boundaries")
    n, terms = _herbst_plan(bseq, g)
    args = tuple(args)
    if len(args) != n:
        raise PreconditionViolated("argument word has the wrong length")
    space = data.space
    parities = tuple(d % 2 for d in space.degrees)
    odd_args = odd_mask(args, parities) << 2
    pairs = [
        ((d, e) + args, odd_args | parities[d] | parities[e] << 1, c)
        for d, row in enumerate(space.pairing.rows) for e, c in row
    ]
    tensor = data.tensor
    acc = ZERO
    for scale, vertices, masks in terms:
        total = ZERO
        if len(vertices) == 1:
            ((key, at),) = vertices
            T = tensor(key)
            if not T:
                continue
            for src, odd, c in pairs:
                v = T.get(at(src))
                if v:
                    total += c * v if mask_sign(masks, odd) > 0 else -c * v
        else:
            (key1, at1), (key2, at2) = vertices
            T1, T2 = tensor(key1), tensor(key2)
            if not (T1 and T2):
                continue
            for src, odd, c in pairs:
                v1 = T1.get(at1(src))
                if not v1:
                    continue
                v2 = T2.get(at2(src))
                if not v2:
                    continue
                v = c * v1 * v2
                total += v if mask_sign(masks, odd) > 0 else -v
        if total:
            acc += scale * total
    return acc


def herbst_generating_function(data: AlgebraData, max_n, max_genus2) -> BVElement:
    """Block-indexed form of the generating series.

    A block-indexed word can only be nonzero where its target word is in
    the support of the stored tensor, so each (composition, genus, empty
    boundaries) walks that support, and a shape whose tensor is empty is
    skipped before its surface is built.  The block-indexed word w has
    target word vperm . w and series word sigma . w, so one move pi, with
    pi[vperm[i]] = sigma[i], takes each target word to its series word;
    Koszul signs compose, so pi's sign is that of sigma times that of the
    vertex's block permutation.  The series' weight -2 / (bbar! prod l)
    times the vertex's -1/2 leaves 1 / (bbar! prod l).
    """
    if data.kind != "quantum_ainfty":
        raise KindMismatch("the block-indexed series needs open-surface data")
    out = BVElement(data.kind, data.space, None)
    parities = tuple(d % 2 for d in data.space.degrees)
    for n in range(0, max_n + 1):
        for bbar in range(0 if n == 0 else 1, n + 1):
            for comp in _compositions(n, bbar):
                weight = Fraction(1, math.factorial(bbar) * math.prod(comp))
                for g in range(0, max_genus2 // 4 + 1):
                    for b0 in range(0, max_genus2 // 2 + 2):
                        b = bbar + b0
                        genus2 = 4 * g + 2 * b - 2
                        if genus2 > max_genus2 or genus2 + n <= 2:
                            continue
                        _, key, vperm = _vertex_plan(data.kind, g, b, comp, 0)
                        T = data.tensor(key)
                        if not T:
                            continue
                        cycles = []
                        nxt = 1
                        for l in comp:
                            cycles.append(tuple(range(nxt, nxt + l)))
                            nxt += l
                        _, sigma = op.canonical_perm(op.qo_surface(cycles, b0, g))
                        pi = [0] * n
                        for i, p in enumerate(vperm):
                            pi[p] = sigma[i]
                        move = word_getter(invert_perm(pi))
                        masks = inversion_masks(pi)
                        for target, value in T.items():
                            if mask_sign(masks, odd_mask(target, parities)) < 0:
                                value = -value
                            out.add_term(key, move(target), weight * value)
    return out.prune()


def _compositions(n, parts):
    if parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# random elements for the algebra-identity tests


def random_bv_element(rng, kind, space, cspace, keys, parity=0,
                      density=0.5) -> BVElement:
    """Random element supported on the given keys, homogeneous of the given
    word parity."""
    out = BVElement(kind, space, cspace)
    table = out.table()
    dim_c = cspace.dim if cspace is not None else 0
    for key in keys:
        for w in _words_for_dims(kind, space.dim, dim_c, key_arity(key),
                                 key_closed(key)):
            if sum(table[k] for k in w) % 2 != parity % 2:
                continue
            if rng.random() < density:
                num = rng.randint(-3, 3)
                if num:
                    out.add_term(key, w, Fraction(num, rng.randint(1, 3)))
    return out.prune()
