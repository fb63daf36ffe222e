"""The surface operads: bases, structure maps, duals and the axiom verifier.

Four kinds are supported:

- ``qc``   closed surfaces, one basis element per stable corolla;
- ``qo``   open surfaces: disjoint cycles in the label set, an empty
           boundary count and a genus;
- ``ass``  the genus-zero single-boundary part of ``qo`` (cycles of full
           length, arity at least 3);
- ``qoc``  two-coloured surfaces carrying an extra set of closed ends.

Open and closed labels are independent namespaces; two-coloured operations
take an explicit ``colour``.  Every end of a closed surface (``qc``) is an
open-colour end: ``colour="open"`` glues it and ``open_labels`` lists it,
for every structure map and dual map alike.  All structure maps are degree
0, so no signs appear in this module.  Dual structure maps are computed
twice, generically by enumerating the source basis and pairing, and
through explicit splitting formulas; the test suite checks the two paths
agree term for term.

The open-surface families are enumerated once each: the ordered
splittings along an open end (one boundary cycle rotated and cut into two
arcs, or an empty boundary split) or a closed end by ``_open_splittings``
and ``_closed_splittings``, the contraction preimages by
``_open_contractions``, up to the swap of the two ends.  The dual formulas
and the hand-coded residuals of ``ftalgebra`` both walk them.  Neither
comparison has them on both sides: the formulas are checked against the
pairing oracles, and the hand residuals against ``ft_residual``, which is
built on those oracles.  ``canonical_perm`` returns the permutation of
every slot, so no caller extends it over the closed slots.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .combinatorics import (
    QCElement,
    QOCSurface,
    QOSurface,
    _cycle_order,
    _rep_cycles,
    b_sequence,
    canonicalize_cycle,
    sort_cycles,
)
from .errors import (
    ColourMismatch,
    DuplicateLabel,
    KindMismatch,
    LabelCollision,
    MissingLabel,
    Unstable,
)

KINDS = ("qc", "qo", "ass", "qoc")

# Builds an element from its fields in order, skipping the NamedTuple
# constructor's argument handling: _new(QOSurface, (cycles, empties, g)).
_new = tuple.__new__

# Unstable surfaces admitted by the extension flag: a sphere with one
# closed end and one empty boundary, and a sphere with two empty
# boundaries.  Encoded as (boundaries, g, number of closed ends).
EXTENSION_SHAPES = {(1, 0, 1), (2, 0, 0)}


def qc_element(labels, genus2):
    return QCElement(labels=frozenset(labels), genus2=int(genus2))


def qo_surface(cycles, empties=0, g=0):
    return QOSurface(cycles=sort_cycles(cycles), empties=int(empties), g=int(g))


def qoc_surface(cycles, empties=0, g=0, closed=()):
    return QOCSurface(
        cycles=sort_cycles(cycles), empties=int(empties), g=int(g),
        closed=frozenset(closed),
    )


def element_kind(x) -> str:
    if isinstance(x, QCElement):
        return "qc"
    if isinstance(x, QOSurface):
        return "qo"
    if isinstance(x, QOCSurface):
        return "qoc"
    raise KindMismatch(f"not an operad element: {x!r}")


def colours(kind) -> tuple:
    """The colours of the ends of an operad or algebra kind: only the
    two-coloured ``qoc`` has closed ends."""
    return ("open", "closed") if kind == "qoc" else ("open",)


def open_labels(x) -> frozenset:
    """The ends that ``colour="open"`` glues: every label but the closed
    ends of a two-coloured surface, so all labels of a closed surface."""
    return x.labels


def closed_labels(x) -> frozenset:
    """The ends that ``colour="closed"`` glues: those of a two-coloured
    surface only."""
    return x.closed if isinstance(x, QOCSurface) else frozenset()


def is_admissible(x, extended=False) -> bool:
    """Stable, or one of the two extension shapes when ``extended``; the
    value "free" waives stability altogether (internal series bookkeeping)."""
    if extended == "free":
        return True
    if x.is_stable():
        return True
    if extended and isinstance(x, QOCSurface) and not x.cycles:
        return (x.boundaries, x.g, len(x.closed)) in EXTENSION_SHAPES
    return False


class FormalSum(dict):
    """Rational linear combination of basis elements (or pairs of them)."""

    def add(self, key, value=Fraction(1)):
        value = self.get(key, Fraction(0)) + value
        if value:
            self[key] = value
        elif key in self:
            del self[key]


# ---------------------------------------------------------------------------
# basis enumeration


@lru_cache(maxsize=None)
def _index_decorations(n: int) -> tuple:
    """Every partition of range(n) into disjoint nonempty cycles, in
    canonical form, one per permutation in ``itertools.permutations`` order.
    Each cycle is walked from its least index, so it starts at its minimum.
    Cached per n: n! decorations, about 1.8 MiB at n = 7 and 11 MiB at
    n = 8."""
    out = []
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
                cyc.append(i)
                i = perm[i]
            cycles.append(tuple(cyc))
        cycles.sort(key=_cycle_order)
        out.append(tuple(cycles))
    return tuple(out)


def _cycle_decorations(labels: tuple):
    """All ways to partition a label set into disjoint nonempty cycles: those
    of range(n) carried onto the sorted labels.  The map is increasing, so
    each cycle keeps its canonical rotation and the cycles their order."""
    labels = tuple(sorted(labels))
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"repeated labels: {labels}")
    get = labels.__getitem__
    for cycles in _index_decorations(len(labels)):
        yield tuple([tuple(map(get, c)) for c in cycles])


@lru_cache(maxsize=None)
def _qo_bases(labels: tuple, genus2: int, closed: tuple, kind: str, extended: bool):
    out = []
    for cycles in _cycle_decorations(labels):
        ne = len(cycles)
        if kind == "ass":
            if ne != 1 or len(labels) < 3 or genus2 != 0:
                continue
            out.append(QOSurface(cycles=cycles, empties=0, g=0))
            continue
        budget = genus2 + 2 - 2 * ne - (len(closed) if kind == "qoc" else 0)
        g = 0
        while 4 * g <= budget:
            rem = budget - 4 * g
            if rem % 2 == 0:
                empties = rem // 2
                if kind == "qoc":
                    x = QOCSurface(
                        cycles=cycles, empties=empties, g=g, closed=frozenset(closed)
                    )
                else:
                    x = QOSurface(cycles=cycles, empties=empties, g=g)
                if x.boundaries >= (0 if kind == "qoc" else 1) and is_admissible(
                    x, extended
                ):
                    out.append(x)
            g += 1
    return tuple(sorted(out, key=repr))


def basis(kind: str, labels: Iterable, genus2: int, closed: Iterable = (),
          extended: bool = False) -> tuple:
    """Complete duplicate-free basis of the (kind, corolla) component."""
    labels = tuple(sorted(labels))
    closed = tuple(sorted(closed))
    if kind not in KINDS:
        raise KindMismatch(f"unknown operad kind {kind!r}")
    if kind != "qoc" and closed:
        raise KindMismatch("closed labels only exist for the two-coloured kind")
    if kind == "qc":
        x = QCElement(labels=frozenset(labels), genus2=genus2)
        if not x.is_stable():
            raise Unstable(f"corolla ({labels}, {genus2}/2) is unstable")
        if genus2 % 2:
            return ()  # closed surfaces carry integer genus only
        return (x,)
    if genus2 + len(labels) + len(closed) <= 2 and not extended:
        raise Unstable(f"corolla ({labels}, {closed}, {genus2}/2) is unstable")
    return _qo_bases(labels, genus2, closed, kind, bool(extended))


# ---------------------------------------------------------------------------
# structure maps


def relabel(x, rho: dict, rho_closed: dict | None = None):
    """Functorial relabelling; one map per colour for two-coloured elements.

    Each cycle is mapped and rotated to its minimum in one pass; a label the
    map lacks surfaces as the lookup's ``KeyError`` and is reported as
    ``MissingLabel``.  Whether the map is injective on the open labels is
    checked once per call; only a map that is not goes through
    ``sort_cycles``, whose ``DuplicateLabel`` reports two labels of one
    cycle sent to one.  The result is built with ``tuple.__new__``."""
    if isinstance(x, QCElement):
        try:
            labels = frozenset(map(rho.__getitem__, x.labels))
        except KeyError:
            raise _missing("relabelling", x.labels, rho) from None
        return _new(QCElement, (labels, x.genus2))
    get = rho.__getitem__
    cycles = []
    try:
        for c in x.cycles:
            c = tuple(map(get, c))
            if len(c) > 1:  # rotate to the minimum
                k = c.index(min(c))
                if k:
                    c = c[k:] + c[:k]
            cycles.append(c)
    except KeyError:
        raise _missing("relabelling", x.labels, rho) from None
    if len(set().union(*cycles)) == sum(map(len, cycles)):
        # Injective on the open labels, so no cycle repeats a label and the
        # rotations are canonical.
        cycles.sort(key=_cycle_order)
        cycles = tuple(cycles)
    else:  # raises DuplicateLabel within a cycle, naming it as mapped
        cycles = sort_cycles(tuple(map(get, c)) for c in x.cycles)
    if isinstance(x, QOSurface):
        return _new(QOSurface, (cycles, x.empties, x.g))
    rho_closed = rho_closed if rho_closed is not None else rho
    try:
        closed = frozenset(map(rho_closed.__getitem__, x.closed))
    except KeyError:
        raise _missing("closed relabelling", x.closed, rho_closed) from None
    return _new(QOCSurface, (cycles, x.empties, x.g, closed))


def _missing(what, labels, rho) -> MissingLabel:
    return MissingLabel(f"{what} undefined on {sorted(labels - set(rho))}")


def _cycle_with(x, label):
    for c in x.cycles:
        if label in c:
            return c
    raise MissingLabel(f"label {label} not on any boundary of {x}")


def _arc_after(cycle: tuple, label: int) -> tuple:
    k = cycle.index(label)
    return cycle[k + 1 :] + cycle[:k]


def _merge_sorted(old_cycles: tuple, new_cycles) -> tuple:
    """Insert freshly produced cycles among already-canonical ones."""
    items = list(old_cycles)
    items.extend(canonicalize_cycle(c) for c in new_cycles)
    items.sort(key=_cycle_order)
    return tuple(items)


def _open_side(x, a):
    """One pass over x's cycles: its open labels, its first cycle through
    ``a`` (None if there is none) and its other cycles, less any repeat of
    that cycle."""
    labels, through, others = set(), None, []
    for c in x.cycles:
        labels.update(c)
        if a in c:
            if through is None:
                through = c
                continue
            if c == through:
                continue
        others.append(c)
    return labels, through, others


@lru_cache(maxsize=1 << 20)
def _compose(x, a, y, b, colour, extended):
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
        return _new(QCElement, ((lx - {a}) | (ly - {b}), x.genus2 + y.genus2))
    opened = colour == "open"
    ox, ca, cycles = _open_side(x, a if opened else None)
    oy, cb, rest = _open_side(y, b if opened else None)
    two = kind == "qoc"
    cx = x.closed if two else frozenset()
    cy = y.closed if two else frozenset()
    # the glued ends' labels may recur in their colour, as gluing removes
    # them; the other colour's label sets must be disjoint
    (gx, gy), (rx, ry) = ((ox, oy), (cx, cy)) if opened else ((cx, cy), (ox, oy))
    if _shared(gx, a, gy, b) or not rx.isdisjoint(ry):
        raise LabelCollision("factors share labels")
    cycles += rest
    empties = x.empties + y.empties
    if opened:
        if ca is None:
            raise (ColourMismatch if a in cx else MissingLabel)(
                f"label {a} is not an open end of the first factor"
            )
        if cb is None:
            raise (ColourMismatch if b in cy else MissingLabel)(
                f"label {b} is not an open end of the second factor"
            )
        merged = _arc_after(ca, a) + _arc_after(cb, b)
        if merged:
            cycles.append(canonicalize_cycle(merged))
        else:
            empties += 1
        closed = cx | cy
    else:
        if a not in cx:
            raise (ColourMismatch if a in ox else MissingLabel)(
                f"label {a} is not a closed end of the first factor"
            )
        if b not in cy:
            raise (ColourMismatch if b in oy else MissingLabel)(
                f"label {b} is not a closed end of the second factor"
            )
        closed = (cx - {a}) | (cy - {b})
    cycles.sort(key=_cycle_order)
    if two:
        return _new(QOCSurface, (tuple(cycles), empties, x.g + y.g, closed))
    return _new(QOSurface, (tuple(cycles), empties, x.g + y.g))


def _shared(lx, a, ly, b) -> bool:
    """Whether ``lx`` without ``a`` and ``ly`` without ``b`` meet."""
    return not lx.isdisjoint(ly) and bool((lx - {a}) & (ly - {b}))


def compose(x, a, y, b, colour: str = "open", extended: bool = False):
    """Glue end a of x to end b of y along the given colour."""
    return _compose(x, a, y, b, colour, extended if extended == "free" else bool(extended))


@lru_cache(maxsize=1 << 20)
def _contract(x, a, b, colour, extended):
    if a == b:
        raise MissingLabel("contraction needs two distinct labels")
    if not is_admissible(x, extended):
        raise Unstable("contraction of an unstable element")
    if colour == "closed" and not isinstance(x, QOCSurface):
        raise ColourMismatch("closed contraction needs the two-coloured kind")
    if isinstance(x, QCElement):
        if not {a, b} <= x.labels:
            raise MissingLabel(f"labels {a},{b} not both present")
        return QCElement(labels=x.labels - {a, b}, genus2=x.genus2 + 2)
    if colour == "closed":
        if not {a, b} <= x.closed:
            raise (ColourMismatch if {a, b} & x.labels else MissingLabel)(
                f"labels {a},{b} are not both closed ends"
            )
        return QOCSurface(
            cycles=x.cycles, empties=x.empties, g=x.g + 1, closed=x.closed - {a, b}
        )
    lx = x.labels
    for l in (a, b):
        if l not in lx:
            closed = isinstance(x, QOCSurface) and l in x.closed
            raise (ColourMismatch if closed else MissingLabel)(
                f"label {l} is not an open end"
            )
    ca = _cycle_with(x, a)
    if b not in ca:
        cb = _cycle_with(x, b)
        merged = _arc_after(ca, a) + _arc_after(cb, b)
        cycles = tuple(c for c in x.cycles if c != ca and c != cb)
        empties = x.empties
        g = x.g + 1
        new = ()
        if merged:
            new = (merged,)
        else:
            empties += 1
    else:
        word = _arc_after(ca, a)  # (x_1 .. x_m, b, y_1 .. y_k)
        k = word.index(b)
        cycles = tuple(c for c in x.cycles if c != ca)
        empties = x.empties
        g = x.g
        new = tuple(part for part in (word[:k], word[k + 1 :]) if part)
        empties += 2 - len(new)
    if isinstance(x, QOSurface):
        return QOSurface(cycles=_merge_sorted(cycles, new), empties=empties, g=g)
    return QOCSurface(
        cycles=_merge_sorted(cycles, new), empties=empties, g=g, closed=x.closed
    )


def contract(x, a, b, colour: str = "open", extended: bool = False):
    """Glue ends a and b of the same element together."""
    return _contract(x, a, b, colour, extended if extended == "free" else bool(extended))


# ---------------------------------------------------------------------------
# canonical forms on standard label sets


def canonical_perm(x, tie: str = "lex"):
    """Slot permutation carrying x (over open labels [n] and closed labels
    [c]) onto its orbit representative.

    Returns (representative, perm) with perm in 0-based one-line notation
    over all n + c slots, open slots first: open label l of x becomes label
    perm[l-1]+1 of the representative, and every closed slot is fixed,
    since the representative keeps the closed labels [c].  Callers
    precompose a stored tensor by perm as it is.  ``tie`` fixes the order
    among cycles of equal length; any admissible choice produces a valid
    canonicalizing permutation.
    """
    if isinstance(x, QCElement):
        return x, tuple(range(len(x.labels)))
    key = (lambda c: (len(c), c)) if tie == "lex" else (
        lambda c: (len(c), tuple(-l for l in c))
    )
    ordered = sorted(x.cycles, key=key)
    n = x.arity
    perm = [0] * n
    pos = 0
    for c in ordered:
        for l in c:
            perm[l - 1] = pos
            pos += 1
    bs = b_sequence(x.cycles, x.empties)
    if isinstance(x, QOSurface):
        return QOSurface(cycles=_rep_cycles(bs), empties=bs[0], g=x.g), tuple(perm)
    c = len(x.closed)
    rep = QOCSurface(
        cycles=_rep_cycles(bs), empties=bs[0], g=x.g,
        closed=frozenset(range(1, c + 1)),
    )
    return rep, tuple(perm) + tuple(range(n, n + c))


def _squash(x):
    """Relabel both colours increasingly onto standard label sets."""
    rho = {l: i + 1 for i, l in enumerate(sorted(open_labels(x)))}
    rho_c = {l: i + 1 for i, l in enumerate(sorted(closed_labels(x)))}
    return relabel(x, rho, rho_c)


def natural_contract(x, a: int, b: int, colour: str = "open"):
    """Contract two standard labels and squash back onto standard labels."""
    return _squash(_contract(x, a, b, colour, "free"))


def natural_compose(x, a: int, y, b: int, colour: str = "open"):
    """Compose standard-label elements; x keeps the lower label block."""
    no_x, nc_x = len(open_labels(x)), len(closed_labels(x))
    rho = {l: l + no_x for l in open_labels(y)}
    rho_c = {l: l + nc_x for l in closed_labels(y)}
    y2 = relabel(y, rho, rho_c)
    shift = no_x if colour == "open" else nc_x
    return _squash(_compose(x, a, y2, b + shift, colour, "free"))


# ---------------------------------------------------------------------------
# dual structure maps: generic pairing path


def _require_dual_args(kind, z, colour, what):
    """What every dual map checks first.  Closed ends exist only on the
    two-coloured kind; checked before a default pair of ends is drawn from
    the (empty) closed labels.  A closed surface has integer genus, so no
    basis holds one of odd ``genus2``, and the two routes would disagree on
    it."""
    if colour == "closed" and kind != "qoc":
        raise ColourMismatch(f"closed {what} needs the two-coloured kind")
    if isinstance(z, QCElement) and z.genus2 % 2:
        raise KindMismatch(f"no closed surface has odd genus2: {z!r}")


def fresh_pair(z, colour: str = "open"):
    pool = open_labels(z) if colour == "open" else closed_labels(z)
    m = max(pool, default=0)
    return m + 1, m + 2


def dual_contract(kind, z, a=None, b=None, colour="open", extended=False) -> FormalSum:
    """Adjoint of contraction: the sum of all x with contract(x, a, b) = z."""
    _require_dual_args(kind, z, colour, "contraction")
    if a is None or b is None:
        a, b = fresh_pair(z, colour)
    out = FormalSum()
    if z.genus2 < 2:
        return out
    lo = sorted(open_labels(z))
    lc = sorted(closed_labels(z))
    try:
        if colour == "open":
            src = basis(kind, lo + [a, b], z.genus2 - 2, closed=lc, extended=extended)
        else:
            src = basis(kind, lo, z.genus2 - 2, closed=lc + [a, b], extended=extended)
    except Unstable:
        return out
    for x in src:
        if contract(x, a, b, colour=colour, extended=extended) == z:
            out.add(x)
    return out


def _ordered_splits(items):
    items = tuple(items)
    for r in range(len(items) + 1):
        for left in itertools.combinations(items, r):
            ls = set(left)
            yield tuple(left), tuple(i for i in items if i not in ls)


def _drop(cycles, *skip):
    s = set(skip)
    return tuple(c for k, c in enumerate(cycles) if k not in s)


def _open_splittings(cyc, b0, g):
    """Splitting cases along an open end, as (cycles1, cycles2, e1, e2, g1,
    arc1, arc2): a rotation of one cycle is cut into the arcs the two glued
    cycles carry, or an empty boundary becomes both glued cycles."""
    for m, cm in enumerate(cyc):
        for cyc1, cyc2 in _ordered_splits(cyc[:m] + cyc[m + 1 :]):
            for e1 in range(b0 + 1):
                for g1 in range(g + 1):
                    for s in range(len(cm)):
                        word = cm[s:] + cm[:s]
                        for l in range(len(cm) + 1):
                            yield cyc1, cyc2, e1, b0 - e1, g1, word[:l], word[l:]
    for cyc1, cyc2 in _ordered_splits(cyc):
        for e1 in range(b0):
            for g1 in range(g + 1):
                yield cyc1, cyc2, e1, b0 - 1 - e1, g1, (), ()


def _closed_splittings(cyc, b0, g):
    """Splitting cases along a closed end: the cycles, empty boundaries and
    genus are shared out, and no cycle is cut."""
    for cyc1, cyc2 in _ordered_splits(cyc):
        for e1 in range(b0 + 1):
            for g1 in range(g + 1):
                yield cyc1, cyc2, e1, b0 - e1, g1, (), ()


def _open_contractions(cyc, b0, g, a, b):
    """Preimages of a surface under the contraction of open ends a and b, up
    to the a<->b swap, as (kept cycles, new cycles through a and b, empties,
    genus, mult); mult is 2 exactly when the swapped surface is a different
    preimage.  Stability is left to the caller."""
    # a and b on one cycle, which the contraction splits into two nonempty
    # cycles, or into one and an empty boundary
    for i, j in itertools.combinations(range(len(cyc)), 2):
        ci, cj = cyc[i], cyc[j]
        for p, q in itertools.product(range(len(ci)), range(len(cj))):
            merged = (a,) + ci[p:] + ci[:p] + (b,) + cj[q:] + cj[:q]
            yield _drop(cyc, i, j), (merged,), b0, g, 2
    if b0 > 0:
        for i, ci in enumerate(cyc):
            for p in range(len(ci)):
                yield _drop(cyc, i), ((a,) + ci[p:] + ci[:p] + (b,),), b0 - 1, g, 2
    if b0 > 1:
        yield cyc, ((a, b),), b0 - 2, g, 1
    # a and b on two cycles that the contraction merges, lowering the genus;
    # of (s, l) and its swap ((s + l) % L, L - l), exactly one has s + l >= L
    if g > 0:
        for m, cm in enumerate(cyc):
            L = len(cm)
            for s in range(L):
                word = cm[s:] + cm[:s]
                for l in range(L - s, L + 1):
                    new = ((a,) + word[:l], (b,) + word[l:])
                    yield _drop(cyc, m), new, b0, g - 1, 2
        if b0 > 0:
            yield cyc, ((a,), (b,)), b0 - 1, g - 1, 1


def dual_compose(kind, z, a=None, b=None, colour="open", extended=False) -> FormalSum:
    """Adjoint of composition, summed over ordered splits of the corolla."""
    _require_dual_args(kind, z, colour, "gluing")
    if a is None or b is None:
        a, b = fresh_pair(z, colour)
    out = FormalSum()
    lo, lc = sorted(open_labels(z)), sorted(closed_labels(z))
    closed_splits = list(_ordered_splits(lc))
    for o1, o2 in _ordered_splits(lo):
        for c1, c2 in closed_splits:
            for g2a in range(0, z.genus2 + 1):
                g2b = z.genus2 - g2a
                try:
                    if colour == "open":
                        xs = basis(kind, o1 + (a,), g2a, closed=c1, extended=extended)
                        ys = basis(kind, o2 + (b,), g2b, closed=c2, extended=extended)
                    else:
                        xs = basis(kind, o1, g2a, closed=c1 + (a,), extended=extended)
                        ys = basis(kind, o2, g2b, closed=c2 + (b,), extended=extended)
                except Unstable:
                    continue
                for x in xs:
                    for y in ys:
                        if compose(x, a, y, b, colour=colour, extended=extended) == z:
                            out.add((x, y))
    return out


# ---------------------------------------------------------------------------
# dual structure maps: explicit splitting formulas


def _make(is_qoc, cycles, empties, g, closed):
    if is_qoc:
        return QOCSurface(
            cycles=sort_cycles(cycles), empties=empties, g=g, closed=frozenset(closed)
        )
    return QOSurface(cycles=sort_cycles(cycles), empties=empties, g=g)


def dual_contract_formula(kind, z, a=None, b=None, colour="open", extended=False) -> FormalSum:
    """Splitting-family form of the contraction adjoint."""
    _require_dual_args(kind, z, colour, "contraction")
    if a is None or b is None:
        a, b = fresh_pair(z, colour)
    out = FormalSum()
    if kind == "qc":
        x = QCElement(labels=z.labels | {a, b}, genus2=z.genus2 - 2)
        if z.genus2 >= 2 and x.is_stable():
            out.add(x)
        return out
    if colour == "closed":
        if z.g >= 1:
            x = QOCSurface(
                cycles=z.cycles, empties=z.empties, g=z.g - 1, closed=z.closed | {a, b}
            )
            if is_admissible(x, extended):
                out.add(x)
        return out
    two = isinstance(z, QOCSurface)
    zc = z.closed if two else ()
    swap = {a: b, b: a}
    for kept, new, empties, g, mult in _open_contractions(z.cycles, z.empties, z.g, a, b):
        x = _make(two, kept + new, empties, g, zc)
        if not is_admissible(x, extended):
            continue
        out.add(x)
        if mult == 2:
            swapped = tuple(tuple(swap.get(l, l) for l in c) for c in new)
            out.add(_make(two, kept + swapped, empties, g, zc))
    return out


def dual_compose_formula(kind, z, a=None, b=None, colour="open", extended=False) -> FormalSum:
    """Splitting-family form of the composition adjoint (ordered pairs)."""
    _require_dual_args(kind, z, colour, "gluing")
    if a is None or b is None:
        a, b = fresh_pair(z, colour)
    out = FormalSum()
    if kind == "qc":
        for c1, c2 in _ordered_splits(sorted(z.labels)):
            for g2a in range(0, z.genus2 + 1, 2):
                x = QCElement(labels=frozenset(c1) | {a}, genus2=g2a)
                y = QCElement(labels=frozenset(c2) | {b}, genus2=z.genus2 - g2a)
                if x.is_stable() and y.is_stable():
                    out.add((x, y))
        return out
    is_qoc = kind == "qoc"
    closed_splits = (
        list(_ordered_splits(sorted(z.closed))) if is_qoc else [((), ())]
    )
    opened = colour == "open"
    cases = _open_splittings if opened else _closed_splittings
    for cy1, cy2, e1, e2, g1, arc1, arc2 in cases(z.cycles, z.empties, z.g):
        if opened:  # end a starts the cycle carrying arc1, end b arc2's
            cy1, cy2 = cy1 + ((a,) + arc1,), cy2 + ((b,) + arc2,)
        for c1, c2 in closed_splits:
            if not opened:
                c1, c2 = c1 + (a,), c2 + (b,)
            x = _make(is_qoc, cy1, e1, g1, c1)
            y = _make(is_qoc, cy2, e2, z.g - g1, c2)
            if is_admissible(x, extended) and is_admissible(y, extended):
                out.add((x, y))
    return out
