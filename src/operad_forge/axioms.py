"""Verification of the structure-map axioms for the surface operads.

The statement verified is exhaustive: every axiom on all basis elements
within the requested arity and genus bounds, over all admissible
gluing-label choices.  Relabelling maps in the equivariance axioms (3 and 4)
run over transposition generators plus the identity; functoriality (axiom 2)
is checked on the pairs (generator, any permutation), which implies it on
all pairs (below), so equivariance for generators implies it for the whole
group.  This rests on one premise, used by every argument below:
``relabel`` is functorial on the label sets of glued surfaces, not only on
1..n, and gluing and contraction are equivariant there too.

The instances evaluated are fewer, chosen so that they imply the rest.
Axioms 2, 3 and 4 run first, then 1 and 5-8.

- **Axiom 2 on (generator, any) pairs.**  It is checked at (tau, sigma),
  tau in the small generating set of axiom 3 (below) and sigma any slot
  permutation, at every element relabelling reaches from the basis.  By
  induction on the length of rho as a word in the tau (every rho is one,
  the group being finite):
  x.(tau rho' sigma) = (x.(rho' sigma)).tau = ((x.sigma).rho').tau
  = (x.sigma).(tau rho'), by the tau-case at x, induction at x and the
  tau-case at x.sigma; the identity column is the case of length 0.  The
  basis is closed under relabelling; an element outside it fails the
  reduced check.
- **Axiom 3 on a small generating set.**  Once axiom 2 has passed, any
  generating set of the relabellings will do.  If gluing is
  equivariant for rho and for sigma at every element and end, then
  (x o_a y).(rho sigma u 1) = ((x o_a y).(sigma u 1)).(rho u 1) by axiom 2,
  = (x.sigma o_{sigma(a)} y).(rho u 1), = (x.sigma).rho o_{rho sigma(a)} y
  = x.(rho sigma) o y by axiom 2; x.sigma and its end sigma(a) are checked
  because the basis is closed under relabelling and every end is glued.
  So the reduced check takes, for each colour's sorted labels
  l1 < ... < ln, the identity, (l1 l2) and (l1 l2 ... ln) (``_label_maps``)
  instead of every transposition.  Axiom 4 keeps every transposition: it
  contracts at pairs a < b, and the same step would need the check at
  (x.sigma, sigma(a), sigma(b)), a pair that sigma can reverse.  Every
  transposition includes (a b), which ties each reversed pair to the pair
  in order (below).
- **Axiom 3 on split generators.**  For each (x, a, y, b) the pairs
  (rho, id), for every generator rho of x, and (id, sigma), for every
  non-identity generator sigma of y, are checked: |gx| + |gy| - 1
  instances instead of |gx| * |gy|.  Every pair follows:
  (x o y).(rho u sigma) = ((x o y).(1 u sigma)).(rho u 1) by axiom 2,
  = (x o y.sigma).(rho u 1) by axiom 3 at (x, y), = x.rho o y.sigma by
  axiom 3 at (x, y.sigma), y.sigma being in the basis too.  This runs only
  once axiom 2 has passed.
- **Axioms 1 and 5-8 on orbits.**  Once axioms 2, 3 and 4 have passed,
  both sides of each of these axioms transform by the same relabelling of
  the result when the factors and their ends are relabelled, and a
  relabelling is invertible.  So on a set of instances that relabelling
  maps to itself, the failures form a union of orbits, and one instance
  per orbit decides.  Each factor's basis is reduced to the first element
  x of each orbit: within one corolla, the elements with the same cycle
  lengths, empty boundaries, genus and closed count (``_orbit_key``).  A
  relabelling tau in the stabilizer of x (x.tau = x) maps an instance at x
  to the instance at x with tau applied to the ends it glues or contracts
  at x, so x keeps only the first tuple of those ends in each orbit of its
  stabilizer (``_end_orbits``).  The stabilizer's generators
  (``_stabilizer``) are those of the algebra layer's stabilizer shape,
  ``combinatorics.stabilizer_generators`` of x's cycle lengths and closed
  ends, carried onto x's labels; each is checked with ``relabel``, and an
  element whose check fails keeps all of its end tuples.
  Axioms 1, 6 and 8 take every tuple of distinct ends of the given
  colours, so their instance sets are invariant.  Axioms 5 and 7 contract
  at end pairs listed once, as a < b.  That set is not invariant: a
  relabelling can reverse a pair, so an instance at another element of the
  orbit can be one at x with a pair reversed, and no axiom says that
  contraction is symmetric in its two ends.  At x they therefore take
  every order of each pair, which is invariant.  Contraction with its ends
  reversed is equivariant too, by axioms 2 and 4, since
  contract(x, b, a) = contract(x.(a b), a, b) for a < b by axiom 4 at the
  transposition (a b), which its loop checks at every element.
- **Fallback.**  An axiom whose reduced check fails is run again by its
  exhaustive loop; if axiom 2, 3 or 4 fails, axioms 1 and 5-8 (and 3,
  after a failure of 2) run exhaustively from the start.  ``failures``
  is then the exhaustive list, so a broken ``relabel`` cannot hide a broken
  ``_compose``.

``AxiomReport.checked`` and ``per_axiom`` count the instances evaluated;
``covered`` gives, per axiom, the instances they stand for.  For axiom 2
that is |G|^2 per basis element, G its slot permutations.  For axioms 1
and 5-8 it is, summed over the evaluated instances, the product over
their factors of the element's orbit size times the number of end tuples
in the orbit of its end tuple that the exhaustive loop lists (for axioms
5 and 7, those with each pair in order; one orbit may hold none, but all
orbits of x together hold the ones of x).  For axiom 3 it is the product
of the numbers of transposition generators of x and y per (x, a, y, b).
It equals the exhaustive count.  Generators of only a subgroup of a stabilizer
would leave smaller orbits, so more instances, but the same count.

Axioms 1 and 5-8 run through one loop, ``_on_orbits``, which sums their
``covered`` in one place.  Each axiom's equation, its two sides and the
instance it reports, is a named function (``_symmetric``,
``_contractions_commute``, ``_contract_across``, ``_contract_inside``,
``_associative``); its row of ``_ORBIT_AXIOMS`` adds the genus it needs,
its colours and each factor's ends.  ``_corolla_tuples`` lists the corollas
that these loops and those of axioms 3 and 4 glue.

What depends on one element only is computed once, not once per instance:
each element's stabilizer and end orbits (axioms 1 and 5-8, once per
corolla, label offsets and colours in one check), its relabellings by
every slot permutation (axiom 2, ``_ActionTable``, whose product table
holds only the products by the generators checked) and, for axiom 3, its
generator maps, its relabelling by each generator and each generator's
map with each end dropped (``_glue_data``, once per element in one
check).  The gluing memo lives for one axiom check: each check memoizes the
uncached ``_compose`` and ``_contract`` bodies it finds in ``operads`` when
it starts (``_memo``) and drops that memo when it returns, so the
process-wide caches keep no verifier entries.

Relabelling is memoized on the premise that ``relabel`` is a function of
(element, map): it reads nothing else and keeps no state, so one value
stands for every call with the same element and map.  Axioms 3 and 4
relabel through ``_Relabel``, a memo of the ``op.relabel`` found when the
check starts (a replaced one is seen, as with ``_memo``).  It interns
elements and maps as ints and holds, per (element, map), the id of the
relabelled element.  Axiom 4's memo and the memo of axiom 3's factors live
for one check.  Axiom 3 visits its gluings one output corolla at a time,
and its memos of glued surfaces and of ``_compose`` live for one output
corolla: glued surfaces of different corollas never coincide, so nothing
is lost when they are dropped, and the memory held is that of the largest
corolla.  With axiom 2's table, each check calls ``relabel`` once per
distinct (element, map); the checks do not share values.
"""
from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import operads as op
from .combinatorics import b_sequence, stabilizer_generators, tuple_orbits
from .errors import Unstable

__all__ = ["AxiomReport", "verify_axioms"]


@dataclass
class AxiomReport:
    kind: str
    max_n: int
    max_genus2: int
    checked: int = 0
    failures: list = field(default_factory=list)
    per_axiom: dict = field(default_factory=dict)  # axiom -> instances checked
    covered: dict = field(default_factory=dict)  # axiom -> instances implied

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, axiom, instance, lhs, rhs):
        self.checked += 1
        if lhs != rhs:
            self.fail(axiom, instance, lhs, rhs)

    def fail(self, axiom, instance, lhs, rhs):
        self.failures.append(
            {
                "axiom": axiom,
                "instance": str(instance),
                "lhs": repr(lhs),
                "rhs": repr(rhs),
            }
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "max_n": self.max_n,
            "max_genus2": self.max_genus2,
            "checked": self.checked,
            "per_axiom": {str(k): n for k, n in sorted(self.per_axiom.items())},
            "covered": {str(k): n for k, n in sorted(self.covered.items())},
            "passed": self.passed,
            "failures": sorted(
                self.failures, key=lambda f: (f["axiom"], f["instance"])
            ),
        }


def _corollas(kind, max_n, max_genus2, extended):
    """The stable corollas within the bounds whose basis is not empty."""
    out = []
    for o in range(0, max_n + 1):
        for c in range(0, max_n + 1 - o if kind == "qoc" else 1):
            for g2 in range(0, max_genus2 + 1, 1 if kind == "qoc" else 2):
                if kind == "ass" and g2 > 0:
                    continue
                try:
                    if _basis(kind, (o, c, g2), extended):
                        out.append((o, c, g2))
                except Unstable:
                    pass
    return out


def _basis(kind, shape, extended, offset_o=0, offset_c=0):
    o, c, g2 = shape
    return op.basis(
        kind,
        range(offset_o + 1, offset_o + o + 1),
        g2,
        closed=range(offset_c + 1, offset_c + c + 1) if kind == "qoc" else (),
        extended=extended,
    )


def _ends(x, colour):
    return sorted(op.open_labels(x) if colour == "open" else op.closed_labels(x))


def _orbit_key(x):
    """What determines x's orbit under relabelling within its corolla."""
    if isinstance(x, op.QCElement):
        return x.genus2
    return tuple(map(len, x.cycles)), x.empties, x.g, len(op.closed_labels(x))


def _factors(kind, shape, extended, offset_o=0, offset_c=0, reduced=False):
    """The basis of one corolla as (element, weight): every element with
    weight 1, or with ``reduced`` the first element of each orbit with the
    orbit's size."""
    xs = _basis(kind, shape, extended, offset_o, offset_c)
    if not reduced:
        return [(x, 1) for x in xs]
    orbits = {}
    for x in xs:
        orbits.setdefault(_orbit_key(x), []).append(x)
    return [(members[0], len(members)) for members in orbits.values()]


def _label_maps(labels, small=False):
    """The identity, then every transposition of the sorted ``labels``, or
    with ``small`` only (l1 l2) and the cycle l1 -> l2 -> ... -> ln -> l1
    (when n > 2), which generate the same group."""
    labels = sorted(labels)
    moves = [{i: j, j: i} for i, j in itertools.combinations(labels, 2)]
    if small:
        moves = moves[:1]
        if len(labels) > 2:
            moves.append(dict(zip(labels, labels[1:] + labels[:1])))
    ident = {l: l for l in labels}
    return [ident] + [{**ident, **m} for m in moves]


def _perm_maps(labels):
    labels = sorted(labels)
    return [dict(zip(labels, p)) for p in itertools.permutations(labels)]


def _generator_maps(x, small=False):
    """Pairs (open map, closed map) generating the relabelling group, the
    identity first: ``_label_maps`` of each colour."""
    ids_o = {l: l for l in _ends(x, "open")}
    ids_c = {l: l for l in _ends(x, "closed")}
    return [(m, ids_c) for m in _label_maps(op.open_labels(x), small)] + [
        (ids_o, m) for m in _label_maps(op.closed_labels(x), small)[1:]]


def _stabilizer(kind, x):
    """Generators (colour, moved labels) of the relabellings that fix x: the
    slot generators of x's shape on its cycles, then on its ends that no
    cycle carries, which for ``qc`` are all its open ends (a closed surface's
    stabilizer permutes them all) and otherwise its closed ends.  Each is
    checked with ``relabel``; if one moves x, there are none."""
    if kind == "qc":
        cycles, free_colour, free = (), "open", sorted(x.labels)
    else:
        cycles, free_colour, free = x.cycles, "closed", sorted(op.closed_labels(x))
    n, labels = sum(map(len, cycles)), [l for c in cycles for l in c] + free
    gens = [(free_colour if s[:n] == tuple(range(n)) else "open",
             {labels[i]: labels[j] for i, j in enumerate(s) if i != j})
            for s in stabilizer_generators(b_sequence(cycles), len(free))]
    ids = {c: {l: l for l in _ends(x, c)} for c in op.colours(kind)}
    for colour, move in gens:
        maps = {**ids, colour: {**ids[colour], **move}}
        if op.relabel(x, maps["open"], maps.get("closed")) != x:
            return ()
    return gens


def _in_order(t, ordered):
    """Whether t[i] < t[j] for each pair of positions (i, j) in ``ordered``."""
    return all(t[i] < t[j] for i, j in ordered)


def _orbits(tuples, cols, gens, weight, ordered=()):
    """The first of ``tuples`` in each orbit under ``gens``, each with
    ``weight`` times the number of tuples of its orbit that are in order
    (``_in_order``); position i of a tuple holds an end of colour
    ``cols[i]``."""
    moves = [lambda u, colour=colour, move=move: tuple(
                 move.get(l, l) if c == colour else l for c, l in zip(cols, u))
             for colour, move in gens]
    return [(t, weight * sum(_in_order(u, ordered) for u in orbit))
            for t, orbit in tuple_orbits(tuples, moves)]


def _end_orbits(kind, extended, reduced):
    """For one check of an axiom 1 or 5-8: a function from (shape, label
    offsets, colours, ``ordered``) to the factors of ``_factors`` that have
    a tuple of distinct ends of those colours, each with its tuples in
    orbits of its stabilizer's generators (none unless ``reduced``), built
    once each.  A pair of ``ordered`` whose two ends have different colours
    is dropped: labels of different colours are not compared.  Without
    ``reduced``, only the tuples in order are listed: those the exhaustive
    loop takes."""
    stabilizer = lru_cache(maxsize=None)(
        lambda x: _stabilizer(kind, x) if reduced else ())

    @lru_cache(maxsize=None)
    def factors(shape, offset_o, offset_c, cols, ordered=()):
        ordered = [(i, j) for i, j in ordered if cols[i] == cols[j]]
        out = []
        for x, w in _factors(kind, shape, extended, offset_o, offset_c, reduced):
            tuples = [t for t in itertools.product(*(_ends(x, c) for c in cols))
                      if len(set(zip(cols, t))) == len(t)]
            if not reduced:
                tuples = [t for t in tuples if _in_order(t, ordered)]
            orbits = _orbits(tuples, cols, stabilizer(x), w, ordered)
            if orbits:
                out.append((x, orbits))
        return out

    return factors


def _free_map(rho_o, rho_c, colour, *drop):
    """Combined relabelling restricted away from the glued labels."""
    o = dict(rho_o)
    c = dict(rho_c)
    target = o if colour == "open" else c
    for l in drop:
        target.pop(l, None)
    return o, c


def _memo(fn):
    """A memo of ``fn`` for one axiom check (one output corolla of axiom 3),
    around the uncached body behind ``operads``' process-wide cache.  Each
    check passes ``op._compose`` or ``op._contract`` as it finds them when it
    starts, so a replaced ``op._compose`` is seen."""
    return lru_cache(maxsize=None)(inspect.unwrap(fn))


def verify_axioms(kind, max_n, max_genus2, extended=False) -> AxiomReport:
    """Check axioms 1-8 within the bounds and report every failure: on the
    reduced instances of the module docstring, and exhaustively for any
    axiom whose reduced check fails or whose argument no longer holds."""
    report = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_genus2)
    args = (kind, _corollas(kind, max_n, max_genus2, extended),
            max_n, max_genus2, extended)
    sound = set()  # the axioms that passed so far
    for axiom in (2, 3, 4, 1, 5, 6, 7, 8):
        fn = _AXIOM_FUNCS[axiom]
        before = report.checked
        if axiom in _REDUCED and _REDUCED[axiom] <= sound:
            trial = AxiomReport(kind=kind, max_n=max_n, max_genus2=max_genus2)
            covered = fn(trial, *args, reduced=True)
            report.checked += trial.checked
            if trial.passed:
                report.per_axiom[axiom] = trial.checked
                report.covered[axiom] = covered
                sound.add(axiom)
                continue
        start = report.checked
        fails = len(report.failures)
        fn(report, *args)
        report.per_axiom[axiom] = report.checked - before
        report.covered[axiom] = report.checked - start
        if len(report.failures) == fails:
            sound.add(axiom)
    report.per_axiom = dict(sorted(report.per_axiom.items()))
    report.covered = dict(sorted(report.covered.items()))
    report.failures.sort(key=lambda f: (f["axiom"], f["instance"]))
    return report


def _corolla_tuples(corollas, k, max_n, max_genus2, extra_genus2=0):
    """The k-tuples of ``corollas``, in lexicographic order, each of whose
    prefixes of two or more glues (one gluing per corolla added) within
    ``max_n`` and ``max_genus2``, the whole tuple also with ``extra_genus2``
    more genus."""
    tuples = [()]
    for i in range(1, k + 1):
        grown = []
        for t in tuples:  # the genus and the ends a last corolla may add
            g2 = max_genus2 - sum(u[2] for u in t) - (extra_genus2 if i == k else 0)
            n = max_n - sum(u[0] + u[1] - 2 for u in t)
            grown += [t + (s,) for s in corollas if s[2] <= g2 and s[0] + s[1] <= n]
        tuples = grown
    return tuples


class _ActionTable:
    """Relabellings of elements by the slot permutations ``group`` of the
    labels ``lo``/``lc``, with each element interned as an integer id and
    each row computed once.  ``mul[k][s]`` indexes ``l -> r[s[l]]`` for r
    the k-th of the ``left`` factors (every permutation by default) and s
    the s-th permutation; ``group[0]`` is the identity, so ``mul[k][0]``
    indexes r."""

    def __init__(self, lo, lc, left=None):
        self.group = [(mo, mc) for mo in _perm_maps(lo) for mc in _perm_maps(lc)]
        index = {(*mo.values(), *mc.values()): i for i, (mo, mc) in enumerate(self.group)}
        self.mul = [[index[(*(ro[so[l]] for l in lo), *(rc[sc[l]] for l in lc))]
                     for so, sc in self.group] for ro, rc in left or self.group]
        self.ids, self.elems, self.rows = {}, [], []

    def id(self, x):
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.elems)
            self.elems.append(x)
            self.rows.append(None)
        return i

    def row(self, i):
        """Ids of ``elems[i]`` relabelled by each permutation of the group."""
        r = self.rows[i]
        if r is None:
            x = self.elems[i]
            r = self.rows[i] = [
                self.id(op.relabel(x, mo, mc)) for mo, mc in self.group
            ]
        return r

    def check(self, report, i):
        """Axiom 2 at ``elems[i]`` for each left factor rho and each
        permutation sigma, by lookup: equal ids mean equal elements."""
        rx = self.row(i)
        rys = [self.row(j) for j in rx]
        report.checked += len(rx) * len(self.mul)
        for ms in self.mul:
            r = ms[0]
            lhs, rhs = [rx[m] for m in ms], [ry[r] for ry in rys]
            for s in range(len(ms)) if lhs != rhs else ():
                if lhs[s] != rhs[s]:
                    (rho_o, rho_c), (sig_o, sig_c) = self.group[r], self.group[s]
                    report.fail(2, (self.elems[i], rho_o, sig_o, rho_c, sig_c),
                                self.elems[lhs[s]], self.elems[rhs[s]])


def _ax2(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Relabelling is functorial: x.(rho o sigma) == (x.sigma).rho for every
    pair of slot permutations, or with ``reduced`` for rho in the small
    generating set at every element that relabelling reaches from the basis
    (module docstring).  Returns the number of pairs covered."""
    tables, covered = {}, 0
    for shape in corollas:
        for x in _basis(kind, shape, extended):
            lo, lc = _ends(x, "open"), _ends(x, "closed")
            key = (tuple(lo), tuple(lc))
            if key not in tables:
                tables[key] = _ActionTable(
                    lo, lc, _generator_maps(x, True) if reduced else None)
            tables[key].id(x)
    for table in tables.values():
        size = len(table.elems)  # the basis elements with these labels
        covered += size * len(table.group) ** 2
        for i in range(size):
            table.check(report, i)
            if reduced and len(table.elems) > size:  # the exhaustive loop decides
                report.fail(2, table.elems[i], "relabelled out of the basis", None)
                return covered
    return covered


class _Relabel:
    """``op.relabel`` as found when a check starts, evaluated once per
    (element, map) while this memo lives.  Elements are interned as ints, as
    in ``_ActionTable``, and so are maps, by their images of the element's
    labels in increasing order (open, then closed): every map the verifier
    passes lists exactly those labels in that order, so the element's id and
    the map's id fix the relabelling.  ``rows[i]`` maps a map's id to the id
    of element i relabelled by it.  A memo made with ``outer`` shares its
    maps and, before it computes a value, looks it up there, so nothing the
    longer-lived ``outer`` holds is computed again."""

    def __init__(self, outer=None):
        self.outer = outer
        self.fn = outer.fn if outer else op.relabel
        self.maps = outer.maps if outer else {}  # images -> id
        self.images = outer.images if outer else []  # id -> images
        self.joins = outer.joins if outer else {}  # (id, id) -> id of the union
        self.ids, self.elems, self.rows = {}, [], {}

    def id(self, x):
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.elems)
            self.elems.append(x)
        return i

    def row(self, i):
        r = self.rows.get(i)
        if r is None:
            r = self.rows[i] = {}
        return r

    def map_id(self, images):
        m = self.maps.get(images)
        if m is None:
            m = self.maps[images] = len(self.images)
            self.images.append(images)
        return m

    def join(self, m1, m2):
        """The id of the union of two maps on label sets that do not meet,
        the first one's labels below the second's in each colour."""
        (o1, c1), (o2, c2) = self.images[m1], self.images[m2]
        m = self.joins[m1, m2] = self.map_id((o1 + o2, c1 + c2))
        return m

    def value(self, i, m, rho_o, rho_c):
        """The id of element ``i`` relabelled by (``rho_o``, ``rho_c``), of id
        ``m``: from ``outer`` if it holds it, else computed; memoized."""
        x, outer, y = self.elems[i], self.outer, None
        if outer is not None:
            r = outer.rows.get(outer.ids.get(x), {}).get(m)
            if r is not None:
                y = outer.elems[r]
        if y is None:
            y = self.fn(x, rho_o, rho_c)
        r = self.row(i)[m] = self.id(y)
        return r

    def __call__(self, x, rho_o, rho_c):
        i = self.id(x)
        m = self.map_id((tuple(rho_o.values()), tuple(rho_c.values())))
        r = self.row(i).get(m)
        return self.elems[self.value(i, m, rho_o, rho_c) if r is None else r]


def _glue_data(rel, x, colours, small):
    """The number of x's transposition generators (``_generator_maps``
    without ``small``), and per colour and end ``a`` of ``x``: for each
    generator rho (``small`` as in ``_label_maps``), the relabelled
    ``x.rho`` (through the memo ``rel``), the image ``rho(a)``, rho's open
    and closed maps with ``a`` dropped (the part of rho that survives the
    gluing at ``a``) and their map id in ``rel``."""
    gens = _generator_maps(x, small)
    moved = [rel(x, rho_o, rho_c) for rho_o, rho_c in gens]
    rows = {}
    for colour in colours:
        rows[colour] = out = []
        for a in _ends(x, colour):
            row = []
            for (rho_o, rho_c), xr in zip(gens, moved):
                look = rho_o if colour == "open" else rho_c
                fo, fc = _free_map(rho_o, rho_c, colour, a)
                m = rel.map_id((tuple(fo.values()), tuple(fc.values())))
                row.append((xr, look[a], fo, fc, m))
            out.append((a, row))
    sizes = len(op.open_labels(x)), len(op.closed_labels(x))
    return 1 + sum(math.comb(n, 2) for n in sizes), rows


def _glued_corolla(s1, s2, colour):
    """The corolla of a gluing of corollas s1 and s2 along ``colour``."""
    o, c = s1[0] + s2[0], s1[1] + s2[1]
    return (o - 2, c, s1[2] + s2[2]) if colour == "open" else (o, c - 2, s1[2] + s2[2])


def _ax3(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Gluing is equivariant: (x o_a y).(rho u sigma) == x.rho o_{rho(a)} y.sigma
    for generators rho of x's relabellings and sigma of y's; with ``reduced``
    only the pairs (rho, id) and (id, sigma) of the small generating set,
    the identity being the first generator.  Returns the number of
    (rho, sigma) pairs of transposition generators covered.

    ``_glue_data`` computes first, once per factor, what depends on one
    factor only: its ends, its generator maps, its relabelling by each
    generator and each generator's map with each end dropped.  The gluings
    are then visited one output corolla at a time, each with its own
    memos of ``_compose`` and of ``relabel``: glued surfaces of different
    corollas never coincide, so dropping both memos after each corolla loses
    no reuse.  Each instance relabels the glued surface by the joined free
    maps, glues the relabelled factors and compares."""
    body, rel = op._compose, _Relabel()
    colours = op.colours(kind)
    data, groups = {}, {}
    for s1, s2 in _corolla_tuples(corollas, 2, max_n, max_genus2):
        xs = _basis(kind, s1, extended)
        ys = _basis(kind, s2, extended, offset_o=s1[0], offset_c=s1[1])
        for x in (*xs, *ys):
            if x not in data:
                data[x] = _glue_data(rel, x, colours, reduced)
        for colour in colours:
            groups.setdefault(_glued_corolla(s1, s2, colour), []).append((xs, ys, colour))
    covered = 0
    for members in groups.values():
        compose, glued = _memo(body), _Relabel(rel)
        elems, joins = glued.elems, rel.joins
        for xs, ys, colour in members:
            for x in xs:
                nx, rows_x = data[x]
                for y in ys:
                    ny, rows_y = data[y]
                    covered_xy = nx * ny
                    for a, row_x in rows_x[colour]:
                        for b, row_y in rows_y[colour]:
                            zi = glued.id(compose(x, a, y, b, colour, extended))
                            zrow = glued.row(zi)
                            covered += covered_xy
                            if reduced:
                                pairs = [(rx, row_y[0]) for rx in row_x]
                                pairs += [(row_x[0], ry) for ry in row_y[1:]]
                            else:
                                pairs = list(itertools.product(row_x, row_y))
                            report.checked += len(pairs)
                            for (xr, ia, fo, fc, mx), (yr, ib, go, gc, my) in pairs:
                                m = joins.get((mx, my))
                                if m is None:
                                    m = rel.join(mx, my)
                                r = zrow.get(m)
                                if r is None:
                                    r = glued.value(zi, m, {**fo, **go}, {**fc, **gc})
                                lhs = elems[r]
                                rhs = compose(xr, ia, yr, ib, colour, extended)
                                if lhs != rhs:
                                    report.fail(3, (x, a, y, b, colour), lhs, rhs)
    return covered


def _ax4(report, kind, corollas, max_n, max_genus2, extended):
    """Contraction is equivariant: contract(x, a, b).rho' ==
    contract(x.rho, rho(a), rho(b)) for every transposition generator rho
    of x's relabellings, rho' being rho with a and b dropped.  One memo of
    ``relabel`` serves the whole check, so x.rho is computed once per
    element and generator, and each contracted surface once per map."""
    contract, rel = _memo(op._contract), _Relabel()
    colours = op.colours(kind)
    for (shape,) in _corolla_tuples(corollas, 1, max_n, max_genus2, 2):
        for x in _basis(kind, shape, extended):
            gens, moved = _generator_maps(x), None
            for colour in colours:
                for a, b in itertools.combinations(_ends(x, colour), 2):
                    if moved is None:  # x.rho, once x has a pair of ends
                        moved = [rel(x, rho_o, rho_c) for rho_o, rho_c in gens]
                    z = contract(x, a, b, colour, extended)
                    report.checked += len(gens)
                    for (rho_o, rho_c), xr in zip(gens, moved):
                        look = rho_o if colour == "open" else rho_c
                        lhs = rel(z, *_free_map(rho_o, rho_c, colour, a, b))
                        rhs = contract(xr, look[a], look[b], colour, extended)
                        if lhs != rhs:
                            report.fail(4, (x, a, b, colour), lhs, rhs)


def _on_orbits(axiom, report, kind, corollas, max_n, max_genus2, extended,
               reduced=False):
    """Axiom 1 or 5-8, as its row of ``_ORBIT_AXIOMS`` gives it, at every
    tuple of corollas of ``_corolla_tuples``, every choice of its colours and
    every factor and end tuple of ``_end_orbits``; with ``reduced`` on orbits
    of each factor and of its ends (module docstring).  Like ``_ax2`` and
    ``_ax3``, it returns the number of instances covered: per instance
    evaluated, the product of its factors' weights."""
    extra_genus2, n_colours, ends, ordered, equation = _ORBIT_AXIOMS[axiom]
    compose, contract = _memo(op._compose), _memo(op._contract)
    factors = _end_orbits(kind, extended, reduced)

    def glue(x, a, y, b, colour):
        return compose(x, a, y, b, colour, extended)

    def cut(x, a, b, colour):
        return contract(x, a, b, colour, extended)

    colourings = [(cols, [tuple(cols[i] for i in e) for e in ends])
                  for cols in itertools.product(op.colours(kind), repeat=n_colours)]
    covered = 0
    for shapes in _corolla_tuples(corollas, len(ends), max_n, max_genus2, extra_genus2):
        offsets_o = list(itertools.accumulate((s[0] for s in shapes), initial=0))
        offsets_c = list(itertools.accumulate((s[1] for s in shapes), initial=0))
        for cols, factor_cols in colourings:
            for xs in itertools.product(
                    *map(factors, shapes, offsets_o, offsets_c, factor_cols, ordered)):
                elems, orbits = zip(*xs)
                for ts in itertools.product(*orbits):
                    tuples, weights = zip(*ts)
                    instance, lhs, rhs = equation(
                        glue, cut, *elems, *itertools.chain(*tuples), *cols)
                    report.checked += 1
                    covered += math.prod(weights)
                    if lhs != rhs:
                        report.fail(axiom, instance, lhs, rhs)
    return covered


# The equations of axioms 1 and 5-8.  Each takes the check's gluing and
# contraction, the factors, their ends in the order of the factors (each
# factor's as its row lists them) and the colours, and returns the instance
# it reports and its two sides.

def _symmetric(glue, cut, x, y, a, b, colour):
    """Axiom 1: gluing is symmetric in its two factors, x o_a y == y o_b x;
    reported as (x, a, y, b, colour)."""
    return (x, a, y, b, colour), glue(x, a, y, b, colour), glue(y, b, x, a, colour)


def _contractions_commute(glue, cut, x, a, b, c, d, col1, col2):
    """Axiom 5: contractions commute, at pairs a < b and c < d, the pair
    (a, b) first when both have one colour; with ``reduced`` at every order
    of them.  Reported as (x, a, b, c, d, col1, col2)."""
    return ((x, a, b, c, d, col1, col2), cut(cut(x, c, d, col2), a, b, col1),
            cut(cut(x, a, b, col1), c, d, col2))


def _contract_across(glue, cut, x, y, a, c, b, d, col_ab, col_cd):
    """Axiom 6: contracting across a gluing agrees in either order, gluing
    at (c, d) then contracting (a, b) or gluing at (a, b) then contracting
    (c, d).  Reported as (x, y, a, b, c, d, col_ab, col_cd)."""
    return ((x, y, a, b, c, d, col_ab, col_cd),
            cut(glue(x, c, y, d, col_cd), a, b, col_ab),
            cut(glue(x, a, y, b, col_ab), c, d, col_cd))


def _contract_inside(glue, cut, x, y, c, d, a, b, col_ab, col_cd):
    """Axiom 7: gluing commutes with a contraction inside one factor: at
    c < d, with ``reduced`` in either order.  Reported as
    (x, y, a, b, c, d, col_ab, col_cd)."""
    return ((x, y, a, b, c, d, col_ab, col_cd),
            glue(cut(x, c, d, col_cd), a, y, b, col_ab),
            cut(glue(x, a, y, b, col_ab), c, d, col_cd))


def _associative(glue, cut, x, y, z, a, b, c, d, col_ab, col_cd):
    """Axiom 8: gluing is associative, x o_a (y o_c z) == (x o_a y) o_c z;
    reported as (x, y, z, a, b, c, d, col_ab, col_cd)."""
    return ((x, y, z, a, b, c, d, col_ab, col_cd),
            glue(x, a, glue(y, c, z, d, col_cd), b, col_ab),
            glue(glue(x, a, y, b, col_ab), c, z, d, col_cd))


# Axioms 1 and 5-8, one row each: the genus2 the equation adds to the
# gluing of its factors' corollas, its number of colours, each factor's end
# colours (as indices into the colours), each factor's pairs of ends in
# order (``_in_order``) and the equation.  The number of factors is that of
# the end colours.
_ORBIT_AXIOMS = {
    1: (0, 1, ((0,), (0,)), ((), ()), _symmetric),
    5: (4, 2, ((0, 0, 1, 1),), (((0, 1), (2, 3), (0, 2)),), _contractions_commute),
    6: (2, 2, ((0, 1), (0, 1)), ((), ()), _contract_across),
    7: (2, 2, ((1, 1, 0), (0,)), (((0, 1),), ()), _contract_inside),
    8: (0, 2, ((0,), (0, 1), (1,)), ((), (), ()), _associative),
}

_AXIOM_FUNCS = {
    1: partial(_on_orbits, 1),
    2: _ax2,
    3: _ax3,
    4: _ax4,
    **{axiom: partial(_on_orbits, axiom) for axiom in (5, 6, 7, 8)},
}

# The axioms with a reduced check, each with the axioms its argument needs.
_REDUCED = {
    2: set(),
    3: {2},
    **{axiom: {2, 3, 4} for axiom in _ORBIT_AXIOMS},
}
