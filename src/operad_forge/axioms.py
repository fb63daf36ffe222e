"""Verification of the structure-map axioms for the surface operads.

The statement verified is exhaustive: every axiom on all basis elements
within the requested arity and genus bounds, over all admissible
gluing-label choices.  Relabelling maps in the equivariance axioms (3 and 4)
run over transposition generators plus the identity; functoriality (axiom 2)
is checked on all pairs of permutations, so equivariance for generators
implies it for the whole group.  This rests on one premise, used by every
argument below: ``relabel`` is functorial on the label sets of glued
surfaces, not only on 1..n, and gluing and contraction are equivariant
there too.

The instances evaluated are fewer, chosen so that they imply the rest.
Axioms 2, 3 and 4 run first, then 1 and 5-8.

- **Axiom 3 on split generators.**  For each (x, a, y, b) the pairs
  (rho, id), for every generator rho of x, and (id, sigma), for every
  non-identity generator sigma of y, are checked: |gx| + |gy| - 1
  instances instead of |gx| * |gy|.  Every pair follows:
  (x o y).(rho u sigma) = ((x o y).(1 u sigma)).(rho u 1) by axiom 2,
  = (x o y.sigma).(rho u 1) by axiom 3 at (x, y), = x.rho o y.sigma by
  axiom 3 at (x, y.sigma).  The last step is checked because y.sigma is in
  the same basis: the basis is closed under relabelling.  This runs only
  once axiom 2 has passed.
- **Axioms 1 and 5-8 on orbit representatives.**  Once axioms 2, 3 and 4
  have passed, both sides of each of these axioms transform by the same
  relabelling of the result when the factors are relabelled, and a
  relabelling is invertible.  So an instance fails exactly when its image
  under the product of the factors' relabelling groups fails, and the
  failure set is a union of orbits.  Each factor's basis is therefore
  reduced to the first element of each orbit, with all of its ends kept.
  Within one corolla an orbit is the set of elements with the same cycle
  lengths, empty boundaries, genus and closed count (``_orbit_key``).
- **Fallback.**  An axiom whose reduced check fails is run again by its
  exhaustive loop; if axiom 2, 3 or 4 fails, axioms 1 and 5-8 (and 3,
  after a failure of 2) run exhaustively from the start.  ``failures`` is
  then the exhaustive list, so a broken ``relabel`` cannot hide a broken
  ``_compose``.

``AxiomReport.checked`` and ``per_axiom`` count the instances evaluated;
``covered`` gives, per axiom, the instances they stand for: the product of
the factors' orbit sizes summed over the evaluated instances, or
|gx| * |gy| per (x, a, y, b) for axiom 3.  It equals the exhaustive count.

What depends on one element only is computed once, not once per instance:
each element's ends per colour (axioms 1 and 3-8, before the product loops),
its relabellings by every slot permutation (axiom 2, ``_ActionTable``) and,
for axiom 3, its generator maps, its relabelling by each generator and each
generator's map with each end dropped (``_glue_data``, once per element and
colour in one verifier run).  The gluing memo lives for one axiom check:
each check memoizes the uncached ``_compose`` and ``_contract`` bodies it
finds in ``operads`` when it starts (``_memo``) and drops that memo when
it returns, so the process-wide caches keep no verifier entries.
"""
from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import operads as op
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
    out = []
    if kind == "qoc":
        for o in range(0, max_n + 1):
            for c in range(0, max_n + 1 - o):
                for g2 in range(0, max_genus2 + 1):
                    try:
                        op.basis("qoc", range(1, o + 1), g2,
                                 closed=range(1, c + 1), extended=extended)
                    except Unstable:
                        continue
                    out.append((o, c, g2))
        return out
    for n in range(0, max_n + 1):
        for g2 in range(0, max_genus2 + 1, 2):
            if kind == "ass" and g2 > 0:
                continue
            try:
                op.basis(kind, range(1, n + 1), g2)
            except Unstable:
                continue
            out.append((n, 0, g2))
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


def _colours(kind):
    return ("open", "closed") if kind == "qoc" else ("open",)


def _ends(x, colour):
    if isinstance(x, op.QCElement):
        return sorted(x.labels)
    if colour == "open":
        return sorted(op.open_labels(x))
    return sorted(op.closed_labels(x))


def _orbit_key(x):
    """What determines x's orbit under relabelling within its corolla."""
    if isinstance(x, op.QCElement):
        return x.genus2
    return tuple(map(len, x.cycles)), x.empties, x.g, len(op.closed_labels(x))


def _factors(kind, shape, extended, offset_o=0, offset_c=0, reduced=False):
    """The basis of one corolla as (element, ends per colour, weight): every
    element with weight 1, or with ``reduced`` the first element of each
    orbit with the orbit's size."""
    xs = _basis(kind, shape, extended, offset_o, offset_c)
    if reduced:
        orbits = {}
        for x in xs:
            orbits.setdefault(_orbit_key(x), []).append(x)
        weighted = [(members[0], len(members)) for members in orbits.values()]
    else:
        weighted = [(x, 1) for x in xs]
    return [(x, {c: _ends(x, c) for c in _colours(kind)}, w) for x, w in weighted]


def _transposition_maps(labels):
    labels = sorted(labels)
    maps = [{l: l for l in labels}]
    for i, j in itertools.combinations(labels, 2):
        m = {l: l for l in labels}
        m[i], m[j] = j, i
        maps.append(m)
    return maps


def _perm_maps(labels):
    labels = sorted(labels)
    return [dict(zip(labels, p)) for p in itertools.permutations(labels)]


def _generator_maps(kind, x):
    """Pairs (open map, closed map) generating the relabelling group, the
    identity first."""
    if kind == "qoc":
        out = []
        ids_c = {l: l for l in op.closed_labels(x)}
        ids_o = {l: l for l in op.open_labels(x)}
        for m in _transposition_maps(op.open_labels(x)):
            out.append((m, ids_c))
        for m in _transposition_maps(op.closed_labels(x)):
            if m != ids_c:
                out.append((ids_o, m))
        return out
    return [(m, {}) for m in _transposition_maps(x.labels)]


def _relabel(kind, x, rho_o, rho_c):
    if kind == "qoc":
        return op.relabel(x, rho_o, rho_c)
    return op.relabel(x, rho_o)


def _free_map(kind, rho_o, rho_c, colour, *drop):
    """Combined relabelling restricted away from the glued labels."""
    o = dict(rho_o)
    c = dict(rho_c)
    target = o if (colour == "open" or kind != "qoc") else c
    for l in drop:
        target.pop(l, None)
    return o, c


def _memo(fn):
    """A memo of ``fn`` for one axiom check, around the uncached body behind
    ``operads``' process-wide cache.  Each check passes ``op._compose`` or
    ``op._contract`` as it finds them when it starts, so a replaced
    ``op._compose`` is seen."""
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


def _pairs(corollas, max_n, max_genus2, extra_genus2=0):
    for s1, s2 in itertools.product(corollas, repeat=2):
        if s1[2] + s2[2] + extra_genus2 > max_genus2:
            continue
        if s1[0] + s1[1] + s2[0] + s2[1] - 2 > max_n:
            continue
        yield s1, s2


def _ax1(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Gluing is symmetric in its two factors.  Like ``_ax5``-``_ax8``, it
    returns the number of instances covered, and with ``reduced`` runs on
    each factor's orbit representatives only."""
    compose = _memo(op._compose)
    covered = 0
    for s1, s2 in _pairs(corollas, max_n, max_genus2):
        xs = _factors(kind, s1, extended, reduced=reduced)
        ys = _factors(kind, s2, extended, s1[0], s1[1], reduced)
        for colour in _colours(kind):
            for (x, ex, wx), (y, ey, wy) in itertools.product(xs, ys):
                n0 = report.checked
                for a in ex[colour]:
                    for b in ey[colour]:
                        lhs = compose(x, a, y, b, colour, extended)
                        rhs = compose(y, b, x, a, colour, extended)
                        report.checked += 1
                        if lhs != rhs:
                            report.fail(1, (x, a, y, b, colour), lhs, rhs)
                covered += (report.checked - n0) * wx * wy
    return covered


def _perm_group(lo, lc):
    """Slot permutations (open map, closed map) of the labels ``lo``/``lc``,
    and their product table: ``mul[s][r]`` indexes ``l -> r[s[l]]``."""
    maps_o, maps_c = _perm_maps(lo), _perm_maps(lc)
    index_o = {tuple(m[l] for l in lo): i for i, m in enumerate(maps_o)}
    index_c = {tuple(m[l] for l in lc): i for i, m in enumerate(maps_c)}
    mul_o = [[index_o[tuple(r[s[l]] for l in lo)] for r in maps_o] for s in maps_o]
    mul_c = [[index_c[tuple(r[s[l]] for l in lc)] for r in maps_c] for s in maps_c]
    nc = len(maps_c)
    group = [(mo, mc) for mo in maps_o for mc in maps_c]
    mul = [
        [mul_o[so][ro] * nc + mul_c[sc][rc]
         for ro in range(len(maps_o)) for rc in range(nc)]
        for so in range(len(maps_o)) for sc in range(nc)
    ]
    return group, mul


class _ActionTable:
    """Relabellings of elements by the slot permutations of one label set,
    with each element interned as an integer id and each row computed once."""

    def __init__(self, kind, lo, lc):
        self.kind = kind
        self.group, self.mul = _perm_group(lo, lc)
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
                self.id(_relabel(self.kind, x, mo, mc)) for mo, mc in self.group
            ]
        return r


def _ax2(report, kind, corollas, max_n, max_genus2, extended):
    """Relabelling is functorial: x.(rho o sigma) == (x.sigma).rho for every
    pair of slot permutations.  Each relabelling of each element is computed
    once by ``relabel`` into a table of interned ids; every pair is then
    checked by lookup, so equal ids mean equal elements."""
    tables = {}
    for shape in corollas:
        for x in _basis(kind, shape, extended):
            lo = sorted(x.labels) if kind != "qoc" else sorted(op.open_labels(x))
            lc = sorted(op.closed_labels(x)) if kind == "qoc" else []
            key = (tuple(lo), tuple(lc))
            if key not in tables:
                tables[key] = _ActionTable(kind, lo, lc)
            table = tables[key]
            rx = table.row(table.id(x))
            for s, ms in enumerate(table.mul):
                ry = table.row(rx[s])
                lhs = [rx[m] for m in ms]
                report.checked += len(ms)
                if lhs == ry:
                    continue
                for r, (li, ri) in enumerate(zip(lhs, ry)):
                    if li != ri:
                        (rho_o, rho_c), (sig_o, sig_c) = table.group[r], table.group[s]
                        report.fail(2, (x, rho_o, sig_o, rho_c, sig_c),
                                    table.elems[li], table.elems[ri])


def _glue_data(kind, x, colour):
    """Per end ``a`` of ``x`` in ``colour``: for each generator rho, the
    relabelled ``x.rho``, the image ``rho(a)`` and rho's open and closed maps
    with ``a`` dropped (the part of rho that survives the gluing at ``a``)."""
    gens = _generator_maps(kind, x)
    moved = [_relabel(kind, x, rho_o, rho_c) for rho_o, rho_c in gens]
    out = []
    for a in _ends(x, colour):
        row = []
        for (rho_o, rho_c), xr in zip(gens, moved):
            look = rho_o if (colour == "open" or kind != "qoc") else rho_c
            row.append((xr, look[a], *_free_map(kind, rho_o, rho_c, colour, a)))
        out.append((a, row))
    return out


def _ax3(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Gluing is equivariant: (x o_a y).(rho u sigma) == x.rho o_{rho(a)} y.sigma
    for generators rho of x's relabellings and sigma of y's; with ``reduced``
    only the pairs (rho, id) and (id, sigma), the identity being the first
    generator.  Returns the number of (rho, sigma) pairs covered.

    For each factor and colour, ``_glue_data`` computes once what depends on
    one factor only: its ends, its generator maps, its relabelling by each
    generator and each generator's map with each end dropped.  Each instance
    then makes one ``relabel`` of the glued surface by the joined free maps
    and one ``_compose`` of the relabelled factors, and records the pair."""
    compose = _memo(op._compose)
    memo = {}

    def data(x, colour):
        d = memo.get((x, colour))
        if d is None:
            d = memo[x, colour] = _glue_data(kind, x, colour)
        return d

    covered = 0
    for s1, s2 in _pairs(corollas, max_n, max_genus2):
        xs = _basis(kind, s1, extended)
        ys = _basis(kind, s2, extended, offset_o=s1[0], offset_c=s1[1])
        for colour in _colours(kind):
            data_y = [(y, data(y, colour)) for y in ys]
            for x in xs:
                data_x = data(x, colour)
                for y, dy in data_y:
                    for a, row_x in data_x:
                        for b, row_y in dy:
                            z = compose(x, a, y, b, colour, extended)
                            covered += len(row_x) * len(row_y)
                            if reduced:
                                pairs = [(rx, row_y[0]) for rx in row_x]
                                pairs += [(row_x[0], ry) for ry in row_y[1:]]
                            else:
                                pairs = itertools.product(row_x, row_y)
                            for (xr, ia, fo, fc), (yr, ib, go, gc) in pairs:
                                lhs = _relabel(kind, z, {**fo, **go}, {**fc, **gc})
                                rhs = compose(xr, ia, yr, ib, colour, extended)
                                report.record(3, (x, a, y, b, colour), lhs, rhs)
    return covered


def _ax4(report, kind, corollas, max_n, max_genus2, extended):
    """Contraction is equivariant."""
    contract = _memo(op._contract)
    for shape in corollas:
        if shape[2] + 2 > max_genus2:
            continue
        for x in _basis(kind, shape, extended):
            gens = _generator_maps(kind, x)
            for colour in _colours(kind):
                for a, b in itertools.combinations(_ends(x, colour), 2):
                    z = contract(x, a, b, colour, extended)
                    for rho_o, rho_c in gens:
                        look = rho_o if (colour == "open" or kind != "qoc") else rho_c
                        ro, rc = _free_map(kind, rho_o, rho_c, colour, a, b)
                        lhs = _relabel(kind, z, ro, rc)
                        rhs = contract(
                            _relabel(kind, x, rho_o, rho_c), look[a], look[b],
                            colour, extended,
                        )
                        report.record(4, (x, a, b, colour), lhs, rhs)


def _ax5(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Contractions commute."""
    contract = _memo(op._contract)
    covered = 0
    for shape in corollas:
        if shape[2] + 4 > max_genus2:
            continue
        for x, ex, wx in _factors(kind, shape, extended, reduced=reduced):
            n0 = report.checked
            for col1, col2 in itertools.product(_colours(kind), repeat=2):
                for a, b in itertools.combinations(ex[col1], 2):
                    for c, d in itertools.combinations(ex[col2], 2):
                        if col1 == col2 and ({a, b} & {c, d} or (a, b) >= (c, d)):
                            continue
                        lhs = contract(contract(x, c, d, col2, extended),
                                       a, b, col1, extended)
                        rhs = contract(contract(x, a, b, col1, extended),
                                       c, d, col2, extended)
                        report.record(5, (x, a, b, c, d, col1, col2), lhs, rhs)
            covered += (report.checked - n0) * wx
    return covered


def _ax6(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Contracting across a gluing agrees in either order."""
    compose, contract = _memo(op._compose), _memo(op._contract)
    covered = 0
    for s1, s2 in _pairs(corollas, max_n, max_genus2, extra_genus2=2):
        xs = _factors(kind, s1, extended, reduced=reduced)
        ys = _factors(kind, s2, extended, s1[0], s1[1], reduced)
        for col_ab, col_cd in itertools.product(_colours(kind), repeat=2):
            for (x, ex, wx), (y, ey, wy) in itertools.product(xs, ys):
                n0 = report.checked
                for a in ex[col_ab]:
                    for c in ex[col_cd]:
                        if col_ab == col_cd and c == a:
                            continue
                        for b in ey[col_ab]:
                            for d in ey[col_cd]:
                                if col_ab == col_cd and d == b:
                                    continue
                                lhs = contract(
                                    compose(x, c, y, d, col_cd, extended),
                                    a, b, col_ab, extended,
                                )
                                rhs = contract(
                                    compose(x, a, y, b, col_ab, extended),
                                    c, d, col_cd, extended,
                                )
                                report.checked += 1
                                if lhs != rhs:
                                    report.fail(
                                        6, (x, y, a, b, c, d, col_ab, col_cd), lhs, rhs
                                    )
                covered += (report.checked - n0) * wx * wy
    return covered


def _ax7(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Gluing commutes with a contraction inside one factor."""
    compose, contract = _memo(op._compose), _memo(op._contract)
    covered = 0
    for s1, s2 in _pairs(corollas, max_n, max_genus2, extra_genus2=2):
        xs = _factors(kind, s1, extended, reduced=reduced)
        ys = _factors(kind, s2, extended, s1[0], s1[1], reduced)
        for col_ab, col_cd in itertools.product(_colours(kind), repeat=2):
            for (x, ex, wx), (y, ey, wy) in itertools.product(xs, ys):
                n0 = report.checked
                for c, d in itertools.combinations(ex[col_cd], 2):
                    for a in ex[col_ab]:
                        if col_ab == col_cd and a in (c, d):
                            continue
                        for b in ey[col_ab]:
                            lhs = compose(
                                contract(x, c, d, col_cd, extended),
                                a, y, b, col_ab, extended,
                            )
                            rhs = contract(
                                compose(x, a, y, b, col_ab, extended),
                                c, d, col_cd, extended,
                            )
                            report.checked += 1
                            if lhs != rhs:
                                report.fail(
                                    7, (x, y, a, b, c, d, col_ab, col_cd), lhs, rhs
                                )
                covered += (report.checked - n0) * wx * wy
    return covered


def _ax8(report, kind, corollas, max_n, max_genus2, extended, reduced=False):
    """Gluing is associative."""
    compose = _memo(op._compose)
    covered = 0
    third = {}  # the third factors, by shape and label offsets
    for s1, s2 in _pairs(corollas, max_n, max_genus2):
        xs = _factors(kind, s1, extended, reduced=reduced)
        ys = _factors(kind, s2, extended, s1[0], s1[1], reduced)
        for s3 in corollas:
            if s1[2] + s2[2] + s3[2] > max_genus2:
                continue
            if sum(s[0] + s[1] for s in (s1, s2, s3)) - 4 > max_n:
                continue
            key = (s3, s1[0] + s2[0], s1[1] + s2[1])
            zs = third.get(key)
            if zs is None:
                zs = third[key] = _factors(kind, s3, extended, *key[1:], reduced)
            for col_ab, col_cd in itertools.product(_colours(kind), repeat=2):
                for (x, ex, wx), (y, ey, wy), (z, ez, wz) in itertools.product(
                    xs, ys, zs
                ):
                    n0 = report.checked
                    for a in ex[col_ab]:
                        for b in ey[col_ab]:
                            xy = compose(x, a, y, b, col_ab, extended)
                            for c in ey[col_cd]:
                                if col_ab == col_cd and c == b:
                                    continue
                                for d in ez[col_cd]:
                                    lhs = compose(
                                        x, a,
                                        compose(y, c, z, d, col_cd, extended),
                                        b, col_ab, extended,
                                    )
                                    rhs = compose(xy, c, z, d, col_cd, extended)
                                    report.checked += 1
                                    if lhs != rhs:
                                        report.fail(
                                            8, (x, y, z, a, b, c, d, col_ab, col_cd),
                                            lhs, rhs,
                                        )
                    covered += (report.checked - n0) * wx * wy * wz
    return covered


_AXIOM_FUNCS = {
    1: _ax1,
    2: _ax2,
    3: _ax3,
    4: _ax4,
    5: _ax5,
    6: _ax6,
    7: _ax7,
    8: _ax8,
}

# The axioms with a reduced check, each with the axioms its argument needs.
_REDUCED = {
    3: {2},
    **{axiom: {2, 3, 4} for axiom in (1, 5, 6, 7, 8)},
}
