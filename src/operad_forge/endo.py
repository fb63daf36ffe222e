"""The twisted endomorphism operad on a dg symplectic space.

Elements are multilinear functionals (see :mod:`graded`); gluing two ends
contracts the corresponding slots against the inverse pairing, producing a
degree +1 operation.  Two-coloured functionals carry separate open and
closed slot blocks (opens first); closed-end operations insert into the
closed block.

Every operation below pins a particular slot assignment for the result and
then transports back to the ascending one; results are independent of that
choice, which `tests/test_endo.py` exercises explicitly.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from ._kernels import precompose_entries
from .errors import LabelCollision, LabelMismatch, MissingLabel, SingularOmega
from .graded import (
    GradedSymplecticSpace,
    MultiFunctional,
    contraction_pair,
    functional_differential,
)

__all__ = [
    "endo_relabel",
    "endo_compose",
    "endo_contract",
    "verify_twisted_axioms",
    "TwistedAxiomReport",
]

ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _pair_matrix(space: GradedSymplecticSpace):
    return contraction_pair(space).coefficients


@lru_cache(maxsize=None)
def _pair_rows(space: GradedSymplecticSpace):
    """Per row of the inverse pairing, its nonzero (column, coefficient)s."""
    return tuple(
        tuple((e, c) for e, c in enumerate(row) if c) for row in _pair_matrix(space)
    )


def _pairing(space: GradedSymplecticSpace):
    """``(_pair_matrix(space), _pair_rows(space))``, looked up once per space
    object and kept on it.  Those caches are keyed by value: a lookup with a
    space that equals the cached key but is another object (one read back
    from JSON) compares both Fraction matrices, so each object pays that
    once, and equal spaces still share one cache entry."""
    memo = space.__dict__
    got = memo.get("_pairing")
    if got is None:
        got = memo["_pairing"] = (_pair_matrix(space), _pair_rows(space))
    return got


def _slots(f: MultiFunctional, opens, closeds):
    """Slot indices for colour-tagged label sequences."""
    no = len(f.labels)
    out = [f.labels.index(l) for l in opens]
    out += [no + f.clabels.index(l) for l in closeds]
    return out


def _reorder_slots(f: MultiFunctional, slot_order) -> dict:
    """Entries of f with slots rearranged along ``slot_order``."""
    return precompose_entries(f.entries, tuple(slot_order), f.degree_table)


def _deg_of(word, table):
    return sum(table[k] for k in word)


def endo_relabel(f: MultiFunctional, rho: dict, rho_closed: dict | None = None):
    """Transport f along a bijection of labels (per colour)."""
    rho_closed = rho if rho_closed is None else rho_closed
    for l in f.labels:
        if l not in rho:
            raise LabelMismatch(f"label {l} not in relabelling")
    for l in f.clabels:
        if l not in rho_closed:
            raise LabelMismatch(f"closed label {l} not in relabelling")
    new_open = sorted(rho[l] for l in f.labels)
    new_closed = sorted(rho_closed[l] for l in f.clabels)
    if len(set(new_open)) != len(new_open) or len(set(new_closed)) != len(new_closed):
        raise LabelMismatch("relabelling is not injective")
    inv_o = {rho[l]: l for l in f.labels}
    inv_c = {rho_closed[l]: l for l in f.clabels}
    slots = _slots(f, [inv_o[l] for l in new_open], [inv_c[l] for l in new_closed])
    entries = _reorder_slots(f, slots)
    return replace(f, labels=tuple(new_open), clabels=tuple(new_closed), entries=entries)


def _split_labels(f, drop, colour):
    lo = [l for l in f.labels if not (colour == "open" and l == drop)]
    lc = [l for l in f.clabels if not (colour == "closed" and l == drop)]
    return lo, lc


def endo_compose(f: MultiFunctional, a, g: MultiFunctional, b,
                 colour: str = "open", order=None) -> MultiFunctional:
    """Glue end a of f to end b of g through the inverse pairing.

    ``order``, used by the assignment-independence tests, lists the result
    labels of each factor (opens then closeds per factor) and may arrange
    each block arbitrarily.
    """
    if f.space is not g.space or f.cspace is not g.cspace:
        if f.space != g.space or f.cspace != g.cspace:
            raise LabelMismatch("functionals over different spaces")
    pool_f = f.labels if colour == "open" else f.clabels
    pool_g = g.labels if colour == "open" else g.clabels
    if a not in pool_f:
        raise MissingLabel(f"label {a} is not a {colour} end of the first factor")
    if b not in pool_g:
        raise MissingLabel(f"label {b} is not a {colour} end of the second factor")
    lo1, lc1 = _split_labels(f, a, colour)
    lo2, lc2 = _split_labels(g, b, colour)
    if set(lo1) & set(lo2) or set(lc1) & set(lc2):
        raise LabelCollision("factors share labels")
    if order is not None:
        lo1, lc1, lo2, lc2 = [list(part) for part in order]
    space = f.space
    cspace = f.cspace
    glue_space = space if colour == "open" else cspace
    if glue_space is None:
        raise MissingLabel("no closed space present")
    rows = _pairing(glue_space)[1]
    off = 0 if colour == "open" else space.dim
    table = f.degree_table
    if colour == "open":
        slots_f = _slots(f, [a] + lo1, lc1)
        slots_g = _slots(g, [b] + lo2, lc2)
        slot_f, slot_g = 0, 0
    else:
        slots_f = _slots(f, lo1, [a] + lc1)
        slots_g = _slots(g, lo2, [b] + lc2)
        slot_f, slot_g = len(lo1), len(lo2)
    F = _reorder_slots(f, slots_f)
    G = _reorder_slots(g, slots_g)
    no1, nc1 = len(lo1), len(lc1)
    no2, nc2 = len(lo2), len(lc2)
    # hash join: bucket the second factor by its glued index, with the
    # slices and degree sums each entry contributes
    buckets: dict = {}
    for wg, vg in G.items():
        if colour == "open":
            x2 = wg[1 : 1 + no2]
            y2 = wg[1 + no2 :]
        else:
            x2 = wg[:no2]
            y2 = wg[no2 + 1 :]
        deg_e = table[wg[slot_g]]
        deg_x2 = _deg_of(x2, table)
        deg_y2 = _deg_of(y2, table)
        deg_v = deg_x2 + deg_y2
        p_g = (deg_e + deg_v) % 2
        buckets.setdefault(wg[slot_g] - off, []).append(
            (x2, y2, deg_e, deg_x2, p_g, vg)
        )
    out: dict = {}
    for wf, vf in F.items():
        d = wf[slot_f] - off
        if colour == "open":
            x1 = wf[1 : 1 + no1]
            y1 = wf[1 + no1 :]
        else:
            x1 = wf[:no1]
            y1 = wf[no1 + 1 :]
        deg_d = table[wf[slot_f]]
        deg_x1 = _deg_of(x1, table)
        deg_y1 = _deg_of(y1, table)
        deg_u = deg_x1 + deg_y1
        p_f = (deg_d + deg_u) % 2
        for e, coeff in rows[d]:
            bucket = buckets.get(e)
            if bucket is None:
                continue
            vfc = vf * coeff
            for x2, y2, deg_e, deg_x2, p_g, vg in bucket:
                s = p_f + p_g * deg_e + (p_g + deg_e) * deg_u
                s += deg_x2 * deg_y1  # interleave the two closed blocks
                if colour == "closed":
                    s += deg_d * deg_x1 + deg_e * deg_x2  # insertion moves
                word = x1 + x2 + y1 + y2
                val = vfc * vg
                if s % 2:
                    val = -val
                out[word] = out.get(word, ZERO) + val
    out = {w: v for w, v in out.items() if v}
    # transport from the assembly order to the ascending one, per colour
    res_labels = sorted(lo1 + lo2)
    res_clabels = sorted(lc1 + lc2)
    pos_open = {l: i for i, l in enumerate(lo1 + lo2)}
    shift = len(pos_open)
    pos_closed = {l: shift + i for i, l in enumerate(lc1 + lc2)}
    perm = tuple(
        [pos_open[l] for l in res_labels] + [pos_closed[l] for l in res_clabels]
    )
    out = precompose_entries(out, perm, table)
    degree = None if None in (f.degree, g.degree) else f.degree + g.degree + 1
    return MultiFunctional(
        space=space, labels=tuple(res_labels), entries=out, degree=degree,
        cspace=cspace, clabels=tuple(res_clabels),
    )


def endo_contract(f: MultiFunctional, a, b, colour: str = "open") -> MultiFunctional:
    """Contract ends a and b of f against the inverse pairing."""
    if a == b:
        raise MissingLabel("contraction needs two distinct labels")
    pool = f.labels if colour == "open" else f.clabels
    if a not in pool or b not in pool:
        raise MissingLabel(f"labels {a},{b} are not both {colour} ends")
    lo = [l for l in f.labels if colour == "closed" or l not in (a, b)]
    lc = [l for l in f.clabels if colour == "open" or l not in (a, b)]
    space, cspace = f.space, f.cspace
    glue_space = space if colour == "open" else cspace
    P = _pairing(glue_space)[0]
    off = 0 if colour == "open" else space.dim
    table = f.degree_table
    if colour == "open":
        slots = _slots(f, [a, b] + lo, lc)
        base = 0
    else:
        slots = _slots(f, lo, [a, b] + lc)
        base = len(lo)
    F = _reorder_slots(f, slots)
    no = len(lo)
    out: dict = {}
    for wf, vf in F.items():
        d = wf[base] - off
        e = wf[base + 1] - off
        coeff = P[d][e]
        if not coeff:
            continue
        word = wf[:base] + wf[base + 2 :]
        deg_de = table[wf[base]] + table[wf[base + 1]]
        p_f = (deg_de + _deg_of(word, table)) % 2
        s = p_f
        if colour == "closed":
            s += deg_de * _deg_of(wf[:base], table)  # insertion moves past opens
        val = vf * coeff
        if s % 2:
            val = -val
        out[word] = out.get(word, ZERO) + val
    out = {w: v for w, v in out.items() if v}
    degree = None if f.degree is None else f.degree + 1
    return MultiFunctional(
        space=space, labels=tuple(sorted(lo)), entries=out, degree=degree,
        cspace=cspace, clabels=tuple(sorted(lc)),
    )


# ---------------------------------------------------------------------------
# twisted axiom verification on random functionals


class TwistedAxiomReport:
    def __init__(self, dim, max_n, samples):
        self.dim = dim
        self.max_n = max_n
        self.samples = samples
        self.checked = 0
        self.per_axiom = {}
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def record(self, axiom, note, ok):
        self.checked += 1
        self.per_axiom[axiom] = self.per_axiom.get(axiom, 0) + 1
        if not ok:
            self.failures.append({"axiom": axiom, "instance": note})

    def to_json(self):
        return {
            "dim": self.dim,
            "max_n": self.max_n,
            "samples": self.samples,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
        }


def _rand_functional(rng, space, labels, degree=None):
    from .graded import random_functional

    if degree is None:
        degree = rng.choice([-1, 0, 1])
    h = random_functional(rng, space, labels, degree=degree)
    if not h.entries:
        h = random_functional(rng, space, labels, degree=0, density=1.0)
    return h


def verify_twisted_axioms(space: GradedSymplecticSpace, max_n=4, samples=50,
                          seed=0, min_per_axiom=None) -> TwistedAxiomReport:
    """Check the eight signed axioms and the chain-map property on random
    rational functionals of arity 1 to max_n, so max_n must be at least 1.

    With ``min_per_axiom`` set, sampling continues until every axiom has
    been exercised at least that many times.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    import random

    from .graded import validate_space

    bad = validate_space(space)
    if any("singular" in b for b in bad):
        raise SingularOmega("; ".join(bad))
    if bad:
        raise LabelMismatch("invalid space: " + "; ".join(bad))
    rng = random.Random(seed)
    report = TwistedAxiomReport(space.dim, max_n, samples)
    for _ in range(samples):
        _one_round(rng, space, max_n, report)
    if min_per_axiom:
        for _ in range(200 * min_per_axiom):
            if all(
                report.per_axiom.get(ax, 0) >= min_per_axiom
                for ax in range(1, 9)
            ):
                break
            _one_round(rng, space, max_n, report)
    return report


def _one_round(rng, space, max_n, report):
    n1 = rng.randint(1, max_n)
    n2 = rng.randint(1, max_n)
    f = _rand_functional(rng, space, range(1, n1 + 1))
    g = _rand_functional(rng, space, range(101, 101 + n2))
    a = rng.choice(f.labels)
    b = rng.choice(g.labels)
    # axiom 1: symmetry of the gluing
    lhs = endo_compose(f, a, g, b)
    rhs = endo_compose(g, b, f, a)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    report.record(1, "symmetry", lhs.same_entries(rhs.scaled(sign)))
    # axiom 2: functoriality of relabelling
    perm1 = list(f.labels)
    rng.shuffle(perm1)
    rho = dict(zip(f.labels, perm1))
    perm2 = list(f.labels)
    rng.shuffle(perm2)
    sig = dict(zip(f.labels, perm2))
    comp = {l: rho[sig[l]] for l in f.labels}
    report.record(
        2, "functoriality",
        endo_relabel(f, comp).same_entries(endo_relabel(endo_relabel(f, sig), rho)),
    )
    # axioms 3, 4: equivariance
    lhs = endo_relabel(endo_compose(f, a, g, b),
                       {**{l: rho[l] for l in f.labels if l != a},
                        **{l: l for l in g.labels if l != b}})
    rhs = endo_compose(endo_relabel(f, rho), rho[a], g, b)
    report.record(3, "equivariance of gluing", lhs.same_entries(rhs))
    if n1 >= 2:
        aa, bb = rng.sample(list(f.labels), 2)
        lhs = endo_relabel(
            endo_contract(f, aa, bb), {l: rho[l] for l in f.labels if l not in (aa, bb)}
        )
        rhs = endo_contract(endo_relabel(f, rho), rho[aa], rho[bb])
        report.record(4, "equivariance of contraction", lhs.same_entries(rhs))
    # axiom 5: contractions anticommute
    if n1 >= 4:
        aa, bb, cc, dd = rng.sample(list(f.labels), 4)
        lhs = endo_contract(endo_contract(f, cc, dd), aa, bb)
        rhs = endo_contract(endo_contract(f, aa, bb), cc, dd)
        report.record(5, "contractions anticommute", lhs.same_entries(rhs.scaled(-1)))
    # axiom 6
    if n1 >= 2 and n2 >= 2:
        c = rng.choice([l for l in f.labels if l != a])
        d = rng.choice([l for l in g.labels if l != b])
        lhs = endo_contract(endo_compose(f, c, g, d), a, b)
        rhs = endo_contract(endo_compose(f, a, g, b), c, d)
        report.record(6, "contract across gluing", lhs.same_entries(rhs.scaled(-1)))
    # axiom 7
    if n1 >= 3:
        aa = rng.choice(f.labels)
        cc, dd = rng.sample([l for l in f.labels if l != aa], 2)
        lhs = endo_compose(endo_contract(f, cc, dd), aa, g, b)
        rhs = endo_contract(endo_compose(f, aa, g, b), cc, dd)
        report.record(7, "contraction inside one factor", lhs.same_entries(rhs.scaled(-1)))
    # axiom 8 with the Koszul sign of moving the inner gluing past f
    if n2 >= 2:
        n3 = rng.randint(1, max_n)
        h = _rand_functional(rng, space, range(201, 201 + n3))
        c = rng.choice([l for l in g.labels if l != b])
        d = rng.choice(h.labels)
        inner = endo_compose(g, c, h, d)
        lhs = endo_compose(f, a, inner, b)
        if f.degree % 2:
            lhs = lhs.scaled(-1)
        rhs = endo_compose(endo_compose(f, a, g, b), c, h, d)
        report.record(8, "associativity", lhs.same_entries(rhs.scaled(-1)))
    # chain maps
    if n1 >= 2:
        aa, bb = rng.sample(list(f.labels), 2)
        lhs = functional_differential(endo_contract(f, aa, bb))
        rhs = endo_contract(functional_differential(f), aa, bb)
        report.record("chain-xi", "d xi + xi d = 0", lhs.same_entries(rhs.scaled(-1)))
    lhs = functional_differential(endo_compose(f, a, g, b))
    t1 = endo_compose(functional_differential(f), a, g, b)
    t2 = endo_compose(f, a, functional_differential(g), b)
    if f.degree % 2:
        t2 = t2.scaled(-1)
    report.record(
        "chain-glue", "d glue + glue d = 0",
        lhs.plus(t1).plus(t2).is_zero(),
    )
