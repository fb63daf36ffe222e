"""The twisted endomorphism operad on a dg symplectic space.

Elements are multilinear functionals (see :mod:`graded`); gluing two ends
contracts the corresponding slots against the inverse pairing, producing a
degree +1 operation.  Two-coloured functionals carry separate open and
closed slot blocks (opens first); closed-end operations insert into the
closed block.

Every operation below is defined through a particular slot assignment:
each factor is moved into glue order, the join is signed there, and the
result is transported back to the ascending assignment.  Each of those
steps multiplies by -1 to a quadratic form in the parities of the letters,
so one form per call (a ``_kernels.SignForm``) carries their product, and
the join reads every stored word once, as it is stored, with the one
evaluator ``_kernels.form_at``.

The joins sum integer numerators: each factor's entries over the lcm of
their denominators and the inverse pairing over the lcm of its own (the
integer part of the glued space's ``pairing`` record), so a result is over
the product of those lcms.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._kernels import (
    SignForm,
    form_at,
    lcm_of_denominators,
    odd_mask,
    precompose_entries,
    word_getter,
)
from .errors import LabelCollision, LabelMismatch, MissingLabel, SingularOmega
from .graded import GradedSymplecticSpace, MultiFunctional, functional_differential

__all__ = [
    "endo_relabel",
    "endo_compose",
    "endo_contract",
    "endo_compose_raw",
    "endo_contract_raw",
    "endo_sum_raw",
    "verify_twisted_axioms",
    "TwistedAxiomReport",
]

ZERO = Fraction(0)


def _slots(f: MultiFunctional, opens, closeds):
    """Slot indices for colour-tagged label sequences."""
    no = len(f.labels)
    out = [f.labels.index(l) for l in opens]
    out += [no + f.clabels.index(l) for l in closeds]
    return out


def _integers(f: MultiFunctional):
    """What a gluing reads of f's entries whatever the ends: each entry as
    ``(word, numerator, odd mask)`` over the lcm of their denominators, and
    that lcm.  A caller gluing one set of entries many times computes this
    once and passes it to ``_compose_integers``."""
    parities = tuple(k % 2 for k in f.degree_table)
    den = lcm_of_denominators(f.entries.values())
    return [(w, v.numerator * (den // v.denominator), odd_mask(w, parities))
            for w, v in f.entries.items()], den


def _signed_numerators(integers, rows, linear):
    """The entries of ``_integers`` as ``(word, numerator, odd mask, acc)``,
    and their lcm; each numerator carries the sign of the form ``rows``,
    ``linear`` at its word, and acc is as in ``_kernels.form_at``."""
    items, den = integers
    at: dict = {}  # the form per odd mask; a word has few distinct ones
    out = []
    for w, n, z in items:
        got = at.get(z)
        if got is None:
            got = at[z] = form_at(rows, linear, z)
        out.append((w, -n if got[0] else n, z, got[1]))
    return out, den


def _as_functional(f: MultiFunctional, labels, clabels, nums, den, degree):
    """The functional over f's spaces with the given raw result."""
    entries = {w: Fraction(n, den) for w, n in nums.items()}
    return MultiFunctional._built(f.space, labels, entries, degree, f.cspace,
                                  clabels)


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
    entries = precompose_entries(f.entries, tuple(slots), f.degree_table)
    return MultiFunctional._built(f.space, tuple(new_open), entries, f.degree,
                                  f.cspace, tuple(new_closed))


def _split_labels(f, drop, colour):
    lo = [l for l in f.labels if not (colour == "open" and l == drop)]
    lc = [l for l in f.clabels if not (colour == "closed" and l == drop)]
    return lo, lc


def endo_compose(f: MultiFunctional, a, g: MultiFunctional, b,
                 colour: str = "open") -> MultiFunctional:
    """Glue end a of f to end b of g through the inverse pairing."""
    return _as_functional(f, *endo_compose_raw(f, a, g, b, colour))


def endo_compose_raw(f: MultiFunctional, a, g: MultiFunctional, b,
                     colour: str = "open"):
    """``endo_compose`` as ``(labels, clabels, numerators, den, degree)``:
    the result's ascending labels per colour, its nonzero integer
    numerators by word over the denominator ``den``, and its degree."""
    return _compose_integers(f, _integers(f), a, g, _integers(g), b, colour)


def _compose_integers(f: MultiFunctional, fi, a, g: MultiFunctional, gi, b,
                      colour: str = "open"):
    """``endo_compose_raw`` with the entries of f and g read from ``fi`` and
    ``gi``, their ``_integers``.

    In glue order (the glued end first, or first among the closeds) f reads
    d x1 y1 and g reads e x2 y2, with x the opens and y the closeds left;
    the join pairs d with e and assembles x1 x2 y1 y2 with the sign
    p_f + p_g |e| + (p_g + |e|) |u| + |x2| |y1|, plus |d| |x1| + |e| |x2|
    for a closed end, where u = x1 y1, v = x2 y2, p_f = |d| + |u| and
    p_g = |e| + |v|.  Slots are numbered over the concatenation f g.
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
    glue_space = f.space if colour == "open" else f.cspace
    if glue_space is None:
        raise MissingLabel("no closed space present")
    rows, den_p = glue_space.pairing.int_rows, glue_space.pairing.den
    off = 0 if colour == "open" else f.space.dim
    nf, ng = f.arity, g.arity
    x1, y1 = _slots(f, lo1, ()), _slots(f, (), lc1)
    x2 = [nf + s for s in _slots(g, lo2, ())]
    y2 = [nf + s for s in _slots(g, (), lc2)]
    if colour == "open":
        d, e = _slots(f, (a,), ()), [nf + s for s in _slots(g, (b,), ())]
        glue_f, glue_g = d + x1 + y1, e + x2 + y2
    else:
        d, e = _slots(f, (), (a,)), [nf + s for s in _slots(g, (), (b,))]
        glue_f, glue_g = x1 + d + y1, x2 + e + y2
    u = x1 + y1
    form = SignForm(nf + ng)
    form.add_move(range(nf), glue_f)
    form.add_move(range(nf, nf + ng), glue_g)
    form.add_linear(range(nf))  # p_f
    form.add_product(range(nf, nf + ng), e)  # p_g |e|
    form.add_product(list(range(nf, nf + ng)) + e, u)  # (p_g + |e|) |u|
    form.add_product(x2, y1)
    if colour == "closed":
        form.add_product(d, x1)
        form.add_product(e, x2)
    # transport from the assembly x1 x2 y1 y2 to ascending labels per colour
    labels, clabels = sorted(lo1 + lo2), sorted(lc1 + lc2)
    at_open = dict(zip(lo1 + lo2, x1 + x2))
    at_closed = dict(zip(lc1 + lc2, y1 + y2))
    final = [at_open[l] for l in labels] + [at_closed[l] for l in clabels]
    form.add_move(x1 + x2 + y1 + y2, final)
    pick = word_getter(final)
    low = (1 << nf) - 1
    F, den_f = _signed_numerators(fi, form.rows[:nf], form.linear & low)
    G, den_g = _signed_numerators(gi, [r >> nf for r in form.rows[nf:]],
                                  form.linear >> nf)
    # hash join: bucket the second factor by its glued index; a pair's sign
    # is the product of its two entries' own signs and of the form's pairs
    # across the factors, (acc of f >> nf) & (odd mask of g)
    sd, se = d[0], e[0] - nf
    buckets: dict = {}
    for wg, m, z, _ in G:
        buckets.setdefault(wg[se] - off, []).append((wg, m, z))
    out: dict = {}
    get = out.get
    for wf, n, _, acc in F:
        cross = acc >> nf
        for col, c in rows[wf[sd] - off]:
            bucket = buckets.get(col)
            if bucket is None:
                continue
            nc = n * c
            for wg, m, z in bucket:
                word = pick(wf + wg)
                val = nc * m
                if (cross & z).bit_count() & 1:
                    val = -val
                out[word] = get(word, 0) + val
    degree = None if None in (f.degree, g.degree) else f.degree + g.degree + 1
    return (tuple(labels), tuple(clabels), {w: v for w, v in out.items() if v},
            den_f * den_g * den_p, degree)


def endo_contract(f: MultiFunctional, a, b, colour: str = "open") -> MultiFunctional:
    """Contract ends a and b of f against the inverse pairing."""
    return _as_functional(f, *endo_contract_raw(f, a, b, colour))


def endo_contract_raw(f: MultiFunctional, a, b, colour: str = "open"):
    """``endo_contract`` as ``(labels, clabels, numerators, den, degree)``,
    laid out as ``endo_compose_raw``'s.

    In glue order f reads d e x y (d e among the closeds, after x, for a
    closed pair); the contraction keeps x y with the sign
    |d| + |e| + |x| + |y|, plus (|d| + |e|) |x| for a closed pair.
    """
    if a == b:
        raise MissingLabel("contraction needs two distinct labels")
    pool = f.labels if colour == "open" else f.clabels
    if a not in pool or b not in pool:
        raise MissingLabel(f"labels {a},{b} are not both {colour} ends")
    lo = [l for l in f.labels if colour == "closed" or l not in (a, b)]
    lc = [l for l in f.clabels if colour == "open" or l not in (a, b)]
    glue_space = f.space if colour == "open" else f.cspace
    P, den_p = glue_space.pairing.int_matrix, glue_space.pairing.den
    off = 0 if colour == "open" else f.space.dim
    n = f.arity
    x, y = _slots(f, lo, ()), _slots(f, (), lc)
    if colour == "open":
        sa, sb = _slots(f, (a, b), ())
        glue = [sa, sb] + x + y
    else:
        sa, sb = _slots(f, (), (a, b))
        glue = x + [sa, sb] + y
    form = SignForm(n)
    form.add_move(range(n), glue)
    form.add_linear(range(n))
    if colour == "closed":
        form.add_product((sa, sb), x)  # the pair moves past the opens
    # the kept slots are in stored order, which is ascending per colour
    pick = word_getter(x + y)
    parities = tuple(k % 2 for k in f.degree_table)
    rows, linear = form.rows, form.linear
    den_f = lcm_of_denominators(f.entries.values())
    at: dict = {}
    out: dict = {}
    get = out.get
    for w, v in f.entries.items():
        c = P[w[sa] - off][w[sb] - off]
        if not c:
            continue
        z = odd_mask(w, parities)
        odd = at.get(z)
        if odd is None:
            odd = at[z] = form_at(rows, linear, z)[0]
        val = c * v.numerator * (den_f // v.denominator)
        word = pick(w)
        out[word] = get(word, 0) - val if odd else get(word, 0) + val
    degree = None if f.degree is None else f.degree + 1
    return (tuple(lo), tuple(lc), {w: v for w, v in out.items() if v},
            den_f * den_p, degree)


def endo_sum_raw(f: MultiFunctional, terms) -> MultiFunctional:
    """f plus the sum of c * term over the pairs (c, term) in ``terms``,
    with c rational and the terms raw, as ``endo_compose_raw`` and
    ``endo_contract_raw`` return them, on f's labels.

    The terms are summed in place as integer numerators over a running
    common denominator, and each word is written as one ``Fraction`` at
    the end; the result has f's degree."""
    den = 1
    acc: dict = {}
    for c, (labels, clabels, nums, t, _) in terms:
        if (labels, clabels) != (f.labels, f.clabels):
            raise LabelMismatch("functionals over different label sets")
        c = Fraction(c)
        t *= c.denominator
        if den % t:
            grow = math.lcm(den, t) // den
            for w in acc:
                acc[w] *= grow
            den *= grow
        scale = c.numerator * (den // t)
        get = acc.get
        for w, n in nums.items():
            acc[w] = get(w, 0) + scale * n
    entries = dict(f.entries)
    for w, n in acc.items():
        if n:
            v = entries.get(w, ZERO) + Fraction(n, den)
            if v:
                entries[w] = v
            else:
                del entries[w]
    return f._derived(entries, f.degree)


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


def _rand_functional(rng, space, labels):
    from .graded import random_functional

    h = random_functional(rng, space, labels, degree=rng.choice([-1, 0, 1]))
    if not h.entries:
        h = random_functional(rng, space, labels, degree=0, density=1.0)
    return h


def verify_twisted_axioms(space: GradedSymplecticSpace, max_n=4, samples=50,
                          seed=0, min_per_axiom=None) -> TwistedAxiomReport:
    """Check the eight signed axioms and the chain-map property on random
    rational functionals of arity 1 to max_n, so max_n must be at least 1.

    With ``min_per_axiom`` set, sampling continues until every axiom has
    been exercised at least that many times.

    Each round computes a value that several axioms use once: the gluing
    of its two functionals (one side of axioms 1, 3, 6 and 8 and of the
    chain-map property), the first one relabelled (axioms 3 and 4) and
    its differential (both chain-map checks).  Shared values enter
    different axioms only, so the two sides of every axiom are still
    built independently, in two different orders of the operations.
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
    # one side of axioms 1, 3, 6 and 8 and of the chain-map property
    fg = endo_compose(f, a, g, b)
    # axiom 1: symmetry of the gluing
    rhs = endo_compose(g, b, f, a)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    report.record(1, "symmetry", fg.same_entries(rhs.scaled(sign)))
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
    f_rho = endo_relabel(f, rho)
    lhs = endo_relabel(fg, {**{l: rho[l] for l in f.labels if l != a},
                            **{l: l for l in g.labels if l != b}})
    rhs = endo_compose(f_rho, rho[a], g, b)
    report.record(3, "equivariance of gluing", lhs.same_entries(rhs))
    if n1 >= 2:
        aa, bb = rng.sample(list(f.labels), 2)
        lhs = endo_relabel(
            endo_contract(f, aa, bb), {l: rho[l] for l in f.labels if l not in (aa, bb)}
        )
        rhs = endo_contract(f_rho, rho[aa], rho[bb])
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
        rhs = endo_contract(fg, c, d)
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
        rhs = endo_compose(fg, c, h, d)
        report.record(8, "associativity", lhs.same_entries(rhs.scaled(-1)))
    # chain maps
    df = functional_differential(f)
    if n1 >= 2:
        aa, bb = rng.sample(list(f.labels), 2)
        lhs = functional_differential(endo_contract(f, aa, bb))
        rhs = endo_contract(df, aa, bb)
        report.record("chain-xi", "d xi + xi d = 0", lhs.same_entries(rhs.scaled(-1)))
    lhs = functional_differential(fg)
    t1 = endo_compose(df, a, g, b)
    t2 = endo_compose(f, a, functional_differential(g), b)
    if f.degree % 2:
        t2 = t2.scaled(-1)
    report.record(
        "chain-glue", "d glue + glue d = 0",
        lhs.plus(t1).plus(t2).is_zero(),
    )
