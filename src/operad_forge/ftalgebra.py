"""Residual checkers for algebras over the Feynman transforms.

An algebra is a family of degree-0 multilinear functionals indexed by
canonical orbit representatives: symmetric maps ``(n, genus)`` for the
closed-surface operad (loop homotopy algebras), cyclic maps ``n`` for the
genus-zero open operad, maps keyed by a b-sequence and genus for the open
operad, plus a closed arity for the two-coloured one.

Each defining equation is evaluated twice: generically, through the dual
structure maps and the endomorphism operations, and through hand-coded
contribution formulas with explicit relabelling permutations.  The two
paths are independent and the test suite compares them exactly.  The
hand-coded formulas iterate the nonzero entries of the factor tensors,
joined through the nonzero entries of the inverse pairing, and share no
code with the generic route beyond the inverse pairing, the sign and
permutation kernels, the subset enumeration and the orbit-representative
lookup (``canonical_perm``, ``key_of``) that finds a stored map.

The gluing and open self-gluing terms of the open-surface equations are
sums over the ordered splittings along an open or a closed end and over
the contraction preimages, each preimage up to the swap of the glued ends
with multiplicity 2 when the swap differs.  They come from the
enumerators ``operads._open_splittings``, ``_closed_splittings`` and
``_open_contractions`` that the dual formulas also walk; the generic route
reaches both families only through the pairing oracles ``dual_compose``
and ``dual_contract``.  Each splitting factor's map is looked up by the
factor's shape (cycle lengths, empty boundaries, genus, closed ends)
before the factor is built, so a shape without a stored map costs one
dictionary lookup.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import operads as op
from ._kernels import invert_perm, precompose_entries
from .combinatorics import (
    QCElement,
    QOCSurface,
    QOSurface,
    _rep_cycles,
    b_sequence,
    bseq_arity,
    bseq_boundaries,
    orbit_representative,
    stabilizer_generators,
    symmetrize,
    trim_bseq,
)
from .endo import (
    endo_compose_raw,
    endo_contract_raw,
    endo_sum_raw,
)
from .errors import (
    KeyMissing,
    KindMismatch,
    SymmetryViolation,
    Unstable,
)
from .graded import (
    GradedSymplecticSpace,
    MultiFunctional,
    _json_object,
    _json_typed,
    format_rational,
    functional_differential,
    parse_int,
    parse_rational,
    space_from_json,
    space_to_json,
    zero_functional,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)

ALGEBRA_KINDS = ("loop", "cyclic_ainfty", "quantum_ainfty", "qoc")
OPERAD_OF = {
    "loop": "qc",
    "cyclic_ainfty": "ass",
    "quantum_ainfty": "qo",
    "qoc": "qoc",
}


class LoopKey(NamedTuple):
    n: int
    genus: int


class CyclicKey(NamedTuple):
    n: int


class QuantumKey(NamedTuple):
    bseq: tuple
    g: int


class QocKey(NamedTuple):
    bseq: tuple
    g: int
    closed: int


def key_arity(key) -> int:
    if isinstance(key, (LoopKey, CyclicKey)):
        return key.n
    return bseq_arity(key.bseq)


def key_closed(key) -> int:
    return key.closed if isinstance(key, QocKey) else 0


def key_genus2(key) -> int:
    if isinstance(key, LoopKey):
        return 2 * key.genus
    if isinstance(key, CyclicKey):
        return 0
    b = bseq_boundaries(key.bseq)
    return 4 * key.g + 2 * b + key_closed(key) - 2


def representative(key):
    """Canonical basis element the key's functional is attached to."""
    if isinstance(key, LoopKey):
        return QCElement(labels=frozenset(range(1, key.n + 1)), genus2=2 * key.genus)
    if isinstance(key, CyclicKey):
        return QOSurface(cycles=(tuple(range(1, key.n + 1)),), empties=0, g=0)
    if isinstance(key, QocKey):
        return QOCSurface(
            cycles=_rep_cycles(key.bseq), empties=key.bseq[0], g=key.g,
            closed=frozenset(range(1, key.closed + 1)),
        )
    return orbit_representative(key.bseq, key.g)


def key_of(kind: str, x) -> object:
    """Map key of the orbit representative of a basis element."""
    if kind == "loop":
        return LoopKey(len(x.labels), x.genus2 // 2)
    if kind == "cyclic_ainfty":
        return CyclicKey(x.arity)
    if kind == "quantum_ainfty":
        return QuantumKey(x.bseq(), x.g)
    return QocKey(x.bseq(), x.g, len(x.closed))


def check_key(kind: str, key) -> None:
    expected = {
        "loop": LoopKey, "cyclic_ainfty": CyclicKey,
        "quantum_ainfty": QuantumKey, "qoc": QocKey,
    }[kind]
    if not isinstance(key, expected):
        raise KeyMissing(f"{kind} data is keyed by {expected.__name__}")
    if isinstance(key, CyclicKey) and key.n < 3:
        raise Unstable("cyclic maps start at arity 3")
    rep = representative(key)  # raises Unstable on bad b-sequences
    if not rep.is_stable():
        raise Unstable(f"{key} indexes an unstable corolla")
    if isinstance(key, QuantumKey) and bseq_boundaries(key.bseq) < 1:
        raise KeyMissing("open surfaces need at least one boundary")


# ---------------------------------------------------------------------------
# the representative's stabilizer


def stab_shape(kind, key):
    """(b-sequence, free slots) describing the representative's stabilizer
    (``stabilizer_generators``): loop maps are symmetric in their n slots,
    cyclic maps rotate their one n-cycle, and the open-surface kinds rotate
    and swap the cycle blocks of their b-sequence and permute their closed
    slots."""
    if kind == "loop":
        return (0,), key.n
    if kind == "cyclic_ainfty":
        return (0,) * key.n + (1,), 0
    return key.bseq, key_closed(key)


def stab_generators(kind, key):
    """Slot permutations generating the representative's stabilizer."""
    return stabilizer_generators(*stab_shape(kind, key))


# ---------------------------------------------------------------------------
# algebra data


@dataclass
class AlgebraData:
    """A candidate algebra: spaces plus representative-keyed functionals."""

    kind: str
    space: GradedSymplecticSpace
    maps: dict
    closed_space: Optional[GradedSymplecticSpace] = None

    def __post_init__(self):
        if self.kind not in ALGEBRA_KINDS:
            raise KindMismatch(f"unknown algebra kind {self.kind!r}")
        if self.kind == "qoc" and self.closed_space is None:
            raise KindMismatch("two-coloured data needs a closed space")
        for key, f in self.maps.items():
            check_key(self.kind, key)
            self.validate_map(key, f)

    def validate_map(self, key, f: MultiFunctional):
        n, c = key_arity(key), key_closed(key)
        dim = self.space.dim
        dim_c = self.closed_space.dim if self.closed_space is not None else 0
        for w in f.entries:
            ok = all(0 <= k < dim for k in w[:n]) and all(
                dim <= k < dim + dim_c for k in w[n:]
            )
            if len(w) != n + c or not ok:
                raise KeyMissing(
                    f"map {key}: entry index {list(w)} is out of range"
                )
        if f.degree != 0 or not f.check_homogeneous():
            raise SymmetryViolation(f"map {key} is not of degree 0")
        if f.arity != n + c:
            raise SymmetryViolation(f"map {key} has the wrong arity")
        for s in stab_generators(self.kind, key):
            if f.precompose_slots(s).entries != f.entries:
                raise SymmetryViolation(
                    f"map {key} is not invariant under its stabilizer"
                )

    def tensor(self, key) -> dict:
        f = self.maps.get(key)
        return f.entries if f is not None else {}

    def functional(self, key) -> MultiFunctional:
        f = self.maps.get(key)
        if f is not None:
            return f
        n, c = key_arity(key), key_closed(key)
        return zero_functional(
            self.space, range(1, n + 1), degree=0,
            cspace=self.closed_space, clabels=range(1, c + 1) if c else (),
        )


def make_map(data_kind, space, closed_space, key, entries) -> MultiFunctional:
    n, c = key_arity(key), key_closed(key)
    return MultiFunctional(
        space=space, labels=tuple(range(1, n + 1)), entries=entries, degree=0,
        cspace=closed_space if data_kind == "qoc" else None,
        clabels=tuple(range(1, c + 1)) if c else (),
    )


# ---------------------------------------------------------------------------
# equivariant extension


def functional_for(data: AlgebraData, x) -> MultiFunctional:
    """Extension of the representative-keyed maps to the basis element x."""
    lo, lc = sorted(op.open_labels(x)), sorted(op.closed_labels(x))
    rho = {l: i + 1 for i, l in enumerate(lo)}
    rho_c = {l: i + 1 for i, l in enumerate(lc)}
    rep, sigma = op.canonical_perm(op.relabel(x, rho, rho_c))
    base = data.functional(key_of(data.kind, rep))
    entries = base.entries
    if sigma:
        entries = precompose_entries(entries, tuple(sigma), base.degree_table)
    return MultiFunctional._built(
        data.space, tuple(lo), entries, 0,
        data.closed_space if data.kind == "qoc" else None, tuple(lc),
    )


# ---------------------------------------------------------------------------
# generic residual through dual maps and endomorphism operations


def ft_residual(data: AlgebraData, key) -> MultiFunctional:
    """d(alpha) minus the contraction and gluing terms, at one representative."""
    check_key(data.kind, key)
    R = functional_differential(data.functional(key))
    return endo_sum_raw(R, _ft_terms(data, representative(key)))


def _ft_terms(data: AlgebraData, rep):
    """``(weight, raw term)`` for each term of the generic residual at rep:
    each contraction with weight -1 and each gluing with weight -1/2."""
    okind = OPERAD_OF[data.kind]
    colours = op.colours(data.kind)
    for colour in colours:
        if data.kind == "cyclic_ainfty":
            continue
        a, b = op.fresh_pair(rep, colour)
        for x in op.dual_contract(okind, rep, a, b, colour=colour):
            yield -1, endo_contract_raw(functional_for(data, x), a, b, colour)
    for colour in colours:
        a, b = op.fresh_pair(rep, colour)
        for x, y in op.dual_compose(okind, rep, a, b, colour=colour):
            yield -HALF, endo_compose_raw(functional_for(data, x), a,
                                          functional_for(data, y), b, colour)


# ---------------------------------------------------------------------------
# specialized residuals


def _glue_join(F, G, n1, n2, rows, table, colour="open", off=0):
    """Pairing sum of two factors glued along one end, keyed by x_o y_o x_c y_c.

    F and G are factor tensors already precomposed by their canonicalizing
    permutations, with n1 and n2 open slots besides the glued end.  That end
    is slot 0 of each factor for an open gluing and its first closed slot for
    a closed one; ``off`` is the index of the first basis vector of the glued
    colour.  Entries of F meet only the bucket of G whose glued letter has a
    nonzero pairing coefficient with theirs.
    """
    def cut(w, n):
        if colour == "open":
            return w[0], w[1 : 1 + n], w[1 + n :]
        return w[n], w[:n], w[n + 1 :]

    buckets: dict = {}
    for w2, v2 in G.items():
        e, y_o, y_c = cut(w2, n2)
        deg_yo = sum(table[k] for k in y_o)
        if colour == "closed" and (table[e] * deg_yo) % 2:
            v2 = -v2  # the closed end moves past the opens
        buckets.setdefault(e - off, []).append((y_o, y_c, deg_yo, table[e], v2))
    acc: dict = {}
    for w1, v1 in F.items():
        d, x_o, x_c = cut(w1, n1)
        deg_xo = sum(table[k] for k in x_o)
        deg_xc = sum(table[k] for k in x_c)
        if colour == "closed" and (table[d] * deg_xo) % 2:
            v1 = -v1
        for e, coeff in rows[d - off]:
            bucket = buckets.get(e)
            if bucket is None:
                continue
            v1c = coeff * v1
            for y_o, y_c, deg_yo, deg_e, v2 in bucket:
                term = v1c * v2
                if (deg_e * (deg_xo + deg_xc) + deg_yo * deg_xc) % 2:
                    term = -term
                u = x_o + y_o + x_c + y_c
                acc[u] = acc.get(u, ZERO) + term
    return acc


def _pull_back(R, acc, psi, table, scale):
    """Add scale * koszul(psi, deg w) * acc[psi . w] to R[w] for every w."""
    for w, v in precompose_entries(acc, psi, table).items():
        R[w] = R.get(w, ZERO) + scale * v


def _self_glue(R, T, at, P, table, off=0, mult=1):
    """Subtract mult * sum_{d,e} P[d][e] T(w[:at] a_d a_e w[at:]) from R[w].

    T is precomposed so that the two glued ends sit at slots at and at+1;
    moving the pair there past the first ``at`` letters gives the sign.
    """
    for W, v in T.items():
        d, e = W[at], W[at + 1]
        coeff = P[d - off][e - off]
        if not coeff:
            continue
        pre = W[:at]
        val = mult * coeff * v
        if ((table[d] + table[e]) * sum(table[k] for k in pre)) % 2:
            val = -val
        w = pre + W[at + 2 :]
        R[w] = R.get(w, ZERO) - val


def loop_residual(data: AlgebraData, n: int, genus: int) -> MultiFunctional:
    """Hand-coded form of the defining equation for symmetric maps."""
    if data.kind != "loop":
        raise KindMismatch("loop residual needs loop data")
    key = LoopKey(n, genus)
    check_key(data.kind, key)
    space = data.space
    table = space.degrees
    rows = space.pairing.rows
    R = dict(functional_differential(data.functional(key)).entries)
    if genus >= 1:
        _self_glue(R, data.tensor(LoopKey(n + 2, genus - 1)), 0,
                   space.pairing.matrix, table)
    labels = list(range(1, n + 1))
    for n1 in range(n + 1):
        n2 = n - n1
        for g1 in range(0, genus + 1):
            g2 = genus - g1
            if 2 * (g1 - 1) + n1 + 1 <= 0 or 2 * (g2 - 1) + n2 + 1 <= 0:
                continue
            # the join depends on the block sizes only, not on which labels
            acc = _glue_join(data.tensor(LoopKey(n1 + 1, g1)),
                             data.tensor(LoopKey(n2 + 1, g2)), n1, n2, rows, table)
            if not acc:
                continue
            for c1 in itertools.combinations(labels, n1):
                _pull_back(R, acc, _unshuffle_perm(labels, c1), table, -HALF)
    R = {w: v for w, v in R.items() if v}
    return make_map(data.kind, space, None, key, R)


def cyclic_residual(data: AlgebraData, n: int) -> MultiFunctional:
    """Hand-coded cyclic relation: d(f_n) = half the sum of split terms."""
    if data.kind != "cyclic_ainfty":
        raise KindMismatch("cyclic residual needs cyclic data")
    key = CyclicKey(n)
    check_key(data.kind, key)
    space = data.space
    table = space.degrees
    rows = space.pairing.rows
    R = dict(functional_differential(data.functional(key)).entries)
    for l in range(2, n - 1):
        acc = _glue_join(data.tensor(CyclicKey(l + 1)),
                         data.tensor(CyclicKey(n - l + 1)), l, n - l, rows, table)
        if not acc:
            continue
        for s in range(n):
            psi = tuple((i - s) % n for i in range(n))  # label s+k goes to slot k-1
            _pull_back(R, acc, psi, table, -HALF)
    R = {w: v for w, v in R.items() if v}
    return make_map(data.kind, space, None, key, R)


def _seq_perm(labels, seq):
    """Slot permutation sending ascending labels to their position in seq."""
    slot = {l: i for i, l in enumerate(sorted(labels))}
    return invert_perm([slot[l] for l in seq])


def _unshuffle_perm(labels, first_block):
    """Slot permutation sending the first_block labels to the leading slots."""
    first = set(first_block)
    return _seq_perm(labels, list(first_block) + [l for l in labels if l not in first])


# -- open-surface residuals (b-sequence keyed, one or two colours) ----------


def _ordered_cycle_sequence(cycles, arc, a_len):
    """Member labels listed cycle by cycle, nondecreasing lengths, with the
    glued cycle (given by its arc, the glued end omitted) leftmost among the
    cycles of its length; other cycles start at their minimum."""
    keyed = [((len(c), 0, c), c) for c in cycles]
    if a_len:
        keyed.append(((a_len, -1, ()), None))
    keyed.sort(key=lambda t: t[0])
    seq = []
    for _, c in keyed:
        seq.extend(arc if c is None else c)
    return seq


def _open_surface_residual(data: AlgebraData, key) -> MultiFunctional:
    check_key(data.kind, key)
    two = data.kind == "qoc"
    closed = range(1, key_closed(key) + 1)
    rep = representative(key)
    space = data.space
    table = space.degrees + (data.closed_space.degrees if two else ())
    P = space.pairing.matrix
    R = dict(functional_differential(data.functional(key)).entries)
    # the preimages live on [n+2] with 1 and 2 the glued ends
    shifted = tuple(tuple(l + 2 for l in c) for c in rep.cycles)
    for kept, new, empties, g, mult in op._open_contractions(
        shifted, rep.empties, rep.g, 1, 2
    ):
        x = op._make(two, kept + new, empties, g, closed)
        T = data.tensor(key_of(data.kind, x))
        if not T:
            continue
        perm = op.canonical_perm(x)[1]
        _self_glue(R, precompose_entries(T, perm, table), 0, P, table, mult=mult)
    if two:
        _closed_self_glue(data, key, table, R)
    for colour in op.colours(data.kind):
        _glue_splittings(data, key, table, R, colour)
    R = {w: v for w, v in R.items() if v}
    return make_map(data.kind, space, data.closed_space, key, R)


def quantum_residual(data: AlgebraData, bseq, g: int):
    """Hand-coded defining equation for b-sequence indexed maps."""
    if data.kind != "quantum_ainfty":
        raise KindMismatch("quantum residual needs open-surface data")
    return _open_surface_residual(data, QuantumKey(trim_bseq(bseq), g))


def qoc_residual(data: AlgebraData, key: QocKey):
    """Hand-coded defining equation for the two-coloured maps."""
    if data.kind != "qoc":
        raise KindMismatch("qoc residual needs two-coloured data")
    return _open_surface_residual(data, key)


def _closed_self_glue(data, key, table, R):
    """Contraction of two closed ends of the preimage."""
    rep = representative(key)
    if rep.g < 1:
        return
    Tc = data.tensor(QocKey(key.bseq, rep.g - 1, key_closed(key) + 2))
    _self_glue(R, Tc, key_arity(key), data.closed_space.pairing.matrix, table,
               off=data.space.dim)


def _factor(data, cycles, arc, empties, g, closed_n, colour, table):
    """One splitting factor: its stored tensor precomposed into the slot
    order of its representative, and its member labels in slot order; None
    when no map is stored for its shape.

    For an open gluing the factor gains the glued cycle, the glued end
    (open label 1) followed by ``arc``; for a closed gluing it gains the
    glued end as closed label 1.  The key follows from the shape, so a
    factor without a stored map is never built.
    """
    two = data.kind == "qoc"
    opened = colour == "open"
    if opened:
        glued, shift = ((0,) + arc,), 2  # 0 stands for the glued end
    else:
        glued, shift, closed_n = (), 1, closed_n + 1
    bseq = b_sequence(cycles + glued, empties)
    T = data.tensor(QocKey(bseq, g, closed_n) if two else QuantumKey(bseq, g))
    if not T:
        return None
    seq = _ordered_cycle_sequence(cycles, arc, len(arc) + 1 if opened else 0)
    rho = {0: 1}
    rho.update((l, i + shift) for i, l in enumerate(seq))
    y = op._make(two, tuple(tuple(rho[l] for l in c) for c in cycles + glued),
                 empties, g, range(1, closed_n + 1))
    perm = op.canonical_perm(y)[1]
    return precompose_entries(T, perm, table), seq


def _glue_splittings(data, key, table, R, colour):
    """Ordered splittings glued along an end of one colour: products of two
    maps, pulled back onto the slots of the key.  Each distinct factor is
    built once per call; the factors are not mutated by the joins."""
    rep = representative(key)
    n = key_arity(key)
    closed_labels = range(1, key_closed(key) + 1)
    if colour == "open":
        rows, off, cases = data.space.pairing.rows, 0, op._open_splittings
    else:
        rows = data.closed_space.pairing.rows
        off, cases = data.space.dim, op._closed_splittings
    built = {}

    def factor(cycles, arc, empties, g, closed_n):
        shape = (cycles, arc, empties, g, closed_n)
        if shape not in built:
            built[shape] = _factor(data, *shape, colour, table)
        return built[shape]

    for cyc1, cyc2, e1, e2, g1, arc1, arc2 in cases(rep.cycles, rep.empties, rep.g):
        for D1, D2 in op._ordered_splits(closed_labels):
            f1 = factor(cyc1, arc1, e1, g1, len(D1))
            if f1 is None:
                continue
            f2 = factor(cyc2, arc2, e2, rep.g - g1, len(D2))
            if f2 is None:
                continue
            (T1, seq1), (T2, seq2) = f1, f2
            psi = _seq_perm(range(1, n + 1), seq1 + seq2) + tuple(
                n + p for p in _unshuffle_perm(closed_labels, D1)
            )
            acc = _glue_join(T1, T2, len(seq1), len(seq2), rows, table, colour, off)
            _pull_back(R, acc, psi, table, -HALF)


# ---------------------------------------------------------------------------
# key enumeration, random data, serialization


def _partitions(n, largest=None):
    """Multisets of positive integers summing to n, as count tuples."""
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            counts = list(rest) + [0] * max(0, k - len(rest))
            counts[k - 1] += 1
            yield tuple(counts)


def enumerate_keys(kind, max_n, max_genus2):
    """All admissible representative keys within arity and genus bounds: a
    key is stable when genus2 + arity + closed ends > 2 (``key_genus2``)."""
    if kind == "loop":
        keys = [LoopKey(n, g) for n in range(max_n + 1)
                for g in range(max_genus2 // 2 + 1)]
    elif kind == "cyclic_ainfty":
        keys = [CyclicKey(n) for n in range(max_n + 1)]
    else:
        keys = set()
        for n in range(max_n + 1):
            for part in _partitions(n):
                for b0 in range(max_genus2 // 2 + 2):
                    bseq = trim_bseq((b0,) + part)
                    for g in range(max_genus2 // 4 + 1):
                        if kind != "quantum_ainfty":
                            keys.update(QocKey(bseq, g, c) for c in range(max_n + 1 - n))
                        elif bseq_boundaries(bseq):  # open surfaces need a boundary
                            keys.add(QuantumKey(bseq, g))
        keys = sorted(keys, key=repr)
    out = []
    for key in keys:
        genus2 = key_genus2(key)
        if genus2 <= max_genus2 and genus2 + key_arity(key) + key_closed(key) > 2:
            out.append(key)
    return out


def random_invariant_map(rng, data_kind, space, closed_space, key,
                         density=0.6) -> MultiFunctional:
    """Random degree-0 functional symmetrized over the stabilizer."""
    n, c = key_arity(key), key_closed(key)
    table = space.degrees + (closed_space.degrees if data_kind == "qoc" else ())
    dim = space.dim
    raw = {}
    for w in _words_for_dims(data_kind, dim, closed_space.dim if closed_space else 0,
                             n, c):
        if sum(table[k] for k in w) != 0:
            continue
        if rng.random() < density:
            num = rng.randint(-3, 3)
            if num:
                raw[w] = Fraction(num, rng.randint(1, 3))
    entries = symmetrize(raw, *stab_shape(data_kind, key),
                         tuple(d % 2 for d in table))
    return make_map(data_kind, space, closed_space, key, entries)


def _words_for_dims(kind, dim, dimc, n, c):
    if kind != "qoc":
        return itertools.product(range(dim), repeat=n)
    return (
        tuple(wo) + tuple(k + dim for k in wc)
        for wo in itertools.product(range(dim), repeat=n)
        for wc in itertools.product(range(dimc), repeat=c)
    )


def random_algebra(kind, space, max_n, max_genus2, rng, closed_space=None,
                   density=0.6) -> AlgebraData:
    maps = {}
    for key in enumerate_keys(kind, max_n, max_genus2):
        f = random_invariant_map(rng, kind, space, closed_space, key, density)
        if f.entries:
            maps[key] = f
    return AlgebraData(kind=kind, space=space, maps=maps, closed_space=closed_space)


def key_to_json(key) -> dict:
    if isinstance(key, LoopKey):
        return {"n": key.n, "genus": key.genus}
    if isinstance(key, CyclicKey):
        return {"n": key.n}
    if isinstance(key, QuantumKey):
        return {"b_sequence": list(key.bseq), "g": key.g}
    return {"b_sequence": list(key.bseq), "g": key.g, "closed": key.closed}


_KEY_FIELDS = {
    "loop": ("n", "genus"),
    "cyclic_ainfty": ("n",),
    "quantum_ainfty": ("b_sequence", "g"),
    "qoc": ("b_sequence", "g", "closed"),
}
_ALGEBRA_FIELDS = ("kind", "space", "maps", "closed_space")
_MAP_FIELDS = ("key", "entries")
_ENTRY_FIELDS = ("index", "value")


def key_from_json(kind, doc):
    _json_object(doc, _KEY_FIELDS[kind], "a key")
    if kind == "loop":
        return LoopKey(parse_int(doc["n"]), parse_int(doc["genus"]))
    if kind == "cyclic_ainfty":
        return CyclicKey(parse_int(doc["n"]))
    bseq = _json_typed(doc["b_sequence"], list, "b_sequence")
    bseq = trim_bseq([parse_int(x) for x in bseq])
    if kind == "quantum_ainfty":
        return QuantumKey(bseq, parse_int(doc["g"]))
    return QocKey(bseq, parse_int(doc["g"]), parse_int(doc["closed"]))


def algebra_to_json(data: AlgebraData) -> dict:
    doc = {
        "kind": data.kind,
        "space": space_to_json(data.space),
        "maps": [
            {
                "key": key_to_json(key),
                "entries": [
                    {"index": list(w), "value": format_rational(v)}
                    for w, v in sorted(f.entries.items())
                ],
            }
            for key, f in sorted(data.maps.items(), key=lambda kv: repr(kv[0]))
        ],
    }
    if data.closed_space is not None:
        doc["closed_space"] = space_to_json(data.closed_space)
    return doc


def algebra_from_json(doc) -> AlgebraData:
    """A mistyped or unknown field or a map key or entry index given twice
    is a ValueError."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    _json_object(doc, _ALGEBRA_FIELDS, "an algebra file")
    kind = doc["kind"]
    if kind not in ALGEBRA_KINDS:
        raise KindMismatch(f"unknown algebra kind {kind!r}")
    space = space_from_json(_json_typed(doc["space"], dict, "space"))
    closed_space = (
        space_from_json(_json_typed(doc["closed_space"], dict, "closed_space"))
        if "closed_space" in doc else None
    )
    maps = {}
    for m in _json_typed(doc.get("maps", []), list, "maps"):
        _json_object(m, _MAP_FIELDS, "a map")
        key = key_from_json(kind, m["key"])
        if key in maps:
            raise ValueError(f"map key {key_to_json(key)} is given twice")
        entries = {}
        for e in _json_typed(m["entries"], list, "entries"):
            _json_object(e, _ENTRY_FIELDS, "an entry")
            w = tuple(map(parse_int, _json_typed(e["index"], list, "index")))
            if w in entries:
                raise ValueError(f"map {key_to_json(key)}: index {list(w)} is given twice")
            entries[w] = parse_rational(e["value"])
        maps[key] = make_map(kind, space, closed_space, key, entries)
    return AlgebraData(kind=kind, space=space, maps=maps, closed_space=closed_space)


# ---------------------------------------------------------------------------
# cyclic algebras: bracket form and suspended multiplication form
#
# Each form is a sparse join: the inner factor's entries are indexed by
# the letter that meets the outer factor (its paired output slot), and
# every stored entry and cut of the outer factor looks up its partners.


def _pruned(out: dict) -> dict:
    """An arity-keyed family without zero entries or empty arities."""
    out = {n: {w: v for w, v in T.items() if v} for n, T in sorted(out.items())}
    return {n: T for n, T in out.items() if T}


def hom_bracket(F: dict, G: dict, space) -> dict:
    """Bracket of two arity-keyed families of degree-0 functionals.

    The transported commutator of the coderivations the families induce on
    the tensor coalgebra: one family is applied inside the other with the
    paired basis vectors bridging the two, plus the swap (its sign twist is
    +1 in degree 0).  With a single degree-0 cyclic family f this yields
    d(f) = [f,f]/2.
    """
    table = space.degrees
    P = space.pairing.matrix
    cols = [[(e, row[k]) for e, row in enumerate(P) if row[k]] for k in range(space.dim)]
    out: dict = {}
    for A, B in ((F, G), (G, F)):
        # A(pre (x) b_e (x) post) * B(mid (x) a_e) over each cut of A
        inner: dict = {}
        for T in B.values():
            for wB, vB in T.items():
                if vB and wB:
                    mid = wB[:-1]
                    inner.setdefault(wB[-1], []).append(
                        (mid, sum(table[k] for k in mid), vB))
        for T in A.values():
            for wA, vA in T.items():
                deg_pre = 0
                for i1 in range(len(wA) - 1):
                    k = wA[i1]
                    pre, post = wA[:i1], wA[i1 + 1 :]
                    for e, c in cols[k]:
                        for mid, deg_mid, vB in inner.get(e, ()):
                            w = pre + mid + post
                            v = c * vA * vB
                            acc = out.setdefault(len(w), {})
                            acc[w] = acc.get(w, ZERO) + (-v if (deg_pre + deg_mid) % 2 else v)
                    deg_pre += table[k]
    return _pruned(out)


def multiplication_maps(data: AlgebraData) -> dict:
    """Degree +1 maps keyed by arity, solved from f_{n+1} = omega(m_n (x) id).

    Returned as {n: {word+(k,): coefficient of a_k in m_n(a_word)}}.
    """
    if data.kind != "cyclic_ainfty":
        raise KindMismatch("multiplication maps need cyclic data")
    table = data.space.degrees
    rows = data.space.pairing.rows
    out: dict = {}
    for key in data.maps:
        m = out.setdefault(key.n - 1, {})
        for wj, v in data.tensor(key).items():
            w = wj[:-1]
            if not sum(table[k] for k in w) % 2:
                v = -v
            for k, c in rows[wj[-1]]:
                m[w + (k,)] = m.get(w + (k,), ZERO) + v * c
    return _pruned(out)


def suspended_maps(data: AlgebraData) -> dict:
    """Degree 2-n maps on the shifted space: the usual sign-twisted form."""
    base = multiplication_maps(data)
    table = data.space.degrees
    out = {}
    for n, m in base.items():
        shifted: dict = {}
        for wk, v in m.items():
            w = wk[:-1]
            # unshift the inputs right to left, shift the output
            s = sum((n - 1 - i) * (table[w[i]] + 1) for i in range(n))
            shifted[wk] = -v if s % 2 else v
        out[n] = shifted
    return out


def suspended_relation_residual(data: AlgebraData, max_n: int | None = None) -> dict:
    """Residual of the standard shifted relation with the differential as
    the arity-1 map; zero exactly when the algebra solves its equations."""
    space = data.space
    up = tuple(d + 1 for d in space.degrees)
    mprime = suspended_maps(data)
    d1 = {(col, row): c for row, line in enumerate(space.differential)
          for col, c in enumerate(line) if c}
    if d1:
        mprime[1] = d1
    if max_n is None:
        max_n = 2 * max(mprime, default=0) - 1
    by_out = {}
    for i2, inner in mprime.items():
        index = by_out[i2] = {}
        for wk, v in inner.items():
            index.setdefault(wk[-1], []).append((wk[:-1], v))
    out: dict = {}
    for n_out, outer in mprime.items():
        for i2, index in by_out.items():
            n = n_out + i2 - 1
            if n > max_n:
                continue
            acc = out.setdefault(n, {})
            for wk, v_out in outer.items():
                pre = 0
                for i1 in range(n_out):
                    # (-1)^(i1 i2 + i3) and the inner map's degree 2 - i2
                    # moving past the shifted inputs before it
                    odd = (i1 * i2 + n_out - 1 - i1 + i2 * pre) % 2
                    for inputs, v_in in index.get(wk[i1], ()):
                        w = wk[:i1] + inputs + wk[i1 + 1 :]
                        v = v_in * v_out
                        acc[w] = acc.get(w, ZERO) + (-v if odd else v)
                    pre += up[wk[i1]]
    return _pruned(out)


def family_of(data: AlgebraData) -> dict:
    """Arity-keyed entry dicts of a cyclic algebra's maps."""
    return {key.n: dict(data.tensor(key)) for key in data.maps if data.tensor(key)}
