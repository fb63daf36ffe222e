"""Exact dg symplectic linear algebra over the rationals.

A :class:`GradedSymplecticSpace` is a finite homogeneous basis with integer
degrees, a degree +1 differential and a nondegenerate degree -1 pairing.
Multilinear functionals on (unordered) tensor powers are stored as sparse
rational tensors together with the ascending slot assignment of their
labels; every other slot assignment is reached through Koszul-signed
permutations.

Matrix conventions: ``differential[i][j]`` is the coefficient of basis
vector ``i`` in ``d(a_j)``; ``omega[i][j] = omega(a_i, a_j)``.

Each space keeps its inverse pairing in one ``pairing`` record, computed
on first use and held by the space object: the ``contraction_pair``
matrix, its nonzero rows, and both again as integer numerators over the
lcm of their denominators.  Every gluing reads it there.  A space whose
omega is singular still constructs, so ``validate_space`` can report it;
reading its ``pairing`` raises ``SingularOmega``.  The nonzero entries of
each row of the differential are kept the same way, as
``differential_rows``, for the Leibniz sum of ``functional_differential``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from ._kernels import (
    apply_perm_to_word,
    koszul_sign,
    lcm_of_denominators,
    precompose_entries,
)
from .errors import LabelMismatch, SingularOmega

__all__ = [
    "GradedSymplecticSpace",
    "Pairing",
    "ContractionPair",
    "MultiFunctional",
    "validate_space",
    "contraction_pair",
    "eval_via_iota",
    "functional_differential",
    "parse_int",
    "parse_rational",
    "format_rational",
    "space_to_json",
    "space_from_json",
    "canonical_space",
]

ZERO = Fraction(0)


def parse_int(value) -> int:
    """An integer field of an input file; floats and booleans are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def parse_rational(text) -> Fraction:
    """A rational field of an input file; booleans are rejected."""
    if isinstance(text, bool):
        raise ValueError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def invert_matrix(m: Sequence[Sequence[Fraction]]):
    """Exact Gauss-Jordan inverse; returns None when singular."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class Pairing(NamedTuple):
    """The inverse pairing of a space: ``matrix`` holds the coefficients of
    ``contraction_pair``, ``rows`` the nonzero (column, coefficient)s of
    each of its rows, and ``int_matrix`` and ``int_rows`` the same values as
    integer numerators over ``den``, the lcm of their denominators."""

    matrix: tuple
    rows: tuple
    int_matrix: tuple
    int_rows: tuple
    den: int


def _nonzero_rows(matrix) -> tuple:
    return tuple(tuple((e, c) for e, c in enumerate(row) if c) for row in matrix)


@dataclass(frozen=True)
class GradedSymplecticSpace:
    """A homogeneous basis with its degrees, differential and pairing.

    Two views are computed on first use and kept on the object: the
    inverse pairing record ``pairing`` and ``differential_rows``, the
    nonzero (column, coefficient)s of each row of ``differential``.  The
    fields are never changed after construction, so neither goes stale.
    """

    basis_names: tuple
    degrees: tuple
    differential: tuple
    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "differential", _as_matrix(self.differential))
        object.__setattr__(self, "omega", _as_matrix(self.omega))

    @property
    def dim(self) -> int:
        return len(self.degrees)

    @cached_property
    def pairing(self) -> Pairing:
        """The inverse pairing, computed on first use and kept on this object;
        raises ``SingularOmega`` when omega is singular."""
        matrix = contraction_pair(self).coefficients
        den = lcm_of_denominators(c for row in matrix for c in row)
        int_matrix = tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                           for row in matrix)
        return Pairing(matrix, _nonzero_rows(matrix), int_matrix,
                       _nonzero_rows(int_matrix), den)

    @cached_property
    def differential_rows(self) -> tuple:
        """Per basis vector i, the (j, differential[i][j]) that are nonzero:
        the vectors whose image under d has a component along a_i."""
        return _nonzero_rows(self.differential)


def validate_space(space: GradedSymplecticSpace) -> list[str]:
    """All structural invariants, exactly; returns human-readable violations."""
    out = []
    n = space.dim
    if len(space.basis_names) != n or len(space.differential) != n or len(space.omega) != n:
        out.append("basis, degree and matrix sizes disagree")
        return out
    if any(len(row) != n for row in space.differential) or any(
        len(row) != n for row in space.omega
    ):
        out.append("matrices are not square")
        return out
    if n % 2 != 0:
        out.append("dimension is odd")
    deg = space.degrees
    for i in range(n):
        for j in range(n):
            if space.differential[i][j] != 0 and deg[i] != deg[j] + 1:
                out.append(f"differential entry ({i},{j}) is not of degree +1")
            if space.omega[i][j] != 0 and deg[i] + deg[j] != 1:
                out.append(f"degree of omega violated at ({i},{j})")
            if space.omega[i][j] != -space.omega[j][i]:
                out.append(f"omega not antisymmetric at ({i},{j})")
    # d^2 = 0
    for i in range(n):
        for j in range(n):
            acc = sum(space.differential[i][k] * space.differential[k][j] for k in range(n))
            if acc != 0:
                out.append("differential squares to zero violated")
                break
        else:
            continue
        break
    # omega(d x, y) + (-1)^{|x|} omega(x, d y) = 0
    for i in range(n):
        for j in range(n):
            acc = sum(space.differential[k][i] * space.omega[k][j] for k in range(n))
            sgn = -1 if deg[i] % 2 else 1
            acc += sgn * sum(
                space.differential[k][j] * space.omega[i][k] for k in range(n)
            )
            if acc != 0:
                out.append(f"omega is not closed under d at ({i},{j})")
    if invert_matrix(space.omega) is None:
        out.append("omega is singular")
    return sorted(set(out))


@dataclass(frozen=True)
class ContractionPair:
    """Bases a_i, b_i with sum_i a_i (x) b_i inverse to the pairing."""

    coefficients: tuple  # coefficients[i][j]: b_i = sum_j coefficients[i][j] a_j


def contraction_pair(space: GradedSymplecticSpace) -> ContractionPair:
    inv = invert_matrix(space.omega)
    if inv is None:
        raise SingularOmega("pairing matrix is singular")
    n = space.dim
    coeff = tuple(
        tuple((-1 if space.degrees[j] % 2 else 1) * inv[i][j] for j in range(n)) for i in range(n)
    )
    return ContractionPair(coefficients=coeff)


@dataclass(frozen=True)
class MultiFunctional:
    """Rational multilinear functional with an ascending slot assignment.

    ``labels`` are the open labels, ``clabels`` the closed ones (empty for
    one colour); slot order is open ascending then closed ascending.  Words
    index the combined basis: closed indices are offset by dim(space).
    """

    space: GradedSymplecticSpace
    labels: tuple
    entries: dict
    degree: Optional[int] = 0
    cspace: Optional[GradedSymplecticSpace] = None
    clabels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        object.__setattr__(self, "clabels", tuple(sorted(self.clabels)))
        object.__setattr__(self, "entries", {
            w: v if type(v) is Fraction else Fraction(v)
            for w, v in self.entries.items() if v
        })

    @property
    def arity(self) -> int:
        return len(self.labels) + len(self.clabels)

    @property
    def degree_table(self) -> tuple:
        if self.cspace is None:
            return self.space.degrees
        return self.space.degrees + self.cspace.degrees

    def is_zero(self) -> bool:
        return not self.entries

    def check_homogeneous(self) -> bool:
        table = self.degree_table
        return all(
            -sum(table[k] for k in w) == self.degree for w in self.entries
        )

    def value(self, word) -> Fraction:
        return self.entries.get(tuple(word), ZERO)

    @staticmethod
    def _built(space, labels: tuple, entries: dict, degree, cspace,
               clabels: tuple) -> "MultiFunctional":
        """A functional from fields that are normalized already: ascending
        label tuples and nonzero ``Fraction`` entries.  ``__post_init__`` does
        not run, so the labels are not sorted and the entries not copied."""
        out = object.__new__(MultiFunctional)
        # field by field, in field order, so the instance keeps its compact
        # shared-key attribute storage
        for name, value in (("space", space), ("labels", labels),
                            ("entries", entries), ("degree", degree),
                            ("cspace", cspace), ("clabels", clabels)):
            object.__setattr__(out, name, value)
        return out

    def _derived(self, entries: dict, degree) -> "MultiFunctional":
        """This functional's spaces and labels with ``entries``, which must be
        nonzero ``Fraction``s, and ``degree``; see ``_built``."""
        return self._built(self.space, self.labels, entries, degree,
                           self.cspace, self.clabels)

    def scaled(self, c) -> "MultiFunctional":
        c = Fraction(c)
        if not c:
            return self._derived({}, self.degree)
        return self._derived({w: c * v for w, v in self.entries.items()}, self.degree)

    def plus(self, other: "MultiFunctional") -> "MultiFunctional":
        return self._sum(other, False)

    def minus(self, other: "MultiFunctional") -> "MultiFunctional":
        return self._sum(other, True)

    def _sum(self, other, negate) -> "MultiFunctional":
        """self + other, or self - other; the degree is other's when self has
        no entries."""
        if (self.labels, self.clabels) != (other.labels, other.clabels):
            raise LabelMismatch("functionals over different label sets")
        entries = dict(self.entries)
        get = entries.get
        for w, v in other.entries.items():
            v = get(w, ZERO) - v if negate else get(w, ZERO) + v
            if v:
                entries[w] = v
            else:
                entries.pop(w, None)
        return self._derived(entries, self.degree if self.entries else other.degree)

    def precompose_slots(self, perm) -> "MultiFunctional":
        """The functional T o perm on the same label set."""
        return self._derived(
            precompose_entries(self.entries, tuple(perm), self.degree_table),
            self.degree,
        )

    def same_entries(self, other: "MultiFunctional") -> bool:
        return self.entries == other.entries


def zero_functional(space, labels, degree=None, cspace=None, clabels=()):
    return MultiFunctional(
        space=space, labels=tuple(labels), entries={}, degree=degree, cspace=cspace,
        clabels=tuple(clabels),
    )


def eval_via_iota(f: MultiFunctional, psi: dict, word) -> Fraction:
    """Evaluate f through the slot assignment psi (labels -> 1..n).

    ``word`` lists basis indices in psi order; the stored ascending
    assignment is reached by a Koszul-signed slot permutation.
    """
    n = f.arity
    all_labels = f.labels + f.clabels
    if sorted(psi) != sorted(all_labels) or sorted(psi.values()) != list(range(1, n + 1)):
        raise LabelMismatch("psi is not a bijection from the labels onto [n]")
    word = tuple(word)
    # tau = psi0 o psi^{-1} as a slot permutation: slot psi(l)-1 -> slot0(l)
    tau = [0] * n
    for label in f.labels:
        tau[psi[label] - 1] = f.labels.index(label)
    for label in f.clabels:
        tau[psi[label] - 1] = len(f.labels) + f.clabels.index(label)
    tau = tuple(tau)
    table = f.degree_table
    sign = koszul_sign(tau, tuple(table[k] for k in word))
    return sign * f.value(apply_perm_to_word(tau, word))


def functional_differential(f: MultiFunctional) -> MultiFunctional:
    """Signed Leibniz sum over slots; raises the degree by one.  Each letter
    meets only the nonzero entries of its row, from its space's
    ``differential_rows``."""
    table = f.degree_table
    no, nc = len(f.labels), len(f.clabels)
    rows = [f.space.differential_rows] * no
    offs = [0] * no
    if nc:
        rows += [f.cspace.differential_rows] * nc
        offs += [f.space.dim] * nc
    entries: dict = {}
    get = entries.get
    for w, v in f.entries.items():
        parity = sum(table[k] for k in w) % 2
        base = -v if parity else v  # (-1)^{|f|} with |f| = -deg(word)
        prefix = 0
        for slot, k in enumerate(w):
            off = offs[slot]
            sgn = -base if prefix % 2 else base
            for j, c in rows[slot][k - off]:
                nw = w[:slot] + (j + off,) + w[slot + 1 :]
                entries[nw] = get(nw, ZERO) + sgn * c
            prefix += table[k]
    entries = {w: v for w, v in entries.items() if v}
    degree = None if f.degree is None else f.degree + 1
    return f._derived(entries, degree)


def random_functional(rng, space, labels, degree=0, cspace=None, clabels=(),
                      density=0.7, max_num=3):
    """Random homogeneous functional for property tests."""
    import itertools

    labels = tuple(sorted(labels))
    clabels = tuple(sorted(clabels))
    table = space.degrees + (cspace.degrees if cspace is not None else ())
    no, nc = len(labels), len(clabels)
    entries = {}
    ranges = [range(space.dim)] * no + [
        range(space.dim, space.dim + cspace.dim) if cspace is not None else range(0)
    ] * nc
    for w in itertools.product(*ranges):
        if -sum(table[k] for k in w) != degree:
            continue
        if rng.random() < density:
            num = rng.randint(-max_num, max_num)
            den = rng.randint(1, max_num)
            if num:
                entries[w] = Fraction(num, den)
    return MultiFunctional(
        space=space, labels=labels, entries=entries, degree=degree,
        cspace=cspace, clabels=clabels,
    )


def space_to_json(space: GradedSymplecticSpace) -> dict:
    return {
        "basis": [
            {"name": str(n), "degree": d}
            for n, d in zip(space.basis_names, space.degrees)
        ],
        "omega": [[format_rational(x) for x in row] for row in space.omega],
        "differential": [
            [format_rational(x) for x in row] for row in space.differential
        ],
    }


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _json_typed(value, kind, field):
    """``value`` if it has the JSON type ``kind``, else a ``ValueError``
    naming ``field``: a mistyped field is malformed input, not a TypeError."""
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be {_JSON_TYPES[kind]}")
    return value


def _json_object(value, known, field):
    """``value`` if it is an object with no field outside ``known``, else a
    ``ValueError`` naming ``field`` or the first unknown field: a
    misspelled field is malformed input, not a field to skip."""
    for name in _json_typed(value, dict, field):
        if name not in known:
            raise ValueError(f"unknown field {name!r} in {field}")
    return value


def _matrix_from_json(rows, field):
    return [[parse_rational(x) for x in _json_typed(row, list, f"a row of {field}")]
            for row in _json_typed(rows, list, field)]


def space_from_json(doc) -> GradedSymplecticSpace:
    if isinstance(doc, str):
        doc = json.loads(doc)
    _json_typed(doc, dict, "a space")
    basis = [_json_typed(b, dict, "a basis entry")
             for b in _json_typed(doc["basis"], list, "basis")]
    names = tuple(_json_typed(b["name"], str, "a basis name") for b in basis)
    degrees = tuple(parse_int(b["degree"]) for b in basis)
    omega = _matrix_from_json(doc["omega"], "omega")
    diff = _matrix_from_json(doc["differential"], "differential")
    return GradedSymplecticSpace(
        basis_names=names, degrees=degrees, differential=diff, omega=omega
    )


def canonical_space(dim: int = 2, with_differential: bool = False) -> GradedSymplecticSpace:
    """Block sums of the odd symplectic pair (degrees 0 and 1)."""
    if dim <= 0 or dim % 2:
        raise ValueError(f"the dimension must be positive and even, not {dim}")
    half = dim // 2
    names, degrees = [], []
    for k in range(half):
        names += [f"e{k}", f"o{k}"]
        degrees += [0, 1]
    omega = [[ZERO] * dim for _ in range(dim)]
    for k in range(half):
        omega[2 * k][2 * k + 1] = Fraction(1)
        omega[2 * k + 1][2 * k] = Fraction(-1)
    diff = [[ZERO] * dim for _ in range(dim)]
    if with_differential:
        # d(e0) = o0 is degree +1, closed under omega, squares to zero
        diff[1][0] = Fraction(1)
    return GradedSymplecticSpace(
        basis_names=names, degrees=degrees, differential=diff, omega=omega
    )


def block_space(pair_degrees, diff: dict | None = None) -> GradedSymplecticSpace:
    """Space assembled from pairing blocks.

    Each entry k of ``pair_degrees`` contributes two basis vectors of
    degrees (k, 1-k) paired to 1; ``diff`` lists differential entries
    {(row, col): value} for d(a_col) = sum value * a_row.
    """
    degrees = []
    names = []
    for i, k in enumerate(pair_degrees):
        degrees += [k, 1 - k]
        names += [f"u{i}", f"v{i}"]
    dim = len(degrees)
    omega = [[ZERO] * dim for _ in range(dim)]
    for i in range(len(pair_degrees)):
        omega[2 * i][2 * i + 1] = Fraction(1)
        omega[2 * i + 1][2 * i] = Fraction(-1)
    dmat = [[ZERO] * dim for _ in range(dim)]
    for (row, col), val in (diff or {}).items():
        dmat[row][col] = Fraction(val)
    space = GradedSymplecticSpace(
        basis_names=names, degrees=degrees, differential=dmat, omega=omega
    )
    bad = validate_space(space)
    if bad:
        raise ValueError("invalid block space: " + "; ".join(bad))
    return space


def rich_space(dim: int = 2, with_differential: bool = False) -> GradedSymplecticSpace:
    """Mixed-degree spaces whose degree-0 functionals are not concentrated
    on a single word; at dim 4 the differential can be nonzero."""
    if dim == 2:
        return block_space([-1])
    if dim == 4:
        # d(a_1) = a_3 and d(a_2) = a_0 close omega and square to zero
        diff = {(3, 1): 1, (0, 2): 1} if with_differential else None
        return block_space([0, -1], diff)
    raise ValueError("rich spaces exist at dimensions 2 and 4")
