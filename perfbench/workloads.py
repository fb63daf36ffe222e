"""The benchmark workloads and the exact correctness gate.

A workload is a ``build(seed, size)`` function that makes every input from
the seed (this is set-up, not timed) and a ``run(inputs, gate)`` function
that makes the library calls and checks each result against the library's
independent second route.  Every comparison is an exact equality of
``Fraction``s or surface objects; nothing is compared with a tolerance.

``size`` is ``"full"`` for the benchmark and ``"small"`` for the
benchmark's own tests, which need the same code paths in well under a
second.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# Library functions are called through their modules, so that the tracer's
# rebinding of the module attributes sees every call the benchmark makes.
from operad_forge import axioms, bv, endo
from operad_forge import ftalgebra as FT
from operad_forge import graded as G
from operad_forge import operads as op


class Gate:
    """Counts exact checks between two routes and the ones that failed.

    ``failed`` counts mismatches plus calls that raised; ``counts`` holds the
    named work counts (instances, keys, compared terms) that must repeat
    exactly for a fixed seed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}

    def same(self, lhs, rhs) -> bool:
        return lhs == rhs

    def check(self, what, lhs, rhs) -> None:
        self.attempted += 1
        if not self.same(lhs, rhs):
            self._fail(what)

    def zero(self, what, x: bv.BVElement) -> None:
        self.check(what, x.is_zero(), True)

    def report(self, what, checked: int, failures: list) -> None:
        """Take over a library report whose instances were checked inside."""
        self.attempted += checked
        for f in failures:
            self._fail(f"{what}: {f}")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def part(self, what, fn, *args) -> None:
        """Run one part of a workload; a call that raises is one failed op."""
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - every raise is a failed op
            self.attempted += 1
            self._fail(f"{what} raised {type(exc).__name__}: {exc}")

    def _fail(self, what) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(str(what))


# ---------------------------------------------------------------------------
# inputs shared by the algebra workloads


def _space_via_json(space):
    return G.space_from_json(json.loads(json.dumps(G.space_to_json(space))))


def _algebra_via_json(data):
    """The algebra as ``check-algebra`` loads it from a file."""
    return FT.algebra_from_json(json.loads(json.dumps(FT.algebra_to_json(data))))


def _random_algebra(rng, kind, space, max_n, max_genus2, closed=None):
    # Density 1 puts a random value on every admissible word, so the amount
    # of work depends on the bounds and hardly on the seed.
    data = FT.random_algebra(kind, space, max_n, max_genus2, rng,
                             closed_space=closed, density=1.0)
    return _algebra_via_json(data)


def _hand_residual(data, key):
    if data.kind == "loop":
        return FT.loop_residual(data, key.n, key.genus)
    if data.kind == "cyclic_ainfty":
        return FT.cyclic_residual(data, key.n)
    if data.kind == "quantum_ainfty":
        return FT.quantum_residual(data, key.bseq, key.g)
    return FT.qoc_residual(data, key)


def _seeded_labels(rng, n, spread=3):
    """n distinct positive labels drawn from 1..spread*n, in random order."""
    return rng.sample(range(1, spread * max(n, 1) + 1), n)


# ---------------------------------------------------------------------------
# axioms-relabel: all-pairs relabelling functoriality at arity 5

RELABEL_SIZES = {
    "full": (("qo", 5, 0),),
    "small": (("qo", 3, 2),),
}


def build_axioms_relabel(seed, size):
    # The axiom verifier is exhaustive within its bounds, so the bounds are
    # the whole input and the seed does not change them.
    return {"bounds": RELABEL_SIZES[size]}


def run_axioms_relabel(inputs, gate):
    for kind, max_n, max_g2 in inputs["bounds"]:
        gate.part(f"verify_axioms{(kind, max_n, max_g2)}",
                  _verify_axioms, gate, kind, max_n, max_g2)


def _verify_axioms(gate, kind, max_n, max_g2):
    rep = axioms.verify_axioms(kind, max_n, max_g2)
    gate.report(f"{kind}({max_n},{max_g2})", rep.checked, rep.failures)
    gate.count("axioms.instances", rep.checked)


# ---------------------------------------------------------------------------
# axioms-gluing: gluing and self-gluing across many corollas, plus the
# dual-map adjunction on seeded relabellings of small basis elements

GLUING_SIZES = {
    # (axiom bounds, dual bounds: (kind, max open, max closed, max genus2))
    "full": ((("qoc", 4, 5), ("qo", 4, 6)),
             (("qo", 4, 0, 4), ("qoc", 3, 2, 3))),
    "small": ((("qoc", 2, 2), ("qo", 3, 2)),
              (("qo", 2, 0, 2), ("qoc", 1, 1, 2))),
}


def build_axioms_gluing(seed, size):
    # One seeded relabelling per corolla shape; the library enumerates the
    # basis inside the timed run, so set-up fills none of its caches.
    rng = random.Random(seed)
    axiom_bounds, dual_bounds = GLUING_SIZES[size]
    shapes = []
    for kind, max_o, max_c, max_g2 in dual_bounds:
        for o in range(max_o + 1):
            for c in range(max_c + 1):
                for g2 in range(max_g2 + 1):
                    rho = dict(zip(range(1, o + 1), _seeded_labels(rng, o)))
                    rho_c = dict(zip(range(1, c + 1), _seeded_labels(rng, c)))
                    shapes.append((kind, o, c, g2, rho, rho_c))
    return {"bounds": axiom_bounds, "shapes": shapes}


def run_axioms_gluing(inputs, gate):
    for kind, max_n, max_g2 in inputs["bounds"]:
        gate.part(f"verify_axioms{(kind, max_n, max_g2)}",
                  _verify_axioms, gate, kind, max_n, max_g2)
    for shape in inputs["shapes"]:
        gate.part(f"duals {shape[:4]}", _duals_of_shape, gate, *shape)


def _duals_of_shape(gate, kind, o, c, g2, rho, rho_c):
    try:
        els = op.basis(kind, range(1, o + 1), g2, closed=range(1, c + 1))
    except op.Unstable:
        return
    for z in els:
        z = op.relabel(z, rho, rho_c) if kind == "qoc" else op.relabel(z, rho)
        _dual_adjunction(gate, kind, z)


def _dual_adjunction(gate, kind, z):
    """Oracle against formula, and every oracle term against the map."""
    for colour in ("open", "closed") if kind == "qoc" else ("open",):
        a, b = op.fresh_pair(z, colour)
        oc = op.dual_contract(kind, z, a, b, colour=colour)
        og = op.dual_compose(kind, z, a, b, colour=colour)
        gate.check(f"dual_contract {z} {colour}", oc,
                   op.dual_contract_formula(kind, z, a, b, colour=colour))
        gate.check(f"dual_compose {z} {colour}", og,
                   op.dual_compose_formula(kind, z, a, b, colour=colour))
        for x in oc:
            gate.check(f"contract {x}", op.contract(x, a, b, colour=colour), z)
        for x, y in og:
            gate.check(f"compose {x} {y}",
                       op.compose(x, a, y, b, colour=colour), z)
        gate.count("operads.dual_terms", len(oc) + len(og))


# ---------------------------------------------------------------------------
# algebra-residuals: generic against hand-coded residuals, and the signed
# axioms of the twisted endomorphism operad

RESIDUAL_SIZES = {
    # ((kind, max_n, max_genus2), ...), twisted (max_n, samples)
    "full": ((("loop", 5, 4), ("cyclic_ainfty", 5, 0),
              ("quantum_ainfty", 4, 4), ("qoc", 3, 4)), (4, 50)),
    "small": ((("loop", 2, 2), ("cyclic_ainfty", 3, 0),
               ("quantum_ainfty", 2, 2), ("qoc", 1, 2)), (3, 3)),
}


def build_algebra_residuals(seed, size):
    rng = random.Random(seed)
    bounds, twisted = RESIDUAL_SIZES[size]
    V4 = _space_via_json(G.rich_space(4, with_differential=True))
    V2 = _space_via_json(G.rich_space(2))
    algebras = []
    for kind, max_n, max_g2 in bounds:
        closed = V2 if kind == "qoc" else None
        data = _random_algebra(rng, kind, V4, max_n, max_g2, closed)
        algebras.append((data, FT.enumerate_keys(kind, max_n, max_g2)))
    return {"algebras": algebras, "twisted": (V4, *twisted, seed)}


def run_algebra_residuals(inputs, gate):
    for data, keys in inputs["algebras"]:
        for key in keys:
            gate.part(f"residual {data.kind} {key}", _residual_pair,
                      gate, data, key)
    space, max_n, samples, seed = inputs["twisted"]
    gate.part("verify_twisted_axioms", _twisted, gate, space, max_n, samples,
              seed)


def _residual_pair(gate, data, key):
    generic = FT.ft_residual(data, key)
    hand = _hand_residual(data, key)
    gate.check(f"ft_residual {data.kind} {key}", generic.entries, hand.entries)
    gate.count("ftalgebra.residual_keys")
    gate.count("ftalgebra.residual_terms", len(hand.entries))


def _twisted(gate, space, max_n, samples, seed):
    rep = endo.verify_twisted_axioms(space, max_n=max_n, samples=samples,
                                     seed=seed)
    gate.report("twisted", rep.checked, rep.failures)
    gate.count("endo.twisted_instances", rep.checked)


# ---------------------------------------------------------------------------
# bv-master: master equation against the residual family, BV identities,
# the quadratic substitution and the block-indexed relation

BV_SIZES = {
    "full": {
        "master": (("loop", 4, 4), ("cyclic_ainfty", 5, 0),
                   ("quantum_ainfty", 4, 4)),
        # (kind, max_n, max_genus2, two-coloured, number of triples)
        "triples": (("loop", 3, 4, False, 2), ("cyclic_ainfty", 4, 0, False, 2),
                    ("quantum_ainfty", 3, 2, False, 4), ("qoc", 2, 2, True, 2)),
        "sprime": (4, 4),
        # (max_n, max_genus2, longest argument word checked)
        "herbst": (4, 4, 4),
    },
    "small": {
        "master": (("loop", 2, 2), ("cyclic_ainfty", 3, 0),
                   ("quantum_ainfty", 2, 2)),
        "triples": (("loop", 2, 2, False, 1), ("cyclic_ainfty", 3, 0, False, 1),
                    ("quantum_ainfty", 2, 2, False, 1), ("qoc", 1, 2, True, 1)),
        "sprime": (2, 2),
        "herbst": (3, 2, 2),
    },
}


def build_bv_master(seed, size):
    rng = random.Random(seed)
    sizes = BV_SIZES[size]
    V4 = _space_via_json(G.rich_space(4, with_differential=True))
    V4_flat = _space_via_json(G.rich_space(4))  # the block form needs d = 0
    V2 = _space_via_json(G.rich_space(2))
    master = [(_random_algebra(rng, kind, V4, mn, mg), mn, mg)
              for kind, mn, mg in sizes["master"]]
    triples = []
    for kind, mn, mg, two, count in sizes["triples"]:
        cspace = V2 if two else None
        keys = FT.enumerate_keys(kind, mn, mg)
        # Fixed parities keep the amount of work the same for every seed;
        # (1, 0, 1) exercises both signs of the graded Jacobi identity.
        parities = (1, 0, 1)
        for _ in range(count):
            elements = tuple(
                bv.random_bv_element(rng, kind, V2, cspace, keys, parity=p,
                                     density=1.0)
                for p in parities
            )
            triples.append((kind, parities, elements))
    mn, mg = sizes["sprime"]
    sprime = _random_algebra(rng, "loop", V4, mn, mg)
    mn, mg, max_word = sizes["herbst"]
    maps = {}
    for key in FT.enumerate_keys("quantum_ainfty", mn, mg):
        if key.bseq[0] > 0:
            continue  # the block-indexed form needs no empty-boundary maps
        f = FT.random_invariant_map(rng, "quantum_ainfty", V4_flat, None, key,
                                    density=1.0)
        if f.entries:
            maps[key] = f
    herbst = _algebra_via_json(
        FT.AlgebraData(kind="quantum_ainfty", space=V4_flat, maps=maps))
    return {"master": master, "triples": triples, "sprime": sprime,
            "herbst": (herbst, mn, mg, max_word)}


def run_bv_master(inputs, gate):
    for data, mn, mg in inputs["master"]:
        gate.part(f"master {data.kind}", _master, gate, data, mn, mg)
    for kind, parities, elements in inputs["triples"]:
        gate.part(f"identities {kind}", _identities, gate, kind, parities,
                  elements)
    gate.part("s_prime", _sprime, gate, inputs["sprime"])
    gate.part("herbst", _herbst, gate, *inputs["herbst"])


def _master(gate, data, mn, mg):
    S = bv.generating_function(data)
    M = bv.master_residual(S)
    fam = {k: FT.ft_residual(data, k).entries
           for k in FT.enumerate_keys(data.kind, mn, mg)}
    X = bv.series_from_maps(data.kind, data.space, None, fam)
    for key in sorted(set(M.terms) | set(X.terms), key=repr):
        if FT.key_arity(key) > mn or FT.key_genus2(key) > mg:
            continue
        gate.check(f"master {data.kind} {key}", M.component(key),
                   X.component(key))
        gate.count("bv.master_components")


def _sign(odd):
    return -1 if odd % 2 else 1


def _identities(gate, kind, parities, elements):
    """Squares, graded Jacobi and the derivation rules, each exactly zero."""
    pa, pb, pc = parities
    a, b, c = elements
    gate.zero(f"d^2 {kind}", bv.bv_diff(bv.bv_diff(a)))
    ops = [bv.bv_diff]
    if kind != "cyclic_ainfty":
        gate.zero(f"delta^2 {kind}", bv.bv_delta(bv.bv_delta(a)))
        gate.zero(f"[d, delta] {kind}", bv.bv_diff(bv.bv_delta(a)).plus(
            bv.bv_delta(bv.bv_diff(a))))
        ops.append(bv.bv_delta)
    j = bv.bv_bracket(bv.bv_bracket(a, b), c)
    j = j.plus(bv.bv_bracket(bv.bv_bracket(c, a), b).scaled(_sign(pc * (pa + pb))))
    j = j.plus(bv.bv_bracket(bv.bv_bracket(b, c), a).scaled(_sign(pa * (pb + pc))))
    gate.zero(f"jacobi {kind}", j)
    for operation in ops:
        t = operation(bv.bv_bracket(a, b))
        t = t.plus(bv.bv_bracket(operation(a), b))
        t = t.plus(bv.bv_bracket(a, operation(b)).scaled(_sign(pa)))
        gate.zero(f"derivation {operation.__name__} {kind}", t)


def _sprime(gate, data):
    S = bv.generating_function(data)
    Sp = bv.s_prime(S)
    lhs = bv.bv_delta(Sp).plus(bv.bv_bracket(Sp, Sp).scaled(Fraction(1, 2)))
    gate.check("s_prime", lhs.minus(bv.master_residual(S)).is_zero(), True)


def _herbst(gate, data, mn, mg, max_word):
    dim = data.space.dim
    for key in FT.enumerate_keys("quantum_ainfty", mn, mg):
        n = FT.key_arity(key)
        if key.bseq[0] > 0 or n > max_word:
            continue
        qres = FT.quantum_residual(data, key.bseq, key.g)
        for w in itertools.product(range(dim), repeat=n):
            # one half per vertex scales the relation by four
            gate.check(f"herbst {key} {w}",
                       4 * bv.herbst_residual(data, key.bseq, key.g, w),
                       qres.entries.get(w, Fraction(0)))
            gate.count("bv.herbst_words")


BUILD = {
    "axioms-relabel": build_axioms_relabel,
    "axioms-gluing": build_axioms_gluing,
    "algebra-residuals": build_algebra_residuals,
    "bv-master": build_bv_master,
}
RUN = {
    "axioms-relabel": run_axioms_relabel,
    "axioms-gluing": run_axioms_gluing,
    "algebra-residuals": run_algebra_residuals,
    "bv-master": run_bv_master,
}
