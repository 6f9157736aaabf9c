"""Formula layer tests.

The oracles here are deliberately naive: truth by enumerating every ground
state of a small universe, and satisfiability by enumerating every domain
size up to a bound and every state over it.  Expected values for the pinned
cases below were computed with these oracles and then frozen.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

import state_reference as reference
from bdd_reference import reference_simplify_bdd
from checker_reference import ReferenceChecker, every_grounding, reference_ground_expand
from fomdp.logic import (
    FALSE,
    TRUE,
    And,
    ArityError,
    Atom,
    ActTerm,
    Bool,
    ConsistencyBound,
    ConsistencyChecker,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    Implies,
    LogicError,
    Not,
    Obj,
    Or,
    StateIndex,
    UnboundVariableError,
    Universe,
    Var,
    _GroundDag,
    _ground_plan,
    _scan_types,
    compile_query,
    disjoint_regions,
    eval_in_state,
    format_formula,
    free_vars,
    implicit_close,
    make_state,
    normalize,
    objects_in,
    parse_formula,
    push_quantifiers,
    replace_objects,
    satisfying_bindings,
    simplify_bdd,
    substitute,
)

# ---------------------------------------------------------------------------
# oracles


def ground_atoms(preds: dict, pool: list) -> list:
    out = []
    for pred in sorted(preds):
        for combo in itertools.product(pool, repeat=preds[pred]):
            out.append((pred, *combo))
    return out


def all_states(preds: dict, pool: list):
    uni = Universe.of({None: pool})
    atoms = ground_atoms(preds, pool)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        yield make_state([a for a, b in zip(atoms, bits) if b], uni)


def oracle_consistent(f: Formula, preds: dict, bound: int) -> bool:
    """Model with at most `bound` objects, by exhaustive enumeration."""
    names = sorted(objects_in(f))
    closed = implicit_close(f)
    lo = max(1, len(names))
    for k in range(lo, max(bound, lo) + 1):
        pool = names + [f"w{i}" for i in range(1, k - len(names) + 1)]
        for state in all_states(preds, pool):
            if eval_in_state(closed, state):
                return True
    return False


def oracle_equivalent(f: Formula, g: Formula, preds: dict, bound: int) -> bool:
    """No state over any domain of size <= bound distinguishes f and g.

    Named objects always belong to the domain; a universe lacking a named
    object is not a model of a formula that mentions it.
    """
    fv = sorted(free_vars(f) | free_vars(g))
    names = sorted(objects_in(f) | objects_in(g))
    lo = max(1, len(names))
    for k in range(lo, max(bound, lo) + 1):
        pool = names + [f"w{i}" for i in range(1, k - len(names) + 1)]
        for state in all_states(preds, pool):
            for combo in itertools.product(pool, repeat=len(fv)):
                b = dict(zip(fv, combo))
                if eval_in_state(f, state, b) != eval_in_state(g, state, b):
                    return False
    return True


# ---------------------------------------------------------------------------
# corpus


def random_formula(rng: random.Random, depth: int, scope: tuple) -> Formula:
    """Random state formula over preds P/1, Q/2, R/0 and objects a, b."""
    leafy = depth <= 0 or rng.random() < 0.3
    if leafy:
        kind = rng.choice(["P", "Q", "R", "eq", "bool"])
        def term():
            if scope and rng.random() < 0.8:
                return Var(rng.choice(scope))
            return Obj(rng.choice(["a", "b"]))
        if kind == "P":
            return Atom("P", (term(),))
        if kind == "Q":
            return Atom("Q", (term(), term()))
        if kind == "R":
            return Atom("R")
        if kind == "eq":
            return Eq(term(), term())
        return TRUE if rng.random() < 0.5 else FALSE
    kind = rng.choice(["not", "and", "or", "implies", "exists", "forall"])
    if kind == "not":
        return Not(random_formula(rng, depth - 1, scope))
    if kind in ("and", "or"):
        n = rng.randint(2, 3)
        parts = tuple(random_formula(rng, depth - 1, scope) for _ in range(n))
        return And(parts) if kind == "and" else Or(parts)
    if kind == "implies":
        return Implies(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    var = f"x{len(scope)}"
    cls = Exists if kind == "exists" else Forall
    return cls(var, None, random_formula(rng, depth - 1, scope + (var,)))


PREDS = {"P": 1, "Q": 2, "R": 0}


def corpus(n: int = 40, depth: int = 3, seed: int = 7) -> list:
    rng = random.Random(seed)
    fixed = [
        parse_formula("P(x) & !P(x)"),
        parse_formula("exists x. P(x) | !P(x)"),
        parse_formula("forall x. (P(x) -> exists y. Q(x, y))"),
        parse_formula("exists x, y. Q(x, y) & x != y"),
        parse_formula("(forall x. P(x)) & (exists x. !P(x))"),
        parse_formula("R -> R"),
        parse_formula("exists x. x = a & P(x)", objects=["a"]),
        parse_formula("forall x. x != a | P(x)", objects=["a"]),
        parse_formula("a != b", objects=["a", "b"]),
        parse_formula("exists x. Q(x, x)"),
        parse_formula("!(exists x. P(x)) & Q(a, b)", objects=["a", "b"]),
        parse_formula("(P(x) | Q(x, y)) & (P(x) | !Q(x, y))"),
    ]
    return fixed + [random_formula(rng, depth, ()) for _ in range(n)]


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_examples():
    f = parse_formula("exists c. TAt(t, c)")
    assert f == Exists("c", None, Atom("TAt", (Var("t"), Var("c"))))
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_parse_precedence():
    f = parse_formula("!P & Q | R -> S")
    assert f == Implies(Or((And((Not(Atom("P")), Atom("Q"))), Atom("R"))), Atom("S"))


def test_parse_quantifier_scope_maximal():
    f = parse_formula("exists x. P(x) & Q(x, x)")
    assert f == Exists("x", None, And((Atom("P", (Var("x"),)), Atom("Q", (Var("x"), Var("x"))))))


def test_parse_typed_and_multi_binders():
    f = parse_formula("forall b:Box, c:City. P(b) -> Q(b, c)")
    assert f == Forall("b", "Box", Forall("c", "City", Implies(Atom("P", (Var("b"),)), Atom("Q", (Var("b"), Var("c"))))))


def test_parse_neq_sugar():
    f = parse_formula("x != y")
    assert f == Not(Eq(Var("x"), Var("y")))


def test_parse_objects_and_action_names():
    f = parse_formula("P(a) & x = load(b)", objects=["a", "b"], act_names=["load"])
    assert f == And((Atom("P", (Obj("a"),)), Eq(Var("x"), ActTerm("load", (Obj("b"),)))))
    g = parse_formula("a = noop", act_names=["noop", "a"])
    assert g == Eq(ActTerm("a"), ActTerm("noop"))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(P & Q")
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P &")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists . P")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P Q")


def test_parse_arity_checks():
    with pytest.raises(ArityError):
        parse_formula("P(x) & P(x, y)")
    with pytest.raises(ArityError):
        parse_formula("P(x, y)", signature={"P": ("t",)})
    with pytest.raises(ArityError):
        parse_formula("S(x)", signature={"P": ("t",)})


def test_roundtrip_corpus():
    for f in corpus(60, 4):
        text = format_formula(f)
        g = parse_formula(text, objects=["a", "b"])
        assert g == f, text


def test_roundtrip_action_terms():
    f = Eq(ActTerm("drive", (Var("t"), Obj("c1"))), ActTerm("noop"))
    text = format_formula(f)
    assert parse_formula(text, objects=["c1"], act_names=["drive", "noop"]) == f


# ---------------------------------------------------------------------------
# normalization


def test_normalize_commutativity():
    p, q = Atom("P"), Atom("Q")
    assert normalize(And((p, q))) == normalize(And((q, p)))


def test_normalize_double_negation():
    assert normalize(Not(Not(Atom("P")))) == Atom("P")


def test_normalize_alpha_equivalence():
    f = parse_formula("exists x. P(x)")
    g = parse_formula("exists y. P(y)")
    assert normalize(f) == normalize(g)


def test_normalize_idempotent_on_corpus():
    for f in corpus(60, 4):
        n1 = normalize(f)
        assert normalize(n1) == n1


def test_normalize_preserves_truth():
    pool = ["a", "b"]  # corpus objects must belong to the universe
    for f in corpus(25, 3):
        g = normalize(f)
        fv = sorted(free_vars(f))
        for state in all_states(PREDS, pool):
            for combo in itertools.product(pool, repeat=len(fv)):
                b = dict(zip(fv, combo))
                assert eval_in_state(f, state, b) == eval_in_state(g, state, b)


def test_normalize_trivial_equalities():
    assert normalize(Eq(Var("x"), Var("x"))) == TRUE
    assert normalize(Eq(Obj("a"), Obj("b"))) == FALSE
    assert normalize(Eq(Obj("a"), Obj("a"))) == TRUE


def test_normalize_complementary_literals():
    p = Atom("P", (Var("x"),))
    assert normalize(And((p, Not(p)))) == FALSE
    assert normalize(Or((p, Not(p)))) == TRUE


def test_normalize_drops_vacuous_quantifier():
    f = Exists("x", None, Atom("R"))
    assert normalize(f) == Atom("R")


def test_substitute_capture_avoiding():
    # substituting y for x must not capture the bound y
    f = Exists("y", None, Atom("Q", (Var("x"), Var("y"))))
    g = substitute(f, {"x": Var("y")})
    assert isinstance(g, Exists) and g.var != "y"
    assert normalize(g) != normalize(Exists("y", None, Atom("Q", (Var("y"), Var("y")))))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    uni = Universe.of({None: ["a", "b"]})
    state = make_state([("P", "a")], uni)
    assert satisfying_bindings(Atom("P", (Var("x"),)), state, [("x", None)]) == [{"x": "a"}]
    assert eval_in_state(parse_formula("forall x. P(x)"), state) is False
    empty = make_state([], uni)
    assert eval_in_state(parse_formula("(exists x. P(x)) | !(exists x. P(x))"), empty) is True


def test_eval_unbound_variable():
    uni = Universe.of({None: ["a"]})
    state = make_state([], uni)
    with pytest.raises(Exception):
        eval_in_state(Atom("P", (Var("x"),)), state)


def test_bad_formulas_raise_whatever_the_state():
    """An unbound variable or an action term raises even behind a true disjunct."""
    uni = Universe.of({None: ["a"]})
    for state in (make_state([], uni), make_state([("P",)], uni)):
        with pytest.raises(UnboundVariableError):
            eval_in_state(parse_formula("P | Q(x)"), state)
        with pytest.raises(UnboundVariableError):
            satisfying_bindings(parse_formula("P | Q(x, y)"), state, [("x", None)])
        with pytest.raises(LogicError, match="action term"):
            eval_in_state(parse_formula("P | flipS = flipS", act_names=["flipS"]), state)


def test_bindings_match_brute_force():
    pool = ["a", "b", "c"]
    uni = Universe.of({None: pool})
    rng = random.Random(3)
    for f in [random_formula(rng, 2, ("x", "y")) for _ in range(15)]:
        atoms = ground_atoms(PREDS, pool)
        chosen = [a for a in atoms if rng.random() < 0.4]
        state = make_state(chosen, uni)
        got = satisfying_bindings(f, state, [("x", None), ("y", None)])
        want = [
            {"x": x, "y": y}
            for x in pool
            for y in pool
            if eval_in_state(f, state, {"x": x, "y": y})
        ]
        assert got == want


def test_bindings_sorted_lexicographically():
    uni = Universe.of({None: ["a", "b"]})
    state = make_state([("Q", "b", "a"), ("Q", "a", "a"), ("Q", "b", "b")], uni)
    got = satisfying_bindings(Atom("Q", (Var("x"), Var("y"))), state, [("x", None), ("y", None)])
    assert got == [{"x": "a", "y": "a"}, {"x": "b", "y": "a"}, {"x": "b", "y": "b"}]


def test_typed_universe_pools():
    uni = Universe.of({"Box": ["b1"], "City": ["paris", "rome"]})
    assert uni.pool("City") == ("paris", "rome")
    assert uni.pool(None) == ("b1", "paris", "rome")
    state = make_state([("BIn", "b1", "rome")], uni)
    f = parse_formula("exists c:City. BIn(b, c)")
    assert satisfying_bindings(f, state, [("b", "Box")]) == [{"b": "b1"}]


# ---------------------------------------------------------------------------
# consistency


def test_consistency_trivial():
    chk = ConsistencyChecker()
    assert chk.is_consistent(parse_formula("P & !P")) is False
    assert chk.is_consistent(parse_formula("(forall x. P(x)) & (exists x. !P(x))")) is False
    assert chk.is_consistent(parse_formula("P | !P")) is True


def test_consistency_three_distinct_frozen():
    f = parse_formula("x != y & y != z & x != z")
    # frozen from oracle_consistent: needs three objects
    assert oracle_consistent(f, {}, 2) is False
    assert oracle_consistent(f, {}, 3) is True
    assert ConsistencyChecker(ConsistencyBound(2)).is_consistent(f) is False
    assert ConsistencyChecker(ConsistencyBound(3)).is_consistent(f) is True


def test_consistency_matches_oracle_on_corpus():
    chk = ConsistencyChecker(ConsistencyBound(2))
    for f in corpus(30, 3):
        assert chk.check(f) == oracle_consistent(f, PREDS, 2), format_formula(f)


def test_consistency_monotone_in_bound():
    checkers = {b: ConsistencyChecker(ConsistencyBound(b)) for b in (1, 2, 3)}
    rng = random.Random(11)
    small = [random_formula(rng, 2, ()) for _ in range(25)]
    small += [
        parse_formula("x != y"),
        parse_formula("x != y & y != z & x != z"),
        parse_formula("forall x, y. x = y"),
        parse_formula("(forall x, y. x = y) & (exists x, y. x != y)"),
    ]
    for f in small:
        verdicts = [checkers[b].check(f) for b in (1, 2, 3)]
        for lo, hi in zip(verdicts, verdicts[1:]):
            if lo is True:
                assert hi is True, format_formula(f)


def test_consistency_unique_names():
    chk = ConsistencyChecker()
    assert chk.is_consistent(parse_formula("a = b", objects=["a", "b"])) is False
    assert chk.is_consistent(parse_formula("a != b", objects=["a", "b"])) is True


def test_consistency_named_objects_above_bound():
    # named objects keep their slots even when they outnumber the bound
    f = parse_formula("P(a) & P(b) & P(c)", objects=["a", "b", "c"])
    assert ConsistencyChecker(ConsistencyBound(1)).is_consistent(f) is True


def test_validity_and_equivalence():
    chk = ConsistencyChecker(ConsistencyBound(2))
    assert chk.is_valid(parse_formula("P | !P")) is True
    assert chk.is_valid(parse_formula("P")) is False
    f = parse_formula("(P & Q) | (P & !Q)")
    assert chk.equivalent(f, parse_formula("P")) is True
    assert chk.equivalent(f, parse_formula("Q")) is False


def test_timeout_reported_indeterminate():
    # the work budget took the place of the wall-clock timeout; a check that
    # runs out of it still gets the indeterminate verdict
    f = parse_formula("exists x, y, z. Q(x, y) & Q(y, z) & !Q(x, z)")
    assert ConsistencyChecker(ConsistencyBound(3)).check(f) is True
    chk = ConsistencyChecker(ConsistencyBound(3, work_budget=20))
    assert chk.check(f) is None
    assert chk.stats.exhausted == 1 and chk.stats.work == 20
    assert chk.is_consistent(f) is True  # indeterminate counts as consistent
    assert chk.is_valid(f) is False


# ---------------------------------------------------------------------------
# typed consistency: the lifted pass against grounding alone


TYPED_SIG = {"P": ("Box",), "R": ("City",), "In": ("Box", "City"), "K": ("Truck",)}
TYPES = ("Box", "City", "Truck")
# free variables and objects per type; u and o1 only ever appear in
# equalities, so their inferred type is None
TYPED_FREE = {"Box": (Var("b"), Obj("b1")), "City": (Var("c"), Obj("c1")), "Truck": (Var("k"), Obj("k1"))}
UNTYPED_FREE = (Var("u"), Obj("o1"))


class GroundingOnlyChecker(ConsistencyChecker):
    """The checker with its lifted pass switched off: every verdict is grounded."""

    def _lifted(self, f, types):
        return None


def typed_term(rng: random.Random, vtype: str, scope: tuple):
    bound = [Var(n) for n, t in scope if t in (vtype, None)]
    if bound and rng.random() < 0.7:
        return rng.choice(bound)
    return rng.choice(TYPED_FREE[vtype])


def any_term(rng: random.Random, scope: tuple):
    pool = [Var(n) for n, _ in scope] + [t for ts in TYPED_FREE.values() for t in ts] + list(UNTYPED_FREE)
    return rng.choice(pool)


def typed_formula(rng: random.Random, depth: int, scope: tuple = ()) -> Formula:
    """Random formula over TYPED_SIG: typed atoms, equalities between any terms."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return Eq(any_term(rng, scope), any_term(rng, scope))
        pred = rng.choice(sorted(TYPED_SIG))
        return Atom(pred, tuple(typed_term(rng, t, scope) for t in TYPED_SIG[pred]))
    kind = rng.choice(["not", "and", "or", "exists", "forall"])
    if kind == "not":
        return Not(typed_formula(rng, depth - 1, scope))
    if kind in ("and", "or"):
        parts = tuple(typed_formula(rng, depth - 1, scope) for _ in range(rng.randint(2, 3)))
        return And(parts) if kind == "and" else Or(parts)
    var, vtype = f"x{len(scope)}", rng.choice(TYPES + (None,))
    cls = Exists if kind == "exists" else Forall
    return cls(var, vtype, typed_formula(rng, depth - 1, scope + ((var, vtype),)))


def one_point_probe(rng: random.Random) -> Formula:
    """∃p:T. p = t ∧ φ or ∀p:T. p != t ∨ φ, with φ[t/p] or its negation beside it.

    t is drawn from every term, so it may have T, another type or none.
    """
    vtype = rng.choice(TYPES + (None,))
    phi = typed_formula(rng, 2, (("p", vtype),))
    t = any_term(rng, ())
    if rng.random() < 0.5:
        probe = Exists("p", vtype, And((Eq(Var("p"), t), phi)))
    else:
        probe = Forall("p", vtype, Or((Not(Eq(Var("p"), t)), phi)))
    beside = substitute(phi, {"p": t})
    return And((probe, Not(beside) if rng.random() < 0.6 else beside))


def needs_two(rng: random.Random) -> Formula:
    """A conjunct with no model of one object per type, so the lifted pass gets a turn."""
    vtype = rng.choice(TYPES)
    return Exists("q", vtype, Not(Eq(Var("q"), typed_term(rng, vtype, ()))))


def typed_corpus(seed: int, n: int) -> list:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        f = one_point_probe(rng) if i % 2 else typed_formula(rng, 3)
        if rng.random() < 0.7:
            f = And((f, needs_two(rng)))
        out.append(f)
    return out


def test_lifted_verdicts_match_grounding():
    formulas = typed_corpus(5, 360)
    lifted = ConsistencyChecker(signature=TYPED_SIG)
    grounded = GroundingOnlyChecker(signature=TYPED_SIG)
    verdicts = []
    for f in formulas:
        verdicts.append(grounded.check(f))
        assert lifted.check(f) == verdicts[-1], format_formula(f)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
    # the lifted pass decided many checks and left others to grounding
    assert lifted.stats.lifted >= 30
    assert lifted.stats.lifted_attempts - lifted.stats.lifted >= 30
    assert grounded.stats.lifted == 0 and lifted.stats.exhausted == grounded.stats.exhausted == 0


@pytest.mark.parametrize(
    "text, verdict",
    [
        # an untyped one-point rule reads this as true
        ("exists x: Box. exists y: City. x = y", False),
        # an untyped one-point rule reads this as false; it needs two cities
        ("R(y) & (exists c: City. c != y) & (forall x: Box. x != y | P(x)) & (forall x: Box. x != y | !P(x))", True),
    ],
)
def test_lifted_one_point_rule_respects_types(text, verdict):
    sig = {"P": ("Box",), "R": ("City",)}
    f = parse_formula(text)
    assert GroundingOnlyChecker(signature=sig).check(f) is verdict
    chk = ConsistencyChecker(signature=sig)
    assert chk.check(f) is verdict
    assert chk.stats.lifted_attempts == 1


# ---------------------------------------------------------------------------
# monotone types: grounding their largest size against every combination


def scanned_types(text: str) -> tuple:
    f = parse_formula(text, objects=["b1", "c1"])
    binders, nonmono = set(), set()
    _scan_types(implicit_close(normalize(f)), {}, binders, nonmono)
    return binders, nonmono


@pytest.mark.parametrize(
    "text, binders, nonmono",
    [
        ("forall x: Box. forall y: Box. x = y", {"Box"}, {"Box"}),
        ("forall x: Box. x != b1 | P(x)", {"Box"}, set()),  # a negative equality
        ("forall x: Box. x = b1 | P(x)", {"Box"}, {"Box"}),
        ("exists x: Box. x = b1 & P(x)", {"Box"}, set()),
        ("forall x: Box. exists y: City. x = y", {"Box", "City"}, {"Box"}),
        ("exists x: Box. forall y: City. P(x) & (y = c1 | R(y))", {"Box", "City"}, {"City"}),
        ("!(exists x: Box. forall y: Box. x = y)", {"Box"}, set()),  # ∀x ∃y. x != y in NNF
        ("!(exists x: Box. x != b1 & P(x))", {"Box"}, {"Box"}),  # ∀x. x = b1 | !P(x)
        ("P(y) & (forall x. x = y)", {None}, {None}),  # y is free, so closed existentially
        ("P(y) & (exists x. x = y)", {None}, set()),
        ("P(b1) & R(c1)", set(), set()),
    ],
)
def test_scan_types_finds_binders_and_non_monotone_types(text, binders, nonmono):
    assert scanned_types(text) == (binders, nonmono)


def test_scan_types_respects_shadowing():
    # the inner ∃x hides the outer ∀x, so the equality does not bind a ∀ variable
    f = Forall("x", "Box", Exists("x", "City", Eq(Var("x"), Obj("c1"))))
    binders, nonmono = set(), set()
    _scan_types(f, {}, binders, nonmono)
    assert (binders, nonmono) == ({"Box", "City"}, set())


# hand-written probes whose verdicts hinge on a non-monotone type's small sizes
NON_MONOTONE_PROBES = [
    # one box, two cities
    ("(forall x: Box. forall y: Box. x = y) & (exists c: City. exists d: City. c != d)", True),
    ("(forall x: Box. forall y: Box. x = y) & (exists c: City. exists d: City. c != d)"
     " & (exists a: Box. exists b: Box. a != b)", False),
    # one box, three cities, two trucks
    ("(forall x: Box. forall y: Box. x = y) & (exists c: City. exists d: City. exists e: City."
     " c != d & d != e & c != e) & (exists k: Truck. exists j: Truck. k != j)", True),
    # b1 is the only box, and there are two cities
    ("P(b1) & R(c1) & (forall x: Box. x = b1 | !P(x)) & (exists c: City. c != c1)", True),
    ("(forall x: Box. x = b1 | P(x)) & (exists x: Box. !P(x) & x != b1)", False),
    # an untyped ∀ variable: exactly two boxes and one city in all
    ("(forall x. x = y | x = z | x = w) & y != w & P(y) & P(w) & R(z)", True),
    ("(forall x. x = y | x = z) & P(y) & (exists b: Box. b != y)", True),
    ("(forall x. x = y) & P(y) & (exists c: City. R(c))", False),
    # the named boxes already reach the bound of three
    ("P(b1) & P(b2) & P(b3) & (forall x: Box. x = b1 | x = b2 | x = b3) & (exists c: City. c != c1)", True),
    ("P(b1) & P(b2) & P(b3) & P(b4) & (forall x: Truck. forall y: Truck. x = y)"
     " & (exists c: City. exists d: City. c != d)", True),
    ("(forall x: Box. x = b1 | x = b2 | x = b3 | x = b4) & P(b4) & !P(b1) & (forall x: Truck. K(x))"
     " & (exists k: Truck. !K(k))", False),
]


def non_monotone_probes() -> list:
    return [parse_formula(text, objects=["b1", "b2", "b3", "b4", "c1"]) for text, _ in NON_MONOTONE_PROBES]


class GroundingOnlyReference(ReferenceChecker):
    def _lifted(self, f, types):
        return None


def test_monotone_grounding_matches_every_combination():
    formulas = typed_corpus(23, 240) + non_monotone_probes()
    pinned = dict(zip(formulas[240:], (v for _, v in NON_MONOTONE_PROBES)))
    for bound in (2, 3, 4):
        pairs = [
            (ConsistencyChecker(ConsistencyBound(bound), TYPED_SIG), ReferenceChecker(ConsistencyBound(bound), TYPED_SIG)),
            (GroundingOnlyChecker(ConsistencyBound(bound), TYPED_SIG), GroundingOnlyReference(ConsistencyBound(bound), TYPED_SIG)),
        ]
        for new, ref in pairs:
            for f in formulas:
                want = ref.check(f)
                assert new.check(f) == want, (bound, format_formula(f))
                if bound == 3 and f in pinned:
                    assert want is pinned[f], format_formula(f)
            assert new.stats.exhausted == ref.stats.exhausted == 0
            assert new.stats.skipped >= 100 and new.stats.groundings < ref.stats.groundings
            assert (new.stats.lifted_attempts, new.stats.lifted) == (ref.stats.lifted_attempts, ref.stats.lifted)


@pytest.mark.parametrize(
    "text, groundings, skipped",
    [
        # every type monotone: smallest, one object more of each, largest
        ("(exists b: Box. exists c: City. exists k: Truck. P(b) & R(c) & K(k)) & (forall b: Box. !P(b))", 3, 24),
        # Box is not: its sizes 1-3 with City and Truck at their largest, after the two probes
        ("(forall x: Box. forall y: Box. x = y) & (exists c: City. R(c)) & (forall c: City. !R(c))"
         " & (exists k: Truck. K(k))", 5, 22),
        # the named boxes fix Box at three, so the smallest grounding is not repeated
        ("P(b1) & P(b2) & P(b3) & (forall x: Truck. forall y: Truck. x = y) & (exists k: Truck. K(k))"
         " & (forall k: Truck. !K(k))", 3, 0),
    ],
)
def test_checker_grounds_each_size_combination_once(text, groundings, skipped):
    chk = GroundingOnlyChecker(signature=TYPED_SIG)
    assert chk.check(parse_formula(text, objects=["b1", "b2", "b3"])) is False
    assert (chk.stats.groundings, chk.stats.skipped) == (groundings, skipped)


def test_ground_plan_builds_the_reference_dag():
    # one plan per formula, run at every size combination: the same root and the
    # same DAG, node for node, as the tree walk, for no more budget units
    formulas = typed_corpus(37, 160) + non_monotone_probes() + corpus()
    walked = planned = 0
    for f in formulas + [normalize(f) for f in formulas]:
        _, closed, groundings = every_grounding(f, TYPED_SIG, 3)
        ground = _ground_plan(closed)
        for pools in groundings:
            want, got = _GroundDag(), _GroundDag()
            left_want, left_got = [10**9], [10**9]
            root = reference_ground_expand(closed, pools, {}, want, left_want)
            assert ground(pools, got, left_got) == root, format_formula(f)
            assert (got.kind, got.data, got.watch) == (want.kind, want.data, want.watch), format_formula(f)
            assert left_got[0] >= left_want[0]
            walked += 10**9 - left_want[0]
            planned += 10**9 - left_got[0]
    # repeats are most of the tree walk's expansions
    assert planned * 2 < walked


# ---------------------------------------------------------------------------
# compiled queries against the product-over-pools evaluator

QUERY_VARS = (("b", "Box"), ("c", "City"), ("k", "Truck"), ("u", None))
QUERY_PARAMS = ("b1", "c1")  # named objects each call rebinds, like a goal's constants
QUERY_POOLS = {"Box": ("b1", "b2", "b3"), "City": ("c1", "c2"), "Truck": ("k1", "k2")}
QUERY_GROUND = [
    (pred, *args)
    for pred, types in sorted(TYPED_SIG.items())
    for args in itertools.product(*(QUERY_POOLS[t] for t in types))
]


def query_state(rng: random.Random):
    return make_state([a for a in QUERY_GROUND if rng.random() < 0.4], Universe.of(QUERY_POOLS))


def conjunctive_formula(rng: random.Random) -> Formula:
    """A top-level conjunction of atoms, equalities and small nested formulas."""
    parts = []
    for _ in range(rng.randint(2, 4)):
        r = rng.random()
        if r < 0.4:
            pred = rng.choice(sorted(TYPED_SIG))
            parts.append(Atom(pred, tuple(typed_term(rng, t, ()) for t in TYPED_SIG[pred])))
        elif r < 0.6:
            parts.append(Eq(any_term(rng, ()), any_term(rng, ())))
        else:
            parts.append(typed_formula(rng, 2))
    return And(tuple(parts))


def test_query_matches_satisfying_bindings():
    rng = random.Random(9)
    formulas = typed_corpus(5, 150) + [conjunctive_formula(rng) for _ in range(150)]
    found = 0
    for f in formulas:
        variables = [v for v in QUERY_VARS if v[0] in free_vars(f)]
        rng.shuffle(variables)
        query = compile_query(f, variables, QUERY_PARAMS)
        closed = implicit_close(f, dict(QUERY_VARS))
        truth = compile_query(closed, (), QUERY_PARAMS)
        for _ in range(4):
            state = query_state(rng)
            args = (rng.choice(QUERY_POOLS["Box"]), rng.choice(QUERY_POOLS["City"]))
            renamed = dict(zip(QUERY_PARAMS, args))
            index = StateIndex(state)
            want = reference.satisfying_bindings(replace_objects(f, renamed), state, variables)
            tuples = [tuple(b[n] for n, _ in variables) for b in want]
            assert query(index, args) == tuples, format_formula(f)
            verdict = reference.eval_in_state(replace_objects(closed, renamed), state)
            assert bool(truth(index, args)) is verdict, format_formula(closed)
            found += bool(want)
        if variables:
            with pytest.raises(UnboundVariableError):
                compile_query(f, variables[:-1], QUERY_PARAMS)
    assert found >= 300 and 4 * len(formulas) - found >= 300


def test_evaluators_match_reference():
    """eval_in_state under full bindings and satisfying_bindings, against the interpreter."""
    rng = random.Random(13)
    formulas = typed_corpus(17, 200)
    held = 0
    for f in formulas:
        variables = [v for v in QUERY_VARS if v[0] in free_vars(f)]
        rng.shuffle(variables)
        for _ in range(3):
            state = query_state(rng)
            binding = {n: rng.choice(state.universe.pool(t)) for n, t in variables}
            verdict = reference.eval_in_state(f, state, binding)
            assert eval_in_state(f, state, binding) is verdict, format_formula(f)
            want = reference.satisfying_bindings(f, state, variables)
            assert satisfying_bindings(f, state, variables) == want, format_formula(f)
            held += verdict
    assert held >= 150 and 3 * len(formulas) - held >= 150


def test_query_errors_and_name_clashes():
    state = StateIndex(make_state([("P", "b1")], Universe.of(QUERY_POOLS)))
    # a parameter named like a predicate rebinds only the object
    clash = compile_query(parse_formula("P(b) & b != P", objects=["P"]), [("b", "Box")], ("P",))
    assert clash(state, ("b2",)) == [("b1",)]
    with pytest.raises(UnboundVariableError):
        compile_query(parse_formula("P(b) & R(c)"), [("b", "Box")])
    with pytest.raises(LogicError):
        compile_query(parse_formula("P(b)"), [("b", "Box")], ("c1",))(state, ())
    with pytest.raises(LogicError):
        compile_query(parse_formula("exists s: Ship. P(s)"))(state)


# ---------------------------------------------------------------------------
# simplification


def test_simplify_absorption():
    f = parse_formula("(P & Q) | (P & !Q)")
    assert simplify_bdd(f) == Atom("P")


def test_simplify_closed_tautology():
    phi = parse_formula("exists x. P(x) & Q(x, x)")
    assert simplify_bdd(Or((phi, Not(phi)))) == TRUE


def test_simplify_shares_duplicated_subformula():
    # the same closed subformula appearing twice collapses to one atom
    e = parse_formula("exists x. P(x)")
    a = Atom("A")
    f = Or((And((e, a)), And((e, Not(a)))))
    assert simplify_bdd(f) == normalize(e)
    # frozen from oracle_equivalent at bound 2
    assert oracle_equivalent(f, e, {"P": 1, "A": 0}, 2) is True


def test_simplify_shares_alpha_variant_subformulas():
    f = Or((parse_formula("exists x. P(x)"), parse_formula("!(exists y. P(y))")))
    assert simplify_bdd(f) == TRUE


def test_simplify_one_point_rule():
    f = parse_formula("exists x. x = a & P(x)", objects=["a"])
    assert simplify_bdd(f) == Atom("P", (Obj("a"),))
    g = parse_formula("exists x. x = a", objects=["a"])
    assert simplify_bdd(g) == TRUE


def test_simplify_pushes_quantifiers_inward():
    f = parse_formula("exists x. P(x) | R")
    g = push_quantifiers(normalize(f))
    # R does not depend on x, so the quantifier splits over the disjunction
    assert normalize(g) == normalize(Or((Exists("x", None, Atom("P", (Var("x"),))), Atom("R"))))


def test_simplify_preserves_truth_on_corpus():
    pool = ["a", "b"]  # corpus objects must belong to the universe
    for f in corpus(30, 3):
        g = simplify_bdd(f)
        fv = sorted(free_vars(f) | free_vars(g))
        for state in all_states(PREDS, pool):
            for combo in itertools.product(pool, repeat=len(fv)):
                b = dict(zip(fv, combo))
                assert eval_in_state(f, state, b) == eval_in_state(g, state, b), format_formula(f)


def test_simplify_atom_overflow_returns_input():
    parts = tuple(Atom(f"P{i}") for i in range(8))
    f = Or(parts)
    assert simplify_bdd(f, max_atoms=4) == f


def test_simplify_read_back_overflow_returns_input():
    # the BDD of an Or of k two-atom Ands is linear in k, but read back as a
    # tree it has 2^(k+1) - 2 nodes; k = 18 once took 46 s to simplify
    f = Or(tuple(And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(18)))
    t0 = time.perf_counter()
    assert simplify_bdd(f) is f
    assert time.perf_counter() - t0 < 2.0
    # a quantifier body past the limit is kept, and the level above it is still read back
    body = Or(tuple(And((Atom(f"A{i}", (Var("x"),)), Atom(f"B{i}", (Var("x"),)))) for i in range(18)))
    g = Or((Forall("x", None, body), Atom("R"), Atom("Q")))
    assert simplify_bdd(g) == normalize(g)
    small = Or(tuple(And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(4)))
    assert simplify_bdd(small) is not small


def alpha_variant(f: Formula, tag: str = "r") -> Formula:
    """f with every bound variable renamed."""
    if isinstance(f, (Exists, Forall)):
        var = f.var + tag
        return type(f)(var, f.vtype, alpha_variant(substitute(f.body, {f.var: Var(var)}), tag))
    if isinstance(f, Not):
        return Not(alpha_variant(f.sub, tag))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(alpha_variant(p, tag) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(alpha_variant(f.lhs, tag), alpha_variant(f.rhs, tag))
    return f


def sharing_formula(rng: random.Random, depth: int, scope: tuple = ()) -> Formula:
    """Random connectives over a few subformulas that recur.

    Leaves repeat pool members verbatim, as alpha-variants and negated, and
    quantifier nodes recurse with a pool of their own, so quantified atoms
    recur within a level and across nesting levels.
    """
    var = f"x{len(scope)}"
    pool = [random_formula(rng, 2, scope + (var,)) for _ in range(3)]
    pool += [Exists(var, None, pool[0]), Forall(var, "T", Or((pool[1], pool[2])))]

    def grow(d: int) -> Formula:
        kind = rng.choice(["leaf", "and", "or", "not", "quantifier"]) if d > 0 else "leaf"
        if kind == "leaf" or (kind == "quantifier" and depth == 0):
            f = rng.choice(pool)
            f = alpha_variant(f) if rng.random() < 0.3 else f
            return Not(f) if rng.random() < 0.4 else f
        if kind == "not":
            return Not(grow(d - 1))
        if kind == "quantifier":
            cls = rng.choice([Exists, Forall])
            return cls(var, rng.choice([None, "T"]), sharing_formula(rng, depth - 1, scope + (var,)))
        parts = tuple(grow(d - 1) for _ in range(rng.randint(2, 4)))
        return And(parts) if kind == "and" else Or(parts)

    return grow(3)


def wide_formula(rng: random.Random, n: int) -> Formula:
    """About n distinct atoms in a few flat runs, some inside a quantifier.

    Runs of single literals keep the read-back small; disjunctions of
    conjunctions would read back at a size exponential in the run length.
    """
    atoms = [Atom(f"W{i}") for i in range(n)]
    atoms += [Exists("x", None, Atom("Q", (Var("x"), Obj(f"o{i}")))) for i in range(n // 4)]
    rng.shuffle(atoms)
    atoms = [Not(a) if rng.random() < 0.3 else a for a in atoms]
    outer, inner = (And, Or) if rng.random() < 0.5 else (Or, And)
    body = outer(tuple(inner(tuple(atoms[i::3])) for i in range(3)))
    return Exists("y", None, And((body, Atom("P", (Var("y"),))))) if rng.random() < 0.5 else body


def bdd_corpus(seed: int) -> list:
    rng = random.Random(seed)
    out = corpus(40, 3, seed)
    out += [sharing_formula(rng, 2) for _ in range(150)]
    out += [wide_formula(rng, rng.randint(20, 60)) for _ in range(20)]
    return out


@pytest.mark.parametrize("max_atoms", [40, 3])
def test_simplify_matches_two_pass_reference(max_atoms):
    # each side gets its own copy, so nothing one run caches reaches the other
    formulas, twins = bdd_corpus(11), bdd_corpus(11)
    assert len(formulas) >= 200
    overflowed = 0
    for f, twin in zip(formulas, twins):
        want = reference_simplify_bdd(twin, max_atoms)
        assert simplify_bdd(f, max_atoms) == want, format_formula(f)
        # past the atom limit at the top level the input object comes back
        overflowed += want is twin and not isinstance(twin, Bool)
    assert overflowed >= 5



def test_shared_atom_tables_change_no_output():
    # a checker's atom tables, warm from earlier calls and lifted passes in any
    # order, give what fresh per-call tables give; each run gets its own copy of
    # the inputs, so equal formulas meet the tables as different objects
    def inputs() -> list:
        formulas = bdd_corpus(13) + typed_corpus(13, 120)
        return formulas + [formulas[i : i + 4] + [alpha_variant(formulas[i])] for i in range(0, len(formulas), 4)]

    def run(order, checker) -> dict:
        items, out = inputs(), {}
        for i in order:
            if isinstance(items[i], list):
                out[i] = disjoint_regions(items[i], checker)
                continue
            if checker is not None:
                checker.check(items[i])  # the lifted pass shares the tables too
            out[i] = simplify_bdd(items[i], checker=checker)
        return out

    n = len(inputs())
    fresh = run(range(n), None)
    chk = ConsistencyChecker(signature=TYPED_SIG)
    misses = []
    for seed in (1, 2):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        assert run(order, chk) == fresh
        misses.append(chk.stats.atoms - sum(misses))
    assert chk.stats.lifted_attempts > 0
    # the second pass finds almost every atom in the table
    assert misses[1] * 10 < misses[0]
