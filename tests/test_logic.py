"""Formula layer tests.

The oracles here are deliberately naive: truth by enumerating every ground
state of a small universe, and satisfiability by enumerating every domain
size up to a bound and every state over it.  Expected values for the pinned
cases below were computed with these oracles and then frozen.
"""

from __future__ import annotations

import itertools
import random

import pytest

from bdd_reference import reference_simplify_bdd
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
    Not,
    Obj,
    Or,
    Universe,
    Var,
    eval_in_state,
    format_formula,
    free_vars,
    implicit_close,
    make_state,
    normalize,
    objects_in,
    parse_formula,
    push_quantifiers,
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
    chk = ConsistencyChecker(ConsistencyBound(3, timeout_ms=0))
    f = parse_formula("exists x, y, z. Q(x, y) & Q(y, z) & !Q(x, z)")
    assert chk.check(f) is None
    assert chk.is_consistent(f) is True  # indeterminate counts as consistent
    assert chk.is_valid(f) is False


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

