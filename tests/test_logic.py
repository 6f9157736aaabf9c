"""Formula layer tests.

The oracles here are deliberately naive: truth by enumerating every ground
state of a small universe, and satisfiability by enumerating every domain
size up to a bound and every state over it.  Expected values for the pinned
cases below were computed with these oracles and then frozen.
"""

from __future__ import annotations

import builtins
import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from functools import reduce
from pathlib import Path
from typing import Sequence

import pytest

import state_reference as reference
from bdd_reference import reference_simplify_bdd
from lexer_reference import ReferenceLexer
from normalize_reference import _nnf, reference_normalize
from checker_reference import (
    ReferenceChecker,
    every_grounding,
    reference_ground_expand,
    reference_infer_types,
    reference_objects_in,
    reference_survey,
)
from fomdp.logic import (
    FALSE,
    TRUE,
    And,
    ArityError,
    Atom,
    ActTerm,
    Bool,
    CheckerStats,
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
    UnboundVariableError,
    Universe,
    Var,
    _GroundDag,
    _GroundStore,
    _ground_plan,
    all_var_names,
    conj,
    disjoint_regions,
    eval_in_state,
    fold_constants,
    format_formula,
    free_vars,
    implicit_close,
    infer_types,
    make_state,
    nodes,
    normalize,
    objects_in,
    parse_formula,
    push_quantifiers,
    replace_objects,
    satisfying_bindings,
    simplify_bdd,
    substitute,
    survey,
)
from fomdp import logic
from fomdp.basisgen import BasisGenConfig, generate_basis
from fomdp.domains import fixture_path, load_fixture
from fomdp.query import _MAX_NESTING, StateIndex, _QueryWriter, compile_program, compile_query
from fomdp.unidecomp import make_generic_goal

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
    assert f == Or((Not(Or((And((Not(Atom("P")), Atom("Q"))), Atom("R")))), Atom("S")))


def test_parse_quantifier_scope_maximal():
    f = parse_formula("exists x. P(x) & Q(x, x)")
    assert f == Exists("x", None, And((Atom("P", (Var("x"),)), Atom("Q", (Var("x"), Var("x"))))))


def test_parse_typed_and_multi_binders():
    f = parse_formula("forall b:Box, c:City. P(b) -> Q(b, c)")
    assert f == Forall("b", "Box", Forall("c", "City", Implies(Atom("P", (Var("b"),)), Atom("Q", (Var("b"), Var("c"))))))
    assert f == Forall("b", "Box", Forall("c", "City", Or((Not(Atom("P", (Var("b"),))), Atom("Q", (Var("b"), Var("c")))))))


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


def lexed(lex, text: str):
    """The tokens of text, or the syntax error's message and position."""
    try:
        return lex(text)
    except FormulaSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


MALFORMED = [
    "P(x) $ Q(x)",  # an unexpected character
    "P(x) & Q(x) # a comment at the end of input",
    "P(x) #\n# two comments\n& Q(x)#",
    "P(x) &\r\n  Q(x, y)\r\n| R",  # CRLF line endings
    "P(x)\t&\tQ(x)\n\t\t| !R -> @",  # tabs, then an error on line 2
    "exists \u00e9l\u00e9ment. P(\u00e9l\u00e9ment) & \u03a9(x)",  # non-ASCII letters
    "P(x\u00b2)",  # a digit that is not a letter, inside a word
    "P(\u00b2x)",  # ... and starting one
    "1P(x)",
    "_x = y",
    "P(x) - Q(x)",
    "P(x)->Q(x)!=R",
    "x != y & !!P(x)\u00a0",  # a non-breaking space is no whitespace
    "",
    "   \n\n  ",
    "#",
]


def test_lexer_matches_reference(monkeypatch):
    texts = list(MALFORMED)
    real = logic._lex

    def recorded(text):
        texts.append(text)
        return real(text)

    monkeypatch.setattr(logic, "_lex", recorded)
    for name in ("boxworld_mini", "blocksworld_mini", "flip"):
        load_fixture(name)
        for suffix in ("domain", "instance"):
            texts.append(fixture_path(f"{name}.{suffix}").read_text())
    monkeypatch.undo()
    texts += [format_formula(f) for f in corpus(60, 4)]
    assert len(texts) > 100
    errors = 0
    for text in texts:
        want = lexed(lambda t: ReferenceLexer(t).tokens, text)
        assert lexed(logic._lex, text) == want, text
        errors += want[0] == "error"
    assert errors >= 12


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


def test_roundtrip_parsed_implications():
    # `a -> b` parses to `!a | b`, which prints without an arrow and parses back equal
    for text in (
        "P -> Q",
        "!P & Q | R -> S",
        "P -> Q -> R",
        "(P -> Q) -> !(R -> S)",
        "forall b:Box, c:City. P(b) -> Q(b, c)",
        "exists x. (P(x) -> forall y. Q(x, y) -> x = y) & R(x)",
    ):
        f = parse_formula(text)
        assert "->" not in format_formula(f)
        assert parse_formula(format_formula(f)) == f, text


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


def fresh_copy(f: Formula) -> Formula:
    """f rebuilt node by node, so no cache or `_normed` mark of f survives."""
    if isinstance(f, Bool):
        return Bool(f.value)
    if isinstance(f, Atom):
        return Atom(f.pred, f.args)
    if isinstance(f, Eq):
        return Eq(f.left, f.right)
    if isinstance(f, Not):
        return Not(fresh_copy(f.sub))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(fresh_copy(p) for p in f.parts))
    return type(f)(f.var, f.vtype, fresh_copy(f.body))


def test_normalize_idempotent_on_corpus():
    # the quantified variable disappears only once the body is simplified
    f = parse_formula("forall x:T. !(R -> x = x) | !R")
    assert normalize(f) == Not(Atom("R"))
    formulas = corpus(60, 4) + corpus(400, 4, 3) + typed_corpus(3, 400) + bdd_corpus(5)
    for f in formulas:
        n1 = normalize(f)
        assert normalize(n1) == n1
        # a fresh copy carries no `_normed` mark, so it is canonicalised again
        assert normalize(fresh_copy(n1)) == n1, format_formula(f)


NAMES = ("x", "y", "v1", "v2", "v3", "v1_", "v2_")  # some collide with the fresh names v<depth>


def dag_formula(rng: random.Random, rounds: int = 9) -> Formula:
    """A formula built over a pool of its own subformula objects.

    Each round adds a node over earlier ones, so one object recurs under
    different binders and polarities; bound and free variables may carry the
    names that canonical forms give bound variables.
    """
    def term():
        return Var(rng.choice(NAMES)) if rng.random() < 0.8 else Obj(rng.choice(["a", "b"]))

    pool = [Atom("P", (term(),)), Atom("Q", (term(), term())), Eq(term(), term()), Atom("R"), rng.choice([TRUE, FALSE])]
    for _ in range(rounds):
        kind = rng.choice(["not", "and", "or", "implies", "exists", "forall"])
        a, b = rng.choice(pool), rng.choice(pool)
        if kind == "not":
            g = Not(a)
        elif kind in ("and", "or"):
            parts = (a, b) + ((rng.choice(pool),) if rng.random() < 0.3 else ())
            g = And(parts) if kind == "and" else Or(parts)
        elif kind == "implies":
            g = Implies(a, b)
        else:
            cls = Exists if kind == "exists" else Forall
            g = cls(rng.choice(NAMES), rng.choice([None, "T"]), a)
        pool.append(g)
    return pool[-1]


def collision_probes() -> list:
    """A flattened part re-canonicalised under a binder whose name is a fresh one."""
    x, v1 = Var("x"), Var("v1")
    part = And((Atom("P", (x,)), Atom("Q", (x, v1))))
    # the Or collapses to its one distinct part, which joins the enclosing And
    body = And((Or((part, And((Atom("P", (x,)), Atom("Q", (x, v1)))))), Atom("R", (v1,))))
    shared = Exists("v1", None, body)
    # the same junction, with x free, at the same depth under x ↦ v1, once with v1 ↦ v2 beside it
    x_only = And((Or((And((Atom("P", (x,)), Atom("Q", (x, x)))), And((Atom("P", (x,)), Atom("Q", (x, x)))))), Atom("R")))
    renamed_twice = Exists("x", None, Exists("v1", None, And((x_only, Atom("P", (v1,))))))
    renamed_once = Exists("x", None, Exists("y", None, And((x_only, Atom("P", (Var("y"),))))))
    return [
        And((renamed_twice, renamed_once)),
        And((renamed_once, renamed_twice)),
        Exists("x", None, shared),
        And((Exists("x", None, shared), Forall("y", None, Exists("x", "T", Not(shared))), shared)),
        Forall("v2", None, Exists("x", None, Implies(shared, Exists("v1", None, Not(body))))),
    ]


def reference_inputs(seed: int) -> list:
    rng = random.Random(seed)
    dags = [dag_formula(rng) for _ in range(300)]
    return corpus(60, 4) + typed_corpus(seed, 200) + bdd_corpus(seed) + dags + [Not(f) for f in dags[:100]] + collision_probes()


def normalize_inputs_of_cold_solves(monkeypatch) -> int:
    """Check `normalize` against the reference on every input of three cold solves; returns how many."""
    real, seen = logic.normalize, [0]

    def checked(f):
        want = reference_normalize(f)  # first: `normalize` marks what it returns
        got = real(f)
        assert got == want, format_formula(f)
        seen[0] += 1
        return got

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("fomdp") and getattr(mod, "normalize", None) is real:
            monkeypatch.setattr(mod, "normalize", checked)
    for fixture, solver in (("boxworld_mini", "foalp"), ("blocksworld_mini", "foapi"), ("boxworld_mini", "foapi")):
        model = make_generic_goal(load_fixture(fixture)[0])
        model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
        generate_basis(model, BasisGenConfig(iters=2, solver=solver))
    monkeypatch.undo()
    return seen[0]


def test_normalize_matches_two_walk_reference(monkeypatch):
    # each side gets its own copy, built alike, so shared objects stay shared
    # and no `_normed` mark or memo of one side reaches the other
    formulas, twins = reference_inputs(19), reference_inputs(19)
    for f, twin in zip(formulas, twins):
        assert normalize(f) == reference_normalize(twin), format_formula(f)
    assert normalize_inputs_of_cold_solves(monkeypatch) > 3000


def test_normalize_preserves_truth():
    pool = ["a", "b"]  # corpus objects must belong to the universe
    for f in corpus(25, 3):
        g = normalize(f)
        fv = sorted(free_vars(f))
        for state in all_states(PREDS, pool):
            for combo in itertools.product(pool, repeat=len(fv)):
                b = dict(zip(fv, combo))
                assert eval_in_state(f, state, b) == eval_in_state(g, state, b)


# renaming the flattened parts x ↦ v1 a second time, by v1 ↦ v2, reads ∃v1. P(v1) ∧ Q(v1, v1) ∧ R(v1)
DOUBLE_RENAMING = "exists x. exists v1. (P(x) & Q(x, v1) | P(x) & Q(x, v1)) & R(v1)"


def disagreements(f: Formula, g: Formula) -> int:
    """States over two objects where f and g differ under some binding of f's free variables.

    The states range over every ground atom of f's predicates; untyped and
    `T` variables range over both objects.
    """
    pool = ("a", "b")
    shapes = sorted({(h.pred, len(h.args)) for h in nodes(f) if isinstance(h, Atom)})
    atoms = [(pred, *args) for pred, n in shapes for args in itertools.product(pool, repeat=n)]
    variables = [(v, None) for v in sorted(free_vars(f))]
    plans = compile_query(f, variables), compile_query(g, variables)
    uni = Universe.of({None: pool, "T": pool})
    count = 0
    for bits in itertools.product([False, True], repeat=len(atoms)):
        index = StateIndex(make_state([a for a, b in zip(atoms, bits) if b], uni))
        want, got = (plan(index, ()) for plan in plans)
        count += want != got
    return count


def test_normalize_renames_each_variable_once():
    found = parse_formula(DOUBLE_RENAMING)
    want = parse_formula("exists v1. exists v2. P(v1) & Q(v1, v2) & R(v2)")
    assert normalize(found) == want
    assert normalize(parse_formula("exists a. exists b. (P(a) & Q(a, b) | P(a) & Q(a, b)) & R(b)")) == want
    for f in [found] + collision_probes():
        assert disagreements(f, normalize(f)) == 0, format_formula(f)


def v_named(f: Formula) -> Formula:
    """f with every binder renamed to the first `v<n>` that no other variable of its body uses."""
    if isinstance(f, (Exists, Forall)):
        body = v_named(f.body)
        taken = all_var_names(body) - {f.var}
        var = next(v for v in (f"v{n}" for n in itertools.count(1)) if v not in taken)
        return type(f)(var, f.vtype, substitute(body, {f.var: Var(var)}))
    if isinstance(f, Not):
        return Not(v_named(f.sub))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(v_named(p) for p in f.parts))
    return f


def test_normalize_ignores_binder_names():
    formulas = corpus(60, 4) + typed_corpus(3, 200) + collision_probes()
    renamed = [(f, v_named(f)) for f in formulas]
    assert sum(f != g for f, g in renamed) > 150
    for f, g in renamed:
        assert normalize(g) == normalize(f), format_formula(f)


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


def test_bad_bounds_rejected():
    # a negative budget never reached 0, so it used to turn the budget off
    with pytest.raises(ValueError, match="work_budget"):
        ConsistencyBound(work_budget=-1)
    with pytest.raises(ValueError, match="objects_per_type"):
        ConsistencyBound(objects_per_type=0)
    chk = ConsistencyChecker(ConsistencyBound(work_budget=0))
    assert chk.check(parse_formula("exists x. P(x)")) is None and chk.stats.exhausted == 1


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
    return survey(normalize(f), {})[2:]


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
    assert survey(f, {})[2:] == ({"Box", "City"}, set())


SURVEY_SIG = {**TYPED_SIG, "Q": ("Box", "City")}  # corpus atoms get types too


def solve_checks(monkeypatch) -> list:
    """(formula, signature) of each check reaching `_sat` in cold boxworld FOALP and blocksworld FOAPI solves."""
    seen, real = [], ConsistencyChecker._sat

    def sat(self, f, left):
        seen.append((f, self.signature))
        return real(self, f, left)

    monkeypatch.setattr(ConsistencyChecker, "_sat", sat)
    for fixture, solver in (("boxworld_mini", "foalp"), ("blocksworld_mini", "foapi")):
        model = make_generic_goal(load_fixture(fixture)[0])
        model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
        generate_basis(model, BasisGenConfig(iters=2, solver=solver))
    return seen


def test_survey_matches_the_three_walks(monkeypatch):
    # types and objects of any formula, binder and non-monotone types of its NNF
    formulas = corpus(60, 4) + typed_corpus(29, 200) + bdd_corpus(7)
    cases = [(g, SURVEY_SIG) for f in formulas for g in (f, normalize(f))]
    checked = solve_checks(monkeypatch)
    assert len(checked) > 200
    nonmono = 0
    for f, sig in cases + checked:
        got = survey(f, sig)
        want = reference_survey(_nnf(f, False), sig)
        assert list(got[0].items()) == list(reference_infer_types(f, sig).items()) == list(want[0].items())
        assert got[1] == reference_objects_in(f) == want[1]
        assert got[2:] == want[2:], format_formula(f)
        assert (infer_types(f, sig), objects_in(f)) == got[:2]
        nonmono += bool(got[3])
    assert nonmono > 100


def first_visits(f: Formula) -> list:
    """(id, polarity) of each distinct (subformula, scope, polarity) of f, in depth-first order of first meeting.

    A scope is the binder visit that opened it, so one subformula object met
    again under the same binder visit and polarity is met once.
    """
    out, seen = [], set()

    def walk(g, scope, positive):
        out.append((id(g), positive))
        if isinstance(g, (And, Or)):
            subs = [(p, scope, positive) for p in g.parts]
        elif isinstance(g, Not):
            subs = [(g.sub, scope, not positive)]
        elif isinstance(g, (Exists, Forall)):
            subs = [(g.body, (id(g), scope, positive), positive)]
        else:
            subs = []
        for sub, inner, pos in subs:
            if (id(sub), inner, pos) not in seen:
                seen.add((id(sub), inner, pos))
                walk(sub, inner, pos)

    walk(f, None, True)
    return out


def surveyed(monkeypatch) -> list:
    """(subformula, scope, polarity) of each `_survey` call from now on."""
    visits, real = [], logic._survey

    def counted(g, scope, positive, *args):
        visits.append((g, scope, positive))
        return real(g, scope, positive, *args)

    monkeypatch.setattr(logic, "_survey", counted)
    return visits


def test_cold_check_surveys_its_formula_once(monkeypatch):
    f = normalize(non_monotone_probes()[0])
    visits = surveyed(monkeypatch)

    def another_walk(*args):
        raise AssertionError("a second walk before grounding")

    monkeypatch.setattr(logic, "infer_types", another_walk)
    monkeypatch.setattr(logic, "objects_in", another_walk)
    chk = ConsistencyChecker(signature=TYPED_SIG)
    assert chk.check(f) is True and chk.stats.groundings > 1
    # each distinct (subformula, scope, polarity) once, in first-visit order
    assert [(id(g), pos) for g, _, pos in visits] == first_visits(f)
    assert len({(id(g), id(scope), pos) for g, scope, pos in visits}) == len(visits)


def doubling_chain(k: int, quantified: bool) -> Formula:
    """φ_k with φ_{i+1} = (φ_i ∧ a_i) ∨ (¬φ_i ∧ ¬a_i): its tree doubles per level, its objects grow by six."""
    x, y = Var("x"), Var("y")
    f = And((Atom("P", (x,)), Atom("In", (x, y)))) if quantified else And((Atom("P0"), Atom("Q0")))
    for i in range(k):
        a = Atom(f"A{i}", (y,)) if quantified else Atom(f"A{i}")
        f = Or((And((f, a)), And((Not(f), Not(a)))))
    return Exists("x", "Box", Forall("y", "City", f)) if quantified else f


def distinct_nodes(f: Formula) -> int:
    return len({id(g): g for g in nodes(f)})


def test_passes_visit_each_distinct_subformula_once(monkeypatch):
    f, tree = doubling_chain(10, True), doubling_chain(10, True)
    tree = fresh_copy(tree)  # the same formula as a tree: no object recurs
    size = len(list(nodes(tree)))
    assert size > 100 * distinct_nodes(f)
    # canonicalisation: each compound node once per (polarity, renaming, depth)
    calls, real = [], logic._canon_compound

    def canon(g, neg, env, depth, memo):
        calls.append((id(g), neg, depth, tuple(sorted(env.items()))))
        return real(g, neg, env, depth, memo)

    monkeypatch.setattr(logic, "_canon_compound", canon)
    assert normalize(f) == reference_normalize(tree)
    assert len(set(calls)) == len(calls) < size // 20
    monkeypatch.undo()
    # survey: each (subformula, scope, polarity) once, in first-visit order
    visits = surveyed(monkeypatch)
    got = survey(f, TYPED_SIG)
    want = reference_survey(_nnf(tree, False), TYPED_SIG)
    assert list(got[0].items()) == list(want[0].items()) and got[1:] == want[1:]
    assert [(id(g), pos) for g, _, pos in visits] == first_visits(f)
    assert len({(id(g), id(scope), pos) for g, scope, pos in visits}) == len(visits) < size // 20
    monkeypatch.undo()
    # BDD build: each subformula once per BDD, across the regions that share one
    prop = doubling_chain(10, False)
    regions = [prop.parts[0].parts[0], prop.parts[1], prop]
    built, real_build = [], logic._BddSimplifier._build

    def build(self, g, bdd):
        built.append((id(bdd), id(g)))
        return real_build(self, g, bdd)

    monkeypatch.setattr(logic._BddSimplifier, "_build", build)
    chk = ConsistencyChecker()
    got = [simplify_bdd(prop, chk), disjoint_regions(regions, chk)]
    assert len(set(built)) == len(built) < size // 20
    monkeypatch.undo()
    assert got == [simplify_bdd(fresh_copy(prop), chk), disjoint_regions([fresh_copy(g) for g in regions], chk)]


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


@pytest.mark.parametrize("make", [ConsistencyChecker, GroundingOnlyChecker])
def test_session_verdicts_match_fresh_checkers(make):
    # one session over checks that share subformulas: each formula twice, its
    # named objects renamed at random each time, so pools of the same sizes
    # hold other objects, and then its conjunction prefixes; the first two
    # share a closed quantifier whose one-box pools are (b1) and (b2)
    rng = random.Random(43)
    renames = [{}, {"b1": "b2"}, {"c1": "c2", "k1": "k2"}, {"b1": "b3", "o1": "o2"}, {"k1": "b1"}]
    checks = [parse_formula(f"!P({o}) & (forall x: Box. P(x))", objects=[o]) for o in ("b1", "b2")]
    for f in typed_corpus(43, 200) + non_monotone_probes():
        for rename in rng.sample(renames, 2):
            g = normalize(replace_objects(f, rename))
            checks.append(g)
            if isinstance(g, And):
                checks += [conj(g.parts[:i]) for i in range(1, len(g.parts))]
    chk, plain = make(signature=TYPED_SIG), make(signature=TYPED_SIG)
    with chk.session():
        for f in checks:
            want = ReferenceChecker(signature=TYPED_SIG).check(f)
            assert chk.check(f) == make(signature=TYPED_SIG).check(f) == want, format_formula(f)
            assert plain.check(f) == want
    # the session read back expansions of earlier checks, and only the work fell
    assert chk.stats.reused > plain.stats.reused and chk.stats.work < plain.stats.work
    assert replace(chk.stats, work=0, reused=0) == replace(plain.stats, work=0, reused=0)
    assert chk.stats.exhausted == 0


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
    # one plan per formula, run at every size combination through a fresh store:
    # the same root and the same DAG, node for node, as the tree walk, for no
    # more budget units
    formulas = typed_corpus(37, 160) + non_monotone_probes() + corpus()
    walked = planned = 0
    for f in formulas + [normalize(f) for f in formulas]:
        _, closed, groundings = every_grounding(f, TYPED_SIG, 3)
        ground = _ground_plan(closed, {})
        for pools in groundings:
            want, store = _GroundDag(), _GroundStore(CheckerStats())
            left_want, left_got = [10**9], [10**9]
            root = reference_ground_expand(closed, pools, {}, want, left_want)
            assert ground(pools, store, left_got) == root, format_formula(f)
            got = store.dag
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
    empty = StateIndex(make_state([], Universe.of(QUERY_POOLS)))
    # a parameter named like a predicate rebinds only the object
    shadowed = compile_query(parse_formula("P(b) & b != P", objects=["P"]), [("b", "Box")], ("P",))
    assert shadowed(state, ("b2",)) == [("b1",)]
    with pytest.raises(UnboundVariableError):
        compile_query(parse_formula("P(b) & R(c)"), [("b", "Box")])
    one_param = compile_query(parse_formula("P(b)"), [("b", "Box")], ("c1",))
    for args in ((), ("c1", "c2")):
        with pytest.raises(LogicError):
            one_param(state, args)
    with pytest.raises(LogicError):
        compile_query(parse_formula("exists s: Ship. P(s)"))(state)
    with pytest.raises(LogicError):  # names enter a plan only as string literals
        compile_query(Atom("P", (Obj(3),)))
    # an undeclared quantifier type raises only when evaluation reaches it
    lazy = compile_query(parse_formula("!P(b1) | (exists s: Ship. P(s))", objects=["b1"]))
    assert lazy(empty) == [()]
    with pytest.raises(LogicError):
        lazy(state)


def test_deep_formulas_match_reference():
    """About 450 alternating And/Or levels, quantifiers among them, past the parser's nesting limit."""
    rng = random.Random(32)
    quantified = {i: (f"d{i}", "Box" if i % 120 == 30 else "City") for i in range(30, 450, 60)}
    f = Atom("In", (Var("b"), Var("c")))
    for i in range(450):
        scope = tuple(v for j, v in quantified.items() if j >= i)
        f = (And if i % 2 else Or)((typed_formula(rng, 0, scope), f))
        if i in quantified:
            f = (Exists if i % 120 == 30 else Forall)(*quantified[i], f)
    variables = [v for v in QUERY_VARS if v[0] in free_vars(f)]
    query = compile_query(f, variables, QUERY_PARAMS)
    cases = []
    for _ in range(12):
        state = query_state(rng)
        args = (rng.choice(QUERY_POOLS["Box"]), rng.choice(QUERY_POOLS["City"]))
        cases.append((state, args, query(StateIndex(state), args)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))  # the reference interpreter recurses per level
    try:
        for state, args, got in cases:
            g = replace_objects(f, dict(zip(QUERY_PARAMS, args)))
            want = reference.satisfying_bindings(g, state, variables)
            assert got == [tuple(b[n] for n, _ in variables) for b in want]
    finally:
        sys.setrecursionlimit(limit)
    assert 0 < sum(bool(got) for _, _, got in cases) < 12


def closed_quantifier(rng: random.Random, depth: int = 2, inner: Sequence = ()) -> Formula:
    """An ∃ or ∀ with no free variable; it may name QUERY_PARAMS.

    A depth past `_MAX_NESTING` alternates And/Or per level and splices the
    `inner` closed quantifiers among the levels.
    """
    vtype = rng.choice(TYPES + (None,))
    body = typed_formula(rng, min(depth, 2), (("y", vtype),))
    for i in range(depth - 2):
        part = rng.choice(inner) if inner and i % 15 == 7 else typed_formula(rng, 0, (("y", vtype),))
        body = (And if i % 2 else Or)((part, body))
    return implicit_close((Exists if rng.random() < 0.5 else Forall)("y", vtype, body), dict(QUERY_VARS))


def spliced(rng: random.Random, f: Formula, closed: Sequence) -> Formula:
    """f beside closed quantifiers, each under an Or with a part that depends on the query variables."""
    parts = [f]
    for c in rng.sample(list(closed), 2):
        guard = typed_formula(rng, 1)
        parts.append(rng.choice([Or((guard, c)), Or((Not(guard), c)), Or((c, guard))]))
    return And(tuple(parts))


def test_programs_match_plans_compiled_alone():
    """Plans sharing closed-quantifier cells, evaluated with one memo per (index, args)."""
    rng = random.Random(1982)
    shallow = [closed_quantifier(rng) for _ in range(5)]
    closed = shallow + [closed_quantifier(rng, 3 * _MAX_NESTING, shallow)]
    found = 0
    for start in range(0, 48, 8):
        queries = []
        for f in typed_corpus(start + 1, 8):
            g = spliced(rng, f, closed)
            variables = [v for v in QUERY_VARS if v[0] in free_vars(g)]
            rng.shuffle(variables)
            queries.append((g, variables))
        deep = reduce(lambda acc, i: (And if i % 2 else Or)((typed_formula(rng, 0), acc)), range(120), closed[0])
        queries.append((Or((deep, rng.choice(closed))), [v for v in QUERY_VARS if v[0] in free_vars(deep)]))
        writer = _QueryWriter(QUERY_PARAMS)
        plans = writer.program(queries)
        assert len(writer.cells) < writer.reads  # equal subformulas share one cell
        alone = [compile_query(g, variables, QUERY_PARAMS) for g, variables in queries]
        for _ in range(4):
            state = query_state(rng)
            args = (rng.choice(QUERY_POOLS["Box"]), rng.choice(QUERY_POOLS["City"]))
            index, memo = StateIndex(state), {}
            order = list(range(len(queries)))
            rng.shuffle(order)
            got = {i: plans[i](index, args, memo) for i in order}
            assert memo and set(memo) <= set(range(len(writer.cells)))
            assert [plan(index, args, memo) for plan in plans] == [got[i] for i in range(len(plans))]
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(limit, 5000))  # the reference interpreter recurses per level
            try:
                for i, (g, variables) in enumerate(queries):
                    renamed = replace_objects(g, dict(zip(QUERY_PARAMS, args)))
                    want = reference.satisfying_bindings(renamed, state, variables)
                    assert got[i] == alone[i](index, args) == [tuple(b[n] for n, _ in variables) for b in want]
                    found += bool(want)
            finally:
                sys.setrecursionlimit(limit)
    assert found >= 40 and 6 * 4 * 9 - found >= 40


def test_cells_fill_lazily():
    """A closed quantifier of an undeclared type raises only once reached, and a raise stores nothing."""
    ship = parse_formula("exists s: Ship. P(s)")
    per_box = And((Atom("P", (Var("b"),)), Or((Eq(Var("b"), Obj("b2")), ship))))
    plans = compile_program([(Or((Not(Atom("P", (Obj("b1"),))), ship)), ()), (per_box, [("b", "Box")])])
    empty = StateIndex(make_state([], Universe.of(QUERY_POOLS)))
    memo = {}
    assert plans[0](empty, (), memo) == [()] and plans[1](empty, (), memo) == [] and memo == {}
    held = StateIndex(make_state([("P", "b1")], Universe.of(QUERY_POOLS)))
    for plan in plans:
        with pytest.raises(LogicError):
            plan(held, (), memo)
        assert memo == {}


def test_query_with_many_variables():
    """More variables than CPython nests loops in one function."""
    variables = [(f"x{i}", "Box") for i in range(24)]
    chain = [Eq(Var(f"x{i}"), Var(f"x{i + 1}")) for i in range(23)]
    f = And((*chain, Atom("P", (Var("x0"),)), Atom("In", (Var("x23"), Obj("c1")))))
    atoms = [("P", "b1"), ("P", "b2"), ("In", "b2", "c1"), ("In", "b3", "c1")]
    got = compile_query(f, variables)(StateIndex(make_state(atoms, Universe.of(QUERY_POOLS))))
    assert got == [("b2",) * 24]


# names that close a string literal, escape, break the line or are code themselves
HOSTILE = {
    "P": 'P", __import__("builtins").setattr(__import__("builtins"), "HOSTILE_RAN", 1), "',
    "R": "R'] or __import__('os') or ['",
    "In": "In\\",
    "K": "K\n)\nimport os\n(",
    "Box": "Box')), __import__('builtins').setattr(__import__('builtins'), 'HOSTILE_RAN', 1), (('",
    "City": 'City"""',
    "Truck": "Truck\\'",
    "b1": '__import__("builtins").setattr(__import__("builtins"), "HOSTILE_RAN", 1)',
    "c1": "c1' + '",
    "k1": "k\x00\u00e9\r",
    "o1": "o1 == o1",
    "b": "b) or (1",
    "c": "lambda: 0",
    "k": "k\n",
    "u": "__import__",
}


def hostile(name: str) -> str:
    return HOSTILE.get(name, name + '", __import__("os"), "')


def renamed(f: Formula) -> Formula:
    """f with every predicate, type, variable and object name made hostile."""

    def term(t):
        return type(t)(hostile(t.name))

    if isinstance(f, Atom):
        return Atom(hostile(f.pred), tuple(map(term, f.args)))
    if isinstance(f, Eq):
        return Eq(term(f.left), term(f.right))
    if isinstance(f, Not):
        return Not(renamed(f.sub))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map(renamed, f.parts)))
    if isinstance(f, (Exists, Forall)):
        return type(f)(hostile(f.var), f.vtype and hostile(f.vtype), renamed(f.body))
    return f


def test_hostile_names_evaluate_as_data():
    rng = random.Random(21)
    pools = {hostile(t): tuple(map(hostile, objs)) for t, objs in QUERY_POOLS.items()}
    ground = [(hostile(a[0]), *map(hostile, a[1:])) for a in QUERY_GROUND]
    params = tuple(map(hostile, QUERY_PARAMS))
    found = 0
    for f in typed_corpus(23, 80):
        g = renamed(f)
        variables = [(hostile(n), t and hostile(t)) for n, t in QUERY_VARS if n in free_vars(f)]
        query = compile_query(g, variables, params)
        for _ in range(3):
            state = make_state([a for a in ground if rng.random() < 0.4], Universe.of(pools))
            args = (rng.choice(pools[hostile("Box")]), rng.choice(pools[hostile("City")]))
            want = reference.satisfying_bindings(replace_objects(g, dict(zip(params, args))), state, variables)
            assert query(StateIndex(state), args) == [tuple(b[n] for n, _ in variables) for b in want]
            found += bool(want)
    assert not hasattr(builtins, "HOSTILE_RAN")
    assert 60 <= found <= 180


# objects that a split variable x is compared with: the parameters, b3 (a Box), k1 (a Truck) and o9 (in no pool)
SPLIT_PARTNERS = (Obj("b1"), Obj("c1"), Obj("b3"), Obj("k1"), Obj("o9"))


def split_formula(rng: random.Random, partners: Sequence, depth: int = 3) -> Formula:
    """A formula over the QUERY_VARS in which x occurs only in equalities with `partners`."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.45:
            t = rng.choice(partners)
            return rng.choice([Eq(Var("x"), t), Eq(t, Var("x"))])
        return typed_formula(rng, 1)
    kind = rng.choice(["not", "and", "or", "and", "or", "quantifier"])
    if kind == "not":
        return Not(split_formula(rng, partners, depth - 1))
    if kind == "quantifier":
        vtype = rng.choice(TYPES)
        body = (And, Or)[rng.random() < 0.5]((split_formula(rng, partners, depth - 1), typed_formula(rng, 0, (("x0", vtype),))))
        return rng.choice([Exists, Forall])("x0", vtype, body)
    return (And if kind == "and" else Or)(tuple(split_formula(rng, partners, depth - 1) for _ in range(rng.randint(2, 3))))


def test_class_split_matches_reference():
    """Plans split by the classes of a variable met only in equalities, against the interpreter."""
    rng = random.Random(2003)
    objects = sorted({o for pool in QUERY_POOLS.values() for o in pool} | {"o9"})
    seen = {"split": 0, "one partner": 0, "several partners": 0, "partner outside": 0, "aliased": 0, "rebound": 0}
    for i in range(160):
        partners = rng.sample(SPLIT_PARTNERS, rng.randint(1, 3)) if i % 3 else list(SPLIT_PARTNERS[:2])
        f = split_formula(rng, partners)
        rebound = i % 8 == 0  # a binder reuses x's name beside a query variable: no split
        if rebound:
            f = And((f, Or((Atom("R", (Var("c"),)), Exists("x", "Box", Atom("P", (Var("x"),)))))))
        xtype = rng.choice(("Box", "City", None))
        rest = [v for v in QUERY_VARS if v[0] in free_vars(f)]
        rng.shuffle(rest)
        variables = [("x", xtype), *rest]
        writer = _QueryWriter(QUERY_PARAMS)
        (query,) = writer.program([(f, variables)])
        split = any("for r in [{}]" in line for line in writer.lines)
        named = {t for g in nodes(f) if isinstance(g, Eq) and Var("x") in (g.left, g.right) for t in (g.left, g.right)}
        named.discard(Var("x"))
        assert split == (not rebound), format_formula(f)
        seen["split"] += split
        seen["rebound"] += rebound
        seen["one partner" if len(named) == 1 else "several partners"] += split and bool(named)
        pool = Universe.of(QUERY_POOLS).pool(xtype)
        for _ in range(4):
            state = query_state(rng)
            args = (rng.choice(pool),) * 2 if rng.random() < 0.4 else (rng.choice(objects), rng.choice(objects))
            renamed = dict(zip(QUERY_PARAMS, args))
            want = reference.satisfying_bindings(replace_objects(f, renamed), state, variables)
            assert query(StateIndex(state), args) == [tuple(b[n] for n, _ in variables) for b in want], format_formula(f)
            objs = {renamed.get(t.name, t.name) for t in named}
            seen["partner outside"] += split and bool(objs - set(pool))
            seen["aliased"] += split and args[0] == args[1] and {Obj("b1"), Obj("c1")} <= named and args[0] in pool
    assert seen["rebound"] == 20 and seen["split"] == 140, seen
    assert min(seen.values()) >= 15, seen


def test_split_class_reaches_an_undeclared_type_only_with_members():
    """Class rows are worked out only for a class that has a member."""
    ship = Exists("s", "Ship", Atom("P", (Var("s"),)))
    f = Or((And((Eq(Var("x"), Obj("b1")), ship)), Atom("R", (Var("c"),))))
    variables = [("x", "Box"), ("c", "City")]
    plan = compile_query(f, variables, QUERY_PARAMS)
    state = make_state([("R", "c2")], Universe.of(QUERY_POOLS))
    for args in (("k1", "c1"), ("c2", "c2")):  # no Box equals b1's object: its class is empty
        want = reference.satisfying_bindings(replace_objects(f, dict(zip(QUERY_PARAMS, args))), state, variables)
        assert plan(StateIndex(state), args) == [(b["x"], b["c"]) for b in want] == [(b, "c2") for b in QUERY_POOLS["Box"]]
    with pytest.raises(LogicError):
        reference.satisfying_bindings(replace_objects(f, {"b1": "b2", "c1": "c1"}), state, variables)
    with pytest.raises(LogicError):
        plan(StateIndex(state), ("b2", "c1"))


def test_fold_constants_decides_no_equality_of_distinct_names():
    rng = random.Random(1993)
    assert fold_constants(parse_formula("b1 = c1 & (P(b1) | b1 = b1)", objects=["b1", "c1"])) == parse_formula("b1 = c1", objects=["b1", "c1"])
    objects = sorted({o for pool in QUERY_POOLS.values() for o in pool})
    for f in typed_corpus(93, 120) + [split_formula(rng, SPLIT_PARTNERS) for _ in range(120)]:
        g = fold_constants(f)
        variables = [v for v in (("x", "Box"), *QUERY_VARS) if v[0] in free_vars(f)]
        for _ in range(3):
            state = query_state(rng)
            args = (rng.choice(objects),) * 2 if rng.random() < 0.5 else (rng.choice(objects), rng.choice(objects))
            renamed = dict(zip(QUERY_PARAMS, args))
            binding = {n: rng.choice(state.universe.pool(t)) for n, t in variables}
            truth = reference.eval_in_state(replace_objects(f, renamed), state, binding)
            assert reference.eval_in_state(replace_objects(g, renamed), state, binding) is truth, format_formula(f)


def test_forall_reads_the_cell_of_its_exists_dual():
    """∀v. φ reads the cell of its ∃ dual, negated."""
    found = parse_formula("exists y: Truck. K(y) & In(b1, c1)", objects=["b1", "c1"])
    none = parse_formula("forall y: Truck. !K(y) | !In(b1, c1)", objects=["b1", "c1"])
    queries = [(Or((Atom("P", (Var("b"),)), g)), [("b", "Box")]) for g in (found, none, none)]
    writer = _QueryWriter(QUERY_PARAMS)
    plans = writer.program(queries)
    assert len(writer.cells) == 1 and writer.reads == 3
    rng = random.Random(17)
    for _ in range(20):
        state = query_state(rng)
        args = (rng.choice(QUERY_POOLS["Box"]), rng.choice(QUERY_POOLS["City"]))
        memo, index = {}, StateIndex(state)
        for plan, (g, variables) in zip(plans, queries):
            want = reference.satisfying_bindings(replace_objects(g, dict(zip(QUERY_PARAMS, args))), state, variables)
            assert plan(index, args, memo) == [(b["b"],) for b in want]
        assert list(memo) == [0]


# a three-place predicate, so that a guard can name the scanned variable at each position
SCAN_SIG = {**TYPED_SIG, "L": ("Box", "Truck", "City")}
SCAN_KEYS = {"Box": (Obj("b1"), Obj("b3")), "City": (Obj("c1"), Obj("c2")), "Truck": (Obj("k1"), Obj("k2"))}
SCAN_GROUND = [("L", *args) for args in itertools.product(*(QUERY_POOLS[t] for t in SCAN_SIG["L"]))]
# ill-typed atoms, whose column entries hold objects outside the scanned pool
SCAN_NOISE = [("K", "b2"), ("P", "o9"), ("R", "k1"), ("In", "b1", "k2"), ("In", "o9", "c1"), ("L", "b3", "c2", "c1")]


def scan_formula(rng: random.Random) -> tuple:
    """(f, whether q's guard can bind y, guard): f holds one quantifier q, an open ∃ or ∀ over y with a guard atom."""
    pos = rng.randrange(3)
    pred = rng.choice(sorted(p for p, types in SCAN_SIG.items() if len(types) > pos))
    objects = rng.random() < 0.85  # else the key may hold a query variable, and the pool scan stays
    key = [rng.choice(SCAN_KEYS[t]) if objects else typed_term(rng, t, ()) for t in SCAN_SIG[pred]]
    key[pos] = Var("y")
    guard, scope = Atom(pred, tuple(key)), (("y", SCAN_SIG[pred][pos]),)
    rest = rng.choice([And, Or])((Atom("R", (Var("c"),)), typed_formula(rng, 0, scope), typed_formula(rng, 0, scope)))
    first = rng.random() < 0.8  # else the guard is the body's second part, and the pool scan stays
    if rng.random() < 0.5:
        q = Exists("y", SCAN_SIG[pred][pos], And((guard, rest) if first else (rest, guard)))
    else:
        q = Forall("y", SCAN_SIG[pred][pos], Or((Not(guard), rest) if first else (rest, Not(guard))))
    f = rng.choice([q, And((typed_formula(rng, 0), q)), Or((typed_formula(rng, 0), q))])
    return f, first and all(isinstance(t, Obj) for t in key if t != Var("y")), guard


def test_column_scans_match_reference():
    """Quantifiers that loop over a guard's column candidates, against the interpreter."""
    rng = random.Random(1979)
    objects = sorted({o for pool in QUERY_POOLS.values() for o in pool})
    seen = {f"{kind} at {pos}": 0 for kind in "∃∀" for pos in range(3)}
    seen.update({k: 0 for k in ("pool scan", "object key", "parameter key", "aliased", "empty", "non-empty")})
    for _ in range(300):
        f, bound, guard = scan_formula(rng)
        variables = [v for v in QUERY_VARS if v[0] in free_vars(f)]
        rng.shuffle(variables)
        writer = _QueryWriter(QUERY_PARAMS)
        (query,) = writer.program([(f, variables)])
        source = "\n".join(writer.lines)
        scanned = "fill(m, " in source
        q = next(g for g in nodes(f) if isinstance(g, (Exists, Forall)))
        if "for r in [{}]" not in source:  # a class split folds q's body per class
            assert scanned == bound, format_formula(f)
        if not scanned:
            seen["pool scan"] += 1
        key = {t.name for t in guard.args if isinstance(t, Obj)}
        for _ in range(4):
            state = query_state(rng)
            state = make_state(state.atoms | {a for a in SCAN_GROUND + SCAN_NOISE if rng.random() < 0.3}, state.universe)
            args = (rng.choice(objects),) * 2 if rng.random() < 0.3 else (rng.choice(objects), rng.choice(objects))
            renamed = dict(zip(QUERY_PARAMS, args))
            want = reference.satisfying_bindings(replace_objects(f, renamed), state, variables)
            assert query(StateIndex(state), args) == [tuple(b[n] for n, _ in variables) for b in want], format_formula(f)
            if scanned:
                pool = state.universe.pool(q.vtype)
                cands = [o for o in pool if reference.eval_in_state(replace_objects(guard, renamed), state, {"y": o})]
                seen["empty" if not cands else "non-empty"] += 1
                seen["aliased"] += args[0] == args[1] and bool(key & set(QUERY_PARAMS))
        if scanned:
            seen[f"{'∃' if isinstance(q, Exists) else '∀'} at {guard.args.index(Var('y'))}"] += 1
            seen["parameter key"] += bool(key & set(QUERY_PARAMS))
            seen["object key"] += bool(key - set(QUERY_PARAMS))
    assert min(seen.values()) >= 25, seen


def test_column_scan_reaches_an_undeclared_type_where_the_pool_scan_did():
    """Candidates read `pools[T]` when the quantifier is reached, empty or not; a raise stores nothing."""
    guard = Atom("In", (Obj("b1"), Var("s")))
    for q in (Exists("s", "Ship", And((guard, Atom("R", (Var("c"),))))), Forall("s", "Ship", Or((Not(guard), Atom("R", (Var("c"),)))))):
        f = And((Atom("P", (Var("b"),)), q))
        variables = [("b", "Box"), ("c", "City")]
        writer = _QueryWriter(QUERY_PARAMS)
        (plan,) = writer.program([(f, variables)])
        assert "fill(m, " in "\n".join(writer.lines)
        for atoms in ([], [("P", "b2")], [("P", "b2"), ("In", "b1", "c2")], [("In", "b1", "c2")]):
            state = make_state(atoms, Universe.of(QUERY_POOLS))
            memo = {}
            try:
                want = reference.satisfying_bindings(f, state, variables)
            except LogicError:
                with pytest.raises(LogicError):
                    plan(StateIndex(state), ("b1", "c1"), memo)
                assert memo == {} and ("P", "b2") in atoms
            else:
                assert plan(StateIndex(state), ("b1", "c1"), memo) == [(b["b"], b["c"]) for b in want] == []


def test_column_scans_share_a_cell_only_within_one_pool():
    """Two scans of one column entry over different pools get a cell each."""
    f = parse_formula("(exists y. K(y) & !P(y)) & (forall y: Truck. !K(y) | y != b2 | R(c))", objects=["b2"])
    writer = _QueryWriter(())
    (plan,) = writer.program([(f, [("c", "City")])])
    assert "\n".join(writer.lines).count("fill(m, ") == 2 and len(writer.cells) == 2
    for atoms in ([("K", "k1"), ("R", "c2")], [("K", "b2"), ("K", "k1"), ("R", "c1")], [("K", "b2"), ("R", "c2")]):
        state = make_state(atoms, Universe.of(QUERY_POOLS))
        want = reference.satisfying_bindings(f, state, [("c", "City")])
        assert plan(StateIndex(state)) == [(b["c"],) for b in want]


@pytest.mark.parametrize("first", ["fomdp.query", "fomdp.logic"])
def test_query_and_logic_import_in_either_order(first):
    """`logic` reaches `query` only inside its one-off evaluators, so neither import order meets a cycle."""
    code = (
        f"import {first}\n"
        "from fomdp import logic\n"
        "state = logic.make_state([('P', 'b1')], logic.Universe.of({'Box': ['b1', 'b2']}))\n"
        "print(logic.eval_in_state(logic.parse_formula('exists b: Box. P(b)'), state))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "True\n"


# ---------------------------------------------------------------------------
# simplification


def test_simplify_absorption():
    f = parse_formula("(P & Q) | (P & !Q)")
    assert simplify_bdd(f, ConsistencyChecker()) == Atom("P")


def test_simplify_closed_tautology():
    phi = parse_formula("exists x. P(x) & Q(x, x)")
    assert simplify_bdd(Or((phi, Not(phi))), ConsistencyChecker()) == TRUE


def test_simplify_shares_duplicated_subformula():
    # the same closed subformula appearing twice collapses to one atom
    e = parse_formula("exists x. P(x)")
    a = Atom("A")
    f = Or((And((e, a)), And((e, Not(a)))))
    assert simplify_bdd(f, ConsistencyChecker()) == normalize(e)
    # frozen from oracle_equivalent at bound 2
    assert oracle_equivalent(f, e, {"P": 1, "A": 0}, 2) is True


def test_simplify_shares_alpha_variant_subformulas():
    f = Or((parse_formula("exists x. P(x)"), parse_formula("!(exists y. P(y))")))
    assert simplify_bdd(f, ConsistencyChecker()) == TRUE


def test_simplify_one_point_rule():
    f = parse_formula("exists x. x = a & P(x)", objects=["a"])
    assert simplify_bdd(f, ConsistencyChecker()) == Atom("P", (Obj("a"),))
    g = parse_formula("exists x. x = a", objects=["a"])
    assert simplify_bdd(g, ConsistencyChecker()) == TRUE


def test_simplify_pushes_quantifiers_inward():
    f = parse_formula("exists x. P(x) | R")
    g = push_quantifiers(normalize(f))
    # R does not depend on x, so the quantifier splits over the disjunction
    assert normalize(g) == normalize(Or((Exists("x", None, Atom("P", (Var("x"),))), Atom("R"))))


def test_push_quantifiers_on_a_shared_subformula():
    # one object under binders of two types: the typed one-point rule applies under one only
    x, p = Var("x"), Var("p")
    shared = Exists("p", "Box", And((Eq(p, x), Atom("P", (p,)))))
    f = And((Exists("x", "Box", shared), Exists("x", "City", shared)))
    got = push_quantifiers(f, {})
    assert got == push_quantifiers(fresh_copy(f), {})
    assert got.parts[0] == Exists("x", "Box", Atom("P", (x,))) and got.parts[1] == f.parts[1]


def test_simplify_preserves_truth_on_corpus():
    pool = ["a", "b"]  # corpus objects must belong to the universe
    for f in corpus(30, 3):
        g = simplify_bdd(f, ConsistencyChecker())
        fv = sorted(free_vars(f) | free_vars(g))
        for state in all_states(PREDS, pool):
            for combo in itertools.product(pool, repeat=len(fv)):
                b = dict(zip(fv, combo))
                assert eval_in_state(f, state, b) == eval_in_state(g, state, b), format_formula(f)


def test_simplify_atom_overflow_returns_input(monkeypatch):
    parts = tuple(Atom(f"P{i}") for i in range(8))
    f = Or(parts)
    assert simplify_bdd(f, ConsistencyChecker()) is not f
    monkeypatch.setattr(logic, "BDD_MAX_ATOMS", 4)
    assert simplify_bdd(f, ConsistencyChecker()) is f


def test_simplify_read_back_overflow_returns_input():
    # the BDD of an Or of k two-atom Ands is linear in k, but read back as a
    # tree it has 2^(k+1) - 2 nodes; k = 18 once took 46 s to simplify
    f = Or(tuple(And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(18)))
    t0 = time.perf_counter()
    assert simplify_bdd(f, ConsistencyChecker()) is f
    assert time.perf_counter() - t0 < 2.0
    # a quantifier body past the limit is kept, and the level above it is still read back
    body = Or(tuple(And((Atom(f"A{i}", (Var("x"),)), Atom(f"B{i}", (Var("x"),)))) for i in range(18)))
    g = Or((Forall("x", None, body), Atom("R"), Atom("Q")))
    assert simplify_bdd(g, ConsistencyChecker()) == normalize(g)
    small = Or(tuple(And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(4)))
    assert simplify_bdd(small, ConsistencyChecker()) is not small


def alpha_variant(f: Formula, tag: str = "r") -> Formula:
    """f with every bound variable renamed."""
    if isinstance(f, (Exists, Forall)):
        var = f.var + tag
        return type(f)(var, f.vtype, alpha_variant(substitute(f.body, {f.var: Var(var)}), tag))
    if isinstance(f, Not):
        return Not(alpha_variant(f.sub, tag))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(alpha_variant(p, tag) for p in f.parts))
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
def test_simplify_matches_two_pass_reference(monkeypatch, max_atoms):
    # each side gets its own copy, so nothing one run caches reaches the other
    formulas, twins = bdd_corpus(11), bdd_corpus(11)
    assert len(formulas) >= 200
    overflowed = 0
    monkeypatch.setattr(logic, "BDD_MAX_ATOMS", max_atoms)
    for f, twin in zip(formulas, twins):
        want = reference_simplify_bdd(twin, max_atoms)
        assert simplify_bdd(f, ConsistencyChecker()) == want, format_formula(f)
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
        # without a checker, every call gets a new one and so fresh tables
        items, out = inputs(), {}
        for i in order:
            chk = ConsistencyChecker() if checker is None else checker
            if isinstance(items[i], list):
                out[i] = disjoint_regions(items[i], chk)
                continue
            if checker is not None:
                checker.check(items[i])  # the lifted pass shares the tables too
            out[i] = simplify_bdd(items[i], chk)
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
