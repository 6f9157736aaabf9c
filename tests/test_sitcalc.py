"""Regression tests.

The master property: regressing a formula through a deterministic action and
evaluating in s must equal evaluating the formula in the state reached by
executing the action in s.  `apply_action` is itself derived from the axioms
by direct evaluation, and both are exercised against a sizable random corpus.
Pinned regression outputs below were first computed by that ground
enumeration and then frozen.
"""

from __future__ import annotations

import itertools
import random

import pytest

import state_reference as reference
from conftest import ground_choice_actions
from fomdp.domains import load_fixture
from fomdp.logic import (
    ActTerm,
    And,
    Atom,
    ConsistencyChecker,
    Eq,
    Exists,
    Forall,
    Not,
    Obj,
    Or,
    TRUE,
    Universe,
    Var,
    eval_in_state,
    format_formula,
    free_vars,
    make_state,
    normalize,
    parse_formula,
    simplify_bdd,
    substitute,
)
from fomdp.sitcalc import (
    RegressionError,
    SuccessorStateAxiom,
    apply_action,
    regress,
    resolve_action_equalities,
)

ACTS = ["flipS", "flipF", "driveS", "driveF", "loadS", "loadF", "unloadS", "unloadF", "noopS"]


def ssa(fluent: str, params: tuple, text: str) -> SuccessorStateAxiom:
    return SuccessorStateAxiom(fluent, params, parse_formula(text, act_names=ACTS))


FLIP_SSAS = {"P": ssa("P", (), "a = flipS | (P & a != flipS)")}

BOX_SSAS = {
    "TAt": ssa(
        "TAt",
        ("t", "c"),
        "(exists c1. TAt(t, c1) & a = driveS(t, c1, c))"
        " | (TAt(t, c) & !(exists c2. c != c2 & a = driveS(t, c, c2)))",
    ),
    "On": ssa(
        "On",
        ("b", "t"),
        "(exists c. a = loadS(b, t, c) & BIn(b, c) & TAt(t, c))"
        " | (On(b, t) & !(exists c. a = unloadS(b, t, c) & TAt(t, c)))",
    ),
    "BIn": ssa(
        "BIn",
        ("b", "c"),
        "(exists t. a = unloadS(b, t, c) & On(b, t) & TAt(t, c))"
        " | (BIn(b, c) & !(exists t. a = loadS(b, t, c) & TAt(t, c)))",
    ),
}

BOX_SIG = {
    "TAt": ("Truck", "City"),
    "BIn": ("Box", "City"),
    "On": ("Box", "Truck"),
    "Dst": ("Box", "City"),
    "snow": ("City",),
}

BOX_UNI = Universe.of({"Box": ["box1", "box2"], "Truck": ["tr1"], "City": ["paris", "rome"]})


def box_ground_actions() -> list:
    cities = BOX_UNI.pool("City")
    boxes = BOX_UNI.pool("Box")
    trucks = BOX_UNI.pool("Truck")
    acts = [ActTerm("noopS")]
    for name in ("driveS", "driveF"):
        for t in trucks:
            for c1 in cities:
                for c2 in cities:
                    acts.append(ActTerm(name, (Obj(t), Obj(c1), Obj(c2))))
    for name in ("loadS", "loadF", "unloadS", "unloadF"):
        for b in boxes:
            for t in trucks:
                for c in cities:
                    acts.append(ActTerm(name, (Obj(b), Obj(t), Obj(c))))
    return acts


def random_box_state(rng: random.Random):
    atoms = []
    for pred, types in BOX_SIG.items():
        for combo in itertools.product(*[BOX_UNI.pool(t) for t in types]):
            if rng.random() < 0.45:
                atoms.append((pred, *combo))
    return make_state(atoms, BOX_UNI)


def random_box_formula(rng: random.Random, depth: int, scope: dict) -> object:
    """Random state formula over the logistics vocabulary; scope: var -> type."""

    def pick(vtype):
        cands = [v for v, t in scope.items() if t == vtype]
        if cands and rng.random() < 0.7:
            return Var(rng.choice(cands))
        return Obj(rng.choice(BOX_UNI.pool(vtype)))

    if depth <= 0 or rng.random() < 0.35:
        kind = rng.choice(["TAt", "BIn", "On", "Dst", "snow", "eq"])
        if kind == "eq":
            vtype = rng.choice(["Box", "City"])
            return Eq(pick(vtype), pick(vtype))
        types = BOX_SIG[kind]
        return Atom(kind, tuple(pick(t) for t in types))
    kind = rng.choice(["not", "and", "or", "exists", "forall"])
    if kind == "not":
        return Not(random_box_formula(rng, depth - 1, scope))
    if kind in ("and", "or"):
        parts = tuple(random_box_formula(rng, depth - 1, scope) for _ in range(2))
        return And(parts) if kind == "and" else Or(parts)
    var = f"q{len(scope)}"
    vtype = rng.choice(["Box", "Truck", "City"])
    cls = Exists if kind == "exists" else Forall
    return cls(var, vtype, random_box_formula(rng, depth - 1, {**scope, var: vtype}))


# ---------------------------------------------------------------------------
# pinned regressions


def test_flip_regression_frozen():
    p = Atom("P")
    assert regress(p, ActTerm("flipS"), FLIP_SSAS) == TRUE
    assert regress(p, ActTerm("flipF"), FLIP_SSAS) == p


def test_static_atom_unchanged():
    dst = Atom("Dst", (Var("b"), Var("c")))
    act = ActTerm("driveS", (Var("t"), Var("c1"), Var("c")))
    assert regress(dst, act, BOX_SSAS) == dst


def test_drive_regression():
    """Regressing truck location through a successful drive into city c.

    Before the drive the truck must have been at the origin c1; and if it was
    already at c, a drive ending at c leaves it there whatever the origin, so
    no constraint on c1 survives in that disjunct.  Verified against ground
    transition enumeration below; the expected formula is frozen from it.
    """
    f = Atom("TAt", (Var("t"), Var("c")))
    act = ActTerm("driveS", (Var("t"), Var("c1"), Var("c")))
    got = simplify_bdd(regress(f, act, BOX_SSAS), ConsistencyChecker())
    want = normalize(Or((Atom("TAt", (Var("t"), Var("c"))), Atom("TAt", (Var("t"), Var("c1"))))))
    assert got == want

    # ground verification of the frozen formula, all bindings and states
    rng = random.Random(5)
    for _ in range(25):
        s = random_box_state(rng)
        for tr in BOX_UNI.pool("Truck"):
            for c1 in BOX_UNI.pool("City"):
                for c in BOX_UNI.pool("City"):
                    b = {"t": tr, "c1": c1, "c": c}
                    ground = ActTerm("driveS", (Obj(tr), Obj(c1), Obj(c)))
                    after = apply_action(ground, s, BOX_SSAS, BOX_SIG)
                    assert eval_in_state(got, s, b) == eval_in_state(f, after, b)


def test_regress_distributes_over_connectives():
    def raw(f):
        # the axiom bodies put in for the leaves, normalized
        return regress(f, act, BOX_SSAS)

    rng = random.Random(9)
    act = ActTerm("driveS", (Var("t"), Var("c1"), Var("c2")))
    for _ in range(10):
        f = random_box_formula(rng, 2, {"t": "Truck", "c1": "City", "c2": "City"})
        g = random_box_formula(rng, 2, {"t": "Truck", "c1": "City", "c2": "City"})
        assert raw(And((f, g))) == normalize(And((raw(f), raw(g))))
        assert raw(Or((f, g))) == normalize(Or((raw(f), raw(g))))
        assert raw(Not(f)) == normalize(Not(raw(f)))


# ---------------------------------------------------------------------------
# master soundness property


def test_regression_soundness_corpus():
    rng = random.Random(42)
    formulas = [random_box_formula(rng, 3, {}) for _ in range(40)]
    formulas += [
        parse_formula("forall b:Box, c:City. Dst(b, c) -> BIn(b, c)"),
        parse_formula("exists b:Box, t:Truck. On(b, t)"),
        parse_formula("exists t:Truck, c:City. TAt(t, c) & snow(c)"),
        parse_formula("forall t:Truck. exists c:City. TAt(t, c)"),
        parse_formula("exists b:Box. BIn(b, paris) & !Dst(b, paris)", objects=["paris"]),
        parse_formula("forall b:Box. (exists t:Truck. On(b, t)) | (exists c:City. BIn(b, c))"),
        Atom("TAt", (Obj("tr1"), Obj("rome"))),
        And((Atom("On", (Obj("box1"), Obj("tr1"))), Not(Atom("snow", (Obj("rome"),))))),
        Eq(Obj("paris"), Obj("paris")),
        parse_formula("exists b:Box. exists c:City. BIn(b, c) & Dst(b, c)"),
    ]
    assert len(formulas) >= 50
    actions = box_ground_actions()
    states = [random_box_state(rng) for _ in range(12)]
    transitions = [(s, a, apply_action(a, s, BOX_SSAS, BOX_SIG)) for s in states for a in actions]
    for psi in formulas:
        assert not free_vars(psi), format_formula(psi)
        for act in actions:
            rho = regress(psi, act, BOX_SSAS)
            for s, a, after in transitions:
                if a != act:
                    continue
                assert eval_in_state(rho, s) == eval_in_state(psi, after), (
                    format_formula(psi),
                    format_formula(rho),
                    act,
                )


def test_apply_action_frame_and_effects():
    s = make_state([("TAt", "tr1", "paris"), ("BIn", "box1", "paris"), ("Dst", "box1", "rome")], BOX_UNI)
    loaded = apply_action(ActTerm("loadS", (Obj("box1"), Obj("tr1"), Obj("paris"))), s, BOX_SSAS, BOX_SIG)
    assert ("On", "box1", "tr1") in loaded.atoms
    assert ("BIn", "box1", "paris") not in loaded.atoms
    assert ("Dst", "box1", "rome") in loaded.atoms  # statics carry over
    driven = apply_action(ActTerm("driveS", (Obj("tr1"), Obj("paris"), Obj("rome"))), loaded, BOX_SSAS, BOX_SIG)
    assert ("TAt", "tr1", "rome") in driven.atoms and ("TAt", "tr1", "paris") not in driven.atoms
    unloaded = apply_action(ActTerm("unloadS", (Obj("box1"), Obj("tr1"), Obj("rome"))), driven, BOX_SSAS, BOX_SIG)
    assert ("BIn", "box1", "rome") in unloaded.atoms and ("On", "box1", "tr1") not in unloaded.atoms
    # failed variants change nothing
    same = apply_action(ActTerm("loadF", (Obj("box1"), Obj("tr1"), Obj("paris"))), s, BOX_SSAS, BOX_SIG)
    assert same.atoms == s.atoms


def reference_apply(act, state, ssas, signature) -> frozenset:
    """Successor atoms by substituting the action into each axiom, through the reference interpreter."""
    atoms = {a for a in state.atoms if a[0] not in ssas}
    for fname, ax in ssas.items():
        body = resolve_action_equalities(substitute(ax.body, {ax.action_var: act}))
        for b in reference.satisfying_bindings(body, state, tuple(zip(ax.params, signature[fname]))):
            atoms.add((fname, *(b[p] for p in ax.params)))
    return frozenset(atoms)


@pytest.mark.parametrize("fixture", ["boxworld_mini", "blocksworld_mini"])
def test_apply_action_matches_substituted_reference(fixture):
    """Every ground action, repeated arguments included, on random states; one plan per action shape."""
    model, _ = load_fixture(fixture)
    sig = model.signature()
    types = sorted({t for ts in sig.values() for t in ts})
    count = 3 if len(types) == 1 else 2
    universe = Universe.of({t: [f"{t.lower()}{i}" for i in range(count)] for t in types})
    objs = [Obj(o) for o in universe.pool(None)]
    acts = ground_choice_actions(model, universe) + [ActTerm("teleportS", (objs[0], objs[0], objs[-1]))]
    ground = [(p, *c) for p, ts in sig.items() for c in itertools.product(*map(universe.pool, ts))]
    rng = random.Random(17)
    for _ in range(5):
        state = make_state([a for a in ground if rng.random() < 0.4], universe)
        for act in acts:
            got = apply_action(act, state, model.ssas, sig)
            assert got.atoms == reference_apply(act, state, model.ssas, sig), act
    shapes = {(a.name, len(a.args)) for a in acts}
    for fname, ax in model.ssas.items():
        assert set(ax.plans) == {(*shape, sig[fname]) for shape in shapes}


# ---------------------------------------------------------------------------
# validation and errors


def test_action_equality_resolution():
    from fomdp.logic import FALSE

    a1 = ActTerm("driveS", (Var("t"), Var("c1"), Var("c2")))
    a2 = ActTerm("driveS", (Var("t"), Var("x"), Var("y")))
    got = normalize(resolve_action_equalities(Eq(a1, a2)))
    assert got == normalize(And((Eq(Var("c1"), Var("x")), Eq(Var("c2"), Var("y")))))
    assert resolve_action_equalities(Eq(a1, ActTerm("loadS", (Var("b"), Var("t"), Var("c"))))) == FALSE
    assert resolve_action_equalities(Eq(a1, ActTerm("noopS"))) == FALSE
    assert resolve_action_equalities(Eq(ActTerm("noopS"), ActTerm("noopS"))) == TRUE


def test_missing_ssa_for_declared_fluent():
    with pytest.raises(RegressionError):
        regress(Atom("Held", (Var("b"),)), ActTerm("noopS"), BOX_SSAS, fluents=["TAt", "Held"])


def test_ssa_arity_mismatch():
    with pytest.raises(RegressionError):
        regress(Atom("TAt", (Var("t"),)), ActTerm("noopS"), BOX_SSAS)


def test_apply_requires_ground_action():
    s = make_state([], BOX_UNI)
    with pytest.raises(RegressionError):
        apply_action(ActTerm("driveS", (Var("t"), Obj("paris"), Obj("rome"))), s, BOX_SSAS, BOX_SIG)


def test_ssa_validation_rejects_action_var_misuse():
    with pytest.raises(RegressionError):
        ssa("F", ("x",), "TAt(a, x)")
    with pytest.raises(RegressionError):
        ssa("F", ("x",), "exists a. F(x) & a = flipS")
    with pytest.raises(RegressionError):
        SuccessorStateAxiom("F", ("x",), Eq(Var("a"), Var("y")))
