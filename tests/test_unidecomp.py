"""Decomposed universal-goal decisions against the per-goal renaming path."""

import builtins
import random
import re
from dataclasses import replace

import pytest

import serve_reference
import state_reference
from fomdp import logic, query, unidecomp
from fomdp.basisgen import BasisGenConfig, generate_basis
from fomdp.domains import load_fixture
from fomdp.logic import ActTerm, ConsistencyChecker, Obj, Universe, make_state
from fomdp.sitcalc import apply_action
from fomdp.unidecomp import (
    UnidecompError,
    build_generic_q,
    goal_satisfied,
    make_generic_goal,
    score_actions,
    select_action,
    substitute_goal,
)


@pytest.fixture(scope="module")
def solved():
    """Generic-goal boxworld and its value function, solved cold with FOAPI (iters=2)."""
    model = make_generic_goal(load_fixture("boxworld_mini")[0])
    model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
    lvf, _ = generate_basis(model, BasisGenConfig(iters=2, solver="foapi"))
    return model, lvf


@pytest.fixture(scope="module")
def served(solved):
    """The solved model and its Q cases."""
    model, lvf = solved
    return model, build_generic_q(model, lvf)


def random_instance(rng: random.Random):
    """A boxworld state and goal list: 3-8 boxes, 1-2 trucks, 3-4 cities.

    Some boxes start in their destination, and some listed goals name a
    city that is not the box's destination; both goals hold already.
    """
    boxes = [f"box{i}" for i in range(1, rng.randint(3, 8) + 1)]
    trucks = [f"truck{i}" for i in range(1, rng.randint(1, 2) + 1)]
    cities = [f"city{i}" for i in range(1, rng.randint(3, 4) + 1)]
    atoms = {("snow", c) for c in cities if rng.random() < 0.5}
    atoms |= {("TAt", t, rng.choice(cities)) for t in trucks}
    goals = []
    for b in boxes:
        dst = rng.choice(cities)
        atoms.add(("Dst", b, dst))
        goals.append((b, dst))
        if rng.random() < 0.3:
            atoms.add(("BIn", b, dst))
        elif rng.random() < 0.5:
            atoms.add(("On", b, rng.choice(trucks)))
        else:
            atoms.add(("BIn", b, rng.choice(cities)))
        if rng.random() < 0.2:
            goals.append((b, rng.choice([c for c in cities if c != dst])))
    rng.shuffle(goals)
    pools = {"Box": boxes, "Truck": trucks, "City": cities}
    return make_state(atoms, Universe.of(pools)), tuple(goals)


def random_walk(model, state, rng: random.Random, steps: int):
    """The state after `steps` random ground outcomes, applied symbolically."""
    sig = model.signature()
    for _ in range(steps):
        action = model.action(rng.choice(model.action_names()))
        args = tuple(Obj(rng.choice(state.universe.pool(t))) for _, t in action.params)
        outcome = rng.choice(action.choices).name
        state = apply_action(ActTerm(outcome, args), state, model.ssas, sig)
    return state


def test_scores_match_renaming_reference(served):
    model, qset = served
    rng = random.Random(2012)
    renamed: dict = {}
    decided = some_satisfied = all_satisfied = 0
    for _ in range(210):
        state, goals = random_instance(rng)
        state = random_walk(model, state, rng, rng.randint(0, 3))
        held = [serve_reference.goal_satisfied(qset, g, state) for g in goals]
        assert [goal_satisfied(qset, g, state) for g in goals] == held
        if all(held):
            all_satisfied += 1
            with pytest.raises(UnidecompError, match="already satisfied"):
                score_actions(qset, goals, state)
            continue
        some_satisfied += any(held)
        want = serve_reference.score_actions(qset, goals, state, renamed)
        assert score_actions(qset, goals, state) == want
        assert select_action(qset, goals, state) == serve_reference.best_action(want)
        decided += 1
    assert decided >= 200 and some_satisfied >= 100


def test_q_set_compiles_as_one_program(solved, monkeypatch):
    """The goal and every witness body share one program and one `compile()`."""
    model, lvf = solved
    programs, compiles = [], []

    def program(queries, params=()):
        programs.append(len(queries))
        return query.compile_program(queries, params)

    def counted(*args, **kwargs):
        compiles.append(args[1])  # the file name
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(unidecomp, "compile_program", program)
    monkeypatch.setattr(query, "compile", counted, raising=False)
    qset = build_generic_q(model, lvf)
    witnesses = sum(len(parts) for _, parts in qset.plans)
    assert programs == [1 + witnesses] and witnesses >= 10
    assert compiles == ["<query>"]


def test_substituted_qset_scores_its_own_goal(served):
    model, qset = served
    state, goals = random_instance(random.Random(5))
    goal = next(g for g in goals if not goal_satisfied(qset, g, state))
    inst = substitute_goal(qset, goal, state.universe)
    assert inst.constants == goal
    assert score_actions(inst, [goal], state) == score_actions(qset, [goal], state)


@pytest.mark.parametrize(
    "bad, message",
    [
        (("city1", "box1"), "city1 is not a Box"),
        (("box1", "truck1"), "truck1 is not a City"),
        (("box1",), "has 1 objects for 2 goal variables"),
    ],
)
def test_bad_goal_raises_typed_error(served, bad, message):
    _, qset = served
    state = make_state(
        {("Dst", "box1", "city2"), ("BIn", "box1", "city1"), ("TAt", "truck1", "city1")},
        Universe.of({"Box": ["box1"], "Truck": ["truck1"], "City": ["city1", "city2"]}),
    )
    with pytest.raises(UnidecompError, match=message):
        select_action(qset, (bad,), state)
    # next to a valid goal it is not dropped from the average either
    with pytest.raises(UnidecompError, match=message):
        score_actions(qset, (("box1", "city2"), bad), state)


def captured_program(model, lvf, monkeypatch, base=None, goal=None):
    """A Q set with its program's (queries, source): build_generic_q's, or base's Q cases compiled for `goal`."""
    calls = []

    def program(queries, params=()):
        calls.append(list(queries))
        return query.compile_program(queries, params)

    def counted(*args, **kwargs):
        calls.append(args[0])  # the source
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(unidecomp, "compile_program", program)
    monkeypatch.setattr(query, "compile", counted, raising=False)
    if base is None:
        qset = build_generic_q(model, lvf)
    else:
        qset = unidecomp._compiled(base.variables, base.constants, goal, base.qcases)
    monkeypatch.undo()
    queries, source = calls
    return qset, queries, source


# per template, the ranks (by descending value) of the partitions that a false goal rules out
RULED_OUT = {"drive": [0], "load": [0, 1], "noop": [0], "unload": [0]}


def test_plans_answer_only_where_the_goal_is_false(solved, monkeypatch):
    """¬goal is Dst(b_star, c_star) & !BIn(b_star, c_star): 5 of 20 partitions fold to false and get no plan."""
    model, lvf = solved
    qset, queries, source = captured_program(model, lvf, monkeypatch)
    assert logic.format_formula(logic.fold_constants(logic.negation(qset.goal))) == "Dst(b_star, c_star) & !BIn(b_star, c_star)"
    ranked = {name: sorted(q.partitions, key=lambda p: -p.value) for name, q in qset.qcases}
    assert sum(map(len, ranked.values())) == 20 and len(queries) == 1 + 15
    kept = {name: [p for i, p in enumerate(ps) if i not in RULED_OUT[name]] for name, ps in ranked.items()}
    assert {name: [v for v, _ in parts] for name, parts in qset.plans} == {n: [p.value for p in ps] for n, ps in kept.items()}
    # witness bodies are specialised, in the order of the plans; the goal query is not
    assert [vs for _, vs in queries[:-1]] == [p.bind_vars for _, ps in kept.items() for p in ps]
    assert all(body != p.bind_body for (body, _), p in zip(queries, (p for ps in kept.values() for p in ps)))
    assert queries[-1] == (qset.goal, ())
    # one closed-quantifier cell: the truck scan and its ∀ dual share it
    assert source.count("\n    def c") == 1 and source.count("\n    def p") == 16 and len(source) <= 18136
    # a ruled-out body has no binding in any state where the goal is false
    rng = random.Random(20)
    ruled_out = [p for name, ps in ranked.items() for i, p in enumerate(ps) if i in RULED_OUT[name]]
    false_goals = 0
    for _ in range(40):
        state, goals = random_instance(rng)
        state = random_walk(model, state, rng, rng.randint(0, 3))
        for g in goals:
            if serve_reference.goal_satisfied(qset, g, state):
                continue
            false_goals += 1
            renamed = dict(zip(qset.constants, g))
            for p in ruled_out:
                assert not state_reference.satisfying_bindings(logic.replace_objects(p.bind_body, renamed), state, p.bind_vars)
    assert false_goals >= 100


def test_truck_quantifiers_loop_over_column_candidates(solved, monkeypatch):
    """Truck quantifiers scan the column of their guard, `On(b_star, q)` or `TAt(q, c_star)`, not the pool.

    The one exception is the closed cell, which runs once per memo.
    """
    model, lvf = solved
    _, _, source = captured_program(model, lvf, monkeypatch)
    pool_scans = {f.split("(")[0]: len(re.findall(r"for q\d+ in pools\['Truck'\]\)", f)) for f in source.split("\n    def ")[1:]}
    assert {name: n for name, n in pool_scans.items() if n} == {"c0": 1}
    assert source.count("pools['Truck'], column('On', 1).get((a0,), ()))") == 15
    assert source.count("pools['Truck'], column('TAt', 0).get((a1,), ()))") == 3
    assert source.count("fill(m, ") == 18


def test_goal_not_a_conjunction_of_literals_compiles_bodies_as_solved(served, monkeypatch):
    model, base = served
    goal = logic.And((base.goal, logic.Atom("snow", (Obj("c_star"),))))  # ¬goal is a disjunction
    qset, queries, _ = captured_program(model, None, monkeypatch, base, goal)
    ranked = [p for _, q in qset.qcases for p in sorted(q.partitions, key=lambda p: -p.value)]
    assert len(queries) == 1 + 20 and queries[-1] == (goal, ())
    assert all(body is p.bind_body and vs == p.bind_vars for (body, vs), p in zip(queries, ranked))
    assert [len(parts) for _, parts in qset.plans] == [len(q.partitions) for _, q in qset.qcases]
    rng, scored = random.Random(21), 0
    for _ in range(12):
        state, goals = random_instance(rng)
        if not all(serve_reference.goal_satisfied(qset, g, state) for g in goals):
            assert score_actions(qset, goals, state) == serve_reference.score_actions(qset, goals, state)
            scored += 1
    assert scored >= 10
