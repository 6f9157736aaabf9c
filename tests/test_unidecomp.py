"""Decomposed universal-goal decisions against the per-goal renaming path."""

import random
from dataclasses import replace

import pytest

import serve_reference
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
def served():
    """Generic-goal boxworld, solved cold with FOAPI (iters=2), and its Q cases."""
    model = make_generic_goal(load_fixture("boxworld_mini")[0])
    model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
    lvf, _ = generate_basis(model, BasisGenConfig(iters=2, solver="foapi"))
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
