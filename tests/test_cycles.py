"""Solving and serving free their garbage by reference counting alone.

A reference cycle waits for the cyclic collector, so memory would depend on
how many solves ran since the last collection.
"""

import gc
from dataclasses import replace
from functools import reduce

from fomdp.basisgen import BasisGenConfig, generate_basis
from fomdp.domains import load_fixture
from fomdp.logic import (
    ActTerm,
    And,
    ConsistencyChecker,
    Obj,
    Or,
    Universe,
    eval_in_state,
    make_state,
    parse_formula,
    satisfying_bindings,
)
from fomdp.model import LinearValueFunction
from fomdp.query import StateIndex, compile_query
from fomdp.sitcalc import apply_action
from fomdp.unidecomp import build_generic_q, make_generic_goal, score_actions


def test_solves_and_evaluation_leave_no_reference_cycles():
    flip = load_fixture("flip")[0]
    boxworld = make_generic_goal(load_fixture("boxworld_mini")[0])
    pools = {"Box": ["box1", "box2"], "Truck": ["truck1"], "City": ["city1", "city2"]}
    atoms = [("TAt", "truck1", "city1"), ("BIn", "box1", "city1"), ("On", "box2", "truck1")]
    atoms += [("Dst", "box1", "city2"), ("Dst", "box2", "city1")]
    state = make_state(atoms, Universe.of(pools))
    goals = (("box1", "city2"), ("box2", "city1"))
    held = parse_formula("exists c: City. BIn(b, c) & !Dst(b, c)")
    gc.collect()
    gc.disable()
    try:
        for solver in ("foalp", "foapi"):
            model = replace(flip, checker=ConsistencyChecker(flip.bound, flip.signature()))
            generate_basis(model, BasisGenConfig(iters=2, solver=solver))
        verdicts = [eval_in_state(held, state, {"b": b}) for b in pools["Box"]]
        found = satisfying_bindings(held, state, [("b", "Box")])
        qset = build_generic_q(boxworld, LinearValueFunction((), ()))
        scores = score_actions(qset, goals, state)
        load = ActTerm("loadS", (Obj("box1"), Obj("truck1"), Obj("city1")))
        after = apply_action(load, state, boxworld.ssas, boxworld.signature())
        leaked = gc.collect()
    finally:
        gc.enable()
    assert verdicts == [True, False] and found == [{"b": "box1"}]
    assert scores and ("On", "box1", "truck1") in after.atoms
    assert leaked == 0


def test_generated_plans_leave_no_reference_cycles():
    """A plan that compiles through helper functions, and `apply_action`'s cached plans."""
    boxworld = load_fixture("boxworld_mini")[0]
    pools = {"Box": ["box1"], "Truck": ["truck1"], "City": ["city1", "city2"]}
    state = make_state([("TAt", "truck1", "city1"), ("BIn", "box1", "city1")], Universe.of(pools))
    held = parse_formula("exists c: City. BIn(b, c)")
    deep = reduce(lambda f, i: (And if i % 2 else Or)((held, f)), range(300), held)
    load = ActTerm("loadS", (Obj("box1"), Obj("truck1"), Obj("city1")))
    gc.collect()
    gc.disable()
    try:
        plan = compile_query(deep, [("b", "Box")])
        helpers = len(plan.__closure__ or ())
        found = plan(StateIndex(state))
        ssas = {name: replace(ax) for name, ax in boxworld.ssas.items()}
        after = apply_action(load, state, ssas, boxworld.signature())
        again = apply_action(load, state, ssas, boxworld.signature())
        cached = sum(len(ax.plans) for ax in ssas.values())
        del plan, ssas
        leaked = gc.collect()
    finally:
        gc.enable()
    assert helpers and found == [("box1",)]
    assert after == again and ("On", "box1", "truck1") in after.atoms and cached == 3
    assert leaked == 0
