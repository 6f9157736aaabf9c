"""Weight solvers and policy extraction against ground enumeration."""

import re
from dataclasses import replace
from itertools import product

import pytest

from conftest import (
    all_fluent_states,
    ground_bindings,
    ground_q,
    ground_value_iteration,
    reachable_states,
)
from fomdp.cases import CaseStatement, Partition, build_case, constant_case, eval_case
from fomdp.domains import load_fixture
from fomdp.folp import FOLPError, solve_first_order_lp
from fomdp.logic import TRUE, Not, eval_in_state, make_state, normalize
from fomdp.model import LinearValueFunction
from fomdp.solvers import (
    PolicyCase,
    SolverError,
    extract_policy,
    foalp_lp,
    foalp_solve,
    foapi_solve,
    loss_bound,
)

TOL = 1e-9


def flip():
    return load_fixture("flip", "flip")


def boxworld():
    return load_fixture("boxworld_mini", "boxworld_mini")


def blocksworld():
    return load_fixture("blocksworld_mini", "blocksworld_mini")


def indicator_lvf(model):
    """Constant basis plus the reward region's indicator, weights zero."""
    goal = model.rewards["any"].partitions[0].formula
    ind = build_case(
        [Partition(goal, 1.0), Partition(normalize(Not(goal)), 0.0)], model.checker, True
    )
    return LinearValueFunction((0.0, 0.0), (constant_case(1.0), ind))


def ground_argmax(model, v, state, universe):
    """(max Q, list of maximizing (action, binding) pairs, ties within TOL)."""
    best, arg = None, []
    for name in model.action_names():
        a = model.action(name)
        for combo in ground_bindings(a, universe):
            q = ground_q(model, v, a, combo, state)
            if best is None or q > best + TOL:
                best, arg = q, [(name, tuple(combo))]
            elif abs(q - best) <= TOL:
                arg.append((name, tuple(combo)))
    return best, arg


def assert_value_bound(model, weights, lvf, states):
    v = lvf.with_weights(weights).flatten(model.checker)
    sig = model.signature()
    uni = states[0].universe
    for s in states:
        have = eval_case(v, s, signature=sig)
        for name in model.action_names():
            a = model.action(name)
            for combo in ground_bindings(a, universe=uni):
                assert ground_q(model, v, a, combo, s) <= have + 1e-6


# -- value-bound LP ------------------------------------------------------------


def test_foalp_zero_reward_weights_vanish():
    model, _ = flip()
    zeroed = replace(model, rewards={"any": constant_case(0.0)})
    w = foalp_solve(zeroed, indicator_lvf(model))
    assert w == pytest.approx((0.0, 0.0), abs=TOL)


def test_foalp_flip_weights_bound_every_ground_backup():
    model, inst = flip()
    lvf = indicator_lvf(model)
    w = foalp_solve(model, lvf)
    # unique vertex of w0 + w1 >= 100, w0 >= 7.2 w1 under min w0 + 0.5 w1
    assert w[0] == pytest.approx(720.0 / 8.2, abs=1e-6)
    assert w[1] == pytest.approx(100.0 / 8.2, abs=1e-6)
    assert_value_bound(model, w, lvf, all_fluent_states(model, inst))


def test_foalp_ground_feasibility_on_mini_domains():
    for fixture in (boxworld, blocksworld):
        model, inst = fixture()
        lvf = indicator_lvf(model)
        w = foalp_solve(model, lvf)
        assert_value_bound(model, w, lvf, reachable_states(model, inst))


def test_foalp_objective_recomputed_from_weights():
    model, _ = flip()
    lvf = indicator_lvf(model)
    w = foalp_solve(model, lvf)
    stats = solve_first_order_lp(foalp_lp(model, lvf), model.checker).stats
    sizes = [sum(p.value for p in b.partitions) / len(b.partitions) for b in lvf.bases]
    recomputed = sum(wi * si for wi, si in zip(w, sizes))
    assert recomputed == pytest.approx(stats[-1].lp_objective, abs=TOL)


def test_foalp_seed_only_infeasible_without_constant():
    # With just the reward indicator, goal states force w >= 100 while the
    # regression pays 0.72 w on zero-valued non-goal states, forcing w <= 0.
    model, _ = flip()
    goal = model.rewards["any"].partitions[0].formula
    ind = build_case(
        [Partition(goal, 1.0), Partition(normalize(Not(goal)), 0.0)], model.checker, True
    )
    lvf = LinearValueFunction((0.0,), (ind,))
    with pytest.raises(FOLPError, match="infeasible"):
        foalp_solve(model, lvf)


# -- policy extraction ---------------------------------------------------------


def test_extract_policy_matches_ground_argmax():
    for fixture in (flip, boxworld, blocksworld):
        model, inst = fixture()
        solved = indicator_lvf(model)
        solved = solved.with_weights(foalp_solve(model, solved))
        pol = extract_policy(model, solved)
        assert pol.case.partitioned
        v = solved.flatten(model.checker)
        sig = model.signature()
        uni = inst.universe()
        for s in reachable_states(model, inst):
            name, combo = pol.decide(s)
            best, arg = ground_argmax(model, v, s, uni)
            chosen = ground_q(model, v, model.action(name), combo, s)
            assert chosen == pytest.approx(best, abs=TOL)
            assert eval_case(pol.case, s, signature=sig) == pytest.approx(best, abs=TOL)
            if len(arg) == 1:
                assert (name, combo) == arg[0]


def test_policy_prefers_first_template_and_least_binding():
    model, inst = boxworld()
    lvf = indicator_lvf(model)
    pol = extract_policy(model, lvf.with_weights(foalp_solve(model, lvf)))
    # both boxes on the truck, destination city already reached: every
    # non-noop action has equal backup, so the tie falls to drive and to
    # the alphabetically least parameter witness
    atoms = {
        ("On", "box1", "tr1"),
        ("On", "box2", "tr1"),
        ("TAt", "tr1", "rome"),
        ("Dst", "box1", "rome"),
        ("Dst", "box2", "rome"),
    }
    state = make_state(atoms, inst.universe())
    hit = [p for p in pol.case.partitions if eval_in_state(p.formula, state)]
    assert len(hit) == 1
    names = tuple(n for n, _ in hit[0].bind_vars)
    pools = [state.universe.pool(t) for _, t in hit[0].bind_vars]
    witnesses = [
        c for c in product(*pools) if eval_in_state(hit[0].bind_body, state, dict(zip(names, c)))
    ]
    assert len(witnesses) > 1
    assert not pol.plans  # extraction compiles nothing; the first decision does
    assert pol.decide(state) == (hit[0].tag, min(witnesses))
    compiled = list(pol.plans)
    assert pol.decide(state) == ("drive", ("tr1", "paris", "paris"))
    assert pol.plans == compiled and len(compiled) == len(pol.case.partitions)


def test_policy_case_requires_tags_and_bodies():
    with pytest.raises(SolverError):
        PolicyCase(CaseStatement((Partition(TRUE, 1.0),), True))
    with pytest.raises(SolverError):
        PolicyCase(CaseStatement((Partition(TRUE, 1.0, "noop"),), True))


# -- policy iteration ----------------------------------------------------------


def test_foapi_flip_converges_exactly():
    model, inst = flip()
    rep = foapi_solve(model, indicator_lvf(model), 10)
    assert rep.converged
    assert all(phi >= 0.0 for phi in rep.phis)
    assert rep.phis[-1] <= 1e-6
    assert rep.loss == pytest.approx(loss_bound(rep.phis[-1], model.discount), abs=TOL)
    v = LinearValueFunction(rep.final_weights(), indicator_lvf(model).bases).flatten(model.checker)
    states = reachable_states(model, inst)
    vstar = ground_value_iteration(model, states, inst.universe())
    err = max(abs(vstar[s] - eval_case(v, s, signature=model.signature())) for s in states)
    assert err <= rep.loss + 1e-6


def test_foapi_loss_bound_holds_on_mini_domains():
    for fixture in (boxworld, blocksworld):
        model, inst = fixture()
        lvf = indicator_lvf(model)
        rep = foapi_solve(model, lvf, 12)
        assert rep.converged
        assert all(phi >= 0.0 for phi in rep.phis)
        v = LinearValueFunction(rep.final_weights(), lvf.bases).flatten(model.checker)
        states = reachable_states(model, inst)
        vstar = ground_value_iteration(model, states, inst.universe())
        sig = model.signature()
        err = max(abs(vstar[s] - eval_case(v, s, signature=sig)) for s in states)
        assert err <= rep.loss + 1e-6


def test_foapi_residual_bounds_ground_bellman_error():
    model, inst = flip()
    lvf = indicator_lvf(model)
    rep = foapi_solve(model, lvf, 10)
    assert rep.converged
    v = LinearValueFunction(rep.final_weights(), lvf.bases).flatten(model.checker)
    sig = model.signature()
    uni = inst.universe()
    for s in reachable_states(model, inst):
        best, _ = ground_argmax(model, v, s, uni)
        residual = abs(best - eval_case(v, s, signature=sig))
        assert residual <= rep.phis[-1] + 1e-6


def test_foapi_iteration_cap_reports_nonconvergence():
    model, _ = flip()
    rep = foapi_solve(model, indicator_lvf(model), 1)
    assert not rep.converged
    assert rep.loss is None
    assert len(rep.stats) == 1 and len(rep.phis) == 1
    assert rep.phis[0] >= 0.0
    with pytest.raises(SolverError):
        foapi_solve(model, indicator_lvf(model), 0)


def test_foapi_csv_lines_shape():
    model, _ = flip()
    rep = foapi_solve(model, indicator_lvf(model), 10)
    lines = rep.csv_lines()
    assert lines[0] == "iter,phi,converged,wall_ms"
    assert len(lines) == len(rep.stats) + 1
    for line in lines[1:]:
        assert re.fullmatch(r"\d+,[-+0-9.e]+,[01],\d+\.\d{3}", line)
    assert lines[-1].split(",")[2] == "1"


# -- loss bound and reporting ----------------------------------------------------


def test_loss_bound_values():
    assert loss_bound(1.0, 0.9) == pytest.approx(18.0, abs=TOL)
    assert loss_bound(0.0, 0.5) == 0.0
    assert loss_bound(3.0, 0.0) == 0.0
    with pytest.raises(SolverError):
        loss_bound(1.0, 1.0)
    with pytest.raises(SolverError):
        loss_bound(-0.5, 0.9)
