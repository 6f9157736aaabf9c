"""Backup operators against exhaustive one-step ground semantics."""

import random
from dataclasses import replace

import pytest

from conftest import all_fluent_states, ground_bindings, ground_q, reachable_states
from fomdp.cases import (
    case_of,
    constant_case,
    eval_case,
    eval_max,
    parse_case,
    verify_partitioned,
)
from fomdp.domains import load_fixture
from fomdp.logic import ConsistencyChecker, parse_formula
from fomdp.model import (
    ActionTemplate,
    FOMDPModel,
    LinearValueFunction,
    ModelError,
    NOOP,
    NatureChoice,
    PredicateDecl,
    backup_exists,
    backup_linear,
    backup_max,
    backup_param,
    fodtr,
)
from fomdp.sitcalc import SuccessorStateAxiom

TOL = 1e-9


def flip():
    return load_fixture("flip", "flip")


def boxworld():
    return load_fixture("boxworld_mini", "boxworld_mini")


def blocksworld():
    return load_fixture("blocksworld_mini", "blocksworld_mini")


def flip_v():
    return parse_case("{ P : 1 ; !P : 0 }", ConsistencyChecker())


def box_v(model):
    sig = model.signature()
    return parse_case("{ forall b: Box, c: City. Dst(b, c) -> BIn(b, c) : 5 ; exists b: Box, c: City. Dst(b, c) & !BIn(b, c) : 1 }", ConsistencyChecker(), signature=sig)


def blocks_v(model):
    sig = model.signature()
    return parse_case("{ forall x: Block, y: Block. GoalOn(x, y) -> On(x, y) : 5 ; exists x: Block, y: Block. GoalOn(x, y) & !On(x, y) : 1 }", ConsistencyChecker(), signature=sig)


def eval_states(model, inst, rng=None, extra=0):
    states = list(reachable_states(model, inst))
    if extra:
        everything = all_fluent_states(model, inst)
        states += rng.sample(everything, min(extra, len(everything)))
    return states


# -- frozen single-action values ---------------------------------------------


def test_flip_fodtr_values():
    model, inst = flip()
    g = fodtr(model, flip_v(), model.action("flip"))
    on, off = [s for s in reachable_states(model, inst) if ("P",) in s.atoms][0], None
    off = [s for s in reachable_states(model, inst) if ("P",) not in s.atoms][0]
    assert eval_case(g, on) == pytest.approx(0.9, abs=TOL)
    assert eval_case(g, off) == pytest.approx(0.72, abs=TOL)
    assert len(g.partitions) == 2 and g.partitioned


def test_flip_backup_values():
    model, inst = flip()
    q = backup_param(model, flip_v(), model.action("flip"))
    states = reachable_states(model, inst)
    on = next(s for s in states if ("P",) in s.atoms)
    off = next(s for s in states if ("P",) not in s.atoms)
    assert eval_case(q, on) == pytest.approx(10.9, abs=TOL)
    assert eval_case(q, off) == pytest.approx(0.72, abs=TOL)


def test_noop_backup_is_discounted_stay():
    model, inst = flip()
    q = backup_param(model, flip_v(), model.action(NOOP))
    states = reachable_states(model, inst)
    on = next(s for s in states if ("P",) in s.atoms)
    off = next(s for s in states if ("P",) not in s.atoms)
    assert eval_case(q, on) == pytest.approx(10 + 0.9 * 1, abs=TOL)
    assert eval_case(q, off) == pytest.approx(0.0, abs=TOL)


def test_backup_exists_without_parameters_keeps_structure():
    model, _ = flip()
    tpl = model.action("flip")
    q = backup_param(model, flip_v(), tpl)
    e = backup_exists(model, flip_v(), tpl)
    assert e.partitioned == q.partitioned
    assert [p.value for p in e.partitions] == [p.value for p in q.partitions]
    assert all(p.tag == "flip" for p in e.partitions)
    assert all(p.bind_vars == () for p in e.partitions)


# -- ground one-step semantics ------------------------------------------------


def check_backups_against_ground(model, inst, v, states):
    uni = inst.universe()
    sig = model.signature()
    for name in model.action_names():
        tpl = model.action(name)
        q_case = backup_param(model, v, tpl)
        m_case = backup_max(model, v, tpl)
        bindings = ground_bindings(tpl, uni)
        for s in states:
            best = None
            for objs in bindings:
                want = ground_q(model, v, tpl, objs, s)
                binding = {n: o for (n, _), o in zip(tpl.params, objs)}
                got = eval_case(q_case, s, binding, sig)
                assert got == pytest.approx(want, abs=TOL), (name, objs, sorted(s.atoms))
                best = want if best is None else max(best, want)
            got_max = eval_max(m_case, s, signature=sig)
            assert got_max == pytest.approx(best, abs=TOL), (name, sorted(s.atoms))


def test_flip_backups_match_ground():
    model, inst = flip()
    check_backups_against_ground(model, inst, flip_v(), eval_states(model, inst))


def test_boxworld_backups_match_ground():
    model, inst = boxworld()
    rng = random.Random(7)
    states = eval_states(model, inst, rng, extra=12)
    check_backups_against_ground(model, inst, box_v(model), states)


def test_blocksworld_backups_match_ground():
    model, inst = blocksworld()
    rng = random.Random(11)
    states = eval_states(model, inst, rng, extra=6)
    check_backups_against_ground(model, inst, blocks_v(model), states)


# -- structured linear backups -------------------------------------------------


def lvf_for(model, goal_case, spare_text):
    sig = model.signature()
    b0 = constant_case(1.0)
    b2 = parse_case(spare_text, ConsistencyChecker(), signature=sig)
    return LinearValueFunction((1.3, -0.7, 2.1), (b0, goal_case, b2))


def check_linear_identity(model, inst, lvf, states):
    uni = inst.universe()
    sig = model.signature()
    flat = lvf.flatten(model.checker)
    for name in model.action_names():
        tpl = model.action(name)
        direct = backup_param(model, flat, tpl)
        structured = backup_linear(model, lvf, tpl)
        rebuilt = structured.flatten(checker=model.checker)
        for s in states:
            for objs in ground_bindings(tpl, uni):
                binding = {n: o for (n, _), o in zip(tpl.params, objs)}
                a = eval_case(direct, s, binding, sig)
                b = eval_case(rebuilt, s, binding, sig)
                assert a == pytest.approx(b, abs=TOL), (name, objs)


def test_flip_linear_backup_identity():
    model, inst = flip()
    lvf = lvf_for(model, flip_v(), "{ !P : 1 ; P : 0 }")
    check_linear_identity(model, inst, lvf, eval_states(model, inst))


def test_boxworld_linear_backup_identity():
    model, inst = boxworld()
    rng = random.Random(23)
    lvf = lvf_for(model, box_v(model), "{ exists b: Box. On(b, tr1) : 1 ; !(exists b: Box. On(b, tr1)) : 0 }")
    # instance object names are fine inside test-only cases
    lvf = LinearValueFunction(
        lvf.weights,
        (
            lvf.bases[0],
            lvf.bases[1],
            parse_case(
                "{ exists b: Box, t: Truck. On(b, t) : 1 ; !(exists b: Box, t: Truck. On(b, t)) : 0 }",
                ConsistencyChecker(),
                signature=model.signature(),
            ),
        ),
    )
    states = eval_states(model, inst, rng, extra=6)
    check_linear_identity(model, inst, lvf, states)


def test_reweighted_linear_backup_matches_direct():
    model, inst = flip()
    lvf = lvf_for(model, flip_v(), "{ !P : 1 ; P : 0 }")
    structured = backup_linear(model, lvf, model.action("flip"))
    w2 = (0.25, 4.0, -1.5)
    direct = backup_param(model, lvf.with_weights(w2).flatten(model.checker), model.action("flip"))
    rebuilt = structured.flatten(model.checker, w2)
    for s in reachable_states(model, inst):
        assert eval_case(rebuilt, s) == pytest.approx(eval_case(direct, s), abs=TOL)


def test_backed_up_weight_count_checked():
    model, _ = flip()
    lvf = lvf_for(model, flip_v(), "{ !P : 1 ; P : 0 }")
    structured = backup_linear(model, lvf, model.action("flip"))
    with pytest.raises(ModelError):
        structured.flatten(ConsistencyChecker(), (1.0,))


# -- degenerate parameters ------------------------------------------------------


def test_zero_value_case_backs_up_to_reward():
    model, inst = flip()
    q = backup_param(model, constant_case(0.0), model.action("flip"))
    for s in reachable_states(model, inst):
        assert eval_case(q, s) == pytest.approx(eval_case(model.reward_for("flip"), s), abs=TOL)


def test_zero_discount_backs_up_to_reward():
    base, inst = flip()
    model = replace(base, discount=0.0)
    q = backup_param(model, flip_v(), model.action("flip"))
    for s in reachable_states(model, inst):
        assert eval_case(q, s) == pytest.approx(eval_case(model.reward_for("flip"), s), abs=TOL)


def test_fodtr_scales_linearly_with_discount():
    base, inst = flip()
    half = replace(base, discount=0.45)
    g1 = fodtr(base, flip_v(), base.action("flip"))
    g2 = fodtr(half, flip_v(), half.action("flip"))
    for s in reachable_states(base, inst):
        assert eval_case(g2, s) == pytest.approx(0.5 * eval_case(g1, s), abs=TOL)


def test_fodtr_rejects_union_cases():
    model, _ = flip()
    v = case_of([(parse_formula("P"), 1.0)], ConsistencyChecker(), partitioned=False)
    with pytest.raises(ModelError):
        fodtr(model, v, model.action("flip"))


# -- vocabulary and validation ---------------------------------------------------


def test_action_names_include_implicit_noop():
    model, _ = boxworld()
    assert model.action_names() == ("drive", "load", "noop", "unload")
    noop = model.action(NOOP)
    assert noop.params == () and len(noop.choices) == 1
    assert eval_case(noop.choices[0].pcase, flip()[1].init_state()) == 1.0


def test_choice_names_are_globally_unique():
    model, _ = boxworld()
    names = model.choice_names()
    assert len(names) == len(set(names))
    assert "noopEff" in names and "driveS" in names


def test_reward_lookup_precedence():
    model, _ = boxworld()
    specific = constant_case(3.0)
    m2 = replace(model, rewards={**model.rewards, "drive": specific})
    assert m2.reward_for("drive") is specific
    assert m2.reward_for("load") is model.rewards["any"]
    m3 = replace(model, rewards={})
    assert m3.reward_for("load").partitions[0].value == 0.0


def test_unknown_action_rejected():
    model, _ = flip()
    with pytest.raises(ModelError):
        model.action("jump")


def flip_pieces():
    model, _ = flip()
    return model


def test_validate_discount_range():
    model = flip_pieces()
    with pytest.raises(ModelError):
        replace(model, discount=1.0).validate()


def test_validate_missing_axiom():
    model = flip_pieces()
    with pytest.raises(ModelError):
        replace(model, ssas={}).validate()


def test_validate_axiom_for_static():
    model = flip_pieces()
    preds = {**model.predicates, "P": PredicateDecl("P", (), static=True)}
    with pytest.raises(ModelError):
        replace(model, predicates=preds).validate()


def test_validate_probabilities_sum():
    model = flip_pieces()
    flip_tpl = model.actions["flip"]
    bad = ActionTemplate(
        "flip",
        (),
        (flip_tpl.choices[0], NatureChoice("flipF", parse_case("{ true : 0.3 }", ConsistencyChecker()))),
    )
    with pytest.raises(ModelError):
        replace(model, actions={"flip": bad}).validate()


def test_validate_probability_range():
    model = flip_pieces()
    bad = ActionTemplate("flip", (), (NatureChoice("flipS", parse_case("{ true : 1.4 }", ConsistencyChecker())),))
    with pytest.raises(ModelError):
        replace(model, actions={"flip": bad}).validate()


def test_validate_pcase_free_variables():
    model = flip_pieces()
    pc = parse_case("{ Q(z) : 1.0 ; !Q(z) : 0.0 }", ConsistencyChecker())
    preds = {**model.predicates, "Q": PredicateDecl("Q", ("Thing",))}
    bad = ActionTemplate("flip", (), (NatureChoice("flipS", pc),))
    with pytest.raises(ModelError):
        replace(model, predicates=preds, actions={"flip": bad}, checker=None).validate()


def test_validate_pcase_partition():
    model = flip_pieces()
    pc = parse_case("{ P : 0.5 ; P : 0.5 }", ConsistencyChecker())
    bad = ActionTemplate("flip", (), (NatureChoice("flipS", pc),))
    with pytest.raises(ModelError):
        replace(model, actions={"flip": bad}).validate()


def test_validate_duplicate_outcome_names():
    model = flip_pieces()
    tpl = model.actions["flip"]
    other = ActionTemplate("flop", (), (NatureChoice("flipS", constant_case(1.0)),))
    with pytest.raises(ModelError):
        replace(model, actions={"flip": tpl, "flop": other}).validate()


def test_validate_reward_keys_and_partition():
    model = flip_pieces()
    with pytest.raises(ModelError):
        replace(model, rewards={**model.rewards, "jump": constant_case(1.0)}).validate()
    broken = case_of([(parse_formula("P"), 1.0)], ConsistencyChecker(), partitioned=True)
    with pytest.raises(ModelError):
        replace(model, rewards={"any": broken}).validate()


def test_linear_value_function_shape_checks():
    with pytest.raises(ModelError):
        LinearValueFunction((1.0,), ())
    with pytest.raises(ModelError):
        LinearValueFunction((1.0,), (case_of([(parse_formula("P"), 1.0)], ConsistencyChecker(), partitioned=False),))
    lvf = LinearValueFunction((2.0,), (constant_case(1.0),))
    assert lvf.with_weights([3.0]).weights == (3.0,)
    flat = lvf.flatten(ConsistencyChecker())
    assert flat.partitions[0].value == 2.0 and verify_partitioned(flat, ConsistencyChecker())
