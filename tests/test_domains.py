"""Domain and instance file parsing."""

import sys

import pytest

from fomdp.basisgen import BasisGenConfig, generate_basis
from fomdp.cases import eval_case
from fomdp.domains import (
    DomainSyntaxError,
    fixture_path,
    load_fixture,
    materialize_universal,
    parse_domain,
    parse_instance,
    validate_instance,
)
from fomdp.logic import (
    ArityError,
    ConsistencyBound,
    ConsistencyChecker,
    eval_in_state,
    make_state,
    parse_formula,
)
from fomdp.model import ModelError, UniversalReward


def test_flip_domain_structure():
    model, _ = load_fixture("flip")
    assert model.name == "flip"
    assert model.types == ()
    assert model.predicates["P"].arg_types == () and not model.predicates["P"].static
    assert model.ssas["P"].params == ()
    flip = model.actions["flip"]
    assert [ch.name for ch in flip.choices] == ["flipS", "flipF"]
    assert [p.value for p in flip.choices[0].pcase.partitions] == [0.8]
    assert model.discount == 0.9
    assert set(model.rewards) == {"any"}


def test_boxworld_domain_structure():
    model, _ = load_fixture("boxworld_mini")
    assert model.types == ("Box", "Truck", "City")
    assert model.predicates["Dst"].static and model.predicates["snow"].static
    assert model.fluent_names() == ("BIn", "On", "TAt")
    drive = model.actions["drive"]
    assert drive.params == (("t", "Truck"), ("c1", "City"), ("c", "City"))
    assert {ch.name for ch in drive.choices} == {"driveS", "driveF"}
    assert model.universal_reward is not None
    assert set(model.rewards) == {"noop", "any"}


def test_blocksworld_domain_structure():
    model, _ = load_fixture("blocksworld_mini")
    assert model.types == ("Block",)
    assert model.fluent_names() == ("On",)
    assert model.action_names() == ("move", "moveToTable", "noop")
    assert len(model.actions["moveToTable"].choices) == 1


def test_bound_override_threads_through():
    bound = ConsistencyBound(objects_per_type=2, timeout_ms=5000)
    model, _ = load_fixture("flip", bound=bound)
    assert model.bound == bound and model.checker.bound == bound


def test_universal_reward_materialization():
    model, inst = load_fixture("boxworld_mini", "boxworld_mini")
    uni = inst.universe()
    unmet = inst.init_state()
    met = make_state(
        {
            ("TAt", "tr1", "paris"),
            ("BIn", "box1", "rome"),
            ("BIn", "box2", "paris"),
            ("Dst", "box1", "rome"),
            ("Dst", "box2", "paris"),
            ("snow", "paris"),
        },
        uni,
    )
    sig = model.signature()
    assert eval_case(model.rewards["noop"], unmet, signature=sig) == 0.0
    assert eval_case(model.rewards["any"], unmet, signature=sig) == 0.0
    assert eval_case(model.rewards["noop"], met, signature=sig) == 10.0
    assert eval_case(model.rewards["any"], met, signature=sig) == 9.0
    assert eval_case(model.reward_for("drive"), met, signature=sig) == 9.0


def test_materialize_universal_cases_are_partitions():
    sig = {"P": ("Thing",)}
    ur = UniversalReward((("x", None),), parse_formula("P(x)", signature=sig), 10.0, 9.0)
    cases = materialize_universal(ur, ur.closed(), ConsistencyChecker(signature=sig))
    assert set(cases) == {"noop", "any"}
    assert [p.value for p in cases["noop"].partitions] == [10.0, 0.0]
    assert [p.value for p in cases["any"].partitions] == [9.0, 0.0]
    assert all(c.partitioned for c in cases.values())


def test_cases_pruned_under_declared_types():
    # b = c cannot hold between a Box and a City, so only the complement stays
    model = parse_domain(
        """
        domain typed
        types: Box, City
        predicates:
            R(Box, City) [static]
        action go(b: Box, c: City)
        choice sOn prob { R(b, c) & b = c : 0.5 ; !(R(b, c) & b = c) : 1.0 }
        reward any { true : 0 }
        discount 0.5
        """
    )
    (choice,) = model.actions["go"].choices
    assert choice.pcase.values() == (1.0,)


def test_loading_leaves_no_module_level_checker():
    load_fixture("boxworld_mini", "boxworld_mini")
    for name, module in list(sys.modules.items()):
        if name == "fomdp" or name.startswith("fomdp."):
            held = [k for k, v in vars(module).items() if isinstance(v, ConsistencyChecker)]
            assert held == [], f"{name} holds checkers {held}"


def test_solving_leaves_module_level_containers_unchanged():
    # a table that outlives a call would make later solves depend on earlier ones
    def sizes():
        out = {}
        for name, module in list(sys.modules.items()):
            if name == "fomdp" or name.startswith("fomdp."):
                for k, v in vars(module).items():
                    if isinstance(v, (dict, list, set)):
                        out[name, k] = len(v)
        return out

    before = sizes()
    for solver in ("foalp", "foapi"):
        model, _ = load_fixture("flip")
        generate_basis(model, BasisGenConfig(iters=3, solver=solver))
    assert sizes() == before


PREDICATES = """
predicates:
    P(Thing) [static]
    S
"""
LITERALS = [
    "reward any { P(x, y) : 1 ; !P(x, y) : 0 }",
    "action go()\nchoice sOn prob { P(x, y) : 1 ; !P(x, y) : 1 }\nreward any { true : 0 }",
    "ureward forall y: Thing ; P(y, y) ; noop 10 ; act 9",
]


@pytest.mark.parametrize("literal", LITERALS, ids=["reward", "choice", "ureward"])
@pytest.mark.parametrize("literal_first", [True, False])
def test_case_literal_arity_checked_in_any_order(literal, literal_first):
    blocks = [literal, PREDICATES] if literal_first else [PREDICATES, literal]
    text = "domain x\ntypes: Thing\n" + "\n".join(blocks) + "\ndiscount 0.5\n"
    with pytest.raises(ArityError):
        parse_domain(text)


def test_case_literal_may_use_a_predicate_declared_later():
    model = parse_domain(
        """
        domain x
        predicates:
            S [static]
        reward any { P : 1 ; !P : 0 }
        predicates:
            P [static]
        discount 0.5
        """
    )
    assert model.rewards["any"].values() == (1.0, 0.0)


def test_comments_and_blanks_ignored():
    model = parse_domain(
        """
        # leading comment
        domain tiny

        predicates:
            P   # a switch

        ssa P() <=> a = sOn | (P & a != sOn)  # toggle
        action touch()
        choice sOn prob { true : 1.0 }
        reward any { P : 1 ; !P : 0 }
        discount 0.5
        """
    )
    assert model.name == "tiny" and model.discount == 0.5


def check_error(text, needle, line=None):
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain(text)
    assert needle in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_domain_error_positions():
    check_error("domain x\nwhat is this\ndiscount 0.9", "unrecognized line", 2)
    check_error("discount 0.9", "missing 'domain")
    check_error("domain x", "missing 'discount'")
    check_error("domain x\npredicates:\n  9bad\ndiscount 0.9", "bad predicate", 3)
    check_error(
        "domain x\npredicates:\n  P\n  P\ndiscount 0.9", "duplicate predicate", 4
    )
    check_error(
        "domain x\nchoice s prob { true : 1 }\ndiscount 0.9", "choice outside", 2
    )
    check_error(
        "domain x\nssa P() <=> true\nssa P() <=> false\ndiscount 0.9",
        "duplicate axiom",
        3,
    )
    check_error(
        "domain x\nureward forall y ; P(y) ; noop 10\ndiscount 0.9", "ureward needs"
    )
    check_error(
        "domain x\nureward forall y ; P(y) ; noop 10 ; move 9\ndiscount 0.9",
        "ureward values",
    )


def test_domain_rejects_reward_and_ureward_together():
    text = """domain x
predicates:
    P(Thing)
types: Thing
ssa P(y) <=> P(y)
action wait()
choice w prob { true : 1 }
reward any { true : 0 }
ureward forall y: Thing ; P(y) ; noop 10 ; act 9
discount 0.9
"""
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain(text)
    assert "not both" in str(err.value)


def test_duplicate_action_and_reward_rejected():
    base = "domain x\naction go()\nchoice g prob {{ true : 1 }}\n{}discount 0.9\n"
    with pytest.raises(DomainSyntaxError):
        parse_domain(base.format("action go()\n"))
    with pytest.raises(DomainSyntaxError):
        parse_domain(base.format("reward any { true : 0 }\nreward any { true : 0 }\n"))


def test_instance_parsing():
    inst = parse_instance(fixture_path("boxworld_mini.instance").read_text())
    assert inst.name == "boxworld_mini_2goals"
    assert dict(inst.objects)["City"] == ("paris", "rome")
    assert ("TAt", "tr1", "paris") in inst.init_atoms
    assert inst.goal_bindings == (("box1", "rome"), ("box2", "paris"))
    uni = inst.universe()
    assert uni.pool("Box") == ("box1", "box2")
    state = inst.init_state()
    assert eval_in_state(parse_formula("TAt(tr1, paris)", objects=["tr1", "paris"]), state)


def test_flip_instance_is_empty():
    inst = parse_instance(fixture_path("flip.instance").read_text())
    assert inst.init_atoms == frozenset() and inst.objects == ()
    assert not eval_in_state(parse_formula("P"), inst.init_state())


def test_instance_errors():
    with pytest.raises(DomainSyntaxError):
        parse_instance("init: { P }")
    with pytest.raises(DomainSyntaxError):
        parse_instance("instance x\nobjects: T = { a }\nobjects: T = { b }")
    with pytest.raises(DomainSyntaxError):
        parse_instance("instance x\nobjects: T = { 9bad }")
    with pytest.raises(DomainSyntaxError):
        parse_instance("instance x\nnonsense here")
    with pytest.raises(DomainSyntaxError):
        parse_instance("instance x\ninit: { P(a }")


def test_validate_instance_errors():
    model, inst = load_fixture("boxworld_mini", "boxworld_mini")

    def broken(**kw):
        from dataclasses import replace

        return replace(inst, **kw)

    with pytest.raises(ModelError):
        validate_instance(model, broken(init_atoms=frozenset({("Q", "box1")})))
    with pytest.raises(ModelError):
        validate_instance(model, broken(init_atoms=frozenset({("TAt", "tr1")})))
    with pytest.raises(ModelError):
        validate_instance(model, broken(init_atoms=frozenset({("TAt", "tr1", "box1")})))
    with pytest.raises(ModelError):
        validate_instance(model, broken(goal_bindings=(("box1",),)))
    with pytest.raises(ModelError):
        validate_instance(model, broken(goal_bindings=(("box1", "tr1"),)))
    with pytest.raises(ModelError):
        validate_instance(model, broken(objects=(("Gadget", ("g1",)),)))
    flip_model, flip_inst = load_fixture("flip", "flip")
    from dataclasses import replace

    with pytest.raises(ModelError):
        validate_instance(flip_model, replace(flip_inst, goal_bindings=(("a",),)))
