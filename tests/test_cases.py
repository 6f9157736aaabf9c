"""Case algebra tests.

The ground-semantics homomorphism is the oracle: any case operation must
commute with pointwise evaluation over every state of a small universe.
Derived expectations (pruned cross terms, regression collapses) were
computed by that enumeration and frozen.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Optional

import pytest

from fomdp.cases import (
    CaseError,
    CaseStatement,
    Partition,
    PartitionViolation,
    build_case,
    case_of,
    combine,
    constant_case,
    cross_sum,
    eval_case,
    exists_case,
    max_case,
    merge_equal_values,
    parse_case,
    scale_case,
    verify_partitioned,
)
from fomdp.logic import (
    BDD_MAX_ATOMS,
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
    format_formula,
    make_state,
    normalize,
    parse_formula,
    simplify_bdd,
    survey,
)
from fomdp.sitcalc import SuccessorStateAxiom, regress
from case_reference import eval_max
from max_case_reference import assert_same_regions, reference_max_case
from test_logic import TYPED_SIG, GroundingOnlyChecker, bound_one_point_probe, typed_corpus

P, Q, R = Atom("P"), Atom("Q"), Atom("R")

FLIP_SSAS = {
    "P": SuccessorStateAxiom("P", (), parse_formula("a = flipS | (P & a != flipS)", act_names=["flipS"]))
}

UNI1 = Universe.of({None: ["o1"]})
PROP_STATES = [
    make_state([(p,) for p in chosen], UNI1)
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(["P", "Q", "R"], k) for k in range(4)
    )
]


def random_partitioned(rng: random.Random) -> CaseStatement:
    """Random partitioned case over propositions P, Q, R."""
    atoms = [P, Q, R]
    rng.shuffle(atoms)
    n = rng.randint(1, 3)
    parts = []
    regions = [TRUE]
    for a in atoms[:n]:
        regions = [And((r, a)) for r in regions] + [And((r, Not(a))) for r in regions]
    for r in regions:
        parts.append(Partition(r, rng.randint(-5, 20)))
    return build_case(parts, ConsistencyChecker(), partitioned=True)


def union(c1: CaseStatement, c2: CaseStatement) -> CaseStatement:
    """Both cases' partitions under union semantics."""
    return CaseStatement(c1.partitions + c2.partitions, False)


# ---------------------------------------------------------------------------
# combine


def test_cross_sum_paper_values():
    c1 = case_of([(parse_formula("F1"), 10), (parse_formula("F2"), 20)], ConsistencyChecker(), partitioned=False)
    c2 = case_of([(parse_formula("G1"), 1), (parse_formula("G2"), 2)], ConsistencyChecker(), partitioned=False)
    got = combine("add", c1, c2, ConsistencyChecker())
    assert got.values() == (11.0, 12.0, 21.0, 22.0)
    assert got.formulas()[0] == normalize(And((Atom("F1"), Atom("G1"))))
    assert not got.partitioned


def test_additive_identity():
    c = case_of([(P, 1), (Not(P), 2)], ConsistencyChecker())
    got = combine("add", c, constant_case(0.0), ConsistencyChecker())
    assert got == c


def test_cross_terms_pruned():
    c1 = case_of([(P, 1), (Not(P), 2)], ConsistencyChecker())
    c2 = case_of([(P, 10), (Not(P), 20)], ConsistencyChecker())
    got = combine("add", c1, c2, ConsistencyChecker())
    assert got.values() == (11.0, 22.0)
    assert got.formulas() == (P, normalize(Not(P)))
    assert got.partitioned


def test_subtract_and_multiply():
    c1 = case_of([(P, 6), (Not(P), 4)], ConsistencyChecker())
    c2 = constant_case(2.0)
    assert combine("subtract", c1, c2, ConsistencyChecker()).values() == (4.0, 2.0)
    assert combine("multiply", c1, c2, ConsistencyChecker()).values() == (12.0, 8.0)
    with pytest.raises(CaseError):
        combine("min", c1, c2, ConsistencyChecker())


def test_combine_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        c1, c2 = random_partitioned(rng), random_partitioned(rng)
        for op, fn in [("add", lambda a, b: a + b), ("subtract", lambda a, b: a - b), ("multiply", lambda a, b: a * b)]:
            got = combine(op, c1, c2, ConsistencyChecker())
            assert got.partitioned
            assert len(got) <= len(c1) * len(c2)
            for s in PROP_STATES:
                assert eval_case(got, s) == pytest.approx(fn(eval_case(c1, s), eval_case(c2, s)))


def test_combine_prefers_first_operand_tags():
    c1 = CaseStatement((Partition(P, 1.0, tag="drive"),), True)
    c2 = CaseStatement((Partition(TRUE, 2.0, tag="load"),), True)
    assert combine("add", c1, c2, ConsistencyChecker()).partitions[0].tag == "drive"
    c3 = CaseStatement((Partition(TRUE, 2.0),), True)
    assert combine("add", c3, c2, ConsistencyChecker()).partitions[0].tag == "load"


def test_cross_sum_empty_is_zero():
    assert cross_sum([], ConsistencyChecker()) == constant_case(0.0)
    c = case_of([(P, 3), (Not(P), 1)], ConsistencyChecker())
    assert cross_sum([c], ConsistencyChecker()) == c


def test_scale_case():
    c = case_of([(P, 3), (Not(P), 1)], ConsistencyChecker())
    assert scale_case(c, 0.9).values() == (2.7, 0.9)
    assert scale_case(c, 0.9).partitioned


# ---------------------------------------------------------------------------
# exists / regression


def test_exists_case_definition():
    c = case_of([(Atom("S", (Var("x"),)), 1), (Not(Atom("S", (Var("x"),))), 0)], ConsistencyChecker())
    got = exists_case([("x", None)], c, ConsistencyChecker())
    assert got.formulas() == (
        normalize(parse_formula("exists x. S(x)")),
        normalize(parse_formula("exists x. !S(x)")),
    )
    assert got.values() == (1.0, 0.0)
    assert not got.partitioned


def test_exists_case_closed_noop():
    c = case_of([(P, 1), (Not(P), 0)], ConsistencyChecker())
    got = exists_case([("x", None)], c, ConsistencyChecker())
    assert got.formulas() == c.formulas() and got.values() == c.values()


def test_exists_case_union_semantics():
    # both branches satisfiable in a mixed state; max later picks the 1
    uni = Universe.of({None: ["a", "b"]})
    s = make_state([("S", "a")], uni)
    c = case_of([(Atom("S", (Var("x"),)), 1), (Not(Atom("S", (Var("x"),))), 0)], ConsistencyChecker())
    got = exists_case([("x", None)], c, ConsistencyChecker())
    assert eval_max(got, s) == 1.0
    assert eval_case(max_case(got, ConsistencyChecker()), s) == 1.0


def test_exists_case_keeps_bindings_on_request():
    body = Atom("S", (Var("x"),))
    c = case_of([(body, 1), (Not(body), 0)], ConsistencyChecker())
    got = exists_case([("x", "Thing")], c, ConsistencyChecker())
    assert [p.bind_vars for p in got.partitions] == [(("x", "Thing"),)] * 2
    assert [p.bind_body for p in got.partitions] == [body, Not(body)]


def test_regress_case_flip():
    def regress_case(c, act):
        # per-partition regression, pruned and simplified as `model.fodtr` does it
        parts = (Partition(regress(p.formula, act, FLIP_SSAS), p.value, p.tag) for p in c.partitions)
        return build_case(parts, ConsistencyChecker(), c.partitioned)

    c = case_of([(P, 1), (Not(P), 0)], ConsistencyChecker())
    through_s = regress_case(c, ActTerm("flipS"))
    assert through_s.formulas() == (TRUE,) and through_s.values() == (1.0,)
    assert through_s.partitioned
    through_f = regress_case(c, ActTerm("flipF"))
    assert through_f.formulas() == c.formulas() and through_f.values() == c.values()
    const = constant_case(4.5)
    assert regress_case(const, ActTerm("flipS")) == const


# ---------------------------------------------------------------------------
# max / union


def test_max_case_definition():
    a, b = Atom("A"), Atom("B")
    got = max_case(
        union(
            case_of([(a, 7)], ConsistencyChecker(), partitioned=False),
            case_of([(b, 5)], ConsistencyChecker(), partitioned=False),
        ),
        ConsistencyChecker(),
    )
    assert got.values() == (7.0, 5.0)
    assert got.formulas() == (a, normalize(And((b, Not(a)))))
    assert not got.partitioned  # A ∨ B does not cover ¬A∧¬B states


def test_max_case_eval_overlap():
    uni = Universe.of({None: ["o1"]})
    s = make_state([("A",), ("B",)], uni)
    c = union(
        case_of([(Atom("A"), 7)], ConsistencyChecker(), partitioned=False),
        case_of([(Atom("B"), 5)], ConsistencyChecker(), partitioned=False),
    )
    m = max_case(c, ConsistencyChecker())
    hit = [p for p in m.partitions if p.formula == Atom("A")]
    assert hit and hit[0].value == 7.0
    assert eval_max(c, s) == 7.0


def test_max_case_already_disjoint_same_mapping():
    c = case_of([(P, 3), (Not(P), 8)], ConsistencyChecker())
    m = max_case(c, ConsistencyChecker())
    assert m.partitioned
    for s in PROP_STATES:
        assert eval_case(m, s) == eval_case(c, s)


def test_max_case_matches_pointwise_max():
    rng = random.Random(31)
    for _ in range(15):
        c1, c2 = random_partitioned(rng), random_partitioned(rng)
        u = union(c1, c2)
        m = max_case(u, ConsistencyChecker())
        assert m.partitioned  # union of two covers still covers
        for s in PROP_STATES:
            assert eval_case(m, s) == max(eval_case(c1, s), eval_case(c2, s))
            assert eval_case(m, s) == eval_max(u, s)


def test_max_case_pairwise_inconsistent():
    rng = random.Random(17)
    from fomdp.logic import ConsistencyChecker

    chk = ConsistencyChecker()
    for _ in range(10):
        m = max_case(union(random_partitioned(rng), random_partitioned(rng)), ConsistencyChecker())
        for i, p in enumerate(m.partitions):
            for q in m.partitions[i + 1 :]:
                assert chk.check(And((p.formula, q.formula))) is False


def test_max_case_tie_break_deterministic():
    c = union(
        case_of([(Q, 5)], ConsistencyChecker(), partitioned=False),
        case_of([(P, 5)], ConsistencyChecker(), partitioned=False),
    )
    m = max_case(c, ConsistencyChecker())
    # equal values: canonical formula order puts P first
    assert m.formulas() == (P, normalize(And((Q, Not(P)))))


def one_point_sound(f, scope: tuple = (), free: Optional[dict] = None) -> bool:
    """Does every free variable or object that an equality compares with a typed bound variable have its type?

    Free variables and objects take the types the checker infers for them.
    The one-point rule of `simplify_bdd` types bound variables only and
    trusts every free name to have the type of the bound variable it meets;
    where that trust fails, the per-region path and the shared BDD may
    misread a region in different ways.
    """
    free = survey(f, TYPED_SIG)[0] if free is None else free
    if isinstance(f, Eq):
        env = dict(scope)
        sides = ((f.left, f.right), (f.right, f.left))
        return all(
            free.get(b.name) == env[a.name]
            for a, b in sides
            if isinstance(a, Var) and env.get(a.name) and not (isinstance(b, Var) and b.name in env)
        )
    if isinstance(f, (Exists, Forall)):
        return one_point_sound(f.body, scope + ((f.var, f.vtype),), free)
    if isinstance(f, Not):
        return one_point_sound(f.sub, scope, free)
    if isinstance(f, (And, Or)):
        return all(one_point_sound(p, scope, free) for p in f.parts)
    return True


def test_max_case_matches_per_region_reference():
    rng = random.Random(41)
    untyped = ConsistencyChecker()
    for _ in range(25):
        parts = [p for _ in range(rng.randint(2, 3)) for p in random_partitioned(rng).partitions]
        # overlapping regions, and duplicated ones under new values and tags (some tied)
        for p in rng.sample(parts, 2):
            parts.append(replace(p, value=float(rng.randint(-5, 20)), tag=rng.choice([None, "a", "b"])))
        c = CaseStatement(tuple(parts), False)
        assert_same_regions(max_case(c, untyped), reference_max_case(c, untyped), untyped)
    typed = ConsistencyChecker(signature=TYPED_SIG)
    corpus = [f for f in typed_corpus(29, 400) if one_point_sound(f)]
    assert len(corpus) >= 100
    for i in range(0, len(corpus), 4):
        parts = [Partition(f, float(rng.randint(0, 3)), rng.choice([None, "a", "b"])) for f in corpus[i : i + 4]]
        # an alpha variant (normalize renames bound variables) and a duplicate
        parts.append(replace(parts[0], formula=normalize(parts[0].formula), value=parts[0].value + 1))
        parts.append(replace(parts[1], tag="c"))
        c = CaseStatement(tuple(parts), False)
        assert_same_regions(max_case(c, typed), reference_max_case(c, typed), typed)


def test_simplify_keeps_typed_one_point_equivalences():
    # one-point candidates whose target is bound, under every pair of binder
    # types: where the rule's trust in free names holds, each simplifies to a
    # formula that typed grounding cannot tell from it
    rng = random.Random(43)
    chk, grounded = ConsistencyChecker(signature=TYPED_SIG), GroundingOnlyChecker(signature=TYPED_SIG)
    probes = [f for f in (bound_one_point_probe(rng) for _ in range(300)) if one_point_sound(f)]
    compared = changed = 0
    for f in probes:
        g = simplify_bdd(f, chk)
        # a check types each free name by the first atom position it meets, so
        # f and g are compared only where every type g gives a name is f's
        if survey(g, TYPED_SIG)[0].items() <= survey(f, TYPED_SIG)[0].items():
            compared += 1
            changed += g != normalize(f)
            assert grounded.equivalent(f, g), format_formula(f)
    assert compared >= 200 and changed >= 100


def test_max_case_past_the_bdd_limits_matches_reference_exactly():
    chk = ConsistencyChecker()
    # two new atoms per partition: from the first past BDD_MAX_ATOMS on, every
    # region is the normalised conjunction, also the last one, whose atoms
    # the BDD already has
    k = BDD_MAX_ATOMS // 2
    phis = [Or((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(k + 4)] + [Not(Atom("A0"))]
    c = CaseStatement(tuple(Partition(f, float(100 - i)) for i, f in enumerate(phis)), False)
    got, want = max_case(c, chk), reference_max_case(c, chk)
    assert_same_regions(got, want, chk)
    assert len(got) == k + 5 and got.partitions[k:] == want.partitions[k:]
    assert got.partitions[k].formula == normalize(And((phis[k],) + tuple(Not(f) for f in phis[:k])))
    # an Or of 13 conjunctions reads back into more than tree_limit nodes,
    # and so does its negation in every later region
    wide = Or(tuple(And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(13)))
    c = CaseStatement((Partition(wide, 5.0), Partition(P, 3.0), Partition(Not(P), 1.0)), False)
    got, want = max_case(c, chk), reference_max_case(c, chk)
    assert got == want and len(got) == 3 and got.partitioned
    assert got.partitions[0].formula == normalize(wide)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_case_logistics_reward():
    uni = Universe.of({"Truck": ["t1"], "City": ["paris", "rome"]})
    reward = case_of(
        [
            (parse_formula("forall t:Truck, c:City. TAt(t, c) -> Dst(t, c)"), 10),
            (parse_formula("exists t:Truck, c:City. TAt(t, c) & !Dst(t, c)"), 0),
        ], ConsistencyChecker()
    )
    misplaced = make_state([("TAt", "t1", "paris"), ("Dst", "t1", "rome")], uni)
    placed = make_state([("TAt", "t1", "rome"), ("Dst", "t1", "rome")], uni)
    assert eval_case(reward, misplaced) == 0.0
    assert eval_case(reward, placed) == 10.0


def test_eval_case_constant():
    uni = Universe.of({None: ["a"]})
    assert eval_case(constant_case(5.0), make_state([], uni)) == 5.0


def test_eval_case_errors():
    uni = Universe.of({None: ["a"]})
    s = make_state([], uni)
    not_exhaustive = case_of([(P, 1.0)], ConsistencyChecker())
    with pytest.raises(PartitionViolation) as err:
        eval_case(not_exhaustive, s)
    assert err.value.satisfied == ()
    overlapping = CaseStatement((Partition(TRUE, 1.0), Partition(TRUE, 2.0)), True)
    with pytest.raises(PartitionViolation):
        eval_case(overlapping, s)
    with pytest.raises(CaseError):
        eval_case(CaseStatement((Partition(P, 1.0),), False), s)


def test_eval_case_free_vars_existential():
    uni = Universe.of({None: ["a", "b"]})
    s = make_state([("S", "a")], uni)
    c = case_of([(Atom("S", (Var("x"),)), 1), (parse_formula("forall x. !S(x)"), 0)], ConsistencyChecker())
    assert eval_case(c, s) == 1.0


# ---------------------------------------------------------------------------
# structure


def test_build_prunes_inconsistent():
    c = build_case([Partition(And((P, Not(P))), 9.0), Partition(P, 1.0)], ConsistencyChecker(), partitioned=False)
    assert c.formulas() == (P,)


def test_build_prunes_an_equality_of_disjoint_types():
    sig = {"P": ("Box",), "Q": ("City",)}
    f = parse_formula("exists x: Box. exists y: City. x = y")
    assert ConsistencyChecker(signature=sig).check(f) is False
    assert build_case([Partition(f, 1.0)], ConsistencyChecker(signature=sig), True).partitions == ()


@pytest.mark.parametrize("ytype, kept", [("City", False), ("Box", True), (None, True)])
def test_max_case_keeps_an_equality_region_as_the_checker_says(ytype, kept):
    # a region whose only content is a one-point candidate between two binders;
    # the shared BDD drops it without the checker exactly when the checker would
    sig = {"P": ("Box",), "Q": ("City",)}
    f = Exists("x", "Box", Exists("y", ytype, And((Eq(Var("x"), Var("y")), Atom("P", (Var("x"),))))))
    q = Atom("Q", (Obj("c1"),))
    c = CaseStatement((Partition(f, 5.0), Partition(q, 3.0), Partition(Not(q), 1.0)), False)
    chk = ConsistencyChecker(signature=sig)
    assert chk.check(f) is kept
    m = max_case(c, chk)
    assert m.values() == ((5.0,) if kept else ()) + (3.0, 1.0)
    assert_same_regions(m, reference_max_case(c, chk), chk)


def test_merge_equal_values():
    c = case_of([(And((P, Q)), 1), (And((P, Not(Q))), 1), (Not(P), 0)], ConsistencyChecker())
    m = merge_equal_values(c, ConsistencyChecker())
    assert m.partitioned
    assert set(m.values()) == {1.0, 0.0}
    assert len(m) == 2
    for s in PROP_STATES:
        assert eval_case(m, s) == eval_case(c, s)


def test_verify_partitioned():
    assert verify_partitioned(case_of([(P, 1), (Not(P), 0)], ConsistencyChecker()), ConsistencyChecker())
    assert not verify_partitioned(case_of([(P, 1)], ConsistencyChecker()), ConsistencyChecker())
    assert not verify_partitioned(
        CaseStatement((Partition(P, 1.0), Partition(TRUE, 0.0)), True), ConsistencyChecker()
    )


def test_parse_case_literal():
    c = parse_case("{ P & Q : 1.5 ; !P : 0 }", ConsistencyChecker(), partitioned=False)
    assert c.values() == (1.5, 0.0)
    assert c.formulas()[0] == normalize(And((P, Q)))
    typed = parse_case("{ exists c:City. TAt(t, c) : 2 }", ConsistencyChecker(), partitioned=False)
    assert typed.values() == (2.0,)
    with pytest.raises(CaseError):
        parse_case("P : 1", ConsistencyChecker())
    with pytest.raises(CaseError):
        parse_case("{ P }", ConsistencyChecker())
    with pytest.raises(CaseError):
        parse_case("{ P : abc }", ConsistencyChecker())
