"""LP layer against independent oracles.

The simplex is checked against vertex enumeration on random bounded
polyhedra, and the certified violation search against a dumb cross-product
enumeration of every partition selection.
"""

import itertools
import random

import numpy as np
import pytest

from fomdp.cases import CaseStatement, Partition, cross_sum, eval_case, parse_case
from fomdp.folp import (
    ConstraintSchema,
    FOLPError,
    FirstOrderLP,
    LPModel,
    LinExpr,
    LinearConstraint,
    affine_case,
    search_schema,
    solve_first_order_lp,
    solve_lp,
)
from fomdp.logic import TRUE, And, Atom, ConsistencyChecker, Not, Universe, conj, make_state
from lp_oracle import bounded_instance, infeasible_instance, unbounded_instance, vertex_optimum


def lp_from_rows(rows, c):
    n = len(c)
    variables = tuple(f"x{i}" for i in range(n))
    cons = tuple(
        LinearConstraint(
            tuple((f"x{i}", float(a[i])) for i in range(n) if a[i] != 0.0), "<=", float(rhs)
        )
        for a, rhs in rows
    )
    objective = tuple((f"x{i}", float(c[i])) for i in range(n) if c[i] != 0.0)
    return LPModel(variables, objective, cons)


# ---------------------------------------------------------------------------
# simplex vs vertex enumeration


def test_random_bounded_lps_match_vertex_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randrange(1, 21)
        rows, c = bounded_instance(rng, n)
        expect = vertex_optimum(rows, c)
        assert expect is not None
        sol = solve_lp(lp_from_rows(rows, c))
        assert sol.status == "optimal"
        assert abs(sol.objective - expect) <= 1e-6


def test_infeasible_verdicts_agree():
    # the contradiction pair adds two rows, so cap n to keep C(m, n) small
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 15)
        rows, c = infeasible_instance(rng, n)
        assert vertex_optimum(rows, c) is None
        assert solve_lp(lp_from_rows(rows, c)).status == "infeasible"


def test_unbounded_verdicts_agree():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(1, 21)
        rows, c = unbounded_instance(rng, n)
        sol = solve_lp(lp_from_rows(rows, c))
        assert sol.status == "unbounded"
        d = np.array([sol.ray.get(f"x{i}", 0.0) for i in range(n)])
        for a, _ in rows:
            assert float(a @ d) <= 1e-9
        assert float(c @ d) < -1e-9


def test_minimum_with_lower_bound():
    m = LPModel(("x",), (("x", 1.0),), (LinearConstraint((("x", 1.0),), ">=", 3.0),))
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.assignment["x"] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    m = LPModel(
        ("x",),
        (("x", 1.0),),
        (
            LinearConstraint((("x", 1.0),), ">=", 1.0),
            LinearConstraint((("x", 1.0),), "<=", 0.0),
        ),
    )
    assert solve_lp(m).status == "infeasible"


def test_equality_row():
    m = LPModel(
        ("x", "y"),
        (("x", 1.0), ("y", 2.0)),
        (
            LinearConstraint((("x", 1.0), ("y", 1.0)), "=", 5.0),
            LinearConstraint((("y", 1.0),), ">=", 0.0),
            LinearConstraint((("y", 1.0),), "<=", 4.0),
        ),
    )
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.assignment == pytest.approx({"x": 5.0, "y": 0.0}, abs=1e-9)


def test_degenerate_cycling_example_terminates():
    # Beale's cycling program; anti-cycling must still reach -1/20
    nonneg = tuple(
        LinearConstraint(((v, 1.0),), ">=", 0.0) for v in ("x1", "x2", "x3", "x4")
    )
    cons = (
        LinearConstraint((("x1", 0.25), ("x2", -60.0), ("x3", -0.04), ("x4", 9.0)), "<=", 0.0),
        LinearConstraint((("x1", 0.5), ("x2", -90.0), ("x3", -0.02), ("x4", 3.0)), "<=", 0.0),
        LinearConstraint((("x3", 1.0),), "<=", 1.0),
    ) + nonneg
    m = LPModel(
        ("x1", "x2", "x3", "x4"),
        (("x1", -0.75), ("x2", 150.0), ("x3", -0.02), ("x4", 6.0)),
        cons,
    )
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_duals_certify_optimality():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randrange(1, 11)
        rows, c = bounded_instance(rng, n)
        m = lp_from_rows(rows, c)
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.duals is not None
        strong = sum(d * con.rhs for d, con in zip(sol.duals, m.constraints))
        assert strong == pytest.approx(sol.objective, abs=1e-6)
        for d, con in zip(sol.duals, m.constraints):
            if abs(d) > 1e-9:
                lhs = sum(k * sol.assignment[v] for v, k in con.coeffs)
                assert lhs == pytest.approx(con.rhs, abs=1e-6)


def test_solve_lp_is_deterministic():
    rng = random.Random(4)
    rows, c = bounded_instance(rng, 8)
    m = lp_from_rows(rows, c)
    a, b = solve_lp(m), solve_lp(m)
    assert a.assignment == b.assignment
    assert a.objective == b.objective


def test_model_validation():
    with pytest.raises(FOLPError):
        LPModel(("x", "x"), (), ())
    with pytest.raises(FOLPError):
        LPModel(("x",), (("y", 1.0),), ())
    with pytest.raises(FOLPError):
        LPModel(("x",), (), (LinearConstraint((("z", 1.0),), "<=", 0.0),))
    with pytest.raises(FOLPError):
        LinearConstraint((), "<", 0.0)
    with pytest.raises(FOLPError):
        LinearConstraint((("x", float("nan")),), "<=", 0.0)
    with pytest.raises(FOLPError):
        LinearConstraint((), "<=", float("inf"))


# ---------------------------------------------------------------------------
# affine expressions and schemata


def test_linexpr_arithmetic():
    e = LinExpr.of({"a": 2.0, "b": -1.0}, 3.0)
    f = e + LinExpr.of({"b": 1.0}, 1.0)
    assert f.as_dict() == {"a": 2.0}
    assert f.const == 4.0
    g = 2.0 * e - 1.0
    assert g.evaluate({"a": 1.0, "b": 0.0}) == pytest.approx(9.0)
    assert (-e).evaluate({"a": 1.0, "b": 2.0}) == pytest.approx(-3.0)
    assert 0.0 + e == e
    assert len({e, LinExpr.of({"b": -1.0, "a": 2.0}, 3.0)}) == 1


def test_affine_case_wraps_values():
    c = parse_case("{ P : 2 ; !P : 0 }", ConsistencyChecker())
    ac = affine_case(c, "w", 0.5)
    assert ac.partitioned
    assert ac.partitions[0].value == LinExpr.of({"w": 1.0})
    assert ac.partitions[1].value == LinExpr()
    const = affine_case(c, None, 2.0)
    assert const.partitions[0].value == LinExpr(const=4.0)


def _eval_affine(case, state, weights):
    v = eval_case(case, state)
    return v.evaluate(weights) if isinstance(v, LinExpr) else float(v)


def test_flatten_schema_matches_component_sum():
    c1 = affine_case(parse_case("{ P : 1 ; !P : 0 }", ConsistencyChecker()), "u")
    c2 = affine_case(parse_case("{ Q : 3 ; !Q : 7 }", ConsistencyChecker()), "v", -1.0)
    r = parse_case("{ P & Q : 5 ; !(P & Q) : 2 }", ConsistencyChecker())
    schema = ConstraintSchema("s", (c1, c2, affine_case(r, None)))
    weights = {"u": 2.0, "v": 0.5}
    flat = cross_sum(schema.cases, ConsistencyChecker())
    assert flat.partitioned
    uni = Universe.of({})
    for p_true, q_true in itertools.product([False, True], repeat=2):
        atoms = set()
        if p_true:
            atoms.add(("P",))
        if q_true:
            atoms.add(("Q",))
        s = make_state(atoms, uni)
        expect = sum(_eval_affine(c, s, weights) for c in schema.cases)
        assert _eval_affine(flat, s, weights) == pytest.approx(expect, abs=1e-12)


def _minterm(k, pattern):
    lits = []
    for i in range(k):
        a = Atom(f"M{i}")
        lits.append(a if (pattern >> i) & 1 else Not(a))
    return lits[0] if len(lits) == 1 else And(tuple(lits))


def _random_orthogonal_schema(rng, n):
    k = max(1, (n - 1).bit_length())
    patterns = rng.sample(range(2**k), n)
    cases = []
    for i, pat in enumerate(patterns):
        pos = _minterm(k, pat)
        coeff = round(rng.uniform(-5.0, 5.0), 3) or 1.0
        cases.append(
            CaseStatement(
                (Partition(pos, LinExpr.of({f"w{i}": coeff})), Partition(Not(pos), LinExpr())),
                True,
            )
        )
    extra = CaseStatement(
        (
            Partition(Atom("R0"), LinExpr(const=round(rng.uniform(-3.0, 3.0), 3))),
            Partition(Not(Atom("R0")), LinExpr(const=round(rng.uniform(-3.0, 3.0), 3))),
        ),
        True,
    )
    cases.append(extra)
    return ConstraintSchema(f"g{n}", tuple(cases), certified=tuple(range(n)))


def _brute_max(schema, weights, chk):
    best = None
    for sel in itertools.product(*(range(len(c.partitions)) for c in schema.cases)):
        fs = tuple(schema.cases[i].partitions[pi].formula for i, pi in enumerate(sel))
        if not chk.is_consistent(conj(fs)):
            continue
        val = sum(
            schema.cases[i].partitions[pi].value.evaluate(weights) for i, pi in enumerate(sel)
        )
        if best is None or val > best:
            best = val
    return best


def test_certified_search_matches_brute_force():
    rng = random.Random(20240811)
    chk = ConsistencyChecker()
    for trial in range(100):
        n = 12 if trial % 20 == 0 else rng.randrange(1, 13)
        schema = _random_orthogonal_schema(rng, n)
        weights = {f"w{i}": rng.uniform(-10.0, 10.0) for i in range(n)}
        got = search_schema(schema, weights, chk)
        expect = _brute_max(schema, weights, chk)
        if expect is None or expect <= 1e-6:
            assert got is None
        else:
            assert got is not None
            assert got.violation == pytest.approx(expect, abs=1e-9)
            fs = tuple(
                schema.cases[i].partitions[pi].formula for i, pi in enumerate(got.selection)
            )
            assert chk.is_consistent(conj(fs))
            assert got.expr.evaluate(weights) == pytest.approx(expect, abs=1e-9)


def test_schema_validation():
    single = CaseStatement((Partition(TRUE, LinExpr()),), True)
    with pytest.raises(FOLPError):
        ConstraintSchema("s", (single,), certified=(0,))
    with pytest.raises(FOLPError):
        ConstraintSchema("s", (single,), certified=(3,))


# ---------------------------------------------------------------------------
# constraint generation


def test_generation_reaches_known_minimum():
    case = CaseStatement((Partition(TRUE, LinExpr.of({"w": -1.0}, 5.0)),), True)
    folp = FirstOrderLP(("w",), (("w", 1.0),), (ConstraintSchema("s", (case,)),))
    res = solve_first_order_lp(folp, ConsistencyChecker())
    assert res.assignment["w"] == pytest.approx(5.0, abs=1e-9)
    assert res.objective == pytest.approx(5.0, abs=1e-9)
    assert res.iterations == 1
    assert [r.schema_id for r in res.stats] == ["s"]
    assert res.stats[0].violation == 0.0


def _flip_folp():
    reward = parse_case("{ P : 10 ; !P : 0 }", ConsistencyChecker())
    fodtr_const = parse_case("{ true : 0.9 }", ConsistencyChecker())
    fodtr_flip = parse_case("{ P : 0.9 ; !P : 0.72 }", ConsistencyChecker())
    fodtr_noop = parse_case("{ P : 0.9 ; !P : 0 }", ConsistencyChecker())
    basis_const = parse_case("{ true : 1 }", ConsistencyChecker())
    basis_p = parse_case("{ P : 1 ; !P : 0 }", ConsistencyChecker())

    def schema(sid, f1):
        cases = (
            affine_case(reward, None),
            affine_case(fodtr_const, "w0"),
            affine_case(f1, "w1"),
            affine_case(basis_const, "w0", -1.0),
            affine_case(basis_p, "w1", -1.0),
        )
        return ConstraintSchema(sid, cases, certified=(4,))

    objective = (("w0", 1.0), ("w1", 0.5))
    return FirstOrderLP(
        ("w0", "w1"), objective, (schema("flip", fodtr_flip), schema("noop", fodtr_noop))
    )


def test_generation_solves_two_action_value_bound():
    # tightest upper bound: w0 + w1 = 100 and w0 = 7.2 w1
    res = solve_first_order_lp(_flip_folp(), ConsistencyChecker())
    assert res.assignment["w0"] == pytest.approx(87.80487804878048, abs=1e-7)
    assert res.assignment["w1"] == pytest.approx(12.195121951219512, abs=1e-7)
    assert res.objective == pytest.approx(93.90243902439024, abs=1e-7)
    for schema in _flip_folp().schemata:
        assert search_schema(schema, res.assignment, ConsistencyChecker()) is None
    # one seed per schema plus one generated cut per schema
    assert len(res.constraints) == 4
    assert res.iterations == 2


def test_unbounded_relaxation_probed_with_ray():
    pos = Atom("P")
    case = CaseStatement(
        (Partition(pos, LinExpr.of({"w": 1.0}, -10.0)), Partition(Not(pos), LinExpr())), True
    )
    folp = FirstOrderLP(("w",), (("w", -1.0),), (ConstraintSchema("cap", (case,), certified=(0,)),))
    res = solve_first_order_lp(folp, ConsistencyChecker())
    assert res.assignment["w"] == pytest.approx(10.0, abs=1e-9)
    assert res.objective == pytest.approx(-10.0, abs=1e-9)
    assert res.iterations == 2


def test_generation_reports_unbounded():
    case = CaseStatement((Partition(TRUE, LinExpr.of({"w": -1.0})),), True)
    folp = FirstOrderLP(("w",), (("w", -1.0),), (ConstraintSchema("s", (case,)),))
    with pytest.raises(FOLPError, match="unbounded along w="):
        solve_first_order_lp(folp, ConsistencyChecker())
