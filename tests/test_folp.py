"""LP layer against independent oracles.

The simplex is checked against vertex enumeration on random bounded
polyhedra, and the certified violation search and the seed rows against a
dumb cross-product enumeration of every partition selection.
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
    _Tableau,
    affine_case,
    search_schema,
    seed_rows,
    solve_first_order_lp,
    solve_lp,
)
from fomdp.logic import TRUE, And, Atom, ConsistencyChecker, Not, Universe, conj, make_state
from lp_oracle import bounded_instance, infeasible_instance, unbounded_instance, vertex_optimum
from search_reference import reference_search


def lp_from_rows(rows, c):
    n = len(c)
    variables = tuple(f"x{i}" for i in range(n))
    cons = tuple(
        LinearConstraint(tuple((f"x{i}", float(a[i])) for i in range(n) if a[i] != 0.0), float(rhs))
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
    m = LPModel(("x",), (("x", 1.0),), (LinearConstraint((("x", -1.0),), -3.0),))
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.assignment["x"] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    m = LPModel(
        ("x",),
        (("x", 1.0),),
        (
            LinearConstraint((("x", -1.0),), -1.0),
            LinearConstraint((("x", 1.0),), 0.0),
        ),
    )
    assert solve_lp(m).status == "infeasible"


def test_equality_row():
    # x + y = 5 as two rows; the second's negative right-hand side needs phase 1
    m = LPModel(
        ("x", "y"),
        (("x", 1.0), ("y", 2.0)),
        (
            LinearConstraint((("x", 1.0), ("y", 1.0)), 5.0),
            LinearConstraint((("x", -1.0), ("y", -1.0)), -5.0),
            LinearConstraint((("y", -1.0),), 0.0),
            LinearConstraint((("y", 1.0),), 4.0),
        ),
    )
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.assignment == pytest.approx({"x": 5.0, "y": 0.0}, abs=1e-9)


def test_degenerate_cycling_example_terminates():
    # Beale's cycling program; anti-cycling must still reach -1/20
    nonneg = tuple(LinearConstraint(((v, -1.0),), 0.0) for v in ("x1", "x2", "x3", "x4"))
    cons = (
        LinearConstraint((("x1", 0.25), ("x2", -60.0), ("x3", -0.04), ("x4", 9.0)), 0.0),
        LinearConstraint((("x1", 0.5), ("x2", -90.0), ("x3", -0.02), ("x4", 3.0)), 0.0),
        LinearConstraint((("x3", 1.0),), 1.0),
    ) + nonneg
    m = LPModel(
        ("x1", "x2", "x3", "x4"),
        (("x1", -0.75), ("x2", 150.0), ("x3", -0.02), ("x4", 6.0)),
        cons,
    )
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_dantzig_cycle_on_beale_switches_to_bland(monkeypatch):
    # solve_lp splits every variable into x+ - x-, and Dantzig's rule does not
    # cycle there; in slack form over x >= 0 it does, until Bland's rule takes over
    chosen = []
    real = _Tableau._entering

    def entering(self, red, bland):
        chosen.append(bland)
        assert len(chosen) < 1000, "the simplex cycles"
        return real(self, red, bland)

    monkeypatch.setattr(_Tableau, "_entering", entering)
    rows = [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
    tab = _Tableau([r + [float(k == i) for k in range(3)] for i, r in enumerate(rows)], [0.0, 0.0, 1.0], [4, 5, 6])
    cost = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    assert tab.run(cost, frozenset()) is None
    assert any(chosen)
    assert sum(cost[j] * v for j, v in zip(tab.basis, tab.b)) == pytest.approx(-0.05, abs=1e-9)


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
        LPModel(("x",), (), (LinearConstraint((("z", 1.0),), 0.0),))
    with pytest.raises(FOLPError):
        LinearConstraint((("x", float("nan")),), 0.0)
    with pytest.raises(FOLPError):
        LinearConstraint((), float("inf"))


# ---------------------------------------------------------------------------
# affine expressions and schemata


def test_linexpr_arithmetic():
    e = LinExpr.of({"a": 2.0, "b": -1.0}, 3.0)
    f = e + LinExpr.of({"b": 1.0}, 1.0)
    assert dict(f.coeffs) == {"a": 2.0}
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


def _random_schema(rng, sid):
    """Overlapping uncertified cases over four switches, certified pairs over minterms of two more."""
    atoms = [Atom(f"A{j}") for j in range(4)]

    def literal():
        a = rng.choice(atoms)
        return a if rng.random() < 0.5 else Not(a)

    def value():
        names = rng.sample(["w0", "w1", "w2"], rng.randrange(3))
        return LinExpr.of({v: rng.choice((-2.0, -1.0, 0.5, 1.0, 3.0)) for v in names}, rng.choice((-3.0, -1.0, 0.0, 0.25, 2.0)))

    cases = [
        (CaseStatement(tuple(Partition(conj(tuple(literal() for _ in range(rng.randrange(1, 3)))), value()) for _ in range(rng.randrange(1, 4))), True), False)
        for _ in range(rng.randrange(1, 5))
    ]
    for pattern in rng.sample(range(4), rng.randrange(4)):
        pos = _minterm(2, pattern)
        cases.append((CaseStatement((Partition(pos, value()), Partition(Not(pos), value())), True), True))
    rng.shuffle(cases)
    return ConstraintSchema(sid, tuple(c for c, _ in cases), tuple(i for i, (_, cert) in enumerate(cases) if cert))


def test_bounded_search_matches_unbounded_reference():
    # integer weights tie often; ray-scale weights (an unbounded LP's ray
    # scaled to 1e4, as in constraint generation) make large sums that cancel
    rng = random.Random(20261021)
    chk = ConsistencyChecker()
    pruned, found = [0], 0
    for trial in range(300):
        schema = _random_schema(rng, f"r{trial}")
        if trial % 3 == 0:
            weights = {f"w{j}": float(rng.randrange(-2, 3)) for j in range(3)}
        elif trial % 3 == 1:
            weights = {f"w{j}": rng.uniform(-10.0, 10.0) for j in range(3)}
        else:
            ray = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            weights = {f"w{j}": 1e4 / max(map(abs, ray)) * r for j, r in enumerate(ray)}
        got = search_schema(schema, weights, chk, pruned)
        want = reference_search(schema, weights, chk)
        if want is None:
            assert got is None
            continue
        found += 1
        assert (got.selection, got.expr, got.violation.hex()) == (want.selection, want.expr, want.violation.hex())
    assert pruned[0] > 300 and 100 < found < 300


def test_seed_rows_match_brute_force():
    # the seed row is the first consistent selection of the cross product in
    # which each certified case lists its negative partition first
    rng = random.Random(20261020)
    chk = ConsistencyChecker()
    for trial in range(60):
        n = rng.choice((2, 4, 8)) if trial % 3 == 0 else rng.randrange(1, 13)
        schema = _random_orthogonal_schema(rng, n)
        if trial % 2:  # the uncertified case first, as in FOALP schemata
            schema = ConstraintSchema(
                schema.schema_id, schema.cases[-1:] + schema.cases[:-1], tuple(i + 1 for i in schema.certified)
            )
        orders = [
            range(len(c.partitions))[::-1] if i in schema.certified else range(len(c.partitions))
            for i, c in enumerate(schema.cases)
        ]
        expect = next(
            sel
            for sel in itertools.product(*orders)
            if chk.is_consistent(conj(tuple(schema.cases[i].partitions[pi].formula for i, pi in enumerate(sel))))
        )
        values = (schema.cases[i].partitions[pi].value for i, pi in enumerate(expect))
        got = seed_rows(FirstOrderLP((), (), (schema,)), chk)
        assert got == ((schema.schema_id, expect, sum(values, LinExpr())),)


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


def test_generation_rows_count_pruned_prefixes():
    res = solve_first_order_lp(_flip_folp(), ConsistencyChecker())
    rows = [(r.iteration, r.schema_id, r.pruned) for r in res.stats]
    assert rows == [(1, "flip", 1), (1, "noop", 1), (2, "flip", 2), (2, "noop", 2)]
    # the last rows are the searches at the optimum
    for schema in _flip_folp().schemata:
        pruned = [0]
        assert search_schema(schema, res.assignment, ConsistencyChecker(), pruned) is None
        assert pruned == [2]


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
