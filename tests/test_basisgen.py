"""Basis growth: reachability candidates, certification, weight-based retirement."""

import gc
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import fomdp
from conftest import all_fluent_states, ground_value_iteration
from fomdp import basisgen, logic, solvers
from fomdp.basisgen import (
    BasisGenConfig,
    BasisGenError,
    DiscardLedger,
    candidate_regressions,
    generate_basis,
)
from fomdp.cases import Partition, build_case, constant_case, eval_case
from fomdp.domains import load_fixture, parse_domain, parse_instance
from fomdp.folp import FOLPError
from fomdp.logic import (
    TRUE,
    And,
    Atom,
    CheckerStats,
    ConsistencyChecker,
    Implies,
    Not,
    conj,
    format_formula,
    normalize,
    parse_formula,
)
from fomdp.model import LinearValueFunction
from fomdp.solvers import PolicyCase, _policy_key, foalp_solve
from fomdp.unidecomp import build_generic_q, make_generic_goal
from max_case_reference import assert_same_regions, reference_max_case

TOL = 1e-6

CHAIN = """\
domain chain
predicates:
    A
    B
ssa A() <=> (a = advS & B) | A
ssa B() <=> a = advS | B
action adv()
choice advS prob { true : 0.9 }
choice advF prob { true : 0.1 }
reward any { A : 10 ; !A : 0 }
discount 0.9
"""


def chain_model():
    return parse_domain(CHAIN)


def chain_states(model):
    inst = parse_instance("instance chain_start\ninit: { }")
    return all_fluent_states(model, inst), inst.universe()


def indicator(model, f):
    return build_case(
        [Partition(normalize(f), 1.0), Partition(normalize(Not(f)), 0.0)],
        model.checker,
        True,
    )


def flip_seeds(model):
    return LinearValueFunction(
        (0.0, 0.0), (constant_case(1.0), indicator(model, Atom("P", ())))
    )


def heads(lvf):
    return [b.partitions[0].formula for b in lvf.bases]


def max_value_error(model, lvf, states, universe):
    flat = lvf.flatten(model.checker)
    sig = model.signature()
    exact = ground_value_iteration(model, states, universe)
    return max(abs(eval_case(flat, s, signature=sig) - exact[s]) for s in states)


def assert_certified_disjoint(model, lvf, report):
    hs = heads(lvf)
    for i in report.certified:
        assert len(lvf.bases[i].partitions) == 2
        assert lvf.bases[i].partitions[1].value == 0.0
        for j in report.certified:
            if i < j:
                assert model.checker.check(conj((hs[i], hs[j]))) is False
    for h in hs:
        assert h not in report.ledger


def test_config_validation():
    with pytest.raises(BasisGenError, match="iteration limit"):
        BasisGenConfig(iters=0)
    with pytest.raises(BasisGenError, match="policy iteration limit"):
        BasisGenConfig(api_iters=0)
    with pytest.raises(BasisGenError, match="value threshold"):
        BasisGenConfig(tau=-0.1)
    with pytest.raises(BasisGenError, match="solver"):
        BasisGenConfig(solver="simplex")


def test_ledger_membership_is_normalized():
    a, b = Atom("A", ()), Atom("B", ())
    ledger = DiscardLedger()
    ledger.add(Implies(a, b))
    assert Implies(a, b) in ledger
    assert normalize(Implies(a, b)) in ledger
    ledger.add(normalize(Implies(a, b)))
    assert len(ledger) == 1
    assert And((a, b)) not in ledger


def test_flip_candidate_is_the_negated_reward_region():
    model, _ = load_fixture("flip")
    cands = candidate_regressions(model, flip_seeds(model))
    assert cands == [normalize(Not(Atom("P", ())))]


def test_candidates_skip_ledgered_and_equivalent():
    model, _ = load_fixture("flip")
    ledger = DiscardLedger()
    ledger.add(Not(Atom("P", ())))
    assert candidate_regressions(model, flip_seeds(model), ledger) == []
    covered = LinearValueFunction(
        (0.0, 0.0, 0.0),
        (
            constant_case(1.0),
            indicator(model, Atom("P", ())),
            indicator(model, Not(Atom("P", ()))),
        ),
    )
    assert candidate_regressions(model, covered) == []


def test_generate_basis_flip_reaches_exact_values():
    model, inst = load_fixture("flip", "flip")
    config = BasisGenConfig(iters=3)
    lvf, report = generate_basis(model, config)
    assert heads(lvf) == [TRUE, normalize(Atom("P", ()))]
    assert normalize(Not(Atom("P", ()))) in report.ledger
    assert len(report.rows) == 2  # third iteration derives nothing new
    assert all(abs(w) >= config.tau for w in lvf.weights)
    assert_certified_disjoint(model, lvf, report)
    states = all_fluent_states(model, inst)
    assert max_value_error(model, lvf, states, inst.universe()) <= TOL


def test_generate_basis_iteration_one_is_seeds_only():
    model, _ = load_fixture("flip")
    lvf, report = generate_basis(model, BasisGenConfig(iters=1))
    assert heads(lvf) == [TRUE, normalize(Atom("P", ()))]
    assert len(report.rows) == 1
    box, _ = load_fixture("boxworld_mini")
    lvf, report = generate_basis(box, BasisGenConfig(iters=1))
    # the 10-valued and 9-valued reward partitions share one goal formula
    assert len(lvf.bases) == 2
    assert abs(lvf.weights[0] - 89.010989010989) <= TOL
    assert abs(lvf.weights[1] - 10.989010989011) <= TOL
    assert report.certified == (1,)


def test_chain_foapi_grows_to_exact_tile():
    model = chain_model()
    lvf, report = generate_basis(model, BasisGenConfig(iters=4, solver="foapi"))
    a, b = Atom("A", ()), Atom("B", ())
    assert heads(lvf) == [
        TRUE,
        normalize(And((b, Not(a)))),
        normalize(And((Not(a), Not(b)))),
    ]
    assert report.certified == (1, 2)
    assert len(report.rows) == 3
    assert_certified_disjoint(model, lvf, report)
    states, universe = chain_states(model)
    assert max_value_error(model, lvf, states, universe) <= TOL


def test_chain_foalp_stays_an_upper_bound():
    model = chain_model()
    lvf, report = generate_basis(model, BasisGenConfig(iters=4, solver="foalp"))
    # the uniform objective zeroes the reachability pair, so it is retired
    assert heads(lvf) == [TRUE, normalize(Atom("A", ()))]
    assert len(report.rows) == 2
    states, universe = chain_states(model)
    flat = lvf.flatten(model.checker)
    sig = model.signature()
    exact = ground_value_iteration(model, states, universe)
    for s in states:
        assert eval_case(flat, s, signature=sig) >= exact[s] - 1e-9
    assert max_value_error(model, lvf, states, universe) > 1.0


def test_covering_pairs_with_constant_are_unbounded():
    model = chain_model()
    a, b = Atom("A", ()), Atom("B", ())
    tile = LinearValueFunction(
        (0.0,) * 4,
        (
            constant_case(1.0),
            indicator(model, a),
            indicator(model, And((b, Not(a)))),
            indicator(model, And((Not(a), Not(b)))),
        ),
    )
    # raising the constant and lowering every pair cancels pointwise but
    # improves the size-weighted objective forever
    with pytest.raises(FOLPError, match=r"unbounded along w0=1, w1=-1, w2=-1, w3=-1"):
        foalp_solve(model, tile)


def cold_solve_stats(fixture: str, solver: str) -> CheckerStats:
    """Checker counts of a cold `iters=2` solve, with a fresh checker as the benchmark has."""
    model = make_generic_goal(load_fixture(fixture)[0])
    model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
    generate_basis(model, BasisGenConfig(iters=2, solver=solver))
    return model.checker.stats


def test_checker_stats_repeat_across_cold_solves():
    stats = [cold_solve_stats("boxworld_mini", "foalp") for _ in range(2)]
    assert stats[0] == stats[1]
    s = stats[0]
    assert (s.checks, s.cache_hits, s.lifted_attempts, s.lifted) == (643, 506, 56, 46)
    # grounding every size combination of every type took 243 groundings here
    assert (s.groundings, s.skipped, s.exhausted) == (135, 238, 0)
    # grounding every size combination of every type by a tree walk cost 240,276
    # units here, and its largest sizes alone 77,725; a repeated expansion is now
    # free, and with memos that ended with each grounding this took 20,577 units
    assert (s.work, s.reused, s.atoms) == (12_814, 2_288, 31)
    # the counts do not depend on the hash seed either
    code = (
        "import dataclasses, json, test_basisgen as t;"
        " print(json.dumps(dataclasses.asdict(t.cold_solve_stats('boxworld_mini', 'foalp'))))"
    )
    tests = Path(__file__).resolve().parent
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([str(tests), str(tests.parent / "src")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert CheckerStats(**json.loads(out.stdout.splitlines()[-1])) == s, seed


@pytest.mark.parametrize(
    "fixture, want",
    [
        ("blocksworld_mini", CheckerStats(checks=836, cache_hits=729, groundings=142, work=5_647, atoms=119, reused=1_649)),
        (
            "boxworld_mini",
            CheckerStats(
                checks=846, cache_hits=720, lifted_attempts=53, lifted=22,
                groundings=292, skipped=464, work=39_119, atoms=167, reused=4_686,
            ),
        ),
    ],
)
def test_cold_foapi_checker_stats(fixture, want):
    assert cold_solve_stats(fixture, "foapi") == want


def test_no_checker_parameter_has_a_default():
    takers = []
    for info in pkgutil.iter_modules(fomdp.__path__):
        module = importlib.import_module(f"fomdp.{info.name}")
        classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in [module, *classes]:
            for fn in vars(owner).values():
                fn = getattr(fn, "__func__", fn)  # static and class methods
                # functions written in the module, not dataclass-generated ones
                if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                    continue
                param = inspect.signature(fn).parameters.get("checker")
                if param is not None:
                    assert param.default is inspect.Parameter.empty, fn.__qualname__
                    takers.append(fn.__qualname__)
    assert {"build_case", "simplify_bdd", "_BddSimplifier.__init__", "LinearValueFunction.flatten"} <= set(takers)


@pytest.mark.parametrize("solver", ["foalp", "foapi"])
def test_cold_solve_runs_on_the_model_checker_alone(monkeypatch, solver):
    model = make_generic_goal(load_fixture("boxworld_mini")[0])
    model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
    made, used = [], []
    real_init, real_check = ConsistencyChecker.__init__, ConsistencyChecker.check

    def init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    def check(self, f):
        used.append(self)
        return real_check(self, f)

    monkeypatch.setattr(ConsistencyChecker, "__init__", init)
    monkeypatch.setattr(ConsistencyChecker, "check", check)
    generate_basis(model, BasisGenConfig(iters=2, solver=solver))
    assert made == []
    assert len(used) == model.checker.stats.checks > 0
    assert all(c is model.checker for c in used)


def cold_foapi_solve(fixture: str) -> tuple:
    """A cold FOAPI basis generation with a fresh checker, as the benchmark runs it.

    Returns the model, every `foapi_solve` report, and the input and output
    of every `max_case` call that extracted a policy.
    """
    model = make_generic_goal(load_fixture(fixture)[0])
    model = replace(model, checker=ConsistencyChecker(model.bound, model.signature()))
    reports, extractions = [], []
    real_max, real_solve = solvers.max_case, basisgen.foapi_solve

    def max_case(c, checker):
        extractions.append((c, real_max(c, checker)))
        return extractions[-1][1]

    def foapi_solve(*args):
        reports.append(real_solve(*args))
        return reports[-1]

    solvers.max_case, basisgen.foapi_solve = max_case, foapi_solve
    try:
        generate_basis(model, BasisGenConfig(iters=2, solver="foapi"))
    finally:
        solvers.max_case, basisgen.foapi_solve = real_max, real_solve
    return model, reports, extractions


def cold_blocksworld_foapi_trace() -> dict:
    """Checker counts, policy regions in and out of `max_case` per iteration, and policy keys."""
    model, reports, extractions = cold_foapi_solve("blocksworld_mini")
    return {
        "checks": [model.checker.stats.checks, model.checker.stats.cache_hits],
        "regions": [[r.regions_in, r.regions_out] for report in reports for r in report.stats],
        "policies": [
            [[format_formula(f), tag, value] for f, tag, value in _policy_key(PolicyCase(out))]
            for _, out in extractions
        ],
    }


def test_cold_foapi_solve_repeats_across_hash_seeds():
    trace = cold_blocksworld_foapi_trace()
    assert trace["checks"] == [836, 729]
    # two reweightings: the first policy repeats at iteration 4, the second at 3
    assert trace["regions"] == [[9, 2], [9, 3], [9, 3], [9, 3], [15, 5], [15, 5], [15, 5]]
    assert [[[tag, value] for _, tag, value in key] for key in trace["policies"]] == [
        [["noop", 10.0], ["move", 0.0]],
        [["noop", 100.0], ["move", 81.0], ["move", 0.0]],
        [["noop", 59.945054945], ["move", 48.956043956], ["move", 40.054945055]],
        [["noop", 59.945054945], ["move", 48.956043956], ["move", 40.054945055]],
        [["noop", 59.945054945], ["move", 48.956043956]] + [["move", 40.054945055]] * 3,
        [["noop", 63.950549451], ["move", 52.961538462], ["move", 44.06043956], ["moveToTable", 44.06043956], ["move", 36.049450549]],
        [["noop", 63.950549451], ["move", 52.961538462], ["move", 44.06043956], ["moveToTable", 44.06043956], ["move", 36.049450549]],
    ]
    # the printed region formulas too: the shared BDD orders its atoms by first
    # use over the sorted partitions, never by hash
    digest = hashlib.sha256(json.dumps(trace["policies"]).encode()).hexdigest()
    assert digest == "9f81d45189b1ba1ad346b78b7fcdf6b85f0bdde913c9adfda72ea7164ba7906b"
    code = "import json, test_basisgen as t; print(json.dumps(t.cold_blocksworld_foapi_trace()))"
    tests = Path(__file__).resolve().parent
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([str(tests), str(tests.parent / "src")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.splitlines()[-1]) == trace, seed


@pytest.mark.parametrize("fixture", ["blocksworld_mini", "boxworld_mini"])
def test_foapi_policy_extraction_matches_per_region_reference(fixture):
    model, _, extractions = cold_foapi_solve(fixture)
    assert len(extractions) == 7
    for c, got in extractions:
        assert_same_regions(got, reference_max_case(c, model.checker), model.checker)


def test_solver_failure_carries_partial_result():
    model, _ = load_fixture("flip")
    with pytest.raises(BasisGenError, match="infeasible") as exc:
        generate_basis(model, BasisGenConfig(iters=1, include_constant=False))
    assert len(exc.value.lvf.bases) == 1
    assert exc.value.report.rows == ()
    assert exc.value.report.certified == (0,)


def test_a_ground_store_lives_for_one_session(monkeypatch):
    made = []  # a weak reference to every store the checker makes
    real_store = logic._GroundStore

    def store(stats):
        s = real_store(stats)
        made.append(weakref.ref(s))
        return s

    monkeypatch.setattr(logic, "_GroundStore", store)

    def stores(run) -> tuple:
        """(stores made while `run` ran, stores still alive after it)."""
        start = len(made)
        run()
        gc.collect()
        return len(made) - start, sum(r() is not None for r in made)

    flip, _ = load_fixture("flip")
    boxworld = make_generic_goal(load_fixture("boxworld_mini")[0])
    chk = flip.checker
    f = parse_formula("exists x, y. Q(x, y) & !Q(y, x)")
    # a check outside a session grounds through a store of its own and drops it
    assert stores(lambda: chk.check(f)) == (1, 0)

    def nested():
        with chk.session():
            outer = chk._store
            with chk.session():
                assert chk._store is outer
                chk.check(Not(f))
            assert chk._store is outer
            chk.check(And((f, parse_formula("forall x. P(x)"))))

    # a nested session keeps the outer store
    assert stores(nested) == (1, 0)
    # a solve and a Q set build, a store each, dropped when they return
    assert stores(lambda: generate_basis(flip, BasisGenConfig(iters=2))) == (1, 0)
    assert stores(lambda: build_generic_q(boxworld, LinearValueFunction((), ()))) == (1, 0)

    def failing():
        with pytest.raises(BasisGenError, match="infeasible"):
            generate_basis(flip, BasisGenConfig(iters=1, include_constant=False))

    # and a solve that raises drops its store too
    assert stores(failing) == (1, 0)
    assert chk._store is None and boxworld.checker._store is None


def test_zero_reward_retires_everything():
    model, _ = load_fixture("flip")
    model = replace(model, rewards={"any": constant_case(0.0)})
    lvf, report = generate_basis(model, BasisGenConfig(iters=2))
    assert lvf.bases == ()
    assert report.rows[0].num_basis == 0
    assert report.rows[0].num_discarded == 1
    assert TRUE in report.ledger


def test_csv_lines_shape():
    model, _ = load_fixture("flip")
    _, report = generate_basis(model, BasisGenConfig(iters=2))
    lines = report.csv_lines()
    assert lines[0] == "iter,num_basis,num_discarded,solver_objective,wall_ms"
    for line in lines[1:]:
        assert re.fullmatch(r"\d+,\d+,\d+,[-+0-9.e]+,\d+\.\d{3}", line)
    assert len(lines) == len(report.rows) + 1
