"""Goal decomposition for universal rewards.

A universal reward pays out only when every ground goal holds, which makes
the exact value function grow with the goal count.  The decomposition
solves one model whose reward names a single generic goal on fresh
constants (`b_star`, `c_star`) and backs the solved values up into
per-template Q cases.  The Q partitions' witness bodies and the goal
compile into one program per Q set, whose parameters are the generic
constants.  At runtime a ground goal is just the arguments of its plans:
ground actions are scored by the average of their Q values across the
instance's unsatisfied goals, with no formula rewritten per decision.
Most ground actions fall in their template's lowest-valued region, which
is compiled as its complement: its few tuples are the exceptions to one
default score.
"""

import itertools

from dataclasses import dataclass, field, replace
from typing import Callable

from .cases import CaseStatement, constant_case
from .logic import (
    FALSE,
    TRUE,
    ActTerm,
    And,
    Atom,
    Eq,
    Formula,
    Not,
    Obj,
    Universe,
    fold_constants,
    free_vars,
    map_leaves,
    negation,
    normalize,
    replace_objects,
    substitute,
)
from .model import FOMDPModel, LinearValueFunction, backup_exists, materialize_universal
from .query import StateIndex, compile_program


class UnidecompError(Exception):
    pass


def _generic_parts(ur):
    constants = tuple(f"{n}_star" for n, _ in ur.variables)
    sub = {n: Obj(c) for (n, _), c in zip(ur.variables, constants)}
    return constants, normalize(substitute(ur.goal, sub))


def make_generic_goal(model: FOMDPModel) -> FOMDPModel:
    """Swap the universal reward for its single-generic-goal materialization.

    The goal variables become fresh constants (`b` -> `b_star`), so the
    solved value function speaks about one representative goal instead of
    the conjunction over all of them.
    """
    ur = model.universal_reward
    if ur is None:
        raise UnidecompError(f"model {model.name} has no universal reward to decompose")
    _, goal = _generic_parts(ur)
    return replace(model, rewards=materialize_universal(ur, goal, model.checker))


@dataclass(frozen=True)
class GenericQSet:
    """Per-template Q cases for one generic goal.

    Partitions keep their open pre-quantification bodies so ground
    parameter bindings can be enumerated against a concrete state.  Those
    bodies and the goal are compiled into one program whose parameters are
    the `constants`; a ground goal binds them without renaming any formula.
    `plans` answer only for goals whose goal query is false, the only goals
    that `score_actions` scores: where the negated goal is a conjunction of
    ground literals, each witness body is compiled with those literals'
    atoms fixed to the values they take then, and a body that folds to
    false has no plan.  Of the partitions left, the lowest-valued one
    compiles the negation of its body: that complement plan yields the
    tuples outside its region.  The `qcases` stay as solved.
    Make one with `build_generic_q` or `substitute_goal`.
    """

    variables: tuple  # typed (name, type) pairs of the goal variables
    constants: tuple  # object names currently standing in for them
    goal: Formula  # goal body on those constants
    qcases: tuple  # (template name, case statement), sorted by name
    # compiled from the fields above: the goal query, and per template its
    # bind variables' types and the (value, query) pairs in descending value
    # order, the last query the complement plan
    goal_query: Callable = field(compare=False, repr=False)
    plans: tuple = field(compare=False, repr=False)


def build_generic_q(model: FOMDPModel, lvf: LinearValueFunction) -> GenericQSet:
    """One-step lookahead of the solved values, per action template, in one checker session."""
    ur = model.universal_reward
    if ur is None:
        raise UnidecompError(f"model {model.name} has no universal reward to decompose")
    constants, goal = _generic_parts(ur)
    with model.checker.session():
        if model.rewards != materialize_universal(ur, goal, model.checker):
            raise UnidecompError(
                f"model {model.name} does not carry the generic-goal reward; "
                "apply make_generic_goal before solving"
            )
        flat = lvf.flatten(model.checker) if lvf.bases else constant_case(0.0)
        qcases = tuple(
            (name, backup_exists(model, flat, model.action(name)))
            for name in model.action_names()
        )
    return _compiled(ur.variables, constants, goal, qcases)


def _compiled(variables, constants, goal, qcases) -> GenericQSet:
    """The Q set with its goal and plans compiled over `constants` as one program."""
    if any(p.bind_body is None or p.bind_vars != q.partitions[0].bind_vars for _, q in qcases for p in q.partitions):
        raise UnidecompError("Q partitions must carry open binding bodies over their template's parameters")
    # ¬goal without `normalize`, which decides equalities between constants that may alias
    neg = fold_constants(negation(goal))
    lits = neg.parts if isinstance(neg, And) else (neg,)
    ground = all(isinstance(lit.sub if isinstance(lit, Not) else lit, (Atom, Eq)) and not free_vars(lit) for lit in lits)
    forced = {k: v for lit in lits for k, v in ((lit, TRUE), (negation(lit), FALSE))}  # what a false goal fixes
    ranked = []
    for name, q in qcases:
        parts = [(p.value, p.bind_body, p.bind_vars) for p in sorted(q.partitions, key=lambda p: -p.value)]
        if ground:
            parts = [(v, fold_constants(map_leaves(body, lambda g: forced.get(g, g))), bv) for v, body, bv in parts]
        parts = [part for part in parts if part[1] != FALSE]
        if parts:  # the lowest region by its complement
            value, body, bvars = parts[-1]
            parts[-1] = (value, negation(body), bvars)
            ranked.append((name, tuple(t for _, t in bvars), parts))
    it = iter(compile_program([*((body, bvars) for _, _, ps in ranked for _, body, bvars in ps), (goal, ())], constants))
    plans = tuple((name, types, tuple((value, next(it)) for value, _, _ in parts)) for name, types, parts in ranked)
    return GenericQSet(variables, constants, goal, qcases, next(it), plans)


def _binding_map(qset: GenericQSet, binding, pool=None) -> dict:
    objs = tuple(binding)
    if len(objs) != len(qset.constants):
        raise UnidecompError(
            f"goal binding {objs} has {len(objs)} objects for {len(qset.constants)} goal variables"
        )
    if pool is not None:
        for (name, vtype), o in zip(qset.variables, objs):
            if o not in pool(vtype):
                raise UnidecompError(f"object {o} is not a {vtype} (goal variable {name})")
    return dict(zip(qset.constants, objs))


def _rename_case(c: CaseStatement, mapping) -> CaseStatement:
    parts = tuple(
        replace(
            p,
            formula=replace_objects(p.formula, mapping),
            bind_body=replace_objects(p.bind_body, mapping),
        )
        for p in c.partitions
    )
    return CaseStatement(parts, c.partitioned)


def substitute_goal(qset: GenericQSet, binding, universe: Universe = None) -> GenericQSet:
    """Rename the generic constants to a concrete goal's objects; values unchanged.

    Decisions do not need this: they pass a goal's objects to the compiled
    queries as parameters.  It remains the explicit renaming of the Q cases.
    """
    mapping = _binding_map(qset, binding, None if universe is None else universe.pool)
    return _compiled(
        qset.variables,
        tuple(binding),
        replace_objects(qset.goal, mapping),
        tuple((n, _rename_case(q, mapping)) for n, q in qset.qcases),
    )


def goal_satisfied(qset: GenericQSet, binding, state) -> bool:
    """The goal holds for `binding`; raises UnidecompError for objects outside its types."""
    return _goal_holds(qset, binding, StateIndex(state))


def _goal_holds(qset: GenericQSet, binding, index: StateIndex, memo: dict = None) -> bool:
    _binding_map(qset, binding, index.pools.__getitem__)  # cached per index
    return bool(qset.goal_query(index, tuple(binding), memo))


def score_actions(qset: GenericQSet, goals, state) -> dict:
    """Average Q value per ground action across the unsatisfied goals.

    Already-satisfied goals contribute the same constant to every action,
    so they are dropped before averaging.  Per goal and template a ground
    binding takes the best Q partition it satisfies; summing all satisfied
    partitions would double-count overlapping existential regions.  One
    state index serves every plan, and one memo a goal's plans.

    Per goal, a template's higher plans claim tuples at their values, then
    its complement plan claims what is left of its tuples with no addend;
    every other tuple of the bind variables' pools lies in the lowest region.
    So every tuple that no plan yields shares one sum, and each other tuple
    is summed with the same addends in goal order as claiming region by
    region: a set complement, exact however the regions overlap or miss tuples.
    """
    index = StateIndex(state)
    unsat = [(g, memo) for g, memo in ((tuple(g), {}) for g in goals) if not _goal_holds(qset, g, index, memo)]
    if not unsat:
        raise UnidecompError("every goal is already satisfied")
    n = len(unsat)
    scores: dict = {}
    for name, types, (*higher, (low, outside)) in qset.plans:
        claims = []
        for g, memo in unsat:
            claimed: dict = {}
            for value, query in higher:
                for combo in query(index, g, memo):
                    claimed.setdefault(combo, value)
            for combo in outside(index, g, memo):
                claimed.setdefault(combo, None)
            claims.append(claimed)
        default = 0.0
        for _ in claims:  # added goal by goal, as every other sum, not multiplied
            default += low / n
        sums = dict.fromkeys(itertools.product(*(index.pools[t] for t in types)), default)
        for combo in set().union(*claims):
            total, hit = 0.0, False
            for claimed in claims:
                value = claimed.get(combo, low)
                if value is not None:
                    total += value / n
                    hit = True
            if hit:
                sums[combo] = total
            else:
                del sums[combo]
        scores.update(((name, combo), total) for combo, total in sums.items())
    return scores


def select_action(qset: GenericQSet, goals, state):
    """Ground action with the best averaged Q, ties broken lexicographically."""
    scores = score_actions(qset, goals, state)
    if not scores:
        raise UnidecompError("no ground action scored")
    top = max(scores.values())
    best = min(k for k, v in scores.items() if v == top)
    return ActTerm(best[0], tuple(Obj(o) for o in best[1])), scores[best]
