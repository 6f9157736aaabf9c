"""Goal decomposition for universal rewards.

A universal reward pays out only when every ground goal holds, which makes
the exact value function grow with the goal count.  The decomposition
solves one model whose reward names a single generic goal on fresh
constants, backs the solved values up into per-template Q cases, and at
runtime scores ground actions by the average of those Q values across the
instance's unsatisfied goals.
"""

from dataclasses import dataclass, replace

from .cases import CaseStatement, constant_case
from .domains import materialize_universal
from .logic import (
    ActTerm,
    Formula,
    Obj,
    Universe,
    eval_in_state,
    normalize,
    replace_objects,
    satisfying_bindings,
    substitute,
)
from .model import FOMDPModel, LinearValueFunction, backup_exists


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
    parameter bindings can be enumerated against a concrete state.
    """

    variables: tuple  # typed (name, type) pairs of the goal variables
    constants: tuple  # object names currently standing in for them
    goal: Formula  # goal body on those constants
    qcases: tuple  # (template name, case statement), sorted by name
    discount: float

    def __post_init__(self):
        for _, q in self.qcases:
            for p in q.partitions:
                if p.bind_body is None:
                    raise UnidecompError("Q partitions must carry open binding bodies")


def build_generic_q(model: FOMDPModel, lvf: LinearValueFunction) -> GenericQSet:
    """One-step lookahead of the solved values, per action template."""
    ur = model.universal_reward
    if ur is None:
        raise UnidecompError(f"model {model.name} has no universal reward to decompose")
    constants, goal = _generic_parts(ur)
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
    return GenericQSet(ur.variables, constants, goal, qcases, model.discount)


def _binding_map(qset: GenericQSet, binding, universe=None) -> dict:
    objs = tuple(binding)
    if len(objs) != len(qset.constants):
        raise UnidecompError(
            f"goal binding {objs} has {len(objs)} objects for {len(qset.constants)} goal variables"
        )
    if universe is not None:
        for (name, vtype), o in zip(qset.variables, objs):
            if o not in universe.pool(vtype):
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
    """Rename the generic constants to a concrete goal's objects; values unchanged."""
    mapping = _binding_map(qset, binding, universe)
    return GenericQSet(
        qset.variables,
        tuple(binding),
        replace_objects(qset.goal, mapping),
        tuple((n, _rename_case(q, mapping)) for n, q in qset.qcases),
        qset.discount,
    )


def goal_satisfied(qset: GenericQSet, binding, state) -> bool:
    return eval_in_state(replace_objects(qset.goal, _binding_map(qset, binding)), state)


def score_actions(qset: GenericQSet, goals, state) -> dict:
    """Average Q value per ground action across the unsatisfied goals.

    Already-satisfied goals contribute the same constant to every action,
    so they are dropped before averaging.  Per goal and template a ground
    binding takes the best Q partition it satisfies; summing all satisfied
    partitions would double-count overlapping existential regions.
    """
    unsat = [g for g in goals if not goal_satisfied(qset, g, state)]
    if not unsat:
        raise UnidecompError("every goal is already satisfied")
    n = len(unsat)
    scores: dict = {}
    for g in unsat:
        inst = substitute_goal(qset, g)
        for name, q in inst.qcases:
            claimed = set()
            for p in sorted(q.partitions, key=lambda p: -p.value):
                for b in satisfying_bindings(p.bind_body, state, p.bind_vars):
                    combo = tuple(b[v] for v, _ in p.bind_vars)
                    if combo in claimed:
                        continue
                    claimed.add(combo)
                    key = (name, combo)
                    scores[key] = scores.get(key, 0.0) + p.value / n
    return scores


def select_action(qset: GenericQSet, goals, state):
    """Ground action with the best averaged Q, ties broken lexicographically."""
    scores = score_actions(qset, goals, state)
    if not scores:
        raise UnidecompError("no ground action scored")
    best = min(scores, key=lambda k: (-scores[k], k))
    return ActTerm(best[0], tuple(Obj(o) for o in best[1])), scores[best]
