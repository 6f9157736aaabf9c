"""First-order MDP models and symbolic Bellman backups.

A model bundles predicate declarations, stochastic action templates with
their nature's-choice distributions, successor-state axioms, per-action
reward cases, and a discount factor.  Decision-theoretic regression (`fodtr`)
and the two backup operators defined on top of it (`backup_param`, and
`backup_exists`, its ∃-closure over the action parameters) turn a symbolic
value function into symbolic Q-functions without ever enumerating states.  A
linear value function keeps its basis structure through backup
(`backup_linear`), which is what the LP solvers rely on to stay compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .cases import (
    CaseStatement,
    Partition,
    build_case,
    combine,
    constant_case,
    cross_sum,
    exists_case,
    indicator_case,
    merge_equal_values,
    scale_case,
    verify_partitioned,
)
from .logic import (
    ActTerm,
    ConsistencyBound,
    ConsistencyChecker,
    Formula,
    Var,
    forall_chain,
    format_formula,
    free_vars,
    normalize,
)
from .sitcalc import SuccessorStateAxiom, regress

NOOP = "noop"
NOOP_CHOICE = "noopEff"


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    arg_types: tuple
    static: bool = False


@dataclass(frozen=True)
class NatureChoice:
    """One deterministic outcome of a stochastic action, with its probability case."""

    name: str
    pcase: CaseStatement


@dataclass(frozen=True)
class ActionTemplate:
    name: str
    params: tuple  # typed (name, type) pairs
    choices: tuple

    def param_vars(self) -> tuple:
        return tuple(Var(n) for n, _ in self.params)


@dataclass(frozen=True)
class UniversalReward:
    """Reward `value` paid when ∀y⃗.goal holds, 0 otherwise, split by acting.

    `goal` is an open formula over the goal variables; instances supply the
    bindings that matter.  Keeping the schema lets the solver treat each
    ground goal generically.
    """

    variables: tuple  # typed (name, type) pairs
    goal: Formula
    value_noop: float
    value_act: float

    def closed(self) -> Formula:
        return normalize(forall_chain(self.variables, self.goal))


def materialize_universal(ur: UniversalReward, goal: Formula, checker: ConsistencyChecker) -> dict:
    """Reward cases paying a universal reward's values where `goal` holds.

    The goal earns the idle value under noop and the acting value under
    every other action; states violating it earn 0.  A domain passes the
    goal's universal closure, goal decomposition one generic instance of it.
    """
    return {
        NOOP: indicator_case(goal, ur.value_noop, checker),
        "any": indicator_case(goal, ur.value_act, checker),
    }


@dataclass(frozen=True)
class FOMDPModel:
    name: str
    types: tuple
    predicates: Mapping[str, PredicateDecl]
    actions: Mapping[str, ActionTemplate]
    ssas: Mapping[str, SuccessorStateAxiom]
    rewards: Mapping[str, CaseStatement]  # keyed by template name, "noop", or "any"
    discount: float
    checker: ConsistencyChecker = field(compare=False)
    universal_reward: Optional[UniversalReward] = None
    bound: ConsistencyBound = ConsistencyBound()

    # -- vocabulary ----------------------------------------------------------

    def signature(self) -> dict:
        return {p.name: p.arg_types for p in self.predicates.values()}

    def fluent_names(self) -> tuple:
        return tuple(sorted(n for n, p in self.predicates.items() if not p.static))

    def action_names(self) -> tuple:
        """Every template the agent can pick, the implicit noop included."""
        names = set(self.actions) | {NOOP}
        return tuple(sorted(names))

    def action(self, name: str) -> ActionTemplate:
        if name == NOOP and NOOP not in self.actions:
            return ActionTemplate(NOOP, (), (NatureChoice(NOOP_CHOICE, constant_case(1.0)),))
        if name not in self.actions:
            raise ModelError(f"unknown action {name}")
        return self.actions[name]

    def reward_for(self, action_name: str) -> CaseStatement:
        if action_name in self.rewards:
            return self.rewards[action_name]
        if "any" in self.rewards:
            return self.rewards["any"]
        return constant_case(0.0)

    # -- validation -----------------------------------------------------------

    def validate(self, tol: float = 1e-9):
        """Structural and probabilistic sanity at the configured bound."""
        if not (0.0 <= self.discount < 1.0):
            raise ModelError(f"discount must lie in [0, 1), got {self.discount}")
        for fname in self.fluent_names():
            if fname not in self.ssas:
                raise ModelError(f"fluent {fname} has no successor-state axiom")
            ssa = self.ssas[fname]
            if len(ssa.params) != len(self.predicates[fname].arg_types):
                raise ModelError(f"axiom for {fname} has wrong parameter count")
        for fname in self.ssas:
            if fname not in self.predicates:
                raise ModelError(f"axiom for undeclared predicate {fname}")
            if self.predicates[fname].static:
                raise ModelError(f"static predicate {fname} cannot have an axiom")
        seen = {NOOP_CHOICE}
        for a in self.actions.values():
            params = {n for n, _ in a.params}
            if not a.choices:
                raise ModelError(f"action {a.name} declares no outcomes")
            for ch in a.choices:
                if ch.name in seen:
                    raise ModelError(f"duplicate outcome name {ch.name}")
                seen.add(ch.name)
                for p in ch.pcase.partitions:
                    if not (0.0 <= p.value <= 1.0):
                        raise ModelError(
                            f"probability {p.value} of {a.name}/{ch.name} outside [0, 1]"
                        )
                    extra = free_vars(p.formula) - params
                    if extra:
                        raise ModelError(
                            f"probability case of {a.name}/{ch.name} mentions non-parameters {sorted(extra)}"
                        )
                if not verify_partitioned(ch.pcase, self.checker):
                    raise ModelError(f"probability case of {a.name}/{ch.name} is not a partition")
            total = cross_sum([ch.pcase for ch in a.choices], self.checker)
            for p in total.partitions:
                if abs(p.value - 1.0) > tol:
                    raise ModelError(
                        f"probabilities of {a.name} sum to {p.value} on {format_formula(p.formula)}"
                    )
        for key, rc in self.rewards.items():
            if key not in (NOOP, "any") and key not in self.actions:
                raise ModelError(f"reward declared for unknown action {key}")
            if not verify_partitioned(rc, self.checker):
                raise ModelError(f"reward case for {key} is not a partition")


# ---------------------------------------------------------------------------
# linear value functions


@dataclass(frozen=True)
class LinearValueFunction:
    weights: tuple
    bases: tuple  # partitioned CaseStatements

    def __post_init__(self):
        if len(self.weights) != len(self.bases):
            raise ModelError("weight/basis count mismatch")
        for b in self.bases:
            if not b.partitions:
                raise ModelError("empty basis case")
            if not b.partitioned:
                raise ModelError("basis cases must be partitioned")

    def flatten(self, checker: ConsistencyChecker) -> CaseStatement:
        """⊕_i w_i · bCase_i as one partitioned case."""
        scaled = [scale_case(b, w) for w, b in zip(self.weights, self.bases)]
        return merge_equal_values(cross_sum(scaled, checker), checker)


@dataclass(frozen=True)
class BackedUpLinear:
    """Backup of a linear value function, kept in unflattened form.

    Holds the reward case and one decision-theoretic regression per basis.
    Under any weights w, rCase ⊕ ⊕_i w_i·fodtrs_i is the monolithic backup,
    so solvers reuse the per-basis parts across weight changes.
    """

    reward: CaseStatement
    fodtrs: tuple  # FODTR(bCase_i, A(x⃗)), γ already applied


# ---------------------------------------------------------------------------
# backups


def fodtr(model: FOMDPModel, v: CaseStatement, action: ActionTemplate) -> CaseStatement:
    """γ · ⊕_j [ pCase(n_j) ⊗ Regr(v, n_j(x⃗)) ], free in the action parameters.

    Regr(v, n_j(x⃗)) regresses each partition of v through the outcome: its
    value and tag survive, its binding bookkeeping (which speaks the
    post-action state language) is dropped, and a partition that regresses
    to an inconsistent formula is pruned, so an unreachable branch
    disappears.  `build_case` simplifies the regressed formulas.
    """
    if not v.partitioned:
        raise ModelError("fodtr requires a partitioned value case")
    x, fluents = action.param_vars(), model.fluent_names()
    terms = []
    for ch in action.choices:
        act = ActTerm(ch.name, x)
        regressed = (Partition(regress(p.formula, act, model.ssas, fluents), p.value, p.tag) for p in v.partitions)
        reg = build_case(regressed, model.checker, v.partitioned)
        terms.append(combine("multiply", ch.pcase, reg, model.checker))
    out = cross_sum(terms, model.checker)
    return merge_equal_values(scale_case(out, model.discount), model.checker)


def backup_param(model: FOMDPModel, v: CaseStatement, action: ActionTemplate) -> CaseStatement:
    """rCase(s, A) ⊕ FODTR(v, A(x⃗)); parameters stay free."""
    return combine("add", model.reward_for(action.name), fodtr(model, v, action), model.checker)


def backup_exists(model: FOMDPModel, v: CaseStatement, action: ActionTemplate) -> CaseStatement:
    """∃x⃗ of the parameterized backup, tagged with the action for policies."""
    q = backup_param(model, v, action)
    tagged = CaseStatement(
        tuple(replace(p, tag=action.name) for p in q.partitions), q.partitioned
    )
    return exists_case(action.params, tagged, model.checker)


def backup_linear(
    model: FOMDPModel, lvf: LinearValueFunction, action: ActionTemplate
) -> BackedUpLinear:
    """Eq-by-eq backup of a linear combination, kept structured.

    The backup of ⊕_i w_i·bCase_i is rCase ⊕ ⊕_i w_i·FODTR(bCase_i); storing
    the summands separately avoids the exponential flattening until a
    constraint search actually needs specific regions.
    """
    fs = tuple(fodtr(model, b, action) for b in lvf.bases)
    return BackedUpLinear(model.reward_for(action.name), fs)
