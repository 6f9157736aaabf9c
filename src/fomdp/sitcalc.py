"""Successor-state axioms, regression, and ground action application.

Each fluent has one successor-state axiom: a formula over the fluent's
parameters, current-state atoms, and a distinguished action variable that
only ever appears in equalities with deterministic action terms.  Regression
rewrites a post-action formula into an equivalent pre-action formula by
substituting axiom bodies for fluent atoms and resolving those action
equalities against the concrete action.  The same axioms drive `apply_action`
on ground states, so symbolic regression and ground execution share one
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .logic import (
    ActTerm,
    Atom,
    ConsistencyChecker,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    GroundState,
    LogicError,
    Obj,
    Var,
    conj,
    make_state,
    map_leaves,
    nodes,
    normalize,
    objects_in,
    simplify_bdd,
    substitute,
    term_names,
)
from .query import StateIndex, compile_query


class RegressionError(LogicError):
    pass


@dataclass(frozen=True)
class SuccessorStateAxiom:
    """F(x⃗) holds after doing `a` iff `body` held before.

    body is a state formula over params, fluents/statics, and the action
    variable, which may appear only in equalities with action terms.
    """

    fluent: str
    params: tuple
    body: Formula
    action_var: str = "a"
    # `query` plans by (action name, arity, the fluent's argument types), compiled on first use
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._validate(self.body)

    def _validate(self, f: Formula):
        a = self.action_var
        for g in nodes(f):
            if isinstance(g, Atom):
                if any(a in term_names(t, Var) for t in g.args):
                    raise RegressionError(
                        f"action variable {a} used as an object argument of {g.pred} in the axiom for {self.fluent}"
                    )
            elif isinstance(g, Eq):
                left, right = (a in term_names(t, Var) for t in (g.left, g.right))
                if (left or right) and not (
                    (g.left == Var(a) and isinstance(g.right, ActTerm) and not right)
                    or (g.right == Var(a) and isinstance(g.left, ActTerm) and not left)
                ):
                    raise RegressionError(f"axiom for {self.fluent} must compare {a} only with action terms")
            elif isinstance(g, (Exists, Forall)) and g.var == a:
                raise RegressionError(f"axiom for {self.fluent} rebinds the action variable {a}")

    def query(self, name: str, arity: int, types: tuple) -> Callable:
        """Plan of the fluent's tuples, of `types`, that hold after an action `name` of `arity`.

        The action's arguments are the plan's parameters, on placeholders
        longer than every object name of the body, so none collides with one.
        """
        if (name, arity, types) not in self.plans:
            prefix = "?" * (1 + max(map(len, objects_in(self.body)), default=0))
            slots = tuple(f"{prefix}{i}" for i in range(arity))
            act = ActTerm(name, tuple(map(Obj, slots)))
            body = resolve_action_equalities(substitute(self.body, {self.action_var: act}))
            self.plans[name, arity, types] = compile_query(body, tuple(zip(self.params, types)), slots)
        return self.plans[name, arity, types]

    def instantiate(self, args: Sequence, act: ActTerm) -> Formula:
        """Body with parameters bound to args and the action fixed to act."""
        if len(args) != len(self.params):
            raise RegressionError(
                f"fluent {self.fluent} expects {len(self.params)} arguments, got {len(args)}"
            )
        sub = dict(zip(self.params, args))
        sub[self.action_var] = act
        return resolve_action_equalities(substitute(self.body, sub))


def _resolve(g: Formula) -> Formula:
    """An atom or equality with an equality between action terms compiled away."""
    if not isinstance(g, Eq):
        return g
    la, ra = isinstance(g.left, ActTerm), isinstance(g.right, ActTerm)
    if la and ra:
        if g.left.name != g.right.name or len(g.left.args) != len(g.right.args):
            return FALSE
        return conj(Eq(l, r) for l, r in zip(g.left.args, g.right.args))
    if la or ra:
        raise RegressionError(f"action term compared with an object term: {g}")
    return g


def resolve_action_equalities(f: Formula) -> Formula:
    """Compile equalities between action terms down to object equalities.

    Distinct deterministic action names never denote the same action, and
    n(u⃗) = n(v⃗) holds exactly when the arguments agree pairwise.
    """
    return map_leaves(f, _resolve)


def regress(
    f: Formula,
    act: ActTerm,
    ssas: Mapping[str, SuccessorStateAxiom],
    checker: ConsistencyChecker,
    fluents: Optional[Iterable[str]] = None,
) -> Formula:
    """Pre-action formula equivalent to f holding after doing act.

    Fluent atoms are replaced by their axiom bodies (statics pass through),
    action equalities are resolved against act, and the result is normalized
    and simplified (`simplify_bdd`, through `checker`'s atom tables).
    `fluents`, when given, lists every predicate that must have
    an axiom; atoms of unlisted predicates are treated as static.
    """
    declared = frozenset(fluents) if fluents is not None else None
    return simplify_bdd(normalize(_regress_raw(f, act, ssas, declared)), checker)


def _regress_raw(f: Formula, act: ActTerm, ssas, declared) -> Formula:
    """f with each fluent atom replaced by its axiom body for act and action equalities resolved."""

    def leaf(g: Formula) -> Formula:
        if isinstance(g, Eq):
            return _resolve(g)
        if g.pred in ssas:
            return ssas[g.pred].instantiate(g.args, act)
        if declared is not None and g.pred in declared:
            raise RegressionError(f"no successor-state axiom for fluent {g.pred}")
        return g

    return map_leaves(f, leaf)


def apply_action(
    act: ActTerm,
    state: GroundState,
    ssas: Mapping[str, SuccessorStateAxiom],
    signature: Optional[Mapping[str, Sequence]] = None,
) -> GroundState:
    """Successor ground state after executing a ground deterministic action.

    Each fluent's axiom body is evaluated in the current state for every
    argument tuple, through a plan compiled once per action name (`query`);
    atoms of predicates without an axiom (statics) carry over unchanged.
    `signature` supplies argument types for enumeration.
    """
    for t in act.args:
        if not isinstance(t, Obj):
            raise RegressionError(f"apply_action requires a ground action, got {act}")
    atoms = {a for a in state.atoms if a[0] not in ssas}
    index, args = StateIndex(state), tuple(t.name for t in act.args)
    for fname in sorted(ssas):
        ssa = ssas[fname]
        types = signature.get(fname) if signature else None
        types = (None,) * len(ssa.params) if types is None else tuple(types)
        for combo in ssa.query(act.name, len(args), types)(index, args):
            atoms.add((fname, *combo))
    return make_state(atoms, state.universe)
