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
    And,
    Atom,
    Bool,
    ConsistencyChecker,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    GroundState,
    Implies,
    LogicError,
    Not,
    Obj,
    Or,
    StateIndex,
    Var,
    compile_query,
    conj,
    make_state,
    normalize,
    objects_in,
    simplify_bdd,
    substitute,
)


class RegressionError(LogicError):
    pass


def _term_mentions(t, name: str) -> bool:
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, ActTerm):
        return any(_term_mentions(a, name) for a in t.args)
    return False


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
        if isinstance(f, Atom):
            for t in f.args:
                if _term_mentions(t, a):
                    raise RegressionError(
                        f"action variable {a} used as an object argument of {f.pred} in the axiom for {self.fluent}"
                    )
        elif isinstance(f, Eq):
            sides = (f.left, f.right)
            if any(_term_mentions(t, a) for t in sides):
                ok = (
                    isinstance(f.left, Var)
                    and f.left.name == a
                    and isinstance(f.right, ActTerm)
                    and not _term_mentions(f.right, a)
                ) or (
                    isinstance(f.right, Var)
                    and f.right.name == a
                    and isinstance(f.left, ActTerm)
                    and not _term_mentions(f.left, a)
                )
                if not ok:
                    raise RegressionError(
                        f"axiom for {self.fluent} must compare {a} only with action terms"
                    )
        elif isinstance(f, Not):
            self._validate(f.sub)
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                self._validate(p)
        elif isinstance(f, Implies):
            self._validate(f.lhs)
            self._validate(f.rhs)
        elif isinstance(f, (Exists, Forall)):
            if f.var == self.action_var:
                raise RegressionError(f"axiom for {self.fluent} rebinds the action variable {a}")
            self._validate(f.body)

    def query(self, name: str, arity: int, types: tuple) -> Callable:
        """Plan of the fluent's tuples, of `types`, that hold after an action `name` of `arity`.

        The action's arguments are the plan's parameters, on placeholders
        longer than every object name of the body, so none clashes with one.
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


def resolve_action_equalities(f: Formula) -> Formula:
    """Compile equalities between action terms down to object equalities.

    Distinct deterministic action names never denote the same action, and
    n(u⃗) = n(v⃗) holds exactly when the arguments agree pairwise.
    """
    if isinstance(f, Eq):
        la, ra = isinstance(f.left, ActTerm), isinstance(f.right, ActTerm)
        if la and ra:
            if f.left.name != f.right.name or len(f.left.args) != len(f.right.args):
                return FALSE
            return conj(Eq(l, r) for l, r in zip(f.left.args, f.right.args))
        if la or ra:
            raise RegressionError(f"action term compared with an object term: {f}")
        return f
    if isinstance(f, Not):
        return Not(resolve_action_equalities(f.sub))
    if isinstance(f, And):
        return And(tuple(resolve_action_equalities(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(resolve_action_equalities(p) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(resolve_action_equalities(f.lhs), resolve_action_equalities(f.rhs))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.vtype, resolve_action_equalities(f.body))
    return f


def regress(
    f: Formula,
    act: ActTerm,
    ssas: Mapping[str, SuccessorStateAxiom],
    checker: ConsistencyChecker,
    fluents: Optional[Iterable[str]] = None,
    simplify: bool = True,
) -> Formula:
    """Pre-action formula equivalent to f holding after doing act.

    Fluent atoms are replaced by their axiom bodies (statics pass through),
    action equalities are resolved against act, and the result is normalized
    and simplified (`simplify_bdd`, through `checker`'s atom tables).
    `fluents`, when given, lists every predicate that must have
    an axiom; atoms of unlisted predicates are treated as static.
    """
    declared = frozenset(fluents) if fluents is not None else None
    g = _regress_raw(f, act, ssas, declared)
    g = normalize(g)
    return simplify_bdd(g, checker) if simplify else g


def _regress_raw(f: Formula, act: ActTerm, ssas, declared) -> Formula:
    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        ssa = ssas.get(f.pred)
        if ssa is None:
            if declared is not None and f.pred in declared:
                raise RegressionError(f"no successor-state axiom for fluent {f.pred}")
            return f
        return ssa.instantiate(f.args, act)
    if isinstance(f, Eq):
        return resolve_action_equalities(f)
    if isinstance(f, Not):
        return Not(_regress_raw(f.sub, act, ssas, declared))
    if isinstance(f, And):
        return And(tuple(_regress_raw(p, act, ssas, declared) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_regress_raw(p, act, ssas, declared) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(_regress_raw(f.lhs, act, ssas, declared), _regress_raw(f.rhs, act, ssas, declared))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.vtype, _regress_raw(f.body, act, ssas, declared))
    raise TypeError(f"not a formula: {f!r}")


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
