"""Ground-semantics oracles, written without the symbolic operators under test.

States are frozensets of atoms `(pred, obj, ...)`, as in `GroundState.atoms`.
The two fixture domains are simulated by hand from their successor-state
axioms, formulas are evaluated by a tree walk of this module's own, and
values come from explicit enumeration: one-step lookahead, value iteration
and reachable-state search.  Only the formula node classes are taken from
the program, to read the value functions it produced.
"""

from __future__ import annotations

import itertools

from fomdp.logic import And, Atom, Bool, Eq, Exists, Forall, Implies, Not, Obj, Or, Var

REWARD_NOOP = 10.0  # `ureward ... ; noop 10 ; act 9` in both fixtures
REWARD_ACT = 9.0
DISCOUNT = 0.9
NOOP = "noop"


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# formulas and value functions


def _obj(t, rename: dict, env: dict) -> str:
    if isinstance(t, Obj):
        return rename.get(t.name, t.name)
    if isinstance(t, Var):
        return env[t.name]
    raise OracleError(f"action term {t!r} in a state formula")


def holds(f, atoms, pools: dict, rename: dict, env: dict = None) -> bool:
    """Closed-world truth of f; `rename` maps the formula's constants to objects."""
    env = env or {}
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Atom):
        return (f.pred, *(_obj(a, rename, env) for a in f.args)) in atoms
    if isinstance(f, Eq):
        return _obj(f.left, rename, env) == _obj(f.right, rename, env)
    if isinstance(f, Not):
        return not holds(f.sub, atoms, pools, rename, env)
    if isinstance(f, And):
        return all(holds(p, atoms, pools, rename, env) for p in f.parts)
    if isinstance(f, Or):
        return any(holds(p, atoms, pools, rename, env) for p in f.parts)
    if isinstance(f, Implies):
        return not holds(f.lhs, atoms, pools, rename, env) or holds(f.rhs, atoms, pools, rename, env)
    if isinstance(f, (Exists, Forall)):
        test = any if isinstance(f, Exists) else all
        return test(holds(f.body, atoms, pools, rename, {**env, f.var: o}) for o in pools[f.vtype])
    raise OracleError(f"not a formula: {f!r}")


def case_value(case, atoms, pools: dict, rename: dict) -> float:
    """Value of a partitioned case; exactly one partition must hold."""
    hits = [p.value for p in case.partitions if holds(p.formula, atoms, pools, rename)]
    if len(hits) != 1:
        raise OracleError(f"{len(hits)} partitions of a partitioned case hold")
    return hits[0]


class LinearValue:
    """Σ w_i · basis_i at ground states, for one goal binding of the generic constants."""

    def __init__(self, lvf, pools: dict, rename: dict):
        self.terms = tuple(zip(lvf.weights, lvf.bases))
        self.pools = pools
        self.rename = rename
        self._memo: dict = {}

    def __call__(self, atoms) -> float:
        v = self._memo.get(atoms)
        if v is None:
            v = sum(w * case_value(b, atoms, self.pools, self.rename) for w, b in self.terms)
            self._memo[atoms] = v
        return v


# ---------------------------------------------------------------------------
# hand-written ground dynamics of the two fixtures


class BoxWorld:
    """`boxworld_mini`: trucks drive (slipping in snow), load and unload boxes."""

    def __init__(self, boxes, trucks, cities):
        self.pools = {"Box": tuple(boxes), "Truck": tuple(trucks), "City": tuple(cities)}

    def actions(self) -> list:
        b, t, c = self.pools["Box"], self.pools["Truck"], self.pools["City"]
        acts = [("drive", a) for a in itertools.product(t, c, c)]
        acts += [("load", a) for a in itertools.product(b, t, c)]
        acts += [("unload", a) for a in itertools.product(b, t, c)]
        return acts + [(NOOP, ())]

    def outcomes(self, s: frozenset, name: str, args: tuple) -> list:
        """(outcome name, probability, successor) for every outcome of the action."""
        if name == NOOP:
            return [("noopEff", 1.0, s)]
        if name == "drive":
            t, c1, c = args
            p = 0.6 if ("snow", c1) in s else 0.9
            nxt = s
            if ("TAt", t, c1) in s and c1 != c:
                nxt = (s - {("TAt", t, c1)}) | {("TAt", t, c)}
            return [("driveS", p, nxt), ("driveF", 1.0 - p, s)]
        b, t, c = args
        nxt = s
        if name == "load":
            if ("TAt", t, c) in s:
                nxt = s - {("BIn", b, c)}
                if ("BIn", b, c) in s:
                    nxt = nxt | {("On", b, t)}
            return [("loadS", 0.9, nxt), ("loadF", 0.1, s)]
        if name == "unload":
            if ("TAt", t, c) in s:
                nxt = s - {("On", b, t)}
                if ("On", b, t) in s:
                    nxt = nxt | {("BIn", b, c)}
            return [("unloadS", 0.9, nxt), ("unloadF", 0.1, s)]
        raise OracleError(f"unknown boxworld action {name}")

    @staticmethod
    def goal_holds(s: frozenset, goal: tuple) -> bool:
        b, c = goal
        return ("Dst", b, c) not in s or ("BIn", b, c) in s


class BlocksWorld:
    """`blocksworld_mini`: blocks move onto clear blocks or to the table."""

    def __init__(self, blocks):
        self.pools = {"Block": tuple(blocks)}

    def actions(self) -> list:
        b = self.pools["Block"]
        acts = [("move", a) for a in itertools.product(b, b)]
        acts += [("moveToTable", (x,)) for x in b]
        return acts + [(NOOP, ())]

    @staticmethod
    def _clear(s: frozenset, x: str) -> bool:
        return not any(a[0] == "On" and a[2] == x for a in s)

    @staticmethod
    def _lift(s: frozenset, x: str) -> frozenset:
        return frozenset(a for a in s if not (a[0] == "On" and a[1] == x))

    def outcomes(self, s: frozenset, name: str, args: tuple) -> list:
        if name == NOOP:
            return [("noopEff", 1.0, s)]
        if name == "move":
            x, y = args
            if x != y and self._clear(s, x) and self._clear(s, y):
                lifted = self._lift(s, x)
                return [("moveS", 0.9, lifted | {("On", x, y)}), ("moveF", 0.1, lifted)]
            return [("moveS", 0.9, s), ("moveF", 0.1, s)]
        if name == "moveToTable":
            (x,) = args
            return [("mtS", 1.0, self._lift(s, x) if self._clear(s, x) else s)]
        raise OracleError(f"unknown blocksworld action {name}")

    @staticmethod
    def goal_holds(s: frozenset, goal: tuple) -> bool:
        x, y = goal
        return ("GoalOn", x, y) not in s or ("On", x, y) in s


# ---------------------------------------------------------------------------
# lookahead, reachability, value iteration


def reward(world, s: frozenset, action: str, goal: tuple) -> float:
    if not world.goal_holds(s, goal):
        return 0.0
    return REWARD_NOOP if action == NOOP else REWARD_ACT


def lookahead(world, s: frozenset, action: str, args: tuple, goal: tuple, value) -> float:
    """R(s, a) + γ Σ p · V(next) for one goal."""
    future = sum(p * value(nxt) for _, p, nxt in world.outcomes(s, action, args) if p > 0.0)
    return reward(world, s, action, goal) + DISCOUNT * future


def reachable(world, init: frozenset) -> list:
    """Every state reachable from init under any action, in discovery order."""
    seen = {init}
    order = [init]
    acts = world.actions()
    for s in order:
        for name, args in acts:
            for _, p, nxt in world.outcomes(s, name, args):
                if p > 0.0 and nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
    return order


def value_iteration(world, states: list, goal: tuple, tol: float = 1e-11) -> dict:
    """Optimal values of the single-goal reward on a closed state set."""
    acts = world.actions()
    v = dict.fromkeys(states, 0.0)
    while True:
        new = {
            s: max(lookahead(world, s, name, args, goal, v.__getitem__) for name, args in acts)
            for s in states
        }
        delta = max(abs(new[s] - v[s]) for s in states)
        v = new
        if delta < tol:
            return v


def upper_bound_gap(world, states: list, goal: tuple, value) -> float:
    """max over states and actions of Q(s, a) − V(s); ≤ 0 when V bounds every backup."""
    acts = world.actions()
    return max(
        lookahead(world, s, name, args, goal, value) - value(s)
        for s in states
        for name, args in acts
    )


def decision_scores(world, s: frozenset, goals, values: dict) -> dict:
    """Average ground lookahead over the unsatisfied goals, per ground action.

    `values` maps each goal to its LinearValue.  Returns {(name, args): score}.
    """
    unsat = [g for g in goals if not world.goal_holds(s, g)]
    if not unsat:
        raise OracleError("every goal already holds")
    out = {}
    for name, args in world.actions():
        total = sum(lookahead(world, s, name, args, g, values[g]) for g in unsat)
        out[(name, args)] = total / len(unsat)
    return out
