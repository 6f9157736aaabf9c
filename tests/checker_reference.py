"""Reference consistency checking: the every-combination loop that monotone types shortened.

`ReferenceChecker._sat` grounds every per-type domain-size combination up
to the bound, smallest first, after the same lifted pass as the checker; it
never asks whether a type is monotone.  `fomdp.logic.ConsistencyChecker`
must return exactly the verdicts this returns.  It grounds through
`reference_ground_expand`, the tree walk that the checker's compiled
grounding plans replaced: it expands every occurrence of a subformula under
every binding it meets and spends one budget unit on each expansion.  The
plans must build exactly the `_GroundDag` this builds.
"""

import itertools

from fomdp.logic import (
    And,
    Atom,
    Bool,
    ConsistencyChecker,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    Obj,
    Or,
    Var,
    _G_FALSE,
    _G_TRUE,
    _GroundDag,
    _ground_sat,
    _spend,
    implicit_close,
    infer_types,
    objects_in,
)


def reference_ground_expand(f: Formula, pools, binding: dict, dag: _GroundDag, left: list) -> int:
    _spend(left)
    if isinstance(f, Bool):
        return _G_TRUE if f.value else _G_FALSE
    if isinstance(f, Atom):
        names = []
        for a in f.args:
            if isinstance(a, Var):
                names.append(binding[a.name])
            elif isinstance(a, Obj):
                names.append(a.name)
            else:
                raise LogicError(f"action term {a.name} in a state formula")
        return dag.atom((f.pred, *names))
    if isinstance(f, Eq):
        def name_of(t):
            if isinstance(t, Var):
                return binding[t.name]
            if isinstance(t, Obj):
                return t.name
            raise LogicError(f"action term {t.name} in a state formula")
        return _G_TRUE if name_of(f.left) == name_of(f.right) else _G_FALSE
    if isinstance(f, Not):
        return dag.neg(reference_ground_expand(f.sub, pools, binding, dag, left))
    if isinstance(f, (And, Or)):
        kind = "and" if isinstance(f, And) else "or"
        absorber = _G_FALSE if kind == "and" else _G_TRUE
        ids = []
        for p in f.parts:
            g = reference_ground_expand(p, pools, binding, dag, left)
            if g == absorber:
                return absorber
            ids.append(g)
        return dag.junction(kind, ids)
    if isinstance(f, Implies):
        return reference_ground_expand(Or((Not(f.lhs), f.rhs)), pools, binding, dag, left)
    if isinstance(f, (Exists, Forall)):
        pool = pools.get(f.vtype)
        if pool is None:
            pool = pools[None]
        kind = "or" if isinstance(f, Exists) else "and"
        absorber = _G_TRUE if isinstance(f, Exists) else _G_FALSE
        ids = []
        for o in pool:
            g = reference_ground_expand(f.body, pools, {**binding, f.var: o}, dag, left)
            if g == absorber:
                return absorber
            ids.append(g)
        return dag.junction(kind, ids)
    raise TypeError(f"not a formula: {f!r}")


def binder_types(f: Formula) -> dict:
    acc: dict = {}
    if isinstance(f, (Exists, Forall)):
        acc[f.vtype] = True
        acc.update(binder_types(f.body))
    elif isinstance(f, Not):
        acc.update(binder_types(f.sub))
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            acc.update(binder_types(p))
    elif isinstance(f, Implies):
        acc.update(binder_types(f.lhs))
        acc.update(binder_types(f.rhs))
    return acc


def every_grounding(f: Formula, signature, n: int) -> tuple:
    """f's types, its closure, and the pools of every per-type size combination up to n, smallest first."""
    types = infer_types(f, signature)
    closed = implicit_close(f, types)
    consts: dict = {}
    for name in sorted(objects_in(closed)):
        consts.setdefault(types.get(name), []).append(name)
    needed = set(consts) | set(binder_types(closed))
    if not needed:
        needed = {None}
    typed = sorted(t for t in needed if t is not None)
    loop_types = typed if typed else [None]
    ranges = []
    for t in loop_types:
        lo = max(1, len(consts.get(t, [])))
        ranges.append(range(lo, max(n, lo) + 1))
    groundings = []
    for sizes in itertools.product(*ranges):
        pools: dict = {}
        for t, k in zip(loop_types, sizes):
            pool = list(consts.get(t, []))
            i = 0
            while len(pool) < k:
                i += 1
                pool.append(f"?{t or 'obj'}{i}")
            pools[t] = tuple(pool)
        if typed:
            untyped = set(consts.get(None, []))
            for p in pools.values():
                untyped |= set(p)
            pools[None] = tuple(sorted(untyped))
        groundings.append(pools)
    return types, closed, groundings


class ReferenceChecker(ConsistencyChecker):
    """The checker with every size combination grounded in turn."""

    def _sat(self, f: Formula, left: list) -> bool:
        types, closed, groundings = every_grounding(f, self.signature, self.bound.objects_per_type)
        for step, pools in enumerate(groundings):
            # one or two remaining groundings cost less than a lifted pass
            if step == 1 and len(groundings) > 3:
                self.stats.lifted_attempts += 1
                verdict = self._lifted(f, types)
                if verdict is not None:
                    self.stats.lifted += 1
                    return verdict
            self.stats.groundings += 1
            dag = _GroundDag()
            root = reference_ground_expand(closed, pools, {}, dag, left)
            if root == _G_TRUE:
                return True
            if root == _G_FALSE:
                continue
            if _ground_sat(dag, root, left, {}):
                return True
        return False
