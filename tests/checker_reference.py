"""Reference consistency checking: the every-combination loop that monotone types shortened.

`ReferenceChecker._sat` grounds every per-type domain-size combination up
to the bound, smallest first, after the same lifted pass as the checker; it
never asks whether a type is monotone.  `fomdp.logic.ConsistencyChecker`
must return exactly the verdicts this returns.  It grounds through
`reference_ground_expand`, the tree walk that the checker's compiled
grounding plans replaced: it expands every occurrence of a subformula under
every binding it meets and spends one budget unit on each expansion.  The
plans must build exactly the `_GroundDag` this builds.

`reference_infer_types`, `reference_objects_in` and `reference_scan_types`
are the three walks that `fomdp.logic.survey` folded into one; `survey`
must give exactly what they give.
"""

import itertools

from fomdp.logic import (
    ActTerm,
    And,
    Atom,
    Bool,
    ConsistencyChecker,
    Eq,
    Exists,
    Forall,
    Formula,
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
)


def reference_infer_types(f: Formula, signature, env=None, acc=None) -> dict:
    """Best-effort types for free variables and objects from atom positions."""
    if acc is None:
        acc = {}
    env = dict(env or {})

    def note(t, vtype):
        if vtype is None:
            return
        if isinstance(t, (Var, Obj)) and t.name not in env:
            acc.setdefault(t.name, vtype)

    if isinstance(f, Atom):
        types = signature.get(f.pred, ())
        for a, vt in zip(f.args, types):
            note(a, vt)
    elif isinstance(f, Not):
        reference_infer_types(f.sub, signature, env, acc)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            reference_infer_types(p, signature, env, acc)
    elif isinstance(f, (Exists, Forall)):
        reference_infer_types(f.body, signature, {**env, f.var: f.vtype}, acc)
    return acc


def _term_objs(t) -> set:
    if isinstance(t, Obj):
        return {t.name}
    if isinstance(t, ActTerm):
        out = set()
        for a in t.args:
            out |= _term_objs(a)
        return out
    return set()


def reference_objects_in(f: Formula) -> set:
    """Names of objects mentioned in f."""
    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= _term_objs(a)
        return out
    if isinstance(f, Eq):
        return _term_objs(f.left) | _term_objs(f.right)
    if isinstance(f, Not):
        return reference_objects_in(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= reference_objects_in(p)
        return out
    if isinstance(f, (Exists, Forall)):
        return reference_objects_in(f.body)
    return set()


def reference_scan_types(f: Formula, universal, binders: set, nonmono: set):
    """Add f's binder types to `binders` and its non-monotone types to `nonmono`; expects NNF.

    Claessen & Lillieström's first calculus: an extra object that copies an
    existing one satisfies whatever the original did, except a positive
    equality with a ∀-bound variable (`universal` maps those in scope to
    their types).  An untyped one adds None, which stands for every type.
    """
    if isinstance(f, (Exists, Forall)):
        binders.add(f.vtype)
        inner = {name: t for name, t in universal.items() if name != f.var}
        if isinstance(f, Forall):
            inner[f.var] = f.vtype
        reference_scan_types(f.body, inner, binders, nonmono)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            reference_scan_types(p, universal, binders, nonmono)
    elif isinstance(f, Eq):
        for t in (f.left, f.right):
            if isinstance(t, Var) and t.name in universal:
                nonmono.add(universal[t.name])


def reference_survey(f: Formula, signature) -> tuple:
    """`survey`'s four results by the three walks it replaced; binders and nonmono expect NNF."""
    types = reference_infer_types(f, signature)
    binders, nonmono = set(), set()
    reference_scan_types(implicit_close(f, types), {}, binders, nonmono)
    return types, reference_objects_in(f), binders, nonmono


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
    return acc


def every_grounding(f: Formula, signature, n: int) -> tuple:
    """f's types, its closure, and the pools of every per-type size combination up to n, smallest first."""
    types = reference_infer_types(f, signature)
    closed = implicit_close(f, types)
    consts: dict = {}
    for name in sorted(reference_objects_in(closed)):
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
