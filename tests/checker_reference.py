"""Reference consistency checking: the every-combination loop that monotone types shortened.

`ReferenceChecker._sat` grounds every per-type domain-size combination up
to the bound, smallest first, after the same lifted pass as the checker; it
never asks whether a type is monotone.  `fomdp.logic.ConsistencyChecker`
must return exactly the verdicts this returns.
"""

import itertools

from fomdp.logic import (
    And,
    ConsistencyChecker,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    _G_FALSE,
    _G_TRUE,
    _GroundDag,
    _ground_expand,
    _ground_sat,
    implicit_close,
    infer_types,
    objects_in,
)


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


class ReferenceChecker(ConsistencyChecker):
    """The checker with every size combination grounded in turn."""

    def _sat(self, f: Formula, left: list) -> bool:
        types = infer_types(f, self.signature)
        closed = implicit_close(f, types)
        consts: dict = {}
        for name in sorted(objects_in(closed)):
            consts.setdefault(types.get(name), []).append(name)
        needed = set(consts) | set(binder_types(closed))
        if not needed:
            needed = {None}
        typed = sorted(t for t in needed if t is not None)
        n = self.bound.objects_per_type
        loop_types = typed if typed else [None]
        ranges = []
        for t in loop_types:
            lo = max(1, len(consts.get(t, [])))
            ranges.append(range(lo, max(n, lo) + 1))
        combos = list(itertools.product(*ranges))
        for step, sizes in enumerate(combos):
            # one or two remaining groundings cost less than a lifted pass
            if step == 1 and len(combos) > 3:
                self.stats.lifted_attempts += 1
                verdict = self._lifted(f, types)
                if verdict is not None:
                    self.stats.lifted += 1
                    return verdict
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
            self.stats.groundings += 1
            dag = _GroundDag()
            root = _ground_expand(closed, pools, {}, dag, left)
            if root == _G_TRUE:
                return True
            if root == _G_FALSE:
                continue
            if _ground_sat(dag, root, left, {}):
                return True
        return False
