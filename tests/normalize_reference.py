"""Reference canonical form: the two walks that `normalize` fused into one.

`_nnf` pushes negations to the atoms and unfolds implications, rebuilding
every node it passes; `_canon` then renames bound variables by depth,
flattens, deduplicates and sorts, walking the formula as a tree.  A nested
junction of the enclosing class is canonical already, so its parts join the
enclosing one as they are; a quantifier whose variable goes with its
simplified body is bound again one level up, and a node that canonicalises
to itself comes back as the same object.  `normalize(f)` must equal
`reference_normalize(f)` exactly.
"""

from typing import Mapping

from fomdp.logic import (
    FALSE,
    TRUE,
    ActTerm,
    And,
    Atom,
    Bool,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Obj,
    Or,
    Term,
    Var,
    free_vars,
    sort_key,
    term_key,
)


def reference_normalize(f: Formula) -> Formula:
    return _canon(_nnf(f, False), {}, 0)


def _nnf(f: Formula, neg: bool) -> Formula:
    if not neg and f.__dict__.get("_normed", False):
        return f
    if isinstance(f, Bool):
        return Bool(f.value != neg)
    if isinstance(f, (Atom, Eq)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        parts = tuple(_nnf(p, neg) for p in f.parts)
        return Or(parts) if neg else And(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, neg) for p in f.parts)
        return And(parts) if neg else Or(parts)
    if isinstance(f, Exists):
        cls = Forall if neg else Exists
        return cls(f.var, f.vtype, _nnf(f.body, neg))
    if isinstance(f, Forall):
        cls = Exists if neg else Forall
        return cls(f.var, f.vtype, _nnf(f.body, neg))
    raise TypeError(f"not a formula: {f!r}")


def _canon_term(t: Term, env: Mapping[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env[t.name]) if t.name in env else t
    if isinstance(t, ActTerm):
        return ActTerm(t.name, tuple(_canon_term(a, env) for a in t.args))
    return t


def _complement(f: Formula) -> Formula:
    return f.sub if isinstance(f, Not) else Not(f)


def _canon(f: Formula, env: Mapping[str, str], depth: int) -> Formula:
    if not env and depth == 0 and f.__dict__.get("_normed", False):
        return f
    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        args = tuple(_canon_term(a, env) for a in f.args)
        return f if args == f.args else Atom(f.pred, args)
    if isinstance(f, Eq):
        left = _canon_term(f.left, env)
        right = _canon_term(f.right, env)
        if left == right:
            return TRUE
        if isinstance(left, Obj) and isinstance(right, Obj):
            return FALSE
        if term_key(right) < term_key(left):
            left, right = right, left
        return f if (left, right) == (f.left, f.right) else Eq(left, right)
    if isinstance(f, Not):
        sub = _canon(f.sub, env, depth)
        if isinstance(sub, Bool):
            return Bool(not sub.value)
        if isinstance(sub, Not):
            return sub.sub
        return f if sub is f.sub else Not(sub)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        identity, absorber = (TRUE, FALSE) if is_and else (FALSE, TRUE)
        flat: list = []
        seen = set()
        for part in f.parts:
            p = _canon(part, env, depth)
            for q in p.parts if isinstance(p, type(f)) else (p,):
                if q == absorber:
                    return absorber
                if q == identity or q in seen:
                    continue
                seen.add(q)
                flat.append(q)
        for p in flat:
            if _complement(p) in seen:
                return absorber
        flat.sort(key=sort_key)
        if not flat:
            return identity
        if len(flat) == 1:
            return flat[0]
        return And(tuple(flat)) if is_and else Or(tuple(flat))
    if isinstance(f, (Exists, Forall)):
        if f.var not in free_vars(f.body):
            return _canon(f.body, env, depth)
        fresh = f"v{depth + 1}"
        avoid = free_vars(f.body) - {f.var}
        avoid = {env.get(n, n) for n in avoid}
        while fresh in avoid:
            fresh += "_"
        body = _canon(f.body, {**env, f.var: fresh}, depth + 1)
        if isinstance(body, Bool):
            return body
        if fresh not in free_vars(body):
            return _canon(body, {}, depth)
        return f if fresh == f.var and body is f.body else type(f)(fresh, f.vtype, body)
    raise TypeError(f"not a formula: {f!r}")
