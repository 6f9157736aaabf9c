"""Reference BDD simplification: the two-pass path that `simplify_bdd` replaced.

It canonicalises every opaque atom anew wherever it occurs: once to
collect the frontier in first-use order, again while building the BDD, and
again at every nested quantifier level.  Negated atoms are read back as
`Not(atom)` and left to the final `normalize`, and `push_quantifiers` rebuilds
every node.  `simplify_bdd` must return exactly what this returns.
"""

from typing import Mapping, Optional

from fomdp.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bool,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    _Bdd,
    _push_exists,
    _push_forall,
    conj,
    disj,
    free_vars,
    normalize,
    sort_key,
)


def push_quantifiers(f: Formula) -> Formula:
    if isinstance(f, (Bool, Atom, Eq)):
        return f
    if isinstance(f, Not):
        return Not(push_quantifiers(f.sub))
    if isinstance(f, And):
        return conj(push_quantifiers(p) for p in f.parts)
    if isinstance(f, Or):
        return disj(push_quantifiers(p) for p in f.parts)
    push = _push_exists if isinstance(f, Exists) else _push_forall
    return push(f.var, f.vtype, push_quantifiers(f.body), None, {})


def atom_key(f: Formula) -> tuple:
    pos = normalize(f)
    neg = normalize(Not(pos))
    if sort_key(neg) < sort_key(pos):
        return neg, True
    return pos, False


def frontier_atoms(f: Formula, order: list, seen: set):
    if isinstance(f, Bool):
        return
    if isinstance(f, Not):
        frontier_atoms(f.sub, order, seen)
        return
    if isinstance(f, (And, Or)):
        for p in f.parts:
            frontier_atoms(p, order, seen)
        return
    key, _ = atom_key(f)
    if key not in seen:
        seen.add(key)
        order.append(key)


def build_bdd(f: Formula, bdd: _Bdd, index: Mapping) -> int:
    if isinstance(f, Bool):
        return _Bdd.TRUE if f.value else _Bdd.FALSE
    if isinstance(f, Not):
        return bdd.neg(build_bdd(f.sub, bdd, index))
    if isinstance(f, (And, Or)):
        op = "and" if isinstance(f, And) else "or"
        out = _Bdd.TRUE if op == "and" else _Bdd.FALSE
        for p in f.parts:
            out = bdd.apply(op, out, build_bdd(p, bdd, index))
        return out
    key, negated = atom_key(f)
    node = bdd.mk(index[key], _Bdd.FALSE, _Bdd.TRUE)
    return bdd.neg(node) if negated else node


def read_back(node: int, bdd: _Bdd, atoms: list, memo: dict) -> Formula:
    if node == _Bdd.FALSE:
        return FALSE
    if node == _Bdd.TRUE:
        return TRUE
    if node in memo:
        return memo[node]
    atom = atoms[bdd.var[node]]
    lo = read_back(bdd.lo[node], bdd, atoms, memo)
    hi = read_back(bdd.hi[node], bdd, atoms, memo)
    if hi == TRUE and lo == FALSE:
        out = atom
    elif hi == FALSE and lo == TRUE:
        out = Not(atom)
    elif lo == FALSE:
        out = conj([atom, hi])
    elif hi == FALSE:
        out = conj([Not(atom), lo])
    elif lo == TRUE:
        out = disj([Not(atom), hi])
    elif hi == TRUE:
        out = disj([atom, lo])
    else:
        out = disj([conj([atom, hi]), conj([Not(atom), lo])])
    memo[node] = out
    return out


def simplify_inner(f: Formula, max_atoms: int) -> Optional[Formula]:
    f = map_quantified(f, max_atoms)
    order: list = []
    frontier_atoms(f, order, set())
    if len(order) > max_atoms:
        return None
    bdd = _Bdd()
    root = build_bdd(f, bdd, {a: i for i, a in enumerate(order)})
    return read_back(root, bdd, order, {})


def map_quantified(f: Formula, max_atoms: int) -> Formula:
    if isinstance(f, (Exists, Forall)):
        inner = simplify_inner(f.body, max_atoms)
        body = f.body if inner is None else inner
        if isinstance(body, Bool) or f.var not in free_vars(body):
            return body
        return type(f)(f.var, f.vtype, body)
    if isinstance(f, Not):
        return Not(map_quantified(f.sub, max_atoms))
    if isinstance(f, And):
        return conj(map_quantified(p, max_atoms) for p in f.parts)
    if isinstance(f, Or):
        return disj(map_quantified(p, max_atoms) for p in f.parts)
    return f


def reference_simplify_bdd(f: Formula, max_atoms: int = 40) -> Formula:
    g = simplify_inner(normalize(push_quantifiers(normalize(f))), max_atoms)
    return f if g is None else normalize(g)
