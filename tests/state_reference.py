"""Reference ground evaluation: the recursive interpreter that compiled plans replaced.

`eval_in_state` walks the formula and looks every atom up in the state;
`satisfying_bindings` evaluates it on the full product of the variables'
pools.  `fomdp.logic.eval_in_state`, `satisfying_bindings` and every
`compile_query` plan must return exactly what these return.
"""

import itertools
from typing import Mapping, Optional, Sequence

from fomdp.logic import (
    And,
    Atom,
    Bool,
    Eq,
    Exists,
    Forall,
    Formula,
    GroundState,
    LogicError,
    Not,
    Obj,
    Or,
    Term,
    UnboundVariableError,
    Var,
)


def _resolve(t: Term, binding: Mapping[str, str]) -> str:
    if isinstance(t, Obj):
        return t.name
    if isinstance(t, Var):
        if t.name not in binding:
            raise UnboundVariableError(f"variable {t.name} is not bound")
        return binding[t.name]
    raise LogicError(f"action term {t.name} in a state formula")


def eval_in_state(f: Formula, state: GroundState, binding: Optional[Mapping[str, str]] = None) -> bool:
    """Closed-world truth of f in a ground state under a variable binding."""
    b = binding or {}
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Atom):
        return (f.pred, *[_resolve(a, b) for a in f.args]) in state.atoms
    if isinstance(f, Eq):
        return _resolve(f.left, b) == _resolve(f.right, b)
    if isinstance(f, Not):
        return not eval_in_state(f.sub, state, b)
    if isinstance(f, And):
        return all(eval_in_state(p, state, b) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_in_state(p, state, b) for p in f.parts)
    if isinstance(f, Exists):
        return any(eval_in_state(f.body, state, {**b, f.var: o}) for o in state.universe.pool(f.vtype))
    if isinstance(f, Forall):
        return all(eval_in_state(f.body, state, {**b, f.var: o}) for o in state.universe.pool(f.vtype))
    raise TypeError(f"not a formula: {f!r}")


def satisfying_bindings(
    f: Formula,
    state: GroundState,
    variables: Sequence[tuple[str, Optional[str]]],
    binding: Optional[Mapping[str, str]] = None,
) -> list[dict]:
    """All bindings of `variables` satisfying f, in lexicographic object order."""
    base = dict(binding or {})
    pools = [state.universe.pool(vtype) for _, vtype in variables]
    names = [name for name, _ in variables]
    out = []
    for combo in itertools.product(*pools):
        b = {**base, **dict(zip(names, combo))}
        if eval_in_state(f, state, b):
            out.append(dict(zip(names, combo)) if not binding else b)
    return out
