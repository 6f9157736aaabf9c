"""Compiled queries: formulas evaluated against an indexed ground state.

`compile_query` and `compile_program`, the package's one evaluator of
formulas in ground states, write plans as Python source and compile them
once; their docstrings give the plans' loops, memo cells and column scans.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

from .logic import (
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
    GroundState,
    LogicError,
    Not,
    Obj,
    Or,
    Term,
    UnboundVariableError,
    Universe,
    Var,
    conj,
    disj,
    fold_constants,
    free_vars,
    map_leaves,
    negation,
    nodes,
    substitute,
)


class _Pools(dict):
    """Object pool per type of a universe, looked up on first use."""

    def __init__(self, universe: Universe):
        self.universe = universe

    def __missing__(self, vtype: Optional[str]) -> tuple:
        pool = self[vtype] = self.universe.pool(vtype)
        return pool


class StateIndex:
    """A ground state prepared for compiled queries; build one per state.

    `pools[type]` (LogicError for an undeclared type) and columns fill on
    first use.  `column(pred, pos)` maps the other arguments of every `pred`
    atom to the objects at argument `pos`.
    """

    def __init__(self, state: GroundState):
        self.atoms, self.universe = state.atoms, state.universe
        self.pools = _Pools(state.universe)
        self._columns: dict = {}

    def column(self, pred: str, pos: int) -> dict:
        if (pred, pos) not in self._columns:
            col = self._columns[(pred, pos)] = {}
            for a in self.atoms:
                if a[0] == pred:
                    col.setdefault(a[1 : pos + 1] + a[pos + 2 :], set()).add(a[pos + 1])
        return self._columns[(pred, pos)]


_MAX_NESTING = 40  # parentheses in one generated expression; the parser fails near 200


def compile_query(f: Formula, variables: Sequence = (), params: Sequence = ()) -> Callable:
    """Plan `(index, args, memo) -> list of tuples` of the `variables` satisfying f.

    The package's one evaluator of formulas in ground states, generated as
    Python source and compiled once.  `params` names objects of f that each
    call binds to its `args`, so one plan answers for every renaming
    `replace_objects(f, zip(params, args))`.  Top-level conjuncts without a
    variable are tested first, once.  Then one loop per variable takes its
    candidates from its pool, through a `StateIndex.column` of a top-level
    atom whose other arguments are bound, and every other conjunct filters
    at the first variable that binds all of its own, as one inline boolean
    expression.  When the first variable x occurs only in equalities with
    objects t1..tk (parameters among them) and no binder reuses its name, f
    cannot tell apart objects outside {t1..tk}: the rest of f is evaluated
    once per class, x := tj for each j and every `x = tj` false for the
    others, each folded by `fold_constants`, which decides no equality of
    two distinct names since parameters may alias.  A class's rows are
    worked out on its first member, so a class without one evaluates
    nothing.  A quantifier `exists q: T. A & φ` or `forall q: T. !A | φ`
    without a cell, whose atom A names q once and otherwise only objects,
    evaluates φ only on the objects of `pools[T]` in A's column, read when
    the quantifier is first reached and kept in `memo`: any other q stops
    the body at A.  Tuples come in lexicographic order of the variables'
    pools.
    A free variable outside `variables` raises UnboundVariableError, and an
    action term LogicError, here; a wrong number of `args` raises
    LogicError, and an undeclared quantifier type when a call reaches it
    (a part that folding decides is not reached).
    A one-plan `compile_program`; see there for `memo`.
    """
    return compile_program([(f, variables)], params)[0]


def compile_program(queries: Sequence[tuple], params: Sequence = ()) -> tuple:
    """One `compile_query` plan per (formula, variables) of `queries`, from one `compile()`.

    A closed quantified subformula (no free variable; `params` are objects)
    that a call may reach twice, in a loop or in several plans, gets a cell
    shared by equal subformulas and by its dual: `forall v. φ` reads the cell
    of `exists v. ¬φ` (the `negation` pushed inward), negated.
    The first evaluation stores its truth in the plan's `memo` dict for
    every plan to read, as the first reach of a quantifier's column scan
    stores its candidates; a raise stores nothing.
    Both depend only on the index and the args, so pass a fresh memo
    per program, index and args (a plan given none makes its own).
    """
    return _QueryWriter(tuple(params)).program(queries)


def _literal(name: Optional[str]) -> str:
    """Source literal of a predicate, object or type name (None: the untyped pool)."""
    if name is not None and not isinstance(name, str):
        raise LogicError(f"name {name!r} is not a string")
    return "None" if name is None else str.__repr__(name)


def _fill(m: dict, k: int, pool: tuple, entry) -> list:
    """Cell k of a plan's memo: the objects of `pool` in a column entry, in pool order."""
    cands = m[k] = [x for x in pool if x in entry]
    return cands


def _tuple(items: list) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


class _QueryWriter:
    """Writes the plans of one `compile_program` as the source of a factory of functions.

    Names from the formula enter the source only as string literals, so
    none runs as code; plans, variables, parameters and helpers get generated
    identifiers (`p`, `v`, `a`, `q`, `h`, `c` and a number; `w` and `r` for
    the rows and classes of a split plan).  The memo `m`, which every
    helper receives, holds two kinds of cell: helper `c<k>` evaluates the
    closed quantifier of cell k, and `fill` stores a quantifier's column
    candidates in cell k when the quantifier is first reached.  Helpers
    are closures of the factory, which is dropped once it has made the
    plans, so no plan holds a reference cycle.
    """

    def __init__(self, params: tuple):
        self.args = [f"a{i}" for i in range(len(params))]
        self.params = dict(zip(params, self.args))  # a repeated name takes its last slot
        self.lines: list = []  # source of the factory's functions
        self.fresh = itertools.count()
        self.cells, self.reads = {}, 0  # closed quantified subformula or column scan -> cell number; cell reads written
        self.helper_args = ", ".join(["atoms", "pools", "column", *self.args, "m"])  # what every helper takes

    def program(self, queries: Sequence[tuple]) -> tuple:
        self.shared = len(queries) > 1
        names = [self.plan(f, tuple(variables)) for f, variables in queries]
        source = "\n".join(["def make():", *self.lines, f"    return {_tuple(names)}"])
        exec(compile(source, "<query>", "exec"), namespace := {"LogicError": LogicError, "fill": _fill})
        return namespace.pop("make")()

    def plan(self, f: Formula, variables: tuple) -> str:
        self.variables, self.where = variables, {n: i for i, (n, _) in enumerate(variables)}
        if len(self.where) != len(variables):
            raise LogicError(f"query variables {[n for n, _ in variables]} repeat a name")
        self.top = {n: f"v{i}" for n, i in self.where.items()}
        reads = self.reads
        rows = self.rows(_conjuncts(f), 0)
        n = len(self.args)
        body = [f"if len(args) != {n}:", f"    raise LogicError('query takes {n} parameters, got %d' % len(args))"]
        body += [f"{', '.join(self.args)}, = args"] if n else []
        body += ["m = {} if m is None else m"] if self.reads > reads else []
        body.append("atoms, pools, column = ix.atoms, ix.pools, ix.column")
        # every variable's pool first: an undeclared type raises even when nothing matches
        body += [f"t{i} = pools[{_literal(vtype)}]" for i, (_, vtype) in enumerate(variables)]
        body.append(f"return {rows}")
        name = f"p{next(self.fresh)}"
        self.lines += [f"    def {name}(ix, args=(), m=None):", *(f"        {line}" for line in body)]
        return name

    def rows(self, conjuncts: list, start: int) -> str:
        """Comprehension of the variables from `start` on satisfying the conjuncts, which name none before it.

        Conjuncts without a variable are tested first, once.  Then the plan
        is split by `classes` if it can be, else it loops over each variable.
        """
        tests = [self.expr(c, {})[0] for c in conjuncts if not self.where.keys() & free_vars(c)]
        conjuncts = [c for c in conjuncts if self.where.keys() & free_vars(c)]
        loops = ["for _ in [0]", f"if {' and '.join(tests)}"] if tests else []  # the comprehension's first clause
        if start == 0 and (split := self.classes(conj(conjuncts))):
            return f"[(v0, *w) {' '.join(loops)} for r in [{{}}] for v0 in t0 for w in ({split})]"
        levels = [[None, []] for _ in self.variables]  # per variable: binder, filters
        for c in conjuncts:
            last = max(self.where[v] for v in free_vars(c) if v in self.where)
            if levels[last][0] is None and (bind := self.binder(c, last)):
                levels[last][0] = bind
            else:
                levels[last][1].append(self.expr(c, self.top)[0])
        for i, (bind, filters) in enumerate(levels[start:], start):
            if bind:
                loops.append(f"for s{i} in [{bind}]")
                filters = [f"v{i} in s{i}", *filters]
            loops += [f"for v{i} in t{i}", f"if {' and '.join(filters)}"] if filters else [f"for v{i} in t{i}"]
        return f"[{_tuple([f'v{i}' for i in range(start, len(levels))])} {' '.join(loops)}]"

    def classes(self, f: Formula) -> Optional[str]:
        """Rows of f per value of its first variable x, worked out per class; None unless f names x only in `x = t`.

        Each t must be an object (a parameter among them), no binder may be
        named x, and f may have no unbound variable or action term, which
        raise as it compiles.  f cannot tell apart two objects of a class:
        x := t for each t, and every `x = t` false for the other objects.
        The dict `r` gets a class's rows on its first member, so a class
        without one evaluates nothing.
        """
        if not self.variables or not free_vars(f) <= self.where.keys():
            return None
        x, partners, src = Var(self.variables[0][0]), {}, []
        for g in nodes(f):
            terms = g.args if isinstance(g, Atom) else (g.left, g.right) if isinstance(g, Eq) else ()
            if isinstance(g, (Exists, Forall)) and g.var == x.name or any(isinstance(t, ActTerm) for t in terms):
                return None
            if x in terms:  # in an atom, or in an equality whose other side must be an object
                t = (g.left, g.right)[g.left == x] if isinstance(g, Eq) else x
                if not isinstance(t, Obj):
                    return None
                partners[t] = None  # in order of first use
        other = map_leaves(f, lambda g: FALSE if isinstance(g, Eq) and x in (g.left, g.right) else g)
        for k, g in enumerate(map(fold_constants, [*(substitute(f, {x.name: t}) for t in partners), other])):
            rows = self.rows([] if g == TRUE else _conjuncts(g), 1)
            src.append("()" if g == FALSE else f"(r[{k}] if {k} in r else r.setdefault({k}, {rows}))")
        return "".join(f"{s} if v0 == {self.term(t, {})} else " for s, t in zip(src, partners)) + src[-1]

    def binder(self, c: Formula, i: int) -> Optional[str]:
        """Objects for variable i that make atom c true once earlier variables are bound."""
        v = Var(self.variables[i][0])
        if isinstance(c, Atom) and c.args.count(v) == 1:
            pos = c.args.index(v)
            rest = c.args[:pos] + c.args[pos + 1 :]
            if all(isinstance(t, Obj) or self.where.get(t.name, i) < i for t in rest):
                key = _tuple([self.term(t, self.top) for t in rest])
                return f"column({_literal(c.pred)}, {pos}).get({key}, ())"
        return None

    def scan(self, g: Formula, q: str, scope: Mapping[str, str]) -> Optional[tuple]:
        """(cell, memo read, body after the guard) for q's candidates, the objects of g's pool on which its guard holds.

        None unless g has a guard: its first conjunct (∃) or negated first
        disjunct (∀), an atom that names g's variable once and otherwise only
        objects.  Any other object decides g's body at that first part:
        false (∃), true (∀).
        """
        parts = _conjuncts(g.body, And if isinstance(g, Exists) else Or)
        guard = parts[0] if isinstance(g, Exists) else parts[0].sub if isinstance(parts[0], Not) else None
        v = Var(g.var)
        if not isinstance(guard, Atom) or guard.args.count(v) != 1:
            return None
        pos, others = guard.args.index(v), [t for t in guard.args if t != v]
        if not all(isinstance(t, Obj) for t in others):
            return None
        key = _tuple([self.term(t, scope) for t in others])
        k = self.cells.setdefault((guard.pred, pos, key, g.vtype), len(self.cells))
        self.reads += 1
        col = f"column({_literal(guard.pred)}, {pos}).get({key}, ())"
        cands = f"fill(m, {k}, pools[{_literal(g.vtype)}], {col})"
        return k, f"(m[{k}] if {k} in m else {cands})", (conj if isinstance(g, Exists) else disj)(parts[1:])

    def term(self, t: Term, scope: Mapping[str, str]) -> str:
        if isinstance(t, Var):
            if t.name not in scope:
                raise UnboundVariableError(f"variable {t.name} is not bound")
            return scope[t.name]
        if isinstance(t, ActTerm):
            raise LogicError(f"action term {t.name} in a state formula")
        return self.params.get(t.name) or _literal(t.name)

    def expr(self, g: Formula, scope: Mapping[str, str]) -> tuple:
        """A Python expression for g and its nesting depth."""
        if isinstance(g, Bool):
            return str(bool(g.value)), 0
        if isinstance(g, Atom):
            return f"{_tuple([_literal(g.pred), *(self.term(a, scope) for a in g.args)])} in atoms", 1
        if isinstance(g, Eq):
            return f"{self.term(g.left, scope)} == {self.term(g.right, scope)}", 0
        if isinstance(g, Not):
            sub, depth = self.expr(g.sub, scope)
            src = f"(not {sub})"
        elif isinstance(g, (And, Or)):
            parts = [self.expr(p, scope) for p in g.parts] or [(str(isinstance(g, And)), 0)]
            src = "(" + (" and " if isinstance(g, And) else " or ").join(s for s, _ in parts) + ")"
            depth = max(d for _, d in parts)
        elif isinstance(g, (Exists, Forall)):
            cell = bool(scope or self.shared) and not free_vars(g)  # closed, and may run twice per call
            if cell and isinstance(g, Forall):  # ∀v. φ reads the cell of its ∃ dual, negated
                return self.expr(Not(negation(g)), scope)
            if not cell or g not in self.cells:
                q = f"q{next(self.fresh)}"
                kind = "any" if isinstance(g, Exists) else "all"
                scan = None if cell else self.scan(g, q, scope)  # a cell runs once per memo: no scan
                body, depth = self.expr(scan[2] if scan else g.body, {**scope, g.var: q})
                if scan:  # only the candidates in cell k, on which the guard holds
                    test = f"{scan[1]} and" if kind == "any" else f"not {scan[1]} or"
                    src, depth = f"({test} {kind}({body} for {q} in m[{scan[0]}]))", max(depth + 1, 5)
                else:
                    src = f"{kind}({body} for {q} in pools[{_literal(g.vtype)}])"
            if cell:  # cell k of the memo, filled by helper c<k>, in which nesting starts over
                if g not in self.cells:
                    k = self.cells[g] = len(self.cells)
                    self.lines += [f"    def c{k}({self.helper_args}):", f"        return {src}"]
                self.reads, k = self.reads + 1, self.cells[g]
                return f"(m[{k}] if {k} in m else m.setdefault({k}, c{k}({self.helper_args})))", 3
        else:
            raise TypeError(f"not a formula: {g!r}")
        if depth < _MAX_NESTING:
            return src, depth + 1
        # a helper function of g's free variables, in which nesting starts over
        call = f"h{next(self.fresh)}({', '.join([self.helper_args, *sorted(scope[v] for v in free_vars(g))])})"
        self.lines += [f"    def {call}:", f"        return {src}"]
        return call, 1


def _conjuncts(g: Formula, junction: type = And) -> list:
    return [c for p in g.parts for c in _conjuncts(p, junction)] if isinstance(g, junction) else [g]
