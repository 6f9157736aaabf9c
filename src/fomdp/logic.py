"""First-order state formulas: syntax, canonical forms, and bounded-model checks.

Formulas describe properties of relational states.  Terms are variables,
named objects, or action function terms (the latter only appear on one side
of an equality inside effect axioms and are compiled away by regression).
The module provides a parser and printer for a small text syntax, a
canonical normal form used as the identity of a formula everywhere else in
the package, closed-world evaluation against ground states, and a
bounded-domain satisfiability check that the case algebra uses to prune
impossible partitions.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union


class LogicError(Exception):
    """Base class for errors raised by this module."""


class FormulaSyntaxError(LogicError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ArityError(LogicError):
    pass


class UnboundVariableError(LogicError):
    pass


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class Obj:
    name: str

    def __repr__(self):
        return f"Obj({self.name})"


@dataclass(frozen=True)
class ActTerm:
    """An action function term n(t1,...,tk); legal only inside equalities."""

    name: str
    args: tuple = ()

    def __repr__(self):
        return f"ActTerm({self.name}{list(self.args)})"


Term = Union[Var, Obj, ActTerm]


def term_key(t: Term) -> tuple:
    if isinstance(t, Var):
        return (0, t.name, ())
    if isinstance(t, Obj):
        return (1, t.name, ())
    return (2, t.name, tuple(term_key(a) for a in t.args))


# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Bool(Formula):
    value: bool


TRUE = Bool(True)
FALSE = Bool(False)


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    vtype: Optional[str]
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    vtype: Optional[str]
    body: Formula


def _attach_hash_cache(cls):
    # Nodes are immutable and widely shared; the generated hash walks the
    # whole subtree, so set-heavy canonicalization needs it memoized.
    base = cls.__hash__

    def cached(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = base(self)
            object.__setattr__(self, "_h", h)
        return h

    cls.__hash__ = cached


for _cls in (Var, Obj, ActTerm, Bool, Atom, Eq, Not, And, Or, Implies, Exists, Forall):
    _attach_hash_cache(_cls)


def conj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def exists_chain(variables: Sequence[tuple[str, Optional[str]]], body: Formula) -> Formula:
    for name, vtype in reversed(list(variables)):
        body = Exists(name, vtype, body)
    return body


def forall_chain(variables: Sequence[tuple[str, Optional[str]]], body: Formula) -> Formula:
    for name, vtype in reversed(list(variables)):
        body = Forall(name, vtype, body)
    return body


def sort_key(f: Formula) -> tuple:
    """Deterministic total order on formulas, used for canonical sorting."""
    k = f.__dict__.get("_sk")
    if k is None:
        k = _sort_key_of(f)
        object.__setattr__(f, "_sk", k)
    return k


def _sort_key_of(f: Formula) -> tuple:
    if isinstance(f, Bool):
        return (0, "1" if f.value else "0", ())
    if isinstance(f, Atom):
        return (1, f.pred, tuple(term_key(a) for a in f.args))
    if isinstance(f, Eq):
        return (2, "", (term_key(f.left), term_key(f.right)))
    if isinstance(f, Not):
        return (3, "", (sort_key(f.sub),))
    if isinstance(f, And):
        return (4, "", tuple(sort_key(p) for p in f.parts))
    if isinstance(f, Or):
        return (5, "", tuple(sort_key(p) for p in f.parts))
    if isinstance(f, Implies):
        return (6, "", (sort_key(f.lhs), sort_key(f.rhs)))
    if isinstance(f, Exists):
        return (7, f.vtype or "", (sort_key(f.body),))
    if isinstance(f, Forall):
        return (8, f.vtype or "", (sort_key(f.body),))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# structural helpers


def _term_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, ActTerm):
        out = set()
        for a in t.args:
            out |= _term_vars(a)
        return out
    return set()


def free_vars(f: Formula) -> frozenset:
    """Names of variables with a free occurrence in f."""
    fv = f.__dict__.get("_fv")
    if fv is None:
        fv = frozenset(_free_vars_of(f))
        object.__setattr__(f, "_fv", fv)
    return fv


def _free_vars_of(f: Formula) -> frozenset:
    if isinstance(f, Bool):
        return frozenset()
    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= _term_vars(a)
        return frozenset(out)
    if isinstance(f, Eq):
        return frozenset(_term_vars(f.left) | _term_vars(f.right))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= free_vars(p)
        return frozenset(out)
    if isinstance(f, Implies):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def all_var_names(f: Formula) -> set:
    """Every variable name occurring in f, free or bound."""
    if isinstance(f, (Exists, Forall)):
        return all_var_names(f.body) | {f.var}
    if isinstance(f, Not):
        return all_var_names(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= all_var_names(p)
        return out
    if isinstance(f, Implies):
        return all_var_names(f.lhs) | all_var_names(f.rhs)
    return free_vars(f)


def objects_in(f: Formula) -> set:
    """Names of objects mentioned in f."""

    def term_objs(t: Term) -> set:
        if isinstance(t, Obj):
            return {t.name}
        if isinstance(t, ActTerm):
            out = set()
            for a in t.args:
                out |= term_objs(a)
            return out
        return set()

    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= term_objs(a)
        return out
    if isinstance(f, Eq):
        return term_objs(f.left) | term_objs(f.right)
    if isinstance(f, Not):
        return objects_in(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= objects_in(p)
        return out
    if isinstance(f, Implies):
        return objects_in(f.lhs) | objects_in(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return objects_in(f.body)
    return set()


def _sub_term(t: Term, sub: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, ActTerm):
        return ActTerm(t.name, tuple(_sub_term(a, sub) for a in t.args))
    return t


def substitute(f: Formula, sub: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if not sub:
        return f
    if isinstance(f, (Bool,)):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_sub_term(a, sub) for a in f.args))
    if isinstance(f, Eq):
        return Eq(_sub_term(f.left, sub), _sub_term(f.right, sub))
    if isinstance(f, Not):
        return Not(substitute(f.sub, sub))
    if isinstance(f, And):
        return And(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(substitute(f.lhs, sub), substitute(f.rhs, sub))
    if isinstance(f, (Exists, Forall)):
        inner = {k: v for k, v in sub.items() if k != f.var}
        if not inner:
            return type(f)(f.var, f.vtype, f.body)
        # rename the binder if a substituted term would be captured
        incoming = set()
        for v in inner.values():
            incoming |= _term_vars(v)
        var = f.var
        body = f.body
        if var in incoming:
            taken = incoming | all_var_names(body) | set(inner)
            fresh = var
            i = 0
            while fresh in taken:
                i += 1
                fresh = f"{var}_s{i}"
            body = substitute(body, {var: Var(fresh)})
            var = fresh
        return type(f)(var, f.vtype, substitute(body, inner))
    raise TypeError(f"not a formula: {f!r}")


def replace_objects(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename objects throughout f (used for goal instantiation)."""

    def rt(t: Term) -> Term:
        if isinstance(t, Obj):
            return Obj(mapping.get(t.name, t.name))
        if isinstance(t, ActTerm):
            return ActTerm(t.name, tuple(rt(a) for a in t.args))
        return t

    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(rt(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(rt(f.left), rt(f.right))
    if isinstance(f, Not):
        return Not(replace_objects(f.sub, mapping))
    if isinstance(f, And):
        return And(tuple(replace_objects(p, mapping) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(replace_objects(p, mapping) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(replace_objects(f.lhs, mapping), replace_objects(f.rhs, mapping))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.vtype, replace_objects(f.body, mapping))
    raise TypeError(f"not a formula: {f!r}")


def collect_predicates(f: Formula, acc: Optional[dict] = None) -> dict:
    """Map predicate name -> arity for every atom in f; raises on conflicts."""
    if acc is None:
        acc = {}
    if isinstance(f, Atom):
        n = len(f.args)
        if acc.setdefault(f.pred, n) != n:
            raise ArityError(f"predicate {f.pred} used with arities {acc[f.pred]} and {n}")
    elif isinstance(f, Not):
        collect_predicates(f.sub, acc)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            collect_predicates(p, acc)
    elif isinstance(f, Implies):
        collect_predicates(f.lhs, acc)
        collect_predicates(f.rhs, acc)
    elif isinstance(f, (Exists, Forall)):
        collect_predicates(f.body, acc)
    return acc


def has_action_terms(f: Formula) -> bool:
    if isinstance(f, Eq):
        return isinstance(f.left, ActTerm) or isinstance(f.right, ActTerm)
    if isinstance(f, Not):
        return has_action_terms(f.sub)
    if isinstance(f, (And, Or)):
        return any(has_action_terms(p) for p in f.parts)
    if isinstance(f, Implies):
        return has_action_terms(f.lhs) or has_action_terms(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return has_action_terms(f.body)
    return False


# ---------------------------------------------------------------------------
# printing


_PREC_IMPLIES = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_ATOM = 4


def format_term(t: Term) -> str:
    if isinstance(t, (Var, Obj)):
        return t.name
    return f"{t.name}({', '.join(format_term(a) for a in t.args)})" if t.args else t.name


def format_formula(f: Formula) -> str:
    """Round-trippable text form."""
    return _fmt(f, 0)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Bool):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Not):
        if isinstance(f.sub, Eq):
            return f"{format_term(f.sub.left)} != {format_term(f.sub.right)}"
        return "!" + _fmt(f.sub, _PREC_NOT)
    if isinstance(f, And):
        s = " & ".join(_fmt(p, _PREC_AND + 1) for p in f.parts)
        return f"({s})" if ctx > _PREC_AND else s
    if isinstance(f, Or):
        s = " | ".join(_fmt(p, _PREC_OR + 1) for p in f.parts)
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(f, Implies):
        s = f"{_fmt(f.lhs, _PREC_IMPLIES + 1)} -> {_fmt(f.rhs, _PREC_IMPLIES)}"
        return f"({s})" if ctx > _PREC_IMPLIES else s
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        v = f"{f.var}:{f.vtype}" if f.vtype else f.var
        s = f"{kw} {v}. {_fmt(f.body, 0)}"
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing


_SYMBOLS = ("!=", "->", "(", ")", ",", ".", ":", "!", "&", "|", "=")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._lex()

    def _advance(self, n: int):
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _lex(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == "#":
                end = text.find("\n", self.pos)
                self._advance((end if end >= 0 else len(text)) - self.pos)
                continue
            matched = False
            for sym in _SYMBOLS:
                if text.startswith(sym, self.pos):
                    self.tokens.append(("sym", sym, self.line, self.col))
                    self._advance(len(sym))
                    matched = True
                    break
            if matched:
                continue
            if ch.isalpha():
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[self.pos : j]
                self.tokens.append(("ident", word, self.line, self.col))
                self._advance(j - self.pos)
                continue
            raise FormulaSyntaxError(f"unexpected character {ch!r}", self.line, self.col)
        self.tokens.append(("eof", "", self.line, self.col))


class _Parser:
    def __init__(self, text: str, objects: frozenset, act_names: frozenset):
        self.toks = _Lexer(text).tokens
        self.i = 0
        self.objects = objects
        self.act_names = act_names

    def peek(self, k: int = 0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise FormulaSyntaxError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok[0] == "ident" and tok[1] in ("exists", "forall"):
            self.next()
            variables = [self.typed_var()]
            while self.peek()[1] == ",":
                self.next()
                variables.append(self.typed_var())
            self.expect("sym", ".")
            body = self.formula()
            cls = Exists if tok[1] == "exists" else Forall
            for name, vtype in reversed(variables):
                body = cls(name, vtype, body)
            return body
        return self.implication()

    def typed_var(self) -> tuple[str, Optional[str]]:
        name = self.expect("ident")[1]
        vtype = None
        if self.peek()[1] == ":":
            self.next()
            vtype = self.expect("ident")[1]
        return name, vtype

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.peek()[1] == "->":
            self.next()
            return Implies(lhs, self.formula())
        return lhs

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[1] == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.peek()[1] == "&":
            self.next()
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def negation(self) -> Formula:
        if self.peek()[1] == "!":
            self.next()
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok[1] == "(":
            self.next()
            f = self.formula()
            self.expect("sym", ")")
            return f
        if tok[0] != "ident":
            raise FormulaSyntaxError(f"expected a formula, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        if tok[1] in ("exists", "forall"):
            return self.formula()
        if tok[1] == "true":
            self.next()
            return TRUE
        if tok[1] == "false":
            self.next()
            return FALSE
        name = self.next()[1]
        args: Optional[list[Term]] = None
        if self.peek()[1] == "(":
            self.next()
            args = []
            if self.peek()[1] != ")":
                args.append(self.term())
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.term())
            self.expect("sym", ")")
        nxt = self.peek()[1]
        if nxt in ("=", "!="):
            self.next()
            left = self.make_term(name, args)
            right = self.term()
            eq = Eq(left, right)
            return Not(eq) if nxt == "!=" else eq
        if args is None:
            return Atom(name)
        for a in args:
            if isinstance(a, ActTerm):
                raise FormulaSyntaxError(f"action term {a.name!r} cannot be a predicate argument", tok[2], tok[3])
        return Atom(name, tuple(args))

    def term(self) -> Term:
        tok = self.expect("ident")
        name = tok[1]
        args: Optional[list[Term]] = None
        if self.peek()[1] == "(":
            self.next()
            args = []
            if self.peek()[1] != ")":
                args.append(self.term())
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.term())
            self.expect("sym", ")")
        return self.make_term(name, args)

    def make_term(self, name: str, args: Optional[list[Term]]) -> Term:
        if args is not None:
            return ActTerm(name, tuple(args))
        if name in self.act_names:
            return ActTerm(name, ())
        if name in self.objects:
            return Obj(name)
        return Var(name)


def parse_formula(
    text: str,
    objects: Iterable[str] = (),
    act_names: Iterable[str] = (),
    signature: Optional[Mapping[str, Sequence]] = None,
) -> Formula:
    """Parse the text syntax.

    Identifiers in `objects` become named objects, identifiers in `act_names`
    become zero-argument action terms; everything else is a variable.  When a
    predicate signature is supplied, atom arities are checked against it.
    """
    f = _Parser(text, frozenset(objects), frozenset(act_names)).parse()
    arities = collect_predicates(f)
    if signature is not None:
        for pred, n in sorted(arities.items()):
            if pred not in signature:
                raise ArityError(f"unknown predicate {pred}")
            if len(signature[pred]) != n:
                raise ArityError(f"predicate {pred} expects {len(signature[pred])} arguments, got {n}")
    return f


# ---------------------------------------------------------------------------
# canonical normal form


def normalize(f: Formula) -> Formula:
    """Canonical negation normal form.

    Implications are unfolded, negations pushed to atoms, nested
    conjunctions/disjunctions flattened, duplicate and trivial parts removed,
    parts sorted under a fixed total order, and bound variables renamed by
    quantifier depth.  Alpha-equivalent formulas normalize identically and
    the map is idempotent.  Outputs are marked so renormalizing one is free.
    """
    if f.__dict__.get("_normed", False):
        return f
    g = _canon(_nnf(f, False), {}, 0)
    object.__setattr__(g, "_normed", True)
    if isinstance(g, (And, Or)):
        # direct parts are canonical at depth 0 themselves
        for p in g.parts:
            object.__setattr__(p, "_normed", True)
    return g


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
    if isinstance(f, Implies):
        return _nnf(Or((Not(f.lhs), f.rhs)), neg)
    if isinstance(f, Exists):
        cls = Forall if neg else Exists
        return cls(f.var, f.vtype, _nnf(f.body, neg))
    if isinstance(f, Forall):
        cls = Exists if neg else Forall
        return cls(f.var, f.vtype, _nnf(f.body, neg))
    raise TypeError(f"not a formula: {f!r}")


def _canon_term(t: Term, env: Mapping[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
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
        return Atom(f.pred, tuple(_canon_term(a, env) for a in f.args))
    if isinstance(f, Eq):
        left = _canon_term(f.left, env)
        right = _canon_term(f.right, env)
        if left == right:
            return TRUE
        if isinstance(left, Obj) and isinstance(right, Obj):
            return FALSE  # distinct names denote distinct objects
        if term_key(right) < term_key(left):
            left, right = right, left
        return Eq(left, right)
    if isinstance(f, Not):
        sub = _canon(f.sub, env, depth)
        if isinstance(sub, Bool):
            return Bool(not sub.value)
        if isinstance(sub, Not):
            return sub.sub
        return Not(sub)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        identity, absorber = (TRUE, FALSE) if is_and else (FALSE, TRUE)
        flat: list[Formula] = []
        seen = set()
        stack = deque(f.parts)
        while stack:
            p = _canon(stack.popleft(), env, depth)
            if isinstance(p, type(f)):
                stack.extendleft(reversed(p.parts))
                continue
            if p == absorber:
                return absorber
            if p == identity or p in seen:
                continue
            seen.add(p)
            flat.append(p)
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
        return type(f)(fresh, f.vtype, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# ground states and closed-world evaluation


@dataclass(frozen=True)
class Universe:
    """Typed object pools.  Falls back to the union pool for untyped variables."""

    pools: tuple = ()  # tuple of (type name or None, tuple of object names)

    @staticmethod
    def of(mapping: Mapping[Optional[str], Iterable[str]]) -> "Universe":
        items = []
        for t in sorted(mapping, key=lambda k: (k is None, k or "")):
            items.append((t, tuple(sorted(set(mapping[t])))))
        return Universe(tuple(items))

    def pool(self, vtype: Optional[str]) -> tuple:
        for t, objs in self.pools:
            if t == vtype:
                return objs
        if vtype is None:
            merged = sorted({o for _, objs in self.pools for o in objs})
            return tuple(merged)
        raise LogicError(f"no objects declared for type {vtype}")

    def types(self) -> tuple:
        return tuple(t for t, _ in self.pools)


@dataclass(frozen=True)
class GroundState:
    """A closed-world relational state: the set of atoms that hold."""

    atoms: frozenset
    universe: Universe

    def holds(self, pred: str, args: tuple) -> bool:
        return (pred, *args) in self.atoms


def make_state(atoms: Iterable[tuple], universe: Universe) -> GroundState:
    return GroundState(frozenset(tuple(a) for a in atoms), universe)


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
    if isinstance(f, Implies):
        return (not eval_in_state(f.lhs, state, b)) or eval_in_state(f.rhs, state, b)
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


# ---------------------------------------------------------------------------
# type inference for variables and objects


def infer_types(
    f: Formula,
    signature: Mapping[str, Sequence],
    env: Optional[Mapping[str, Optional[str]]] = None,
    acc: Optional[dict] = None,
) -> dict:
    """Best-effort types for free variables and objects from atom positions."""
    if acc is None:
        acc = {}
    env = dict(env or {})

    def note(t: Term, vtype):
        if vtype is None:
            return
        if isinstance(t, (Var, Obj)) and t.name not in env:
            acc.setdefault(t.name, vtype)

    if isinstance(f, Atom):
        types = signature.get(f.pred, ())
        for a, vt in zip(f.args, types):
            note(a, vt)
    elif isinstance(f, Not):
        infer_types(f.sub, signature, env, acc)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            infer_types(p, signature, env, acc)
    elif isinstance(f, Implies):
        infer_types(f.lhs, signature, env, acc)
        infer_types(f.rhs, signature, env, acc)
    elif isinstance(f, (Exists, Forall)):
        infer_types(f.body, signature, {**env, f.var: f.vtype}, acc)
    return acc


def implicit_close(f: Formula, var_types: Optional[Mapping[str, Optional[str]]] = None) -> Formula:
    """Existentially close the free variables of f (sorted by name)."""
    types = dict(var_types or {})
    for name in sorted(free_vars(f)):
        f = Exists(name, types.get(name), f)
    return f


# ---------------------------------------------------------------------------
# bounded-domain consistency


@dataclass(frozen=True)
class ConsistencyBound:
    """Object budget per type and wall-clock budget for one check."""

    objects_per_type: int = 3
    timeout_ms: int = 10_000

    def __post_init__(self):
        if self.objects_per_type < 1:
            raise ValueError("objects_per_type must be positive")


class _SatTimeout(Exception):
    pass


class ConsistencyChecker:
    """Satisfiability of state formulas over bounded typed domains.

    A formula is grounded over pools of `objects_per_type` objects per type
    (named objects claim pool slots first), free variables are read
    existentially, and the propositional expansion is searched for a model.
    Distinct object names always denote distinct objects.  Results are
    cached per canonical formula.
    """

    def __init__(
        self,
        bound: Optional[ConsistencyBound] = None,
        signature: Optional[Mapping[str, Sequence]] = None,
    ):
        self.bound = bound or ConsistencyBound()
        self.signature = dict(signature or {})
        self._cache: dict = {}

    # -- public verdicts ----------------------------------------------------

    def check(self, f: Formula) -> Optional[bool]:
        """True/False when decided within budget, None on timeout."""
        g = normalize(f)
        if isinstance(g, Bool):
            return g.value
        key = g
        if key in self._cache:
            return self._cache[key]
        try:
            result = self._sat(g)
        except _SatTimeout:
            return None
        self._cache[key] = result
        return result

    def is_consistent(self, f: Formula) -> bool:
        """Satisfiable at the bound; indeterminate counts as consistent."""
        verdict = self.check(f)
        return True if verdict is None else verdict

    def is_valid(self, f: Formula) -> bool:
        """Negation unsatisfiable at the bound; indeterminate counts as not valid."""
        verdict = self.check(Not(f))
        return verdict is False

    def equivalent(self, f: Formula, g: Formula) -> bool:
        """No bounded model separates f and g."""
        if normalize(f) == normalize(g):
            return True
        a = self.check(And((f, Not(g))))
        b = self.check(And((Not(f), g)))
        return a is False and b is False

    # -- grounding ----------------------------------------------------------

    def _sat(self, f: Formula) -> bool:
        """Model with at most `objects_per_type` objects per type?

        Tries every per-type domain size up to the bound (smallest first, so
        satisfiable formulas exit on tiny groundings); the verdict is monotone
        in the bound because every size combination gets a turn.  Named
        objects always claim pool slots and force a minimum size.
        """
        deadline = time.monotonic() + self.bound.timeout_ms / 1000.0
        types = infer_types(f, self.signature)
        closed = implicit_close(f, types)
        consts: dict = {}
        for name in sorted(objects_in(closed)):
            consts.setdefault(types.get(name), []).append(name)
        needed = set(consts) | set(_binder_types(closed))
        if not needed:
            needed = {None}
        typed = sorted(t for t in needed if t is not None)
        n = self.bound.objects_per_type
        loop_types = typed if typed else [None]
        ranges = []
        for t in loop_types:
            lo = max(1, len(consts.get(t, [])))
            ranges.append(range(lo, max(n, lo) + 1))
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
            dag = _GroundDag()
            root = _ground_expand(closed, pools, {}, dag, deadline)
            if root == _G_TRUE:
                return True
            if root == _G_FALSE:
                continue
            if _ground_sat(dag, root, deadline, [0], {}):
                return True
        return False


def _binder_types(f: Formula) -> dict:
    acc: dict = {}
    if isinstance(f, (Exists, Forall)):
        acc[f.vtype] = True
        acc.update(_binder_types(f.body))
    elif isinstance(f, Not):
        acc.update(_binder_types(f.sub))
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            acc.update(_binder_types(p))
    elif isinstance(f, Implies):
        acc.update(_binder_types(f.lhs))
        acc.update(_binder_types(f.rhs))
    return acc


_G_TRUE = 0
_G_FALSE = 1


class _GroundDag:
    """Hash-consed propositional graph for grounded formulas.

    Nodes fold constants, flatten and deduplicate junctions, and cancel
    complementary literal pairs on construction, so satisfiability search
    only ever branches on atoms that still matter.
    """

    def __init__(self):
        self.kind = ["true", "false"]  # per-node tag
        self.data: list = [None, None]  # atom payload or sorted child ids
        self.watch: list = [None, None]  # some atom id below the node
        self.intern: dict = {}
        self.cond_memo: dict = {}  # (node, atom, value) -> conditioned node

    def _mk(self, kind: str, data, watch) -> int:
        key = (kind, data)
        nid = self.intern.get(key)
        if nid is None:
            nid = len(self.kind)
            self.intern[key] = nid
            self.kind.append(kind)
            self.data.append(data)
            self.watch.append(watch)
        return nid

    def atom(self, payload: tuple) -> int:
        nid = self._mk("atom", payload, None)
        self.watch[nid] = nid
        return nid

    def neg(self, nid: int) -> int:
        if nid == _G_TRUE:
            return _G_FALSE
        if nid == _G_FALSE:
            return _G_TRUE
        k = self.kind[nid]
        if k == "not":
            return self.data[nid]
        if k == "atom":
            return self._mk("not", nid, nid)
        other = "or" if k == "and" else "and"
        return self.junction(other, [self.neg(c) for c in self.data[nid]])

    def junction(self, kind: str, ids) -> int:
        absorber = _G_FALSE if kind == "and" else _G_TRUE
        neutral = _G_TRUE if kind == "and" else _G_FALSE
        parts: list = []
        seen: set = set()
        for i in ids:
            if i == absorber:
                return absorber
            if i == neutral or i in seen:
                continue
            if self.kind[i] == kind:
                for j in self.data[i]:
                    if j not in seen:
                        seen.add(j)
                        parts.append(j)
                continue
            seen.add(i)
            parts.append(i)
        for i in parts:
            if self.kind[i] == "not" and self.data[i] in seen:
                return absorber
        if not parts:
            return neutral
        if len(parts) == 1:
            return parts[0]
        key = tuple(sorted(parts))
        nid = self._mk(kind, key, None)
        if self.watch[nid] is None:
            self.watch[nid] = self.watch[key[0]]
        return nid

    def condition(self, nid: int, aid: int, value: bool) -> int:
        """Fix one atom's truth value and fold the consequences."""
        if nid <= _G_FALSE:
            return nid
        key = (nid, aid, value)
        got = self.cond_memo.get(key)
        if got is not None:
            return got
        k = self.kind[nid]
        if k == "atom":
            out = (_G_TRUE if value else _G_FALSE) if nid == aid else nid
        elif k == "not":
            out = self.neg(self.condition(self.data[nid], aid, value))
        else:
            out = self.junction(k, [self.condition(c, aid, value) for c in self.data[nid]])
        self.cond_memo[key] = out
        return out


def _ground_expand(f: Formula, pools: Mapping, binding: dict, dag: _GroundDag, deadline: float) -> int:
    if time.monotonic() > deadline:
        raise _SatTimeout()
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
        return dag.neg(_ground_expand(f.sub, pools, binding, dag, deadline))
    if isinstance(f, (And, Or)):
        kind = "and" if isinstance(f, And) else "or"
        absorber = _G_FALSE if kind == "and" else _G_TRUE
        ids = []
        for p in f.parts:
            g = _ground_expand(p, pools, binding, dag, deadline)
            if g == absorber:
                return absorber
            ids.append(g)
        return dag.junction(kind, ids)
    if isinstance(f, Implies):
        return _ground_expand(Or((Not(f.lhs), f.rhs)), pools, binding, dag, deadline)
    if isinstance(f, (Exists, Forall)):
        pool = pools.get(f.vtype)
        if pool is None:
            pool = pools[None]
        kind = "or" if isinstance(f, Exists) else "and"
        absorber = _G_TRUE if isinstance(f, Exists) else _G_FALSE
        ids = []
        for o in pool:
            g = _ground_expand(f.body, pools, {**binding, f.var: o}, dag, deadline)
            if g == absorber:
                return absorber
            ids.append(g)
        return dag.junction(kind, ids)
    raise TypeError(f"not a formula: {f!r}")


def _ground_sat(dag: _GroundDag, nid: int, deadline: float, counter: list, memo: dict) -> bool:
    """DPLL-style search: propagate unit literals, branch on a live atom.

    Unit propagation and branching both preserve satisfiability, so every
    node passed through on the way to a verdict shares it; the memo turns
    the exponential branch tree into a walk over distinct folded nodes.
    """
    chain: list = []
    result = None
    while True:
        counter[0] += 1
        if counter[0] % 128 == 0 and time.monotonic() > deadline:
            raise _SatTimeout()
        if nid == _G_TRUE:
            result = True
            break
        if nid == _G_FALSE:
            result = False
            break
        got = memo.get(nid)
        if got is not None:
            result = got
            break
        k = dag.kind[nid]
        if k in ("atom", "not"):
            result = True
            break
        chain.append(nid)
        if k == "and":
            lit = None
            for c in dag.data[nid]:
                ck = dag.kind[c]
                if ck == "atom":
                    lit = (c, True)
                    break
                if ck == "not":
                    lit = (dag.data[c], False)
                    break
            if lit is not None:
                nid = dag.condition(nid, lit[0], lit[1])
                continue
        aid = dag.watch[nid]
        if _ground_sat(dag, dag.condition(nid, aid, True), deadline, counter, memo):
            result = True
            break
        nid = dag.condition(nid, aid, False)
    for c in chain:
        memo[c] = result
    return result


# ---------------------------------------------------------------------------
# quantifier placement and one-point simplification


def push_quantifiers(f: Formula) -> Formula:
    """Move quantifiers inward and apply the one-point rule; expects NNF.

    Subformulas where nothing moves come back as the same objects, so
    renormalising an unchanged canonical input is free.
    """
    if isinstance(f, (Bool, Atom, Eq)):
        return f
    if isinstance(f, Not):
        sub = push_quantifiers(f.sub)
        return f if sub is f.sub else Not(sub)
    if isinstance(f, (And, Or)):
        parts = tuple(push_quantifiers(p) for p in f.parts)
        if len(parts) > 1 and all(p is q for p, q in zip(parts, f.parts)):
            return f
        return conj(parts) if isinstance(f, And) else disj(parts)
    if isinstance(f, (Exists, Forall)):
        body = push_quantifiers(f.body)
        push = _push_exists if isinstance(f, Exists) else _push_forall
        g = push(f.var, f.vtype, body)
        return f if body is f.body and g == f else g
    raise TypeError(f"unexpected node (normalize first): {f!r}")


def _one_point_target(part: Formula, var: str) -> Optional[Term]:
    if not isinstance(part, Eq):
        return None
    l, r = part.left, part.right
    if isinstance(l, Var) and l.name == var and var not in _term_vars(r):
        return r
    if isinstance(r, Var) and r.name == var and var not in _term_vars(l):
        return l
    return None


def _push_exists(var: str, vtype: Optional[str], body: Formula) -> Formula:
    if var not in free_vars(body):
        return body
    if isinstance(body, Or):
        return disj(_push_exists(var, vtype, p) for p in body.parts)
    if isinstance(body, Eq) and _one_point_target(body, var) is not None:
        return TRUE  # pools are never empty, so a witness always exists
    if isinstance(body, And):
        dep, indep = [], []
        for p in body.parts:
            (dep if var in free_vars(p) else indep).append(p)
        for i, p in enumerate(dep):
            t = _one_point_target(p, var)
            if t is not None:
                rest = [substitute(q, {var: t}) for j, q in enumerate(dep) if j != i]
                return push_quantifiers(conj(indep + rest))
        if indep:
            return conj(indep + [Exists(var, vtype, conj(dep))])
    return Exists(var, vtype, body)


def _push_forall(var: str, vtype: Optional[str], body: Formula) -> Formula:
    if var not in free_vars(body):
        return body
    if isinstance(body, And):
        return conj(_push_forall(var, vtype, p) for p in body.parts)
    if isinstance(body, Or):
        dep, indep = [], []
        for p in body.parts:
            (dep if var in free_vars(p) else indep).append(p)
        for i, p in enumerate(dep):
            if isinstance(p, Not):
                t = _one_point_target(p.sub, var)
                if t is not None:
                    rest = [substitute(q, {var: t}) for j, q in enumerate(dep) if j != i]
                    return push_quantifiers(disj(indep + rest))
        if indep:
            return disj(indep + [Forall(var, vtype, disj(dep))])
    return Forall(var, vtype, body)


# ---------------------------------------------------------------------------
# BDD reduction of the propositional superstructure


class _Bdd:
    """Reduced ordered BDD with hash-consing; variables are small ints."""

    FALSE = 0
    TRUE = 1

    def __init__(self):
        self.var: list = [None, None]
        self.lo: list = [None, None]
        self.hi: list = [None, None]
        self.unique: dict = {}
        self.memo: dict = {}

    def mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self.unique.get(key)
        if node is None:
            node = len(self.var)
            self.var.append(var)
            self.lo.append(lo)
            self.hi.append(hi)
            self.unique[key] = node
        return node

    def apply(self, op: str, u: int, v: int) -> int:
        if op == "and":
            if u == 0 or v == 0:
                return 0
            if u == 1:
                return v
            if v == 1:
                return u
        else:
            if u == 1 or v == 1:
                return 1
            if u == 0:
                return v
            if v == 0:
                return u
        if u > v:
            u, v = v, u
        key = (op, u, v)
        out = self.memo.get(key)
        if out is not None:
            return out
        vu = self.var[u] if u > 1 else None
        vv = self.var[v] if v > 1 else None
        if vv is None or (vu is not None and vu <= vv):
            top = vu
        else:
            top = vv
        u0, u1 = (self.lo[u], self.hi[u]) if vu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if vv == top else (v, v)
        out = self.mk(top, self.apply(op, u0, v0), self.apply(op, u1, v1))
        self.memo[key] = out
        return out

    def neg(self, u: int) -> int:
        if u <= 1:
            return 1 - u
        key = ("not", u)
        out = self.memo.get(key)
        if out is None:
            out = self.mk(self.var[u], self.neg(self.lo[u]), self.neg(self.hi[u]))
            self.memo[key] = out
        return out


class _AtomLimit(Exception):
    pass


class _BddSimplifier:
    """Memo tables of one `simplify_bdd` call, dropped when the call returns.

    Keyed by formula, they hold each opaque subformula's BDD atom and each
    atom's negation dual, so an atom that repeats, or recurs at a nested
    quantifier level, is canonicalised once.
    """

    def __init__(self, max_atoms: int):
        self.max_atoms = max_atoms
        self.keys: dict = {}
        self.duals: dict = {}

    def atom_key(self, f: Formula) -> tuple[Formula, bool]:
        """Canonical polarity for an opaque subformula.

        A quantified subformula and its negation-normal dual (¬∃ vs ∀¬) must
        map to the same BDD variable, so the smaller of the two canonical
        forms is the shared atom and the flag records whether f is its
        negation.
        """
        got = self.keys.get(f)
        if got is None:
            pos = normalize(f)
            neg = self.dual(pos)
            got = (neg, True) if sort_key(neg) < sort_key(pos) else (pos, False)
            self.keys[f] = self.keys[pos] = got
        return got

    def dual(self, atom: Formula) -> Formula:
        got = self.duals.get(atom)
        if got is None:
            got = self.duals[atom] = normalize(Not(atom))
        return got

    def reduce(self, f: Formula) -> Optional[Formula]:
        """Simplify quantifier bodies bottom-up, then this level; None past the atom limit."""
        f = self.map_quantified(f)
        bdd, order, index = _Bdd(), [], {}
        try:
            root = self.build(f, bdd, order, index)
        except _AtomLimit:
            return None
        return self.read_back(root, bdd, order, {})

    def build(self, f: Formula, bdd: _Bdd, order: list, index: dict) -> int:
        """BDD of f; atoms get variables in first-use order as they are met."""
        if isinstance(f, Bool):
            return _Bdd.TRUE if f.value else _Bdd.FALSE
        if isinstance(f, Not):
            return bdd.neg(self.build(f.sub, bdd, order, index))
        if isinstance(f, (And, Or)):
            op = "and" if isinstance(f, And) else "or"
            out = _Bdd.TRUE if op == "and" else _Bdd.FALSE
            for p in f.parts:
                out = bdd.apply(op, out, self.build(p, bdd, order, index))
            return out
        key, negated = self.atom_key(f)
        var = index.get(key)
        if var is None:
            if len(order) == self.max_atoms:
                raise _AtomLimit()
            var = index[key] = len(order)
            order.append(key)
        node = bdd.mk(var, _Bdd.FALSE, _Bdd.TRUE)
        return bdd.neg(node) if negated else node

    def read_back(self, node: int, bdd: _Bdd, atoms: list, memo: dict) -> Formula:
        if node == _Bdd.FALSE:
            return FALSE
        if node == _Bdd.TRUE:
            return TRUE
        if node in memo:
            return memo[node]
        atom = atoms[bdd.var[node]]
        lo = self.read_back(bdd.lo[node], bdd, atoms, memo)
        hi = self.read_back(bdd.hi[node], bdd, atoms, memo)
        # negated atoms come back as canonical duals, so the final normalize
        # does not re-derive them (lo != hi in a reduced BDD)
        if lo == FALSE:
            out = atom if hi == TRUE else conj([atom, hi])
        elif hi == FALSE:
            out = self.dual(atom) if lo == TRUE else conj([self.dual(atom), lo])
        elif lo == TRUE:
            out = disj([self.dual(atom), hi])
        elif hi == TRUE:
            out = disj([atom, lo])
        else:
            out = disj([conj([atom, hi]), conj([self.dual(atom), lo])])
        memo[node] = out
        return out

    def map_quantified(self, f: Formula) -> Formula:
        if isinstance(f, (Exists, Forall)):
            inner = self.reduce(f.body)
            body = f.body if inner is None else inner
            if isinstance(body, Bool) or f.var not in free_vars(body):
                return body
            return type(f)(f.var, f.vtype, body)
        if isinstance(f, Not):
            return Not(self.map_quantified(f.sub))
        if isinstance(f, And):
            return conj(self.map_quantified(p) for p in f.parts)
        if isinstance(f, Or):
            return disj(self.map_quantified(p) for p in f.parts)
        return f


def simplify_bdd(f: Formula, max_atoms: int = 40) -> Formula:
    """Boolean simplification that treats quantified subformulas as atoms.

    Quantifiers are first pushed inward (with one-point elimination of
    equalities), then the connective superstructure over the remaining
    maximal quantified/atomic subformulas is reduced through a BDD and read
    back.  The result is equivalent to the input over every untyped domain.
    The one-point rule ignores quantifier types, so over typed domains the
    result can be weaker (∃x:Box. ∃y:City. x = y becomes true).  When the
    atom count exceeds `max_atoms` the input is returned unchanged.
    """
    g = normalize(push_quantifiers(normalize(f)))
    g = _BddSimplifier(max_atoms).reduce(g)
    if g is None:
        return f
    return normalize(g)
