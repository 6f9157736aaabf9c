"""First-order state formulas: syntax, canonical forms, and bounded-model checks.

Formulas describe properties of relational states.  Terms are variables,
named objects, or action function terms (the latter only appear on one side
of an equality inside effect axioms and are compiled away by regression).
The module provides a parser and printer for a small text syntax (whose
`a -> b` is sugar: the parser and `Implies` build `!a | b`), a
canonical normal form used as the identity of a formula everywhere else in
the package, closed-world evaluation against ground states, and a
bounded-domain satisfiability check that the case algebra uses to prune
impossible partitions.  Generic walks: `nodes` visits every subformula,
`map_leaves` rebuilds a formula through a function of its atoms and
equalities, and `term_names` reads a term's variables or objects; `survey`
collects in one walk what a check needs of a formula before grounding.
Formulas share subformula objects, so `normalize`, `survey`,
`push_quantifiers` and the BDD passes visit each distinct subformula once
per context in a call, through memos keyed by object id that end with it.
Ground states are defined here and evaluated by the plans of `query.py`;
`eval_in_state` and `satisfying_bindings` compile one per call, for one-off
use.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from operator import is_, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union


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


class Implies(Formula):
    """Implication as sugar: `Implies(a, b)` returns `Or((Not(a), b))`.

    No instance exists.  The name stays a class, so `isinstance(f, Implies)`
    is legal, and always false.
    """

    def __new__(cls, lhs: Formula, rhs: Formula) -> Formula:
        return Or((Not(lhs), rhs))


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


for _cls in (Var, Obj, ActTerm, Bool, Atom, Eq, Not, And, Or, Exists, Forall):
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
    if isinstance(f, Exists):
        return (7, f.vtype or "", (sort_key(f.body),))
    if isinstance(f, Forall):
        return (8, f.vtype or "", (sort_key(f.body),))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# structural helpers


def term_names(t: Term, kind: type) -> set:
    """Names of the `kind` leaves (Var or Obj) of t, inside action terms too."""
    if isinstance(t, kind):
        return {t.name}
    if isinstance(t, ActTerm):
        return set().union(*(term_names(a, kind) for a in t.args))
    return set()


def nodes(f: Formula) -> Iterator[Formula]:
    """f and each of its subformulas, depth first, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.parts))
        elif isinstance(g, (Exists, Forall)):
            stack.append(g.body)


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
        return frozenset().union(*(term_names(a, Var) for a in f.args))
    if isinstance(f, Eq):
        return frozenset(term_names(f.left, Var) | term_names(f.right, Var))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= free_vars(p)
        return frozenset(out)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def all_var_names(f: Formula) -> set:
    """Every variable name occurring in f, free or bound."""
    out = set()
    for g in nodes(f):
        if isinstance(g, (Exists, Forall)):
            out.add(g.var)
        elif isinstance(g, (Atom, Eq)):
            out |= free_vars(g)
    return out


def objects_in(f: Formula) -> set:
    """Names of objects mentioned in f."""
    return survey(f, {})[1]


def _replace_term(t: Term, kind: type, sub: Mapping[str, Term]) -> Term:
    """t with each `kind` leaf (Var or Obj) that `sub` names replaced by its term."""
    if isinstance(t, kind):
        return sub.get(t.name, t)
    if isinstance(t, ActTerm):
        return ActTerm(t.name, tuple(_replace_term(a, kind, sub) for a in t.args))
    return t


def _replace_terms(g: Formula, kind: type, sub: Mapping[str, Term]) -> Formula:
    """`_replace_term` on each term of an atom or equality."""
    if isinstance(g, Atom):
        return Atom(g.pred, tuple(_replace_term(a, kind, sub) for a in g.args))
    return Eq(_replace_term(g.left, kind, sub), _replace_term(g.right, kind, sub))


def map_leaves(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """f with every atom and equality g replaced by leaf(g); connectives and binders stay as they are."""
    if isinstance(f, (Atom, Eq)):
        return leaf(f)
    if isinstance(f, Bool):
        return f
    if isinstance(f, Not):
        return Not(map_leaves(f.sub, leaf))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map_leaves(p, leaf) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.vtype, map_leaves(f.body, leaf))
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, sub: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if not sub:
        return f
    if isinstance(f, (Bool,)):
        return f
    if isinstance(f, (Atom, Eq)):
        return _replace_terms(f, Var, sub)
    if isinstance(f, Not):
        return Not(substitute(f.sub, sub))
    if isinstance(f, And):
        return And(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        inner = {k: v for k, v in sub.items() if k != f.var}
        if not inner:
            return type(f)(f.var, f.vtype, f.body)
        # rename the binder if a substituted term would be captured
        incoming = set()
        for v in inner.values():
            incoming |= term_names(v, Var)
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
    sub = {name: Obj(new) for name, new in mapping.items()}
    return map_leaves(f, lambda g: _replace_terms(g, Obj, sub))


def negation(f: Formula) -> Formula:
    """¬f with the negation pushed to the atoms and equalities; names and the order of parts stay."""
    if isinstance(f, (And, Or)):
        return (Or if isinstance(f, And) else And)(tuple(map(negation, f.parts)))
    if isinstance(f, (Exists, Forall)):
        return (Forall if isinstance(f, Exists) else Exists)(f.var, f.vtype, negation(f.body))
    return f.sub if isinstance(f, Not) else Bool(not f.value) if isinstance(f, Bool) else Not(f)


def fold_constants(f: Formula) -> Formula:
    """f with truth constants folded through ¬/∧/∨, repeated and complementary parts of junctions too.

    `t = t` is true, but unlike in `normalize` no equality of two distinct
    names is decided: parameters may denote the same object at run time.
    The junctions it folds list their parts in `sort_key` order, as `normalize` does.
    """
    if isinstance(f, Eq):
        return TRUE if f.left == f.right else f
    if isinstance(f, Not):
        return negation(fold_constants(f.sub))
    if isinstance(f, (And, Or)):
        absorber = Bool(isinstance(f, Or))
        parts = set(map(fold_constants, f.parts)) - {negation(absorber)}
        if absorber in parts or any(negation(p) in parts for p in parts):
            return absorber
        return (conj if isinstance(f, And) else disj)(sorted(parts, key=sort_key))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.vtype, fold_constants(f.body))
    return f


def collect_predicates(f: Formula) -> dict:
    """Map predicate name -> arity for every atom in f; raises on conflicts."""
    acc: dict = {}
    for g in nodes(f):
        if isinstance(g, Atom):
            n = len(g.args)
            if acc.setdefault(g.pred, n) != n:
                raise ArityError(f"predicate {g.pred} used with arities {acc[g.pred]} and {n}")
    return acc


# ---------------------------------------------------------------------------
# printing


_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def format_term(t: Term) -> str:
    if isinstance(t, (Var, Obj)):
        return t.name
    return f"{t.name}({', '.join(format_term(a) for a in t.args)})" if t.args else t.name


def format_formula(f: Formula) -> str:
    """Round-trippable text form; a parsed `a -> b` prints as `!a | b`, which parses back equal."""
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
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        v = f"{f.var}:{f.vtype}" if f.vtype else f.var
        s = f"{kw} {v}. {_fmt(f.body, 0)}"
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing


# whitespace and comments, symbols (longest first), words; a word must start with a letter
_TOKEN = re.compile(r"([ \t\r\n]+|#[^\n]*)|(!=|->|[(),.:!&|=])|(\w+)")


def _lex(text: str) -> list:
    """Tokens (kind, value, line, column) of text, ending with an "eof" token."""
    tokens, line, line_start, pos = [], 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None or (m.lastindex == 3 and not text[pos].isalpha()):
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        skip, sym, word = m.groups()
        if sym:
            tokens.append(("sym", sym, line, col))
        elif word:
            tokens.append(("ident", word, line, col))
        elif "\n" in skip:
            line += skip.count("\n")
            line_start = pos + skip.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, objects: frozenset, act_names: frozenset):
        self.toks = _lex(text)
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

    Negations are pushed to atoms, nested conjunctions/disjunctions
    flattened, duplicate and trivial parts removed, parts sorted under a
    fixed total order, and bound variables renamed by quantifier depth.
    Alpha-equivalent formulas normalize identically and the map is
    idempotent.  Outputs are marked so renormalizing one is free.
    One walk does it all, working out each distinct compound subformula once
    per (polarity, renaming of its free variables, depth).
    """
    if f.__dict__.get("_normed", False):
        return f
    g = _canon(f, False, {}, 0, {})
    object.__setattr__(g, "_normed", True)
    if isinstance(g, (And, Or)):
        # direct parts are canonical at depth 0 themselves
        for p in g.parts:
            object.__setattr__(p, "_normed", True)
    return g


def _canon_term(t: Term, env: Mapping[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env[t.name]) if t.name in env else t
    if isinstance(t, ActTerm):
        return ActTerm(t.name, tuple(_canon_term(a, env) for a in t.args))
    return t


def _complement(f: Formula) -> Formula:
    return f.sub if isinstance(f, Not) else Not(f)


def _canon(f: Formula, neg: bool, env: Mapping[str, str], depth: int, memo: dict) -> Formula:
    """Canonical form of f (of ¬f when `neg`) with free variables renamed by env, below `depth` quantifiers.

    A node that canonicalises to itself comes back as the same object.  A
    compound node is worked out once per (polarity, depth, renaming of its
    free variables); `memo` holds it, so its id stays its own.
    """
    kind = type(f)
    if kind is Not:
        g = _canon(f.sub, not neg, env, depth, memo)
        return f if not neg and type(g) is Not and g.sub is f.sub else g
    if kind is Atom:
        args = tuple(_canon_term(a, env) for a in f.args) if env else f.args
        g = f if args == f.args else Atom(f.pred, args)
    elif kind is Bool:
        return (FALSE if f.value else TRUE) if neg else f
    elif kind is Eq:
        left = _canon_term(f.left, env)
        right = _canon_term(f.right, env)
        if left == right:
            g = TRUE
        elif isinstance(left, Obj) and isinstance(right, Obj):
            g = FALSE  # distinct names denote distinct objects
        else:
            if term_key(right) < term_key(left):
                left, right = right, left
            g = f if (left, right) == (f.left, f.right) else Eq(left, right)
    else:
        if not neg and depth == 0 and f.__dict__.get("_normed", False):
            return f
        key = (id(f), neg, depth, tuple(map(env.get, free_vars(f))) if env else ())
        got = memo.get(key)
        if got is None:
            got = memo[key] = (f, _canon_compound(f, neg, env, depth, memo))
        return got[1]
    if not neg:
        return g
    return (FALSE if g.value else TRUE) if isinstance(g, Bool) else Not(g)


def _canon_compound(f: Formula, neg: bool, env: Mapping[str, str], depth: int, memo: dict) -> Formula:
    """`_canon` of a junction or quantifier, worked out."""
    if isinstance(f, (Exists, Forall)):
        body_vars = free_vars(f.body)
        if f.var not in body_vars:
            return _canon(f.body, neg, env, depth, memo)
        fresh = f"v{depth + 1}"
        avoid = {env.get(n, n) for n in body_vars if n != f.var}
        while fresh in avoid:
            fresh += "_"
        body = _canon(f.body, neg, {**env, f.var: fresh}, depth + 1, memo)
        if isinstance(body, Bool):
            return body
        if fresh not in free_vars(body):
            # the variable went with the simplified body: bind the rest one level up
            return _canon(body, False, {}, depth, memo)
        if not neg and fresh == f.var and body is f.body:
            return f
        return (Exists if isinstance(f, Exists) != neg else Forall)(fresh, f.vtype, body)
    if isinstance(f, (And, Or)):
        cls = (Or if isinstance(f, And) else And) if neg else type(f)
        pairs = zip(f.parts, itertools.repeat(neg))
    else:
        raise TypeError(f"not a formula: {f!r}")
    identity, absorber = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
    flat: list[Formula] = []
    seen = set()
    for part, part_neg in pairs:
        p = _canon(part, part_neg, env, depth, memo)
        # a nested junction of this class is canonical already: its parts join as they are
        for q in p.parts if isinstance(p, cls) else (p,):
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
    if len(flat) < 2:
        return flat[0] if flat else identity
    if not neg and isinstance(f, cls) and len(flat) == len(f.parts) and all(map(is_, flat, f.parts)):
        return f
    return cls(tuple(flat))


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


@dataclass(frozen=True)
class GroundState:
    """A closed-world relational state: the set of atoms that hold."""

    atoms: frozenset
    universe: Universe


def make_state(atoms: Iterable[tuple], universe: Universe) -> GroundState:
    return GroundState(frozenset(tuple(a) for a in atoms), universe)


def eval_in_state(f: Formula, state: GroundState, binding: Optional[Mapping[str, str]] = None) -> bool:
    """Closed-world truth of f in a ground state under a variable binding.

    For one-off use: the bound variables become objects and f compiles into
    a `compile_query` plan run once on a fresh `StateIndex`.  A free
    variable outside the binding, or an action term, raises when f compiles.
    """
    from .query import StateIndex, compile_query  # query imports this module

    g = substitute(f, {v: Obj(o) for v, o in (binding or {}).items()})
    return bool(compile_query(g)(StateIndex(state)))


def satisfying_bindings(
    f: Formula, state: GroundState, variables: Sequence[tuple[str, Optional[str]]]
) -> list[dict]:
    """All bindings of `variables` satisfying f, in lexicographic object order; for one-off use."""
    from .query import StateIndex, compile_query

    names = [name for name, _ in variables]
    return [dict(zip(names, combo)) for combo in compile_query(f, variables)(StateIndex(state))]


# ---------------------------------------------------------------------------
# type inference for variables and objects


def survey(f: Formula, signature: Mapping[str, Sequence]) -> tuple:
    """What a check needs of f before grounding, in one walk: (types, objects, binders, nonmono).

    `types` maps free variables and objects to the type of the first atom
    position that gives them one (a name bound there is skipped), in the
    order met.  `objects` holds the named objects.  `binders` holds the types
    of f's quantifiers and of the ∃ that `implicit_close(f, types)` adds.
    `nonmono` holds the types that may not be monotone in f, by Claessen &
    Lillieström's first calculus: an extra object that copies an existing
    one satisfies whatever the original did, except a positive equality
    with a universally quantified variable (a ∀, or an ∃ under negation).
    An untyped one adds None, which stands for every type.  The walk skips
    a subformula met again under the same scope and polarity: it adds nothing.
    """
    acc = ({}, set(), set(), set())
    _survey(f, {}, True, signature, acc, {})
    acc[2].update(acc[0].get(v) for v in free_vars(f))
    return acc


def _survey(f: Formula, scope: dict, positive: bool, signature: Mapping[str, Sequence], acc: tuple, seen: dict):
    """Add f to `survey`'s results; scope maps each bound name to (universally bound?, type).

    `seen` maps the ids of each (subformula, scope, polarity) met to the scope, which it keeps alive.
    """
    subs = ()
    if isinstance(f, (And, Or)):
        subs = [(p, scope, positive) for p in f.parts]
    elif isinstance(f, Atom):
        for t in f.args:
            acc[1].update(term_names(t, Obj))
        for t, vtype in zip(f.args, signature.get(f.pred, ())):
            if vtype is not None and isinstance(t, (Var, Obj)) and t.name not in scope:
                acc[0].setdefault(t.name, vtype)
    elif isinstance(f, Eq):
        for t in (f.left, f.right):
            acc[1].update(term_names(t, Obj))
            if positive and isinstance(t, Var) and scope.get(t.name, (False,))[0]:
                acc[3].add(scope[t.name][1])
    elif isinstance(f, Not):
        subs = [(f.sub, scope, not positive)]
    elif isinstance(f, (Exists, Forall)):
        acc[2].add(f.vtype)
        subs = [(f.body, {**scope, f.var: (isinstance(f, Forall) == positive, f.vtype)}, positive)]
    for g, inner, pos in subs:
        key = (id(g), id(inner), pos)
        if key not in seen:
            seen[key] = inner
            _survey(g, inner, pos, signature, acc, seen)


def infer_types(f: Formula, signature: Mapping[str, Sequence]) -> dict:
    """Best-effort types for free variables and objects from atom positions; see `survey`."""
    return survey(f, signature)[0]


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
    """Object budget per type and work budget for one check.

    A formula is consistent at the bound when some model has at most
    `objects_per_type` objects of each type (more if its named objects need
    them).  The work budget counts ground expansions actually performed (a
    subformula met again under the same values of its free variables is a
    free memo hit, and inside a checker session so is a quantifier expanded
    by an earlier check over the same pools) plus search steps, across every
    size the check grounds, so a verdict never depends on load.
    """

    objects_per_type: int = 3
    work_budget: int = 5_000_000

    def __post_init__(self):
        if self.objects_per_type < 1:
            raise ValueError("objects_per_type must be positive")
        if self.work_budget < 0:
            raise ValueError("work_budget must not be negative")


class _BudgetExhausted(Exception):
    pass


@dataclass
class CheckerStats:
    """Plain counts of a checker's work since it was made."""

    checks: int = 0  # calls to `check`
    cache_hits: int = 0  # verdicts read from the cache
    lifted_attempts: int = 0  # lifted passes run
    lifted: int = 0  # verdicts the lifted pass decided
    groundings: int = 0  # domain size combinations grounded
    skipped: int = 0  # size combinations left ungrounded because their types are monotone
    work: int = 0  # budget units: ground expansions performed (a memo hit, also across a session, is free) plus search steps
    exhausted: int = 0  # checks that ran out of budget
    atoms: int = 0  # BDD atoms canonicalised: misses of the atom table, by any BDD pass through this checker
    reused: int = 0  # quantifier expansions read from the memo instead of being performed


class ConsistencyChecker:
    """Satisfiability of state formulas over bounded typed domains.

    A formula is grounded over pools of up to `objects_per_type` objects per
    type (named objects claim pool slots first), free variables are read
    existentially, and the propositional expansion is searched for a model.
    Distinct object names always denote distinct objects.  A type in which
    every model can gain an object (a monotone type) is not grounded at
    every size combination; see `_sat`.  Results are cached per canonical formula.
    The checks of one `session()` share their ground work (`_GroundStore`).
    """

    def __init__(
        self,
        bound: Optional[ConsistencyBound] = None,
        signature: Optional[Mapping[str, Sequence]] = None,
    ):
        self.bound = bound or ConsistencyBound()
        self.signature = dict(signature or {})
        self.stats = CheckerStats()
        self._cache: dict = {}
        self._atom_keys: dict = {}  # the BDD passes' tables; see `_BddSimplifier`
        self._duals: dict = {}
        self._store: Optional[_GroundStore] = None  # the open session's, if any

    @contextmanager
    def session(self):
        """Share one `_GroundStore` across the checks inside; re-entrant, and the outermost exit drops it."""
        outer = self._store
        self._store = outer or _GroundStore(self.stats)
        try:
            yield
        finally:
            self._store = outer

    # -- public verdicts ----------------------------------------------------

    def check(self, f: Formula) -> Optional[bool]:
        """True/False when decided within budget, None when the budget is exhausted."""
        self.stats.checks += 1
        g = normalize(f)
        if isinstance(g, Bool):
            return g.value
        key = g
        if key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]
        left = [self.bound.work_budget]  # budget units not yet spent
        try:
            result = self._sat(g, left)
        except _BudgetExhausted:
            self.stats.exhausted += 1
            return None
        finally:
            self.stats.work += self.bound.work_budget - left[0]
        self._cache[key] = result
        return result

    def is_consistent(self, f: Formula) -> bool:
        """Satisfiable at the bound; a check that exhausts its budget counts as consistent."""
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

    def _sat(self, f: Formula, left: list) -> bool:
        """Model of the NNF formula f with at most `objects_per_type` objects per type?

        Named objects claim pool slots and force a minimum size.  The smallest
        size combination goes first, so satisfiable formulas exit on the
        cheapest grounding; if it has no model and the full product has more
        than three combinations, the lifted pass may settle the verdict.  A
        model grows into one with more objects of a monotone type (Claessen &
        Lillieström, "Sort It Out with Monotonicity", CADE 2011), so the rest
        grounds only the non-monotone types' sizes, each with every monotone
        type at its largest; cheaper probes with the monotone types one object
        larger at a time go first.  The verdict is the one that every
        combination gives; `stats.skipped` counts the combinations left out.
        The closed formula compiles once into a grounding plan that every
        combination runs (`_ground_plan`), through the session's store or,
        outside a session, one made for this check.
        """
        types, objects, binders, nonmono = survey(f, self.signature)
        closed = implicit_close(f, types)
        consts: dict = {}
        for name in sorted(objects):
            consts.setdefault(types.get(name), []).append(name)
        typed = sorted(t for t in set(consts) | binders if t is not None)
        loop_types = typed if typed else [None]
        ranges = []
        for t in loop_types:
            lo = max(1, len(consts.get(t, [])))
            ranges.append(range(lo, max(self.bound.objects_per_type, lo) + 1))
        mono = [None not in nonmono and t not in nonmono for t in loop_types]
        # smallest first, then probes with the monotone types grown together, then
        # every size of the non-monotone types with the monotone ones at their largest
        plan = [
            tuple(min(r[0] + j, r[-1]) if m else r[0] for r, m in zip(ranges, mono))
            for j in range(max(map(len, ranges)) - 1)
        ]
        plan += itertools.product(*[r[-1:] if m else r for r, m in zip(ranges, mono)])
        plan = list(dict.fromkeys(plan))
        full = math.prod(map(len, ranges))
        store = self._store or _GroundStore(self.stats)
        ground = _ground_plan(closed, store.ids)
        for step, sizes in enumerate(plan):
            if step == 1:
                # one or two remaining groundings cost less than a lifted pass
                if full > 3:
                    self.stats.lifted_attempts += 1
                    verdict = self._lifted(f, types)
                    if verdict is not None:
                        self.stats.lifted += 1
                        return verdict
                self.stats.skipped += full - len(plan)
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
            root = ground(pools, store, left)
            if root == _G_TRUE:
                return True
            if root == _G_FALSE:
                continue
            made = len(store.dag.kind)
            try:
                found = _ground_sat(store.dag, root, left, store.sat)
            finally:
                store.drop_since(made)
            if found:
                return True
        return False

    def _lifted(self, f: Formula, types: Mapping[str, Optional[str]]) -> Optional[bool]:
        """Verdict from the BDD over f's opaque atoms, or None when it is not constant.

        f stays open: its free variables are atoms' arguments, and a BDD
        constant is the verdict for every value they take.  The one-point
        rule uses the same `types` that close and pool f for grounding.
        """
        g = normalize(push_quantifiers(f, types))
        return _BddSimplifier(self).decide(g)


_G_TRUE = 0
_G_FALSE = 1


class _GroundStore:
    """The ground work that the checks of one checker session share.

    Subformula ids agree across checks.  A quantifier's expansion depends on
    the quantifier ranges as well as on its free variables' values, so
    `expanded` is keyed by the pool set first.  The cheap memo of the other
    subformulas stays per grounding, and the nodes a search makes go when it
    ends: kept, they would hold most of a long solve's memory.
    """

    def __init__(self, stats: CheckerStats):
        self.stats = stats  # the checker's counts
        self.ids: dict = {}  # formula -> uid
        self.dag = _GroundDag()
        self.expanded: dict = {}  # pool set -> (uid, free variables' values) -> node
        self.sat: dict = {}  # node -> satisfiable

    def drop_since(self, n: int):
        """Forget the DAG nodes from id n on, which a search made, and what is known of them."""
        dag = self.dag
        for nid in range(n, len(dag.kind)):
            del dag.intern[(dag.kind[nid], dag.data[nid])]
            self.sat.pop(nid, None)
        del dag.kind[n:], dag.data[n:], dag.watch[n:]
        dag.cond_memo.clear()


class _GroundDag:
    """Hash-consed propositional graph for grounded formulas.

    Nodes fold constants, flatten and deduplicate junctions, and cancel
    complementary literal pairs on construction, so satisfiability search
    only ever branches on atoms that still matter.  A node is a formula over
    ground atoms named by objects, so one DAG and its satisfiability memo
    serve a whole session.  Ids grow as nodes are made, so the nodes a
    search made are the last ones, and dropping them is a truncation.
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


def _spend(left: list):
    """Take one unit from a check's work budget."""
    if not left[0]:
        raise _BudgetExhausted()
    left[0] -= 1


def _slot(t: Term, scope: Mapping[str, int], fixed: dict, init: list) -> int:
    """Environment slot of t; each named object gets one slot, filled in `init`."""
    if isinstance(t, Var):
        if t.name not in scope:
            raise UnboundVariableError(f"variable {t.name} is not bound")
        return scope[t.name]
    if isinstance(t, ActTerm):
        raise LogicError(f"action term {t.name} in a state formula")
    if t.name not in fixed:
        fixed[t.name] = len(init)
        init.append(t.name)
    return fixed[t.name]


def _gather(slots: Sequence[int]) -> Callable:
    """env -> tuple of the values in `slots`."""
    if len(slots) == 1:
        (i,) = slots
        return lambda env: (env[i],)
    return itemgetter(*slots) if slots else lambda env: ()


def _ground_plan(f: Formula, ids: dict) -> Callable:
    """Closed f compiled into `(pools, store, left) -> root node`, one call per grounding.

    The `compile_query` idiom over the ground DAG: each subformula becomes a
    closure over environment slots for its variables and named objects, and
    structurally equal subformulas share one id.  A subformula compiles when
    a grounding first reaches it, so a branch that is never reached costs
    nothing.  `ids` is the store's.  Within one grounding each (id, values of
    the subformula's free variables) is expanded once and spends one budget
    unit; a repeat reads the memo for free, and a quantifier's memo is the
    store's for the pools, which later groundings over them also read.  The
    tree walk this replaced made no node on a repeat either, so with a fresh
    store the DAG is the same, node for node.
    """
    init: list = []  # the environment a grounding starts from; compiling appends slots
    root = _ground_node(f, {}, ({}, ids, init))

    def ground(pools, store, left):
        quantified = store.expanded.setdefault(frozenset(pools.items()), {})
        return root(list(init), (pools, store.dag, left, {}, quantified, store.stats))

    return ground


def _ground_node(f: Formula, scope: Mapping[str, int], ctx: tuple) -> Callable:
    """`(env, run) -> DAG node` for f.

    ctx is the plan's (fixed, ids, init); run is (pools, dag, left, memo, quantifier memo, stats).
    """
    compiled: list = []  # id, key of the free variables' values, expansion: filled when first reached
    quantifier = isinstance(f, (Exists, Forall))
    which = 4 if quantifier else 3  # the memo f's expansions go in

    def memoised(env, run):
        if not compiled:
            fixed, ids, init = ctx
            slots = [_slot(Var(v), scope, fixed, init) for v in sorted(free_vars(f))]
            compiled.extend((ids.setdefault(f, len(ids)), _gather(slots), _ground_expansion(f, scope, ctx)))
            env.extend(init[len(env) :])
        uid, key, expand = compiled
        k = (uid, key(env))
        memo = run[which]
        got = memo.get(k)
        if got is None:
            _spend(run[2])
            got = memo[k] = expand(env, run)
        elif quantifier:
            run[5].reused += 1
        return got

    return memoised


def _ground_expansion(f: Formula, scope: Mapping[str, int], ctx: tuple) -> Callable:
    """`(env, run) -> DAG node` that expands f once, its subformulas through their own memoised nodes."""
    fixed, _, init = ctx
    if isinstance(f, Bool):
        nid = _G_TRUE if f.value else _G_FALSE
        return lambda env, run: nid
    if isinstance(f, Atom):
        init.append(f.pred)  # its own slot, holding the predicate's name
        payload = _gather([len(init) - 1] + [_slot(a, scope, fixed, init) for a in f.args])
        return lambda env, run: run[1].atom(payload(env))
    if isinstance(f, Eq):
        i, j = _slot(f.left, scope, fixed, init), _slot(f.right, scope, fixed, init)
        return lambda env, run: _G_TRUE if env[i] == env[j] else _G_FALSE
    if isinstance(f, Not):
        sub = _ground_node(f.sub, scope, ctx)
        return lambda env, run: run[1].neg(sub(env, run))
    if isinstance(f, (And, Or)):
        parts = [_ground_node(p, scope, ctx) for p in f.parts]
        kind, absorber = ("and", _G_FALSE) if isinstance(f, And) else ("or", _G_TRUE)

        def junction(env, run):
            out = []
            for p in parts:
                g = p(env, run)
                if g == absorber:
                    return absorber
                out.append(g)
            return run[1].junction(kind, out)

        return junction
    if isinstance(f, (Exists, Forall)):
        s, vtype = len(init), f.vtype
        init.append(None)
        body = _ground_node(f.body, {**scope, f.var: s}, ctx)
        kind, absorber = ("or", _G_TRUE) if isinstance(f, Exists) else ("and", _G_FALSE)

        def quantifier(env, run):
            pool = run[0].get(vtype)
            out = []
            for o in run[0][None] if pool is None else pool:
                env[s] = o
                g = body(env, run)
                if g == absorber:
                    return absorber
                out.append(g)
            return run[1].junction(kind, out)

        return quantifier
    raise TypeError(f"not a formula: {f!r}")


def _ground_sat(dag: _GroundDag, nid: int, left: list, memo: dict) -> bool:
    """DPLL-style search: propagate unit literals, branch on a live atom.

    Unit propagation and branching both preserve satisfiability, so every
    node passed through on the way to a verdict shares it; the memo turns
    the exponential branch tree into a walk over distinct folded nodes.  A
    node means the same in every check, so a session keeps the memo; a
    search cut short by the budget records nothing.
    """
    chain: list = []
    result = None
    while True:
        _spend(left)
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
        if _ground_sat(dag, dag.condition(nid, aid, True), left, memo):
            result = True
            break
        nid = dag.condition(nid, aid, False)
    for c in chain:
        memo[c] = result
    return result


# ---------------------------------------------------------------------------
# quantifier placement and one-point simplification


def push_quantifiers(f: Formula, types: Optional[Mapping[str, Optional[str]]] = None) -> Formula:
    """Move quantifiers inward and apply the one-point rule; expects NNF.

    Without `types` the one-point rule ignores quantifier types, which is
    sound over untyped domains only.  With `types` (the free variables' and
    objects' types, as `survey` gives them) binder types are tracked on
    the way down, and `∃x:T. x = t ∧ φ` (or its ∀ dual) is rewritten only
    when T is None or t has type T: a term of type None lives in the
    untyped pool only.  Subformulas where nothing moves come back as the
    same objects, so renormalising an unchanged canonical input is free.
    Each distinct subformula is pushed once per binder types for the call.
    """
    return _push(f, types, {})


def _push(f: Formula, types: Optional[Mapping], memo: dict) -> Formula:
    """`push_quantifiers`; memo maps (id of a node, id of its types) to (node, types, result)."""
    if isinstance(f, (Bool, Atom, Eq)):
        return f
    got = memo.get((id(f), id(types)))
    if got is not None:
        return got[2]
    if isinstance(f, Not):
        sub = _push(f.sub, types, memo)
        g = f if sub is f.sub else Not(sub)
    elif isinstance(f, (And, Or)):
        parts = tuple(_push(p, types, memo) for p in f.parts)
        if len(parts) > 1 and all(map(is_, parts, f.parts)):
            g = f
        else:
            g = conj(parts) if isinstance(f, And) else disj(parts)
    elif isinstance(f, (Exists, Forall)):
        inner = None if types is None else {**types, f.var: f.vtype}
        body = _push(f.body, inner, memo)
        push = _push_exists if isinstance(f, Exists) else _push_forall
        g = push(f.var, f.vtype, body, types, memo)
        if body is f.body and g == f:
            g = f
    else:
        raise TypeError(f"unexpected node (normalize first): {f!r}")
    memo[(id(f), id(types))] = (f, types, g)
    return g


def _one_point_target(part: Formula, var: str, vtype: Optional[str], types: Optional[Mapping]) -> Optional[Term]:
    if not isinstance(part, Eq):
        return None
    l, r = part.left, part.right
    if isinstance(l, Var) and l.name == var and var not in term_names(r, Var):
        t = r
    elif isinstance(r, Var) and r.name == var and var not in term_names(l, Var):
        t = l
    else:
        return None
    if types is None or vtype is None:
        return t
    return t if isinstance(t, (Var, Obj)) and types.get(t.name) == vtype else None


def _push_exists(var: str, vtype: Optional[str], body: Formula, types: Optional[Mapping], memo: dict) -> Formula:
    if var not in free_vars(body):
        return body
    if isinstance(body, Or):
        return disj(_push_exists(var, vtype, p, types, memo) for p in body.parts)
    if isinstance(body, Eq) and _one_point_target(body, var, vtype, types) is not None:
        return TRUE  # pools are never empty, so a witness always exists
    if isinstance(body, And):
        dep, indep = [], []
        for p in body.parts:
            (dep if var in free_vars(p) else indep).append(p)
        for i, p in enumerate(dep):
            t = _one_point_target(p, var, vtype, types)
            if t is not None:
                rest = [substitute(q, {var: t}) for j, q in enumerate(dep) if j != i]
                return _push(conj(indep + rest), types, memo)
        if indep:
            return conj(indep + [Exists(var, vtype, conj(dep))])
    return Exists(var, vtype, body)


def _push_forall(var: str, vtype: Optional[str], body: Formula, types: Optional[Mapping], memo: dict) -> Formula:
    if var not in free_vars(body):
        return body
    if isinstance(body, And):
        return conj(_push_forall(var, vtype, p, types, memo) for p in body.parts)
    if isinstance(body, Or):
        dep, indep = [], []
        for p in body.parts:
            (dep if var in free_vars(p) else indep).append(p)
        for i, p in enumerate(dep):
            if isinstance(p, Not):
                t = _one_point_target(p.sub, var, vtype, types)
                if t is not None:
                    rest = [substitute(q, {var: t}) for j, q in enumerate(dep) if j != i]
                    return _push(disj(indep + rest), types, memo)
        if indep:
            return disj(indep + [Forall(var, vtype, disj(dep))])
    return Forall(var, vtype, body)


# ---------------------------------------------------------------------------
# BDD reduction of the propositional superstructure

BDD_MAX_ATOMS = 40  # opaque atoms in one BDD; past it the input is left as it is


class _Bdd:
    """Reduced ordered BDD with hash-consing; variable i stands for `atoms[i]` (`index` maps back).

    `built` maps the id of each formula built to (formula, node), `read` each node read back to (formula, tree size).
    """

    FALSE = 0
    TRUE = 1

    def __init__(self):
        self.var: list = [None, None]
        self.lo: list = [None, None]
        self.hi: list = [None, None]
        self.unique: dict = {}
        self.memo: dict = {}
        self.atoms: list = []
        self.index: dict = {}
        self.built: dict = {}
        self.read: dict = {}

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
        zero = 0 if op == "and" else 1  # absorbs; 1 - zero is the identity
        if u == zero or v == zero:
            return zero
        if u == 1 - zero:
            return v
        if v == 1 - zero:
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
    """The BDD passes over a checker's canonical-atom and dual tables, which live as long as it.

    Keyed by formula, the tables hold each opaque subformula's BDD atom and
    each atom's negation dual, so an atom that repeats, recurs at a nested
    quantifier level, or recurs in a later region or a later call through
    the same checker, is canonicalised once.  A simplifier lives for one
    `simplify_bdd`, `disjoint_regions` or lifted-pass call; it maps each
    distinct subformula's quantifier bodies once (`mapped`), and each `_Bdd`
    builds each distinct subformula once.
    """

    tree_limit = 10_000  # read-back tree nodes; tier-1 tests reach 4,224, cold solves 117

    def __init__(self, checker: ConsistencyChecker):
        self.keys, self.duals, self.stats = checker._atom_keys, checker._duals, checker.stats
        self.mapped: dict = {}  # id of a formula -> (formula, `map_quantified` of it)
        self.pushed: dict = {}  # the untyped `push_quantifiers` memo of `prepare`

    def atom_key(self, f: Formula) -> tuple[Formula, bool]:
        """Canonical polarity for an opaque subformula.

        A quantified subformula and its negation-normal dual (¬∃ vs ∀¬) must
        map to the same BDD variable, so the smaller of the two canonical
        forms is the shared atom and the flag records whether f is its
        negation.
        """
        got = self.keys.get(f)
        if got is None:
            self.stats.atoms += 1
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

    def prepare(self, f: Formula) -> Formula:
        """f canonical, with quantifiers pushed inward and every quantifier body reduced."""
        return self.map_quantified(normalize(_push(normalize(f), None, self.pushed)))

    def reduce(self, f: Formula) -> Optional[Formula]:
        """f, whose quantifier bodies are reduced, read back from its BDD; None past the limits."""
        bdd = _Bdd()
        try:
            return self.read_back(self.build(f, bdd), bdd)[0]
        except _AtomLimit:
            return None

    def decide(self, f: Formula) -> Optional[bool]:
        """Read only the root of f's BDD: True/False if it is a constant, else None."""
        try:
            root = self.build(self.map_quantified(f), _Bdd())
        except _AtomLimit:
            return None
        return None if root > _Bdd.TRUE else root == _Bdd.TRUE

    def build(self, f: Formula, bdd: _Bdd) -> int:
        """BDD of f; atoms get variables in first-use order as they are met."""
        got = bdd.built.get(id(f))
        if got is None:
            got = bdd.built[id(f)] = (f, self._build(f, bdd))
        return got[1]

    def _build(self, f: Formula, bdd: _Bdd) -> int:
        if isinstance(f, Bool):
            return _Bdd.TRUE if f.value else _Bdd.FALSE
        if isinstance(f, Not):
            return bdd.neg(self.build(f.sub, bdd))
        if isinstance(f, (And, Or)):
            op = "and" if isinstance(f, And) else "or"
            out = _Bdd.TRUE if op == "and" else _Bdd.FALSE
            for p in f.parts:
                out = bdd.apply(op, out, self.build(p, bdd))
            return out
        key, negated = self.atom_key(f)
        var = bdd.index.get(key)
        if var is None:
            if len(bdd.atoms) == BDD_MAX_ATOMS:
                raise _AtomLimit()
            var = bdd.index[key] = len(bdd.atoms)
            bdd.atoms.append(key)
        node = bdd.mk(var, _Bdd.FALSE, _Bdd.TRUE)
        return bdd.neg(node) if negated else node

    def read_back(self, node: int, bdd: _Bdd) -> tuple[Formula, int]:
        """The node as a formula and its size as a tree, which later passes walk; past `tree_limit`, give up."""
        if node <= _Bdd.TRUE:
            return (TRUE if node == _Bdd.TRUE else FALSE), 0
        if node in bdd.read:
            return bdd.read[node]
        atom = bdd.atoms[bdd.var[node]]
        lo, lo_size = self.read_back(bdd.lo[node], bdd)
        hi, hi_size = self.read_back(bdd.hi[node], bdd)
        size = 1 + lo_size + hi_size
        if size > self.tree_limit:
            raise _AtomLimit()
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
        bdd.read[node] = out, size
        return bdd.read[node]

    def map_quantified(self, f: Formula) -> Formula:
        """f with every quantifier body reduced through its own BDD."""
        if not isinstance(f, (Exists, Forall, Not, And, Or)):
            return f
        got = self.mapped.get(id(f))
        if got is None:
            got = self.mapped[id(f)] = (f, self._map_quantified(f))
        return got[1]

    def _map_quantified(self, f: Formula) -> Formula:
        if isinstance(f, (Exists, Forall)):
            inner = self.reduce(self.map_quantified(f.body))
            body = f.body if inner is None else inner
            if isinstance(body, Bool) or f.var not in free_vars(body):
                return body
            return type(f)(f.var, f.vtype, body)
        if isinstance(f, Not):
            return Not(self.map_quantified(f.sub))
        if isinstance(f, And):
            return conj(self.map_quantified(p) for p in f.parts)
        return disj(self.map_quantified(p) for p in f.parts)


def simplify_bdd(f: Formula, checker: ConsistencyChecker) -> Formula:
    """Boolean simplification that treats quantified subformulas as atoms.

    Quantifiers are first pushed inward (with one-point elimination of
    equalities), then the connective superstructure over the remaining
    maximal quantified/atomic subformulas is reduced through a BDD and read
    back.  The result is equivalent to the input over every untyped domain.
    This path calls `push_quantifiers` without types, so over typed domains
    the result can be weaker (∃x:Box. ∃y:City. x = y becomes true); the
    consistency checker's lifted pass is the typed path.  When the atom
    count exceeds `BDD_MAX_ATOMS`, or the read-back unfolds into more than
    `_BddSimplifier.tree_limit` nodes, the input is returned unchanged.
    Atoms are canonicalised through `checker`'s tables, so a call repeats
    none of the work of earlier calls through that checker; the result does
    not depend on what those tables already hold.
    """
    s = _BddSimplifier(checker)
    g = s.reduce(s.prepare(f))
    return f if g is None else normalize(g)


def disjoint_regions(formulas: Sequence[Formula], checker: ConsistencyChecker) -> list:
    """Each φ_i ∧ ¬φ_1 ∧ … ∧ ¬φ_{i-1}, unnormalised, over one BDD and a running cover.

    Each φ_i is prepared as in `simplify_bdd` and compiled once; an empty region
    is FALSE.  Past `BDD_MAX_ATOMS` or `_BddSimplifier.tree_limit` a region is
    the conjunction itself, which is what `simplify_bdd` returns for it.  As
    there, atoms are canonicalised through `checker`'s tables.
    """
    s, bdd = _BddSimplifier(checker), _Bdd()
    covered, out = _Bdd.FALSE, []  # covered is None once the atoms run out
    for i, f in enumerate(formulas):
        try:
            if covered is None:
                raise _AtomLimit()
            cover, covered = covered, None
            node = s.build(s.prepare(f), bdd)
            covered = bdd.apply("or", cover, node)
            out.append(s.read_back(bdd.apply("and", node, bdd.neg(cover)), bdd)[0])
        except _AtomLimit:
            out.append(And((f,) + tuple(Not(g) for g in formulas[:i])) if i else f)
    return out
