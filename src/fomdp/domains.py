"""Domain and instance file parsing.

A domain file declares types, predicates (with `[static]` markers),
successor-state axioms, stochastic actions with their outcome probability
cases, rewards, and the discount.  An instance file supplies object pools,
the initial state, and ground goal bindings for a universal reward.  The
loaders produce the immutable model structures; all formula text is parsed
with the shared grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .cases import CaseError, build_case, parse_partitions
from .logic import (
    ConsistencyBound,
    ConsistencyChecker,
    GroundState,
    LogicError,
    Universe,
    make_state,
    normalize,
    parse_formula,
)
from .model import (
    ActionTemplate,
    FOMDPModel,
    ModelError,
    NatureChoice,
    PredicateDecl,
    UniversalReward,
    materialize_universal,
)
from .sitcalc import SuccessorStateAxiom


class DomainSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


_IDENT = r"[A-Za-z][A-Za-z0-9_]*"


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if line:
            yield no, line


def _split_typed_params(text: str, line: int) -> tuple:
    """`b: Box, c: City` -> ((b, Box), (c, City)); bare names get type None."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        m = re.fullmatch(rf"({_IDENT})(?:\s*:\s*({_IDENT}))?", piece)
        if not m:
            raise DomainSyntaxError(f"bad parameter {piece!r}", line)
        out.append((m.group(1), m.group(2)))
    return tuple(out)


def parse_domain(text: str, bound: Optional[ConsistencyBound] = None) -> FOMDPModel:
    name = None
    types: tuple = ()
    predicates: dict = {}
    ssas: dict = {}
    actions: dict = {}
    rewards: dict = {}
    discount = None
    ureward = None
    mode = None  # "predicates" while consuming the predicate block
    current_action = None

    def signature():
        return {p.name: p.arg_types for p in predicates.values()}

    for no, line in _lines(text):
        m = re.match(rf"domain\s+({_IDENT})$", line)
        if m:
            name = m.group(1)
            mode = None
            continue
        m = re.match(r"types:\s*(.*)$", line)
        if m:
            types = tuple(t.strip() for t in m.group(1).split(",") if t.strip())
            mode = None
            continue
        if re.fullmatch(r"predicates:", line):
            mode = "predicates"
            continue
        m = re.match(rf"ssa\s+({_IDENT})\s*\(([^)]*)\)\s*<=>\s*(.+)$", line)
        if m:
            mode = None
            fname, params_text, body_text = m.groups()
            params = tuple(p.strip() for p in params_text.split(",") if p.strip())
            if fname in ssas:
                raise DomainSyntaxError(f"duplicate axiom for {fname}", no)
            ssas[fname] = (params, body_text, no)
            continue
        m = re.match(rf"action\s+({_IDENT})\s*\(([^)]*)\)$", line)
        if m:
            mode = None
            aname, params_text = m.groups()
            if aname in actions:
                raise DomainSyntaxError(f"duplicate action {aname}", no)
            current_action = (aname, _split_typed_params(params_text, no), [])
            actions[aname] = current_action
            continue
        m = re.match(rf"choice\s+({_IDENT})\s+prob\s+(\{{.*\}})$", line)
        if m:
            if current_action is None:
                raise DomainSyntaxError("choice outside an action block", no)
            current_action[2].append((*m.groups(), no))
            continue
        m = re.match(rf"reward\s+({_IDENT})\s+(\{{.*\}})$", line)
        if m:
            mode = None
            key, case_text = m.groups()
            if key in rewards:
                raise DomainSyntaxError(f"duplicate reward for {key}", no)
            rewards[key] = (case_text, no)
            continue
        m = re.match(r"ureward\s+forall\s+(.+)$", line)
        if m:
            mode = None
            pieces = [p.strip() for p in m.group(1).split(";")]
            if len(pieces) != 4:
                raise DomainSyntaxError(
                    "ureward needs 'forall vars ; goal ; noop v ; act v'", no
                )
            uvars = _split_typed_params(pieces[0], no)
            mn = re.fullmatch(r"noop\s+([-+0-9.eE]+)", pieces[2])
            ma = re.fullmatch(r"act\s+([-+0-9.eE]+)", pieces[3])
            if not (mn and ma):
                raise DomainSyntaxError("ureward values must be 'noop v ; act v'", no)
            if ureward is not None:
                raise DomainSyntaxError("duplicate ureward", no)
            ureward = (uvars, pieces[1], float(mn.group(1)), float(ma.group(1)), no)
            continue
        m = re.match(r"discount\s+([-+0-9.eE]+)$", line)
        if m:
            mode = None
            discount = float(m.group(1))
            continue
        if mode == "predicates":
            m = re.fullmatch(rf"({_IDENT})\s*(?:\(([^)]*)\))?\s*(\[static\])?", line)
            if not m:
                raise DomainSyntaxError(f"bad predicate declaration {line!r}", no)
            pname, args_text, static = m.groups()
            arg_types = tuple(t.strip() for t in (args_text or "").split(",") if t.strip())
            if pname in predicates:
                raise DomainSyntaxError(f"duplicate predicate {pname}", no)
            predicates[pname] = PredicateDecl(pname, arg_types, static is not None)
            continue
        raise DomainSyntaxError(f"unrecognized line {line!r}", no)

    if name is None:
        raise DomainSyntaxError("missing 'domain <name>' header", 1)
    if discount is None:
        raise DomainSyntaxError("missing 'discount' declaration", 1)
    if ureward is not None and rewards:
        raise DomainSyntaxError("a domain declares either ureward or reward cases, not both", 1)

    # formulas are parsed (and case literals pruned) only now, against the
    # complete signature and every outcome name
    bound = bound or ConsistencyBound()
    checker = ConsistencyChecker(bound, signature())
    sig = signature() or None
    act_names = [cname for _, _, choices in actions.values() for cname, _, _ in choices]

    def parsed(text: str, no: int, directive: str, case: bool = False):
        """A formula or case literal; its error keeps its type and names the line and directive."""
        try:
            if case:
                return build_case(parse_partitions(text, (), act_names, sig), checker, True)
            return parse_formula(text, (), act_names, sig)
        except (LogicError, CaseError) as err:
            err.args = (f"domain line {no} ({directive}): {err}",)
            raise

    ssas = {
        fname: SuccessorStateAxiom(fname, params, parsed(body_text, no, f"ssa {fname}"))
        for fname, (params, body_text, no) in ssas.items()
    }
    if ureward is not None:
        uvars, goal_text, noop_v, act_v, no = ureward
        ureward = UniversalReward(uvars, normalize(parsed(goal_text, no, "ureward")), noop_v, act_v)
        rewards = materialize_universal(ureward, ureward.closed(), checker)
    else:
        rewards = {key: parsed(text, no, f"reward {key}", True) for key, (text, no) in rewards.items()}
    templates = {}
    for aname, (aname2, params, choices) in actions.items():
        outcomes = tuple(NatureChoice(cname, parsed(text, no, f"choice {cname}", True)) for cname, text, no in choices)
        templates[aname] = ActionTemplate(aname, params, outcomes)
    model = FOMDPModel(
        name=name,
        types=types,
        predicates=predicates,
        actions=templates,
        ssas=ssas,
        rewards=rewards,
        discount=discount,
        universal_reward=ureward,
        bound=bound,
        checker=checker,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class FOMDPInstance:
    name: str
    objects: tuple  # ((type, (obj, ...)), ...)
    init_atoms: frozenset
    goal_bindings: tuple  # tuples of object names binding the ureward variables

    def universe(self) -> Universe:
        return Universe.of({t: objs for t, objs in self.objects})

    def init_state(self) -> GroundState:
        return make_state(self.init_atoms, self.universe())


def _split_top_level(text: str, sep: str = ",") -> list:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return [s.strip() for s in out if s.strip()]


def _parse_braced(text: str, line: int) -> list:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise DomainSyntaxError(f"expected braced list, got {text!r}", line)
    return _split_top_level(text[1:-1])


def parse_instance(text: str) -> FOMDPInstance:
    name = None
    objects: dict = {}
    init_atoms: set = set()
    goals: list = []
    for no, line in _lines(text):
        m = re.match(rf"instance\s+({_IDENT})$", line)
        if m:
            name = m.group(1)
            continue
        m = re.match(rf"objects:\s*({_IDENT})\s*=\s*(\{{.*\}})$", line)
        if m:
            t, body = m.groups()
            objs = tuple(_parse_braced(body, no))
            for o in objs:
                if not re.fullmatch(_IDENT, o):
                    raise DomainSyntaxError(f"bad object name {o!r}", no)
            if t in objects:
                raise DomainSyntaxError(f"duplicate object pool for type {t}", no)
            objects[t] = objs
            continue
        m = re.match(r"init:\s*(\{.*\})$", line)
        if m:
            for entry in _parse_braced(m.group(1), no):
                am = re.fullmatch(rf"({_IDENT})\s*(?:\(([^)]*)\))?", entry)
                if not am:
                    raise DomainSyntaxError(f"bad init atom {entry!r}", no)
                pname, args_text = am.groups()
                args = tuple(a.strip() for a in (args_text or "").split(",") if a.strip())
                init_atoms.add((pname, *args))
            continue
        m = re.match(r"goal:\s*(\{.*\})$", line)
        if m:
            for entry in _parse_braced(m.group(1), no):
                entry = entry.strip()
                if entry.startswith("(") and entry.endswith(")"):
                    binding = tuple(a.strip() for a in entry[1:-1].split(",") if a.strip())
                else:
                    binding = (entry,)
                goals.append(binding)
            continue
        raise DomainSyntaxError(f"unrecognized line {line!r}", no)
    if name is None:
        raise DomainSyntaxError("missing 'instance <name>' header", 1)
    pools = tuple(sorted(objects.items()))
    return FOMDPInstance(name, pools, frozenset(init_atoms), tuple(goals))


def validate_instance(model: FOMDPModel, inst: FOMDPInstance):
    """Check an instance against its domain's vocabulary."""
    pool_types = {t for t, _ in inst.objects}
    for t in pool_types:
        if model.types and t not in model.types:
            raise ModelError(f"instance declares objects of unknown type {t}")
    uni = inst.universe()
    sig = model.signature()
    for atom in sorted(inst.init_atoms):
        pname, args = atom[0], atom[1:]
        if pname not in sig:
            raise ModelError(f"init atom uses unknown predicate {pname}")
        want = sig[pname]
        if len(want) != len(args):
            raise ModelError(f"init atom {atom} has wrong arity for {pname}")
        for a, t in zip(args, want):
            if a not in uni.pool(t or None):
                raise ModelError(f"init atom {atom}: {a} is not an object of type {t}")
    ur = model.universal_reward
    if inst.goal_bindings:
        if ur is None:
            raise ModelError("instance lists goals but the domain has no universal reward")
        for b in inst.goal_bindings:
            if len(b) != len(ur.variables):
                raise ModelError(f"goal binding {b} arity mismatch")
            for obj, (_, t) in zip(b, ur.variables):
                if obj not in uni.pool(t or None):
                    raise ModelError(f"goal binding {b}: {obj} is not of type {t}")


# ---------------------------------------------------------------------------
# file access


def load_domain(path, bound: Optional[ConsistencyBound] = None) -> FOMDPModel:
    return parse_domain(Path(path).read_text(), bound)


def load_instance(path) -> FOMDPInstance:
    return parse_instance(Path(path).read_text())


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / name


def load_fixture(domain: str, instance: Optional[str] = None, bound=None):
    """Bundled example domains: returns (model, instance or None)."""
    model = load_domain(fixture_path(f"{domain}.domain"), bound)
    inst = None
    if instance is not None:
        inst = load_instance(fixture_path(f"{instance}.instance"))
        validate_instance(model, inst)
    return model, inst
