"""Shared ground-semantics oracles.

Everything here deliberately avoids the symbolic operators under test:
states are enumerated, actions are applied one ground outcome at a time,
and expectations are summed with plain floats.
"""

from itertools import product

from fomdp.cases import eval_case
from fomdp.logic import ActTerm, Obj, make_state
from fomdp.sitcalc import apply_action


def ground_bindings(action, universe):
    """Every tuple of objects instantiating the action's parameters."""
    pools = [universe.pool(t) for _, t in action.params]
    return [tuple(c) for c in product(*pools)]


def ground_choice_actions(model, universe):
    """Every deterministic outcome of every template, instantiated."""
    out = set()
    for name in model.action_names():
        a = model.action(name)
        for combo in ground_bindings(a, universe):
            for ch in a.choices:
                out.add(ActTerm(ch.name, tuple(Obj(o) for o in combo)))
    return sorted(out, key=lambda t: (t.name, tuple(o.name for o in t.args)))


def reachable_states(model, inst):
    """Closure of the instance's initial state under all ground outcomes."""
    sig = model.signature()
    acts = ground_choice_actions(model, inst.universe())
    init = inst.init_state()
    seen, frontier = {init}, [init]
    while frontier:
        s = frontier.pop()
        for ga in acts:
            s2 = apply_action(ga, s, model.ssas, sig)
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
    return sorted(seen, key=lambda st: sorted(st.atoms))


def all_fluent_states(model, inst):
    """Every truth assignment to ground fluent atoms; statics come from init."""
    uni = inst.universe()
    sig = model.signature()
    static = {n for n, p in model.predicates.items() if p.static}
    statics = {a for a in inst.init_atoms if a[0] in static}
    atoms = []
    for f in model.fluent_names():
        pools = [uni.pool(t or None) for t in sig[f]]
        for combo in product(*pools):
            atoms.append((f, *combo))
    states = []
    for bits in product([False, True], repeat=len(atoms)):
        chosen = {a for a, b in zip(atoms, bits) if b}
        states.append(make_state(chosen | statics, uni))
    return states


def ground_q(model, v, action, binding_objs, state):
    """One-step lookahead: R(s, A) + gamma * sum_j P_j(s, x) * v(next_j)."""
    sig = model.signature()
    binding = {n: o for (n, _), o in zip(action.params, binding_objs)}
    total = eval_case(model.reward_for(action.name), state, signature=sig)
    acc = 0.0
    for ch in action.choices:
        p = eval_case(ch.pcase, state, binding, sig)
        if p == 0.0:
            continue
        ga = ActTerm(ch.name, tuple(Obj(o) for o in binding_objs))
        nxt = apply_action(ga, state, model.ssas, sig)
        acc += p * eval_case(v, nxt, signature=sig)
    return total + model.discount * acc


def ground_dict_q(model, values, action, binding_objs, state):
    """ground_q against a state->value dict instead of a case statement."""
    sig = model.signature()
    binding = {n: o for (n, _), o in zip(action.params, binding_objs)}
    total = eval_case(model.reward_for(action.name), state, signature=sig)
    acc = 0.0
    for ch in action.choices:
        p = eval_case(ch.pcase, state, binding, sig)
        if p == 0.0:
            continue
        ga = ActTerm(ch.name, tuple(Obj(o) for o in binding_objs))
        acc += p * values[apply_action(ga, state, model.ssas, sig)]
    return total + model.discount * acc


def ground_value_iteration(model, states, universe, eps=1e-10):
    """Exact optimal values; `states` must be closed under all transitions."""
    sig = model.signature()
    index = {s: i for i, s in enumerate(states)}
    table = []  # per state: (reward, ((prob, successor index), ...)) per ground action
    for s in states:
        entries = []
        for name in model.action_names():
            a = model.action(name)
            r = eval_case(model.reward_for(name), s, signature=sig)
            for combo in ground_bindings(a, universe):
                binding = {n: o for (n, _), o in zip(a.params, combo)}
                outs = []
                for ch in a.choices:
                    p = eval_case(ch.pcase, s, binding, sig)
                    if p == 0.0:
                        continue
                    ga = ActTerm(ch.name, tuple(Obj(o) for o in combo))
                    outs.append((p, index[apply_action(ga, s, model.ssas, sig)]))
                entries.append((r, tuple(outs)))
        table.append(entries)
    values = [0.0] * len(states)
    while True:
        delta = 0.0
        for i, entries in enumerate(table):
            best = max(
                r + model.discount * sum(p * values[j] for p, j in outs)
                for r, outs in entries
            )
            delta = max(delta, abs(best - values[i]))
            values[i] = best
        if delta <= eps:
            return {s: values[i] for s, i in index.items()}
