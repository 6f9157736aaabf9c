"""Reference decision path: the per-goal renaming that compiled queries replaced.

For every goal it renames the generic constants in the goal and in every Q
partition (`substitute_goal`), then enumerates each renamed witness body
over the full product of the object pools with the interpreter in
`state_reference`.  `unidecomp.score_actions` must return exactly what
`score_actions` returns, and `unidecomp.select_action` what `best_action`
picks from those scores.  `renamed` may carry `substitute_goal` results
from one call to the next; renaming depends on the goal alone, not on the
state.
"""

from fomdp.logic import ActTerm, Obj, replace_objects
from fomdp.unidecomp import UnidecompError, substitute_goal
from state_reference import eval_in_state, satisfying_bindings


def goal_satisfied(qset, binding, state) -> bool:
    return eval_in_state(replace_objects(qset.goal, dict(zip(qset.constants, binding))), state)


def score_actions(qset, goals, state, renamed=None) -> dict:
    renamed = {} if renamed is None else renamed
    unsat = [g for g in goals if not goal_satisfied(qset, g, state)]
    if not unsat:
        raise UnidecompError("every goal is already satisfied")
    n = len(unsat)
    scores: dict = {}
    for g in unsat:
        if g not in renamed:
            renamed[g] = substitute_goal(qset, g)
        for name, q in renamed[g].qcases:
            claimed = set()
            for p in sorted(q.partitions, key=lambda p: -p.value):
                for b in satisfying_bindings(p.bind_body, state, p.bind_vars):
                    combo = tuple(b[v] for v, _ in p.bind_vars)
                    if combo in claimed:
                        continue
                    claimed.add(combo)
                    key = (name, combo)
                    scores[key] = scores.get(key, 0.0) + p.value / n
    return scores


def best_action(scores: dict):
    """The `select_action` pick among reference scores."""
    best = min(scores, key=lambda k: (-scores[k], k))
    return ActTerm(best[0], tuple(Obj(o) for o in best[1])), scores[best]
