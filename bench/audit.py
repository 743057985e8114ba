"""The benchmark's correctness gate, by independent profile enumeration.

Nothing here imports anonvote: the audit re-derives interims, incentive
compatibility and welfare from the generated environment with plain
``Fraction`` arithmetic, so a fast path in the program cannot also corrupt
the check. ``verify`` returns the list of problems with one op's output; an
empty list means the op passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product


def parse_env(env: dict):
    values = sorted(Fraction(v) for v in env["values"])
    agents = [{Fraction(v): Fraction(p) for v, p in a["probs"].items()} for a in env["agents"]]
    return values, agents


def _profiles(values, agents):
    """Yield (probability, ordered profile) for every profile of positive probability."""
    for profile in product(values, repeat=len(agents)):
        prob = Fraction(1)
        for dist, v in zip(agents, profile):
            prob *= dist[v]
        if prob:
            yield prob, profile


def best_qmr_welfare(values, agents) -> Fraction:
    """Welfare of the best rule "reform iff at least k agents report positive"."""
    n = len(agents)
    by_count = [Fraction(0)] * (n + 1)
    for prob, profile in _profiles(values, agents):
        by_count[sum(v > 0 for v in profile)] += prob * sum(profile)
    best = running = Fraction(0)  # k = n + 1 never reforms
    for k in range(n, -1, -1):
        running += by_count[k]
        best = max(best, running)
    return best


def audit_anonymous(env: dict, mech: dict):
    """Audit an anonymous mechanism; returns (problems, direct, interim welfare)."""
    values, agents = parse_env(env)
    n = len(agents)
    if mech.get("kind") != "anonymous" or mech.get("n") != n:
        return [f"mechanism is not an anonymous rule over {n} agents"], None, None
    if sorted(Fraction(v) for v in mech["values"]) != values:
        return ["mechanism support differs from the environment"], None, None
    alloc = {}
    for key, a in mech["allocation"].items():
        alloc[tuple(sorted(Fraction(v) for v in key.split(",")))] = Fraction(a)
    if set(alloc) != set(combinations_with_replacement(values, n)):
        return ["allocation table does not cover exactly the report multisets"], None, None
    if any(not 0 <= a <= 1 for a in alloc.values()):
        return ["allocation outside [0, 1]"], None, None

    problems = []
    negatives = [v for v in values if v < 0]
    positives = [v for v in values if v > 0]
    interims = {}
    interim_welfare = Fraction(0)
    for i, dist in enumerate(agents):
        type_key = tuple(sorted(dist.items()))  # equal types see equal others
        if type_key not in interims:
            table = dict.fromkeys(values, Fraction(0))
            for prob, rest in _profiles(values, agents[:i] + agents[i + 1 :]):
                for v in values:
                    table[v] += prob * alloc[tuple(sorted(rest + (v,)))]
            interims[type_key] = table
        table = interims[type_key]
        for group in (negatives, positives):
            if len({table[v] for v in group}) > 1:
                problems.append(f"agent {i}: interim allocation not flat on one value sign")
        if table[negatives[-1]] > table[positives[0]]:
            problems.append(f"agent {i}: interim allocation not monotone in the value sign")
        interim_welfare += sum(dist[v] * v * table[v] for v in values)

    direct = sum(
        (prob * sum(profile) * alloc[tuple(sorted(profile))] for prob, profile in _profiles(values, agents)),
        Fraction(0),
    )
    return problems, direct, interim_welfare


def _exact(field) -> Fraction:
    return Fraction(field["exact"])


def verify(op, env: dict, out: dict, recorded: dict) -> list[str]:
    """Problems with one op's parsed JSON output.

    Values recorded in ``expected.json`` are compared exactly. A solve output
    may be a different optimal vertex, so its mechanism is re-audited instead
    of compared; without a recorded optimum the invariants still apply.
    """
    problems = []
    if op.role == "compare":
        rec = recorded["family"][op.key]
        opt = _exact(out["opt"]["welfare"])
        if opt < max(Fraction(w) for w in out["qmr"]["table"].values()):
            problems.append("optimum below the best qualified majority rule")
        observed = {
            "opt": str(opt),
            "k_star": out["qmr"]["k_star"],
            "qmr": out["qmr"]["table"],
            "wmr": out["wmr"]["welfare"]["exact"],
        }
        problems += [f"{k}: {observed[k]!r} != recorded {rec[k]!r}" for k in observed if observed[k] != rec[k]]
    elif op.role in ("check_opt", "check_wmr"):
        rec = recorded["family"][op.key][op.role]
        observed = {
            "anonymous": out["anonymous"],
            "bic": out["bic"]["satisfied"],
            "welfare": out["welfare"]["exact"],
        }
        problems += [f"{k}: {observed[k]!r} != recorded {rec[k]!r}" for k in observed if observed[k] != rec[k]]
    else:
        reported = _exact(out["welfare"])
        audit_problems, direct, interim = audit_anonymous(env, out["mechanism"])
        problems += audit_problems
        if direct is not None and not reported == direct == interim:
            problems.append(f"welfare {reported} != direct {direct} or interim {interim}")
        if reported < best_qmr_welfare(*parse_env(env)):
            problems.append("optimum below the best qualified majority rule")
        rec = recorded["solve"].get(op.key)
        if rec is not None and reported != Fraction(rec):
            problems.append(f"optimal welfare {reported} != recorded {rec}")
    return problems
