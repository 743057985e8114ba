"""Independent slow oracles that the tests check the package against.

* :func:`vertex_enumerate`: an exhaustive search over candidate vertices
  (assignments of variables to 0, to 1 or to the set determined by active
  rows), checked against :func:`anonvote.ratlp.solve`. It shares no
  pivoting logic with the simplex; subtrees are discarded only when exact
  interval arithmetic proves them infeasible or no better than the
  incumbent, so the returned maximum is exact.
* :func:`profile_probability`: the probability of one ordered profile, a
  product over agents, against which the probability kernels are checked.
* :func:`oracle_welfare` and :func:`oracle_interims`: welfare and one
  agent's interim allocations by enumerating every ordered profile.
* :func:`oracle_projection`: the ordinal projection by enumerating every
  ordered profile and conditioning on its coalition of positive reporters.
* :func:`anonymous_by_permutation`: whether a rule evaluates every ordered
  profile as each of its permutations, against which the rules'
  ``anonymous`` flags are checked.
* :func:`random_symmetric_environment`: seeded draws of environments whose
  agents share one distribution.
* :func:`symmetric_threshold`: the closed-form optimal threshold of such an
  environment (Schmitz & Tröger, GEB 2012), against which ``qmr_best`` and the
  optimum are checked.
* :func:`mixed_denominator_env`: a fixed environment over values and
  probabilities of several denominators.
* :func:`fraction_environment`: an environment's sign statistics, types and
  flags, recomputed with Fraction sums from each agent's ``items``, against
  which the integer environment is checked.
* :func:`wmr_by_fractions`: a weighted majority rule's allocation at one
  profile from Fraction sums of its weights, against which
  ``WeightedMajorityRule.evaluate`` is checked.
* :func:`sign_table_by_evaluate`: a sign rule's integer table from one
  Fraction allocation per sign key, against which the table the rule makes
  from integers (``mechanisms._integers``) is checked.
* :func:`oracle_columns`: the column map by enumerating ordered profiles
  with Fraction probabilities, against which ``Environment.columns``, read
  back by :func:`kept_columns`, is checked.
* :func:`coded_points` and :func:`decode`: each agent's report points with
  the units of a report code, and the value-index tuple of a code, through
  which ``multiset_distribution`` is read against the enumeration.
* :func:`fractions_of`: the Fractions of an integer pair ``(nums, den)``,
  the form ``LpSolution.x`` and ``LpSolution.duals`` take.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from _lpgen import rational_rows
from anonvote.environments import AgentDistribution, Environment, ValueSet
from anonvote.mechanisms import WeightedMajorityRule, coalition
from anonvote.rationals import Record, integer_form
from anonvote.ratlp import LinearProgram, LpSolution, _verify_point


def fractions_of(pair) -> list[Fraction]:
    """The rationals ``nums[j] / den`` of the integer pair ``(nums, den)``."""
    nums, den = pair
    return [Fraction(v, den) for v in nums]


class GuardExceeded(RuntimeError):
    """Instance too large for the enumeration oracle's work budget."""


def coded_points(agents: Sequence[AgentDistribution], ordered: bool) -> list[list[tuple]]:
    """Each agent's (unit, probability) points over its support: unit
    j * |V|^i for value index j at position i of an ordered profile, or
    (n+1)^j for a sorted multiset of n reports."""
    n = len(agents)
    return [[(j * len(agent.items) ** i if ordered else (n + 1) ** j, p)
             for j, (_, p) in enumerate(agent.items)] for i, agent in enumerate(agents)]


def decode(code: int, size: int, n: int, ordered: bool) -> tuple:
    """The value-index tuple of the report code of n reports over ``size``
    values: an ordered profile, whose entry i is the code's digit i in base
    ``size``, or a sorted multiset, which holds index j as many times as the
    code's digit j in base n + 1."""
    base, length = (size, n) if ordered else (n + 1, size)
    if not 0 <= code < base**length:
        raise ValueError(f"code {code} has more than {length} digits in base {base}")
    digits = [code // base**k % base for k in range(length)]
    if ordered:
        return tuple(digits)
    if sum(digits) != n:
        raise ValueError(f"code {code} counts {sum(digits)} reports, not {n}")
    return tuple(j for j, count in enumerate(digits) for _ in range(count))


def profile_probability(agents: Sequence[AgentDistribution], profile: Sequence[Fraction]) -> Fraction:
    """Probability of an ordered value profile (agents are independent)."""
    if len(profile) != len(agents):
        raise ValueError(f"profile has {len(profile)} entries, expected {len(agents)}")
    result = Fraction(1)
    for agent, v in zip(agents, profile):
        if v not in agent.probs:
            raise ValueError(f"value {v} not in the agent's support")
        result *= agent.probs[v]
        if result == 0:
            return Fraction(0)
    return result


def oracle_welfare(env: Environment, rule) -> Fraction:
    """Expected total value on the reform event, from all |V|^n ordered
    profiles and the rule's ``evaluate``."""
    return sum(
        (
            profile_probability(env.agents, p) * sum(p, Fraction(0)) * rule.evaluate(p)
            for p in itertools.product(env.values.values, repeat=env.n)
        ),
        Fraction(0),
    )


def oracle_interims(env: Environment, rule, i: int) -> dict:
    """Agent ``i``'s interim allocation at each support value, from all
    |V|^(n-1) ordered profiles of the others and the rule's ``evaluate``."""
    others = env.agents[:i] + env.agents[i + 1 :]
    return {
        v: sum(
            (
                profile_probability(others, rest) * rule.evaluate(rest[:i] + (v,) + rest[i:])
                for rest in itertools.product(env.values.values, repeat=env.n - 1)
            ),
            Fraction(0),
        )
        for v in env.values
    }


def oracle_projection(env: Environment, rule) -> dict:
    """Expected allocation conditional on each coalition of positive
    reporters, from all |V|^n ordered profiles; coalitions in
    ``itertools.product((False, True), repeat=n)`` order, and None for a
    coalition of probability zero."""
    mass: dict[frozenset, Fraction] = {}
    weighted: dict[frozenset, Fraction] = {}
    for profile in itertools.product(env.values.values, repeat=env.n):
        prob = profile_probability(env.agents, profile)
        t = coalition(profile)
        mass[t] = mass.get(t, Fraction(0)) + prob
        weighted[t] = weighted.get(t, Fraction(0)) + prob * rule.evaluate(profile)
    result = {}
    for bits in itertools.product((False, True), repeat=env.n):
        t = frozenset(i for i, b in enumerate(bits) if b)
        result[t] = weighted[t] / mass[t] if mass[t] else None
    return result


def anonymous_by_permutation(rule, values, n: int) -> bool:
    """Whether every ordered profile of n reports from ``values`` evaluates
    the same as each of its permutations."""
    return all(
        len({rule.evaluate(p) for p in itertools.permutations(m)}) == 1
        for m in itertools.combinations_with_replacement(values, n)
    )


def random_symmetric_environment(rng: random.Random, n_agents: int) -> Environment:
    """Random environment whose agents all share one full-support distribution.

    Makes the same draws as ``random_environment(rng, n_agents=1,
    max_values)`` and gives that one distribution to every agent; the
    one-agent environment itself is never built, since it is not valid.
    """
    size = rng.randint(2, 6 if n_agents <= 3 else 4)
    pool = [v for v in range(-20, 21) if v != 0]
    while True:
        values = rng.sample(pool, size)
        if any(v < 0 for v in values) and any(v > 0 for v in values):
            break
    values = sorted(Fraction(v) for v in values)
    weights = [rng.randint(1, 64) for _ in values]
    total = sum(weights)
    agent = AgentDistribution({v: Fraction(w, total) for v, w in zip(values, weights)})
    return Environment(ValueSet(values), [agent] * n_agents)


class NotSymmetric(ValueError):
    """Operation requires all agents to share one distribution."""


class SymmetricThreshold(Record):
    """Closed-form optimal threshold for ex-ante identical agents."""

    __slots__ = ("k_bar", "boundary", "tie")


def symmetric_threshold(env: Environment) -> SymmetricThreshold:
    """Optimal qualified-majority threshold in a symmetric environment.

    The threshold is the least k with k > n*U-/(U+ + U-). When that boundary
    is an integer, allocating either way at exactly-boundary coalitions does
    not change welfare; the ``tie`` flag reports this.
    """
    first = env.agents[0]
    if any(agent != first for agent in env.agents[1:]):
        raise NotSymmetric("agents do not share one distribution")
    if first.u_plus is None or first.u_minus is None:
        raise NotSymmetric(
            "threshold formula needs both conditional means (p in (0,1))"
        )
    boundary = env.n * first.u_minus / (first.u_plus + first.u_minus)
    k_bar = next(k for k in range(1, env.n + 1) if k > boundary)
    return SymmetricThreshold(k_bar, boundary, boundary.denominator == 1)


def mixed_denominator_env() -> Environment:
    """Three agents, the first and last of one type, over values of four
    denominators; the two types' probabilities have different denominators."""
    values = ValueSet(["-7/3", "-1/2", "3/4", "5/2"])
    a = AgentDistribution(dict(zip(values, map(Fraction, ("1/3", "1/6", "1/4", "1/4")))))
    b = AgentDistribution(dict(zip(values, map(Fraction, ("1/5", "3/10", "2/7", "3/14")))))
    return Environment(values, [a, b, a])


def fraction_environment(env: Environment) -> tuple[list, tuple, tuple]:
    """``(stats, types, flags)``: per agent ``(p, pos_mass, neg_mass, u_plus,
    u_minus)``, the index of the first agent with equal ``items``, and the
    limit-mode flags, from Fraction sums over each agent's ``items``."""
    stats, flags = [], []
    for i, agent in enumerate(env.agents):
        p = sum((q for v, q in agent.items if v > 0), Fraction(0))
        pos = sum((v * q for v, q in agent.items if v > 0), Fraction(0))
        neg = sum((-v * q for v, q in agent.items if v < 0), Fraction(0))
        stats.append((p, pos, neg, pos / p if p else None, neg / (1 - p) if p != 1 else None))
        label = f"agent {i} ({agent.name})" if agent.name else f"agent {i}"
        zeros = [str(v) for v, q in agent.items if q == 0]
        if zeros:
            flags.append(f"{label}: zero probability on {{{', '.join(zeros)}}}")
        if p in (0, 1):
            flags.append(f"{label}: deterministic value sign (p={p})")
    items = [agent.items for agent in env.agents]
    return stats, tuple(items.index(x) for x in items), tuple(flags)


def wmr_by_fractions(rule, profile: Sequence) -> Fraction:
    """Allocation of a weighted majority rule at ``profile``, from the
    Fraction sum of the weights of its positive reporters."""
    support = sum((w for w, v in zip(rule.weights, profile) if v > 0), Fraction(0))
    if support == rule.quorum:
        return rule.tie_value
    return Fraction(1) if support > rule.quorum else Fraction(0)


def sign_table_by_evaluate(rule, n: int) -> tuple:
    """The ``integer_form`` of a sign rule's allocation at one +-1 profile
    of n agents per sign key: the count of positive reporters (the first c
    agents) if the rule is anonymous, else their bitmask (bit i for agent
    i). A weighted rule is read through :func:`wmr_by_fractions`, any other
    through its ``evaluate``."""
    masks = [(1 << c) - 1 for c in range(n + 1)] if rule.anonymous else range(1 << n)
    weighted = isinstance(rule, WeightedMajorityRule)
    at = (lambda profile: wmr_by_fractions(rule, profile)) if weighted else rule.evaluate
    return integer_form([at([(-1, 1)[m >> i & 1] for i in range(n)]) for m in masks])


def _gauss_unique(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A y = b exactly. Returns ('unique', y), ('inconsistent',) or ('under',)."""
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    n_cols = len(matrix[0]) if matrix else 0
    pivot_rows = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [a / pv for a in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivot_rows.append(col)
        row += 1
    for r in range(row, len(m)):
        if m[r][-1] != 0:
            return ("inconsistent",)
    if row < n_cols:
        return ("under",)
    y = [Fraction(0)] * n_cols
    for r, col in enumerate(pivot_rows):
        y[col] = m[r][-1]
    return ("unique", y)


def vertex_enumerate(lp: LinearProgram, max_vars: int = 12,
                     node_budget: int = 5_000_000) -> LpSolution:
    """Exhaustive exact maximum over the feasible region's vertices.

    Every variable is either pinned at 0 or 1 or left to be determined by a
    choice of active rows; all such candidate vertices are covered. The
    search discards a subtree only when interval arithmetic proves it
    infeasible or its best possible objective cannot beat the incumbent,
    so the result is the exact optimum (x = 0 is feasible, so there is one).

    ``max_vars`` guards instance size and ``node_budget`` caps search work;
    exceeding either raises :class:`GuardExceeded`.
    """
    if lp.num_vars > max_vars:
        raise GuardExceeded(f"{lp.num_vars} variables exceed the oracle guard {max_vars}")

    c, eq_rows, ineq_rows = rational_rows(lp)
    rows = [(coeffs, True) for coeffs in eq_rows] + [(coeffs, False) for coeffs in ineq_rows]
    n = lp.num_vars

    in_some_row = [any(row[0][j] != 0 for row in rows) for j in range(n)]
    loose = [j for j in range(n) if not in_some_row[j]]
    loose_x = {j: Fraction(1 if c[j] > 0 else 0) for j in loose}
    loose_value = sum((c[j] * loose_x[j] for j in loose), Fraction(0))

    order: list[int] = []
    placed = [not in_some_row[j] for j in range(n)]
    objective_first = sorted(
        (j for j in range(n) if in_some_row[j] and c[j] != 0),
        key=lambda j: (-abs(c[j]), j),
    )
    for j in objective_first:
        order.append(j)
        placed[j] = True
    while True:
        candidates = [
            (sum(1 for j in range(n) if row[0][j] != 0 and not placed[j]), i)
            for i, row in enumerate(rows)
        ]
        candidates = [(cnt, i) for cnt, i in candidates if cnt > 0]
        if not candidates:
            break
        _, best_row = min(candidates)
        for j in range(n):
            if rows[best_row][0][j] != 0 and not placed[j]:
                order.append(j)
                placed[j] = True
    for j in range(n):
        if not placed[j]:
            order.append(j)
            placed[j] = True

    n_rows = len(rows)
    eq_idx = [i for i, row in enumerate(rows) if row[1]]
    ineq_idx = [i for i, row in enumerate(rows) if not row[1]]
    ineq_subsets = [list(s) for size in range(len(ineq_idx) + 1)
                    for s in itertools.combinations(ineq_idx, size)]

    # incremental per-row interval state over not-yet-pinned variables
    fixed_sum = [Fraction(0)] * n_rows
    int_lo = [Fraction(0)] * n_rows
    int_hi = [Fraction(0)] * n_rows
    for i, (coeffs, _) in enumerate(rows):
        for j in range(n):
            if in_some_row[j]:
                int_lo[i] += min(coeffs[j], 0)
                int_hi[i] += max(coeffs[j], 0)

    obj_rest = sum((max(c[j], 0) for j in order), Fraction(0))

    state: dict[int, tuple[str, Fraction | None]] = {}
    best: dict = {"value": None, "x": None}
    nodes = {"count": 0}

    def row_feasible() -> bool:
        for i, (_, is_eq) in enumerate(rows):
            lo = fixed_sum[i] + int_lo[i]
            hi = fixed_sum[i] + int_hi[i]
            if lo > 0 or (is_eq and hi < 0):
                return False
        return True

    def leaf(assigned_obj: Fraction, free: list[int]):
        ff = len(free)
        for subset in ineq_subsets:
            active = eq_idx + subset
            if len(active) < ff:
                continue
            nodes["count"] += 1
            if nodes["count"] > node_budget:
                raise GuardExceeded("vertex enumeration exceeded its node budget")
            matrix = [[rows[i][0][j] for j in free] for i in active]
            rhs_vec = [-fixed_sum[i] for i in active]
            outcome = _gauss_unique(matrix, rhs_vec)
            if outcome[0] != "unique":
                continue
            y = outcome[1]
            if any(not 0 <= v <= 1 for v in y):
                continue
            free_vals = dict(zip(free, y))
            ok = True
            for i in ineq_idx:
                if i in subset:
                    continue
                total = fixed_sum[i] + sum(rows[i][0][j] * free_vals[j] for j in free)
                if total > 0:
                    ok = False
                    break
            if not ok:
                continue
            value = assigned_obj + sum((c[j] * free_vals[j] for j in free), Fraction(0))
            if best["value"] is None or value > best["value"]:
                best["value"] = value
                best["x"] = {j: val for j, (_, val) in state.items()} | free_vals

    def descend(pos: int, assigned_obj: Fraction, rest_bound: Fraction, free: list[int]):
        nodes["count"] += 1
        if nodes["count"] > node_budget:
            raise GuardExceeded("vertex enumeration exceeded its node budget")
        if best["value"] is not None and assigned_obj + rest_bound <= best["value"]:
            return
        if not row_feasible():
            return
        if pos == len(order):
            leaf(assigned_obj, free)
            return
        j = order[pos]
        gain = max(c[j], 0)
        new_rest = rest_bound - gain
        if c[j] < 0:
            states = (("pin", Fraction(0)), ("pin", Fraction(1)), ("free", None))
        else:
            states = (("pin", Fraction(1)), ("pin", Fraction(0)), ("free", None))
        touched = [i for i in range(n_rows) if rows[i][0][j] != 0]
        for kind, val in states:
            if kind == "free":
                if len(free) + 1 > n_rows:
                    continue
                free.append(j)
                state[j] = ("free", None)
                descend(pos + 1, assigned_obj, new_rest + gain, free)
                free.pop()
                del state[j]
                continue
            for i in touched:
                a = rows[i][0][j]
                fixed_sum[i] += a * val
                int_lo[i] -= min(a, 0)
                int_hi[i] -= max(a, 0)
            state[j] = ("pin", val)
            descend(pos + 1, assigned_obj + c[j] * val, new_rest, free)
            del state[j]
            for i in touched:
                a = rows[i][0][j]
                fixed_sum[i] -= a * val
                int_lo[i] += min(a, 0)
                int_hi[i] += max(a, 0)

    descend(0, Fraction(0), obj_rest, [])

    x = [Fraction(0)] * n
    for j in loose:
        x[j] = loose_x[j]
    for j, v in best["x"].items():
        x[j] = v
    value = best["value"] + loose_value
    x = integer_form(x)  # in lowest terms, the form solve returns
    _verify_point(lp, x)
    return LpSolution(x, value, (), 0, 0, 0, 0)  # no duals, no pivots


def oracle_columns(env: Environment, without: int | None = None):
    """The column map from every ordered profile of value indices, with
    Fraction probabilities. For all agents (``without`` None): per sorted
    multiset, in lexicographic order, E[sum of values; multiset] and its
    count of positive reports. Without agent i: per multiset of the others'
    reports of positive probability, its probability and, per report j of
    agent i, the multiset with j added; sorted, since it has no order."""
    values, ranks = env.values.values, range(len(env.values))
    agents = [agent for i, agent in enumerate(env.agents) if i != without]
    mass: dict[tuple, Fraction] = {}
    for profile in itertools.product(ranks, repeat=len(agents)):
        prob = profile_probability(agents, [values[j] for j in profile])
        key = tuple(sorted(profile))
        mass[key] = mass.get(key, Fraction(0)) + prob
    if without is None:
        keys = itertools.combinations_with_replacement(ranks, env.n)
        return [(m, mass[m] * sum(values[j] for j in m), sum(values[j] > 0 for j in m))
                for m in keys]
    return sorted((p, tuple(tuple(sorted(rest + (j,))) for j in ranks))
                  for rest, p in mass.items() if p)


def kept_columns(env: Environment, without: int | None = None):
    """``env.columns(without)`` in the form of :func:`oracle_columns`."""
    if without is None:
        index, value, positives, den, _ = env.columns()
        assert list(index.values()) == list(range(len(index)))
        scale = den * env.values.scale
        return [(m, Fraction(value[c], scale), positives[c]) for m, c in index.items()]
    keys = list(env.columns()[0])
    weights, cols, den = env.columns(without)
    return sorted((Fraction(w, den), tuple(keys[col[r]] for col in cols))
                  for r, w in enumerate(weights))
