"""Scripted reproductions and the seeded inputs of the verification suites.

The centerpiece is a two-type family of environments indexed by a small
epsilon: two "high-stakes" agents whose values concentrate on {-M^2, M} and
n-2 "low-stakes" agents concentrated on {-1, 1}. At epsilon = 0 the family
degenerates (zero-probability support points, accepted in limit mode), and
an anonymous cardinal rule, unanimity plus three targeted overrides, is
incentive compatible and beats every qualified majority rule. The demos
here rebuild those numbers exactly; seeded random environments and feasible
rules feed the randomized suites of :mod:`anonvote.cli`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .environments import AgentDistribution, Environment, ValueSet
from .mechanisms import (AnonymousSCF, OrderedTableSCF, all_multisets, qmr_best,
                         welfare, wmr_build)
from .rationals import Record, parse_rational
from .welfare_opt import build_opt_lp, solve_opt
from .ratlp import LinearProgram, solve

__all__ = [
    "family_conditions",
    "make_theorem2_env",
    "make_fstar",
    "Theorem2Report",
    "run_theorem2_demo",
    "cardinal_ordinal_ratio_sweep",
    "example1_fixture",
    "random_environment",
    "random_feasible_mechanism",
]


def family_conditions(n: int, M: Fraction) -> tuple[Fraction, Fraction]:
    """The two exact quantities gating the (n, M) family.

    First: expected total value of reform given n-1 supporters (must be
    negative, so unanimity beats every lower threshold at the limit point).
    Second: total value of the {M, M, -1, ..., -1} profile (must be positive,
    so overriding unanimity there gains welfare).
    """
    M = parse_rational(M)
    near_unanimity = Fraction(2, n) * (-M * M + M + n - 2) + Fraction(n - 2, n) * (
        2 * M + n - 4
    )
    override_gain = 2 * M - (n - 2)
    return near_unanimity, override_gain


def make_theorem2_env(n: int, M, eps) -> Environment:
    """Two-type environment over {-M^2, -1, 1, M} indexed by eps in [0, 1/2).

    High-stakes agents 1 and 2 put probability 1/2 - eps on -M^2 and M;
    low-stakes agents put 1/2 - eps on -1 and 1. eps = 0 is the limit case
    with zero-probability support points.
    """
    if n < 3:
        raise ValueError("the family needs at least 3 agents")
    M = parse_rational(M)
    eps = parse_rational(eps)
    if M <= 0:
        raise ValueError("M must be positive")
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    near_unanimity, override_gain = family_conditions(n, M)
    if override_gain <= 0:
        raise ValueError(
            "family condition violated: the {M, M, -1, ...} profile must have "
            f"positive total value, got 2M - (n-2) = {override_gain}"
        )
    if near_unanimity >= 0:
        raise ValueError(
            "family condition violated: expected reform value with n-1 supporters "
            f"must be negative, got {near_unanimity}"
        )
    values = ValueSet([-M * M, Fraction(-1), Fraction(1), M])
    main = Fraction(1, 2) - eps
    high = AgentDistribution(
        {-M * M: main, Fraction(-1): eps, Fraction(1): eps, M: main}, name="high"
    )
    low = AgentDistribution(
        {-M * M: eps, Fraction(-1): main, Fraction(1): main, M: eps}, name="low"
    )
    return Environment(values, [high, high] + [low] * (n - 2))


def make_fstar(n: int, M) -> AnonymousSCF:
    """Unanimity with three targeted overrides set to 1.

    The overridden multisets are {M, M, -1, ..., -1}, {-M^2, 1, ..., 1} and
    {-M^2, -M^2, -M^2, 1, ..., 1}. At the eps = 0 limit point only the first
    carries probability; the other two exist to keep interim allocations flat
    across the zero-probability reports, which is what makes the rule
    incentive compatible there.
    """
    if n < 3:
        raise ValueError("the construction needs at least 3 agents")
    M = parse_rational(M)
    values = (-M * M, Fraction(-1), Fraction(1), M)
    overrides = {
        tuple(sorted((M, M) + (Fraction(-1),) * (n - 2))),
        tuple(sorted((-M * M,) + (Fraction(1),) * (n - 1))),
        tuple(sorted((-M * M,) * 3 + (Fraction(1),) * (n - 3))),
    }
    allocation = {}
    for m in all_multisets(values, n):
        if all(v > 0 for v in m) or m in overrides:
            allocation[m] = Fraction(1)
        else:
            allocation[m] = Fraction(0)
    return AnonymousSCF(values, n, allocation)


class Theorem2Report(Record):
    """All welfare figures for one (n, M, eps) family member."""

    __slots__ = ("n", "M", "eps", "qmr", "opt", "fstar_welfare", "wmr_welfare")

    @property
    def strict_gap(self) -> bool:
        return self.opt.welfare > self.qmr.best_welfare

    @property
    def ratio(self):
        if self.qmr.best_welfare == 0:
            return None
        return self.opt.welfare / self.qmr.best_welfare


def run_theorem2_demo(n: int, M, eps) -> Theorem2Report:
    """Solve one family member and collect every benchmark welfare figure."""
    M = parse_rational(M)
    eps = parse_rational(eps)
    env = make_theorem2_env(n, M, eps)
    wmr_welfare = welfare(env, wmr_build(env))  # before the LP: its sign table may be refused
    qmr = qmr_best(env)
    opt = solve_opt(env)
    fstar_welfare = welfare(env, make_fstar(n, M)) if eps == 0 else None
    return Theorem2Report(n, M, eps, qmr, opt, fstar_welfare, wmr_welfare)


def cardinal_ordinal_ratio_sweep(m_values, n: int = 3) -> list[Theorem2Report]:
    """The limit point (eps = 0) of the family at each magnitude M, solved.

    Each report's ``ratio`` is optimal-cardinal over best-ordinal welfare;
    with three agents it is 4M/(2M+1): strictly increasing in M and
    approaching, never reaching, 2.
    """
    return [run_theorem2_demo(n, M, 0) for M in m_values]


def random_environment(rng: random.Random, n_agents: int = 2, max_values: int = 6) -> Environment:
    """Random full-support environment with bounded-denominator probabilities.

    Values are distinct nonzero integers in [-20, 20] with both signs
    present; each agent's probabilities are integer weights in [1, 64]
    renormalized exactly, so every support point has positive probability.
    """
    size = rng.randint(2, max_values)
    pool = [v for v in range(-20, 21) if v != 0]
    while True:
        values = rng.sample(pool, size)
        if any(v < 0 for v in values) and any(v > 0 for v in values):
            break
    values = sorted(Fraction(v) for v in values)
    agents = []
    for _ in range(n_agents):
        weights = [rng.randint(1, 64) for _ in values]
        total = sum(weights)
        agents.append(
            AgentDistribution({v: Fraction(w, total) for v, w in zip(values, weights)})
        )
    return Environment(ValueSet(values), agents)


def random_feasible_mechanism(env: Environment, rng: random.Random) -> AnonymousSCF:
    """A random vertex of the anonymous-BIC feasible region.

    Maximizes a random integer objective over the same constraint set as the
    welfare program, so the returned rule is anonymous and incentive
    compatible but typically far from welfare-optimal. :func:`solve` starts
    at the box optimum of the random objective, as it does for
    :func:`solve_opt`'s.
    """
    lp, index = build_opt_lp(env)
    objective = [rng.randint(-10, 10) for _ in range(lp.num_vars)]
    lp = LinearProgram(lp.num_vars, (objective, 1), lp.eq_rows, lp.ineq_rows)
    return AnonymousSCF.from_indices(env.values.values, env.n, index, solve(lp).x)


def example1_fixture():
    """The worked two-agent example: environment, rule, expected projection.

    The rule is anonymous and incentive compatible, yet its coalition
    projection assigns 1/3 to "only agent 1 positive" and 1/4 to "only
    agent 2 positive": the projection preserves welfare and incentives but
    not anonymity, which is exactly what makes the two-agent analysis
    delicate.
    """
    values = ValueSet([-2, -1, 1, 2])
    agent1 = AgentDistribution(dict(zip(values, map(Fraction, ("1/2", "1/6", "1/6", "1/6")))))
    agent2 = AgentDistribution(dict(zip(values, map(Fraction, ("1/2", "1/4", "1/8", "1/8")))))
    env = Environment(values, [agent1, agent2])
    profiles = [(v1, v2) for v1 in values for v2 in values]
    # reform iff both or neither report -2
    table = {(v1, v2): Fraction((v1 == -2) == (v2 == -2)) for v1, v2 in profiles}
    rule = OrderedTableSCF(values.values, 2, table)
    blocks = {
        (True, True): Fraction(1),
        (True, False): Fraction(1, 3),
        (False, True): Fraction(1, 4),
        (False, False): Fraction(7, 12),
    }
    hat_table = {(v1, v2): blocks[(v1 > 0, v2 > 0)] for v1, v2 in profiles}
    hat_expected = OrderedTableSCF(values.values, 2, hat_table)
    return env, rule, hat_expected
