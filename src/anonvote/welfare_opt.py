"""Welfare maximization over anonymous incentive-compatible rules.

The decision variable is one allocation probability per report multiset
(anonymity is therefore structural, not a constraint row). Incentive
compatibility enters as one exact linear row on interim allocations per
condition of :func:`bic_conditions`: an equality for each flatness pair, an
inequality for monotonicity. Agents of one type produce identical rows, so
rows are emitted once per agent type. The objective and the rows are read
off the ``Environment``'s column map (``env.columns``), and each row (and
the objective) is one integer pair, the form :class:`LinearProgram` holds.

Also here: the four-variable interim relaxation for two agents, whose two
corner candidates correspond to the k=1 and k=2 majority rules, and the
two-agent influence bounds used to audit anonymous incentive-compatible
rules.
"""

from __future__ import annotations

from fractions import Fraction

from .environments import Environment
from .mechanisms import (
    AnonymousSCF,
    NotBicError,
    bic_conditions,
    check_bic,
    welfare,
    welfare_via_interims,
)
from .rationals import Record, lowest_terms
from .ratlp import LinearProgram, SimplexError, solve

__all__ = [
    "build_opt_lp",
    "OptimalMechanismReport",
    "solve_opt",
    "AuxPoint",
    "AuxCorners",
    "aux_corners",
    "Lemma3Report",
    "lemma3_bounds",
]


def build_opt_lp(env: Environment):
    """Emit the exact LP whose optimum is the best anonymous BIC rule.

    Returns ``(LinearProgram, index)``, the column map's ``index``. The
    objective is its ``value``; a row scatters the others' weights of
    ``env.columns(i)`` onto the columns of report a, less those of b. Rows
    are generated once per distinct agent distribution: agents of one type
    have identical interim coefficients, so their rows would repeat.
    """
    index, value, _, den, _ = env.columns()
    objective = lowest_terms(list(value), den * env.values.scale)  # the map is shared
    conditions = list(bic_conditions(env.values))
    eq_rows = []
    ineq_rows = []
    for i in dict.fromkeys(env.types):  # the first agent of each type
        weights, cols, den = env.columns(i)
        for a, b, kind in conditions:
            row = [0] * len(index)
            for c, w in zip(cols[a], weights):
                row[c] = w
            for c, w in zip(cols[b], weights):
                row[c] -= w
            (eq_rows if kind == "flatness" else ineq_rows).append(lowest_terms(row, den))

    return LinearProgram(len(index), objective, eq_rows, ineq_rows), index


class OptimalMechanismReport(Record):
    """Solved program: optimal rule, its welfare, and its incentive audit."""

    __slots__ = ("mechanism", "welfare", "audit", "lp_stats")


def solve_opt(env: Environment) -> OptimalMechanismReport:
    """Solve the program and audit the returned vertex before reporting it.

    :func:`solve` starts at the box optimum of the welfare objective and
    proves the vertex it reaches optimal by its dual bound
    (:func:`ratlp.certify`). The reconstructed mechanism is re-checked for
    incentive compatibility and its welfare is recomputed two independent
    ways; any disagreement raises :class:`SimplexError`.
    """
    lp, index = build_opt_lp(env)
    solution = solve(lp)
    mechanism = AnonymousSCF.from_indices(env.values.values, env.n, index, solution.x)
    audit = check_bic(env, mechanism)
    if not audit.satisfied:
        raise SimplexError(f"optimal vertex fails the incentive audit: {audit.witness}")
    direct = welfare(env, mechanism)
    decomposed = welfare_via_interims(env, mechanism)
    if not (direct == decomposed == solution.objective_value):
        raise SimplexError(
            f"welfare mismatch: direct {direct}, interim {decomposed}, "
            f"lp {solution.objective_value}"
        )
    lp_stats = {
        "variables": lp.num_vars,
        "eq_rows": len(lp.eq_rows),
        "ineq_rows": len(lp.ineq_rows),
        "pivots": solution.pivots,
        "degenerate_pivots": solution.degenerate_pivots,
        "bound_flips": solution.bound_flips,
        "max_den_bits": solution.max_den_bits,
        "certificate": "dual-bound",
    }
    return OptimalMechanismReport(mechanism, direct, audit, lp_stats)


class AuxPoint(Record):
    """Interim constants (c1+, c1-, c2+, c2-) of a candidate two-agent rule."""

    __slots__ = ("c1_plus", "c1_minus", "c2_plus", "c2_minus")

    def as_tuple(self):
        return (self.c1_plus, self.c1_minus, self.c2_plus, self.c2_minus)

    def __eq__(self, other):
        return isinstance(other, AuxPoint) and self.as_tuple() == other.as_tuple()


class AuxCorners(Record):
    """The two corner candidates of the interim relaxation and their values."""

    __slots__ = ("first", "second", "value_first", "value_second")

    def best_value(self):
        return max(self.value_first, self.value_second)


def aux_corners(env: Environment) -> AuxCorners:
    """Corner candidates of the two-agent interim relaxation.

    The first corner has both positive-side constants at 1 (it matches the
    k=1 majority rule); the second has both negative-side constants at 0
    (matching the k=2 rule). One of the two always attains the relaxation's
    optimum.
    """
    if env.n != 2:
        raise ValueError("the interim relaxation is defined for exactly 2 agents")
    s1 = env.agents[0]
    s2 = env.agents[1]
    if not (0 < s1.p < 1 and 0 < s2.p < 1):
        raise ValueError("corner formulas need p1, p2 strictly inside (0, 1)")
    p1, p2 = s1.p, s2.p
    first = AuxPoint(Fraction(1), p2, Fraction(1), p1)
    second = AuxPoint(p2, Fraction(0), p1, Fraction(0))

    def objective(point: AuxPoint) -> Fraction:
        return (
            s1.pos_mass * point.c1_plus
            - s1.neg_mass * point.c1_minus
            + s2.pos_mass * point.c2_plus
            - s2.neg_mass * point.c2_minus
        )

    return AuxCorners(first, second, objective(first), objective(second))


class Lemma3Report(Record):
    """Both two-agent influence bounds evaluated exactly."""

    __slots__ = ("lhs1", "bound1", "lhs2", "bound2")

    @property
    def satisfied(self):
        return self.lhs1 <= self.bound1 and self.lhs2 <= self.bound2


def lemma3_bounds(env: Environment, rule) -> Lemma3Report:
    """Evaluate the two-agent influence bounds for an anonymous BIC rule.

    For any such rule, each agent's signed interim mass is capped by the
    square of the other agent's positive-sign probability. A violation
    indicates an implementation bug rather than a legitimate input, so both
    sides are reported exactly for inspection.
    """
    if env.n != 2:
        raise ValueError("influence bounds are defined for exactly 2 agents")
    if not rule.anonymous:
        raise ValueError("rule must be anonymous")
    audit = check_bic(env, rule)
    if not audit.satisfied:
        raise NotBicError(f"rule is not incentive compatible: {audit.witness}")
    p1 = env.agents[0].p
    p2 = env.agents[1].p
    lhs1 = p1 * audit.c_plus[1] - (1 - p1) * audit.c_minus[1]
    lhs2 = p2 * audit.c_plus[0] - (1 - p2) * audit.c_minus[0]
    return Lemma3Report(lhs1, p1 * p1, lhs2, p2 * p2)
