"""Rational LPs for the solver tests: one converter each way between
rational rows and the solver's integer pairs, and a shared random generator
for solver/oracle agreement tests.

Every draw has the solver's one form, the form of the welfare program:
homogeneous rows (a.x == 0 or a.x <= 0) over the unit box.
"""

from fractions import Fraction

from anonvote.rationals import integer_form, parse_rational
from anonvote.ratlp import LinearProgram


def exact_lp(objective, eq_rows=(), ineq_rows=()) -> LinearProgram:
    """The program with these rational rows (ints, Fractions or ``"p/q"``
    strings), each made the integer pair ``(numerators, den)`` the solver
    holds; raises ``ValueError`` on a row of another length."""

    def pair(coeffs):
        if len(coeffs) != len(objective):
            raise ValueError(f"row of {len(coeffs)} entries for {len(objective)} variables")
        return integer_form([parse_rational(a) for a in coeffs])

    return LinearProgram(len(objective), pair(objective), [pair(r) for r in eq_rows],
                         [pair(r) for r in ineq_rows])


def rational_rows(lp: LinearProgram):
    """``(objective, eq_rows, ineq_rows)`` of ``lp`` as lists of Fractions."""

    def rational(pair):
        num, den = pair
        return [Fraction(a, den) for a in num]

    return (rational(lp.objective), [rational(r) for r in lp.eq_rows],
            [rational(r) for r in lp.ineq_rows])


def random_lp(rng) -> LinearProgram:
    """Small random LP with integer rows and objective.

    x = 0 is always feasible; the optimum is often 0 (when the rows pin
    every improving direction) and often a vertex with fractional
    coordinates (when active rows, not the box, determine it). Tests that
    need the second kind count it with :func:`fractional_optimum`.
    """
    num_vars = rng.randint(2, 6)

    def row():
        return [Fraction(rng.randint(-4, 4)) for _ in range(num_vars)]

    objective = [Fraction(rng.randint(-6, 6)) for _ in range(num_vars)]
    eq_rows = [row() for _ in range(rng.randint(0, 2))]
    return exact_lp(objective, eq_rows, [row() for _ in range(rng.randint(0, 3))])


def rational_lp(rng) -> LinearProgram:
    """A :func:`random_lp` draw with every row and the objective multiplied
    by its own positive rational, so a row mixes denominators."""
    objective, eq_rows, ineq_rows = rational_rows(random_lp(rng))

    def scaled(coeffs):
        k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        return [k * a for a in coeffs]

    return exact_lp(scaled(objective), [scaled(coeffs) for coeffs in eq_rows],
                    [scaled(coeffs) for coeffs in ineq_rows])


def fractional_optimum(solution) -> bool:
    """True when the optimum is nonzero and some coordinate lies strictly
    inside (0, 1): the rows, not the box, shaped that vertex."""
    nums, den = solution.x
    return solution.objective_value != 0 and any(0 < v < den for v in nums)
