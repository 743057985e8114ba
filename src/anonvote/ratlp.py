"""Exact linear programming over arbitrary-precision rationals.

The solver takes one form, the form of the welfare program: maximize c.x
over the unit box 0 <= x <= 1 subject to homogeneous rows a.x == 0 and
a.x <= 0. x = 0 is always feasible and the box is bounded, so every
program has an optimal vertex; there is no infeasible or unbounded case.

* :func:`solve`: a bounded-variable dual simplex for maximization. Every
  row gets one slack column, fixed at [0, 0] on an equality row and in
  [0, inf) on an inequality row, and the slacks form the starting basis.
  A structural variable at its upper bound 1 is complemented
  (x_j -> 1 - x_j, Dantzig's upper-bounding technique), so every nonbasic
  variable sits at 0. The start is the box optimum, x_j = 1 iff c_j > 0:
  every reduced cost is then <= 0, so it is dual feasible, and no caller
  supplies it. The basic variable farthest outside its bounds leaves; the
  long-step ratio test (Kostina, Math. Methods Oper. Res. 2002) walks the
  breakpoints of the columns that move it toward its bound, lowest first,
  flips each boxed column whose whole range leaves the row outside, and
  lets the first unboxed or overshooting column enter. After 50
  iterations of dual step 0 in a row the dual form of Bland's rule (lowest
  index leaves, lowest index of least ratio enters, no flips) takes over
  for good, which guarantees termination. Each tableau row, right-hand
  side included, is integers over one positive denominator, divided by its
  gcd after every update, so pricing and updates are integer arithmetic,
  as is every comparison, by cross-multiplication; the first rows are the
  program's own. No floating point and no tolerances appear anywhere.

* :func:`certify`: the exact optimality proof every :func:`solve` result
  passes. The duals y are read off the final tableau's slack columns. In
  this form, any y with y >= 0 on the inequality rows bounds the optimum by
  UB(y) = sum_j max(0, c_j - a_j.y) (Neumaier & Shcherbina, Math. Prog.
  2004), so a feasible point whose value equals UB(y) is optimal, whichever
  pivot rule proposed it. UB(y), like the feasibility check and c.x, is
  an integer sum over the program's integer rows. The vertex and the duals
  leave as integer pairs too; only the optimal value is a ``Fraction``.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from operator import mul

from .rationals import Record, lowest_terms, pair_form

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "solve", "certify"]


class SimplexError(RuntimeError):
    """Internal solver invariant failed; indicates a bug, not bad input."""


class LinearProgram:
    """max c.x subject to a.x == 0 (eq rows), a.x <= 0 (ineq rows), 0 <= x <= 1.

    The objective and every row are one integer pair ``(numerators, den)``, a
    list of ``num_vars`` ints over a positive int (else ``ValueError``), best
    in :func:`lowest_terms`. This is the form of the welfare program, so x = 0
    is always feasible and the optimum is attained.
    """

    __slots__ = ("num_vars", "objective", "eq_rows", "ineq_rows")

    def __init__(self, num_vars, objective, eq_rows=(), ineq_rows=()):
        self.num_vars, self.objective = num_vars, objective
        self.eq_rows, self.ineq_rows = list(eq_rows), list(ineq_rows)
        for r, (num, den) in enumerate([objective, *self.eq_rows, *self.ineq_rows]):
            if not (type(num) is list and len(num) == num_vars and type(den) is int and den > 0
                    and all(type(a) is int for a in num)):
                what = f"row {r - 1}" if r else "objective"
                raise ValueError(f"{what} is not a list of {num_vars} ints over a positive int")


class LpSolution(Record):
    """An exact optimal vertex, its duals and the pivot counters that reached
    it, built from all seven fields, as :func:`solve` passes them.

    ``x`` and ``duals``, one y_r per row, equality rows first, the certificate
    :func:`certify` accepted, are integer pairs in :func:`lowest_terms`.
    ``pivots`` counts dual iterations, ``degenerate_pivots`` those of dual
    step 0, ``bound_flips`` the breakpoints flipped (not bounded by
    ``pivots``), and
    ``max_den_bits`` is the bit length of the largest row denominator the
    tableau reached.
    """

    __slots__ = ("x", "objective_value", "duals", "pivots",
                 "degenerate_pivots", "bound_flips", "max_den_bits")


_BLAND_AFTER = 50  # iterations of dual step 0 in a row before Bland's rule takes over


def _eliminate(row, pivot, e: int):
    """row - row[e] * pivot, where pivot's entry e is 1 (``z`` stops
    before the pivot's right-hand side). ``gcd(row[e], pivot's den)`` is
    divided out of both first, which leaves the lowest terms as they are."""
    (a, d), (q, dq) = row, pivot
    g = math.gcd(a[e], dq)
    f, dq = a[e] // g, dq // g
    return lowest_terms([ai * dq - f * qi for ai, qi in zip(a, q)], d * dq)


def solve(lp: LinearProgram) -> LpSolution:
    """Exact dual simplex from the box optimum; returns the optimal vertex.

    The tableau lives in locals. Columns are the structural variables, then
    one slack per row, with bounds ``ub``. Each row is a pair ``(integers,
    positive denominator)`` whose last integer is its right-hand side, so
    the row's basic variable is worth ``rhs / den``. Every right-hand side
    starts at 0; complementing the box optimum's ones leaves each slack at
    minus its row's value there, possibly outside its bounds. ``flipped[j]``
    records that column j stands for 1 - x_j, so every nonbasic variable is
    at 0. The reduced-cost row ``z`` prices ``lp.objective`` and has no
    right-hand side; slacks are never complemented, so its slack entries
    are minus the row duals.

    The vertex reached is checked feasible and certified optimal by its
    duals before it is returned; a failure of either raises
    :class:`SimplexError`.
    """
    n, (cost, cost_den) = lp.num_vars, lp.objective
    n_eq, m = len(lp.eq_rows), len(lp.eq_rows) + len(lp.ineq_rows)
    ub = [1] * n + [0] * n_eq + [None] * len(lp.ineq_rows)
    flipped = [False] * n
    basis = list(range(n, n + m))
    rows = []
    for r, (num, den) in enumerate(lp.eq_rows + lp.ineq_rows):
        row = num + [0] * (m + 1)
        row[n + r] = den
        rows.append((row, den))
    z = (cost + [0] * m, cost_den)
    max_den = max([cost_den] + [d for _, d in rows])
    pivots = degenerate = bound_flips = 0

    def complement(j: int):
        """Substitute 1 - x_j for x_j: negate column j and take it off each rhs."""
        flipped[j] = not flipped[j]
        for a, _ in rows:
            if a[j]:
                a[-1] -= a[j]
                a[j] = -a[j]
        z[0][j] = -z[0][j]

    for j, c in enumerate(cost):
        if c > 0:
            complement(j)
    bland, stalled = _BLAND_AFTER == 0, 0
    while True:
        # the basic variables outside their bounds: (distance, den, row)
        out = []
        for r, ((a, d), bv) in enumerate(zip(rows, basis)):
            if a[-1] < 0:
                out.append((-a[-1], d, r))
            elif ub[bv] is not None and a[-1] > ub[bv] * d:
                out.append((a[-1] - ub[bv] * d, d, r))
        if not out:
            break
        if bland:  # the lowest-index variable leaves
            gap, _, r = min(out, key=lambda o: basis[o[2]])
        else:  # the farthest one, by cross-multiplication
            gap, _, r = functools.reduce(lambda p, q: q if q[0] * p[1] > p[0] * q[1] else p, out)
        (a, _), leaving = rows[r], basis[r]
        s = 1 if a[-1] > 0 else -1  # x[leaving] must fall (1) or rise (-1)
        # a column moves x[leaving] the right way iff w = s * a_j > 0; its
        # breakpoint -z_j / w is taken from a heap, lowest first, ordered
        # by cross-multiplication and then by index
        zs = z[0]
        key = functools.cmp_to_key(lambda p, q: zs[q[0]] * p[1] - zs[p[0]] * q[1] or p[0] - q[0])
        steps = [key((j, s * aj)) for j, aj in enumerate(a[:-1])
                 if s * aj > 0 and ub[j] != 0 and j != leaving]
        heapq.heapify(steps)
        flips = []
        while steps:
            e, w = heapq.heappop(steps).obj
            # flip a boxed column whose whole range leaves x[leaving] outside
            if bland or ub[e] is None or w >= gap:
                break
            gap -= w
            flips.append(e)
        else:
            raise SimplexError(f"no column brings variable {leaving} within its bounds")
        for j in flips:
            complement(j)
        pivots += 1
        bound_flips += len(flips)
        if zs[e] == 0:
            degenerate += 1
            stalled += 1
            bland = bland or stalled >= _BLAND_AFTER
        else:
            stalled = 0
        basis[r] = e
        p = rows[r][0]
        # the pivot row divided by its entry e, whose sign is s
        rows[r] = pivot = lowest_terms([s * v for v in p], s * p[e])
        for k, row in enumerate(rows):
            if k != r and row[0][e] != 0:
                rows[k] = _eliminate(row, pivot, e)
        if zs[e] != 0:
            z = _eliminate(z, pivot, e)
        max_den = max([max_den, z[1]] + [d for _, d in rows])
        if s > 0 and leaving < n:  # it left at its upper bound
            complement(leaving)
    # the structural values, complements undone
    basic = {bv: (a[-1], d) for (a, d), bv in zip(rows, basis) if bv < n}
    x, den = pair_form([basic.get(j, (0, 1)) for j in range(n)])
    x = lowest_terms([den - v if flip else v for v, flip in zip(x, flipped)], den)
    _verify_point(lp, x)
    value = Fraction(sum(map(mul, cost, x[0])), cost_den * x[1])
    # slacks cost 0, so a slack's reduced cost is minus its row's dual
    duals = lowest_terms([-zj for zj in z[0][n:]], z[1])
    certify(lp, duals, value)
    return LpSolution(x, value, duals, pivots, degenerate, bound_flips, max_den.bit_length())


def certify(lp: LinearProgram, duals: tuple[list[int], int], value: Fraction):
    """Prove that no feasible point of ``lp`` is worth more than ``value``.

    ``duals`` is one integer pair ``(ys, den)``, den > 0, of one y_r per row,
    equality rows first. For every feasible x, c.x = sum_j (c_j - a_j.y) x_j +
    y.(A x) <= UB(y) = sum_j max(0, c_j - a_j.y): A x is 0 on equality rows
    and <= 0 on inequality rows, where y_r >= 0, and 0 <= x_j <= 1. Raises
    :class:`SimplexError` unless y_r >= 0 on every inequality row and UB(y) ==
    ``value`` exactly, so a feasible point of that value is optimal.
    """
    (ys, y_den), rows = duals, lp.eq_rows + lp.ineq_rows
    if len(ys) != len(rows) or y_den <= 0:
        raise SimplexError(f"{len(ys)} duals over denominator {y_den} for {len(rows)} rows")
    if any(y < 0 for y in ys[len(lp.eq_rows):]):
        raise SimplexError("negative dual on an inequality row")
    # every c_j - a_j.y over one denominator, cost_den * y_den * row_den
    used = [(y, row) for y, row in zip(ys, rows) if y]
    row_den = functools.reduce(math.lcm, [d for _, (_, d) in used], 1)
    cost, cost_den = lp.objective
    reduced = [c * y_den * row_den for c in cost]
    for y, (num, d) in used:
        f = y * (row_den // d) * cost_den
        for j, a in enumerate(num):
            if a:
                reduced[j] -= f * a
    bound, den = sum(r for r in reduced if r > 0), cost_den * y_den * row_den
    if bound * value.denominator != value.numerator * den:
        raise SimplexError(f"dual bound {Fraction(bound, den)} != objective {value}")


def _verify_point(lp: LinearProgram, x: tuple[list[int], int]):
    """Raise :class:`SimplexError` unless the point ``x``, an integer pair
    ``(nums, den)`` with ``den > 0``, is in the box and meets every row."""
    num, den = x
    for j, v in enumerate(num):
        if not 0 <= v <= den:
            raise SimplexError(f"point violates the bounds of variable {j}")
    support = [(j, v) for j, v in enumerate(num) if v]  # a row's terms at x_j = 0 are 0
    n_eq = len(lp.eq_rows)
    for r, (coeffs, _) in enumerate(lp.eq_rows + lp.ineq_rows):
        total = sum(coeffs[j] * v for j, v in support)
        if total > 0 or (total and r < n_eq):
            raise SimplexError(f"point violates an {'' if r < n_eq else 'in'}equality row")
