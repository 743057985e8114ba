"""Exact linear programming over arbitrary-precision rationals.

Both engines take one form, the form of the welfare program: maximize c.x
over the unit box 0 <= x <= 1 subject to homogeneous rows a.x == 0 and
a.x <= 0. x = 0 is always feasible and the box is bounded, so every
program has an optimal vertex; there is no infeasible or unbounded case.

* :func:`solve`: a bounded-variable simplex for maximization. Every row
  gets one slack column, fixed at [0, 0] on an equality row and in
  [0, inf) on an inequality row, and the slacks form the starting basis at
  x = 0. The entering column is the eligible one with the largest reduced
  cost (Dantzig's rule, lowest index on ties). After 50 degenerate pivots
  in a row the solve switches to Bland's rule (lowest eligible index
  enters) for good, which guarantees termination; the leaving variable is
  always the lowest-index blocking one, so runs are deterministic. Each
  tableau row is integers over one positive denominator, divided by its
  gcd after every update, so a pivot does no gcd per entry; basic values,
  bounds and the ratio test stay Fractions. No floating point and no
  tolerances appear anywhere.

* :func:`certify`: the exact optimality proof every :func:`solve` result
  passes. The duals y are read off the final tableau's slack columns. In
  this form, any y with y >= 0 on the inequality rows bounds the optimum by
  UB(y) = sum_j max(0, c_j - a_j.y) (Neumaier & Shcherbina, Math. Prog.
  2004), so a feasible point whose value equals UB(y) is optimal, whichever
  pivot rule or engine proposed it.

* :func:`vertex_enumerate`: an exhaustive search over candidate vertices
  (assignments of variables to 0, to 1 or to the set determined by active
  rows), used as an oracle against :func:`solve`. It shares no pivoting
  logic with the simplex; subtrees are discarded only when exact interval
  arithmetic proves them infeasible or no better than the incumbent, so the
  returned maximum is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .rationals import parse_rational

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "GuardExceeded", "solve",
           "certify", "vertex_enumerate"]


class SimplexError(RuntimeError):
    """Internal solver invariant failed; indicates a bug, not bad input."""


class GuardExceeded(RuntimeError):
    """Instance too large for the enumeration oracle's work budget."""


class LinearProgram:
    """max c.x subject to a.x == 0 (eq rows), a.x <= 0 (ineq rows), 0 <= x <= 1.

    Every row is a plain list of ``num_vars`` coefficients. This is the form
    of the welfare program, so x = 0 is always feasible and the optimum is
    always attained.
    """

    __slots__ = ("num_vars", "objective", "eq_rows", "ineq_rows")

    def __init__(self, num_vars, objective, eq_rows=(), ineq_rows=()):
        self.num_vars = num_vars
        self.objective = [parse_rational(c) for c in objective]
        self.eq_rows = [[parse_rational(a) for a in coeffs] for coeffs in eq_rows]
        self.ineq_rows = [[parse_rational(a) for a in coeffs] for coeffs in ineq_rows]
        if len(self.objective) != num_vars:
            raise ValueError("objective length mismatch")
        if any(len(coeffs) != num_vars for coeffs in self.eq_rows + self.ineq_rows):
            raise ValueError("constraint row length mismatch")


class LpSolution:
    """An exact optimal vertex, its duals and the pivot counters that reached it.

    ``duals`` holds one y_r per row, equality rows first, the certificate
    :func:`certify` accepted (empty from :func:`vertex_enumerate`).
    ``degenerate_pivots`` counts pivots of step length 0, ``bound_flips`` those
    where the entering variable reaches its own bound, and ``max_den_bits`` is
    the bit length of the largest row denominator the tableau reached.
    """

    __slots__ = ("x", "objective_value", "basis", "duals", "pivots",
                 "degenerate_pivots", "bound_flips", "max_den_bits")

    def __init__(self, x, objective_value, basis=frozenset(), duals=(), pivots=0,
                 degenerate_pivots=0, bound_flips=0, max_den_bits=0):
        self.x = x
        self.objective_value = objective_value
        self.basis = basis
        self.duals = duals
        self.pivots = pivots
        self.degenerate_pivots = degenerate_pivots
        self.bound_flips = bound_flips
        self.max_den_bits = max_den_bits

    def __repr__(self):
        return f"LpSolution(value={self.objective_value}, pivots={self.pivots})"


_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule takes over


def _times(t: Fraction, num: int, den: int) -> Fraction:
    """t * num / den for integers num and den > 0, with one normalization."""
    return Fraction(t.numerator * num, t.denominator * den) if t else t


class _Tableau:
    """Mutable simplex state, starting from the all-slack basis at x = 0.

    Columns are the structural variables (bounds [0, 1]), then one slack per
    row (bounds [0, 0] on an equality row, [0, inf) on an inequality row).
    Every right-hand side is 0, so each slack starts basic at 0 and inside
    its bounds.

    Each constraint row and the reduced-cost row ``z`` is a pair
    ``(integers, positive denominator)`` standing for the exact rational
    row, so pricing compares numerators and sees the same order, and takes
    the same pivots, as it would over Fractions.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, len(lp.eq_rows) + len(lp.ineq_rows)
        self.n_struct = n
        self.num_cols = n + m
        self.ub: list = [Fraction(1)] * n + [Fraction(0)] * len(lp.eq_rows)
        self.ub += [None] * len(lp.ineq_rows)
        self.x: list[Fraction] = [Fraction(0)] * self.num_cols
        self.status: list[int] = [_AT_LOWER] * n + [_BASIC] * m
        self.basis: list[int] = list(range(n, self.num_cols))
        self.rows: list[tuple[list[int], int]] = []
        self.pivots = self.degenerate = self.flips = 0
        self.max_den = 1
        for r, coeffs in enumerate(lp.eq_rows + lp.ineq_rows):
            row = coeffs + [Fraction(0)] * m
            row[n + r] = Fraction(1)
            self.rows.append(self._integer_row(row))

    def _reduced(self, num: list[int], den: int) -> tuple[list[int], int]:
        """num / den with the common content divided out."""
        g = math.gcd(den, *num)
        if g > 1:
            num, den = [v // g for v in num], den // g
        self.max_den = max(self.max_den, den)
        return num, den

    def _integer_row(self, values: list[Fraction]) -> tuple[list[int], int]:
        den = math.lcm(*(v.denominator for v in values))
        return self._reduced([v.numerator * (den // v.denominator) for v in values], den)

    def _eliminate(self, row, pivot, e: int):
        """row - row[e] * pivot, where pivot's entry e is 1."""
        (a, d), (q, dq) = row, pivot
        f = a[e]
        return self._reduced([ai * dq - f * qi for ai, qi in zip(a, q)], d * dq)

    def optimize(self, cost: list[Fraction]):
        """Price ``cost`` over the slack basis, then pivot to optimality.

        Dantzig's rule picks the entering column until ``_BLAND_AFTER``
        degenerate pivots in a row, and Bland's rule from then on.
        """
        self.z = self._integer_row(list(cost) + [Fraction(0)] * (self.num_cols - len(cost)))
        bland, stalled = False, 0
        while True:
            e, best = -1, 0
            for j, zj in enumerate(self.z[0]):
                if zj == 0 or self.status[j] == _BASIC or self.ub[j] == 0:
                    continue  # basic, or fixed at 0: cannot improve
                # > 0 exactly when moving x_j off its bound raises the objective
                gain = zj if self.status[j] == _AT_LOWER else -zj
                if gain > best:
                    e, best = j, gain
                    if bland:
                        break
            if e == -1:
                return
            direction = 1 if self.z[0][e] > 0 else -1
            # ratio test: how far can x[e] move before a bound blocks it
            candidates = []
            if self.ub[e] is not None:
                candidates.append((self.ub[e], e, None, None))
            for r, bv in enumerate(self.basis):
                a, d = self.rows[r]
                g = direction * a[e]
                if g > 0:
                    candidates.append((_times(self.x[bv], d, g), bv, r, _AT_LOWER))
                elif g < 0 and self.ub[bv] is not None:
                    candidates.append((_times(self.ub[bv] - self.x[bv], d, -g), bv, r, _AT_UPPER))
            if not candidates:
                raise SimplexError("unbounded ray inside the unit box")
            t_min = min(t for t, _, _, _ in candidates)
            _, _, row_idx, hit = min((c for c in candidates if c[0] == t_min), key=lambda c: c[1])
            self.pivots += 1
            if t_min == 0:
                self.degenerate += 1
                stalled += 1
                bland = bland or stalled >= _BLAND_AFTER
            else:
                stalled = 0
                step = direction * t_min
                self.x[e] += step
                for r, bv in enumerate(self.basis):
                    a, d = self.rows[r]
                    if a[e] != 0:
                        self.x[bv] -= _times(step, a[e], d)
            if row_idx is None:
                self.flips += 1
                self.status[e] = _AT_UPPER if self.status[e] == _AT_LOWER else _AT_LOWER
                continue
            self.status[self.basis[row_idx]] = hit
            self.status[e] = _BASIC
            self.basis[row_idx] = e
            p = self.rows[row_idx][0]
            piv = p[e]
            if piv == 0:
                raise SimplexError("zero pivot selected")
            # the pivot row divided by its entry e
            self.rows[row_idx] = pivot = self._reduced([a if piv > 0 else -a for a in p], abs(piv))
            for r, row in enumerate(self.rows):
                if r != row_idx and row[0][e] != 0:
                    self.rows[r] = self._eliminate(row, pivot, e)
            if self.z[0][e] != 0:
                self.z = self._eliminate(self.z, pivot, e)

    def counters(self) -> dict:
        return {"pivots": self.pivots, "degenerate_pivots": self.degenerate,
                "bound_flips": self.flips, "max_den_bits": self.max_den.bit_length()}


def solve(lp: LinearProgram) -> LpSolution:
    """Exact simplex from the slack basis at x = 0; returns the optimal vertex.

    The vertex is checked feasible and certified optimal by its duals
    before it is returned; a failure of either raises :class:`SimplexError`.
    """
    tab = _Tableau(lp)
    tab.optimize(lp.objective)
    x = tab.x[: tab.n_struct]
    _verify_point(lp, x)
    value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
    z, den = tab.z
    # slacks cost 0, so a slack's reduced cost is minus its row's dual
    duals = [Fraction(-zj, den) for zj in z[tab.n_struct:]]
    certify(lp, duals, value)
    basis = frozenset(bv for bv in tab.basis if bv < tab.n_struct)
    return LpSolution(x, value, basis, duals, **tab.counters())


def certify(lp: LinearProgram, duals: Sequence[Fraction], value: Fraction):
    """Prove that no feasible point of ``lp`` is worth more than ``value``.

    ``duals`` holds one y_r per row, equality rows first. For every feasible
    x, c.x = sum_j (c_j - a_j.y) x_j + y.(A x) <= UB(y) = sum_j max(0,
    c_j - a_j.y): A x is 0 on equality rows and <= 0 on inequality rows,
    where y_r >= 0, and 0 <= x_j <= 1. Raises :class:`SimplexError` unless
    y_r >= 0 on every inequality row and UB(y) == ``value`` exactly, so a
    feasible point of that value is optimal.
    """
    rows = lp.eq_rows + lp.ineq_rows
    if len(duals) != len(rows):
        raise SimplexError(f"{len(duals)} duals for {len(rows)} rows")
    if any(y < 0 for y in duals[len(lp.eq_rows):]):
        raise SimplexError("negative dual on an inequality row")
    reduced = list(lp.objective)
    for y, coeffs in zip(duals, rows):
        if y:
            for j, a in enumerate(coeffs):
                if a:
                    reduced[j] -= y * a
    bound = sum((r for r in reduced if r > 0), Fraction(0))
    if bound != value:
        raise SimplexError(f"dual bound {bound} != objective {value}")


def _verify_point(lp: LinearProgram, x: Sequence[Fraction]):
    for j, v in enumerate(x):
        if not 0 <= v <= 1:
            raise SimplexError(f"solution violates bounds of variable {j}")
    for coeffs in lp.eq_rows:
        if sum((c * v for c, v in zip(coeffs, x)), Fraction(0)) != 0:
            raise SimplexError("solution violates an equality row")
    for coeffs in lp.ineq_rows:
        if sum((c * v for c, v in zip(coeffs, x)), Fraction(0)) > 0:
            raise SimplexError("solution violates an inequality row")


# --------------------------------------------------------------------------
# Independent enumeration oracle
# --------------------------------------------------------------------------


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

    rows = [(coeffs, True) for coeffs in lp.eq_rows] + [(coeffs, False) for coeffs in lp.ineq_rows]
    n = lp.num_vars
    c = lp.objective

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
    best: dict = {"value": None, "x": None, "free": None}
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
                best["free"] = frozenset(free)

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
    _verify_point(lp, x)
    return LpSolution(x, value, best["free"])
