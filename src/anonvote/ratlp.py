"""Exact linear programming over arbitrary-precision rationals.

Two independent engines:

* :func:`solve`: a bounded-variable simplex for maximization. Every row
  gets one slack column, fixed at [0, 0] on an equality row and in
  [0, inf) on an inequality row; a phase 1 over artificial columns runs
  only for rows whose slack would start outside those bounds, so an LP
  with zero right-hand sides (the welfare program) starts feasible. Pivots
  follow Bland's rule (lowest eligible index enters, lowest-index blocking
  variable leaves), which makes runs deterministic and guarantees
  termination on degenerate instances. Each tableau row is integers over
  one positive denominator, divided by its gcd after every update, so a
  pivot does no gcd per entry; basic values, bounds and the ratio test stay
  Fractions. No floating point and no tolerances appear anywhere.

* :func:`vertex_enumerate`: an exhaustive search over candidate vertices
  (assignments of variables to a bound or to the set determined by active
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

from .rationals import format_rational, parse_rational

__all__ = ["LinearProgram", "LpSolution", "SimplexError", "GuardExceeded", "solve",
           "vertex_enumerate"]


class SimplexError(RuntimeError):
    """Internal solver invariant failed; indicates a bug, not bad input."""


class GuardExceeded(RuntimeError):
    """Instance too large for the enumeration oracle's work budget."""


class LinearProgram:
    """max c.x subject to eq rows, <= rows, and per-variable bounds.

    ``upper[j]`` may be None for an unbounded-above variable; lower bounds
    must be finite. Row format: ``(coefficients, rhs)``.
    """

    __slots__ = ("num_vars", "objective", "eq_rows", "ineq_rows", "lower", "upper")

    def __init__(self, num_vars, objective, eq_rows=(), ineq_rows=(), lower=None, upper=None):
        self.num_vars = num_vars
        self.objective = [parse_rational(c) for c in objective]
        if len(self.objective) != num_vars:
            raise ValueError("objective length mismatch")
        self.eq_rows, self.ineq_rows = (
            [([parse_rational(a) for a in coeffs], parse_rational(rhs)) for coeffs, rhs in block]
            for block in (eq_rows, ineq_rows)
        )
        for coeffs, _ in self.eq_rows + self.ineq_rows:
            if len(coeffs) != num_vars:
                raise ValueError("constraint row length mismatch")
        if lower is None:
            lower = [Fraction(0)] * num_vars
        if upper is None:
            upper = [Fraction(1)] * num_vars
        self.lower = [parse_rational(l) for l in lower]
        self.upper = [None if u is None else parse_rational(u) for u in upper]
        if len(self.lower) != num_vars or len(self.upper) != num_vars:
            raise ValueError("bounds length mismatch")
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if hi is not None and lo > hi:
                raise ValueError(f"variable {j}: lower bound {lo} above upper bound {hi}")

    def debug_dump(self) -> str:
        """Plain-text matrix form for external cross-checking."""
        lines = [f"maximize {' '.join(format_rational(c) for c in self.objective)}"]
        for block, sense in ((self.eq_rows, "=="), (self.ineq_rows, "<=")):
            lines += [
                f"{' '.join(format_rational(a) for a in coeffs)} {sense} {format_rational(rhs)}"
                for coeffs, rhs in block
            ]
        bounds = " ".join(
            f"[{format_rational(lo)},{'inf' if hi is None else format_rational(hi)}]"
            for lo, hi in zip(self.lower, self.upper)
        )
        lines.append("bounds " + bounds)
        return "\n".join(lines)


class LpSolution:
    """Solver outcome: status, an exact vertex when optimal, and pivot counters.

    ``degenerate_pivots`` counts pivots of step length 0, ``bound_flips`` those
    where the entering variable reaches its own bound, and ``max_den_bits`` is
    the bit length of the largest row denominator the tableau reached.
    """

    __slots__ = ("status", "x", "objective_value", "basis", "pivots",
                 "degenerate_pivots", "bound_flips", "max_den_bits")

    def __init__(self, status, x=None, objective_value=None, basis=frozenset(), pivots=0,
                 degenerate_pivots=0, bound_flips=0, max_den_bits=0):
        self.status = status
        self.x = x
        self.objective_value = objective_value
        self.basis = basis
        self.pivots = pivots
        self.degenerate_pivots = degenerate_pivots
        self.bound_flips = bound_flips
        self.max_den_bits = max_den_bits

    def __repr__(self):
        if self.status != "optimal":
            return f"LpSolution({self.status})"
        return f"LpSolution(optimal, value={self.objective_value}, pivots={self.pivots})"


_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


def _times(t: Fraction, num: int, den: int) -> Fraction:
    """t * num / den for integers num and den > 0, with one normalization."""
    return Fraction(t.numerator * num, t.denominator * den) if t else t


class _Tableau:
    """Mutable simplex state over shifted variables (all lower bounds at 0).

    Columns are the structural variables, then one slack per row (bounds
    [0, 0] on an equality row, [0, inf) on an inequality row), then one
    artificial for each row whose slack would start outside its bounds.
    Every other row starts with its slack basic, so phase 1 runs only when
    some row starts infeasible.

    Each constraint row and the reduced-cost row ``z`` is a pair
    ``(integers, positive denominator)`` standing for the exact rational
    row, so Bland's rule sees the same signs and ratios, and takes the same
    pivots, as it would over Fractions.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        self.n_struct = n
        self.shift = list(lp.lower)
        rows = [(*row, True) for row in lp.eq_rows] + [(*row, False) for row in lp.ineq_rows]
        m = len(rows)
        shifted = [rhs - sum((c * lo for c, lo in zip(coeffs, self.shift)), Fraction(0))
                   for coeffs, rhs, _ in rows]
        starts_infeasible = [b < 0 or (is_eq and b != 0) for (_, _, is_eq), b in zip(rows, shifted)]
        self.artificials = list(range(n + m, n + m + sum(starts_infeasible)))
        self.num_cols = n + m + len(self.artificials)
        self.ub: list = [None if hi is None else hi - lo for lo, hi in zip(lp.lower, lp.upper)]
        self.ub += [Fraction(0) if is_eq else None for _, _, is_eq in rows]
        self.ub += [None] * len(self.artificials)
        self.x: list[Fraction] = [Fraction(0)] * self.num_cols
        self.status: list[int] = [_AT_LOWER] * self.num_cols
        self.basis: list[int] = []
        self.rows: list[tuple[list[int], int]] = []
        self.pivots = self.degenerate = self.flips = 0
        self.max_den = 1

        next_art = iter(self.artificials)
        for r, ((coeffs, _, _), b, bad) in enumerate(zip(rows, shifted, starts_infeasible)):
            row = list(coeffs) + [Fraction(0)] * (self.num_cols - n)
            row[n + r] = Fraction(1)
            bv = n + r
            if bad:
                # keep the artificial's column +1 and its start value >= 0
                if b < 0:
                    row = [-a for a in row]
                    b = -b
                bv = next(next_art)
                row[bv] = Fraction(1)
            self.rows.append(self._integer_row(row))
            self.basis.append(bv)
            self.status[bv] = _BASIC
            self.x[bv] = b

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

    def price(self, cost: list[Fraction]):
        """Set ``z`` to the reduced costs of ``cost`` under the current basis."""
        self.z = self._integer_row(list(cost) + [Fraction(0)] * (self.num_cols - len(cost)))
        for r, bv in enumerate(self.basis):
            if self.z[0][bv] != 0:
                self.z = self._eliminate(self.z, self.rows[r], bv)

    def optimize(self) -> str:
        """Run Bland pivoting to optimality; returns 'optimal' or 'unbounded'."""
        while True:
            e, direction = -1, 0
            for j, zj in enumerate(self.z[0]):
                if zj == 0 or self.status[j] == _BASIC or self.ub[j] == 0:
                    continue  # basic, or fixed at 0: cannot improve
                if zj > 0 and self.status[j] == _AT_LOWER:
                    e, direction = j, 1
                    break
                if zj < 0 and self.status[j] == _AT_UPPER:
                    e, direction = j, -1
                    break
            if e == -1:
                return "optimal"
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
                return "unbounded"
            t_min = min(t for t, _, _, _ in candidates)
            _, _, row_idx, hit = min((c for c in candidates if c[0] == t_min), key=lambda c: c[1])
            self.pivots += 1
            if t_min == 0:
                self.degenerate += 1
            else:
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
    """Exact simplex, with a phase 1 only for rows that start infeasible.

    Returns the optimal vertex, or the status infeasible or unbounded.
    """
    tab = _Tableau(lp)

    if tab.artificials:
        arts = len(tab.artificials)  # the last columns
        tab.price([Fraction(0)] * (tab.num_cols - arts) + [Fraction(-1)] * arts)
        if tab.optimize() != "optimal":
            raise SimplexError("phase 1 cannot be unbounded")
        if any(tab.x[a] != 0 for a in tab.artificials):
            return LpSolution("infeasible", **tab.counters())
        # a basic artificial at 0 is now a fixed basic variable
        for art in tab.artificials:
            tab.ub[art] = Fraction(0)

    tab.price(lp.objective)
    if tab.optimize() == "unbounded":
        return LpSolution("unbounded", **tab.counters())

    x = [tab.shift[j] + tab.x[j] for j in range(tab.n_struct)]
    _verify_point(lp, x)
    value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
    basis = frozenset(bv for bv in tab.basis if bv < tab.n_struct)
    return LpSolution("optimal", x, value, basis, **tab.counters())


def _verify_point(lp: LinearProgram, x: Sequence[Fraction]):
    for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        if x[j] < lo or (hi is not None and x[j] > hi):
            raise SimplexError(f"solution violates bounds of variable {j}")
    for coeffs, rhs in lp.eq_rows:
        if sum((c * v for c, v in zip(coeffs, x)), Fraction(0)) != rhs:
            raise SimplexError("solution violates an equality row")
    for coeffs, rhs in lp.ineq_rows:
        if sum((c * v for c, v in zip(coeffs, x)), Fraction(0)) > rhs:
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


def vertex_enumerate(lp: LinearProgram, max_vars: int = 12, node_budget: int = 5_000_000) -> LpSolution:
    """Exhaustive exact maximum over the feasible region's vertices.

    Every variable is either pinned at a bound or left to be determined by
    a choice of active rows; all such candidate vertices are covered. The
    search discards a subtree only when interval arithmetic proves it
    infeasible or its best possible objective cannot beat the incumbent,
    so the result is the exact optimum. Requires finite bounds on every
    variable (the feasible region is then a polytope and the maximum, if
    feasible, is attained at an enumerated vertex).

    ``max_vars`` guards instance size and ``node_budget`` caps search work;
    exceeding either raises :class:`GuardExceeded`.
    """
    if lp.num_vars > max_vars:
        raise GuardExceeded(f"{lp.num_vars} variables exceed the oracle guard {max_vars}")
    for j, hi in enumerate(lp.upper):
        if hi is None:
            raise ValueError(f"vertex enumeration needs finite bounds (variable {j})")

    rows = [(*row, True) for row in lp.eq_rows] + [(*row, False) for row in lp.ineq_rows]
    n = lp.num_vars
    c = lp.objective
    lower, upper = lp.lower, lp.upper

    in_some_row = [any(row[0][j] != 0 for row in rows) for j in range(n)]
    loose = [j for j in range(n) if not in_some_row[j]]
    loose_x = {j: (upper[j] if c[j] > 0 else lower[j]) for j in loose}
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
    eq_idx = [i for i, row in enumerate(rows) if row[2]]
    ineq_idx = [i for i, row in enumerate(rows) if not row[2]]
    ineq_subsets = [list(s) for size in range(len(ineq_idx) + 1)
                    for s in itertools.combinations(ineq_idx, size)]

    # incremental per-row interval state over not-yet-pinned variables
    fixed_sum = [Fraction(0)] * n_rows
    int_lo = [Fraction(0)] * n_rows
    int_hi = [Fraction(0)] * n_rows
    for i, (coeffs, _, _) in enumerate(rows):
        for j in range(n):
            a = coeffs[j]
            if a == 0 or not in_some_row[j]:
                continue
            pts = (a * lower[j], a * upper[j])
            int_lo[i] += min(pts)
            int_hi[i] += max(pts)

    obj_rest = sum((max(c[j] * lower[j], c[j] * upper[j]) for j in order), Fraction(0))

    state: dict[int, tuple[str, Fraction | None]] = {}
    best: dict = {"value": None, "x": None, "free": None}
    nodes = {"count": 0}

    def row_feasible() -> bool:
        for i, (_, rhs, is_eq) in enumerate(rows):
            lo = fixed_sum[i] + int_lo[i]
            hi = fixed_sum[i] + int_hi[i]
            if is_eq:
                if rhs < lo or rhs > hi:
                    return False
            elif lo > rhs:
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
            rhs_vec = [rows[i][1] - fixed_sum[i] for i in active]
            outcome = _gauss_unique(matrix, rhs_vec)
            if outcome[0] != "unique":
                continue
            y = outcome[1]
            if any(not lower[j] <= v <= upper[j] for j, v in zip(free, y)):
                continue
            free_vals = dict(zip(free, y))
            ok = True
            for i in ineq_idx:
                if i in subset:
                    continue
                total = fixed_sum[i] + sum(rows[i][0][j] * free_vals[j] for j in free)
                if total > rows[i][1]:
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
        gain = max(c[j] * lower[j], c[j] * upper[j])
        new_rest = rest_bound - gain
        if lower[j] == upper[j]:
            states = (("pin", lower[j]),)
        elif c[j] < 0:
            states = (("pin", lower[j]), ("pin", upper[j]), ("free", None))
        else:
            states = (("pin", upper[j]), ("pin", lower[j]), ("free", None))
        touched = [i for i in range(n_rows) if rows[i][0][j] != 0]
        contrib_lo, contrib_hi = {}, {}
        for i in touched:
            a = rows[i][0][j]
            pts = (a * lower[j], a * upper[j])
            contrib_lo[i] = min(pts)
            contrib_hi[i] = max(pts)
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
                fixed_sum[i] += rows[i][0][j] * val
                int_lo[i] -= contrib_lo[i]
                int_hi[i] -= contrib_hi[i]
            state[j] = ("pin", val)
            descend(pos + 1, assigned_obj + c[j] * val, new_rest, free)
            del state[j]
            for i in touched:
                fixed_sum[i] -= rows[i][0][j] * val
                int_lo[i] += contrib_lo[i]
                int_hi[i] += contrib_hi[i]

    descend(0, Fraction(0), obj_rest, [])

    if best["value"] is None:
        return LpSolution("infeasible")
    x = [Fraction(0)] * n
    for j in loose:
        x[j] = loose_x[j]
    for j, v in best["x"].items():
        x[j] = v
    value = best["value"] + loose_value
    _verify_point(lp, x)
    return LpSolution("optimal", x, value, best["free"], 0)
