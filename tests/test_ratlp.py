import math
import random
from fractions import Fraction

import pytest

from _lpgen import exact_lp, fractional_optimum, random_lp, rational_lp, rational_rows
from _oracles import GuardExceeded, fractions_of, vertex_enumerate
from anonvote import ratlp
from anonvote.experiments import make_theorem2_env, random_environment
from anonvote.rationals import integer_form, lowest_terms
from anonvote.ratlp import (
    LinearProgram,
    LpSolution,
    SimplexError,
    _verify_point,
    certify,
    solve,
)
from anonvote.welfare_opt import build_opt_lp


def F(x):
    return Fraction(x)


def box_lp(objective, eq=(), ineq=()):
    return exact_lp(objective, eq_rows=eq, ineq_rows=ineq)


# ----------------------------------------------------------------- basics


def test_single_variable_box():
    sol = solve(box_lp([1]))
    assert (fractions_of(sol.x), sol.objective_value) == ([F(1)], F(1))


def test_degenerate_optimal_face_returns_a_vertex():
    # x0 + x1 <= x2 <= 1: every point with x0 + x1 = 1 and x2 = 1 is optimal
    lp = box_lp([1, 1, 0], ineq=[[1, 1, -1]])
    sol = solve(lp)
    assert sol.objective_value == 1
    x = fractions_of(sol.x)
    assert x[0] + x[1] == 1 and x[2] == 1
    assert all(v in (F(0), F(1)) or 0 <= v <= 1 for v in x)


def test_equality_row():
    lp = box_lp([1, 2, 0], eq=[[1, 1, -1]])
    sol = solve(lp)
    assert sol.objective_value == 2
    assert fractions_of(sol.x) == [F(0), F(1), F(1)]


def test_homogeneous_equality_row_starts_feasible():
    # the slack of an equality row starts basic at 0, inside its [0, 0]
    # bounds, and x = 0 is already optimal
    sol = solve(box_lp([-1], eq=[[1]]))
    assert (fractions_of(sol.x), sol.pivots) == ([F(0)], 0)


@pytest.mark.parametrize(
    "eq",
    [
        [[1, 1, -1], [2, 2, -2]],
        [[1, 1, 0, -1], [1, 1, 0, -1], [0, 1, 1, -1]],
    ],
)
def test_redundant_equality_rows_agree_with_the_oracle(eq):
    # a redundant row's slack stays basic at 0, fixed by its [0, 0] bounds
    lp = box_lp([F(i + 1) for i in range(len(eq[0]))], eq=eq)
    sol = solve(lp)
    oracle = vertex_enumerate(lp)
    assert sol.objective_value == oracle.objective_value > 0


@pytest.mark.parametrize(
    "objective, row, message",
    [
        (([1, 1], 1), ([1, -1, 5], 1), "row 1 is"),  # one coefficient too long
        (([1, 1], 1), ([1, -1], -1), "row 1 is"),
        (([1, 1], 1), ([1, -1], 0), "row 1 is"),
        (([1, 1], 1), ((1, -1), 1), "row 1 is"),
        (([1, Fraction(1, 2)], 1), ([1, -1], 1), "objective is"),
        (([1, 1], True), ([1, -1], 1), "objective is"),
    ],
    ids=["long-row", "negative-den", "zero-den", "tuple-row", "fraction-entry", "bool-den"],
)
def test_a_malformed_program_is_refused(objective, row, message):
    with pytest.raises(ValueError, match=f"^{message} not a list of 2 ints over a positive int$"):
        LinearProgram(2, objective, eq_rows=[([1, 0], 1)], ineq_rows=[row])
    LinearProgram(2, ([1, 1], 1), eq_rows=[([1, 0], 1)], ineq_rows=[([1, -1], 3)])


def test_the_vertex_and_the_duals_are_integer_pairs_in_lowest_terms(monkeypatch):
    # one pair per vector, so equal vectors are equal pairs; the optimal
    # value is the one Fraction a solve makes
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(ratlp, "Fraction", counted)
    rng = random.Random(29)
    lps = [rational_lp(rng) for _ in range(60)]
    lps += [build_opt_lp(random_environment(rng, 3, 4))[0] for _ in range(10)]
    fractional = {"x": 0, "duals": 0}
    for lp in lps:
        made.clear()
        sol = solve(lp)
        assert len(made) == 1 and Fraction(*made[0]) == sol.objective_value
        rows = len(lp.eq_rows) + len(lp.ineq_rows)
        for name, (nums, den), size in (("x", sol.x, lp.num_vars), ("duals", sol.duals, rows)):
            assert type(nums) is list and len(nums) == size
            assert all(type(v) is int for v in nums) and type(den) is int and den > 0
            assert math.gcd(den, *nums) == 1
            fractional[name] += den > 1
        assert integer_form(fractions_of(sol.x)) == sol.x
    assert fractional["x"] >= 10 and fractional["duals"] >= 10


def test_eliminate_equals_the_plain_update_in_lowest_terms():
    # row - row[e] * pivot, pivot[e] == 1, with gcd(row[e], pivot den) taken
    # out first; rows share factors with the pivot, some have row[e] == 0,
    # and z rows stop before the pivot's right-hand side
    rng, shared, zeros = random.Random(37), 0, 0
    factors = [1, 2, 3, 4, 6, 10, 12, 35]
    for _ in range(400):
        width, scale = rng.randint(2, 7), rng.choice(factors)
        e = rng.randrange(width - 1)
        nums = [rng.randint(-9, 9) * rng.choice(factors) for _ in range(width)]
        nums[e] = rng.randint(1, 9) * scale
        q, dq = pivot = lowest_terms(nums, nums[e])
        nums = [rng.choice([0, rng.randint(-9, 9)]) * rng.choice(factors) for _ in range(width)]
        a, d = row = lowest_terms(nums[: width - rng.randint(0, 1)], rng.randint(1, 9) * scale)
        shared += a[e] != 0 and math.gcd(a[e], dq) > 1
        zeros += a[e] == 0
        assert ratlp._eliminate(row, pivot, e) == lowest_terms(
            [ai * dq - a[e] * qi for ai, qi in zip(a, q)], d * dq)
    assert shared >= 100 and zeros >= 50


# ------------------------------------------------------------- degeneracy


def test_blands_rule_terminates_on_the_classic_cycling_instance(monkeypatch):
    # Beale's instance, known to cycle under the primal's largest-coefficient
    # rule; its third row, x3 <= 1, is supplied by the unit box
    lp = box_lp(
        [F(3) / 4, -150, Fraction(1, 50), -6],
        ineq=[
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        ],
    )
    sol = solve(lp)
    assert sol.objective_value == Fraction(1, 20)
    assert fractions_of(sol.x) == [Fraction(1, 25), F(0), F(1), F(0)]
    assert (sol.pivots, sol.degenerate_pivots) == (1, 0)
    assert vertex_enumerate(lp).objective_value == Fraction(1, 20)
    monkeypatch.setattr(ratlp, "_BLAND_AFTER", 0)
    sol = solve(lp)
    assert fractions_of(sol.x) == [Fraction(1, 25), F(0), F(1), F(0)]
    assert (sol.pivots, sol.degenerate_pivots, sol.bound_flips) == (4, 0, 0)


@pytest.mark.parametrize("bland_after", [0, 1])
def test_blands_rule_alone_reaches_the_oracle_optimum(monkeypatch, bland_after):
    # the fallback from the first iteration (0): lowest-index leaving
    # variable, lowest-index entering column of least ratio, no flips; or
    # from the first iteration of dual step 0 (1), after any long-step flips
    # before it. Every vertex is certified by solve, and checked against the
    # oracle where its guard (12 variables, here 2,000 nodes) admits the
    # program
    rng = random.Random(43)
    lps = [rational_lp(rng) for _ in range(100)]
    lps += [build_opt_lp(random_environment(rng, 2 + t % 3, 4))[0] for t in range(12)]
    lps += [build_opt_lp(make_theorem2_env(n, 10, eps))[0]
            for n in (3, 4) for eps in (0, Fraction(1, 1000))]
    long_step = [solve(lp) for lp in lps]
    monkeypatch.setattr(ratlp, "_BLAND_AFTER", bland_after)
    checked = iterations = switched = 0
    for lp, first in zip(lps, long_step):
        sol, optimum = solve(lp), first.objective_value
        assert sol.objective_value == optimum
        assert sol.bound_flips == 0 or bland_after > 0
        # a run that flipped bounds, stalled and so left the long-step path
        switched += (sol.bound_flips > 0 and sol.degenerate_pivots > 0
                     and sol.pivots != first.pivots)
        iterations += sol.pivots
        try:
            assert optimum == vertex_enumerate(lp, node_budget=2_000).objective_value
            checked += 1
        except GuardExceeded:
            assert lp.num_vars >= 10
    assert checked >= 100
    if bland_after == 0:
        assert iterations >= 200
    else:  # 2 of the programs flip bounds and then switch to Bland's rule
        assert switched >= 1


# ------------------------------------------------------------ certificate


def _mutated_certificates(lp, sol):
    """(duals, value) pairs that no optimal dual certifies, the duals an
    integer pair as certify takes them."""
    y, value = fractions_of(sol.duals), sol.objective_value
    yield integer_form([d + Fraction(1, 7) for d in y]), value
    if value > 0:
        yield sol.duals, value / 2
        yield sol.duals, F(0)
    for r in range(len(lp.eq_rows), len(y)):
        yield integer_form(y[:r] + [Fraction(-1, 7)] + y[r + 1 :]), value


def test_certify_rejects_mutated_duals_and_values():
    rng = random.Random(5)
    for _ in range(200):
        lp, _ = build_opt_lp(random_environment(rng, 3, 4))
        sol = solve(lp)
        assert len(sol.duals[0]) == len(lp.eq_rows) + len(lp.ineq_rows)
        # one monotonicity row per agent type, and a positive optimum, so
        # every kind of mutation below is drawn
        assert lp.ineq_rows and sol.objective_value > 0
        certify(lp, sol.duals, sol.objective_value)
        for duals, value in _mutated_certificates(lp, sol):
            with pytest.raises(SimplexError):
                certify(lp, duals, value)


def test_certify_sums_duals_and_rows_of_several_denominators():
    # c = A^T y + d with d > 0 and x = (1, 1, 1) on both rows, so x is worth
    # UB(y) = sum(d): y certifies it, whatever the denominators
    y = [Fraction(1, 3), Fraction(2, 5)]
    eq, ineq = [Fraction(2, 3), Fraction(-2, 3), F(0)], [F(0), Fraction(3, 4), Fraction(-3, 4)]
    d = [Fraction(1, 21), Fraction(1, 11), Fraction(1, 2)]
    lp = box_lp([dj + y[0] * a + y[1] * b for dj, a, b in zip(d, eq, ineq)], eq=[eq], ineq=[ineq])
    value = sum(d)
    certify(lp, integer_form(y), value)
    assert solve(lp).objective_value == value
    solution = LpSolution(([1] * 3, 1), value, integer_form(y), 0, 0, 0, 0)
    mutations = list(_mutated_certificates(lp, solution))
    assert len(mutations) == 4
    for duals, wrong in mutations:
        with pytest.raises(SimplexError):
            certify(lp, duals, wrong)


def test_certify_needs_one_dual_per_row():
    lp = box_lp([1, 1], ineq=[[1, -1]])
    sol = solve(lp)
    ys, den = sol.duals
    assert len(ys) == 1
    with pytest.raises(SimplexError):
        certify(lp, (ys + [0], den), sol.objective_value)
    # over a positive denominator: with -1, max -x over the box would be
    # certified at -1, though x = 0 is worth 0
    lp = box_lp([-1])
    certify(lp, ([], 1), F(0))
    with pytest.raises(SimplexError, match="0 duals over denominator -1 for 0 rows"):
        certify(lp, ([], -1), F(-1))


# ------------------------------------------------------------ determinism


def test_solve_is_deterministic():
    rng = random.Random(2)
    lp = random_lp(rng)
    first = solve(lp)
    second = solve(lp)
    assert first.x == second.x
    assert first.pivots == second.pivots


def test_positive_scaling_keeps_the_vertex():
    rng = random.Random(6)
    for _ in range(10):
        lp = random_lp(rng)
        base = solve(lp)
        objective, eq_rows, ineq_rows = rational_rows(lp)
        scaled = exact_lp([Fraction(3, 2) * c for c in objective], eq_rows, ineq_rows)
        other = solve(scaled)
        assert other.x == base.x
        assert other.objective_value == Fraction(3, 2) * base.objective_value


def _scale_rows(rng, lp):
    """Multiply every row by its own random positive rational."""

    def scaled(rows):
        out = []
        for coeffs in rows:
            k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            out.append([k * a for a in coeffs])
        return out

    objective, eq_rows, ineq_rows = rational_rows(lp)
    return exact_lp(objective, scaled(eq_rows), scaled(ineq_rows))


def test_row_scaling_keeps_the_optimum():
    # scaling a row keeps its feasible set, so the certified optimum stays;
    # the path may not, since a slack's reduced cost scales with its row
    rng = random.Random(11)
    fractional = 0
    for _ in range(150):
        lp = rational_lp(rng)
        base = solve(lp)
        fractional += fractional_optimum(base)
        scaled = solve(_scale_rows(rng, lp))
        assert scaled.objective_value == base.objective_value
    assert fractional >= 20  # rows, not only the box, shape many of the vertices


def test_pivot_counters_are_bounded_by_the_pivot_count():
    # a breakpoint passed is flipped inside an iteration, so flips are not
    # bounded by iterations; iterations of dual step 0 are
    rng = random.Random(12)
    for _ in range(100):
        sol = solve(rational_lp(rng))
        assert 0 <= sol.degenerate_pivots <= sol.pivots
        assert sol.bound_flips >= 0 and sol.max_den_bits >= 1
    start = solve(box_lp([1]))  # the box optimum x = 1 is feasible: no iteration
    assert (start.pivots, start.degenerate_pivots, start.bound_flips) == (0, 0, 0)
    flip = solve(build_opt_lp(make_theorem2_env(4, 10, Fraction(1, 1000)))[0])
    assert (flip.pivots, flip.degenerate_pivots, flip.bound_flips) == (5, 0, 14)


@pytest.mark.parametrize(
    "x, message",
    [
        # the nonzeros before the last cancel on the equality row
        ([1, 1, 0, Fraction(1, 2), 0], "point violates an equality row"),
        # the equality row holds; the inequality row gets -1 + 3/2 > 0
        ([1, 1, Fraction(1, 2), 0, 0], "point violates an inequality row"),
        # column 4 is 0 in every row, so only the bound check can see it
        ([0, 0, 0, 0, 2], "point violates the bounds of variable 4"),
        ([0, 0, 0, 0, Fraction(-1, 3)], "point violates the bounds of variable 4"),
    ],
    ids=["equality-last-nonzero", "inequality-fractional", "above-box", "below-box"],
)
def test_the_feasibility_check_refuses_with_its_message(x, message):
    lp = box_lp([0] * 5, eq=[[1, -1, 0, 2, 0]], ineq=[[-1, 0, 3, 0, 0]])
    with pytest.raises(SimplexError) as refused:
        _verify_point(lp, integer_form(x))
    assert str(refused.value) == message
    _verify_point(lp, integer_form([1, 1, Fraction(1, 3), 0, 1]))  # both rows 0, in the box


def test_the_feasibility_check_sums_coordinates_of_several_denominators():
    # 3/2 * 1/3 - 3 * 1/6 = 0 exactly; -1/4 * 1/3 + 1/2 * 1/6 = 0, on the boundary
    lp = box_lp([0] * 3, eq=[[Fraction(3, 2), -3, 0]], ineq=[[Fraction(-1, 4), Fraction(1, 2), 0]])
    _verify_point(lp, integer_form([Fraction(1, 3), Fraction(1, 6), 0]))
    with pytest.raises(SimplexError) as refused:
        _verify_point(lp, integer_form([Fraction(1, 3), Fraction(1, 3), 0]))  # off by 1/6
    assert str(refused.value) == "point violates an equality row"
    lp = box_lp([0] * 3, ineq=[[Fraction(-1, 4), Fraction(1, 2), 0]])
    with pytest.raises(SimplexError) as refused:
        _verify_point(lp, integer_form([Fraction(1, 3), Fraction(1, 3), 0]))
    assert str(refused.value) == "point violates an inequality row"


# -------------------------------------------------------- oracle agreement


def test_oracle_agrees_with_simplex_on_random_instances():
    rng = random.Random(17)
    fractional = 0
    for _ in range(40):
        lp = random_lp(rng)
        fast = solve(lp)
        assert fast.objective_value == vertex_enumerate(lp).objective_value
        fractional += fractional_optimum(fast)
    assert fractional >= 5  # the generator must exercise vertices the rows determine


def test_oracle_guard_raises():
    lp = box_lp([1] * 13)
    with pytest.raises(GuardExceeded):
        vertex_enumerate(lp)
    lp_small = box_lp([1, 1], ineq=[[1, -1]])
    with pytest.raises(GuardExceeded):
        vertex_enumerate(lp_small, node_budget=1)


def test_two_agent_uniform_welfare_program_by_both_engines():
    # variables: allocations at the multisets {-1,-1}, {-1,1}, {1,1};
    # interim monotonicity for one uniform agent: (a+b)/2 <= (b+c)/2
    half = Fraction(1, 2)
    lp = box_lp(
        [-half, 0, half],
        ineq=[[half, 0, -half]],
    )
    sol = solve(lp)
    oracle = vertex_enumerate(lp)
    assert sol.objective_value == oracle.objective_value == half


def test_oracle_agrees_with_simplex_on_rational_instances():
    rng = random.Random(23)
    fractional = 0
    for _ in range(200):
        lp = rational_lp(rng)
        fast = solve(lp)
        assert fast.objective_value == vertex_enumerate(lp).objective_value
        fractional += fractional_optimum(fast)
    assert fractional >= 25
