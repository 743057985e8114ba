import random
from fractions import Fraction

import pytest

from _lpgen import random_lp, rational_lp
from anonvote.ratlp import GuardExceeded, LinearProgram, solve, vertex_enumerate


def F(x):
    return Fraction(x)


def box_lp(objective, eq=(), ineq=(), lower=None, upper=None):
    return LinearProgram(
        num_vars=len(objective),
        objective=objective,
        eq_rows=eq,
        ineq_rows=ineq,
        lower=lower,
        upper=upper,
    )


# ----------------------------------------------------------------- basics


def test_single_variable_box():
    sol = solve(box_lp([1]))
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [F(1)], F(1))


def test_degenerate_optimal_face_returns_a_vertex():
    lp = box_lp([1, 1], ineq=[([1, 1], 1)])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert sol.x[0] + sol.x[1] == 1
    assert all(v in (F(0), F(1)) or 0 <= v <= 1 for v in sol.x)


def test_equality_row():
    lp = box_lp([1, 2], eq=[([1, 1], 1)])
    sol = solve(lp)
    assert sol.objective_value == 2
    assert sol.x == [F(0), F(1)]


def test_homogeneous_equality_row_starts_feasible():
    # the slack of a zero-rhs equality row starts inside its [0, 0] bounds,
    # so no phase 1 runs and x = 0 is already optimal
    sol = solve(LinearProgram(1, [-1], eq_rows=[([1], 0)]))
    assert (sol.status, sol.x, sol.pivots) == ("optimal", [F(0)], 0)


@pytest.mark.parametrize(
    "eq",
    [
        [([1, 1], 1), ([2, 2], 2)],
        [([1, 1, 0], 1), ([1, 1, 0], 1), ([0, 1, 1], 1)],
    ],
)
def test_redundant_equality_rows_agree_with_the_oracle(eq):
    # each redundant row keeps an artificial basic at 0 after phase 1
    lp = box_lp([F(i + 1) for i in range(len(eq[0][0]))], eq=eq)
    sol = solve(lp)
    oracle = vertex_enumerate(lp)
    assert sol.status == oracle.status == "optimal"
    assert sol.objective_value == oracle.objective_value


def test_infeasible_toy_system():
    # x <= 0 together with x >= 1 inside the unit box
    lp = box_lp([1], ineq=[([1], 0), ([-1], -1)])
    assert solve(lp).status == "infeasible"
    assert vertex_enumerate(lp).status == "infeasible"


def test_unbounded_direction_detected():
    lp = box_lp([1], upper=[None])
    assert solve(lp).status == "unbounded"
    with pytest.raises(ValueError):
        vertex_enumerate(lp)


def test_negative_bounds_are_shifted_correctly():
    lp = box_lp([1], lower=[F(-2)], upper=[F(-1)])
    sol = solve(lp)
    assert (sol.x, sol.objective_value) == ([F(-1)], F(-1))
    osol = vertex_enumerate(lp)
    assert osol.objective_value == F(-1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LinearProgram(2, [1])
    with pytest.raises(ValueError):
        LinearProgram(1, [1], eq_rows=[([1, 2], 0)])
    with pytest.raises(ValueError):
        LinearProgram(1, [1], lower=[F(1)], upper=[F(0)])


def test_debug_dump_mentions_rows_and_bounds():
    lp = box_lp([1, -1], eq=[([1, 1], 1)], ineq=[([1, 0], 1)])
    text = lp.debug_dump()
    assert "maximize" in text and "==" in text and "<=" in text and "bounds" in text


# ------------------------------------------------------------- degeneracy


def test_blands_rule_terminates_on_the_classic_cycling_instance():
    # Degenerate instance known to cycle under the largest-coefficient rule.
    lp = LinearProgram(
        num_vars=4,
        objective=[F(3) / 4, -150, Fraction(1, 50), -6],
        ineq_rows=[
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], 0),
            ([0, 0, 1, 0], 1),
        ],
        lower=[F(0)] * 4,
        upper=[None] * 4,
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == Fraction(1, 20)
    assert sol.x == [Fraction(1, 25), F(0), F(1), F(0)]

    boxed = LinearProgram(
        num_vars=4,
        objective=lp.objective,
        ineq_rows=lp.ineq_rows,
        lower=[F(0)] * 4,
        upper=[F(100)] * 4,
    )
    assert solve(boxed).objective_value == Fraction(1, 20)
    assert vertex_enumerate(boxed).objective_value == Fraction(1, 20)


# ------------------------------------------------------------ determinism


def test_solve_is_deterministic():
    rng = random.Random(2)
    lp = random_lp(rng)
    first = solve(lp)
    second = solve(lp)
    assert first.status == second.status
    assert first.x == second.x
    assert first.pivots == second.pivots


def test_positive_scaling_keeps_the_vertex():
    rng = random.Random(6)
    for _ in range(10):
        lp = random_lp(rng)
        base = solve(lp)
        scaled = LinearProgram(
            lp.num_vars,
            [Fraction(3, 2) * c for c in lp.objective],
            lp.eq_rows,
            lp.ineq_rows,
            lp.lower,
            lp.upper,
        )
        other = solve(scaled)
        assert other.status == base.status
        if base.status == "optimal":
            assert other.x == base.x
            assert other.objective_value == Fraction(3, 2) * base.objective_value


def _scale_rows(rng, lp, keep_phase1_rows):
    """Multiply rows by random positive rationals. With keep_phase1_rows, a
    row whose slack starts outside its bounds (it gets an artificial) is
    left as it is."""

    def block(rows, is_eq):
        out = []
        for coeffs, rhs in rows:
            slack = rhs - sum((a * lo for a, lo in zip(coeffs, lp.lower)), Fraction(0))
            if keep_phase1_rows and (slack < 0 or (is_eq and slack != 0)):
                k = F(1)
            else:
                k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            out.append(([k * a for a in coeffs], k * rhs))
        return out

    return LinearProgram(
        lp.num_vars, lp.objective, block(lp.eq_rows, True), block(lp.ineq_rows, False),
        lp.lower, lp.upper,
    )


def test_row_scaling_keeps_blands_path():
    # scaling a row rescales its slack, a change of variable that Bland's rule
    # does not see; an artificial's scale would enter the phase-1 objective,
    # so rows that start infeasible keep theirs in the first comparison
    rng = random.Random(11)
    statuses = set()
    for _ in range(150):
        lp = rational_lp(rng)
        base = solve(lp)
        statuses.add(base.status)
        same_path = solve(_scale_rows(rng, lp, keep_phase1_rows=True))
        assert (same_path.status, same_path.x, same_path.basis, same_path.pivots) == (
            base.status, base.x, base.basis, base.pivots
        )
        assert (same_path.degenerate_pivots, same_path.bound_flips) == (
            base.degenerate_pivots, base.bound_flips
        )
        every_row = solve(_scale_rows(rng, lp, keep_phase1_rows=False))
        assert (every_row.status, every_row.objective_value) == (
            base.status, base.objective_value
        )
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_pivot_counters_are_bounded_by_the_pivot_count():
    rng = random.Random(12)
    for _ in range(100):
        sol = solve(rational_lp(rng))
        assert 0 <= sol.degenerate_pivots <= sol.pivots
        assert 0 <= sol.bound_flips <= sol.pivots
        assert sol.max_den_bits >= 1
    flip = solve(box_lp([1]))  # x enters and stops at its own upper bound
    assert (flip.pivots, flip.degenerate_pivots, flip.bound_flips) == (1, 0, 1)


# -------------------------------------------------------- oracle agreement


def test_oracle_agrees_with_simplex_on_random_instances():
    rng = random.Random(17)
    optimal = 0
    for _ in range(40):
        lp = random_lp(rng)
        fast = solve(lp)
        slow = vertex_enumerate(lp)
        assert fast.status == slow.status
        if fast.status == "optimal":
            assert fast.objective_value == slow.objective_value
            optimal += 1
    assert optimal >= 10  # the generator must actually exercise the optimum path


def test_oracle_guard_raises():
    lp = box_lp([1] * 13)
    with pytest.raises(GuardExceeded):
        vertex_enumerate(lp)
    lp_small = box_lp([1, 1], ineq=[([1, 1], 1)])
    with pytest.raises(GuardExceeded):
        vertex_enumerate(lp_small, node_budget=1)


def test_two_agent_uniform_welfare_program_by_both_engines():
    # variables: allocations at the multisets {-1,-1}, {-1,1}, {1,1};
    # interim monotonicity for one uniform agent: (a+b)/2 <= (b+c)/2
    half = Fraction(1, 2)
    lp = box_lp(
        [-half, 0, half],
        ineq=[([half, 0, -half], 0)],
    )
    sol = solve(lp)
    oracle = vertex_enumerate(lp)
    assert sol.objective_value == oracle.objective_value == half


def test_oracle_agrees_with_simplex_on_rational_instances():
    rng = random.Random(23)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(200):
        lp = rational_lp(rng)
        if None in lp.upper:
            continue  # the oracle needs finite bounds
        fast = solve(lp)
        slow = vertex_enumerate(lp)
        assert fast.status == slow.status
        assert fast.objective_value == slow.objective_value
        seen[fast.status] += 1
    assert seen["optimal"] >= 30 and seen["infeasible"] >= 2
