import random
import sys
from fractions import Fraction

import pytest

from _lpgen import exact_lp, rational_rows
from _oracles import (kept_columns, oracle_columns, random_symmetric_environment, symmetric_threshold,
                      vertex_enumerate)
from anonvote import mechanisms, ratlp, welfare_opt
from anonvote.environments import (
    AgentDistribution,
    Environment,
    ValueSet,
    multiset_distribution,
)
from anonvote.experiments import (
    example1_fixture,
    make_fstar,
    make_theorem2_env,
    random_environment,
    random_feasible_mechanism,
)
from anonvote.mechanisms import (
    AnonymousSCF,
    NotBicError,
    QualifiedMajorityRule,
    all_multisets,
    check_bic,
    qmr_best,
    welfare,
)
from anonvote.rationals import integer_form
from anonvote.ratlp import SimplexError, solve
from anonvote.welfare_opt import (
    AuxPoint,
    Lemma3Report,
    aux_corners,
    build_opt_lp,
    lemma3_bounds,
    solve_opt,
)


def F(x):
    return Fraction(x)


def uniform_env(n=2):
    values = ValueSet([-1, 1])
    dist = AgentDistribution({F(-1): Fraction(1, 2), F(1): Fraction(1, 2)})
    return Environment(values, [dist] * n)


# ------------------------------------------------------------- LP building


def test_limit_program_shape_after_type_deduplication():
    lp, index = build_opt_lp(make_theorem2_env(3, 10, 0))
    assert lp.num_vars == 20 and len(index) == 20
    assert len(lp.eq_rows) == 4  # two types x (negative + positive flatness)
    assert len(lp.ineq_rows) == 2  # one monotonicity row per type


def test_two_point_program_has_no_flatness_rows():
    lp, index = build_opt_lp(uniform_env())
    assert lp.num_vars == 3
    assert len(lp.eq_rows) == 0
    assert len(lp.ineq_rows) == 1  # identical agents deduplicated


def test_fstar_is_feasible_for_the_limit_program():
    env = make_theorem2_env(3, 10, 0)
    lp, index = build_opt_lp(env)
    fstar = make_fstar(3, 10)
    assert fstar.values == env.values.values  # so both tables share their index keys
    x = [fstar.allocation[m] for m in index]
    c, eq_rows, ineq_rows = rational_rows(lp)
    for coeffs in eq_rows:
        assert sum((c * v for c, v in zip(coeffs, x)), F(0)) == 0
    for coeffs in ineq_rows:
        assert sum((c * v for c, v in zip(coeffs, x)), F(0)) <= 0
    objective = sum((cj * v for cj, v in zip(c, x)), F(0))
    assert objective == 5


def test_lp_rows_are_integer_pairs_in_lowest_terms():
    # the form LinearProgram holds: the integer_form of each rational row,
    # so the tableau starts from the rows (and denominators) it always had
    rng = random.Random(37)
    envs = [random_environment(rng, 2 + t % 3, 5) for t in range(12)]
    envs += [make_theorem2_env(4, 10, eps) for eps in (0, Fraction(1, 1000))]
    for env in envs:
        lp, _ = build_opt_lp(env)
        objective, eq_rows, ineq_rows = rational_rows(lp)
        for (num, den), rational in zip([lp.objective] + lp.eq_rows + lp.ineq_rows,
                                        [objective] + eq_rows + ineq_rows):
            assert den > 0 and len(num) == lp.num_vars
            assert (num, den) == integer_form(rational)
        assert any(den > 1 for _, den in lp.eq_rows + lp.ineq_rows)


def test_agents_of_one_type_have_identical_interim_rows():
    # the fact behind emitting constraint rows once per distinct type
    rng = random.Random(19)
    for n in (2, 3):
        env = random_symmetric_environment(rng, n)
        lp, _ = build_opt_lp(env)
        assert len(lp.ineq_rows) == 1
        # the others' reports, and the columns each report sorts them into,
        # are the same without any one agent: enumerated, and as the rows read them
        first = oracle_columns(env, 0)
        for i in range(n):
            assert oracle_columns(env, i) == kept_columns(env, i) == first
        assert env.types == (0,) * n
    assert make_theorem2_env(5, 10, Fraction(1, 1000)).types == (0, 0, 2, 2, 2)


# ------------------------------------------------------------- the optimum


def test_limit_point_optimum_cross_checked_by_the_oracle():
    env = make_theorem2_env(3, 10, 0)
    report = solve_opt(env)
    assert report.welfare == 5
    lp, _ = build_opt_lp(env)
    assert vertex_enumerate(lp, max_vars=20).objective_value == 5


def test_returned_mechanism_is_audited_and_consistent():
    env = make_theorem2_env(3, 10, Fraction(1, 1000))
    report = solve_opt(env)
    assert check_bic(env, report.mechanism).satisfied
    assert welfare(env, report.mechanism) == report.welfare
    assert report.lp_stats["variables"] == 20


def test_solve_opt_refuses_a_vertex_that_fails_the_audit_or_the_welfare_check(monkeypatch):
    env = uniform_env()
    true = solve(build_opt_lp(env)[0])
    # column 0 is the multiset (-1, -1): reform only when both oppose, which is not BIC
    backwards = ratlp.LpSolution(([1, 0, 0], 1), F(0), true.duals, 0, 0, 0, 0)
    monkeypatch.setattr(welfare_opt, "solve", lambda lp: backwards)
    message = r"^optimal vertex fails the incentive audit: BicViolation\("
    with pytest.raises(SimplexError, match=message):
        solve_opt(env)
    value = true.objective_value
    true.objective_value += 1
    monkeypatch.setattr(welfare_opt, "solve", lambda lp: true)
    with pytest.raises(SimplexError) as raised:
        solve_opt(env)
    assert str(raised.value) == f"welfare mismatch: direct {value}, interim {value}, lp {value + 1}"


def _three_types():
    env = random_environment(random.Random(5), 3, 4)
    assert len(set(env.agents)) == 3
    return env


@pytest.mark.parametrize(
    "env, expected",
    [(_three_types(), 1 + 3), (make_theorem2_env(6, 13, Fraction(1, 1000)), 1 + 2)],
    ids=["three-types", "two-type-n6"],
)
def test_a_solve_computes_each_report_distribution_once(env, expected, monkeypatch):
    # one distribution of all agents (objective, welfare) and one of the
    # others per agent type (LP rows, both audits), each read through the
    # column map; every module that binds the function is patched, so no
    # call escapes the count
    calls = []

    def counted(agents):
        calls.append(len(agents))
        return multiset_distribution(agents)

    for name, module in list(sys.modules.items()):
        if name.startswith("anonvote") and vars(module).get("multiset_distribution") is (
            multiset_distribution
        ):
            monkeypatch.setattr(module, "multiset_distribution", counted)
    report = solve_opt(env)
    assert len(calls) == expected
    assert sorted(calls) == [env.n - 1] * (expected - 1) + [env.n]
    # agents of one type share theirs
    for i in range(env.n):
        env.columns(i)
    assert len(calls) == expected
    # callers read the kept map and leave it as computed: read back in
    # Fractions, it is the one enumerated from the agents' ordered profiles
    monkeypatch.undo()
    assert welfare(env, report.mechanism) == report.welfare
    assert kept_columns(env) == oracle_columns(env)
    for i in range(env.n):
        assert kept_columns(env, i) == oracle_columns(env, i)


@pytest.mark.parametrize(
    "env",
    [_three_types(), make_theorem2_env(4, 10, 0), make_theorem2_env(6, 13, Fraction(1, 1000))],
    ids=["three-types", "two-type-n4-limit", "two-type-n6"],
)
def test_a_solve_never_rederives_its_optimums_integer_table(env, monkeypatch):
    # the vertex pair solve returns is the optimum's integer table: both
    # audits and welfare read it, and _integers never runs on the optimum
    calls = []

    def counted(rule, n):
        calls.append(rule)
        return integers(rule, n)

    integers = mechanisms._integers
    monkeypatch.setattr(mechanisms, "_integers", counted)
    report = solve_opt(env)
    assert calls == []
    monkeypatch.undo()
    # and it is the table _integers makes from the optimum's allocation, a
    # list in column order
    n, (table, den) = report.mechanism._table
    fresh, fresh_den = integers(report.mechanism, env.n)
    assert (n, table, den) == (env.n, fresh, fresh_den)
    assert len(table) == len(env.columns()[0])


PINNED = pytest.mark.parametrize(
    "env, bland, long_step, optimum",
    [
        (make_theorem2_env(3, 10, 0), 7, 6, F(5)),
        (
            make_theorem2_env(4, 10, Fraction(1, 1000)),
            17,
            5,
            Fraction(1235112064850635437915071771, 481490062905687875000000000),
        ),
        (example1_fixture()[0], 2, 2, Fraction(1, 4)),
    ],
    ids=["two-type-n3-limit", "two-type-n4", "example1"],
)


@PINNED
def test_blands_path_is_pinned(env, bland, long_step, optimum, monkeypatch):
    # the dual Bland's rule from the first iteration; a change of pivot rule
    # or of the tableau's arithmetic shows up here first
    monkeypatch.setattr(ratlp, "_BLAND_AFTER", 0)
    solution = solve(build_opt_lp(env)[0])
    assert solution.pivots == bland
    assert solution.objective_value == optimum


@PINNED
def test_long_step_path_is_pinned(env, bland, long_step, optimum):
    report = solve_opt(env)
    assert report.lp_stats["pivots"] == long_step
    assert report.welfare == optimum


COUNTERS = ("pivots", "degenerate_pivots", "bound_flips", "max_den_bits")


def test_pivot_counters_in_lp_stats():
    env = make_theorem2_env(3, 10, 0)
    stats = solve_opt(env).lp_stats
    assert {k: stats[k] for k in COUNTERS} == {
        "pivots": 6,
        "degenerate_pivots": 6,
        "bound_flips": 1,
        "max_den_bits": 4,
    }
    assert set(stats) == {"variables", "eq_rows", "ineq_rows", "certificate", *COUNTERS}


def test_optimum_dominates_every_threshold_rule():
    rng = random.Random(29)
    for _ in range(6):
        env = random_environment(rng, n_agents=2)
        assert solve_opt(env).welfare >= qmr_best(env).best_welfare


def positive_counts(env, index):
    """The number of positive reports in each LP column's multiset."""
    return [sum(1 for j in m if env.values.values[j] > 0) for m in index]


def ordinal_anonymous_lp(env):
    """``build_opt_lp`` with the columns of each positive-report count summed:
    the program over every rule that reads only how many reports are
    positive, randomized ones included (n + 1 variables)."""
    lp, index = build_opt_lp(env)
    counts = positive_counts(env, index)
    objective, eq_rows, ineq_rows = rational_rows(lp)

    def collapse(row):
        summed = [Fraction(0)] * (env.n + 1)
        for k, a in zip(counts, row):
            summed[k] += a
        return summed

    return exact_lp(
        collapse(objective),
        [collapse(row) for row in eq_rows],
        [collapse(row) for row in ineq_rows],
    )


def test_best_threshold_is_the_best_ordinal_anonymous_rule():
    # no randomized count rule beats the best qualified majority; the eps = 0
    # family members check it in limit mode
    rng = random.Random(61)
    envs = [random_environment(rng, n_agents=2 + t % 4, max_values=5) for t in range(200)]
    envs += [
        make_theorem2_env(n, M, eps)
        for n in range(3, 7)
        for M in (10, 13)
        for eps in (0, Fraction(1, 1000))
    ]
    for env in envs:
        assert solve(ordinal_anonymous_lp(env)).objective_value == qmr_best(env).best_welfare


def test_symmetric_optimum_is_the_threshold_rule():
    rng = random.Random(53)
    for _ in range(4):
        env = random_symmetric_environment(rng, rng.randint(2, 4))
        threshold = symmetric_threshold(env)
        best = qmr_best(env)
        opt = solve_opt(env)
        assert opt.welfare == best.best_welfare
        assert opt.welfare == welfare(env, QualifiedMajorityRule(threshold.k_bar))


def test_two_agent_optimum_is_a_majority_rule():
    rng = random.Random(59)
    for _ in range(10):
        env = random_environment(rng, n_agents=2)
        opt = solve_opt(env).welfare
        w1 = welfare(env, QualifiedMajorityRule(1))
        w2 = welfare(env, QualifiedMajorityRule(2))
        assert opt == max(w1, w2)


def test_worked_example_environment_optimum_is_a_majority_rule():
    env, rule, _ = example1_fixture()
    opt = solve_opt(env).welfare
    w1 = welfare(env, QualifiedMajorityRule(1))
    w2 = welfare(env, QualifiedMajorityRule(2))
    assert opt == max(w1, w2)
    assert welfare(env, rule) <= opt


# ------------------------------------------------------------ reach


def test_reach_of_the_box_start():
    # random n=5, |V|=6 (252 x 25), which took the primal simplex about
    # 30 s from x = 0
    rng = random.Random(1)
    env = random_environment(rng, 5, 6)
    while len(env.values) != 6:
        env = random_environment(rng, 5, 6)
    report = solve_opt(env)
    stats = report.lp_stats
    assert (stats["variables"], stats["eq_rows"] + stats["ineq_rows"]) == (252, 25)
    assert (stats["pivots"], stats["bound_flips"]) == (19, 55)
    assert report.welfare == Fraction(187052264518, 11024464419)  # as the primal found it


def test_the_long_step_passes_the_familys_breakpoints():
    # two-type n=20, M=40 (1,771 x 6): most of the work is breakpoints,
    # each flipped inside an iteration instead of costing a pivot
    solution = solve(build_opt_lp(make_theorem2_env(20, 40, Fraction(1, 1000)))[0])
    assert (solution.pivots, solution.degenerate_pivots, solution.bound_flips) == (19, 0, 1550)


# ------------------------------------------------------------ properties


def _property_envs(seed, count=24):
    rng = random.Random(seed)
    shapes = ((2, 5), (3, 4), (4, 3))
    return [random_environment(rng, *shapes[t % 3]) for t in range(count)]


def _scaled(env, q):
    """``env`` with every value multiplied by q."""
    agents = [AgentDistribution({v * q: p for v, p in agent.items}) for agent in env.agents]
    return Environment(ValueSet([v * q for v in env.values]), agents)


def test_permuting_the_agents_leaves_the_optimum():
    rng = random.Random(101)
    for env in _property_envs(97):
        order = list(range(env.n))
        rng.shuffle(order)
        for order in (order, order[1:] + order[:1]):  # at least one is not the identity
            permuted = Environment(env.values, [env.agents[i] for i in order])
            assert solve_opt(permuted).welfare == solve_opt(env).welfare


@pytest.mark.parametrize("q", [Fraction(7, 3), Fraction(2, 5), Fraction(13, 8)])
def test_scaling_every_value_scales_the_optimum_and_the_qmr_table(q):
    # the rows read only probabilities and the objective is scaled by q, so
    # pricing, and so every pivot, is the same
    for env in _property_envs(89, count=12):
        base, scaled = solve_opt(env), solve_opt(_scaled(env, q))
        assert scaled.welfare == q * base.welfare
        # q > 0 keeps the order of the values, so each value keeps its index
        assert scaled.mechanism.values == tuple(q * v for v in base.mechanism.values)
        assert scaled.mechanism.allocation == base.mechanism.allocation
        assert scaled.lp_stats["pivots"] == base.lp_stats["pivots"]
        qmr, scaled_qmr = qmr_best(env), qmr_best(_scaled(env, q))
        assert scaled_qmr.k_star == qmr.k_star
        assert scaled_qmr.table == {k: q * w for k, w in qmr.table.items()}


def test_the_optimum_bounds_the_best_qmr_and_every_feasible_rule():
    rng = random.Random(103)
    for env in _property_envs(91):
        optimum = solve_opt(env).welfare
        assert optimum >= qmr_best(env).best_welfare
        for _ in range(3):
            assert optimum >= welfare(env, random_feasible_mechanism(env, rng))


# ----------------------------------------------------------- corner points


def test_corners_match_majority_rule_interims():
    rng = random.Random(61)
    for _ in range(8):
        env = random_environment(rng, n_agents=2)
        corners = aux_corners(env)
        p1 = env.agents[0].p
        p2 = env.agents[1].p
        assert corners.first == AuxPoint(F(1), p2, F(1), p1)
        assert corners.second == AuxPoint(p2, F(0), p1, F(0))
        for k, point in ((1, corners.first), (2, corners.second)):
            audit = check_bic(env, QualifiedMajorityRule(k))
            assert (audit.c_plus[0], audit.c_minus[0]) == (point.c1_plus, point.c1_minus)
            assert (audit.c_plus[1], audit.c_minus[1]) == (point.c2_plus, point.c2_minus)
        # the corner objective reproduces the rules' welfare
        assert corners.value_first == welfare(env, QualifiedMajorityRule(1))
        assert corners.value_second == welfare(env, QualifiedMajorityRule(2))


def test_corner_constraints_hold_with_equality():
    rng = random.Random(67)
    env = random_environment(rng, n_agents=2)
    corners = aux_corners(env)
    p1 = env.agents[0].p
    p2 = env.agents[1].p
    for point in (corners.first, corners.second):
        assert p1 * point.c2_plus - (1 - p1) * point.c2_minus == p1 * p1
        assert p2 * point.c1_plus - (1 - p2) * point.c1_minus == p2 * p2
        lhs = p1 * point.c1_plus + (1 - p1) * point.c1_minus
        rhs = p2 * point.c2_plus + (1 - p2) * point.c2_minus
        assert lhs == rhs
        assert all(0 <= c <= 1 for c in point.as_tuple())


def test_uniform_corners_tie():
    # full symmetry: both corners evaluate to W(f^(1)) = W(f^(2)) = 1/2
    env = uniform_env()
    corners = aux_corners(env)
    assert corners.value_first == corners.value_second == Fraction(1, 2)
    assert corners.value_first == welfare(env, QualifiedMajorityRule(1))


def test_aux_corners_need_two_agents():
    with pytest.raises(ValueError):
        aux_corners(uniform_env(n=3))


# --------------------------------------------------------- influence bounds


def test_unanimity_bound_is_tight_in_the_uniform_pair():
    env = uniform_env()
    report = lemma3_bounds(env, QualifiedMajorityRule(2))
    assert report.lhs1 == report.bound1 == Fraction(1, 4)
    assert report.satisfied
    # either bound failing alone fails the report
    fields = [report.lhs1, report.bound1, report.lhs2, report.bound2]
    for lhs in (0, 2):
        over = list(fields)
        over[lhs] = over[lhs + 1] + Fraction(1, 100)
        assert not Lemma3Report(*over).satisfied


def test_zero_rule_and_example_rule_bounds():
    env = uniform_env()
    zero = AnonymousSCF(
        env.values.values, 2, {m: F(0) for m in all_multisets(env.values.values, 2)}
    )
    report = lemma3_bounds(env, zero)
    assert report.lhs1 == 0 and report.satisfied

    env1, rule, hat = example1_fixture()
    report = lemma3_bounds(env1, rule)
    assert report.lhs1 == Fraction(-1, 6)
    assert report.bound1 == Fraction(1, 9)
    assert report.satisfied

    with pytest.raises(ValueError):
        lemma3_bounds(env1, hat)  # projection is not anonymous


def test_bounds_reject_non_bic_rules():
    env = uniform_env()
    allocation = {m: F(0) for m in all_multisets(env.values.values, 2)}
    allocation[(F(-1), F(-1))] = F(1)
    backwards = AnonymousSCF(env.values.values, 2, allocation)
    with pytest.raises(NotBicError):
        lemma3_bounds(env, backwards)


def test_bounds_hold_on_random_vertices():
    rng = random.Random(71)
    for _ in range(10):
        env = random_environment(rng, n_agents=2, max_values=4)
        assert lemma3_bounds(env, random_feasible_mechanism(env, rng)).satisfied
