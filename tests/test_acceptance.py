"""Acceptance suite: every criterion is checked at exact (zero) tolerance.

Each test prints one PASS/FAIL line (straight to the real stdout so the
lines survive pytest's capture) and enforces its runtime ceiling. Rules
audited as incentive compatible along the way are accumulated so the final
solver-integrity criterion can re-verify the interim welfare decomposition
on every one of them.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from _lpgen import exact_lp, fractional_optimum, random_lp
from _oracles import random_symmetric_environment, symmetric_threshold, vertex_enumerate
from anonvote.cli import main as cli_main
from anonvote.environments import environment_to_json
from anonvote.experiments import (
    cardinal_ordinal_ratio_sweep,
    example1_fixture,
    family_conditions,
    make_fstar,
    make_theorem2_env,
    random_environment,
    random_feasible_mechanism,
)
from anonvote.mechanisms import (
    QualifiedMajorityRule,
    check_bic,
    ordinal_projection,
    qmr_best,
    welfare,
    welfare_via_interims,
    wmr_build,
)
from anonvote.ratlp import solve
from anonvote.welfare_opt import aux_corners, build_opt_lp, lemma3_bounds, solve_opt


def F(x):
    return Fraction(x)


# incentive-compatible (environment, rule) pairs collected by criteria 1-8;
# criterion 9 replays the welfare decomposition identity on all of them
ENCOUNTERED_BIC = []

# optimal mechanisms from the two-agent campaign, reused by criterion 5
CAMPAIGN_OPTIMA = []


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}", file=sys.__stdout__)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
    )
    print(
        f"criterion {number:2d} PASS  {description} [{elapsed:.2f}s]",
        file=sys.__stdout__,
    )


def remember(env, rule):
    assert check_bic(env, rule).satisfied
    ENCOUNTERED_BIC.append((env, rule))


def test_criterion_1_worked_example_projection():
    with criterion(1, "worked-example projection blocks {1, 1/3, 1/4, 7/12}", 1.0):
        env, rule, _ = example1_fixture()
        audit = check_bic(env, rule)
        assert audit.satisfied
        assert rule.anonymous
        projection = ordinal_projection(env, rule)
        assert projection.by_coalition[frozenset({0, 1})] == 1
        assert projection.by_coalition[frozenset({0})] == Fraction(1, 3)
        assert projection.by_coalition[frozenset({1})] == Fraction(1, 4)
        assert projection.by_coalition[frozenset()] == Fraction(7, 12)
        assert not projection.anonymous
        remember(env, rule)
        remember(env, projection)


def test_criterion_2_limit_point_headline_numbers():
    with criterion(2, "limit point: qmr 21/8 at k*=3, override rule 5, optimum 5", 10.0):
        env = make_theorem2_env(3, 10, 0)
        table = qmr_best(env)
        assert table.best_welfare == Fraction(21, 8)
        assert table.k_star == 3
        fstar = make_fstar(3, 10)
        assert welfare(env, fstar) == 5
        report = solve_opt(env)
        assert report.welfare == 5
        lp, _ = build_opt_lp(env)
        oracle = vertex_enumerate(lp, max_vars=20)
        assert oracle.objective_value == 5
        remember(env, fstar)
        remember(env, report.mechanism)
        remember(env, QualifiedMajorityRule(3))


def test_criterion_3_strict_gap_at_positive_eps():
    with criterion(3, "strict cardinal gap at eps = 1/1000", 30.0):
        env = make_theorem2_env(3, 10, Fraction(1, 1000))
        report = solve_opt(env)
        best_ordinal = qmr_best(env).best_welfare
        assert report.welfare > best_ordinal
        remember(env, report.mechanism)


def test_criterion_4_two_agent_campaign():
    with criterion(4, "100 random 2-agent environments: optimum = best majority rule", 60.0):
        rng = random.Random(7)
        for _ in range(100):
            env = random_environment(rng, n_agents=2)
            report = solve_opt(env)
            w1 = welfare(env, QualifiedMajorityRule(1))
            w2 = welfare(env, QualifiedMajorityRule(2))
            assert report.welfare == max(w1, w2)
            assert report.welfare == aux_corners(env).best_value()
            CAMPAIGN_OPTIMA.append((env, report.mechanism))
            remember(env, report.mechanism)


def test_criterion_5_influence_bounds():
    with criterion(5, "influence bounds on campaign optima and 100 random vertices", 60.0):
        assert len(CAMPAIGN_OPTIMA) == 100
        for env, mechanism in CAMPAIGN_OPTIMA:
            assert lemma3_bounds(env, mechanism).satisfied
        rng = random.Random(8)
        for _ in range(100):
            env = random_environment(rng, n_agents=2)
            vertex = random_feasible_mechanism(env, rng)
            assert lemma3_bounds(env, vertex).satisfied
            remember(env, vertex)


def test_criterion_6_symmetric_environments():
    with criterion(6, "20 random symmetric environments: threshold rule is optimal", 60.0):
        rng = random.Random(9)
        for trial in range(20):
            n = 2 + trial % 4
            env = random_symmetric_environment(rng, n)
            threshold = symmetric_threshold(env)
            table = qmr_best(env)
            report = solve_opt(env)
            predicted = welfare(env, QualifiedMajorityRule(threshold.k_bar))
            assert report.welfare == predicted
            assert report.welfare == table.best_welfare
            remember(env, report.mechanism)


def test_criterion_7_ratio_sweep():
    with criterion(7, "ratio sweep 40/21, 400/201, 4000/2001, increasing, below 2", 60.0):
        rows = cardinal_ordinal_ratio_sweep([F(10), F(100), F(1000)])
        expected = [Fraction(40, 21), Fraction(400, 201), Fraction(4000, 2001)]
        assert [row.ratio for row in rows] == expected
        for row in rows:
            assert row.ratio == 4 * row.M / (2 * row.M + 1)
            assert row.ratio < 2
        assert rows[0].ratio < rows[1].ratio < rows[2].ratio


def test_criterion_8_weighted_rule_benchmark(tmp_path, capsys):
    with criterion(8, "weighted rule (110,110,2 | 201) attains 5; opt/wmr = 1", 30.0):
        env = make_theorem2_env(3, 10, 0)
        rule = wmr_build(env)
        assert rule.weights == (F(110), F(110), F(2))
        assert rule.quorum == 201
        assert welfare(env, rule) == 5  # 4^3 ordered profiles
        remember(env, rule)

        env_path = tmp_path / "gamma0.json"
        env_path.write_text(json.dumps(environment_to_json(env)))
        code = cli_main(["compare", "--env", str(env_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ratios"]["opt_over_wmr"]["exact"] == "1"


def test_criterion_9_solver_integrity():
    with criterion(9, "oracle agreement, anti-cycling, interim identity on all rules", 120.0):
        rng = random.Random(99)
        fractional_seen = 0
        for _ in range(50):
            lp = random_lp(rng)
            fast = solve(lp)
            assert fast.objective_value == vertex_enumerate(lp).objective_value
            fractional_seen += fractional_optimum(fast)
        assert fractional_seen >= 8

        # Beale's cycling instance; its row x3 <= 1 is the unit box's
        cycling = exact_lp(
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            ineq_rows=[
                [Fraction(1, 4), -60, Fraction(-1, 25), 9],
                [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            ],
        )
        degenerate = solve(cycling)
        assert degenerate.objective_value == Fraction(1, 20)

        assert len(ENCOUNTERED_BIC) > 200
        for env, rule in ENCOUNTERED_BIC:
            assert welfare(env, rule) == welfare_via_interims(env, rule)


def test_criterion_10_four_agent_family():
    with criterion(10, "n=4 family: conditions hold, override rule beats unanimity", 60.0):
        near, gain = family_conditions(4, F(10))
        assert near < 0 < gain
        env = make_theorem2_env(4, 10, 0)
        fstar = make_fstar(4, 10)
        assert check_bic(env, fstar).satisfied
        w_star = welfare(env, fstar)
        w_unanimity = welfare(env, QualifiedMajorityRule(4))
        report = solve_opt(env)
        assert report.welfare >= w_star > w_unanimity
        remember(env, fstar)
        remember(env, report.mechanism)
