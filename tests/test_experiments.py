import random
from fractions import Fraction

import pytest

from anonvote.cli import main
from anonvote.experiments import (
    cardinal_ordinal_ratio_sweep,
    example1_fixture,
    family_conditions,
    make_fstar,
    make_theorem2_env,
    random_environment,
    run_theorem2_demo,
)
from anonvote.mechanisms import (
    QualifiedMajorityRule,
    check_bic,
    qmr_best,
    welfare,
)


def F(x):
    return Fraction(x)


# ------------------------------------------------------------------ family


def test_family_conditions_values():
    near, gain = family_conditions(3, F(10))
    assert (near, gain) == (F(-53), F(19))
    near, gain = family_conditions(4, F(10))
    assert (near, gain) == (F(-34), F(18))


def test_family_probabilities_at_the_benchmark_eps():
    env = make_theorem2_env(3, 10, F(1) / 1000)
    high, low = env.agents[0], env.agents[2]
    assert high.probs[F(10)] == Fraction(499, 1000)
    assert high.probs[F(-100)] == Fraction(499, 1000)
    assert high.probs[F(1)] == Fraction(1, 1000)
    assert low.probs[F(1)] == Fraction(499, 1000)
    assert low.probs[F(10)] == Fraction(1, 1000)
    assert env.agents[0] == env.agents[1] != env.agents[2]


def test_family_limit_point_matches_the_zero_eps_table():
    env = make_theorem2_env(3, 10, 0)
    assert env.values.values == (F(-100), F(-1), F(1), F(10))
    assert env.agents[0].probs[F(-100)] == Fraction(1, 2)
    assert env.agents[0].probs[F(-1)] == 0
    assert env.flags


def test_family_rejections_name_the_broken_condition():
    with pytest.raises(ValueError, match="positive total value"):
        make_theorem2_env(3, F(1) / 2, 0)  # 2M - (n-2) == 0
    with pytest.raises(ValueError, match="negative"):
        make_theorem2_env(3, F(1), 0)  # near-unanimity value fails first at M=1
    with pytest.raises(ValueError, match="at least 3"):
        make_theorem2_env(2, 10, 0)
    with pytest.raises(ValueError, match="eps"):
        make_theorem2_env(3, 10, F(1) / 2)
    with pytest.raises(ValueError):
        make_theorem2_env(3, 10, F(-1) / 10)


# ----------------------------------------------------------- override rule


def by_value(rule):
    """A table rule's allocation keyed by report values, not value indices."""
    return {tuple(rule.values[j] for j in k): p for k, p in rule.allocation.items()}


def test_override_rule_support_n3():
    fstar = make_fstar(3, 10)
    ones = {m for m, p in by_value(fstar).items() if p == 1}
    expected = {
        (F(1), F(1), F(1)),
        (F(1), F(1), F(10)),
        (F(1), F(10), F(10)),
        (F(10), F(10), F(10)),
        (F(-1), F(10), F(10)),
        (F(-100), F(1), F(1)),
        (F(-100), F(-100), F(-100)),
    }
    assert ones == expected
    assert all(p in (F(0), F(1)) for p in fstar.allocation.values())


def test_override_rule_support_n4():
    fstar = make_fstar(4, 10)
    ones = {m for m, p in by_value(fstar).items() if p == 1}
    assert (F(-1), F(-1), F(10), F(10)) in ones
    assert (F(-100), F(1), F(1), F(1)) in ones
    assert (F(-100), F(-100), F(-100), F(1)) in ones
    all_positive = {m for m in ones if all(v > 0 for v in m)}
    assert len(ones) == len(all_positive) + 3


def test_override_rule_is_incentive_compatible_at_the_limit():
    for n in (3, 4):
        env = make_theorem2_env(n, 10, 0)
        assert check_bic(env, make_fstar(n, 10)).satisfied


def test_override_welfare_gain_identity():
    # the rules differ on one positive-probability profile class, whose
    # probability is (1/2)^n and whose total value is 2M - (n-2)
    for n, M in ((3, F(10)), (4, F(10)), (3, F(100))):
        env = make_theorem2_env(n, M, 0)
        gain = welfare(env, make_fstar(n, M)) - welfare(env, QualifiedMajorityRule(n))
        assert gain == Fraction(1, 2**n) * (2 * M - (n - 2))


# -------------------------------------------------------------- continuity


def test_unanimity_welfare_converges_to_the_limit_value():
    limit = welfare(make_theorem2_env(3, 10, 0), QualifiedMajorityRule(3))
    assert limit == Fraction(21, 8)
    gaps = []
    for eps in (F(1) / 10, F(1) / 100, F(1) / 1000):
        env = make_theorem2_env(3, 10, eps)
        gaps.append(abs(welfare(env, QualifiedMajorityRule(3)) - limit))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_unanimity_is_best_threshold_for_small_eps():
    for n in (3, 4):
        for eps in (F(1) / 1000, F(1) / 10000):
            assert qmr_best(make_theorem2_env(n, 10, eps)).k_star == n


# ------------------------------------------------------------------- demos


def test_demo_at_the_limit_point_reproduces_headline_numbers():
    report = run_theorem2_demo(3, 10, 0)
    assert report.qmr.best_welfare == Fraction(21, 8)
    assert report.qmr.k_star == 3
    assert report.opt.welfare == 5
    assert report.fstar_welfare == 5
    assert report.wmr_welfare == 5
    assert report.strict_gap
    assert report.ratio == Fraction(40, 21)


def test_demo_at_positive_eps_skips_the_override_welfare():
    report = run_theorem2_demo(3, 10, F(1) / 1000)
    assert report.fstar_welfare is None
    assert report.strict_gap


def test_anonymous_optimum_is_close_to_the_weighted_rule_at_small_eps():
    report = run_theorem2_demo(3, 10, F(1) / 1000)
    assert report.wmr_welfare == Fraction(9937, 2000)
    ratio = report.opt.welfare / report.wmr_welfare
    assert Fraction(9, 10) < ratio < 1


def test_ratio_sweep_closed_form():
    rows = cardinal_ordinal_ratio_sweep([10, 100])
    assert [row.ratio for row in rows] == [Fraction(40, 21), Fraction(400, 201)]
    assert rows[0].opt.welfare == 5
    assert rows[1].opt.welfare == 50


def test_ratio_sweep_with_four_agents():
    # frozen from the exact solver: the optimum 21/8 strictly exceeds the
    # override rule's 5/2, and the measured ratio edges past the n=3 one
    rows = cardinal_ordinal_ratio_sweep([10], n=4)
    assert rows[0].opt.welfare == Fraction(21, 8)
    assert rows[0].qmr.best_welfare == Fraction(11, 8)
    assert rows[0].ratio == Fraction(21, 11)
    assert rows[0].ratio > Fraction(40, 21)


def test_removing_one_override_breaks_incentive_compatibility():
    # the three overrides balance each other's interims; dropping the
    # {M, M, -1} entry leaves a flatness violation at both eps values
    from anonvote.mechanisms import AnonymousSCF

    for eps in (F(0), F(1) / 1000):
        env = make_theorem2_env(3, 10, eps)
        fstar = make_fstar(3, 10)
        allocation = by_value(fstar)
        allocation[(F(-1), F(10), F(10))] = F(0)
        edited = AnonymousSCF(env.values.values, 3, allocation)
        audit = check_bic(env, edited)
        assert not audit.satisfied
        assert audit.witness.kind == "flatness"
        assert welfare(env, edited) < welfare(env, fstar)


# --------------------------------------------------------------- campaigns


def test_campaign_passes_and_is_reproducible(capsys):
    argv = ["verify", "theorem1", "--trials", "10", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    rng_a = random.Random(11)
    rng_b = random.Random(11)
    env_a = random_environment(rng_a, n_agents=2)
    env_b = random_environment(rng_b, n_agents=2)
    assert env_a == env_b


# ----------------------------------------------------------------- fixture


def test_fixture_environment_marginals():
    env, rule, hat = example1_fixture()
    assert env.agents[0].p == Fraction(1, 3)
    assert env.agents[1].p == Fraction(1, 4)
    stats0 = env.agents[0]
    stats1 = env.agents[1]
    assert (stats0.u_plus, stats0.u_minus) == (Fraction(3, 2), Fraction(7, 4))
    assert (stats1.u_plus, stats1.u_minus) == (Fraction(3, 2), Fraction(5, 3))
    assert rule.evaluate((F(-2), F(-2))) == 1
    assert rule.evaluate((F(2), F(-2))) == 0
    assert hat.evaluate((F(-1), F(-2))) == Fraction(7, 12)
