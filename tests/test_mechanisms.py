import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from _oracles import (
    anonymous_by_permutation,
    fractions_of,
    mixed_denominator_env,
    oracle_interims,
    oracle_projection,
    oracle_welfare,
    random_symmetric_environment,
    sign_table_by_evaluate,
    wmr_by_fractions,
)
from anonvote import mechanisms
from anonvote.cli import cmd_check, cmd_solve
from anonvote.environments import (
    AgentDistribution,
    Environment,
    ValueSet,
)
from anonvote.experiments import (
    Theorem2Report,
    example1_fixture,
    make_fstar,
    make_theorem2_env,
    random_environment,
    random_feasible_mechanism,
    run_theorem2_demo,
)
from anonvote.mechanisms import (
    AnonymousSCF,
    BicReport,
    BicViolation,
    NotBicError,
    NotSymmetric,
    OrderedTableSCF,
    OrdinalSCF,
    QmrTable,
    QualifiedMajorityRule,
    Record,
    SymmetricThreshold,
    WeightedMajorityRule,
    ZeroProbabilityCoalition,
    all_multisets,
    check_bic,
    coalition,
    mechanism_from_json,
    mechanism_to_json,
    ordinal_projection,
    qmr_best,
    symmetric_threshold,
    welfare,
    welfare_via_interims,
    wmr_build,
)
from anonvote.rationals import format_rational, lowest_terms, pair_form
from anonvote.ratlp import LpSolution, solve
from anonvote.welfare_opt import (AuxCorners, AuxPoint, Lemma3Report, OptimalMechanismReport,
                                  aux_corners, build_opt_lp, solve_opt)


def F(x):
    return Fraction(x)


def interim_table(env, rule, i):
    """Agent ``i``'s interim at every support value, one Fraction per entry
    of the fast path's ``_interim_sums``."""
    sums, den = mechanisms._interim_sums(env, rule, mechanisms._integer_table(env, rule), i)
    return {v: Fraction(s, den) for v, s in zip(env.values, sums)}


def uniform_env(n=2, values=(-1, 1)):
    vs = ValueSet(values)
    dist = AgentDistribution({v: Fraction(1, len(vs)) for v in vs})
    return Environment(vs, [dist] * n)


# ------------------------------------------------------------- rule algebra


def test_coalition_reads_signs():
    assert coalition((F(-2), F(1))) == frozenset({1})
    assert coalition((F(10), F(10), F(-1))) == frozenset({0, 1})
    assert coalition((F(-1), F(-2), F(-3))) == frozenset()


def test_evaluate_dispatch_on_the_limit_profiles():
    fstar = make_fstar(3, 10)
    profile = (F(10), F(10), F(-1))
    assert QualifiedMajorityRule(3).evaluate(profile) == 0
    assert fstar.evaluate(profile) == 1
    wmr = WeightedMajorityRule([110, 110, 2], 201)
    assert wmr.evaluate((F(10), F(-100), F(1))) == 0  # supporter weight 112 < 201
    assert wmr.evaluate(profile) == 1  # 220 > 201
    wmr_tie = WeightedMajorityRule([1, 1], 1, tie_value="1/3")
    assert wmr_tie.evaluate((F(1), F(-1))) == Fraction(1, 3)


def test_anonymous_scf_is_permutation_invariant():
    rng = random.Random(5)
    env = random_environment(rng, n_agents=3, max_values=3)
    mech = random_feasible_mechanism(env, rng)
    for profile in itertools.product(env.values.values, repeat=3):
        base = mech.evaluate(profile)
        for perm in itertools.permutations(profile):
            assert mech.evaluate(perm) == base


_GOOD_TABLES = {
    AnonymousSCF: {("-1", "-1"): "0", ("-1", "1"): "0", ("1", "1"): "1"},
    OrderedTableSCF: {("-1", "-1"): "0", ("-1", "1"): "0", ("1", "-1"): "0", ("1", "1"): "1"},
}


@pytest.mark.parametrize(
    "kind, what, repeated, count",
    [
        (AnonymousSCF, "allocation", "multiset -1,1", 3),
        (OrderedTableSCF, "ordered", "profile 1,-1", 4),
    ],
    ids=["anonymous", "ordered"],
)
def test_table_rules_require_a_total_table_in_range(kind, what, repeated, count):
    # both table kinds share one body: the same bad input gets the same
    # check, with the kind's own nouns
    values = (F(-1), F(1))
    good = _GOOD_TABLES[kind]
    rule = kind(values, 2, good)
    assert rule == kind(values, 2, dict(good))
    assert rule != kind(values, 2, {**good, ("-1", "-1"): "1"})
    lacking = {k: p for k, p in good.items() if k != ("1", "1")}
    cases = [
        ({**good, ("2/2", "-1"): "0"}, f"{what} table gives {repeated} twice"),
        ({("-1", "-1"): "0"}, f"{what} table has 1 entries, expected {count}"),
        ({**lacking, ("1", "2"): "1"}, f"{what} table has foreign key 1,2 and lacks 1,1"),
        ({**good, ("1", "1"): "2"}, "allocation at 1,1 is 2, outside [0, 1]"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kind(values, 2, table)
    message = "profile 1,3 not in this rule's domain"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule.evaluate((F(1), F(3)))


def test_ordinal_rules_refuse_a_partial_table_or_an_allocation_outside_0_1():
    # every coalition of agents 0..n-1 exactly once, each in [0, 1], which
    # is read from the allocation's integers
    good = {(): "0", (0,): "1/3", (1,): "1/2", (0, 1): "1"}
    rule = OrdinalSCF(2, good)
    assert rule.by_coalition == {frozenset(t): Fraction(p) for t, p in good.items()}
    assert OrdinalSCF(2, {**good, (0, 1): 0}).by_coalition[frozenset({0, 1})] == 0
    lacking = {t: p for t, p in good.items() if t != (0, 1)}
    message = "ordinal rule must assign every coalition exactly once"
    for table in (lacking, {**lacking, (0, 2): "1"}, {**good, frozenset({0, 1}): "1"}):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OrdinalSCF(2, table)
    for p in ("-1/3", Fraction(4, 3)):
        message = f"allocation at coalition [0, 1] is {p}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OrdinalSCF(2, {**good, (0, 1): p})


def test_ordered_table_anonymity_check():
    _, rule, hat = example1_fixture()
    assert rule.anonymous
    assert not hat.anonymous
    assert rule.anonymous and not hat.anonymous


# ---------------------------------------------------------------- interims


def test_example1_interims_are_flat_at_one_half():
    env, rule, _ = example1_fixture()
    for v in env.values:
        assert interim_table(env, rule, 0)[v] == Fraction(1, 2)
        assert interim_table(env, rule, 1)[v] == Fraction(1, 2)


def test_fstar_interims_at_the_limit_point():
    env = make_theorem2_env(3, 10, 0)
    fstar = make_fstar(3, 10)
    for v in env.values:
        assert interim_table(env, fstar, 2)[v] == Fraction(1, 4)
    for v in (F(10), F(1)):
        assert interim_table(env, fstar, 0)[v] == Fraction(1, 2)
    for v in (F(-100), F(-1)):
        assert interim_table(env, fstar, 0)[v] == 0


def test_unanimity_interims_closed_form():
    rng = random.Random(11)
    for _ in range(10):
        env = random_environment(rng, n_agents=2)
        rule = QualifiedMajorityRule(env.n)
        audit = check_bic(env, rule)
        assert audit.satisfied

        for i in range(env.n):
            others = Fraction(1)
            for j in range(env.n):
                if j != i:
                    others *= env.agents[j].p
            assert audit.c_plus[i] == others
            assert audit.c_minus[i] == 0


# -------------------------------------------------------------------- audit


def test_example1_and_fstar_pass_the_audit():
    env, rule, _ = example1_fixture()
    audit = check_bic(env, rule)
    assert audit.satisfied
    assert audit.c_minus == [Fraction(1, 2), Fraction(1, 2)]
    assert audit.c_plus == [Fraction(1, 2), Fraction(1, 2)]

    env0 = make_theorem2_env(3, 10, 0)
    assert check_bic(env0, make_fstar(3, 10)).satisfied


def test_audit_witness_on_a_backwards_rule():
    # pays only when both agents report -1: positive side 0, negative side 1/2
    env = uniform_env()
    values = env.values.values
    allocation = {m: F(0) for m in all_multisets(values, 2)}
    allocation[(F(-1), F(-1))] = F(1)
    rule = AnonymousSCF(values, 2, allocation)
    audit = check_bic(env, rule)
    assert not audit.satisfied
    witness = audit.witness
    assert witness.kind == "monotonicity"
    assert witness.agent == 0
    assert (witness.interim, witness.other_interim) == (Fraction(1, 2), Fraction(0))


def test_an_anonymous_rule_is_audited_once_per_agent_type(monkeypatch):
    # agents 0-1 are one type and agents 2-4 another
    # (counted at _interim_sums, the integer interims the audit compares)
    env = make_theorem2_env(5, 13, Fraction(1, 1000))
    calls, interim_sums = [], mechanisms._interim_sums

    def counted(env, rule, table, i):
        calls.append(i)
        return interim_sums(env, rule, table, i)

    monkeypatch.setattr(mechanisms, "_interim_sums", counted)
    rule = QualifiedMajorityRule(3)
    audit = check_bic(env, rule)
    assert calls == [0, 2]
    assert audit.interims == [interim_table(env, rule, i) for i in range(env.n)]
    assert audit.interims[1] is not audit.interims[0]
    # the utilitarian weighted rule is not anonymous: one table per agent
    calls.clear()
    check_bic(env, wmr_build(env))
    assert calls == [0, 1, 2, 3, 4]


def sign_rules(env):
    """The utilitarian WMR and its projection (neither anonymous), an
    equal-weight WMR, a QMR and a random ordinal rule by coalition size;
    none has made its integer table yet (the projection is of an equal WMR)."""
    return [wmr_build(env), ordinal_projection(env, wmr_build(env)),
            WeightedMajorityRule([3] * env.n, 7),
            QualifiedMajorityRule(4), random_ordinal_rule(env.n, random.Random(3), by_size=True)]


SIGN_WORK = {
    "check_bic": lambda env, rule: check_bic(env, rule).interims,
    "welfare": welfare,
    "ordinal_projection": lambda env, rule: ordinal_projection(env, rule).by_coalition,
    "interim_table": lambda env, rule: interim_table(env, rule, 3),
}


@pytest.mark.parametrize("work", SIGN_WORK)
def test_a_sign_rule_is_evaluated_once_per_sign_key(work, monkeypatch):
    # a rule that reads only signs makes its table, one entry per count of
    # positive reporters if it is anonymous, per coalition otherwise, from
    # integers: evaluate is never called, however often the rule is read, and
    # the table equals one evaluate per sign key; the expected result comes
    # from an equal rule, since a rule keeps its table
    env = make_theorem2_env(6, 13, Fraction(1, 1000))
    for rule, fresh in zip(sign_rules(env), sign_rules(env)):
        evaluations, oracle = [], sign_table_by_evaluate(rule, env.n)
        expected = SIGN_WORK[work](env, rule)
        with monkeypatch.context() as patch:
            patch.setattr(type(rule), "evaluate", lambda self, profile: evaluations.append(profile))
            assert SIGN_WORK[work](env, fresh) == expected
            assert SIGN_WORK[work](env, fresh) == expected
        assert evaluations == []
        assert fresh._table == rule._table == (env.n, oracle)
        assert len(oracle[0]) == (env.n + 1 if rule.anonymous else 2**env.n)


def test_each_sign_rule_makes_the_table_of_one_evaluate_per_sign_key(monkeypatch):
    # seeded rules at n = 1 to 7: weighted rules with distinct, equal
    # (anonymous) and zero (limit-mode) weights, each also with the quorum met
    # exactly by a random coalition, at tie values 0, 1/3, 1 and of mixed
    # denominators; every qualified majority threshold; ordinal rules by size
    # and by coalition
    grid = [Fraction(k, d) for d in (1, 2, 3, 5, 7) for k in range(1, 8)]
    tie_of = [lambda rng: Fraction(0), lambda rng: Fraction(1, 3), lambda rng: Fraction(1),
              lambda rng: Fraction(rng.randint(0, 6), 6)]
    rules, exact_ties = [], []
    for n in range(1, 8):
        rng = random.Random(100 + n)
        for weights in ([rng.choice(grid) for _ in range(n)], [rng.choice(grid)] * n, [0] * n,
                        [rng.choice(grid) if i % 2 else 0 for i in range(n)]):
            for exact in (False, True):
                members = [w for w in weights if rng.random() < 0.5]
                quorum = sum(members, Fraction(0)) if exact else rng.choice(grid)
                for tie in tie_of:
                    rules.append((n, WeightedMajorityRule(weights, quorum, tie(rng))))
                    if exact and 0 < rules[-1][1].tie_value < 1:
                        exact_ties.append(rules[-1])
        rules += [(n, QualifiedMajorityRule(k)) for k in range(n + 2)]
        coalitions = [frozenset(itertools.compress(range(n), bits))
                      for bits in itertools.product((0, 1), repeat=n)]
        draw = [Fraction(rng.randint(0, d), d) for d in rng.choices((2, 3, 5), k=2**n + n + 1)]
        rules.append((n, OrdinalSCF(n, {t: draw[len(t)] for t in coalitions})))
        rules.append((n, OrdinalSCF(n, dict(zip(coalitions, draw[n + 1:])))))
    expected = [sign_table_by_evaluate(rule, n) for n, rule in rules]
    for cls in (QualifiedMajorityRule, WeightedMajorityRule, OrdinalSCF):
        monkeypatch.setattr(cls, "evaluate", None)
    assert [mechanisms._integers(rule, n) for n, rule in rules] == expected
    flags = {(type(rule), rule.anonymous) for _, rule in rules}
    assert len(flags) == 5  # anonymous and not, but for the QMR
    # the coalition that meets the quorum gets the tie value
    assert len(exact_ties) > 40
    assert all(rule.tie_value in fractions_of(mechanisms._integers(rule, n))
               for n, rule in exact_ties)
    # a rule built for another agent count is refused before any key is
    # made; 2^13 keys are refused first, as for a rule of 13 agents
    monkeypatch.setattr(mechanisms, "pair_form", None)
    refused = [
        (WeightedMajorityRule(range(1, 9), 9), 3, "profile has 3 entries, rule has 8 weights"),
        (WeightedMajorityRule([2] * 8, 9), 3, "profile has 3 entries, rule has 8 weights"),
        (rules[-1][1], 3, "profile has 3 entries, rule has 7 agents"),
        (rules[-2][1], 6, "profile has 6 entries, rule has 7 agents"),
        (WeightedMajorityRule([1, 2, 3], 2), 13, "too large: 8192 sign keys of 13 agents"),
    ]
    for rule, n, message in refused:
        with pytest.raises(ValueError, match=re.escape(message)):
            mechanisms._integers(rule, n)


def test_sign_rules_stream_no_profiles_and_the_optimum_projects_per_type_count(monkeypatch):
    env = make_theorem2_env(6, 13, Fraction(1, 1000))
    optimum = solve_opt(env).mechanism
    small, rng = make_theorem2_env(3, 10, Fraction(1, 1000)), random.Random(7)
    ordered, flagged = scrambled_table(small, rng), mixed_table_rules(small, rng)[3]
    assert small.types == (0, 0, 2) and flagged.anonymous
    summed, multisets = [], mechanisms.multiset_distribution
    monkeypatch.setattr(
        mechanisms, "multiset_distribution",
        lambda agents: summed.append(
            (len(agents), {unit for points in agents for unit, _ in points})
        ) or multisets(agents),
    )

    def sums(env):
        """Each call's agent count and whether its units are those of a
        sorted multiset, powers of n + 1."""
        powers = {(env.n + 1) ** j for j in range(len(env.values))}
        return [(count, units <= powers) for count, units in summed]

    for rule in sign_rules(env):
        for work in SIGN_WORK.values():
            work(env, rule)
    assert summed == []
    # the anonymous optimum is summed once per count of positive agents of
    # each type, (2 + 1) * (4 + 1) sums keyed by sorted multiset over all six
    # agents, not 2^6 coalitions
    ordinal_projection(env, optimum)
    assert sums(env) == [(env.n, True)] * (3 * 5)
    # an ordered table that is not anonymous is summed once per coalition,
    # by ordered profile; one flagged anonymous once per count of positive
    # agents of each type, (2 + 1) * (1 + 1) sums by sorted multiset
    summed.clear()
    ordinal_projection(small, ordered)
    assert sums(small) == [(small.n, False)] * 2**small.n
    summed.clear()
    ordinal_projection(small, flagged)
    assert sums(small) == [(small.n, True)] * (3 * 2)


# ------------------------------------------------------------------ welfare


def test_limit_point_welfare_figures():
    env = make_theorem2_env(3, 10, 0)
    assert welfare(env, QualifiedMajorityRule(3)) == Fraction(21, 8)
    assert welfare(env, make_fstar(3, 10)) == 5
    assert welfare(env, QualifiedMajorityRule(4)) == 0  # constant-0 rule


def test_example1_welfare_both_ways():
    # frozen from two independent exact computations: the 16-profile
    # enumeration and the interim decomposition agree on -37/48
    env, rule, _ = example1_fixture()
    assert welfare(env, rule) == Fraction(-37, 48)
    assert welfare_via_interims(env, rule) == Fraction(-37, 48)


def test_interim_decomposition_matches_enumeration_on_random_rules():
    rng = random.Random(23)
    for _ in range(8):
        env = random_environment(rng, n_agents=2, max_values=4)
        mech = random_feasible_mechanism(env, rng)
        assert welfare(env, mech) == welfare_via_interims(env, mech)
    # limit-mode agents (u_plus or u_minus None) and full-support ones, under
    # BIC rules of every kind: thresholds, the utilitarian weighted rule (not
    # anonymous), random vertices and the optimum
    envs = [deterministic_sign_env("+", "-", "~"), deterministic_sign_env("~", "-", "~"),
            make_theorem2_env(3, 10, 0), mixed_denominator_env()]
    undefined = 0
    for env in envs:
        undefined += sum(a.u_plus is None or a.u_minus is None for a in env.agents)
        rules = [QualifiedMajorityRule(k) for k in range(env.n + 2)] + [wmr_build(env)]
        rules += [random_feasible_mechanism(env, rng) for _ in range(3)]
        for rule in rules + [solve_opt(env).mechanism]:
            assert check_bic(env, rule).satisfied
            assert welfare_via_interims(env, rule) == welfare(env, rule) == oracle_welfare(env, rule)
    assert undefined == 3


def test_solve_and_check_write_the_enumerated_interims_and_welfare():
    # the reports write interims, c- and c+ from the audit's integer pairs:
    # each string is format_rational of the enumeration, on seeded draws, the
    # mixed-denominator environment and two limit-mode ones (zero
    # probabilities, deterministic signs), under the optimum, every sign rule
    # kind, random vertices and an ordered table
    rng, table_rng = random.Random(41), random.Random(43)
    envs = [random_environment(rng, n_agents=n, max_values=v) for n, v in ((2, 5), (3, 4))]
    envs += [mixed_denominator_env(), deterministic_sign_env("+", "-", "~"),
             make_theorem2_env(3, 10, 0)]
    seen = set()
    for env in envs:
        low, high = env.values.values[0], env.values.values[-1]
        solved = cmd_solve(None, env)
        rules = [mechanism_from_json(solved["mechanism"])] + oracle_rules(env, rng)
        for k, rule in enumerate(rules + [scrambled_table(env, table_rng)]):
            tables = [oracle_interims(env, rule, i) for i in range(env.n)]
            shown = [{format_rational(v): format_rational(q) for v, q in t.items()} for t in tables]
            checked = cmd_check(None, env, rule)
            bic, audited = checked["bic"], len(checked["interims"])
            assert checked["interims"] == shown[:audited]
            assert checked["welfare"]["exact"] == format_rational(oracle_welfare(env, rule))
            if bic["satisfied"]:
                assert audited == env.n
                assert bic["c_minus"] == [format_rational(t[low]) for t in tables]
                assert bic["c_plus"] == [format_rational(t[high]) for t in tables]
            else:
                assert bic["c_minus"] is bic["c_plus"] is None
                assert int(bic["witness"]["agent"]) == audited - 1
            if k == 0:  # the optimum, as solve wrote it
                rows = solved["interims"]
                assert solved["welfare"]["exact"] == checked["welfare"]["exact"]
                assert [row["table"] for row in rows] == shown
                assert [row["c_minus"] for row in rows] == bic["c_minus"]
                assert [row["c_plus"] for row in rows] == bic["c_plus"]
            seen.add((type(rule).__name__, bic["satisfied"]))
    kinds = {"AnonymousSCF", "QualifiedMajorityRule", "WeightedMajorityRule", "OrdinalSCF",
             "OrderedTableSCF"}
    assert {kind for kind, _ in seen} == kinds
    assert {(kind, True) for kind in kinds - {"OrderedTableSCF"}} <= seen
    assert ("OrderedTableSCF", False) in seen


def test_interim_decomposition_rejects_non_bic():
    env = uniform_env()
    values = env.values.values
    allocation = {m: F(0) for m in all_multisets(values, 2)}
    allocation[(F(-1), F(-1))] = F(1)
    with pytest.raises(NotBicError):
        welfare_via_interims(env, AnonymousSCF(values, 2, allocation))


# --------------------------------------------------------------- projection


def test_example1_projection_blocks():
    env, rule, hat_expected = example1_fixture()
    projection = ordinal_projection(env, rule)
    assert not projection.anonymous
    assert projection.by_coalition[frozenset({0, 1})] == 1
    assert projection.by_coalition[frozenset({0})] == Fraction(1, 3)
    assert projection.by_coalition[frozenset({1})] == Fraction(1, 4)
    assert projection.by_coalition[frozenset()] == Fraction(7, 12)
    for key, expected in hat_expected.allocation.items():
        assert projection.evaluate(tuple(hat_expected.values[j] for j in key)) == expected


def test_projection_fixes_ordinal_rules():
    rng = random.Random(31)
    env = random_environment(rng, n_agents=3, max_values=3)
    rule = QualifiedMajorityRule(2)
    projection = ordinal_projection(env, rule)
    for profile in itertools.product(env.values.values, repeat=3):
        assert projection.evaluate(profile) == rule.evaluate(profile)


def test_projection_preserves_bic_interims_and_welfare():
    rng = random.Random(37)
    for _ in range(5):
        env = random_environment(rng, n_agents=2, max_values=4)
        mech = random_feasible_mechanism(env, rng)
        audit = check_bic(env, mech)
        projection = ordinal_projection(env, mech)
        hat_audit = check_bic(env, projection)
        assert hat_audit.satisfied
        assert hat_audit.c_minus == audit.c_minus
        assert hat_audit.c_plus == audit.c_plus
        assert welfare(env, projection) == welfare(env, mech)


def test_projection_of_anonymous_rule_in_symmetric_environment_is_anonymous():
    rng = random.Random(41)
    for _ in range(3):
        env = random_symmetric_environment(rng, 3)
        mech = random_feasible_mechanism(env, rng)
        assert ordinal_projection(env, mech).anonymous


def test_projection_rejects_zero_probability_coalitions():
    values = ValueSet([-1, 1])
    stuck = AgentDistribution({F(-1): F(0), F(1): F(1)})
    free = AgentDistribution({F(-1): Fraction(1, 2), F(1): Fraction(1, 2)})
    env = Environment(values, [stuck, free])
    with pytest.raises(ZeroProbabilityCoalition):
        ordinal_projection(env, QualifiedMajorityRule(1))


@pytest.mark.parametrize(
    "signs, first",
    [
        ("+-0", []),  # agent 0 is never negative: the empty coalition
        ("0-+", []),  # a never-negative agent outranks every never-positive one
        ("-0-", [2]),  # two never positive: the highest index comes first
        ("0-0", [1]),
    ],
)
def test_projection_names_the_first_coalition_of_probability_zero(monkeypatch, signs, first):
    # "+" never negative, "-" never positive, "0" both signs: the refusal is
    # decided from the agents' masses, before the rule's table is read or any
    # coalition enumerated, and names the first coalition of probability
    # zero in product order
    values = ValueSet([-1, 1])
    kinds = {"+": (0, 1), "-": (1, 0), "0": (Fraction(1, 2), Fraction(1, 2))}
    agents = [AgentDistribution(dict(zip(values, kinds[c]))) for c in signs]
    env = Environment(values, agents)
    expected = oracle_projection(env, QualifiedMajorityRule(2))
    assert sorted(next(t for t, phi in expected.items() if phi is None)) == first
    calls = []
    monkeypatch.setattr(mechanisms, "_integer_table", lambda *a: calls.append(a))
    for rule in (QualifiedMajorityRule(2), WeightedMajorityRule([1, 2, 3], 3)):
        with pytest.raises(ZeroProbabilityCoalition,
                           match=re.escape(f"coalition {first} has probability zero")):
            ordinal_projection(env, rule)
    assert calls == []


# ------------------------------------------------------------- benchmarks


def test_qmr_best_thresholds():
    assert qmr_best(make_theorem2_env(3, 10, Fraction(1, 1000))).k_star == 3
    assert qmr_best(uniform_env(n=3)).k_star == 2
    # k = 1 and k = 2 both earn 1/2 here: the smallest maximizer wins
    tied = qmr_best(uniform_env(n=2))
    assert tied.table[1] == tied.table[2] == tied.best_welfare == Fraction(1, 2)
    assert tied.k_star == 1
    table = qmr_best(make_theorem2_env(3, 10, 0)).table
    assert table[3] == Fraction(21, 8)
    assert set(table) == {0, 1, 2, 3, 4}


def test_symmetric_threshold_cases():
    result = symmetric_threshold(uniform_env(n=3))
    assert (result.k_bar, result.tie) == (2, False)

    result = symmetric_threshold(uniform_env(n=2))
    assert (result.k_bar, result.tie) == (2, True)  # boundary exactly 1

    values = ValueSet([-1, 3])
    dist = AgentDistribution({F(-1): Fraction(1, 2), F(3): Fraction(1, 2)})
    env4 = Environment(values, [dist] * 4)
    result = symmetric_threshold(env4)
    assert result.k_bar == 2
    assert result.boundary == 1 and result.tie
    table = qmr_best(env4)
    assert table.table[2] == table.best_welfare  # cross-check maximality

    with pytest.raises(NotSymmetric):
        symmetric_threshold(example1_fixture()[0])


def test_symmetric_threshold_matches_qmr_best_on_random_draws():
    rng = random.Random(43)
    for _ in range(8):
        env = random_symmetric_environment(rng, rng.randint(2, 4))
        result = symmetric_threshold(env)
        table = qmr_best(env)
        assert table.table[result.k_bar] == table.best_welfare


def test_wmr_on_the_limit_environment():
    env = make_theorem2_env(3, 10, 0)
    rule = wmr_build(env)
    assert rule.weights == (F(110), F(110), F(2))
    assert rule.quorum == 201
    assert welfare(env, rule) == 5
    assert rule.notes == ()


def test_wmr_reduces_to_qmr_when_symmetric():
    env = uniform_env(n=3)
    rule = wmr_build(env)
    assert len(set(rule.weights)) == 1
    qmr = QualifiedMajorityRule(symmetric_threshold(env).k_bar)
    for profile in itertools.product(env.values.values, repeat=3):
        assert rule.evaluate(profile) == qmr.evaluate(profile)


def test_wmr_limit_convention_is_flagged():
    values = ValueSet([-1, 1])
    stuck = AgentDistribution({F(-1): F(0), F(1): F(1)})
    free = AgentDistribution({F(-1): Fraction(1, 2), F(1): Fraction(1, 2)})
    env = Environment(values, [stuck, free])
    rule = wmr_build(env)
    assert rule.notes and "U- undefined" in rule.notes[0]
    assert rule.weights[0] == 1  # defined part only


def test_two_agent_balance_identity():
    # both sides of the identity equal the ex-ante reform probability
    rng = random.Random(47)

    for _ in range(6):
        env = random_environment(rng, n_agents=2, max_values=4)
        mech = random_feasible_mechanism(env, rng)
        audit = check_bic(env, mech)
        p1 = env.agents[0].p
        p2 = env.agents[1].p
        lhs = p1 * audit.c_plus[0] + (1 - p1) * audit.c_minus[0]
        rhs = p2 * audit.c_plus[1] + (1 - p2) * audit.c_minus[1]
        assert lhs == rhs


# ------------------------------------------ probability kernels vs. oracle


def random_ordinal_rule(n, rng, by_size=False):
    """A random OrdinalSCF in quarters: one value per coalition size if
    ``by_size`` (anonymous), else one per coalition with {0} above {1}."""
    coalitions = [
        frozenset(i for i, b in enumerate(bits) if b)
        for bits in itertools.product((False, True), repeat=n)
    ]
    if by_size:
        sizes = [Fraction(rng.randint(0, 4), 4) for _ in range(n + 1)]
        return OrdinalSCF(n, {t: sizes[len(t)] for t in coalitions})
    table = {t: Fraction(rng.randint(0, 4), 4) for t in coalitions}
    table[frozenset({0})], table[frozenset({1})] = F(1), F(0)
    return OrdinalSCF(n, table)


def oracle_rules(env, rng):
    """QMR k = 0..n+1, an equal-weight WMR, a WMR that weighs agent 0
    double, a random BIC vertex, the utilitarian WMR and two random ordinal
    rules, by size and by coalition (the double-weight, utilitarian and
    by-coalition rules are not anonymous, so agents of one type can have
    different interims)."""
    rules = [QualifiedMajorityRule(k) for k in range(env.n + 2)]
    rules.append(WeightedMajorityRule([1] * env.n, Fraction(env.n, 2)))
    rules.append(WeightedMajorityRule([2] + [1] * (env.n - 1), Fraction(env.n, 2)))
    rules.append(random_feasible_mechanism(env, rng))
    rules.append(wmr_build(env))
    rules.append(random_ordinal_rule(env.n, rng, by_size=True))
    rules.append(random_ordinal_rule(env.n, rng))
    return rules


def deterministic_sign_env(*kinds):
    """Agents over {-3, -1, 2, 5}: "+" has p = 1, "-" has p = 0 and "~" has
    full support (limit mode whenever a "+" or "-" is present)."""
    probs = {
        "+": {-3: 0, -1: 0, 2: Fraction(1, 3), 5: Fraction(2, 3)},
        "-": {-3: Fraction(1, 4), -1: Fraction(3, 4), 2: 0, 5: 0},
        "~": {-3: Fraction(1, 8), -1: Fraction(3, 8), 2: Fraction(1, 4), 5: Fraction(1, 4)},
    }
    return Environment(ValueSet([-3, -1, 2, 5]), [AgentDistribution(probs[k]) for k in kinds])


def oracle_environments(rng):
    shapes = ((2, 5), (3, 5), (4, 4)) * 2
    envs = [random_environment(rng, n_agents=n, max_values=v) for n, v in shapes]
    return envs + [
        make_theorem2_env(3, 10, 0),
        make_theorem2_env(4, 10, Fraction(1, 1000)),
        deterministic_sign_env("+", "-", "~"),
        deterministic_sign_env("~", "-", "~"),
    ]


def mixed_table_rules(env, rng):
    """Anonymous rules that read whole reports, with allocations k/7 and
    k/12: a table that is a nondecreasing function of the count of positive
    reports (so BIC), a random table, and each as an ordered table, whose
    ``anonymous`` flag is then true."""
    values = env.values.values
    grid = sorted({Fraction(k, 7) for k in range(8)} | {Fraction(k, 12) for k in range(13)})
    by_count = sorted(rng.choice(grid) for _ in range(env.n + 1))
    keys = all_multisets(values, env.n)
    tables = [
        {m: by_count[sum(1 for v in m if v > 0)] for m in keys},
        {m: rng.choice(grid) for m in keys},
    ]
    rules = [AnonymousSCF(values, env.n, table) for table in tables]
    for table in tables:
        profiles = itertools.product(values, repeat=env.n)
        rules.append(OrderedTableSCF(values, env.n, {p: table[tuple(sorted(p))] for p in profiles}))
        assert rules[-1].anonymous
    return rules


def scrambled_table(env, rng):
    """An ordered table with a random allocation k/6 at each profile, so not
    anonymous: read per position, each agent has its own interims, also
    agents of one type."""
    profiles = itertools.product(env.values.values, repeat=env.n)
    rule = OrderedTableSCF(env.values, env.n, {p: Fraction(rng.randint(0, 6), 6) for p in profiles})
    assert not rule.anonymous
    return rule


def test_welfare_and_interims_equal_the_enumeration():
    rng, table_rng = random.Random(23), random.Random(31)
    audited = set()
    for env in oracle_environments(rng) + [mixed_denominator_env()]:
        rules = oracle_rules(env, rng) + mixed_table_rules(env, table_rng)
        for rule in rules + [scrambled_table(env, table_rng)]:
            assert welfare(env, rule) == oracle_welfare(env, rule)
            audit = check_bic(env, rule)
            assert len(audit.interims) == env.n or not audit.satisfied
            for i, table in enumerate(audit.interims):
                assert table == oracle_interims(env, rule, i)
            audited.add((type(rule), audit.satisfied))
        qmr = qmr_best(env)
        for k, w in qmr.table.items():
            assert w == oracle_welfare(env, QualifiedMajorityRule(k))
    # both table kinds are audited to a pass and to a witness
    for kind in (AnonymousSCF, OrderedTableSCF):
        assert {(kind, True), (kind, False)} <= audited


def test_mixed_denominators_and_exact_quorums_equal_the_enumeration():
    # agents whose probabilities have different denominators, and weighted
    # rules with fractional weights whose quorum some coalitions hit exactly,
    # where the tie value 1/3 is allocated: {0} and {1, 2} in the first,
    # every pair in the second (equal weights, so anonymous)
    env = mixed_denominator_env()
    tied = [
        WeightedMajorityRule(["1/2", "1/3", "1/6"], "1/2", "1/3"),
        WeightedMajorityRule(["2/3"] * 3, "4/3", "1/3"),
    ]
    assert [rule.anonymous for rule in tied] == [False, True]
    values = env.values.values
    assert tied[0].evaluate((values[3], values[0], values[0])) == Fraction(1, 3)
    assert tied[0].evaluate((values[0], values[2], values[3])) == Fraction(1, 3)
    for rule in oracle_rules(env, random.Random(53)) + tied:
        assert welfare(env, rule) == oracle_welfare(env, rule)
        for i in range(env.n):
            assert interim_table(env, rule, i) == oracle_interims(env, rule, i)
        assert ordinal_projection(env, rule).by_coalition == oracle_projection(env, rule)


def test_weighted_rule_evaluate_equals_the_fraction_sums():
    # seeded rules with weights of several denominators, zeros and negatives;
    # each second quorum is the weight of a random coalition, so that
    # coalition and any other of equal weight get the tie value
    grid = [Fraction(k, d) for d in (1, 2, 3, 4, 6, 7) for k in range(-6, 7)]
    ties = 0
    for n in range(2, 7):
        rng = random.Random(n)
        for r in range(12):
            weights = [rng.choice(grid) for _ in range(n)]
            weights[rng.randrange(n)] = Fraction(0)
            if r % 2:
                quorum = sum((w for w in weights if rng.random() < 0.5), Fraction(0))
            else:
                quorum = rng.choice(grid)
            rule = WeightedMajorityRule(weights, quorum, Fraction(rng.randint(0, 5), 5))
            for profile in itertools.product((-1, 1), repeat=n):
                assert rule.evaluate(profile) == wmr_by_fractions(rule, profile)
                ties += wmr_by_fractions(rule, profile) is rule.tie_value
    assert ties >= 20


def test_projection_equals_the_enumeration():
    rng, table_rng = random.Random(29), random.Random(37)
    cases = [
        (env, rule)
        for env in oracle_environments(rng) + [mixed_denominator_env()]
        for rule in oracle_rules(env, rng) + mixed_table_rules(env, table_rng)
        + [scrambled_table(env, table_rng)]
    ]
    env, rule, _ = example1_fixture()
    cases.append((env, rule))
    raised, firsts = set(), set()
    for env, rule in cases:
        expected = oracle_projection(env, rule)
        if None in expected.values():
            first = sorted(next(t for t, phi in expected.items() if phi is None))
            with pytest.raises(ZeroProbabilityCoalition, match=re.escape(f"coalition {first} has")):
                ordinal_projection(env, rule)
            raised.add(type(rule))
            firsts.add(tuple(first))
            continue
        projection = ordinal_projection(env, rule)
        assert projection.by_coalition == expected
        by_size = {}
        assert projection.anonymous == all(
            by_size.setdefault(len(t), phi) == phi for t, phi in expected.items()
        )
    # every rule kind meets a coalition of probability zero, and in the
    # second limit environment it is not the empty one
    kinds = {QualifiedMajorityRule, WeightedMajorityRule, AnonymousSCF, OrderedTableSCF, OrdinalSCF}
    assert raised == kinds
    assert firsts == {(), (1,)}


def test_anonymous_flag_agrees_with_the_permutation_oracle():
    rng = random.Random(43)
    cases = [(env, rule) for env in oracle_environments(rng) for rule in oracle_rules(env, rng)]
    env, rule, hat_expected = example1_fixture()
    cases += [(env, rule), (env, ordinal_projection(env, rule)), (env, hat_expected)]
    env = random_environment(rng, n_agents=3, max_values=3)
    cases.append((env, ordinal_projection(env, QualifiedMajorityRule(2))))
    # the table kinds appear on both sides: example 1's rule and the QMR
    # projection are anonymous, hat_expected and example 1's projection not
    for env, rule in cases:
        holds = anonymous_by_permutation(rule, env.values, env.n)
        assert holds or not rule.anonymous
        if isinstance(rule, (OrderedTableSCF, OrdinalSCF)):
            assert rule.anonymous == holds
    # the weighted flag is conservative: constant, unequal weights, not flagged
    constant = WeightedMajorityRule([1, 2], 5)
    assert anonymous_by_permutation(constant, (F(-1), F(1)), 2) and not constant.anonymous


# --------------------------------------------------------------------- JSON


def test_mechanism_json_round_trips_every_kind():
    fstar = make_fstar(3, 10)
    assert mechanism_from_json(mechanism_to_json(fstar)) == fstar

    qmr = QualifiedMajorityRule(3)
    assert mechanism_from_json(mechanism_to_json(qmr)) == qmr
    # a bool is refused on both sides, so no rule writes JSON it cannot read
    with pytest.raises(ValueError, match="threshold must be a nonnegative integer"):
        QualifiedMajorityRule(True)
    with pytest.raises(ValueError, match="must be an integer"):
        mechanism_from_json({"kind": "qmr", "k": True})

    wmr = WeightedMajorityRule([110, 110, 2], 201, Fraction(1, 2))
    assert mechanism_from_json(mechanism_to_json(wmr)) == wmr

    _, rule, _ = example1_fixture()
    again = mechanism_from_json(mechanism_to_json(rule))
    assert again == rule

    with pytest.raises(ValueError):
        mechanism_from_json({"kind": "mystery"})


def index_keyed_tables():
    """Tables over three values and three agents with random allocations
    k/5: an anonymous one, the same as an ordered table (flagged anonymous),
    an ordered one that is not anonymous, and a solved optimum, whose table
    comes straight from the LP vertex. Each with the table it was built from,
    keyed by report values (None for the optimum), and its anonymity."""
    rng = random.Random(67)
    values = (F(-3), F(-1), F(2))
    by_multiset = {m: Fraction(rng.randint(0, 5), 5) for m in all_multisets(values, 3)}
    ordered = {p: by_multiset[tuple(sorted(p))] for p in itertools.product(values, repeat=3)}
    scrambled = {p: Fraction(rng.randint(0, 5), 5) for p in ordered}
    env = random_environment(random.Random(71), 3, 4)
    return [
        (AnonymousSCF(values, 3, by_multiset), by_multiset, True),
        (OrderedTableSCF(values, 3, ordered), ordered, True),
        (OrderedTableSCF(values, 3, scrambled), scrambled, False),
        (solve_opt(env).mechanism, None, True),
    ]


def test_index_keyed_tables_round_trip_through_json():
    for rule, by_value, _ in index_keyed_tables():
        obj = mechanism_to_json(rule)
        again = mechanism_from_json(json.loads(json.dumps(obj)))
        assert again == rule
        assert json.dumps(mechanism_to_json(again)) == json.dumps(obj)
        if by_value is not None:  # the JSON keys name the values, in their order
            expected = {",".join(map(str, k)): str(p) for k, p in sorted(by_value.items())}
            assert list(obj[rule._field].items()) == list(expected.items())


def test_index_keyed_tables_evaluate_by_value():
    for rule, by_value, anonymous in index_keyed_tables():
        assert rule.anonymous == anonymous
        for profile in itertools.product(rule.values, repeat=rule.n):
            value = rule.evaluate(profile)
            if by_value is not None:
                assert value == by_value[profile if profile in by_value else tuple(sorted(profile))]
            if rule.anonymous:
                assert {rule.evaluate(p) for p in itertools.permutations(profile)} == {value}
        outside = rule.values[:-1] + (rule.values[-1] + 1,)
        for profile in (outside, rule.values[:2], rule.values[:1] * (rule.n + 1)):
            with pytest.raises(ValueError, match="not in this rule's domain"):
                rule.evaluate(profile)


def test_tables_keep_reduced_pairs_and_write_their_json_from_them():
    # unreduced and Fraction tokens, ordered tables and a solved optimum keep
    # each entry as a reduced integer pair, read as Fractions by allocation,
    # and write the JSON that formatting those Fractions writes
    values, tokens = (F(-1), F(1)), {("-1", "-1"): "2/4", ("-1", "1"): "0/3", ("1", "1"): "6/6"}
    unreduced = AnonymousSCF(values, 2, tokens)
    assert unreduced.allocation == {(0, 0): F("1/2"), (0, 1): F(0), (1, 1): F(1)}
    assert mechanism_to_json(unreduced)["allocation"] == {"-1,-1": "1/2", "-1,1": "0", "1,1": "1"}
    fractions = AnonymousSCF(values, 2, {k: Fraction(p) for k, p in tokens.items()})
    assert fractions == unreduced
    for rule in [unreduced, fractions] + [rule for rule, _, _ in index_keyed_tables()]:
        assert all(type(a) is type(b) is int and b > 0 and math.gcd(a, b) == 1
                   for a, b in rule._pairs.values())
        assert rule.allocation == {k: Fraction(a, b) for k, (a, b) in rule._pairs.items()}
        names = [format_rational(v) for v in rule.values]
        by_fractions = {",".join([names[j] for j in k]): format_rational(p)
                        for k, p in sorted(rule.allocation.items())}
        assert json.dumps(mechanism_to_json(rule)[rule._field]) == json.dumps(by_fractions)
    # an entry outside [0, 1], a repeated key and a foreign key are refused
    # with the messages the Fraction entries gave
    values = ("-1/2", "3/4")
    good = {("-1/2", "-1/2"): "0", ("-1/2", "3/4"): "1", ("3/4", "3/4"): "1"}
    cases = [({**good, ("3/4", "3/4"): p}, f"allocation at 3/4,3/4 is {q}, outside [0, 1]")
             for p, q in (("-1/3", "-1/3"), (Fraction(4, 3), "4/3"), ("8/6", "4/3"), (-2, "-2"))]
    cases += [
        ({**good, ("6/8", "-2/4"): "0"}, "allocation table gives multiset -1/2,3/4 twice"),
        ({**{k: p for k, p in good.items() if k != ("3/4", "3/4")}, ("3/4", "5/4"): "1"},
         "allocation table has foreign key 3/4,5/4 and lacks 3/4,3/4"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnonymousSCF(values, 2, table)


def test_the_optimum_keeps_the_vertex_entries_reduced():
    # from_indices reduces each vertex entry by its own gcd, and the
    # pair_form of the reduced entries gives back the lowest-terms vertex
    env = random_environment(random.Random(71), 3, 4)
    lp, index = build_opt_lp(env)
    x = solve(lp).x
    rule = AnonymousSCF.from_indices(env.values.values, env.n, index, x)
    reduced = [(q.numerator, q.denominator) for q in fractions_of(x)]
    assert [rule._pairs[k] for k in index] == reduced
    assert rule._table == (env.n, x) and pair_form([rule._pairs[k] for k in index]) == x
    rng = random.Random(73)
    for _ in range(2000):
        den = rng.randint(1, 360)
        x = lowest_terms([rng.randint(0, den) for _ in range(rng.randint(1, 8))], den)
        keys = range(len(x[0]))
        rule = AnonymousSCF.from_indices((F(0),), 1, keys, x)
        assert pair_form([rule._pairs[k] for k in keys]) == x
        assert rule.allocation == dict(zip(keys, fractions_of(x)))


def test_a_table_over_other_values_or_agents_is_refused_by_the_audits():
    # the tables are read by value index, which would silently misalign
    env = uniform_env(2, values=(-1, 1))
    anonymous = {("-1", "-1"): "0", ("-1", "1"): "1/2", ("1", "1"): "1"}
    rules = [
        AnonymousSCF((-1, 2), 2, {("-1", "-1"): "0", ("-1", "2"): "1/2", ("2", "2"): "1"}),
        AnonymousSCF((-2, -1, 1), 2, {m: "0" for m in all_multisets((-2, -1, 1), 2)}),
        AnonymousSCF((-1, 1), 3, {m: "1" for m in all_multisets((-1, 1), 3)}),
        OrderedTableSCF((-1, 2), 2, {p: "0" for p in itertools.product((-1, 2), repeat=2)}),
    ]
    assert rules[-1].anonymous
    # a table that is not anonymous is read by value index too
    scrambled = {(-1, -1): "0", (-1, 2): "1", (2, -1): "0", (2, 2): "1"}
    rules.append(OrderedTableSCF((-1, 2), 2, scrambled))
    assert not rules[-1].anonymous
    # sign rules made for three agents, whose 2-agent coalitions all exist
    three = ordinal_projection(uniform_env(3, values=(-1, 1)), QualifiedMajorityRule(2))
    signs = [three, WeightedMajorityRule([1, 1, 2], 2)]
    audits = (check_bic, welfare, ordinal_projection, lambda env, rule: interim_table(env, rule, 0))
    for message, group in (("does not match the environment", rules), ("profile has 2", signs)):
        for rule, audit in itertools.product(group, audits):
            with pytest.raises(ValueError, match=message):
                audit(env, rule)
    assert check_bic(env, AnonymousSCF((-1, 1), 2, anonymous)).satisfied


# ------------------------------------------------------------------ records


def test_every_record_is_built_by_position_or_by_name():
    records = [BicViolation, BicReport, QmrTable, SymmetricThreshold, OptimalMechanismReport,
               AuxPoint, AuxCorners, Lemma3Report, Theorem2Report, LpSolution]
    assert set(Record.__subclasses__()) == set(records)
    for cls in records:
        fields = cls.__slots__
        given = dict(zip(fields, range(len(fields))))
        by_position = cls(*given.values())
        by_name = cls(**dict(reversed(given.items())))  # the order of names does not matter
        assert [getattr(by_position, f) for f in fields] == list(given.values())
        assert [getattr(by_name, f) for f in fields] == list(given.values())
        bad = [
            ((0,) * (len(fields) - 1), {}),  # a field missing
            ((0,) * (len(fields) + 1), {}),  # an extra positional argument
            ((0,) * len(fields), {"bogus": 0}),  # an unknown name
            ((0,) * len(fields), {fields[0]: 0}),  # a field given twice
        ]
        for args, named in bad:
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes the fields "):
                cls(*args, **named)
    # the CLI's table view rebuilds the witness from the check payload's fields
    env = uniform_env(values=(-2, -1, 1))
    table = {m: 1 if m == (-2, -2) else 0 for m in all_multisets(env.values, 2)}
    rule = AnonymousSCF(env.values, 2, table)
    witness = check_bic(env, rule).witness
    shown = cmd_check(None, env, rule)["bic"]["witness"]
    again = BicViolation(**shown)
    assert [getattr(again, name) for name in BicViolation.__slots__] == list(shown.values())
    assert repr(again) == repr(witness)
    assert repr(again) == "BicViolation(agent=0, flatness: interim(-2)=1/3 vs interim(-1)=0)"
    # every other record has the one repr: fields in order, each by str, a
    # nested record by its own repr, lists, tuples and dicts left out
    assert [cls for cls in records if "__repr__" in vars(cls)] == [BicViolation]
    assert repr(check_bic(env, rule)) == (
        f"BicReport(satisfied=False, witness={witness!r})")  # values and sums left out
    satisfied = check_bic(uniform_env(), QualifiedMajorityRule(2))
    assert repr(satisfied) == "BicReport(satisfied=True, witness=None)"
    report = run_theorem2_demo(3, 10, 0)
    qmr = "QmrTable(k_star=3, best_welfare=21/8)"
    opt = ("OptimalMechanismReport(mechanism=AnonymousSCF(n=3, |V|=4, nonzero=6), welfare=5, "
           f"audit={satisfied!r})")
    assert (repr(report.qmr), repr(report.opt)) == (qmr, opt)
    assert repr(report) == (f"Theorem2Report(n=3, M=10, eps=0, qmr={qmr}, opt={opt}, "
                            "fstar_welfare=5, wmr_welfare=5)")
    first = "AuxPoint(c1_plus=1, c1_minus=1/2, c2_plus=1, c2_minus=1/2)"
    second = "AuxPoint(c1_plus=1/2, c1_minus=0, c2_plus=1/2, c2_minus=0)"
    assert repr(aux_corners(uniform_env())) == (
        f"AuxCorners(first={first}, second={second}, value_first=1/2, value_second=1/2)")
    bounds = Lemma3Report(Fraction(1, 4), Fraction(1, 4), Fraction(-1, 6), Fraction(1, 9))
    assert repr(bounds) == "Lemma3Report(lhs1=1/4, bound1=1/4, lhs2=-1/6, bound2=1/9)"
    threshold = SymmetricThreshold(2, Fraction(3, 2), False)
    assert repr(threshold) == "SymmetricThreshold(k_bar=2, boundary=3/2, tie=False)"
    solution = LpSolution(([1, 2], 3), Fraction(1, 3), ([0], 1), 4, 1, 2, 5)
    assert repr(solution) == ("LpSolution(objective_value=1/3, pivots=4, degenerate_pivots=1, "
                              "bound_flips=2, max_den_bits=5)")
