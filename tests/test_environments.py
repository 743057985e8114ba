import itertools
import random
from fractions import Fraction

import pytest

from _oracles import (coded_points, decode, fraction_environment, kept_columns,
                      mixed_denominator_env, oracle_columns, profile_probability)
from anonvote import environments
from anonvote.environments import (
    MAX_ENTRIES,
    AgentDistribution,
    Environment,
    InvalidEnvironment,
    TooLarge,
    ValueSet,
    environment_from_json,
    environment_to_json,
    multiset_distribution,
    refuse_above,
)
from anonvote.experiments import make_theorem2_env, random_environment


def uniform_pair_env():
    values = ValueSet([-1, 1])
    dist = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)})
    return Environment(values, [dist, dist])


# ---------------------------------------------------------------- structure


def test_value_set_sorts_and_rejects_duplicates():
    assert ValueSet([3, -1, 2]).values == (Fraction(-1), Fraction(2), Fraction(3))
    with pytest.raises(InvalidEnvironment, match="^value set contains duplicates$"):
        ValueSet([1, "2/2"])
    with pytest.raises(InvalidEnvironment, match="^value set contains duplicates$"):
        ValueSet(["1/2", "-1", "2/4"])  # equal as rationals, told apart by no string
    with pytest.raises(InvalidEnvironment, match="^value set is empty$"):
        ValueSet([])
    # sorted and split by sign on the integer form, one Fraction per value
    values = ValueSet(["5/2", "-7/3", "3/4", "-1/2"])
    assert values.values == tuple(map(Fraction, ("-7/3", "-1/2", "3/4", "5/2")))
    assert values.pairs == ((-7, 3), (-1, 2), (3, 4), (5, 2))
    assert (values.scaled, values.scale) == ([-28, -6, 9, 30], 12)
    assert (values.negatives, values.positives) == (values.values[:2], values.values[2:])


def test_environment_rejects_support_mismatch():
    values = ValueSet([-1, 1])
    bad = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(2): Fraction(1, 2)})
    with pytest.raises(InvalidEnvironment):
        Environment(values, [bad, bad])


def test_every_agent_error_is_collected_with_its_label():
    # a support mismatch is one error among the others, and skips only that
    # agent's other checks
    agents = [{"probs": {"-1": "3/2", "1": "-1/2"}}, {"probs": {"-1": "1/2", "2": "1/2"}}]
    with pytest.raises(InvalidEnvironment) as caught:
        environment_from_json({"values": ["-1", "1"], "agents": agents})
    assert str(caught.value) == (
        "agent 0: negative probability at 1; agent 1: support does not match the value set"
    )
    agents[1]["name"] = "off"
    off = r"^agent 0: .*; agent 1 \(off\): support does not match"
    with pytest.raises(InvalidEnvironment, match=off):
        environment_from_json({"values": ["-1", "1"], "agents": agents})


def test_agent_distribution_equality_ignores_name():
    a = AgentDistribution({Fraction(1): Fraction(1)}, name="left")
    b = AgentDistribution({Fraction(1): Fraction(1)}, name="right")
    assert a == b and hash(a) == hash(b)


# --------------------------------------------------------------- validation


def test_uniform_pair_is_valid_without_flags():
    assert uniform_pair_env().flags == ()


def test_limit_environment_is_flagged_not_rejected():
    env = make_theorem2_env(3, 10, 0)
    assert env.flags
    assert any("zero probability" in flag for flag in env.flags)


def test_flags_name_each_agent_by_index():
    # two agents of each type share a name; the index tells them apart
    flags = make_theorem2_env(4, 10, 0).flags
    assert len(flags) == 4 and len(set(flags)) == 4
    assert flags[0] == "agent 0 (high): zero probability on {-1, 1}"
    assert flags[3] == "agent 3 (low): zero probability on {-100, 10}"
    # an unnamed agent is labelled by its index alone
    values = ValueSet([-1, 1])
    half = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)})
    up = AgentDistribution({Fraction(-1): Fraction(0), Fraction(1): Fraction(1)})
    assert Environment(values, [half, up]).flags == (
        "agent 1: zero probability on {-1}",
        "agent 1: deterministic value sign (p=1)",
    )


def test_probabilities_must_sum_to_one():
    values = ValueSet([-1, 1])
    off = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(499, 1000)})
    with pytest.raises(InvalidEnvironment, match="must sum to 1"):
        Environment(values, [off, off])


def test_zero_value_and_missing_sign_are_errors():
    values = ValueSet([-1, 0, 1])
    dist = AgentDistribution({v: Fraction(1, 3) for v in values})
    with pytest.raises(InvalidEnvironment, match="value 0"):
        Environment(values, [dist, dist])

    positive_only = ValueSet([1, 2])
    dist = AgentDistribution({v: Fraction(1, 2) for v in positive_only})
    with pytest.raises(InvalidEnvironment, match="negative and one positive"):
        Environment(positive_only, [dist, dist])


def test_single_agent_and_negative_probability_are_errors():
    values = ValueSet([-1, 1])
    dist = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)})
    with pytest.raises(InvalidEnvironment):
        Environment(values, [dist])

    bad = AgentDistribution({Fraction(-1): Fraction(3, 2), Fraction(1): Fraction(-1, 2)})
    with pytest.raises(InvalidEnvironment, match="negative probability"):
        Environment(values, [bad, bad])


# -------------------------------------------------------------------- stats


def test_high_stakes_agent_stats_at_small_eps():
    # weighted sums over the four support points, checkable by hand
    env = make_theorem2_env(3, 10, Fraction(1, 1000))
    stats = env.agents[0]
    assert stats.p == Fraction(1, 2)
    assert stats.u_plus == Fraction(4991, 500)
    assert stats.u_minus == Fraction(49901, 500)


def test_two_point_and_limit_stats():
    stats = uniform_pair_env().agents[0]
    assert (stats.p, stats.u_plus, stats.u_minus) == (Fraction(1, 2), 1, 1)

    env0 = make_theorem2_env(3, 10, 0)
    low = env0.agents[2]
    assert (low.p, low.u_plus, low.u_minus) == (Fraction(1, 2), 1, 1)
    high = env0.agents[0]
    assert (high.u_plus, high.u_minus) == (10, 100)


def test_undefined_conditional_means_are_none():
    values = ValueSet([-1, 1])
    always_up = AgentDistribution({Fraction(-1): Fraction(0), Fraction(1): Fraction(1)})
    env = Environment(values, [always_up, always_up])
    stats = env.agents[0]
    assert stats.p == 1
    assert stats.u_minus is None
    assert stats.u_plus == 1


def test_sign_decomposition_matches_direct_expectation():
    rng = random.Random(3)
    for _ in range(25):
        env = random_environment(rng, n_agents=2)
        for i in range(env.n):
            stats = env.agents[i]
            direct = sum(
                (v * p for v, p in env.agents[i].items), Fraction(0)
            )
            assert stats.pos_mass - stats.neg_mass == direct
            assert stats.p * stats.u_plus == stats.pos_mass
            assert (1 - stats.p) * stats.u_minus == stats.neg_mass


# ------------------------------------------------------------- probabilities


def test_profile_probability_examples():
    values = ValueSet([-2, -1, 1, 2])
    agent1 = AgentDistribution(
        {Fraction(2): Fraction(1, 6), Fraction(1): Fraction(1, 6),
         Fraction(-1): Fraction(1, 6), Fraction(-2): Fraction(1, 2)}
    )
    agent2 = AgentDistribution(
        {Fraction(-2): Fraction(1, 2), Fraction(-1): Fraction(1, 4),
         Fraction(1): Fraction(1, 8), Fraction(2): Fraction(1, 8)}
    )
    env = Environment(values, [agent1, agent2])
    assert profile_probability(env.agents, (Fraction(-2), Fraction(-2))) == Fraction(1, 4)

    env0 = make_theorem2_env(3, 10, 0)
    assert profile_probability(env0.agents, (Fraction(10), Fraction(10), Fraction(-1))) == Fraction(1, 8)
    # any profile containing a zero-probability value
    assert profile_probability(env0.agents, (Fraction(1), Fraction(10), Fraction(-1))) == 0

    with pytest.raises(ValueError):
        profile_probability(env0.agents, (Fraction(3), Fraction(10), Fraction(-1)))


def test_profile_probabilities_sum_to_one():
    rng = random.Random(9)
    for _ in range(5):
        env = random_environment(rng, n_agents=2, max_values=4)
        total = sum(
            profile_probability(env.agents, p)
            for p in itertools.product(env.values.values, repeat=env.n)
        )
        assert total == 1


# ------------------------------------------------------- probability kernel


def kernel_environments():
    """Seeded full-support draws with n <= 4 and |V| <= 5, plus a limit case."""
    rng = random.Random(11)
    envs = [random_environment(rng, n_agents=n, max_values=5) for n in (2, 3, 4) * 4]
    return envs + [make_theorem2_env(3, 10, 0)]


def enumerated(env):
    """Oracle: every ordered profile with its probability, zeros included."""
    for profile in itertools.product(env.values.values, repeat=env.n):
        yield profile, profile_probability(env.agents, profile)


KERNEL_CASES = kernel_environments() + [make_theorem2_env(4, 10, 0), mixed_denominator_env()]
KERNEL_IDS = [f"draw{k}" for k in range(12)] + ["family-n3-eps0", "family-n4-eps0", "mixed"]


def decoded_kernel(env, ordered):
    """The kernel over every agent's coded points, keyed back by the value
    tuples the decoder reads off each code; the units are the environment's."""
    points = coded_points(env.agents, ordered)
    assert [[unit for unit, _ in agent] for agent in points] == env.units(ordered)
    dist = multiset_distribution(points)
    values = env.values.values
    return [(tuple(values[j] for j in decode(code, len(values), env.n, ordered)), q)
            for code, q in dist.items()]


def test_profiles_yield_exactly_the_positive_profiles_in_order():
    # with the units of an ordered profile the kernel keys ordered profiles,
    # and its dict lists them in the lexicographic order of the enumeration
    for env in KERNEL_CASES:
        expected = [(p, q) for p, q in enumerated(env) if q != 0]
        assert decoded_kernel(env, ordered=True) == expected


def test_multiset_distribution_equals_the_grouped_enumeration():
    for env in KERNEL_CASES:
        grouped: dict = {}
        for profile, q in enumerated(env):
            if q != 0:
                key = tuple(sorted(profile))
                grouped[key] = grouped.get(key, Fraction(0)) + q
        kept = decoded_kernel(env, ordered=False)
        assert dict(kept) == grouped and len(kept) == len(grouped)
        assert sum(grouped.values()) == 1


def test_kernels_of_no_agents_hold_the_empty_profile():
    for size, ordered in itertools.product((2, 4), (False, True)):
        kept = {decode(code, size, 0, ordered): w for code, w in multiset_distribution([]).items()}
        assert kept == {(): 1}


@pytest.mark.parametrize("env", KERNEL_CASES, ids=KERNEL_IDS)
def test_the_column_map_equals_the_enumerated_one(env):
    # every column, zero-weight ones included (payoff 0 in limit mode, eps = 0),
    # and, per agent, the others' multisets and the columns agent i's reports
    # sort them into; the mixed environment's repeated type is agents 0 and 2
    expected = oracle_columns(env)
    assert kept_columns(env) == expected
    assert len(expected) == len(list(itertools.combinations_with_replacement(env.values, env.n)))
    for i in range(env.n):
        assert kept_columns(env, i) == oracle_columns(env, i)
    if env.flags:  # limit mode: some columns of nonzero value sum have weight 0
        sums = [sum(env.values.values[j] for j in m) for m, _, _ in expected]
        assert any(total and not value for total, (_, value, _) in zip(sums, expected))


def test_refuse_above_admits_exactly_max_entries():
    # the column map at n = |V| = 8, which also admits 2^12 coalitions, not 2^13
    assert MAX_ENTRIES == 6435 == len(list(itertools.combinations_with_replacement(range(8), 8)))
    assert 2**12 <= MAX_ENTRIES < 2**13
    assert refuse_above(6435, "columns") == 6435
    with pytest.raises(TooLarge, match="^too large: 6436 columns, above the limit of 6435$"):
        refuse_above(6436, "columns")
    assert issubclass(TooLarge, ValueError)


def test_the_column_map_is_refused_before_its_first_entry(monkeypatch):
    rng = random.Random(1)
    eight, nine = (next(env for env in iter(lambda: random_environment(rng, n, 8), None)
                        if len(env.values) == 8) for n in (8, 9))
    assert len(eight.columns()[0]) == MAX_ENTRIES  # n = |V| = 8 is admitted
    calls = []
    monkeypatch.setattr(environments, "multiset_distribution", lambda *a: calls.append(a))
    for without in (None, 0):
        with pytest.raises(TooLarge, match="^too large: 11440 columns of 9 agents over 8 values,"):
            nine.columns(without)
    assert calls == []


# --------------------------------------------------------------------- JSON


def test_environment_json_round_trip():
    env = make_theorem2_env(3, 10, Fraction(1, 1000))
    again = environment_from_json(environment_to_json(env))
    assert again == env


def deterministic_env():
    values = ValueSet([-1, 1])
    up = AgentDistribution({Fraction(-1): Fraction(0), Fraction(1): Fraction(1)})
    half = AgentDistribution({Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)})
    return Environment(values, [up, half, up])


def integer_environment_cases():
    rng = random.Random(41)
    shapes = ((2, 2), (2, 6), (3, 5), (4, 4), (5, 3))
    return [random_environment(rng, n_agents=n, max_values=v) for n, v in shapes] + [
        make_theorem2_env(3, 10, 0),
        make_theorem2_env(5, 10, 0),
        make_theorem2_env(6, 13, 0),
        make_theorem2_env(6, 13, Fraction(1, 1000)),
        mixed_denominator_env(),
        deterministic_env(),
    ]


def test_integer_environment_equals_the_fraction_recomputation():
    for env in integer_environment_cases():
        stats, types, flags = fraction_environment(env)
        for agent, expected in zip(env.agents, stats):
            got = (agent.p, agent.pos_mass, agent.neg_mass, agent.u_plus, agent.u_minus)
            assert got == expected
            assert all(type(x) is Fraction for x in expected[:3])
            # the integer sign weights the sign kernel and the projection read
            negative = sum((q for v, q in agent.items if v < 0), Fraction(0))
            assert [Fraction(m, agent.den) for m in agent.mass] == [negative, expected[0]]
        assert (env.types, env.flags) == (types, flags)
        again = environment_from_json(environment_to_json(env))
        assert again == env
        assert (again.types, again.flags) == (env.types, env.flags)
    # limit mode is reached: zero probabilities and a deterministic sign
    assert fraction_environment(make_theorem2_env(6, 13, 0))[2]
    assert fraction_environment(deterministic_env())[0][0][4] is None


def test_repeated_json_entries_share_one_distribution():
    obj = environment_to_json(make_theorem2_env(6, 13, 0))
    env = environment_from_json(obj)
    assert len({id(agent) for agent in env.agents}) == 2
    assert all(agent is env.agents[env.types[i]] for i, agent in enumerate(env.agents))
    # equal probs under another name are one type but their own entry
    obj["agents"][1]["name"] = "other"
    env = environment_from_json(obj)
    assert env.agents[1] == env.agents[0] and env.agents[1] is not env.agents[0]
    assert env.types == (0, 0, 2, 2, 2, 2)
    assert env.agents[2] is env.agents[5]
    named = [flag.split(":")[0] for flag in env.flags]
    lows = [f"agent {i} (low)" for i in range(2, 6)]
    assert named == ["agent 0 (high)", "agent 1 (other)"] + lows
    # entries equal as dicts but not as JSON (1 and 1.0) are each parsed
    agents = [{"probs": {"-1": 1, "1": 0}}, {"probs": {"-1": 1.0, "1": 0}}]
    with pytest.raises(ValueError, match="^decimal input rejected"):
        environment_from_json({"values": ["-1", "1"], "agents": agents})


def test_non_canonical_tokens_load_to_the_canonical_environment():
    canonical = {
        "values": ["-1", "1/2", "1", "3"],
        "agents": [
            {"probs": {"-1": "1/2", "1/2": "1/4", "1": "1/8", "3": "1/8"}},
            {"probs": {"-1": "1/3", "1/2": "1/3", "1": "0", "3": "1/3"}},
        ],
    }
    noisy = {
        "values": [" 3 ", "+1", "2/4", "-2/2"],
        "agents": [
            {"probs": {"+3": "2/16", "-2/2": "2/4", " 1 ": " 1/8", "2/4": "+1/4"}},
            {"probs": {"3": "2/6", "-1": "+1/3", "2/2": "-0/5", "1/2": "3/9"}},
        ],
    }
    env, again = environment_from_json(canonical), environment_from_json(noisy)
    assert again == env and again.values.values == env.values.values
    assert again.flags == env.flags == ("agent 1: zero probability on {1}",)
    for a, b in zip(env.agents, again.agents):
        assert (a.keys, a.weights, a.den) == (b.keys, b.weights, b.den)
        assert (a.p, a.pos_mass, a.neg_mass, a.u_plus, a.u_minus) == (
            b.p, b.pos_mass, b.neg_mass, b.u_plus, b.u_minus
        )


def test_json_rejects_key_mismatch_and_decimals():
    obj = {
        "values": ["-1", "1"],
        "agents": [
            {"probs": {"-1": "1/2", "1": "1/2"}},
            {"probs": {"-1": "1/2", "2": "1/2"}},
        ],
    }
    with pytest.raises(InvalidEnvironment):
        environment_from_json(obj)

    obj = {
        "values": ["-1", "1"],
        "agents": [
            {"probs": {"-1": "0.5", "1": "0.5"}},
            {"probs": {"-1": "1/2", "1": "1/2"}},
        ],
    }
    with pytest.raises(ValueError):
        environment_from_json(obj)


def test_json_rejects_bad_sum_via_loader():
    obj = {
        "values": ["-1", "1"],
        "agents": [
            {"probs": {"-1": "1/2", "1": "499/1000"}},
            {"probs": {"-1": "1/2", "1": "1/2"}},
        ],
    }
    with pytest.raises(InvalidEnvironment):
        environment_from_json(obj)


def test_json_rejects_an_agent_name_that_is_not_a_string():
    halves = {"-1": "1/2", "1": "1/2"}
    for name in (7, ["x"], None):
        obj = {"values": ["-1", "1"], "agents": [{"probs": halves}, {"name": name, "probs": halves}]}
        with pytest.raises(InvalidEnvironment, match="^agent 1: 'name' must be a string$"):
            environment_from_json(obj)
