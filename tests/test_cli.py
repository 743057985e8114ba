import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from _oracles import mixed_denominator_env, sign_table_by_evaluate
from anonvote import (cli, environment_to_json, environments, experiments, make_theorem2_env,
                      mechanism_to_json, wmr_build)
from anonvote.cli import main
from anonvote.experiments import example1_fixture, make_fstar, random_environment
from anonvote.mechanisms import QualifiedMajorityRule, WeightedMajorityRule, welfare
from anonvote.rationals import format_rational
from anonvote.welfare_opt import AuxCorners, aux_corners, solve_opt


@pytest.fixture()
def gamma0_file(tmp_path):
    path = tmp_path / "gamma0.json"
    path.write_text(json.dumps(environment_to_json(make_theorem2_env(3, 10, 0))))
    return str(path)


@pytest.fixture()
def example1_files(tmp_path):
    env, rule, _ = example1_fixture()
    env_path = tmp_path / "example1_env.json"
    env_path.write_text(json.dumps(environment_to_json(env)))
    mech_path = tmp_path / "example1_f.json"
    mech_path.write_text(json.dumps(mechanism_to_json(rule)))
    return str(env_path), str(mech_path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_reports_the_limit_welfare(gamma0_file, capsys):
    assert main(["solve", "--env", gamma0_file]) == 0
    out = capsys.readouterr().out
    assert "optimal welfare: 5 " in out
    assert "'pivots': 6, 'degenerate_pivots': 6, 'bound_flips': 1," in out


def test_solve_json_round_trips_through_check(gamma0_file, tmp_path, capsys):
    code, payload = run_json(capsys, ["solve", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert payload["welfare"]["exact"] == "5"
    mech_path = tmp_path / "solved.json"
    mech_path.write_text(json.dumps(payload["mechanism"]))
    code, audit = run_json(
        capsys, ["check", "--env", gamma0_file, "--mech", str(mech_path), "--format", "json"]
    )
    assert code == 0
    assert audit["bic"]["satisfied"] is True
    assert audit["anonymous"] is True
    assert audit["welfare"]["exact"] == "5"


def test_interim_tables_list_their_reports_in_ascending_value_order(tmp_path, capsys):
    # the audit builds each interim table in value order and the report keeps
    # it; over these values the order of the strings differs from it
    env = mixed_denominator_env()
    shown = [format_rational(v) for v in env.values]
    assert sorted(shown) != shown
    env_path, mech_path = tmp_path / "mixed.json", tmp_path / "mixedopt.json"
    env_path.write_text(json.dumps(environment_to_json(env)))
    code, solved = run_json(capsys, ["solve", "--env", str(env_path), "--format", "json"])
    assert code == 0
    mech_path.write_text(json.dumps(solved))
    code, checked = run_json(
        capsys, ["check", "--env", str(env_path), "--mech", str(mech_path), "--format", "json"]
    )
    assert code == 0
    tables = [row["table"] for row in solved["interims"]] + checked["interims"]
    assert [list(table) for table in tables] == [shown] * (2 * env.n)


def test_compare_reports_ratios(gamma0_file, capsys):
    code, payload = run_json(capsys, ["compare", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert payload["qmr"]["k_star"] == 3
    assert payload["qmr"]["welfare"]["exact"] == "21/8"
    assert payload["opt"]["welfare"]["exact"] == "5"
    assert payload["wmr"]["welfare"]["exact"] == "5"
    assert payload["ratios"]["opt_over_wmr"]["exact"] == "1"
    assert payload["ratios"]["qmr_over_wmr"]["exact"] == "21/40"


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
@pytest.mark.parametrize("name", ["gamma0", "mixed"])
def test_json_reports_are_one_line_from_the_c_encoder(name, tmp_path, monkeypatch, capsys):
    # the pure-Python encoder (the one json.dumps uses given an indent, and
    # json.dump always) raises, so every report must come from the C encoder
    env = make_theorem2_env(3, 10, 0) if name == "gamma0" else mixed_denominator_env()
    env_path, mech_path = tmp_path / "env.json", tmp_path / "opt.json"
    env_path.write_text(json.dumps(environment_to_json(env)))
    mech_path.write_text(json.dumps(mechanism_to_json(solve_opt(env).mechanism)))

    def pure_python(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python)
    data = ["--env", str(env_path)]
    commands = [["solve", *data], ["compare", *data], ["qmr", *data], ["wmr", *data],
                ["check", *data, "--mech", str(mech_path)],
                ["hatf", *data, "--mech", str(mech_path)], ["demo-theorem2"]]
    for argv in commands:
        argv = [*argv, "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        args = cli._build_parser().parse_args(argv)
        inputs = [cli._load_environment(args.env)] if "env" in args else []
        if "mech" in args:
            inputs.append(cli._load_mechanism(args.mech, inputs[0]))
        assert json.loads(out) == json.loads(json.dumps(args.func(args, *inputs)))


def test_solve_and_compare_report_the_same_certified_lp(gamma0_file, capsys):
    _, solved = run_json(capsys, ["solve", "--env", gamma0_file, "--format", "json"])
    _, compared = run_json(capsys, ["compare", "--env", gamma0_file, "--format", "json"])
    assert solved["lp"]["certificate"] == "dual-bound"
    assert (solved["lp"]["pivots"], solved["lp"]["bound_flips"]) == (6, 1)
    assert compared["opt"]["lp"] == solved["lp"]


def test_a_check_of_a_sign_rule_evaluates_it_once_per_sign_key(tmp_path, monkeypatch, capsys):
    # the audit, the welfare and the projection share one table of the rule,
    # made from integers without a call to evaluate: the utilitarian WMR of
    # six agents is not anonymous, so one entry per each of 2^6 coalitions,
    # equal to one evaluate per coalition
    env = make_theorem2_env(6, 13, Fraction(1, 1000))
    env_path, mech_path = tmp_path / "env.json", tmp_path / "wmr.json"
    env_path.write_text(json.dumps(environment_to_json(env)))
    mech_path.write_text(json.dumps(mechanism_to_json(wmr_build(env))))
    calls, made, signs = [], [], WeightedMajorityRule._signs
    monkeypatch.setattr(WeightedMajorityRule, "evaluate", lambda rule, p: calls.append(p))
    monkeypatch.setattr(WeightedMajorityRule, "_signs",
                        lambda rule, n: made.append((rule, signs(rule, n))) or made[-1][1])
    assert main(["check", "--env", str(env_path), "--mech", str(mech_path)]) == 0
    assert "incentive compatible" in capsys.readouterr().out
    assert calls == []
    monkeypatch.undo()
    [(rule, table)] = made
    assert rule == wmr_build(env)
    assert table == sign_table_by_evaluate(rule, env.n)
    assert len(table[0]) == 64


def test_check_and_hatf_on_the_worked_example(example1_files, capsys):
    env_path, mech_path = example1_files
    code, payload = run_json(
        capsys, ["check", "--env", env_path, "--mech", mech_path, "--format", "json"]
    )
    assert code == 0
    assert payload["anonymous"] is True
    assert payload["bic"]["satisfied"] is True
    assert payload["welfare"]["exact"] == "-37/48"
    assert payload["hat"]["anonymous"] is False
    assert payload["hat"]["phi"][""] == "7/12"

    code, hat = run_json(
        capsys, ["hatf", "--env", env_path, "--mech", mech_path, "--format", "json"]
    )
    assert code == 0
    assert hat["anonymous"] is False
    assert hat["phi"]["0"] == "1/3"
    assert hat["phi"]["1"] == "1/4"


def test_qmr_and_wmr_commands(gamma0_file, capsys):
    code, payload = run_json(capsys, ["qmr", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert payload["k_star"] == 3
    assert payload["table"]["3"] == "21/8"

    code, payload = run_json(capsys, ["wmr", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert payload["weights"] == ["110", "110", "2"]
    assert payload["quorum"] == "201"
    assert payload["welfare"]["exact"] == "5"


def test_wmr_tie_override(gamma0_file, capsys):
    code, payload = run_json(
        capsys, ["wmr", "--env", gamma0_file, "--tie", "1/3", "--format", "json"]
    )
    assert code == 0
    assert payload["tie"] == "1/3"


def test_demo_subcommand(capsys):
    code, payload = run_json(
        capsys, ["demo-theorem2", "--n", "3", "--M", "10", "--eps", "0", "--format", "json"]
    )
    assert code == 0
    assert payload["best_qmr"]["welfare"]["exact"] == "21/8"
    assert payload["opt_welfare"]["exact"] == "5"
    assert payload["fstar_welfare"]["exact"] == "5"
    assert payload["strict_gap"] is True
    assert payload["ratio"]["exact"] == "40/21"


def test_verify_suites_pass(capsys):
    assert main(["verify", "example1"]) == 0
    assert main(["verify", "ratio"]) == 0
    assert main(["verify", "theorem1", "--trials", "5", "--seed", "7"]) == 0
    assert main(["verify", "theorem2", "--n", "3", "--M", "10", "--eps", "1/1000"]) == 0
    assert main(["verify", "aux", "--trials", "4", "--seed", "5"]) == 0
    assert main(["verify", "lemma3", "--trials", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6


def test_verify_theorem2_fails_without_a_gap(capsys):
    # far from the limit point the optimum coincides with the best
    # threshold rule, so the suite must report the missing gap and exit 1
    code = main(["verify", "theorem2", "--n", "3", "--M", "10", "--eps", "499/1000"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("suite", ["theorem1", "lemma3", "aux"])
def test_verify_rejects_fewer_than_one_trial(suite, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", suite, "--trials", "0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "--trials" in captured.err


def test_theorem1_failures_print_the_first_three_as_json(monkeypatch, capsys):
    # an off corner value makes every trial a mismatch; the suite prints the
    # count, then the first three failures as indented JSON
    def off_by_one(self):
        return max(self.value_first, self.value_second) + 1

    monkeypatch.setattr(AuxCorners, "best_value", off_by_one)
    assert main(["verify", "theorem1", "--trials", "4", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    rng = random.Random(3)
    shown = []
    for trial in range(3):
        env = random_environment(rng, n_agents=2)
        shown.append(
            {
                "trial": trial,
                "environment": environment_to_json(env),
                "opt": format_rational(solve_opt(env).welfare),
                "qmr1": format_rational(welfare(env, QualifiedMajorityRule(1))),
                "qmr2": format_rational(welfare(env, QualifiedMajorityRule(2))),
                "corner_best": format_rational(aux_corners(env).best_value()),
            }
        )
    expected = "FAIL theorem1: 4 mismatches" + "".join("\n" + json.dumps(f, indent=2) for f in shown)
    assert out == expected + "\n"


def test_verify_theorem2_outside_the_family_is_an_input_error(capsys):
    assert main(["verify", "theorem2", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert "at least 3 agents" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--env", missing]) == 2

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["solve", "--env", str(empty)]) == 2

    bad_sum = tmp_path / "bad.json"
    bad_sum.write_text(
        json.dumps(
            {
                "values": ["-1", "1"],
                "agents": [
                    {"probs": {"-1": "1/2", "1": "499/1000"}},
                    {"probs": {"-1": "1/2", "1": "1/2"}},
                ],
            }
        )
    )
    assert main(["solve", "--env", str(bad_sum)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.fixture
def digit_limit():
    """Python's limit on the digits of an integer string, set to its
    default, 4,300, for one test and restored after it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on integer string digits")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", ["qmr", "compare"])
def test_a_result_past_the_digit_limit_exits_2_naming_it(command, fmt, digit_limit, tmp_path,
                                                          capsys):
    # five agents whose probabilities have 1,001-digit denominators: the
    # exact threshold welfares pass the limit, which solve's outputs do not
    d = 10**1000 + 1
    agents = [{"probs": {"-1": f"{d // (k + 2)}/{d}", "1": f"{d - d // (k + 2)}/{d}"}}
              for k in range(5)]
    path = tmp_path / "bigden.json"
    path.write_text(json.dumps({"values": ["-1", "1"], "agents": agents}))
    assert main(["solve", "--env", str(path), "--format", fmt]) == 0
    capsys.readouterr()
    assert main([command, "--env", str(path), "--format", fmt]) == 2
    assert capsys.readouterr() == ("", f"error: too large: an exact result has more than "
                                       f"{digit_limit} digits, the limit of Python's integer "
                                       "string conversion\n")


def test_an_environment_error_names_the_agent_index(tmp_path, capsys):
    # two agents share a name, so only the index says which one is at fault
    path = tmp_path / "named.json"
    path.write_text(
        json.dumps(
            {
                "values": ["-1", "1"],
                "agents": [
                    {"name": "x", "probs": {"-1": "1/2", "1": "1/2"}},
                    {"name": "x", "probs": {"-1": "1/2", "1": "499/1000"}},
                ],
            }
        )
    )
    assert main(["solve", "--env", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: agent 1 (x): probabilities must sum to 1 (got 999/1000)\n"


_GAMMA0 = environment_to_json(make_theorem2_env(3, 10, 0))
_FSTAR = mechanism_to_json(make_fstar(3, 10))
_HALVES = {"probs": {"-1": "1/2", "1": "1/2"}}


@pytest.mark.parametrize(
    "command, env, mech, flags",
    [
        ("solve", "directory", None, []),
        ("solve", b'{"values": ["\xff"]}', None, []),
        ("solve", {"values": 5, "agents": [_HALVES]}, None, []),
        ("solve", {"values": ["-1", "1"], "agents": 5}, None, []),
        ("solve", {"values": ["-1", "1"], "agents": [{"probs": ["1/2", "1/2"]}]}, None, []),
        ("solve", {"values": ["-1", "1"], "agents": [_HALVES, {**_HALVES, "name": 7}]}, None, []),
        ("check", _GAMMA0, {"kind": "qmr", "k": 1.5}, []),
        ("check", _GAMMA0, {"kind": "qmr", "k": True}, []),
        ("check", _GAMMA0, {**_FSTAR, "n": 3.0}, []),
        ("check", _GAMMA0, {"kind": "wmr", "weights": "123", "quorum": "1"}, []),
        ("check", _GAMMA0, {**_FSTAR, "allocation": list(_FSTAR["allocation"].values())}, []),
        ("check", _GAMMA0, {**_FSTAR, "kind": "ordered_table", "table": []}, []),
        ("wmr", _GAMMA0, None, ["--tie", "2"]),
        ("compare", _GAMMA0, None, ["--tie", "2"]),
    ],
    ids=[
        "env-directory",
        "env-not-utf8",
        "values-not-list",
        "agents-not-list",
        "probs-not-object",
        "name-not-string",
        "k-fraction",
        "k-bool",
        "n-float",
        "weights-string",
        "allocation-list",
        "table-list",
        "wmr-tie-above-1",
        "compare-tie-above-1",
    ],
)
def test_malformed_inputs_exit_2_without_a_traceback(
    command, env, mech, flags, tmp_path, capsys
):
    env_path = tmp_path / "env.json"
    if env == "directory":
        env_path.mkdir()
    elif isinstance(env, bytes):
        env_path.write_bytes(env)
    else:
        env_path.write_text(json.dumps(env))
    argv = [command, "--env", str(env_path), *flags]
    if mech is not None:
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(json.dumps(mech))
        argv += ["--mech", str(mech_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_check_and_hatf_print_the_same_coalitions(example1_files, capsys):
    env_path, mech_path = example1_files

    def coalition_lines(command):
        assert main([command, "--env", env_path, "--mech", mech_path]) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if "coalition" in line]

    lines = coalition_lines("hatf")
    assert "  coalition {-} -> 7/12 (~ 0.583333)" in lines
    assert coalition_lines("check") == lines


def test_the_column_count_decides_the_size_refusal(tmp_path, monkeypatch, capsys):
    # nine agents over {-1, 1} have 10 columns and solve; nine over 8 values
    # have C(16, 9) = 11,440 and are refused before any distribution is made
    dist = {"probs": {"-1": "1/2", "1": "1/2"}}
    nine = tmp_path / "nine.json"
    nine.write_text(json.dumps({"values": ["-1", "1"], "agents": [dist] * 9}))
    assert main(["solve", "--env", str(nine)]) == 0
    assert capsys.readouterr().err == ""
    rng = random.Random(1)
    draws = (random_environment(rng, 9, 8) for _ in iter(int, 1))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(environment_to_json(next(e for e in draws if len(e.values) == 8))))
    calls = []
    monkeypatch.setattr(environments, "multiset_distribution", lambda *a: calls.append(a))
    for command in ("solve", "compare", "qmr"):
        assert main([command, "--env", str(wide)]) == 2
        assert capsys.readouterr() == (
            "", "error: too large: 11440 columns of 9 agents over 8 values, "
                "above the limit of 6435\n")
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["demo-theorem2", "--M", "30", "--eps", "1/1000"],
        ["verify", "theorem2", "--M", "30"],
    ],
    ids=["demo-theorem2", "verify-theorem2"],
)
def test_theorem2_commands_keep_the_size_guard(argv, monkeypatch, capsys):
    # the family's weighted rule is not anonymous: 2^12 sign keys are admitted,
    # 2^13 refused before the program is solved
    assert main(argv + ["--n", "12"]) == 0
    assert capsys.readouterr().err == ""
    solves = []
    monkeypatch.setattr(experiments, "solve_opt", solves.append)
    assert main(argv + ["--n", "13"]) == 2
    assert capsys.readouterr() == ("", "error: too large: 8192 sign keys of 13 agents "
                                       "(the rule is not anonymous), above the limit of 6435\n")
    assert solves == []


def test_compare_refuses_a_large_sign_table_before_the_program(tmp_path, monkeypatch, capsys):
    path = tmp_path / "fam13.json"
    path.write_text(json.dumps(environment_to_json(make_theorem2_env(13, 30, Fraction(1, 1000)))))
    solves = []
    monkeypatch.setattr(cli, "solve_opt", solves.append)
    assert main(["compare", "--env", str(path)]) == 2
    assert "too large: 8192 sign keys of 13 agents" in capsys.readouterr().err
    assert solves == []
    # an anonymous rule's table is small, but its projection has 2^13 coalitions
    mech = tmp_path / "qmr.json"
    mech.write_text(json.dumps({"kind": "qmr", "k": 7}))
    assert main(["hatf", "--env", str(path), "--mech", str(mech)]) == 2
    assert capsys.readouterr() == ("", "error: too large: 8192 coalitions of 13 agents, "
                                       "above the limit of 6435\n")


def test_support_mismatch_is_an_input_error(gamma0_file, tmp_path, capsys):
    # one check, the audits' own, refuses a table over other values and a
    # weighted rule for another agent count, and names the mechanism file
    wrong = {
        "table.json": (make_fstar(3, 100),
                       "rule support or agent count does not match the environment"),
        "wmr8.json": (wmr_build(make_theorem2_env(8, 19, Fraction(1, 1000))),
                      "profile has 3 entries, rule has 8 weights"),
    }
    for name, (rule, message) in wrong.items():
        mech = tmp_path / name
        mech.write_text(json.dumps(mechanism_to_json(rule)))
        for command in ("check", "hatf"):
            for fmt in ("table", "json"):
                argv = [command, "--env", gamma0_file, "--mech", str(mech), "--format", fmt]
                assert main(argv) == 2
                out, err = capsys.readouterr()
                assert (out, err) == ("", f"error: {mech}: {message}\n")


def test_hatf_refuses_zero_probability_coalitions(tmp_path, capsys):
    env = {
        "values": ["-1", "1"],
        "agents": [
            {"probs": {"-1": "0", "1": "1"}},
            {"probs": {"-1": "1/2", "1": "1/2"}},
        ],
    }
    env_path = tmp_path / "stuck.json"
    env_path.write_text(json.dumps(env))
    mech_path = tmp_path / "qmr.json"
    mech_path.write_text(json.dumps({"kind": "qmr", "k": 1}))
    assert main(["hatf", "--env", str(env_path), "--mech", str(mech_path)]) == 2
    assert "probability zero" in capsys.readouterr().err


def test_hatf_refuses_more_than_twelve_agents_before_the_rules_table(tmp_path, monkeypatch,
                                                                      capsys):
    # an 18-agent weighted rule with distinct weights is not anonymous, so
    # its table has 2^18 sign keys: none is evaluated before the refusal,
    # which names the mechanism file, under hatf and check alike
    values = ["-2", "-1", "1", "2"]
    agents = [{"probs": dict(zip(values, ["1/4", "1/4", f"{k + 1}/40", f"{19 - k}/40"]))}
              for k in range(18)]
    env_path, mech_path = tmp_path / "env18.json", tmp_path / "wmr18.json"
    env_path.write_text(json.dumps({"values": values, "agents": agents}))
    rule = wmr_build(cli.environment_from_json(json.loads(env_path.read_text())))
    assert len(set(rule.weights)) == 18
    mech_path.write_text(json.dumps(mechanism_to_json(rule)))
    calls, evaluate = [], WeightedMajorityRule.evaluate
    monkeypatch.setattr(WeightedMajorityRule, "evaluate",
                        lambda rule, profile: calls.append(profile) or evaluate(rule, profile))
    message = (f"error: {mech_path}: too large: 262144 sign keys of 18 agents "
               "(the rule is not anonymous), above the limit of 6435\n")
    for command, fmt in itertools.product(("hatf", "check"), ("table", "json")):
        argv = [command, "--env", str(env_path), "--mech", str(mech_path), "--format", fmt]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
    assert calls == []


def test_unknown_suite_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "mystery"])
    assert excinfo.value.code == 2


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each adds a large share to a call's set-up time; a fresh interpreter
    # sees what importing the CLI loads, whatever this process has loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, anonvote.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "[]\n"


def test_a_closed_pipe_ends_the_command_quietly(gamma0_file):
    # `anonvote qmr ... | head -0`, made deterministic: the read end is
    # closed before the command starts, so its first write fails
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "anonvote.cli", "qmr", "--env", gamma0_file],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_one_parser_serves_every_call_and_keeps_no_state(gamma0_file, tmp_path, capsys):
    opt = tmp_path / "opt.json"
    assert main(["solve", "--env", gamma0_file, "--format", "json"]) == 0
    opt.write_text(capsys.readouterr().out)
    calls = [
        ["compare", "--env", gamma0_file, "--tie", "1/3", "--format", "json"],
        ["compare", "--env", gamma0_file, "--format", "json"],
        ["verify", "example1", "--trials", "0"],
        ["solve", "--env", gamma0_file],
        ["check", "--env", gamma0_file, "--mech", str(opt)],
        ["verify", "example1"],
        ["compare", "--env", gamma0_file, "--tie", "1/3"],
        ["verify", "example1", "--trials", "0"],
        ["compare", "--env", gamma0_file],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # a parse error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = {}
    for argv in reversed(calls):  # each call the first of a new parser
        cli._build_parser.cache_clear()
        first[tuple(argv)] = run(argv)
    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert shared == [first[tuple(argv)] for argv in calls]
    assert json.loads(shared[0][1])["wmr"]["tie"] == "1/3"
    assert json.loads(shared[1][1])["wmr"]["tie"] == "1/2"
    code, out, err = shared[2]
    assert (code, out) == (2, "")
    assert err.startswith("usage: anonvote verify") and "must be at least 1" in err
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 2, 0]


# ----------------------------------------------------------- table output

_EX1_VALUES = ["-2", "-1", "1", "2"]
# anonymous, yet it reforms only when both report negative: fails BIC
_NON_BIC = {
    "kind": "anonymous",
    "n": 2,
    "values": _EX1_VALUES,
    "allocation": {
        f"{a},{b}": "1" if b.startswith("-") else "0"
        for a, b in itertools.combinations_with_replacement(_EX1_VALUES, 2)
    },
}

_GOLDEN = {
    "compare": (
        ["compare", "--env", "{gamma0}"],
        """\
best qualified majority: k = 3, welfare 21/8 (~ 2.625000)
  k=0: -90 (~ -90.000000)
  k=1: -519/8 (~ -64.875000)
  k=2: -69/4 (~ -17.250000)
  k=3: 21/8 (~ 2.625000)
  k=4: 0 (~ 0.000000)
optimal anonymous rule welfare: 5 (~ 5.000000)
weighted rule: weights ['110', '110', '2'], quorum 201, welfare 5 (~ 5.000000)
qmr/wmr: 21/40 (~ 0.525000) = 52.50%
opt/wmr: 1 (~ 1.000000) = 100.00%
""",
    ),
    "qmr": (
        ["qmr", "--env", "{gamma0}"],
        """\
best threshold: k = 3, welfare 21/8 (~ 2.625000)
  k=0: -90 (~ -90.000000)
  k=1: -519/8 (~ -64.875000)
  k=2: -69/4 (~ -17.250000)
  k=3: 21/8 (~ 2.625000)
  k=4: 0 (~ 0.000000)
""",
    ),
    "wmr": (
        ["wmr", "--env", "{gamma0}"],
        """\
weights: ['110', '110', '2'], quorum 201, tie 1/2
welfare: 5 (~ 5.000000)
""",
    ),
    "wmr-tie": (
        ["wmr", "--env", "{gamma0}", "--tie", "1/3"],
        """\
weights: ['110', '110', '2'], quorum 201, tie 1/3
welfare: 5 (~ 5.000000)
""",
    ),
    "check-fstar": (
        ["check", "--env", "{gamma0}", "--mech", "{fstar}"],
        """\
anonymous: yes
incentive compatible: yes
  agent 0: c- = 0, c+ = 1/2
  agent 1: c- = 0, c+ = 1/2
  agent 2: c- = 1/4, c+ = 1/4
welfare: 5 (~ 5.000000)
projection anonymous: no
  coalition {-} -> 0 (~ 0.000000)
  coalition {0} -> 0 (~ 0.000000)
  coalition {1} -> 0 (~ 0.000000)
  coalition {2} -> 0 (~ 0.000000)
  coalition {0,1} -> 1 (~ 1.000000)
  coalition {0,2} -> 0 (~ 0.000000)
  coalition {1,2} -> 0 (~ 0.000000)
  coalition {0,1,2} -> 1 (~ 1.000000)
""",
    ),
    "hatf-fstar": (
        ["hatf", "--env", "{gamma0}", "--mech", "{fstar}"],
        """\
projection anonymous: no
  coalition {-} -> 0 (~ 0.000000)
  coalition {0} -> 0 (~ 0.000000)
  coalition {1} -> 0 (~ 0.000000)
  coalition {2} -> 0 (~ 0.000000)
  coalition {0,1} -> 1 (~ 1.000000)
  coalition {0,2} -> 0 (~ 0.000000)
  coalition {1,2} -> 0 (~ 0.000000)
  coalition {0,1,2} -> 1 (~ 1.000000)
""",
    ),
    "check-example1": (
        ["check", "--env", "{example1_env}", "--mech", "{example1_rule}"],
        """\
anonymous: yes
incentive compatible: yes
  agent 0: c- = 1/2, c+ = 1/2
  agent 1: c- = 1/2, c+ = 1/2
welfare: -37/48 (~ -0.770833)
projection anonymous: no
  coalition {-} -> 7/12 (~ 0.583333)
  coalition {0} -> 1/3 (~ 0.333333)
  coalition {1} -> 1/4 (~ 0.250000)
  coalition {0,1} -> 1 (~ 1.000000)
""",
    ),
    "hatf-example1": (
        ["hatf", "--env", "{example1_env}", "--mech", "{example1_rule}"],
        """\
projection anonymous: no
  coalition {-} -> 7/12 (~ 0.583333)
  coalition {0} -> 1/3 (~ 0.333333)
  coalition {1} -> 1/4 (~ 0.250000)
  coalition {0,1} -> 1 (~ 1.000000)
""",
    ),
    "check-not-bic": (
        ["check", "--env", "{example1_env}", "--mech", "{non_bic}"],
        """\
anonymous: yes
incentive compatible: no (BicViolation(agent=0, monotonicity: interim(-1)=3/4 vs interim(1)=0))
welfare: -41/24 (~ -1.708333)
projection anonymous: yes
  coalition {-} -> 1 (~ 1.000000)
  coalition {0} -> 0 (~ 0.000000)
  coalition {1} -> 0 (~ 0.000000)
  coalition {0,1} -> 0 (~ 0.000000)
""",
    ),
    "demo-limit": (
        ["demo-theorem2", "--eps", "0"],
        """\
family member: n=3, M=10, eps=0
best qualified majority (k=3): 21/8 (~ 2.625000)
optimal anonymous rule: 5 (~ 5.000000)
override rule welfare: 5 (~ 5.000000)
weighted rule welfare: 5 (~ 5.000000)
strict cardinal gap: yes
opt/qmr ratio: 40/21 (~ 1.904762)
""",
    ),
    "demo-eps": (
        ["demo-theorem2", "--eps", "1/1000"],
        """\
family member: n=3, M=10, eps=1/1000
best qualified majority (k=3): 10491/4000 (~ 2.622750)
optimal anonymous rule: 811659931/167000000 (~ 4.860239)
weighted rule welfare: 9937/2000 (~ 4.968500)
strict cardinal gap: yes
opt/qmr ratio: 811659931/437999250 (~ 1.853108)
""",
    ),
    "verify-example1": (
        ["verify", "example1"],
        """\
projection anonymous: no
  coalition {-} -> 7/12 (~ 0.583333)
  coalition {0} -> 1/3 (~ 0.333333)
  coalition {1} -> 1/4 (~ 0.250000)
  coalition {0,1} -> 1 (~ 1.000000)
PASS example1: projection blocks {1, 1/3, 1/4, 7/12}, not anonymous, welfare preserved
""",
    ),
    "verify-ratio": (
        ["verify", "ratio"],
        """\
  M=10: ratio 40/21 (~ 1.904762)
  M=100: ratio 400/201 (~ 1.990050)
  M=1000: ratio 4000/2001 (~ 1.999000)
PASS ratio: ratios match 4M/(2M+1), strictly increasing, below 2
""",
    ),
}


@pytest.fixture()
def golden_files(gamma0_file, example1_files, tmp_path):
    env_path, rule_path = example1_files
    files = {"gamma0": gamma0_file, "example1_env": env_path, "example1_rule": rule_path}
    for name, mech in (("fstar", _FSTAR), ("non_bic", _NON_BIC)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mech))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_table_output_is_pinned(case, golden_files, capsys):
    argv, expected = _GOLDEN[case]
    assert main([arg.format(**golden_files) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_solve_table_shows_its_json_payload(gamma0_file, capsys):
    code, payload = run_json(capsys, ["solve", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert main(["solve", "--env", gamma0_file, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    agents = [f"agent {row['agent']}: c- = {row['c_minus']}, c+ = {row['c_plus']}"
              for row in payload["interims"]]
    assert [line for line in lines if line.startswith("agent ")] == agents
    nonzero = [f"  {{{key}}} -> {q} (~ {float(Fraction(q)):.6f})"
               for key, q in payload["mechanism"]["allocation"].items() if q != "0"]
    assert lines[lines.index("nonzero allocations:") + 1:] == nonzero


# ------------------------------------------------------- malformed inputs

_TWO_HALVES = {"values": ["-1", "1"], "agents": [_HALVES, _HALVES]}


@pytest.mark.parametrize(
    "env, mech, named",
    [
        (
            {"values": ["-1", "1"], "agents": [{"probs": {"-1": "1/2", "1": "0", "2/2": "1/2"}}, _HALVES]},
            None,
            "value 1 twice",
        ),
        (
            _GAMMA0,
            {**_FSTAR, "allocation": {**_FSTAR["allocation"], "1,-1,-100": "1"}},
            "multiset -100,-1,1 twice",
        ),
        (
            _TWO_HALVES,
            {
                "kind": "ordered_table",
                "n": 2,
                "values": ["-1", "1"],
                "table": {"-1,-1": "0", "-1,1": "0", "1,-1": "1", "1,1": "1", "2/2,-1": "0"},
            },
            "profile 1,-1 twice",
        ),
    ],
    ids=["probs", "anonymous-allocation", "ordered-table"],
)
def test_a_key_given_twice_is_rejected(env, mech, named, tmp_path, capsys):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(env))
    argv = ["solve", "--env", str(env_path)]
    if mech is not None:
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(json.dumps(mech))
        argv = ["check", "--env", str(env_path), "--mech", str(mech_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def _without(mech, key):
    return {k: v for k, v in mech.items() if k != key}


_ORDERED = {
    "kind": "ordered_table",
    "n": 2,
    "values": ["-1", "1"],
    "table": {"-1,-1": "0", "-1,1": "0", "1,-1": "0", "1,1": "1"},
}
_WMR = {"kind": "wmr", "weights": ["1", "1"], "quorum": "1"}


@pytest.mark.parametrize(
    "mech, named",
    [
        ({**_FSTAR, "n": -1}, "field 'n' must be a positive integer"),
        ({**_FSTAR, "n": 0}, "field 'n' must be a positive integer"),
        ({**_ORDERED, "n": -1}, "field 'n' must be a positive integer"),
        ({"kind": "qmr"}, "missing field 'k'"),
        (_without(_FSTAR, "n"), "missing field 'n'"),
        (_without(_FSTAR, "values"), "missing field 'values'"),
        (_without(_FSTAR, "allocation"), "missing field 'allocation'"),
        (_without(_ORDERED, "table"), "missing field 'table'"),
        (_without(_WMR, "weights"), "missing field 'weights'"),
        (_without(_WMR, "quorum"), "missing field 'quorum'"),
    ],
    ids=[
        "anonymous-n-negative",
        "anonymous-n-zero",
        "ordered-n-negative",
        "no-k",
        "no-n",
        "no-values",
        "no-allocation",
        "no-table",
        "no-weights",
        "no-quorum",
    ],
)
def test_mechanism_errors_name_the_field(mech, named, tmp_path, capsys):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(_TWO_HALVES))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(json.dumps(mech))
    assert main(["check", "--env", str(env_path), "--mech", str(mech_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


@pytest.mark.parametrize(
    "env_text, mech_text, named",
    [
        (
            '{"values": ["-1", "1"], "agents": [{"probs": {"-1": "1/2", "1": "0", "1": "1/2"}},'
            ' {"probs": {"-1": "1/2", "1": "1/2"}}]}',
            None,
            'key "1" given twice',
        ),
        (
            json.dumps(_TWO_HALVES),
            '{"kind": "qmr", "k": 1, "k": 2}',
            'key "k" given twice',
        ),
    ],
    ids=["environment-probs", "mechanism-field"],
)
def test_a_repeated_json_key_is_an_input_error(env_text, mech_text, named, tmp_path, capsys):
    env_path = tmp_path / "env.json"
    env_path.write_text(env_text)
    argv = ["solve", "--env", str(env_path)]
    if mech_text is not None:
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(mech_text)
        argv = ["check", "--env", str(env_path), "--mech", str(mech_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


def _json_loads_error(text):
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"json.loads accepted {text[:20]!r}")


def test_one_decoder_serves_every_load_with_the_same_messages(tmp_path, monkeypatch, capsys):
    # the duplicate-key decoder is built once: 100 loads construct no
    # json.JSONDecoder (a decoder built per load constructs 100)
    too_long, too_deep = "1" * 4301, "[" * 100_000
    cases = [
        ('{"kind": "qmr", "k": 1, "k": 2}', 'key "k" given twice in one object'),
        ('{"a": {"x": 1, "y": 2, "x": 3}}', 'key "x" given twice in one object'),
        ('\ufeff{"kind": "qmr", "k": 1}',
         "invalid JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"kind": "qmr",\n "k": }', "invalid JSON at line 2: Expecting value"),
        # past Python's integer digit limit (ValueError), past the recursion
        # limit (RecursionError): json.loads's own words
        (too_long, f"invalid JSON: {_json_loads_error(too_long)}"),
        (too_deep, f"invalid JSON: {_json_loads_error(too_deep)}"),
    ]
    for text, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.InputError) as refused:
            cli._load_json(str(path))
        assert str(refused.value) == f"{path}: {message}"
    assert main(["solve", "--env", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {cases[-1][1]}\n"
    path = tmp_path / "env.json"
    env_json = environment_to_json(make_theorem2_env(3, 10, 0))
    path.write_text(json.dumps(env_json))
    assert cli._load_json(str(path)) == env_json
    built, init = [], json.JSONDecoder.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "__init__", counted_init)
    for _ in range(100):
        assert cli._load_json(str(path)) == env_json
    assert len(built) == 0


def _check_two_halves(mech, tmp_path, capsys):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(_TWO_HALVES))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(json.dumps(mech))
    code = main(["check", "--env", str(env_path), "--mech", str(mech_path)])
    return code, capsys.readouterr().err


def test_a_table_of_the_wrong_size_is_refused_by_its_entry_count(tmp_path, capsys):
    # 3001 multisets of 3000 reports over two values: the count alone refuses
    # the table, without enumerating them or printing one
    mech = {"kind": "anonymous", "n": 3000, "values": ["-1", "1"], "allocation": {}}
    code, err = _check_two_halves(mech, tmp_path, capsys)
    assert code == 2
    assert "allocation table has 0 entries, expected 3001" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "mech, named",
    [
        (
            {"kind": "anonymous", "n": 2, "values": ["-1", "1"],
             "allocation": {"-1,-1": "0", "-1,1": "0", "1,2": "1"}},
            "allocation table has foreign key 1,2 and lacks 1,1",
        ),
        (
            {**_ORDERED, "table": {"-1,-1": "0", "-1,1": "0", "1,-1": "0", "1,3": "1"}},
            "ordered table has foreign key 1,3 and lacks 1,1",
        ),
        (
            {**_ORDERED, "table": {"-1,-1": "0"}},
            "ordered table has 1 entries, expected 4",
        ),
        (
            {"kind": "anonymous", "n": 2, "values": ["-1", "1", "2/2"],
             "allocation": {"-1,-1": "0", "-1,1": "0", "1,1": "1"}},
            "mechanism value set contains duplicates",
        ),
    ],
    ids=["anonymous-foreign", "ordered-foreign", "ordered-short", "repeated-value"],
)
def test_table_domain_errors_are_named(mech, named, tmp_path, capsys):
    code, err = _check_two_halves(mech, tmp_path, capsys)
    assert code == 2
    assert named in err
