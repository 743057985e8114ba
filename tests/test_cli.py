import json

import pytest

from anonvote import environment_to_json, make_theorem2_env, mechanism_to_json
from anonvote.cli import main
from anonvote.experiments import example1_fixture, make_fstar


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


def test_compare_reports_ratios(gamma0_file, capsys):
    code, payload = run_json(capsys, ["compare", "--env", gamma0_file, "--format", "json"])
    assert code == 0
    assert payload["qmr"]["k_star"] == 3
    assert payload["qmr"]["welfare"]["exact"] == "21/8"
    assert payload["opt"]["welfare"]["exact"] == "5"
    assert payload["wmr"]["welfare"]["exact"] == "5"
    assert payload["ratios"]["opt_over_wmr"]["exact"] == "1"
    assert payload["ratios"]["qmr_over_wmr"]["exact"] == "21/40"


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


def test_size_guard_requires_force_large(tmp_path, capsys):
    dist = {"probs": {"-1": "1/2", "1": "1/2"}}
    env = {"values": ["-1", "1"], "agents": [dist] * 9}
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(env))
    assert main(["solve", "--env", str(path)]) == 2
    assert "force-large" in capsys.readouterr().err
    assert main(["solve", "--env", str(path), "--force-large"]) == 0


def test_support_mismatch_is_an_input_error(gamma0_file, tmp_path, capsys):
    mech = tmp_path / "wrong.json"
    mech.write_text(json.dumps(mechanism_to_json(make_fstar(3, 100))))
    assert main(["check", "--env", gamma0_file, "--mech", str(mech)]) == 2


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


def test_unknown_suite_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "mystery"])
    assert excinfo.value.code == 2
