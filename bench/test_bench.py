"""Tests of the benchmark itself, at tiny sizes."""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "family": {"sizes": ((5, "0"),)},
    "hetero": {"shapes": ((3, 3), (4, 2)), "rounds": 1},
    "campaign": {"shapes": ((2, 2), (3, 2)), "rounds": 2},
}


def tiny_run(tmp_path, workload, trace, recorded=None, seed=0):
    return run.run(workload, seed, 0, trace, tmp_path, recorded=recorded, sizes=TINY[workload])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_reports_every_named_metric(tmp_path, workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        for spec in SPEC[section]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))
            assert any(line.startswith(f"{spec['name']} ") for line in result["info"])
        if not trace:
            for name in ("op_p50_s", "op_tail_s"):
                assert any(line.startswith(f"{name} ") for line in result["info"])


def _corrupt_solve(recorded, seed):
    op = workloads.campaign(seed, **TINY["campaign"]).ops[0]
    recorded["solve"][op.key] = "12345/7"


def _corrupt_family(recorded, seed):
    op = workloads.family(seed, recorded, **TINY["family"]).ops[0]
    recorded["family"][op.key]["opt"] = "12345/7"


@pytest.mark.parametrize(
    "workload, corrupt", [("campaign", _corrupt_solve), ("family", _corrupt_family)]
)
def test_corrupted_expected_value_counts_as_failed(tmp_path, workload, corrupt):
    recorded = copy.deepcopy(run.load_recorded())
    corrupt(recorded, seed=0)
    result = tiny_run(tmp_path, workload, False, recorded=recorded)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert f"fail_frac {1 / result['attempted']!r} " in "\n".join(result["info"])


def test_trace_counts_repeat_and_audit_runs_twice_per_solve(tmp_path):
    first = tiny_run(tmp_path, "hetero", True)["metrics"]
    second = tiny_run(tmp_path, "hetero", True)["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    solves = first["welfare_opt.solve_opt.calls"]["value"]
    assert solves == len(workloads.hetero(0, **TINY["hetero"]).ops)
    assert first["mechanisms.check_bic.calls"]["value"] == 2 * solves
    assert first["ratlp.solve.pivots"]["value"] > 0


def test_missing_layer_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("mechanisms", "gone"),))
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("mechanisms.gone",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics()["mechanisms.gone.calls"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = SPEC["command"] + ["--workload", "family", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
