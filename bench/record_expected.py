"""Rebuild ``expected.json``: exact results recorded from the code it runs against.

Usage, from the repository root::

    python3 bench/record_expected.py

For every family instance the benchmark can draw it records the optimal
welfare, the QMR table, the WMR welfare, the solved mechanism and both check
verdicts. For the ``hetero`` and ``campaign`` instances of ``SEEDS`` it
records the optimal welfare, keyed by a hash of the environment. Every
solved mechanism must first pass the benchmark's own audit.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from audit import audit_anonymous
from run import BENCH_DIR, ROOT, call
import workloads

SEEDS = range(10)


def _cli(cli, argv):
    code, out, err = call(cli, argv + ["--format", "json"])
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code!r}: {err}")
    return json.loads(out)


def _solve(cli, env, path):
    path.write_text(json.dumps(env))
    out = _cli(cli, ["solve", "--env", str(path)])
    problems, direct, interim = audit_anonymous(env, out["mechanism"])
    welfare = Fraction(out["welfare"]["exact"])
    if problems or not welfare == direct == interim:
        raise RuntimeError(f"{path.name}: solved mechanism fails the audit: {problems}")
    return out


def record_family(cli, workdir) -> dict:
    recorded = {}
    for n, eps in workloads.FAMILY_SIZES:
        for M in workloads.FAMILY_M:
            if not workloads.family_valid(n, M):
                continue
            env = workloads.family_env(n, eps, M)
            env_path, mech_path = workdir / "env.json", workdir / "mech.json"
            solved = _solve(cli, env, env_path)
            compare = _cli(cli, ["compare", "--env", str(env_path)])
            values = sorted(Fraction(v) for v in env["values"])
            allocation = solved["mechanism"]["allocation"]
            entry = {
                "opt": compare["opt"]["welfare"]["exact"],
                "k_star": compare["qmr"]["k_star"],
                "qmr": compare["qmr"]["table"],
                "wmr": compare["wmr"]["welfare"]["exact"],
                "mechanism": [
                    allocation[",".join(str(v) for v in m)]
                    for m in combinations_with_replacement(values, n)
                ],
            }
            for role, mech in (("check_opt", solved["mechanism"]), ("check_wmr", workloads.utilitarian_wmr(env))):
                mech_path.write_text(json.dumps(mech))
                out = _cli(cli, ["check", "--env", str(env_path), "--mech", str(mech_path)])
                entry[role] = {
                    "anonymous": out["anonymous"],
                    "bic": out["bic"]["satisfied"],
                    "welfare": out["welfare"]["exact"],
                }
            recorded[workloads.family_key(n, eps, M)] = entry
            print(f"family {workloads.family_key(n, eps, M)}: opt {entry['opt']}", flush=True)
    return recorded


def record_solve(cli, workdir, seeds) -> dict:
    recorded = {}
    for seed in seeds:
        for generate in (workloads.hetero, workloads.campaign):
            wl = generate(seed)
            for op in wl.ops:
                out = _solve(cli, wl.files[op.env], workdir / "env.json")
                recorded[op.key] = out["welfare"]["exact"]
        print(f"seed {seed}: {len(recorded)} solve instances", flush=True)
    return recorded


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import anonvote.cli as cli

    workdir = ROOT / ".bench_out" / "work-record"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {
        "note": "exact results recorded by bench/record_expected.py",
        "family": record_family(cli, workdir),
        "solve": record_solve(cli, workdir, SEEDS),
    }
    shutil.rmtree(workdir)
    (BENCH_DIR / "expected.json").write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
