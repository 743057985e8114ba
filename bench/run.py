"""End-to-end benchmark of the anonvote command line, with an optional traced run.

Usage, from the repository root::

    python3 bench/run.py --workload family|hetero|campaign --seed N --seconds S --trace 0|1

One process, no threads: ``anonvote.cli.main`` is called in-process with its
output captured, in a closed loop with one client (each operation starts when
the previous one has returned). The workload's operations form a pass; passes
run one after another until the next one would take the time spent in passes
past ``--seconds`` (at least one runs). Each pass's outputs are checked as
soon as it ends, outside the timed region, and then dropped (see
``audit.py``); an operation that raises, exits nonzero or returns a wrong
exact value counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref``: time of one pass in units of a fixed reference computation
  (``reference``: the audit's exact enumeration of a small, fixed family
  environment, the same kind of Fraction work the program does) that runs
  after every operation, outside the operation's time. Each pass's time is
  divided by the mean reference time over that pass, and the run reports the
  median over its passes. The pass time in seconds is printed as well, but
  is not in the result: see below.
* ``setup_s``: the fastest of several set-ups, each in a fresh interpreter,
  so that every module anonvote imports, in the package or outside it, loads
  in the timed region: importing ``anonvote.cli``, generating the inputs from
  the seed, and writing and reading back the files. Half run before the
  passes and half after, so that one slow spell of the machine does not
  cover them all. The median is printed as well.
* ``peak_rss_mb``: peak resident memory of the process. What the harness
  keeps does not grow with the number of passes, so a faster program does
  not raise it.

and prints, without putting them in the result, the per-operation latencies
``op_p50_s`` (median over the pass's operations of each operation's fastest
latency over the passes) and ``op_tail_s`` (the same latencies at the
highest percentile with ten operations beyond it, or a quarter of them when
a pass has fewer than 40). They stay out of the gated result because the
family workload's twelve operations fall into a few cost groups whose
order shifts with M, which spread them by more than a quarter between seeds.

On a shared 2-vCPU virtual machine the speed of the same Python code drifts
by 20-50%: spells of seconds to minutes in which a fixed Fraction loop runs
up to twice as fast or slow, with CPU time tracking wall time. A spell often
covers a whole run, so no reduction over one run's passes removes it from
the pass time in seconds. The reference runs through the same spells as the
operations around it, so the ratio cancels most of the drift: seven
minutes of family passes cut into 35 s windows spread by 0.11 (quartile
spread / median) in seconds and by 0.02-0.04 in reference units, and ten
runs on ten seeds spread by 0.03-0.06 in reference units on each workload.
Set-ups are reduced to their fastest, because interference only ever slows
a set-up down.

``--trace 1`` runs untraced passes for half the time and traced passes for
the other half. From the fastest traced pass it reports per-layer self time,
calls, errors and work counts (see ``tracing.py``) and the pass time
``trace.wall_s`` (operation time only, in seconds); ``trace.overhead_s`` is
that time minus the fastest untraced pass.

The last stdout line is the JSON result; the lines before it name every
metric with its unit, the failure fraction and the run metadata. The result,
and in a traced run the spans, are also written under ``.bench_out/``, where
the input files live while the run lasts.

Recorded exact values come from ``expected.json``; ``record_expected.py``
rebuilds it from the code it runs against.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import audit
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 8  # before the passes, and as many after them
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
REFERENCE_ENV = audit.parse_env(workloads.family_env(4, "1/1000", 9))


def load_recorded() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def setup(workload: str, seed: int, recorded: dict, sizes: dict, workdir: Path):
    """Import anonvote, generate the inputs and write and read back the files."""
    start = perf_counter()
    cli = importlib.import_module("anonvote.cli")
    wl = workloads.GENERATORS[workload](seed, recorded, **sizes)
    for name, obj in wl.files.items():
        (workdir / name).write_text(json.dumps(obj))
    for name in wl.files:
        json.loads((workdir / name).read_text())
    return perf_counter() - start, cli, wl


# One set-up in a fresh interpreter; its time is the last line printed.
_COLD_SETUP = """import json, sys
bench, src, workload, seed, sizes, workdir = sys.argv[1:]
sys.path[:0] = [bench, src]
import run
print(run.setup(workload, int(seed), run.load_recorded(), json.loads(sizes), run.Path(workdir))[0])
"""


def cold_setup(workload: str, seed: int, sizes: dict, workdir: Path) -> float:
    args = [str(BENCH_DIR), str(ROOT / "src"), workload, str(seed), json.dumps(sizes), str(workdir)]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP, *args], capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def reference() -> float:
    """Time of the fixed reference computation (about 10 ms), in seconds."""
    start = perf_counter()
    audit.best_qmr_welfare(*REFERENCE_ENV)
    return perf_counter() - start


def call(cli, argv):
    """One in-process CLI call: (exit code, or the exception raised; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising op is a failed op, not a failed run
        code = exc
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    wall: float  # sum of the operations' latencies, in seconds
    ref: float  # mean time of the reference runs between them, in seconds
    latencies: list
    failed: int
    problems: list  # the first few
    layers: dict | None = None


def timed_passes(cli, argvs, budget, judge, tracer=None) -> list[Pass]:
    """Passes until the next one would take the time spent in passes past
    ``budget`` seconds. Each operation is followed by a reference run.
    ``judge(pass number, results)`` checks each pass's results when it ends,
    outside the timed region."""
    passes = []
    spent = 0.0
    while True:
        if tracer is not None:
            tracer.reset()
        latencies, refs, results = [], [], []
        pass_start = perf_counter()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op_id = f"{len(passes)}.{i}"
            t0 = perf_counter()
            results.append(call(cli, argv))
            latencies.append(perf_counter() - t0)
            refs.append(reference())
        elapsed = perf_counter() - pass_start
        layers = tracer.metrics() if tracer else None
        failed, problems = judge(len(passes), results)
        ref = statistics.mean(refs)
        passes.append(Pass(sum(latencies), ref, latencies, failed, problems[:5], layers))
        spent += elapsed
        if spent + elapsed > budget:
            return passes


def checker(wl, recorded):
    """A ``judge`` for ``timed_passes``: (failed ops, problems) of one pass.
    Verdicts are cached by output, which the program gives the same on every pass."""
    verdicts = {}

    def judge(pass_no, results):
        failed, problems = 0, []
        for i, (op, (code, out, err)) in enumerate(zip(wl.ops, results)):
            if code != 0:
                found = [f"exit {code!r}: {err.strip()[-300:]}"]
            elif (i, out) in verdicts:
                found = verdicts[i, out]
            else:
                try:
                    found = audit.verify(op, wl.files[op.env], json.loads(out), recorded)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    found = [f"malformed output: {exc!r}"]
                verdicts[i, out] = found
            if found:
                failed += 1
                problems.append(f"pass {pass_no} op {i} ({op.role} {op.env}): {'; '.join(found)}")
        return failed, problems

    return judge


def tail_latency(latencies):
    """(value, label) at the highest percentile with ten samples, or a
    quarter of them if fewer, beyond it."""
    xs = sorted(latencies)
    rank = len(xs) - min(10, len(xs) // 4)
    return xs[rank - 1], f"p{100 * rank / len(xs):g} of {len(xs)} ops"


def metadata(workload, seed) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": nproc,
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
    }


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, recorded=None, sizes=None
) -> dict:
    """Run one workload; returns the result object plus ``info`` lines.

    The inputs are written under ``out_dir`` for the run's duration; the
    result, and in a traced run the spans, are written there.
    """
    recorded = load_recorded() if recorded is None else recorded
    sizes = sizes or {}
    workdir = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []

    def cold_setups():
        if not trace:
            setups.extend(cold_setup(workload, seed, sizes, workdir) for _ in range(SETUP_REPEATS))

    try:
        cold_setups()
        _, cli, wl = setup(workload, seed, recorded, sizes, workdir)
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"anonvote imported from {cli.__file__}, not from {ROOT / 'src'}")
        argvs = [op.argv(workdir) for op in wl.ops]
        judge = checker(wl, recorded)
        if trace:
            plain = timed_passes(cli, argvs, seconds / 2, judge)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_passes(cli, argvs, seconds / 2, judge, tracer)
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes = timed_passes(cli, argvs, seconds, judge)
        cold_setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = len(wl.ops)
    attempted = n_ops * len(passes)
    failed = sum(p.failed for p in passes)
    problems = [line for p in passes for line in p.problems]
    info = [f"meta {json.dumps(metadata(workload, seed))}"]
    if trace:
        fastest = min(traced, key=lambda p: p.wall)
        layers = dict(fastest.layers)
        layers["trace.wall_s"] = fastest.wall
        layers["trace.overhead_s"] = fastest.wall - min(p.wall for p in plain)
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in layers.items()
        }
        info.append(f"passes: {len(plain)} untraced, {len(traced)} traced, {n_ops} ops each")
        spans_file = out_dir / f"{workload}-seed{seed}-spans.jsonl"
        spans_file.write_text("".join(json.dumps(span) + "\n" for span in tracer.spans))
        info.append(f"spans: {len(tracer.spans)} written to {spans_file}")
    else:
        per_op = [min(p.latencies[i] for p in passes) for i in range(n_ops)]
        tail, tail_label = tail_latency(per_op)
        values = {
            "wall_ref": statistics.median(p.wall / p.ref for p in passes),
            "setup_s": min(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        info += [
            f"passes: {len(passes)} of {n_ops} ops, walls {[round(p.wall, 4) for p in passes]} s, "
            f"reference {[round(p.ref, 6) for p in passes]} s",
            f"wall_s {min(p.wall for p in passes)!r} s: fastest pass, printed only",
            f"op_p50_s {statistics.median(per_op)!r} s: median of {n_ops} ops, "
            f"each the fastest of {len(passes)} passes",
            f"op_tail_s {tail!r} s: {tail_label}",
            f"setup_s: fastest of {len(setups)} set-ups in fresh interpreters; "
            f"median {statistics.median(setups):.6f} s",
        ]
    info += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    info.append(f"fail_frac {failed / attempted!r} ({failed} of {attempted} ops failed)")
    info += [f"FAILED {line}" for line in problems[:5]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_file = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps({**result, "info": info}, indent=1))
    return {**result, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anonvote" / "__init__.py").is_file():
        print(f"error: no anonvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    for line in result.pop("info"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
