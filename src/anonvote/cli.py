"""Command line front end; ``anonvote <command> --help`` lists each command's options.

Every data command (``solve``, ``compare``, ``check``, ``hatf``, ``qmr``,
``wmr``, ``demo-theorem2``) computes one JSON payload: ``--format json``
prints it on one line through the C encoder (pipe it through
``python -m json.tool`` for an indented view), and ``--format table`` (the
default) prints a text view of that same payload. ``verify`` runs a named
assertion suite and prints one PASS/FAIL line.

Exit codes: 0 on success/pass, 1 when a verify suite fails an assertion
or the reader of stdout has closed it (nothing more is printed), 2 on
input errors. All reported comparisons are computed on exact
rationals; decimal renderings are annotations only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .environments import (
    InvalidEnvironment,
    TooLarge,
    environment_from_json,
    environment_to_json,
)
from .experiments import (
    cardinal_ordinal_ratio_sweep,
    example1_fixture,
    random_environment,
    random_feasible_mechanism,
    run_theorem2_demo,
)
from .mechanisms import (
    BicViolation,
    QualifiedMajorityRule,
    ZeroProbabilityCoalition,
    _integer_table,
    check_bic,
    mechanism_from_json,
    mechanism_to_json,
    ordinal_projection,
    qmr_best,
    welfare,
    wmr_build,
)
from .rationals import RationalParseError, format_pair, format_rational, parse_rational
from .welfare_opt import aux_corners, lemma3_bounds, solve_opt

import random

__all__ = ["main"]


class InputError(Exception):
    """User-facing input problem; mapped to exit code 2."""


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise InputError(f"key {json.dumps(twice)} given twice in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per load


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except InputError as exc:  # a repeated key, named by _unique_keys
        raise InputError(f"{path}: {exc}") from None
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or too deep
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def _load_environment(path: str):
    obj = _load_json(path)
    try:
        return environment_from_json(obj)
    except (InvalidEnvironment, RationalParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_mechanism(path: str, env):
    obj = _load_json(path)
    if isinstance(obj, dict) and "mechanism" in obj and "kind" not in obj:
        obj = obj["mechanism"]  # accept a full solve report
    try:
        rule = mechanism_from_json(obj)
        _integer_table(env, rule)  # the audits' support check; they keep the table
        return rule
    except (RationalParseError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _pair(q: Fraction | None) -> dict | None:
    return None if q is None else {"exact": format_rational(q), "decimal": float(q)}


def _interims(env, audit) -> list[tuple]:
    """Per agent audited, (c-, c+, interim table) as strings of its pair."""
    names = [format_pair(*v) for v in env.values.pairs]
    return [(table[names[0]], table[names[-1]], table) for sums, den in audit.sums
            for table in [{name: format_pair(s, den) for name, s in zip(names, sums)}]]


def _fmt(q) -> str:
    """Exact value with a decimal annotation; ``q`` is a Fraction or an exact string."""
    q = Fraction(q)
    return f"{format_rational(q)} (~ {float(q):.6f})"


def _projection_json(projection) -> dict:
    """Coalition entries ordered by coalition size, then members."""
    phi = sorted(projection.by_coalition.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return {
        "anonymous": projection.anonymous,
        "phi": {",".join(map(str, sorted(t))): format_rational(v) for t, v in phi},
    }


def _print_projection(hat: dict):
    print(f"projection anonymous: {'yes' if hat['anonymous'] else 'no'}")
    for members, v in hat["phi"].items():
        print(f"  coalition {{{members or '-'}}} -> {_fmt(v)}")


def _qmr_json(table) -> dict:
    return {
        "k_star": table.k_star,
        "welfare": _pair(table.best_welfare),
        "table": {str(k): format_rational(w) for k, w in table.table.items()},
    }


def _print_thresholds(table: dict):
    for k, w in table.items():
        print(f"  k={k}: {_fmt(w)}")


def _wmr_json(rule, w: Fraction) -> dict:
    fields = mechanism_to_json(rule)  # weights, quorum and tie, after the kind
    del fields["kind"]
    return {**fields, "welfare": _pair(w)}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_rat_arg(text, flag):
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise InputError(f"{flag}: {exc}") from None


def _wmr_rule(env, args):
    try:
        return wmr_build(env, _parse_rat_arg(args.tie, "--tie"))
    except ValueError as exc:
        raise InputError(f"--tie: {exc}") from None


def _theorem2_report(args):
    M = _parse_rat_arg(args.M, "--M")
    eps = _parse_rat_arg(args.eps, "--eps")
    try:
        return run_theorem2_demo(args.n, M, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ------------------------- commands: each returns the JSON payload its _print_* renders


def cmd_solve(args, env) -> dict:
    report = solve_opt(env)
    return {
        "welfare": _pair(report.welfare),
        "interims": [
            {"agent": i, "c_minus": c_minus, "c_plus": c_plus, "table": table}
            for i, (c_minus, c_plus, table) in enumerate(_interims(env, report.audit))
        ],
        "lp": report.lp_stats,
        "mechanism": mechanism_to_json(report.mechanism),
    }


def _print_solve(payload):
    print(f"optimal welfare: {_fmt(payload['welfare']['exact'])}")
    print(f"lp: {payload['lp']}")
    for row in payload["interims"]:
        print(f"agent {row['agent']}: c- = {row['c_minus']}, c+ = {row['c_plus']}")
    print("nonzero allocations:")
    for key, q in payload["mechanism"]["allocation"].items():
        if q != "0":
            print(f"  {{{key}}} -> {_fmt(q)}")


def cmd_compare(args, env) -> dict:
    wmr = _wmr_rule(env, args)
    wmr_welfare = welfare(env, wmr)  # before the LP: its sign table may be refused
    qmr = qmr_best(env)
    opt = solve_opt(env)
    flags = list(wmr.notes)
    ratios = None
    if wmr_welfare != 0:
        ratios = {
            name: {**_pair(q), "percent": float(q) * 100}
            for name, q in (
                ("qmr_over_wmr", qmr.best_welfare / wmr_welfare),
                ("opt_over_wmr", opt.welfare / wmr_welfare),
            )
        }
    else:
        flags.append("weighted-rule welfare is 0; ratios undefined")
    return {
        "qmr": _qmr_json(qmr),
        "opt": {"welfare": _pair(opt.welfare), "lp": opt.lp_stats},
        "wmr": _wmr_json(wmr, wmr_welfare),
        "ratios": ratios,
        "flags": flags,
    }


def _print_compare(payload):
    qmr, wmr = payload["qmr"], payload["wmr"]
    print(f"best qualified majority: k = {qmr['k_star']}, welfare {_fmt(qmr['welfare']['exact'])}")
    _print_thresholds(qmr["table"])
    print(f"optimal anonymous rule welfare: {_fmt(payload['opt']['welfare']['exact'])}")
    print(
        f"weighted rule: weights {wmr['weights']}, "
        f"quorum {wmr['quorum']}, welfare {_fmt(wmr['welfare']['exact'])}"
    )
    for name, ratio in (payload["ratios"] or {}).items():
        label = name.replace("_over_", "/")
        print(f"{label}: {_fmt(ratio['exact'])} = {ratio['percent']:.2f}%")
    for note in payload["flags"]:
        print(f"flag: {note}")


def cmd_check(args, env, rule) -> dict:
    audit = check_bic(env, rule)
    w = welfare(env, rule)
    try:
        hat = _projection_json(ordinal_projection(env, rule))
    except ValueError as exc:  # ZeroProbabilityCoalition or TooLarge
        hat = {"error": str(exc)}
    witness, interims = audit.witness, _interims(env, audit)
    return {
        "anonymous": rule.anonymous,
        "bic": {
            "satisfied": audit.satisfied,
            "witness": None
            if witness is None
            else {  # the exact numbers as strings, in BicViolation's field order
                name: format_rational(v) if isinstance(v, Fraction) else v
                for name in witness.__slots__
                for v in (getattr(witness, name),)
            },
            "c_minus": [row[0] for row in interims] if audit.satisfied else None,
            "c_plus": [row[1] for row in interims] if audit.satisfied else None,
        },
        "welfare": _pair(w),
        "interims": [row[2] for row in interims],
        "hat": hat,
    }


def _print_check(payload):
    print(f"anonymous: {'yes' if payload['anonymous'] else 'no'}")
    bic = payload["bic"]
    if bic["satisfied"]:
        print("incentive compatible: yes")
        for i, (c_minus, c_plus) in enumerate(zip(bic["c_minus"], bic["c_plus"])):
            print(f"  agent {i}: c- = {c_minus}, c+ = {c_plus}")
    else:
        print(f"incentive compatible: no ({BicViolation(**bic['witness'])})")
    print(f"welfare: {_fmt(payload['welfare']['exact'])}")
    if "error" in payload["hat"]:
        print(f"projection unavailable: {payload['hat']['error']}")
    else:
        _print_projection(payload["hat"])


def cmd_hatf(args, env, rule) -> dict:
    return _projection_json(ordinal_projection(env, rule))


def cmd_qmr(args, env) -> dict:
    return _qmr_json(qmr_best(env))


def _print_qmr(payload):
    print(f"best threshold: k = {payload['k_star']}, welfare {_fmt(payload['welfare']['exact'])}")
    _print_thresholds(payload["table"])


def cmd_wmr(args, env) -> dict:
    rule = _wmr_rule(env, args)
    return {**_wmr_json(rule, welfare(env, rule)), "flags": list(rule.notes)}


def _print_wmr(payload):
    print(f"weights: {payload['weights']}, quorum {payload['quorum']}, tie {payload['tie']}")
    print(f"welfare: {_fmt(payload['welfare']['exact'])}")
    for note in payload["flags"]:
        print(f"flag: {note}")


def cmd_demo_theorem2(args) -> dict:
    report = _theorem2_report(args)
    return {
        "n": report.n,
        "M": format_rational(report.M),
        "eps": format_rational(report.eps),
        "best_qmr": {"k_star": report.qmr.k_star, "welfare": _pair(report.qmr.best_welfare)},
        "opt_welfare": _pair(report.opt.welfare),
        "fstar_welfare": _pair(report.fstar_welfare),
        "wmr_welfare": _pair(report.wmr_welfare),
        "strict_gap": report.strict_gap,
        "ratio": _pair(report.ratio),
    }


def _print_demo_theorem2(payload):
    qmr = payload["best_qmr"]
    print(f"family member: n={payload['n']}, M={payload['M']}, eps={payload['eps']}")
    print(f"best qualified majority (k={qmr['k_star']}): {_fmt(qmr['welfare']['exact'])}")
    print(f"optimal anonymous rule: {_fmt(payload['opt_welfare']['exact'])}")
    if payload["fstar_welfare"] is not None:
        print(f"override rule welfare: {_fmt(payload['fstar_welfare']['exact'])}")
    print(f"weighted rule welfare: {_fmt(payload['wmr_welfare']['exact'])}")
    print(f"strict cardinal gap: {'yes' if payload['strict_gap'] else 'no'}")
    if payload["ratio"] is not None:
        print(f"opt/qmr ratio: {_fmt(payload['ratio']['exact'])}")


# ----------------- verify suites: each returns (passed, message) for main's PASS/FAIL line


def _suite_theorem1(args):
    # two agents: optimum = best of the k=1, k=2 majority rules = best aux corner
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        env = random_environment(rng, n_agents=2)
        opt = solve_opt(env).welfare
        w1 = welfare(env, QualifiedMajorityRule(1))
        w2 = welfare(env, QualifiedMajorityRule(2))
        corner_best = aux_corners(env).best_value()
        if not (opt == max(w1, w2) == corner_best):
            failures.append(
                {
                    "trial": trial,
                    "environment": environment_to_json(env),
                    "opt": format_rational(opt),
                    "qmr1": format_rational(w1),
                    "qmr2": format_rational(w2),
                    "corner_best": format_rational(corner_best),
                }
            )
    if not failures:
        return True, f"{args.trials} random 2-agent environments, all exact matches"
    shown = "".join("\n" + json.dumps(failure, indent=2) for failure in failures[:3])
    return False, f"{len(failures)} mismatches{shown}"


def _suite_theorem2(args):
    report = _theorem2_report(args)
    print(
        f"n={report.n} M={format_rational(report.M)} eps={format_rational(report.eps)}: "
        f"qmr {_fmt(report.qmr.best_welfare)}, opt {_fmt(report.opt.welfare)}"
    )
    if report.strict_gap:
        return True, "optimal cardinal rule strictly beats every qualified majority"
    return False, "no strict gap found"


def _suite_lemma3(args):
    rng = random.Random(args.seed)
    checked = 0
    for _ in range(args.trials):
        env = random_environment(rng, n_agents=2)
        for rule in (solve_opt(env).mechanism, random_feasible_mechanism(env, rng)):
            report = lemma3_bounds(env, rule)
            if not report.satisfied:
                return False, f"bound violated: {report}"
            checked += 1
    return True, f"both influence bounds hold on {checked} mechanisms"


def _suite_aux(args):
    rng = random.Random(args.seed)
    for _ in range(args.trials):
        env = random_environment(rng, n_agents=2)
        corners = aux_corners(env)
        p1 = env.agents[0].p
        p2 = env.agents[1].p
        for point in (corners.first, corners.second):
            if p1 * point.c2_plus - (1 - p1) * point.c2_minus != p1 * p1:
                return False, "first influence constraint not tight at a corner"
            if p2 * point.c1_plus - (1 - p2) * point.c1_minus != p2 * p2:
                return False, "second influence constraint not tight at a corner"
        for k, point in ((1, corners.first), (2, corners.second)):
            audit = check_bic(env, QualifiedMajorityRule(k))
            observed = (audit.c_plus[0], audit.c_minus[0], audit.c_plus[1], audit.c_minus[1])
            expected = point.as_tuple()
            if observed != expected:
                return False, f"k={k} interims {observed} differ from corner {expected}"
    return True, f"corner candidates match majority-rule interims on {args.trials} environments"


def _suite_example1(args):
    env, rule, hat_expected = example1_fixture()
    if not rule.anonymous:
        return False, "rule is not anonymous"
    audit = check_bic(env, rule)
    if not audit.satisfied:
        return False, f"rule is not incentive compatible: {audit.witness}"
    projection = ordinal_projection(env, rule)
    for key, expected in hat_expected.allocation.items():
        profile = tuple(hat_expected.values[j] for j in key)
        if projection.evaluate(profile) != expected:
            return False, f"projection at {profile} is not {expected}"
    if projection.anonymous:
        return False, "projection unexpectedly anonymous"
    if welfare(env, projection) != welfare(env, rule):
        return False, "projection changed welfare"
    _print_projection(_projection_json(projection))
    return True, "projection blocks {1, 1/3, 1/4, 7/12}, not anonymous, welfare preserved"


def _suite_ratio(args):
    m_values = [Fraction(10), Fraction(100), Fraction(1000)]
    rows = cardinal_ordinal_ratio_sweep(m_values)
    previous = None
    for row in rows:
        closed_form = 4 * row.M / (2 * row.M + 1)
        if row.ratio != closed_form:
            return False, f"M={row.M}: got {row.ratio}, closed form {closed_form}"
        if row.ratio >= 2:
            return False, f"M={row.M}: ratio {row.ratio} is not below 2"
        if previous is not None and row.ratio <= previous:
            return False, f"not strictly increasing at M={row.M}"
        previous = row.ratio
        print(f"  M={row.M}: ratio {_fmt(row.ratio)}")
    return True, "ratios match 4M/(2M+1), strictly increasing, below 2"


_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "lemma3": _suite_lemma3,
    "aux": _suite_aux,
    "example1": _suite_example1,
    "ratio": _suite_ratio,
}


# ------------------------------------------------------------------ parser


def _data_options(p, func, render, env=True, mech=False):
    """Declare a data command's inputs and ``--format``."""
    if env:
        p.add_argument("--env", required=True, metavar="FILE", help="environment JSON file")
    if mech:
        p.add_argument("--mech", required=True, metavar="FILE", help="mechanism JSON file")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=func, render=render)


@functools.cache  # parse_args keeps no state, so one parser serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonvote",
        description="Exact welfare optimization for anonymous incentive-compatible binary voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimal anonymous incentive-compatible rule")
    _data_options(p, cmd_solve, _print_solve)

    p = sub.add_parser("compare", help="qualified-majority vs optimal vs weighted-majority welfare")
    _data_options(p, cmd_compare, _print_compare)
    p.add_argument("--tie", default="1/2", help="weighted-rule tie allocation (rational)")

    p = sub.add_parser("check", help="audit a mechanism against an environment")
    _data_options(p, cmd_check, _print_check, mech=True)

    p = sub.add_parser("hatf", help="coalition projection of a mechanism")
    _data_options(p, cmd_hatf, _print_projection, mech=True)

    p = sub.add_parser("qmr", help="welfare table of all qualified majority thresholds")
    _data_options(p, cmd_qmr, _print_qmr)

    p = sub.add_parser("wmr", help="utilitarian weighted majority rule")
    _data_options(p, cmd_wmr, _print_wmr)
    p.add_argument("--tie", default="1/2", help="tie allocation (rational)")

    p = sub.add_parser("verify", help="run a named assertion suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--M", default="10")
    p.add_argument("--eps", default="1/1000")

    p = sub.add_parser("demo-theorem2", help="walk through one two-type family member")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--M", default="10")
    p.add_argument("--eps", default="0")
    _data_options(p, cmd_demo_theorem2, _print_demo_theorem2, env=False)

    return parser


def main(argv=None) -> int:
    args, code = _build_parser().parse_args(argv), 0
    try:
        if args.command == "verify":
            passed, message = _SUITES[args.suite](args)
            print(f"{'PASS' if passed else 'FAIL'} {args.suite}: {message}")
            code = 0 if passed else 1
        else:
            inputs = [_load_environment(args.env)] if "env" in args else []
            if "mech" in args:
                inputs.append(_load_mechanism(args.mech, inputs[0]))
            payload = args.func(args, *inputs)
            if args.format == "json":
                print(json.dumps(payload))  # an indent or json.dump would run the Python encoder
            else:
                args.render(payload)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (InputError, TooLarge, ZeroProbabilityCoalition) as exc:  # the input's fault: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader has gone: stdout's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
