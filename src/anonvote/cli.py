"""Command line front end.

Subcommands: ``solve`` (optimal anonymous incentive-compatible rule for an
environment file), ``compare`` (best qualified-majority vs. optimal vs.
weighted-majority welfare), ``check`` (audit a mechanism file against an
environment), ``hatf`` (coalition projection), ``qmr`` / ``wmr``
(benchmark rules), ``verify`` (named assertion suites) and
``demo-theorem2`` (the two-type family walkthrough).

Exit codes: 0 on success/pass, 1 when a verify suite fails an assertion,
2 on input errors. All reported comparisons are computed on exact
rationals; decimal renderings are annotations only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .environments import (
    InvalidEnvironment,
    agent_stats,
    environment_from_json,
)
from .experiments import (
    cardinal_ordinal_ratio_sweep,
    example1_fixture,
    random_environment,
    random_feasible_mechanism,
    run_theorem2_demo,
    verify_theorem1,
)
from .mechanisms import (
    AnonymousSCF,
    OrderedTableSCF,
    QualifiedMajorityRule,
    WeightedMajorityRule,
    ZeroProbabilityCoalition,
    check_bic,
    is_anonymous_rule,
    mechanism_from_json,
    mechanism_to_json,
    ordinal_projection,
    qmr_best,
    welfare,
    wmr_build,
)
from .rationals import RationalParseError, format_rational, parse_rational
from .welfare_opt import aux_corners, lemma3_bounds, solve_opt

import random

__all__ = ["main"]


class InputError(Exception):
    """User-facing input problem; mapped to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _load_environment(path: str):
    obj = _load_json(path)
    try:
        return environment_from_json(obj)
    except (InvalidEnvironment, RationalParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_mechanism(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "mechanism" in obj and "kind" not in obj:
        obj = obj["mechanism"]  # accept a full solve report
    try:
        return mechanism_from_json(obj)
    except (RationalParseError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _check_support(env, rule):
    if isinstance(rule, (AnonymousSCF, OrderedTableSCF)):
        if rule.values != env.values.values or rule.n != env.n:
            raise InputError("mechanism support or agent count does not match the environment")
    elif isinstance(rule, WeightedMajorityRule):
        if len(rule.weights) != env.n:
            raise InputError("weighted rule has a weight count different from n")


_SIZE_LIMIT = 8


def _check_size(env, force_large: bool):
    if force_large:
        return
    if env.n > _SIZE_LIMIT or len(env.values) > _SIZE_LIMIT:
        raise InputError(
            f"refusing n > {_SIZE_LIMIT} or |V| > {_SIZE_LIMIT} without --force-large "
            f"(got n={env.n}, |V|={len(env.values)})"
        )


def _pair(q: Fraction) -> dict:
    return {"exact": format_rational(q), "decimal": float(q)}


def _fmt(q: Fraction) -> str:
    return f"{format_rational(q)} (~ {float(q):.6f})"


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _coalitions(phi: dict) -> list:
    """Projection entries by coalition size, then members."""
    return sorted(phi.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def _print_projection(projection):
    print(f"projection anonymous: {'yes' if projection.anonymous else 'no'}")
    for t, v in _coalitions(projection.phi):
        members = ",".join(map(str, sorted(t))) or "-"
        print(f"  coalition {{{members}}} -> {_fmt(v)}")


def _projection_json(projection) -> dict:
    return {
        "anonymous": projection.anonymous,
        "phi": {
            ",".join(map(str, sorted(t))): format_rational(v)
            for t, v in _coalitions(projection.phi)
        },
    }


def _qmr_json(table) -> dict:
    return {
        "k_star": table.k_star,
        "welfare": _pair(table.best_welfare),
        "table": {str(k): format_rational(w) for k, w in table.table.items()},
    }


def _wmr_json(rule, w: Fraction) -> dict:
    return {
        "weights": [format_rational(x) for x in rule.weights],
        "quorum": format_rational(rule.quorum),
        "tie": format_rational(rule.tie_value),
        "welfare": _pair(w),
    }


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


# ---------------------------------------------------------------- commands


def cmd_solve(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    report = solve_opt(env)
    if args.format == "json":
        _emit(
            {
                "welfare": _pair(report.welfare),
                "interims": [
                    {
                        "agent": i,
                        "c_minus": format_rational(report.c_minus[i]),
                        "c_plus": format_rational(report.c_plus[i]),
                        "table": {
                            format_rational(v): format_rational(q)
                            for v, q in sorted(report.interims[i].items())
                        },
                    }
                    for i in range(env.n)
                ],
                "lp": report.lp_stats,
                "mechanism": mechanism_to_json(report.mechanism),
            }
        )
        return 0
    print(f"optimal welfare: {_fmt(report.welfare)}")
    print(f"lp: {report.lp_stats}")
    for i in range(env.n):
        print(
            f"agent {i}: c- = {format_rational(report.c_minus[i])}, "
            f"c+ = {format_rational(report.c_plus[i])}"
        )
    print("nonzero allocations:")
    for m, q in sorted(report.mechanism.allocation.items()):
        if q != 0:
            key = ",".join(format_rational(v) for v in m)
            print(f"  {{{key}}} -> {_fmt(q)}")
    return 0


def cmd_compare(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    wmr = _wmr_rule(env, args)
    qmr = qmr_best(env)
    opt = solve_opt(env)
    wmr_welfare = welfare(env, wmr)
    flags = list(wmr.notes)
    ratios = None
    if wmr_welfare != 0:
        ratios = {
            "qmr_over_wmr": qmr.best_welfare / wmr_welfare,
            "opt_over_wmr": opt.welfare / wmr_welfare,
        }
    else:
        flags.append("weighted-rule welfare is 0; ratios undefined")
    if args.format == "json":
        payload = {
            "qmr": _qmr_json(qmr),
            "opt": {"welfare": _pair(opt.welfare)},
            "wmr": _wmr_json(wmr, wmr_welfare),
            "ratios": None
            if ratios is None
            else {
                name: {**_pair(value), "percent": float(value) * 100}
                for name, value in ratios.items()
            },
            "flags": flags,
        }
        _emit(payload)
        return 0
    print(f"best qualified majority: k = {qmr.k_star}, welfare {_fmt(qmr.best_welfare)}")
    for k, w in qmr.table.items():
        print(f"  k={k}: {_fmt(w)}")
    print(f"optimal anonymous rule welfare: {_fmt(opt.welfare)}")
    print(
        f"weighted rule: weights {[format_rational(w) for w in wmr.weights]}, "
        f"quorum {format_rational(wmr.quorum)}, welfare {_fmt(wmr_welfare)}"
    )
    if ratios is not None:
        print(f"qmr/wmr: {_fmt(ratios['qmr_over_wmr'])} = {float(ratios['qmr_over_wmr']) * 100:.2f}%")
        print(f"opt/wmr: {_fmt(ratios['opt_over_wmr'])} = {float(ratios['opt_over_wmr']) * 100:.2f}%")
    for note in flags:
        print(f"flag: {note}")
    return 0


def cmd_check(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    rule = _load_mechanism(args.mech)
    _check_support(env, rule)
    anonymous = is_anonymous_rule(rule)
    audit = check_bic(env, rule)
    w = welfare(env, rule)
    projection = None
    hat_error = None
    try:
        projection = ordinal_projection(env, rule)
    except (ZeroProbabilityCoalition, ValueError) as exc:
        hat_error = str(exc)
    if args.format == "json":
        payload = {
            "anonymous": anonymous,
            "bic": {
                "satisfied": audit.satisfied,
                "witness": None
                if audit.witness is None
                else {
                    "agent": audit.witness.agent,
                    "report": format_rational(audit.witness.report),
                    "other_report": format_rational(audit.witness.other_report),
                    "interim": format_rational(audit.witness.interim),
                    "other_interim": format_rational(audit.witness.other_interim),
                    "kind": audit.witness.kind,
                },
                "c_minus": None
                if not audit.satisfied
                else [format_rational(c) for c in audit.c_minus],
                "c_plus": None
                if not audit.satisfied
                else [format_rational(c) for c in audit.c_plus],
            },
            "welfare": _pair(w),
            "interims": [
                {format_rational(v): format_rational(q) for v, q in sorted(t.items())}
                for t in audit.interims
            ],
            "hat": {"error": hat_error} if projection is None else _projection_json(projection),
        }
        _emit(payload)
        return 0
    print(f"anonymous: {'yes' if anonymous else 'no'}")
    if audit.satisfied:
        print("incentive compatible: yes")
        for i in range(env.n):
            print(
                f"  agent {i}: c- = {format_rational(audit.c_minus[i])}, "
                f"c+ = {format_rational(audit.c_plus[i])}"
            )
    else:
        print(f"incentive compatible: no ({audit.witness})")
    print(f"welfare: {_fmt(w)}")
    if projection is None:
        print(f"projection unavailable: {hat_error}")
    else:
        _print_projection(projection)
    return 0


def cmd_hatf(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    rule = _load_mechanism(args.mech)
    _check_support(env, rule)
    try:
        projection = ordinal_projection(env, rule)
    except (ZeroProbabilityCoalition, ValueError) as exc:
        raise InputError(str(exc)) from None
    if args.format == "json":
        _emit(_projection_json(projection))
        return 0
    _print_projection(projection)
    return 0


def cmd_qmr(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    table = qmr_best(env)
    if args.format == "json":
        _emit(_qmr_json(table))
        return 0
    print(f"best threshold: k = {table.k_star}, welfare {_fmt(table.best_welfare)}")
    for k, w in table.table.items():
        print(f"  k={k}: {_fmt(w)}")
    return 0


def cmd_wmr(args) -> int:
    env = _load_environment(args.env)
    _check_size(env, args.force_large)
    rule = _wmr_rule(env, args)
    w = welfare(env, rule)
    if args.format == "json":
        _emit({**_wmr_json(rule, w), "flags": list(rule.notes)})
        return 0
    print(
        f"weights: {[format_rational(x) for x in rule.weights]}, "
        f"quorum {format_rational(rule.quorum)}, tie {format_rational(rule.tie_value)}"
    )
    print(f"welfare: {_fmt(w)}")
    for note in rule.notes:
        print(f"flag: {note}")
    return 0


def cmd_demo_theorem2(args) -> int:
    n = args.n
    M = _parse_rat_arg(args.M, "--M")
    eps = _parse_rat_arg(args.eps, "--eps")
    try:
        report = run_theorem2_demo(n, M, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if args.format == "json":
        payload = {
            "n": report.n,
            "M": format_rational(report.M),
            "eps": format_rational(report.eps),
            "best_qmr": {"k_star": report.qmr.k_star, "welfare": _pair(report.qmr.best_welfare)},
            "opt_welfare": _pair(report.opt.welfare),
            "fstar_welfare": None
            if report.fstar_welfare is None
            else _pair(report.fstar_welfare),
            "wmr_welfare": _pair(report.wmr_welfare),
            "strict_gap": report.strict_gap,
            "ratio": None if report.ratio is None else _pair(report.ratio),
        }
        _emit(payload)
        return 0
    print(f"family member: n={report.n}, M={format_rational(report.M)}, eps={format_rational(report.eps)}")
    print(f"best qualified majority (k={report.qmr.k_star}): {_fmt(report.qmr.best_welfare)}")
    print(f"optimal anonymous rule: {_fmt(report.opt.welfare)}")
    if report.fstar_welfare is not None:
        print(f"override rule welfare: {_fmt(report.fstar_welfare)}")
    print(f"weighted rule welfare: {_fmt(report.wmr_welfare)}")
    print(f"strict cardinal gap: {'yes' if report.strict_gap else 'no'}")
    if report.ratio is not None:
        print(f"opt/qmr ratio: {_fmt(report.ratio)}")
    return 0


# ------------------------------------------------------------ verify suites


def _suite_theorem1(args) -> bool:
    campaign = verify_theorem1(args.trials, args.seed)
    if campaign.passed:
        print(f"PASS theorem1: {campaign.trials} random 2-agent environments, all exact matches")
        return True
    print(f"FAIL theorem1: {len(campaign.failures)} mismatches")
    for failure in campaign.failures[:3]:
        print(json.dumps(failure, indent=2))
    return False


def _suite_theorem2(args) -> bool:
    M = _parse_rat_arg(args.M, "--M")
    eps = _parse_rat_arg(args.eps, "--eps")
    try:
        report = run_theorem2_demo(args.n, M, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print(
        f"n={report.n} M={format_rational(M)} eps={format_rational(eps)}: "
        f"qmr {_fmt(report.qmr.best_welfare)}, opt {_fmt(report.opt.welfare)}"
    )
    if report.strict_gap:
        print("PASS theorem2: optimal cardinal rule strictly beats every qualified majority")
        return True
    print("FAIL theorem2: no strict gap found")
    return False


def _suite_lemma3(args) -> bool:
    rng = random.Random(args.seed)
    checked = 0
    for _ in range(args.trials):
        env = random_environment(rng, n_agents=2)
        for rule in (solve_opt(env).mechanism, random_feasible_mechanism(env, rng)):
            report = lemma3_bounds(env, rule)
            if not report.satisfied:
                print(f"FAIL lemma3: bound violated: {report}")
                return False
            checked += 1
    print(f"PASS lemma3: both influence bounds hold on {checked} mechanisms")
    return True


def _suite_aux(args) -> bool:
    rng = random.Random(args.seed)
    for _ in range(args.trials):
        env = random_environment(rng, n_agents=2)
        corners = aux_corners(env)
        p1 = agent_stats(env, 0).p
        p2 = agent_stats(env, 1).p
        for point in (corners.first, corners.second):
            if p1 * point.c2_plus - (1 - p1) * point.c2_minus != p1 * p1:
                print("FAIL aux: first influence constraint not tight at a corner")
                return False
            if p2 * point.c1_plus - (1 - p2) * point.c1_minus != p2 * p2:
                print("FAIL aux: second influence constraint not tight at a corner")
                return False
        for k, point in ((1, corners.first), (2, corners.second)):
            audit = check_bic(env, QualifiedMajorityRule(k))
            observed = (audit.c_plus[0], audit.c_minus[0], audit.c_plus[1], audit.c_minus[1])
            expected = (point.c1_plus, point.c1_minus, point.c2_plus, point.c2_minus)
            if observed != expected:
                print(f"FAIL aux: k={k} interims {observed} differ from corner {expected}")
                return False
        best = max(
            welfare(env, QualifiedMajorityRule(1)), welfare(env, QualifiedMajorityRule(2))
        )
        if corners.best_value() != best or solve_opt(env).welfare != best:
            print("FAIL aux: corner optimum does not match the program optimum")
            return False
    print(f"PASS aux: corner candidates match majority-rule interims on {args.trials} environments")
    return True


def _suite_example1(args) -> bool:
    env, rule, hat_expected = example1_fixture()
    if not rule.is_anonymous():
        print("FAIL example1: rule is not anonymous")
        return False
    audit = check_bic(env, rule)
    if not audit.satisfied:
        print(f"FAIL example1: rule is not incentive compatible: {audit.witness}")
        return False
    projection = ordinal_projection(env, rule)
    for profile, expected in hat_expected.table.items():
        if projection.hat.evaluate(profile) != expected:
            print(f"FAIL example1: projection at {profile} is not {expected}")
            return False
    if projection.anonymous:
        print("FAIL example1: projection unexpectedly anonymous")
        return False
    if welfare(env, projection.hat) != welfare(env, rule):
        print("FAIL example1: projection changed welfare")
        return False
    _print_projection(projection)
    print("PASS example1: projection blocks {1, 1/3, 1/4, 7/12}, not anonymous, welfare preserved")
    return True


def _suite_ratio(args) -> bool:
    m_values = [Fraction(10), Fraction(100), Fraction(1000)]
    rows = cardinal_ordinal_ratio_sweep(m_values)
    previous = None
    for row in rows:
        closed_form = 4 * row.M / (2 * row.M + 1)
        if row.ratio != closed_form:
            print(f"FAIL ratio: M={row.M}: got {row.ratio}, closed form {closed_form}")
            return False
        if row.ratio >= 2:
            print(f"FAIL ratio: M={row.M}: ratio {row.ratio} is not below 2")
            return False
        if previous is not None and row.ratio <= previous:
            print(f"FAIL ratio: not strictly increasing at M={row.M}")
            return False
        previous = row.ratio
        print(f"  M={row.M}: ratio {_fmt(row.ratio)}")
    print("PASS ratio: ratios match 4M/(2M+1), strictly increasing, below 2")
    return True


_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "lemma3": _suite_lemma3,
    "aux": _suite_aux,
    "example1": _suite_example1,
    "ratio": _suite_ratio,
}


def cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    return 0 if suite(args) else 1


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonvote",
        description="Exact welfare optimization for anonymous incentive-compatible binary voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, env=True, mech=False, fmt=True):
        if env:
            p.add_argument("--env", required=True, metavar="FILE", help="environment JSON file")
        if mech:
            p.add_argument("--mech", required=True, metavar="FILE", help="mechanism JSON file")
        if fmt:
            p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--force-large", action="store_true", help="lift the n/|V| size guard")

    p = sub.add_parser("solve", help="optimal anonymous incentive-compatible rule")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="qualified-majority vs optimal vs weighted-majority welfare")
    common(p)
    p.add_argument("--tie", default="1/2", help="weighted-rule tie allocation (rational)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="audit a mechanism against an environment")
    common(p, mech=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hatf", help="coalition projection of a mechanism")
    common(p, mech=True)
    p.set_defaults(func=cmd_hatf)

    p = sub.add_parser("qmr", help="welfare table of all qualified majority thresholds")
    common(p)
    p.set_defaults(func=cmd_qmr)

    p = sub.add_parser("wmr", help="utilitarian weighted majority rule")
    common(p)
    p.add_argument("--tie", default="1/2", help="tie allocation (rational)")
    p.set_defaults(func=cmd_wmr)

    p = sub.add_parser("verify", help="run a named assertion suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--M", default="10")
    p.add_argument("--eps", default="1/1000")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo-theorem2", help="walk through one two-type family member")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--M", default="10")
    p.add_argument("--eps", default="0")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_demo_theorem2)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
