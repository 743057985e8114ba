"""Seeded input generation for the three benchmark workloads.

Every input is built here from the workload seed, as plain JSON objects; the
program under test only ever sees the files written from them. Nothing in
this module imports anonvote, so the inputs stay the same whatever the
program's own generators do in a later version.

* ``family``: the paper's two-type environment over {-M^2, -1, 1, M}, one
  instance per (n, eps) size with M drawn from the values that satisfy the
  family conditions. Each instance runs ``compare``, ``check`` of the solved
  mechanism (recorded in ``expected.json``, so the input stays fixed when a
  later solver returns another optimal vertex) and ``check`` of the
  utilitarian weighted majority rule.
* ``hetero``: random environments in which every agent has its own
  distribution, at fixed (n, |V|) shapes; one ``solve`` each. At the shapes
  used (2 agents, |V| = 7; 3 agents, |V| = 4) one instance's time varies
  between draws with a coefficient of variation of 0.22 and 0.28 and takes
  0.2-0.5 s, so 96 of them fit in a run and one seed's total work is close
  to another's; the exact simplex still takes over 90% of each ``solve``. At
  3 agents with |V| = 5 and 4 agents with |V| = 4 the coefficient was
  0.45-0.55 (100 to 530 pivots), and the 20 instances that fit in a run
  spread by 0.15 between seeds.
* ``campaign``: many small random environments, one ``solve`` each. The
  (n, |V|) shapes cycle in a fixed order so that every seed runs the same mix
  of sizes and only the numbers differ. An odd number of equally used shapes
  puts the median operation inside one shape's group (n=3, |V|=3), not on
  the boundary between two groups of different cost.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

FAMILY_SIZES = ((5, "1/1000"), (5, "0"), (6, "1/1000"), (6, "0"))
FAMILY_M = range(7, 21)
HETERO_SHAPES = ((2, 7), (3, 4))
HETERO_ROUNDS = 48
CAMPAIGN_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4))
CAMPAIGN_ROUNDS = 25


_COMMANDS = {"compare": "compare", "check_opt": "check", "check_wmr": "check", "solve": "solve"}


@dataclass(frozen=True)
class Op:
    """One CLI call. ``role`` says which exact fields its output must carry;
    ``key`` finds the values recorded for its instance."""

    role: str  # "compare", "check_opt", "check_wmr" or "solve"
    key: str
    env: str
    mech: str | None = None

    def argv(self, workdir) -> list[str]:
        argv = [_COMMANDS[self.role], "--env", str(workdir / self.env)]
        if self.mech:
            argv += ["--mech", str(workdir / self.mech)]
        return argv + ["--format", "json"]


@dataclass
class Workload:
    """Generated inputs: file name to JSON object, and the ops that use them."""

    files: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def env_key(env: dict) -> str:
    """Stable identifier of an environment, used to look up recorded values."""
    text = json.dumps(env, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def family_key(n: int, eps: str, M: int) -> str:
    return f"n={n},eps={eps},M={M}"


def family_valid(n: int, M: int) -> bool:
    """Both family conditions: reform with n-1 supporters loses value in
    expectation, and the {M, M, -1, ..., -1} profile has positive value."""
    M = Fraction(M)
    near_unanimity = Fraction(2, n) * (-M * M + M + n - 2) + Fraction(n - 2, n) * (
        2 * M + n - 4
    )
    return near_unanimity < 0 and 2 * M - (n - 2) > 0


def family_env(n: int, eps: str, M: int) -> dict:
    """Two high-stakes agents on {-M^2, M}, n-2 low-stakes agents on {-1, 1};
    each puts 1/2 - eps on its main pair and eps on the other pair."""
    e = Fraction(eps)
    main = Fraction(1, 2) - e
    values = [-M * M, -1, 1, M]
    high = dict(zip(values, (main, e, e, main)))
    low = dict(zip(values, (e, main, main, e)))
    agents = [("high", high)] * 2 + [("low", low)] * (n - 2)
    return {
        "values": [str(v) for v in values],
        "agents": [
            {"name": name, "probs": {str(v): str(p) for v, p in probs.items()}}
            for name, probs in agents
        ],
    }


def utilitarian_wmr(env: dict) -> dict:
    """Weighted majority rule with weight U+ + U- per agent and quorum sum U-.

    Every agent of the generated families has both value signs with positive
    probability, so both conditional means exist.
    """
    weights, quorum = [], Fraction(0)
    for agent in env["agents"]:
        probs = {Fraction(v): Fraction(p) for v, p in agent["probs"].items()}
        p = sum(q for v, q in probs.items() if v > 0)
        u_plus = sum(v * q for v, q in probs.items() if v > 0) / p
        u_minus = sum(-v * q for v, q in probs.items() if v < 0) / (1 - p)
        weights.append(u_plus + u_minus)
        quorum += u_minus
    return {"kind": "wmr", "weights": [str(w) for w in weights], "quorum": str(quorum), "tie": "1/2"}


def anonymous_mechanism(env: dict, allocation: list[str]) -> dict:
    """Mechanism JSON from allocations listed in lexicographic multiset order."""
    values = sorted(Fraction(v) for v in env["values"])
    n = len(env["agents"])
    multisets = combinations_with_replacement(values, n)
    return {
        "kind": "anonymous",
        "n": n,
        "values": [str(v) for v in values],
        "allocation": {
            ",".join(str(v) for v in m): a for m, a in zip(multisets, allocation, strict=True)
        },
    }


def random_env(rng: random.Random, n_agents: int, size: int) -> dict:
    """A full-support random environment with exactly ``size`` values.

    Follows ``anonvote.experiments.random_environment(rng, n_agents,
    max_values=size)`` draw for draw (values in [-20, 20] without 0, integer
    weights in [1, 64] renormalised), redrawn until the value count is
    exactly ``size``.
    """
    pool = [v for v in range(-20, 21) if v != 0]
    while True:
        count = rng.randint(2, size)
        while True:
            values = rng.sample(pool, count)
            if any(v < 0 for v in values) and any(v > 0 for v in values):
                break
        values.sort()
        agents = []
        for _ in range(n_agents):
            weights = [rng.randint(1, 64) for _ in values]
            total = sum(weights)
            agents.append(
                {"probs": {str(v): str(Fraction(w, total)) for v, w in zip(values, weights)}}
            )
        if count == size:
            return {"values": [str(v) for v in values], "agents": agents}


def family(seed: int, recorded: dict, sizes=FAMILY_SIZES) -> Workload:
    rng = random.Random(seed)
    wl = Workload()
    for n, eps in sizes:
        M = rng.choice([m for m in FAMILY_M if family_valid(n, m)])
        key = family_key(n, eps, M)
        env = family_env(n, eps, M)
        stem = f"family-n{n}-eps{eps.replace('/', '_')}-M{M}"
        wl.files[f"{stem}.env.json"] = env
        wl.files[f"{stem}.opt.json"] = anonymous_mechanism(env, recorded["family"][key]["mechanism"])
        wl.files[f"{stem}.wmr.json"] = utilitarian_wmr(env)
        wl.ops += [
            Op("compare", key, f"{stem}.env.json"),
            Op("check_opt", key, f"{stem}.env.json", f"{stem}.opt.json"),
            Op("check_wmr", key, f"{stem}.env.json", f"{stem}.wmr.json"),
        ]
    return wl


def _solve_workload(seed: int, shapes, rounds: int, prefix: str) -> Workload:
    rng = random.Random(seed)
    wl = Workload()
    for r in range(rounds):
        for n, size in shapes:
            name = f"{prefix}-{r:03d}-n{n}-v{size}.env.json"
            env = wl.files[name] = random_env(rng, n, size)
            wl.ops.append(Op("solve", env_key(env), name))
    return wl


def hetero(seed: int, recorded=None, shapes=HETERO_SHAPES, rounds=HETERO_ROUNDS) -> Workload:
    return _solve_workload(seed, shapes, rounds, "hetero")


def campaign(seed: int, recorded=None, shapes=CAMPAIGN_SHAPES, rounds=CAMPAIGN_ROUNDS) -> Workload:
    return _solve_workload(seed, shapes, rounds, "campaign")


GENERATORS = {"family": family, "hetero": hetero, "campaign": campaign}
