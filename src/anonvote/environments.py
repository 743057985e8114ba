"""Voting environments: common value support and per-agent value distributions.

An environment is a finite value set V (the shared support, 0 excluded) and
one discrete distribution over V per agent. Agents draw values independently.
Everything downstream (interim allocations, welfare, the optimization) is
computed from these objects with exact rationals. Each
:class:`AgentDistribution` is read once into integers and keeps its sign
sums, from which its sign statistics (p, U+ and U-) are made when read;
equal ones are one type.
An :class:`Environment` keeps its column map (``columns``) in integers, each
part made when first used: per report multiset of all agents, an LP column,
and per agent type the others' multiset weights and the columns they reach,
with multisets keyed by the integer codes of :func:`multiset_distribution`.

An :class:`Environment` is checked once, when it is built: a structurally
unusable one raises :class:`InvalidEnvironment`, so every environment that
exists is valid. Environments with zero-probability support points (or an
agent whose value sign is deterministic) are accepted in "limit mode" and
listed in ``Environment.flags``: they violate the usual full-support
assumption but are needed as boundary cases of the two-type family studied
in :mod:`anonvote.experiments`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rationals import TooLarge, format_pair, pair_form, parse_pair

__all__ = [
    "MAX_ENTRIES",
    "TooLarge",
    "refuse_above",
    "InvalidEnvironment",
    "ValueSet",
    "AgentDistribution",
    "Environment",
    "multiset_distribution",
    "environment_from_json",
    "environment_to_json",
]


MAX_ENTRIES = math.comb(15, 8)  # 6,435 columns at n = |V| = 8; 2^12 <= 6,435 < 2^13


def refuse_above(count: int, what: str) -> int:
    """``count``, the size of the enumeration ``what``, if it is at most
    ``MAX_ENTRIES``; else :class:`TooLarge` naming both is raised."""
    if count > MAX_ENTRIES:
        raise TooLarge(f"too large: {count} {what}, above the limit of {MAX_ENTRIES}")
    return count


class InvalidEnvironment(ValueError):
    """Environment data is structurally unusable (not merely a limit case)."""


class ValueSet:
    """Strictly increasing rational values, the common support V, their
    reduced integer pairs ``pairs`` and their :func:`pair_form`
    ``(scaled, scale)``, on which they are sorted, checked and split by
    sign; each value is made a Fraction once."""

    __slots__ = ("values", "pairs", "negatives", "positives", "scaled", "scale")

    def __init__(self, values: Iterable):
        pairs = [parse_pair(v) for v in values]
        if not pairs:
            raise InvalidEnvironment("value set is empty")
        if len(set(pairs)) != len(pairs):  # reduced pairs are equal when the values are
            raise InvalidEnvironment("value set contains duplicates")
        scaled, self.scale = pair_form(pairs)
        rows = sorted(zip(scaled, pairs))
        self.scaled, self.pairs = [x for x, _ in rows], tuple(v for _, v in rows)
        self.values = tuple(Fraction(*v) for v in self.pairs)
        self.negatives = self.values[:sum(x < 0 for x in self.scaled)]
        self.positives = self.values[sum(x <= 0 for x in self.scaled):]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, ValueSet) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ValueSet({[str(v) for v in self.values]})"


class AgentDistribution:
    """One agent's probability mass over the value set.

    It is read once into integers: ``keys`` are its values as reduced
    integer pairs ``(num, den)``, ascending, and ``weights`` over ``den``
    their probabilities, over the least common denominator. Equality and
    the hash read that form, so agents of the same ex-ante type compare
    equal regardless of their display name. ``items``, the (value,
    probability) Fraction pairs in the same order, and the mapping
    ``probs`` are made when read.

    The sign sums are integers, set once, here: ``mass`` is the weight over
    ``den`` of each sign, (negative, positive), and ``value_sums`` the sums
    of |v| times weight over each sign, (negative, positive), over ``scale *
    den``. The sign statistics are each one Fraction of those, made when
    read: ``p`` is P(v > 0), ``u_plus`` is E[v | v > 0] and ``u_minus`` is
    E[|v| | v < 0]; either mean is None when its conditioning event has
    probability zero (limit mode), and callers must check before using it.
    ``pos_mass``/``neg_mass`` are the unconditional sign expectations
    p*u_plus and (1-p)*u_minus, which are always defined.
    """

    __slots__ = ("keys", "weights", "den", "name", "mass", "value_sums", "scale", "_items")
    p = property(lambda self: Fraction(self.mass[1], self.den))
    pos_mass = property(lambda self: Fraction(self.value_sums[1], self.scale * self.den))
    neg_mass = property(lambda self: Fraction(self.value_sums[0], self.scale * self.den))
    u_plus = property(lambda self: Fraction(self.value_sums[1], self.scale * self.mass[1])
                      if self.mass[1] > 0 else None)
    u_minus = property(lambda self: Fraction(self.value_sums[0], self.scale * self.mass[0])
                       if self.mass[0] > 0 else None)

    def __init__(self, probs: Mapping, name: str | None = None):
        parsed = {}
        for key, p in probs.items():
            v = parse_pair(key)
            if v in parsed:
                raise InvalidEnvironment(f"probs give value {format_pair(*v)} twice")
            parsed[v] = parse_pair(p)
        scaled, scale = pair_form(list(parsed))
        weights, den = pair_form(list(parsed.values()))
        rows = sorted(zip(scaled, parsed, weights))
        self.keys, self.weights = tuple(v for _, v, _ in rows), tuple(w for _, _, w in rows)
        self.den, self.name, self._items, self.scale = den, name, None, scale
        mass = sum(w for x, _, w in rows if x > 0)
        self.mass = den - mass, mass
        self.value_sums = (-sum(x * w for x, _, w in rows if x < 0),
                           sum(x * w for x, _, w in rows if x > 0))

    @property
    def items(self) -> tuple:
        if self._items is None:
            pairs = zip(self.keys, self.weights)
            self._items = tuple((Fraction(*v), Fraction(w, self.den)) for v, w in pairs)
        return self._items

    @property
    def probs(self) -> dict:
        return dict(self.items)

    def __eq__(self, other):
        if not isinstance(other, AgentDistribution):
            return False
        return (self.keys, self.weights, self.den) == (other.keys, other.weights, other.den)

    def __hash__(self):
        return hash((self.keys, self.weights, self.den))

    def __repr__(self):
        body = ", ".join(f"{v}: {p}" for v, p in self.items)
        return f"AgentDistribution({{{body}}})"


class Environment:
    """A value set plus n agent distributions over it (treated as immutable).

    Every instance satisfies the modeling assumptions; the constructor raises
    :class:`InvalidEnvironment` with every hard error it finds, joined by
    "; ": fewer than two agents, 0 in the support, missing value sign, an
    agent's support other than the value set (its other checks are then
    skipped), negative probabilities, or probabilities that do not sum to 1.
    Zero-probability support points and deterministic-sign agents are only
    flagged: such environments are accepted in limit mode, and ``flags``
    holds one line per flagged case (empty outside limit mode). ``types[i]``
    is the index of the first agent with agent i's distribution.
    """

    __slots__ = ("values", "agents", "flags", "types", "_columns")

    def __init__(self, values: ValueSet, agents: Sequence[AgentDistribution]):
        if not isinstance(values, ValueSet):
            values = ValueSet(values)
        self.values = values
        self.agents = tuple(agents)
        errors: list[str] = []
        flags: list[str] = []
        if self.n < 2:
            errors.append("environment needs at least 2 agents")
        if 0 in values.scaled:
            errors.append("value 0 is not allowed in the support")
        if not values.negatives or not values.positives:
            errors.append("support must contain at least one negative and one positive value")

        for i, agent in enumerate(self.agents):
            label = f"agent {i} ({agent.name})" if agent.name else f"agent {i}"
            if agent.keys != values.pairs:
                errors.append(f"{label}: support does not match the value set")
                continue
            negative = [v for v, w in zip(values, agent.weights) if w < 0]
            if negative:
                errors.append(f"{label}: negative probability at {negative[0]}")
                continue
            if sum(agent.weights) != agent.den:
                total = Fraction(sum(agent.weights), agent.den)
                errors.append(f"{label}: probabilities must sum to 1 (got {total})")
                continue
            zeros = [str(v) for v, w in zip(values, agent.weights) if w == 0]
            if zeros:
                flags.append(f"{label}: zero probability on {{{', '.join(zeros)}}}")
            if 0 in agent.mass:  # p is 0 or 1
                flags.append(f"{label}: deterministic value sign (p={agent.p})")
        if errors:
            raise InvalidEnvironment("; ".join(errors))
        self.flags = tuple(flags)
        self.types = tuple(self.agents.index(agent) for agent in self.agents)
        self._columns: dict = {}

    def units(self, ordered: bool = False) -> list[list[int]]:
        """Per agent i and value index j, the unit of i's report j in a
        report code (see :func:`multiset_distribution`): (n+1)^j, or
        j * |V|^i if ``ordered``."""
        size = len(self.values)
        return [[j * size**i if ordered else (self.n + 1) ** j for j in range(size)]
                for i in range(self.n)]

    def columns(self, without: int | None = None) -> tuple:
        """The column map, made on first use and kept per agent type (read
        only). ``columns()`` is ``(index, value, positives, den, codes)``:
        ``index`` numbers the sorted value-index multisets of n reports, the
        LP's columns, in lexicographic order; column c has probability times
        value sum ``value[c] / (den * values.scale)`` and ``positives[c]``
        positive reports; ``codes`` maps each multiset's code, the sum of
        (n+1)^j over its reports j, to its column. ``columns(i)`` is
        ``(weights, cols, den)``: the others' :func:`multiset_distribution`,
        multiset r of probability ``weights[r] / den``, and ``cols[j][r]``,
        the column of r with i's report j. Past ``MAX_ENTRIES`` columns,
        each part is refused before it is made."""
        key = None if without is None else self.types[without]
        if key not in self._columns:
            size = len(self.values)
            refuse_above(math.comb(self.n + size - 1, self.n),
                         f"columns of {self.n} agents over {size} values")
            others = self.agents if key is None else self.agents[:key] + self.agents[key + 1 :]
            units = self.units()[0]
            dist = multiset_distribution([list(zip(units, agent.weights)) for agent in others])
            den, ranks = math.prod(agent.den for agent in others), range(size)
            if key is None:
                keys = itertools.combinations_with_replacement(ranks, self.n)
                index = {m: c for c, m in enumerate(keys)}
                codes = {sum(map(units.__getitem__, m)): c for m, c in index.items()}
                scaled, cut = self.values.scaled, len(self.values.negatives)
                value = [dist.get(code, 0) * sum(map(scaled.__getitem__, m))
                         for code, m in zip(codes, index)]
                positives = [sum(j >= cut for j in m) for m in index]
                self._columns[key] = index, value, positives, den, codes
            else:
                codes = self.columns()[4]
                cols = [[codes[r + unit] for r in dist] for unit in units]
                self._columns[key] = list(dist.values()), cols, den
        return self._columns[key]

    @property
    def n(self) -> int:
        return len(self.agents)

    def __eq__(self, other):
        return (
            isinstance(other, Environment)
            and self.values == other.values
            and self.agents == other.agents
        )

    def __hash__(self):
        return hash((self.values, self.agents))

    def __repr__(self):
        return f"Environment(n={self.n}, V={[str(v) for v in self.values]})"


def multiset_distribution(agents: Sequence[Sequence[tuple]]) -> dict:
    """Weight of each report code of positive weight, built one agent at a
    time from each agent's (unit, weight) pairs; a code sums its units. Unit
    (n+1)^j for value index j codes a sorted multiset by its counts, all an
    anonymous rule sees; j * |V|^i at position i codes an ordered profile by
    its digits. The weights multiply, so an agent's need not sum to 1."""
    dist = {0: 1}
    for points in agents:
        step: dict = {}
        get, live = step.get, [(unit, p) for unit, p in points if p]
        for key, prob in dist.items():
            for unit, p in live:
                code = key + unit
                step[code] = get(code, 0) + prob * p
        dist = step
    return dist


def environment_from_json(obj) -> Environment:
    """Build an Environment from the JSON object format.

    Expected shape::

        {"values": ["-100", "-1", "1", "10"],
         "agents": [{"name": "high", "probs": {"-100": "499/1000", ...}}, ...]}

    Numbers are integers or ``"p/q"`` strings. Each agent's ``probs`` keys
    must match ``values`` as rationals, not as strings: ``"2/4"`` matches a
    value ``"1/2"``. An agent entry equal to an earlier one, ``probs`` and
    name both, reuses that entry's distribution.
    """
    if not isinstance(obj, dict):
        raise InvalidEnvironment("environment JSON must be an object")
    try:
        raw_values = obj["values"]
        raw_agents = obj["agents"]
    except KeyError as exc:
        raise InvalidEnvironment(f"environment JSON missing key {exc}") from None
    for key, raw in (("values", raw_values), ("agents", raw_agents)):
        if not isinstance(raw, list):
            raise InvalidEnvironment(f"environment JSON {key!r} must be a list")
    values = ValueSet(raw_values)
    agents, seen = [], {}
    for i, raw in enumerate(raw_agents):
        if not isinstance(raw, dict) or "probs" not in raw:
            raise InvalidEnvironment(f"agent {i}: expected an object with 'probs'")
        probs = raw["probs"]
        if not isinstance(probs, dict):
            raise InvalidEnvironment(f"agent {i}: 'probs' must be an object")
        if not isinstance(raw.get("name", ""), str):
            raise InvalidEnvironment(f"agent {i}: 'name' must be a string")
        # repr tells 1 from 1.0 and True, which compare equal but parse differently
        key = (raw.get("name"), repr(probs))
        if key not in seen:
            seen[key] = AgentDistribution(probs, name=raw.get("name"))
        agents.append(seen[key])
    return Environment(values, agents)


def environment_to_json(env: Environment) -> dict:
    """Inverse of :func:`environment_from_json` (exact round trip)."""
    agents = []
    for agent in env.agents:
        probs = zip(agent.keys, agent.weights)
        entry = {"probs": {format_pair(*v): format_pair(w, agent.den) for v, w in probs}}
        if agent.name:
            entry["name"] = agent.name
        agents.append(entry)
    return {
        "values": [format_pair(*v) for v in env.values.pairs],
        "agents": agents,
    }
