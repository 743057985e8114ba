"""Social choice functions over a finite value support, and their exact audit.

Five rule kinds are supported, each with an ``anonymous`` attribute that is
decided once, when the rule is built:

* :class:`AnonymousSCF`: a total map from sorted report multisets to
  allocation probabilities; anonymity holds structurally because ordered
  profiles are canonicalized before lookup.
* :class:`QualifiedMajorityRule`: reform iff at least k agents report a
  positive value.
* :class:`WeightedMajorityRule`: reform iff the summed weight of positive
  reporters clears a quorum, with a fixed tie allocation.
* :class:`OrderedTableSCF`: an explicit table keyed by ordered profiles,
  used for rules that need not be anonymous (anonymity is then checked,
  not assumed). Both tables keep reduced integer pairs keyed by value
  index (sorted for :class:`AnonymousSCF`) and share one body, which parses
  and checks the table (rational keys exist only there and in JSON) and
  looks up a profile's key.
* :class:`OrdinalSCF`: one allocation per coalition of positive
  reporters, the form :func:`ordinal_projection` returns.

On top of these: interim allocations, the incentive conditions (flat
interims within each sign, negative side below positive side), listed once
by :func:`bic_conditions` for the audit and the program's rows, exact
welfare two ways, the ordinal conditional-expectation projection, and the
qualified/weighted majority benchmarks.

Expectations are integer sums over two kernels, one ``Fraction`` per
result; each rule is read into integers once, without a Fraction, and
keeps them, and the audit keeps its interims so. A QMR, a WMR or an
ordinal rule reads only signs: it makes its table at each sign key (the
count of positive reporters if anonymous, else their coalition), summed
over the others' key distribution, built from each agent's integer P(sign).
An anonymous table is kept in column order and read through the
``Environment``'s column map (``env.columns``), as the QMR table and the
program are; a table that is not anonymous is read at ordered-profile codes.
The audit of an anonymous rule computes one interim table per agent type,
and the projection of an anonymous table sums once per count of positive
agents of each type.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .environments import Environment, ValueSet, multiset_distribution, refuse_above
from .rationals import (Record, format_pair, format_rational, integer_form, pair_form, parse_pair,
                        parse_rational)

__all__ = [
    "Record",
    "all_multisets",
    "coalition",
    "AnonymousSCF",
    "QualifiedMajorityRule",
    "WeightedMajorityRule",
    "OrderedTableSCF",
    "OrdinalSCF",
    "BicViolation",
    "BicReport",
    "NotBicError",
    "bic_conditions",
    "check_bic",
    "welfare",
    "welfare_via_interims",
    "ZeroProbabilityCoalition",
    "ordinal_projection",
    "QmrTable",
    "qmr_best",
    "NotSymmetric",
    "SymmetricThreshold",
    "symmetric_threshold",
    "wmr_build",
    "mechanism_from_json",
    "mechanism_to_json",
]


def all_multisets(values: Iterable[Fraction], n: int) -> list[tuple]:
    """All size-n multisets over the support, ascending lexicographic order."""
    return list(itertools.combinations_with_replacement(sorted(values), n))


def coalition(profile: Sequence[Fraction]) -> frozenset[int]:
    """Indices of agents reporting a strictly positive value."""
    return frozenset(i for i, v in enumerate(profile) if v > 0)


class _TableSCF:
    """The body both explicit tables share: a total map ``_pairs`` from the
    ``_key`` of every profile of n value indices (``_index`` of the values)
    to an allocation in [0, 1], a reduced pair ``(a, b)`` (equal exactly when
    the values are). A subclass gives ``_key``, ``_domain`` (the key count
    and a lazy generator of the keys over given value ranks) and the nouns
    of its messages and JSON form."""

    __slots__ = ("values", "n", "_pairs", "_index", "_table")

    def __init__(self, values, n: int, allocation: Mapping):
        self.values = tuple(sorted(parse_rational(v) for v in values))
        self.n = n
        # Each distinct token is parsed once; keys are sorted and checked as
        # ranks among all values, which are value indices once none is foreign.
        parsed = {t: parse_rational(t) for t in dict.fromkeys(t for key in allocation for t in key)}
        ranked = sorted({*self.values, *parsed.values()})
        rank = {t: ranked.index(v) for t, v in parsed.items()}
        table = {}
        for key, prob in allocation.items():
            k = tuple(self._key([rank[t] for t in key]))
            if k in table:
                shown = _multiset_key(ranked[r] for r in k)
                raise ValueError(f"{self._what} table gives {self._noun} {shown} twice")
            table[k] = parse_pair(prob)
        # A table of the wrong size is refused before any key is enumerated;
        # at the right size, with distinct values, every key of n support
        # values means none is missing, and a foreign key means one is.
        self._index = {v: j for j, v in enumerate(self.values)}
        if len(self._index) != len(self.values):
            raise ValueError("mechanism value set contains duplicates")
        inside = {ranked.index(v) for v in self.values}
        count, expected = self._domain(sorted(inside), n)
        if len(table) != count:
            shown = count if count < 10**15 else f"about 10^{len(str(count)) - 1}"
            raise ValueError(f"{self._what} table has {len(table)} entries, expected {shown}")
        foreign = [k for k in table if len(k) != n or not inside >= set(k)]
        if foreign:
            keys = min(foreign), next(k for k in expected if k not in table)
            foreign, missing = (_multiset_key(ranked[r] for r in k) for k in keys)
            raise ValueError(f"{self._what} table has foreign key {foreign} and lacks {missing}")
        for k, (a, b) in table.items():
            if not 0 <= a <= b:  # 0 <= a/b <= 1, in integers
                shown = _multiset_key(self.values[j] for j in k)
                raise ValueError(f"allocation at {shown} is {Fraction(a, b)}, outside [0, 1]")
        self._pairs, self._table = table, None

    @property
    def allocation(self) -> dict:
        """The allocation at each key as a Fraction, built on each read."""
        return {k: Fraction(a, b) for k, (a, b) in self._pairs.items()}

    def evaluate(self, profile: Sequence[Fraction]) -> Fraction:
        try:
            return Fraction(*self._pairs[tuple(self._key([self._index[v] for v in profile]))])
        except KeyError:  # str, which formats a Fraction as _multiset_key does, takes any entry
            shown = ",".join(map(str, profile))
            raise ValueError(f"profile {shown} not in this rule's domain") from None

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.values == other.values
            and self.n == other.n
            and self._pairs == other._pairs
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, |V|={len(self.values)})"


class AnonymousSCF(_TableSCF):
    """Total map from every report multiset to an allocation in [0, 1]."""

    __slots__ = ()
    anonymous = True
    _key = sorted
    _kind, _field, _what, _noun = "anonymous", "allocation", "allocation", "multiset"

    @staticmethod
    def _domain(values, n):
        return math.comb(len(values) + n - 1, n), itertools.combinations_with_replacement(values, n)

    @classmethod
    def from_indices(cls, values: tuple, n: int, index, x: tuple[list[int], int]):
        """The rule over sorted ``values`` whose allocation at the j-th key of
        ``index`` (every sorted value-index tuple, in column order) is entry j
        of the integer pair ``x = (nums, den)`` in lowest terms, in [0, 1];
        kept unchecked, each entry reduced by one ``gcd``, with ``x`` (their
        :func:`pair_form`) as its :func:`_integer_table`."""
        (nums, den), rule, gcd = x, cls.__new__(cls), math.gcd
        rule.values, rule.n, rule._index = values, n, {v: j for j, v in enumerate(values)}
        rule._pairs = {k: (v // g, den // g) for k, v in zip(index, nums) for g in [gcd(v, den)]}
        rule._table = n, x
        return rule

    def __repr__(self):
        nonzero = sum(1 for a, _ in self._pairs.values() if a)
        return f"AnonymousSCF(n={self.n}, |V|={len(self.values)}, nonzero={nonzero})"


class QualifiedMajorityRule:
    """Reform iff at least k agents report positive values.

    k = 0 is the constant-1 rule and any k > n the constant-0 rule; both ends
    are kept so benchmark tables cover the constant rules.
    """

    __slots__ = ("k", "_table")
    anonymous = True

    def __init__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"threshold must be a nonnegative integer, got {k!r}")
        self.k, self._table = k, None

    def evaluate(self, profile: Sequence[Fraction]) -> Fraction:
        return Fraction(1) if len(coalition(profile)) >= self.k else Fraction(0)

    def _signs(self, n: int) -> tuple:
        """The sign table at each count of positive reporters, 0 to n."""
        return [int(c >= self.k) for c in range(n + 1)], 1

    def __eq__(self, other):
        return isinstance(other, QualifiedMajorityRule) and self.k == other.k

    def __repr__(self):
        return f"QualifiedMajorityRule(k={self.k})"


class WeightedMajorityRule:
    """Reform iff the summed weight of positive reporters exceeds the quorum.

    Exactly at the quorum the rule allocates ``tie_value``. ``notes`` records
    limit-mode conventions applied while building the rule. ``anonymous``
    holds when all weights coincide (a constant rule with unequal weights is
    anonymous too, but is not flagged). The weights and quorum are also
    kept as integers over one denominator, which ``evaluate`` sums.
    """

    __slots__ = ("weights", "quorum", "tie_value", "notes", "anonymous", "_nums", "_quorum",
                 "_table")

    def __init__(self, weights, quorum, tie_value=Fraction(1, 2), notes=()):
        self.weights = tuple(parse_rational(w) for w in weights)
        self.quorum = parse_rational(quorum)
        self.tie_value = parse_rational(tie_value)
        if not 0 <= self.tie_value <= 1:
            raise ValueError(f"tie value {self.tie_value} outside [0, 1]")
        self.notes, self._table = tuple(notes), None
        self.anonymous = len(set(self.weights)) <= 1
        *self._nums, self._quorum = integer_form([*self.weights, self.quorum])[0]

    def evaluate(self, profile: Sequence[Fraction]) -> Fraction:
        if len(profile) != len(self.weights):
            raise ValueError(
                f"profile has {len(profile)} entries, rule has {len(self.weights)} weights"
            )
        support = sum([w for w, v in zip(self._nums, profile) if v > 0])
        if support > self._quorum:
            return Fraction(1)
        if support < self._quorum:
            return Fraction(0)
        return self.tie_value

    def _signs(self, n: int) -> tuple:
        """The sign table at each count of positive reporters (the first
        agents) if anonymous, else at each bitmask, whose support is that of
        the mask without its top agent plus that agent's weight."""
        if n != len(self._nums):
            raise ValueError(f"profile has {n} entries, rule has {len(self._nums)} weights")
        support = [0]
        for w in self._nums:
            support += [support[-1] + w] if self.anonymous else [s + w for s in support]
        tie, q = (self.tie_value.numerator, self.tie_value.denominator), self._quorum
        return pair_form([(1, 1) if s > q else tie if s == q else (0, 1) for s in support])

    def __eq__(self, other):
        return (
            isinstance(other, WeightedMajorityRule)
            and self.weights == other.weights
            and self.quorum == other.quorum
            and self.tie_value == other.tie_value
        )

    def __repr__(self):
        return (
            f"WeightedMajorityRule(weights={[str(w) for w in self.weights]}, "
            f"quorum={self.quorum}, tie={self.tie_value})"
        )


class OrderedTableSCF(_TableSCF):
    """Explicit SCF keyed by ordered profiles; anonymity checked, not assumed:
    ``anonymous`` says whether all orderings of each multiset agree."""

    __slots__ = ("anonymous",)
    _key = tuple
    _kind, _field, _what, _noun = "ordered_table", "table", "ordered", "profile"

    @staticmethod
    def _domain(values, n):
        return len(values) ** n, itertools.product(values, repeat=n)

    def __init__(self, values, n: int, table: Mapping):
        super().__init__(values, n, table)
        groups: dict[tuple, tuple] = {}
        self.anonymous = all(
            groups.setdefault(tuple(sorted(key)), p) == p
            for key, p in self._pairs.items()
        )


class OrdinalSCF:
    """Rule that depends only on the coalition of positive reporters;
    ``anonymous`` says whether it depends only on the coalition's size."""

    __slots__ = ("n", "by_coalition", "anonymous", "_table")

    def __init__(self, n: int, by_coalition: Mapping[frozenset, Fraction]):
        table = {frozenset(t): parse_rational(p) for t, p in by_coalition.items()}
        agents = frozenset(range(n))
        if not len(table) == len(by_coalition) == 1 << n or any(not t <= agents for t in table):
            raise ValueError("ordinal rule must assign every coalition exactly once")
        self.n, self.by_coalition, self._table, self.anonymous = n, table, None, True
        by_size: dict[int, tuple] = {}  # each size's first allocation, a reduced pair
        for t, p in table.items():
            pair = p.numerator, p.denominator
            if not 0 <= pair[0] <= pair[1]:  # 0 <= p <= 1, in integers
                raise ValueError(f"allocation at coalition {sorted(t)} is {p}")
            if by_size.setdefault(len(t), pair) != pair:  # equal pairs, equal values
                self.anonymous = False

    def evaluate(self, profile: Sequence[Fraction]) -> Fraction:
        if len(profile) != self.n:
            raise ValueError(f"profile has {len(profile)} entries, rule has {self.n} agents")
        return self.by_coalition[coalition(profile)]

    def _signs(self, n: int) -> tuple:
        """The sign table at each coalition size if anonymous (every
        coalition of a size gives its value), else at each bitmask."""
        if n != self.n:
            raise ValueError(f"profile has {n} entries, rule has {self.n} agents")
        key = len if self.anonymous else lambda t: sum(1 << i for i in t)
        pairs = {key(t): (p.numerator, p.denominator) for t, p in self.by_coalition.items()}
        return pair_form([pairs[k] for k in range(len(pairs))])

    def __repr__(self):
        return f"OrdinalSCF(n={self.n})"


_SIGN_RULES = (QualifiedMajorityRule, WeightedMajorityRule, OrdinalSCF)


def _integers(rule, n: int) -> tuple:
    """A rule's values as integers over one denominator, ``(nums, den)``,
    never through ``evaluate`` or a Fraction: a sign rule's (a QMR, a WMR or
    an :class:`OrdinalSCF`) ``_signs`` at each count of positive reporters
    if it is anonymous, else at their bitmask (bit i for agent i), 2^n keys
    refused past ``MAX_ENTRIES`` (:func:`refuse_above`); a table's
    :func:`pair_form` of ``_pairs`` in column order (``Environment.columns``)
    if it is anonymous, else at each ordered profile's code, the sum of
    j * |V|^i over its reports j at positions i (:func:`multiset_distribution`)."""
    if isinstance(rule, _SIGN_RULES):
        if not rule.anonymous:
            refuse_above(1 << n, f"sign keys of {n} agents (the rule is not anonymous)")
        return rule._signs(n)
    ranks, table = range(len(rule.values)), rule._pairs
    if rule.anonymous:
        return pair_form([table[m] for m in itertools.combinations_with_replacement(ranks, n)])
    # codes count up in the product order of the reversed profiles: digit i is position i
    return pair_form([table[p[::-1]] for p in itertools.product(ranks, repeat=n)])


def _integer_table(env: Environment, rule) -> tuple:
    """:func:`_integers` at ``env.n``, made once per rule and agent count and
    kept on the rule, which is treated as immutable. A table must index the
    environment's values, so one over other values or another n raises
    ``ValueError``."""
    if not isinstance(rule, _SIGN_RULES) and (rule.values != env.values.values or rule.n != env.n):
        raise ValueError("rule support or agent count does not match the environment")
    if rule._table is None or rule._table[0] != env.n:
        rule._table = env.n, _integers(rule, env.n)
    return rule._table[1]


def _interim_sums(env: Environment, rule, table, i: int) -> tuple[list, int]:
    """``(sums, den)``: agent ``i``'s interim at each report index j from the
    rule's :func:`_integer_table`, read at j's sign and the others' sign keys
    (built one agent at a time from each agent's ``mass``), at the columns
    ``env.columns(i)`` gives for j, or at the codes of the others' ordered
    profiles with j's unit at position i added."""
    (nums, den), ranks = table, range(len(env.values))
    if isinstance(rule, _SIGN_RULES):
        dist = {0: 1}
        for j, agent in enumerate(env.agents):
            if j != i:
                bit, step, mass = 1 if rule.anonymous else 1 << j, {}, agent.mass
                for key, w in dist.items():
                    step[key] = step.get(key, 0) + w * mass[0]
                    step[key + bit] = step.get(key + bit, 0) + w * mass[1]
                dist, den = step, den * agent.den
        bit, cut = 1 if rule.anonymous else 1 << i, len(env.values.negatives)
        low, high = (sum(w * nums[key + s] for key, w in dist.items()) for s in (0, bit))
        return [low] * cut + [high] * (len(ranks) - cut), den
    if rule.anonymous:
        weights, cols, dist_den = env.columns(i)
        return [sum(map(mul, weights, map(nums.__getitem__, col))) for col in cols], den * dist_den
    units, others = env.units(ordered=True), [k for k in range(env.n) if k != i]
    pairs = multiset_distribution([list(zip(units[k], env.agents[k].weights)) for k in others])
    den *= math.prod(env.agents[k].den for k in others)
    return [sum(w * nums[code + unit] for code, w in pairs.items()) for unit in units[i]], den


class BicViolation(Record):
    """Witness of a failed incentive constraint."""

    __slots__ = ("agent", "report", "other_report", "interim", "other_interim", "kind")

    def __repr__(self):
        return (
            f"BicViolation(agent={self.agent}, {self.kind}: "
            f"interim({self.report})={self.interim} vs "
            f"interim({self.other_report})={self.other_interim})"
        )


class BicReport(Record):
    """Result of the incentive audit: satisfied, or violated with the first
    witness in canonical (agent, report) order. ``sums`` holds the
    :func:`_interim_sums` pair of each agent audited, over the sorted
    ``values``; ``interims`` and the per-agent constants ``c_minus`` and
    ``c_plus`` (None unless satisfied) are Fractions made when read."""

    __slots__ = ("satisfied", "witness", "values", "sums")
    c_minus = property(lambda self: self._constant(0))
    c_plus = property(lambda self: self._constant(-1))

    def __bool__(self):
        return self.satisfied

    @property
    def interims(self) -> list:
        return [{v: Fraction(s, den) for v, s in zip(self.values, sums)} for sums, den in self.sums]

    def _constant(self, end: int):  # a sign's flat interim, read at its end report
        return [Fraction(s[end], d) for s, d in self.sums] if self.satisfied else None


class NotBicError(ValueError):
    """Operation requires an incentive-compatible rule but got a witness."""


def bic_conditions(values: ValueSet):
    """The incentive conditions on an interim table, as ``(a, b, kind)`` over
    value indices: the interims at reports a and b are equal (``"flatness"``,
    each pair of consecutive reports of one sign, negatives first), then the
    one at the highest negative report a is at most the one at the lowest
    positive report b (``"monotonicity"``)."""
    cut = len(values.negatives)
    for group in (range(cut), range(cut, len(values))):
        for a, b in zip(group, group[1:]):
            yield a, b, "flatness"
    yield cut - 1, cut, "monotonicity"


def check_bic(env: Environment, rule) -> BicReport:
    """Audit incentive compatibility exactly.

    A rule passes iff for every agent the interim allocation is constant
    across negative reports, constant across positive reports, and the
    negative-side constant is at most the positive-side constant. The
    constraints are enforced at every support value, including reports of
    probability zero.

    The conditions compare the integers of :func:`_interim_sums`, which the
    report keeps. Under an anonymous rule an agent's interim depends only on
    the others' distributions, so an agent of an earlier agent's type shares
    that agent's pair; other rules get one pair per agent.
    """
    conditions = list(bic_conditions(env.values))
    table, values, kept = _integer_table(env, rule), env.values.values, []
    for i in range(env.n):
        first = env.types[i] if rule.anonymous else i
        if first < i:  # an earlier agent's interims, which passed
            kept.append(kept[first])
            continue
        kept.append(_interim_sums(env, rule, table, i))
        sums, den = kept[i]
        for a, b, kind in conditions:
            if (sums[a] != sums[b]) if kind == "flatness" else (sums[a] > sums[b]):
                witness = BicViolation(i, values[a], values[b], Fraction(sums[a], den),
                                       Fraction(sums[b], den), kind)
                return BicReport(False, witness, values, kept)
    return BicReport(True, None, values, kept)


def welfare(env: Environment, rule) -> Fraction:
    """Expected total value on the reform event.

    An anonymous table is summed against the ``value`` of ``env.columns()``;
    any other rule in integers, over agents i and reports j, as j's weight
    and value times i's :func:`_interim_sums` at j (the agents are
    independent).
    """
    table, scaled = _integer_table(env, rule), env.values.scaled
    if rule.anonymous and not isinstance(rule, _SIGN_RULES):
        (alloc, alloc_den), (_, value, _, den, _) = table, env.columns()
        return Fraction(sum(map(mul, value, alloc)), den * alloc_den * env.values.scale)
    total = 0
    for i, agent in enumerate(env.agents):
        sums, _ = _interim_sums(env, rule, table, i)
        total += sum(w * x * s for w, x, s in zip(agent.weights, scaled, sums))
    den = table[1] * math.prod(agent.den for agent in env.agents)
    return Fraction(total, den * env.values.scale)


def welfare_via_interims(env: Environment, rule) -> Fraction:
    """Welfare through the interim decomposition.

    Equals :func:`welfare` exactly for incentive-compatible rules; raises
    :class:`NotBicError` otherwise (the decomposition needs flat interims).
    The sum of c+ times ``pos_mass`` less c- times ``neg_mass`` over the
    agents runs in integers, on the audit's pairs and each agent's
    ``value_sums``, over one denominator.
    """
    report = check_bic(env, rule)
    if not report.satisfied:
        raise NotBicError(f"rule is not incentive compatible: {report.witness}")
    dens = [den * agent.scale * agent.den for (_, den), agent in zip(report.sums, env.agents)]
    common, total = math.lcm(*dens), 0
    for (sums, _), agent, den in zip(report.sums, env.agents, dens):
        down, up = agent.value_sums
        total += (sums[-1] * up - sums[0] * down) * (common // den)
    return Fraction(total, common)


class ZeroProbabilityCoalition(ValueError):
    """A coalition event has probability zero, so conditioning is undefined."""


def ordinal_projection(env: Environment, rule) -> OrdinalSCF:
    """Project a rule onto coalitions by conditional expectation.

    For each coalition T, the projected value is the expected allocation
    conditional on exactly the members of T reporting positive values. The
    result preserves incentive compatibility and welfare; its ``anonymous``
    says whether it depends only on coalition size, which can fail in
    asymmetric environments even when the input rule is anonymous.

    Each coalition T is keyed by one integer, the sum of its members' units:
    1 for an anonymous sign rule (T's size), (n+1)^t for an agent of type t
    under an anonymous table (T's count of each type in base n+1, which
    fixes its sums), else 2^i (T's bitmask); each key is projected once. A
    sign rule reads its :func:`_integer_table` at the key. A table's mass
    and weighted sum at T are integer sums over the ``multiset_distribution``
    of the agents' (unit, weight) points of their sign in T, unnormalised
    and coded as the table is read. Coalitions come in ``itertools.product``
    order; their 2^n are refused past ``MAX_ENTRIES`` (:func:`refuse_above`).

    Requires every coalition event to have positive probability, i.e. no
    agent with a deterministic value sign; otherwise the first coalition of
    probability zero in that order raises :class:`ZeroProbabilityCoalition`:
    the empty one if some agent is never negative, else the highest-index
    agent that is never positive, alone.
    """
    refuse_above(1 << env.n, f"coalitions of {env.n} agents")
    masses = [agent.mass for agent in env.agents]  # (negative, positive) weights
    if not all(map(all, masses)):
        stuck = [i for i, m in enumerate(masses) if not m[1]][-1:]  # never positive
        first = stuck if all(m[0] for m in masses) else []
        raise ZeroProbabilityCoalition(
            f"coalition {first} has probability zero (limit-mode environment)")
    (nums, den), cut = _integer_table(env, rule), len(env.values.negatives)
    sign, agents = isinstance(rule, _SIGN_RULES), range(env.n)
    if rule.anonymous:
        units = [1 if sign else (env.n + 1) ** t for t in env.types]
    else:
        units = [1 << i for i in agents]
    if not sign:  # a code's table entry: at its column, or at the code if ordered
        reports, halves = env.units(not rule.anonymous), (slice(cut), slice(cut, None))
        codes = env.columns()[4] if rule.anonymous else range(len(nums))
    sums, phi = {}, {}
    for bits in itertools.product((0, 1), repeat=env.n):
        key = sum(itertools.compress(units, bits))
        if key not in sums:
            if sign:
                sums[key] = Fraction(nums[key], den)
            else:
                dist = multiset_distribution([list(zip(u[halves[b]], agent.weights[halves[b]]))
                                              for u, agent, b in zip(reports, env.agents, bits)])
                weighted = sum(w * nums[codes[m]] for m, w in dist.items())
                sums[key] = Fraction(weighted, sum(dist.values()) * den)
        phi[frozenset(itertools.compress(agents, bits))] = sums[key]
    return OrdinalSCF(env.n, phi)


class QmrTable(Record):
    """Welfare of every qualified majority threshold, plus the best one."""

    __slots__ = ("k_star", "best_welfare", "table")


def qmr_best(env: Environment) -> QmrTable:
    """Exact welfare of f^(k) for k = 0..n+1, from one integer sum per count
    of positive reports; the smallest maximizer wins ties."""
    _, value, positives, den, _ = env.columns()
    sums = {k: sum(v for v, c in zip(value, positives) if c >= k) for k in range(env.n + 2)}
    k_star = min(sums, key=lambda k: (-sums[k], k))
    table = {k: Fraction(w, den * env.values.scale) for k, w in sums.items()}
    return QmrTable(k_star, table[k_star], table)


class NotSymmetric(ValueError):
    """Operation requires all agents to share one distribution."""


class SymmetricThreshold(Record):
    """Closed-form optimal threshold for ex-ante identical agents."""

    __slots__ = ("k_bar", "boundary", "tie")


def symmetric_threshold(env: Environment) -> SymmetricThreshold:
    """Optimal qualified-majority threshold in a symmetric environment.

    The threshold is the least k with k > n*U-/(U+ + U-). When that boundary
    is an integer, allocating either way at exactly-boundary coalitions does
    not change welfare; the ``tie`` flag reports this.
    """
    first = env.agents[0]
    if any(agent != first for agent in env.agents[1:]):
        raise NotSymmetric("agents do not share one distribution")
    if first.u_plus is None or first.u_minus is None:
        raise NotSymmetric(
            "threshold formula needs both conditional means (p in (0,1))"
        )
    boundary = env.n * first.u_minus / (first.u_plus + first.u_minus)
    k_bar = next(k for k in range(1, env.n + 1) if k > boundary)
    return SymmetricThreshold(k_bar, boundary, boundary.denominator == 1)


def wmr_build(env: Environment, tie_value=Fraction(1, 2)) -> WeightedMajorityRule:
    """Utilitarian weighted majority rule: weight U+ + U-, quorum sum of U-.

    In limit mode an undefined conditional mean is replaced by 0 and the
    substitution is recorded in the rule's ``notes``.
    """
    weights, quorum, notes = [], Fraction(0), []
    for i, agent in enumerate(env.agents):
        if agent.u_plus is None:
            notes.append(f"agent {i}: U+ undefined (p=0), using 0")
        if agent.u_minus is None:
            notes.append(f"agent {i}: U- undefined (p=1), using 0")
        u_plus, u_minus = agent.u_plus or Fraction(0), agent.u_minus or Fraction(0)
        weights.append(u_plus + u_minus)
        quorum += u_minus
    return WeightedMajorityRule(weights, quorum, tie_value, notes)


def _multiset_key(multiset: tuple) -> str:
    return ",".join(format_rational(v) for v in multiset)


def mechanism_to_json(rule) -> dict:
    """Serialize any rule kind to its JSON object form (a table's entries
    from their pairs, as ``"a"`` or ``"a/b"``)."""
    if isinstance(rule, _TableSCF):
        names = [format_rational(v) for v in rule.values]
        return {
            "kind": rule._kind,
            "n": rule.n,
            "values": names,
            rule._field: {
                ",".join([names[j] for j in k]): format_pair(a, b)
                for k, (a, b) in sorted(rule._pairs.items())
            },
        }
    if isinstance(rule, QualifiedMajorityRule):
        return {"kind": "qmr", "k": rule.k}
    if isinstance(rule, WeightedMajorityRule):
        return {
            "kind": "wmr",
            "weights": [format_rational(w) for w in rule.weights],
            "quorum": format_rational(rule.quorum),
            "tie": format_rational(rule.tie_value),
        }
    raise TypeError(f"cannot serialize rule of type {type(rule).__name__}")


def mechanism_from_json(obj):
    """Parse the JSON object form back into a rule instance."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("mechanism JSON must be an object with a 'kind' field")
    kind = obj["kind"]

    def field(key, expected=None, what=None):
        if key not in obj:
            raise ValueError(f"mechanism JSON missing field {key!r}")
        value = obj[key]
        if expected and (not isinstance(value, expected) or isinstance(value, bool)):
            raise ValueError(f"mechanism field {key!r} must be {what}, got {value!r}")
        return value

    if kind in ("anonymous", "ordered_table"):
        rule_class = AnonymousSCF if kind == "anonymous" else OrderedTableSCF
        # keys stay unparsed here, so the rule sees (and rejects) a repeated one
        raw = field(rule_class._field, dict, "an object")
        table = {tuple(k.split(",")): v for k, v in raw.items()}
        values = field("values", list, "a list")
        n = field("n", int, "an integer")
        if n < 1:
            raise ValueError(f"mechanism field 'n' must be a positive integer, got {n}")
        return rule_class(values, n, table)
    if kind == "qmr":
        return QualifiedMajorityRule(field("k", int, "an integer"))
    if kind == "wmr":
        return WeightedMajorityRule(
            field("weights", list, "a list"), field("quorum"), obj.get("tie", Fraction(1, 2))
        )
    raise ValueError(f"unknown mechanism kind {kind!r}")
