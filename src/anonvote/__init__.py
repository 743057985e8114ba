"""Exact welfare optimization for anonymous incentive-compatible binary voting.

Core pieces: exact-rational environments (:mod:`anonvote.environments`),
voting-rule representations and audits (:mod:`anonvote.mechanisms`), an
exact simplex whose every optimum is proved by its dual bound
(:mod:`anonvote.ratlp`), the welfare-maximization program
(:mod:`anonvote.welfare_opt`), scripted reproductions
(:mod:`anonvote.experiments`) and a command line front end
(:mod:`anonvote.cli`). The slow oracles the tests check these against are
not part of the package.
"""

from .rationals import RationalParseError, format_rational, parse_rational
from .environments import (
    AgentDistribution,
    Environment,
    InvalidEnvironment,
    ValueSet,
    environment_from_json,
    environment_to_json,
)
from .mechanisms import (
    AnonymousSCF,
    BicReport,
    NotBicError,
    OrderedTableSCF,
    OrdinalSCF,
    QualifiedMajorityRule,
    WeightedMajorityRule,
    ZeroProbabilityCoalition,
    check_bic,
    coalition,
    mechanism_from_json,
    mechanism_to_json,
    ordinal_projection,
    qmr_best,
    welfare,
    welfare_via_interims,
    wmr_build,
)
from .ratlp import LinearProgram, LpSolution, SimplexError, solve
from .welfare_opt import (
    AuxCorners,
    AuxPoint,
    Lemma3Report,
    OptimalMechanismReport,
    aux_corners,
    build_opt_lp,
    lemma3_bounds,
    solve_opt,
)
from .experiments import (
    Theorem2Report,
    cardinal_ordinal_ratio_sweep,
    example1_fixture,
    make_fstar,
    make_theorem2_env,
    run_theorem2_demo,
)

__version__ = "0.1.0"
