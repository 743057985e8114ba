"""Shared random LP generator for solver/oracle agreement tests."""

from fractions import Fraction

from anonvote.ratlp import LinearProgram


def random_lp(rng) -> LinearProgram:
    """Small random box LP, feasible by construction most of the time.

    Right-hand sides are anchored at a random box point so most instances
    are feasible; roughly a quarter get an equality row knocked off that
    anchor, which usually makes them infeasible. Either way both solver
    paths must agree on the status and, when optimal, on the exact value.
    """
    num_vars = rng.randint(2, 6)
    lower = []
    upper = []
    for _ in range(num_vars):
        lo = Fraction(rng.randint(-2, 0))
        lower.append(lo)
        upper.append(lo + Fraction(rng.randint(1, 3)))
    anchor = [
        lo + (hi - lo) * Fraction(rng.randint(0, 2), 2)
        for lo, hi in zip(lower, upper)
    ]
    objective = [Fraction(rng.randint(-6, 6)) for _ in range(num_vars)]

    def row():
        return [Fraction(rng.randint(-4, 4)) for _ in range(num_vars)]

    eq_rows = []
    for _ in range(rng.randint(0, 2)):
        coeffs = row()
        rhs = sum((c * z for c, z in zip(coeffs, anchor)), Fraction(0))
        eq_rows.append((coeffs, rhs))
    ineq_rows = []
    for _ in range(rng.randint(0, 3)):
        coeffs = row()
        rhs = sum((c * z for c, z in zip(coeffs, anchor)), Fraction(0))
        ineq_rows.append((coeffs, rhs + Fraction(rng.randint(0, 3))))
    if eq_rows and rng.random() < 0.25:
        coeffs, rhs = eq_rows[0]
        eq_rows[0] = (coeffs, rhs + Fraction(rng.randint(1, 5)))
    return LinearProgram(
        num_vars=num_vars,
        objective=objective,
        eq_rows=eq_rows,
        ineq_rows=ineq_rows,
        lower=lower,
        upper=upper,
    )


def rational_lp(rng) -> LinearProgram:
    """A :func:`random_lp` draw rewritten with rational data.

    Each variable is substituted by a positive rational multiple of itself,
    which makes the bounds and coefficients fractional; then every row and
    the objective are multiplied by a positive rational, and about one upper
    bound in five is dropped (None), which may make the draw unbounded.
    """
    lp = random_lp(rng)

    def ratio():
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))

    cols = [ratio() for _ in range(lp.num_vars)]

    def rescale(coeffs):
        return [a * s for a, s in zip(coeffs, cols)]

    def rows(block):
        out = []
        for coeffs, rhs in block:
            k = ratio()
            out.append((rescale([k * a for a in coeffs]), k * rhs))
        return out

    k = ratio()
    return LinearProgram(
        num_vars=lp.num_vars,
        objective=rescale([k * c for c in lp.objective]),
        eq_rows=rows(lp.eq_rows),
        ineq_rows=rows(lp.ineq_rows),
        lower=[lo / s for lo, s in zip(lp.lower, cols)],
        upper=[None if rng.random() < 0.2 else hi / s for hi, s in zip(lp.upper, cols)],
    )
