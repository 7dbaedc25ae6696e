"""Floating-point witness harness: instantiate the system at a concrete
small parameter value and hunt positive roots with damped Newton in log
coordinates.

This is the only module that touches floating point, and the only one
that uses numpy, which it imports on first use (in ``instantiate``,
``newton`` and the ``InstantiatedSystem`` methods) rather than at load,
so that every command but ``verify`` starts without it.  Its outputs are
empirical witnesses, never certificates: the underlying guarantee is
asymptotic in the parameter with no effective threshold, so a witness
count below the certified bound at one particular t disproves nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from tropibound.intersection import IntersectionReport
from tropibound.rational import integer_columns
from tropibound.systems import VerticalSystem

if TYPE_CHECKING:
    import numpy as np

# max-norm distance in log coordinates at which two Newton roots count as one
SEPARATION = 1e-4
# scaled residual a Newton root must reach, and random starts per count
TOL = 1e-9
MULTISTARTS = 16


class InstantiationError(ValueError):
    pass


@dataclass(frozen=True)
class InstantiatedSystem:
    """Square system at a fixed t: shared monomial columns, per-equation
    coefficients C_ij * t^(h_j) in double precision."""

    n: int
    coefficients: np.ndarray  # shape (n, r)
    exponents: np.ndarray  # shape (r, n), column j of A as row j
    t: float

    def evaluate_log(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Values, term magnitudes scale, and scaled residual at x = exp(y).

        The residual is the max-norm of the system value divided per
        equation by the largest term magnitude (floored at 1), i.e. the
        achieved cancellation; an absolute residual would be meaningless
        across the huge coefficient ranges small-t instances produce.
        """
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            m = np.exp(self.exponents @ y)
            terms = self.coefficients * m
            values = terms.sum(axis=1)
        scale = np.maximum(np.abs(terms).max(axis=1), 1.0)
        if not np.all(np.isfinite(values)):
            return values, m, math.inf
        residual = float(np.max(np.abs(values) / scale))
        return values, m, residual

    def residuals_log(self, Y: np.ndarray) -> np.ndarray:
        """The scaled residual of ``evaluate_log`` at each row of Y, in one
        batched evaluation; a non-finite value gives inf or nan.

        The batched matrix product may round differently from the one in
        ``evaluate_log``, so an entry can differ from its residual in the
        last bits.
        """
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.coefficients * np.exp(Y @ self.exponents.T)[:, None, :]
            scale = np.maximum(np.abs(terms).max(axis=2), 1.0)
            return np.max(np.abs(terms.sum(axis=2)) / scale, axis=1)

    def jacobian_log(self, m: np.ndarray) -> np.ndarray:
        """d/dy of the system at x = exp(y), given monomial values m.

        Overflow gives non-finite entries, not warnings, as in
        ``evaluate_log``; ``newton`` then finds no finite step.
        """
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return self.coefficients @ (m[:, None] * self.exponents)


@dataclass(frozen=True)
class RootWitness:
    x: tuple[float, ...]
    residual: float
    jacobian_condition_flag: bool
    seed_origin: str


def instantiate(system: VerticalSystem, t: float) -> InstantiatedSystem:
    """Evaluate the coefficients at a concrete parameter value.

    Rejects t outside (0, 1): the bound is a small-parameter statement
    and t >= 1 inverts the meaning of the shifts.  Rows are reduced to
    the square system of ``VerticalSystem.reduced_coefficients`` first,
    exactly, so rank(C) != n raises its SystemError_.  A nonzero
    coefficient that overflows or rounds to 0 as a float is refused,
    naming its column.
    """
    import numpy as np

    if not (0.0 < t < 1.0):
        raise InstantiationError(f"t must lie in (0, 1), got {t}")
    Ct = system.reduced_coefficients()
    n, r = system.n, system.r
    coeffs = np.zeros((n, r), dtype=float)
    for i in range(n):
        for j in range(r):
            if Ct[i, j] == 0:
                continue
            try:
                value = float(Ct[i, j]) * t ** float(system.h[j])
            except OverflowError:
                value = math.inf
            if value == 0.0 or not math.isfinite(value):
                problem = "rounds to 0" if value == 0.0 else "overflows"
                raise InstantiationError(
                    f"column {j + 1}: coefficient {Ct[i, j]} * t^{system.h[j]} at t = {t}"
                    f" {problem} in floating point"
                )
            coeffs[i, j] = value
    exps = np.array(integer_columns(system.A), dtype=float)
    return InstantiatedSystem(n=n, coefficients=coeffs, exponents=exps, t=t)


def newton(
    F: InstantiatedSystem,
    x0: Sequence[float],
    tol: float = TOL,
    max_iter: int = 100,
    seed_origin: str = "manual",
) -> RootWitness | None:
    """Damped Newton on y = log x; positivity holds by construction.

    Each iteration takes the full Newton step if it lowers the scaled
    residual, and otherwise the first of the steps 2^-1 ... 2^-29 that
    does, which ``residuals_log`` screens in one batched evaluation; it
    stops when none does.  Success requires the scaled residual to drop
    below tol within max_iter iterations; None means no convergence, not
    nonexistence.
    """
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0) or not np.all(np.isfinite(x0)):
        raise ValueError("seed must be strictly positive and finite")
    y = np.log(x0)
    values, m, residual = F.evaluate_log(y)
    for _ in range(max_iter):
        if residual < tol:
            break
        J = F.jacobian_log(m)
        try:
            step = np.linalg.solve(J, -values)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        trial = F.evaluate_log(y + step)
        if trial[2] >= residual:
            # backtrack to the first of the steps 2^-1 ... 2^-29 that lowers
            # the residual; one batch screens them all, and ``evaluate_log``
            # confirms the step taken
            lams = 0.5 ** np.arange(1, 30)
            for lam in lams[F.residuals_log(y + lams[:, None] * step) < residual]:
                trial = F.evaluate_log(y + lam * step)
                if trial[2] < residual:
                    break
            else:
                break
        y = y + lam * step
        values, m, residual = trial
    if residual >= tol:
        return None
    x = np.exp(y)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        return None
    J = F.jacobian_log(m)
    cond = np.linalg.cond(J)
    return RootWitness(
        x=tuple(float(v) for v in x),
        residual=residual,
        jacobian_condition_flag=bool(np.isfinite(cond) and cond < 1e12),
        seed_origin=seed_origin,
    )


def tropical_seed(t: float, v: Sequence) -> list[float]:
    """Componentwise t^v: a root with valuation v behaves like this for
    small t (min convention)."""
    return [t ** float(vi) for vi in v]


def count_roots(
    F: InstantiatedSystem,
    report: IntersectionReport,
    seed: int = 0,
) -> list[RootWitness]:
    """Verified-distinct positive roots of F: one Newton run per
    intersection point plus MULTISTARTS random log-uniform starts, each
    run to residual TOL.  ``newton`` returns a witness only when its
    residual fell below TOL and every coordinate is positive and finite,
    so every root kept here is one.

    Roots are deduplicated at max-norm log-distance SEPARATION; tropical
    seeds run first so deterministic ties resolve toward them.  A start
    that overflows or rounds to 0 as a float, a tropical seed's t^v or a
    random start's exp at a small t, is skipped, since no float witness
    lies there; every random start is still drawn, so the others stay
    the same.  The result is an empirical witness list.
    """
    seeds: list[tuple[str, list[float]]] = []

    def add(origin: str, start) -> None:
        try:
            x0 = start()
        except OverflowError:
            return
        if all(0.0 < x < math.inf for x in x0):
            seeds.append((origin, x0))

    for p in report.points:
        add("tropical v=(" + ",".join(str(x) for x in p.v) + ")", lambda: tropical_seed(F.t, p.v))
    rng = random.Random(seed)
    span = 1.5 * abs(math.log(F.t))
    for k in range(MULTISTARTS):
        y0 = [rng.uniform(-span, span) for _ in range(F.n)]
        add(f"random#{k}", lambda: [math.exp(c) for c in y0])

    witnesses: list[RootWitness] = []
    for origin, x0 in seeds:
        w = newton(F, x0, seed_origin=origin)
        if w is None:
            continue
        logs = [math.log(v) for v in w.x]
        if all(
            max(abs(a - math.log(b)) for a, b in zip(logs, kept.x)) > SEPARATION
            for kept in witnesses
        ):
            witnesses.append(w)
    return witnesses
