import math

import numpy as np
import pytest

from tropibound.intersection import lower_bound
from tropibound.numeric import (
    InstantiatedSystem,
    InstantiationError,
    count_roots,
    instantiate,
    newton,
    tropical_seed,
)
from tropibound.rational import RationalMatrix
from tropibound.systems import VerticalSystem, assemble_crn

H_RUN = (0, 0, 0, 0, -1)


def test_instantiate_golden_coefficients(running_system):
    F = instantiate(running_system, 0.01)
    assert list(F.coefficients[0]) == [-3.0, 1.0, -1.0, -2.0, 200.0]
    assert list(F.coefficients[1]) == [-1.0, 1.0, -1.0, -1.0, 100.0]


def test_instantiate_rejects_boundary(running_system):
    for t in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InstantiationError):
            instantiate(running_system, t)


def test_instantiate_constant_system_unchanged_by_t():
    # x - 1 = 0 has no parameter dependence
    system = VerticalSystem(
        RationalMatrix.from_rows([[1, -1]]),
        RationalMatrix.from_rows([[1, 0]]),
        (0, 0),
    )
    for t in (0.5, 0.01):
        F = instantiate(system, t)
        assert list(F.coefficients[0]) == [1.0, -1.0]


def test_instantiate_refuses_unrepresentable_coefficients(running_N, running_A):
    # t^-400 overflows and t^400 underflows at t = 0.01; the shift is on column 5
    for shift, reason in ((-400, "overflows"), (400, "rounds to 0")):
        system = VerticalSystem(running_N, running_A, (0, 0, 0, 0, shift))
        with pytest.raises(InstantiationError, match=f"^column 5: .*{reason}"):
            instantiate(system, 0.01)
    huge = VerticalSystem(
        RationalMatrix.from_rows([[1, -(10**400)]]),
        RationalMatrix.from_rows([[1, 0]]),
        (0, 0),
    )
    with pytest.raises(InstantiationError, match="^column 2: .*overflows"):
        instantiate(huge, 0.5)


def test_terms_view(running_system):
    F = instantiate(running_system, 0.1)
    assert F.coefficients[0, 4] == pytest.approx(20.0)
    assert tuple(F.exponents[4]) == (1, 1)


def test_newton_toy_square():
    # x^2 - 1 = 0 from x0 = 2
    system = VerticalSystem(
        RationalMatrix.from_rows([[1, -1]]),
        RationalMatrix.from_rows([[2, 0]]),
        (0, 0),
    )
    F = instantiate(system, 0.5)
    w = newton(F, [2.0], tol=1e-12)
    assert w is not None
    assert w.x[0] == pytest.approx(1.0, abs=1e-12)
    assert w.residual <= 1e-12
    assert w.jacobian_condition_flag


def test_newton_tropical_seed_converges(running_system):
    F = instantiate(running_system, 0.01)
    w = newton(F, tropical_seed(0.01, (1, 0)), tol=1e-9, seed_origin="tropical")
    assert w is not None
    assert w.residual < 1e-9
    assert all(x > 0 for x in w.x)


def test_newton_far_seed_gives_none(running_system):
    # hopeless seed: gradient pushes it nowhere useful within the budget
    F = instantiate(running_system, 0.01)
    assert newton(F, [1e12, 1e12], tol=1e-9, max_iter=4) is None


def test_newton_non_finite_jacobian_gives_none():
    # at x = 1e200 the monomials x^2 and x^3 overflow, so the Jacobian
    # -2 x^2 + 3 x^3 reads inf - inf; Newton ends without a witness and,
    # with RuntimeWarnings as errors, without a floating-point warning
    F = InstantiatedSystem(
        n=1,
        coefficients=np.array([[1.0, -1.0, 1.0]]),
        exponents=np.array([[0.0], [2.0], [3.0]]),
        t=0.5,
    )
    _, m, residual = F.evaluate_log(np.log([1e200]))
    assert residual == math.inf
    assert not np.all(np.isfinite(F.jacobian_log(m)))
    assert newton(F, [1e200]) is None


def test_newton_rejects_nonpositive_seed(running_system):
    F = instantiate(running_system, 0.01)
    with pytest.raises(ValueError):
        newton(F, [0.0, 1.0])


def test_count_roots_running_example(running_system):
    report = lower_bound(running_system)
    witnesses = count_roots(instantiate(running_system, 0.01), report)
    assert len(witnesses) >= 2
    logs = [[math.log(v) for v in w.x] for w in witnesses]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            assert max(abs(a - b) for a, b in zip(logs[i], logs[j])) > 1e-4
    for w in witnesses:
        assert w.residual <= 1e-9


def test_count_roots_crn(hhk_model):
    system = assemble_crn(hhk_model)
    report = lower_bound(system)
    witnesses = count_roots(instantiate(system, 0.01), report)
    assert len(witnesses) >= 3


def test_count_roots_empty_on_infeasible():
    # x + 1 = 0 has no positive root
    system = VerticalSystem(
        RationalMatrix.from_rows([[1, 1]]),
        RationalMatrix.from_rows([[1, 0]]),
        (0, 0),
    )
    report = lower_bound(system)
    assert count_roots(instantiate(system, 0.01), report, multistarts=8) == []


def test_count_roots_deterministic(running_system):
    report = lower_bound(running_system)
    a = count_roots(instantiate(running_system, 0.01), report, seed=5)
    b = count_roots(instantiate(running_system, 0.01), report, seed=5)
    assert [w.x for w in a] == [w.x for w in b]


def test_seeding_schedule_converges_on_shipped_examples(running_system, hhk_model):
    # every interior isolated point: the tropical-seeded run lands by the
    # end of the halving schedule
    for system in (running_system, assemble_crn(hhk_model)):
        report = lower_bound(system)
        for p in report.points:
            assert p.isolated and p.interior
            converged = False
            for t in (0.1, 0.05, 0.01):
                F = instantiate(system, t)
                if newton(F, tropical_seed(t, p.v), tol=1e-9) is not None:
                    converged = True
                    break
            assert converged, f"no convergence for seed {p.v}"


def test_witness_count_reaches_certified_bound_on_shipped(running_system, hhk_model):
    for system in (running_system, assemble_crn(hhk_model)):
        from tropibound.systems import bound

        rep = bound(system)
        witnesses = count_roots(instantiate(system, 0.01), rep.tropical)
        assert len(witnesses) >= rep.certified_bound
