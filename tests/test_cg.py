import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import normal_matrix
from lpipm import (
    NumericalBreakdown,
    cholesky_factorize,
    generalized_condition_probe,
    pcg_solve,
)


def _factor(A):
    """The factor of ``A A^T``, through the assembly the engines use."""
    return cholesky_factorize(normal_matrix(A)[0])


def _spd(B):
    """``A`` with ``A A^T = B B^T + n I``, ``n`` the rows of ``B``."""
    n = B.shape[0]
    return np.hstack((B, np.sqrt(n) * np.eye(n)))


def _spd_with_spectrum(rng, base_sqrt, spectrum):
    """M = B^{1/2} Q diag(spectrum) Q^T B^{1/2}: generalized spectrum of
    (M, B) is exactly `spectrum`."""
    n = len(spectrum)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = Q @ np.diag(spectrum) @ Q.T
    return base_sqrt @ C @ base_sqrt


def _poisoned(fn, call, index, value):
    """``fn``, with ``value`` written to entry ``index`` of the result of
    its ``call``-th call."""
    calls = []

    def wrapped(v):
        out = np.array(fn(v), dtype=np.float64)
        calls.append(None)
        if len(calls) == call:
            out[index] = value
        return out

    return wrapped


class _Precond:
    def __init__(self, solve):
        self.solve = solve


class TestPcg:
    def test_identity_one_iteration(self):
        f = _factor(np.eye(4))
        r = np.array([1.0, -2.0, 3.0, 0.5])
        out = pcg_solve(lambda v: v, f, r, 1e-12, 10)
        assert out.converged and out.iterations <= 1
        assert_allclose(out.solution, r, rtol=1e-14)

    def test_exact_preconditioner_one_iteration(self):
        M = np.array([[4.0, 2.0], [2.0, 3.0]])
        f = _factor(np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]]))  # A A^T = M
        out = pcg_solve(lambda v: M @ v, f, np.array([6.0, 5.0]), 1e-12, 10)
        assert out.converged and out.iterations <= 1
        assert_allclose(out.solution, [1.0, 1.0], rtol=1e-12)

    def test_exact_preconditioner_one_iteration_up_to_dim_200(self):
        rng = np.random.default_rng(70)
        for n in (20, 75, 200):
            B = rng.standard_normal((n, n))
            M = B @ B.T + n * np.eye(n)
            f = _factor(_spd(B))
            out = pcg_solve(lambda v: M @ v, f, rng.standard_normal(n), 1e-10, 10)
            assert out.converged and out.iterations <= 1

    def test_kappa_nine_within_forty_iterations(self):
        rng = np.random.default_rng(7)
        n = 50
        B = rng.standard_normal((n, n))
        Mt = B @ B.T + n * np.eye(n)
        w, V = np.linalg.eigh(Mt)
        base_sqrt = V @ np.diag(np.sqrt(w)) @ V.T
        spectrum = np.linspace(0.25, 2.25, n)  # kappa = 9
        M = _spd_with_spectrum(rng, base_sqrt, spectrum)
        f = _factor(_spd(B))
        rhs = rng.standard_normal(n)
        out = pcg_solve(lambda v: M @ v, f, rhs, 1e-12, 100)
        assert out.converged
        assert out.iterations <= 40
        assert out.relative_residual <= 1e-12

    def test_reported_residual_is_recomputed(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((20, 20))
        M = M @ M.T + 20 * np.eye(20)
        f = _factor(np.eye(20))
        rhs = rng.standard_normal(20)
        out = pcg_solve(lambda v: M @ v, f, rhs, 1e-10, 500)
        true_rel = np.linalg.norm(M @ out.solution - rhs) / max(np.linalg.norm(rhs), 1)
        assert abs(out.relative_residual - true_rel) <= 1e-13

    def test_zero_rhs(self):
        f = _factor(np.eye(3))
        out = pcg_solve(lambda v: v, f, np.zeros(3), 1e-12, 10)
        assert out.converged and out.iterations == 0

    def test_max_iter_not_converged(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((30, 30))
        M = M @ M.T + 1e-4 * np.eye(30)
        f = _factor(np.eye(30))
        out = pcg_solve(lambda v: M @ v, f, rng.standard_normal(30), 1e-14, 2)
        assert not out.converged
        assert out.iterations == 2

    def test_stops_at_the_attainable_floor(self):
        # a tolerance below rounding: once the true residual stops
        # falling, the run ends unconverged instead of spending max_iter
        rng = np.random.default_rng(10)
        B = rng.standard_normal((30, 30))
        M = B @ B.T + 30 * np.eye(30)
        f = _factor(np.eye(30))
        rhs = rng.standard_normal(30)
        out = pcg_solve(lambda v: M @ v, f, rhs, 1e-18, 200)
        assert not out.converged
        assert out.iterations < 60
        true_rel = np.linalg.norm(M @ out.solution - rhs) / max(np.linalg.norm(rhs), 1)
        assert out.relative_residual == true_rel <= 1e-14

    def test_nonfinite_raises(self):
        f = _factor(np.eye(2))
        with pytest.raises(NumericalBreakdown):
            pcg_solve(lambda v: v * np.inf, f, np.ones(2), 1e-10, 5)

    def test_indefinite_raises(self):
        f = _factor(np.eye(2))
        M = np.diag([1.0, -1.0])
        with pytest.raises(NumericalBreakdown):
            pcg_solve(lambda v: M @ v, f, np.array([1.0, 1.0]), 1e-10, 5)

    @pytest.mark.parametrize(
        "case, message, iterations",
        [
            ("nan_in_product_at_iteration_3", "non-finite value in PCG matrix product", 3),
            ("inf_in_product_where_p_is_0", "non-finite value in PCG matrix product", 1),
            ("minus_inf_in_product_where_p_is_0", "non-finite value in PCG matrix product", 1),
            ("inf_in_precond_solve_where_r_is_0",
             "non-finite value in PCG preconditioner solve", 1),
            ("finite_product_whose_curvature_overflows", "PCG curvature is not positive", 1),
            ("indefinite_curvature", "PCG curvature is not positive", 2),
        ],
    )
    def test_breakdown_reports_its_cause_and_iteration(self, case, message, iterations):
        # finiteness is read off the dot products p.Mp and r.z; a bad
        # entry against a zero of p or r must still be caught, and by
        # the same message and iteration count as a scan of the vector
        n = 6
        rng = np.random.default_rng(11)
        B = rng.standard_normal((n, n))
        M = B @ B.T + 0.1 * np.eye(n)  # kappa in the hundreds: no early exit
        diag = np.diag(np.arange(1.0, n + 1.0))
        rhs = rng.standard_normal(n)
        identity = _factor(np.eye(n))
        precond = identity
        if case == "nan_in_product_at_iteration_3":
            apply_M = _poisoned(lambda v: M @ v, 3, 2, np.nan)
        elif case in ("inf_in_product_where_p_is_0", "minus_inf_in_product_where_p_is_0"):
            rhs[0] = 0.0  # p = z = rhs on the identity: p_0 = 0
            value = -np.inf if case.startswith("minus") else np.inf
            apply_M = _poisoned(lambda v: M @ v, 1, 0, value)
        elif case == "inf_in_precond_solve_where_r_is_0":
            rhs[0] = 0.0  # a diagonal M keeps r_0 = 0
            apply_M = lambda v: diag @ v  # noqa: E731
            precond = _Precond(_poisoned(identity.solve, 2, 0, np.inf))
        elif case == "finite_product_whose_curvature_overflows":
            rhs = np.ones(n)
            apply_M = lambda v: 1e308 * v  # noqa: E731
        else:
            # positive curvature on the first direction, negative on the second
            apply_M = lambda v: np.diag([4.0, 1.0, 1.0, 1.0, 1.0, -2.0]) @ v  # noqa: E731
            rhs = np.ones(n)
        # the 0 * inf or the overflow in the dot product that reports the
        # breakdown raises no warning of numpy's, even as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown) as info:
                pcg_solve(apply_M, precond, rhs, 1e-12, 20)
        assert str(info.value) == message
        assert info.value.iterations == iterations


class TestConditionProbe:
    def test_same_matrix_is_one(self):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((8, 8))
        M = B @ B.T + 8 * np.eye(8)
        f = _factor(_spd(B))
        assert abs(generalized_condition_probe(lambda v: M @ v, f, 30) - 1.0) <= 1e-8

    def test_scalar_multiple_is_one(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((8, 8))
        M1 = 4.0 * (B @ B.T + 8 * np.eye(8))
        f = _factor(_spd(B))
        assert abs(generalized_condition_probe(lambda v: M1 @ v, f, 30) - 1.0) <= 1e-8

    def test_diag_one_nine(self):
        M1 = np.diag([1.0, 9.0])
        f = _factor(np.eye(2))
        kappa = generalized_condition_probe(lambda v: M1 @ v, f, 30)
        assert abs(kappa - 9.0) <= 0.05 * 9.0

    def test_nonfinite_breakdown(self):
        M1 = np.array([[np.inf, 0.0], [0.0, 1.0]])
        f = _factor(np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not numpy's warning of inf * 0
            with pytest.raises(NumericalBreakdown):
                generalized_condition_probe(lambda v: M1 @ v, f, 10)

    def test_dimension_mismatch(self):
        f = _factor(np.eye(3))
        with pytest.raises(ValueError):
            generalized_condition_probe(lambda v: np.eye(2) @ v, f, 10)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_fewer_than_one_step_is_rejected(self, iters):
        # used to run one Lanczos step, which reads kappa = 1 on any pair
        f = _factor(np.eye(2))
        with pytest.raises(ValueError, match="iters"):
            generalized_condition_probe(lambda v: np.diag([1.0, 9.0]) @ v, f, iters)

    def test_lower_bound_and_accuracy(self):
        rng = np.random.default_rng(12)
        n = 40
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.concatenate([[0.5], np.linspace(1.0, 3.0, n - 2), [8.0]])
        M = Q @ np.diag(spectrum) @ Q.T
        f = _factor(np.eye(n))
        kappa = generalized_condition_probe(lambda v: M @ v, f, 40)
        true = 8.0 / 0.5
        assert kappa <= true * (1 + 1e-9)   # Ritz values are interior
        assert kappa >= true * 0.95         # and accurate for separated extremes
