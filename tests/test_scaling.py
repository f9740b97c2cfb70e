import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from lpipm import (
    InteriorityViolation,
    SparseMatrix,
    bound_scaling_diag,
    cholesky_factorize,
    delayed_scaling_point,
    form_normal_matrix,
    thresholded_distance,
)
from conftest import (
    dense_projection,
    dense_proximity,
    random_full_rank,
    standard_lp_from_dense,
)
from test_primal import direction_at_x


class TestProximity:
    """The proximity is the ``delta`` of the direction at ``w = x``
    without a dual estimate, and its dual pair is the direction's."""

    def _solver_for(self, p, x):
        f = cholesky_factorize(form_normal_matrix(p.A, x))
        return f.solve

    def test_central_by_symmetry(self):
        p = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 1.0])
        x = np.array([1.0, 1.0])
        pr = direction_at_x(p, x, 1.0, self._solver_for(p, x))
        assert pr.delta <= 1e-14

    def test_square_invertible_projection_vanishes(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        p = standard_lp_from_dense(A, rng.standard_normal(4), rng.standard_normal(4))
        for mu in (0.3, 1.0, 7.0):
            x = rng.uniform(0.5, 2.0, 4)
            pr = direction_at_x(p, x, mu, self._solver_for(p, x))
            assert pr.delta <= 1e-9

    def test_hand_value_sqrt_half(self):
        p = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])
        x = np.array([1.0, 1.0])
        pr = direction_at_x(p, x, 1.0, self._solver_for(p, x))
        assert_allclose(pr.delta, np.sqrt(0.5), rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m, n = 5, 12
            A = random_full_rank(rng, m, n)
            p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n))
            x = rng.uniform(0.2, 3.0, n)
            mu = rng.uniform(0.1, 2.0)
            pr = direction_at_x(p, x, mu, self._solver_for(p, x))
            ref = dense_proximity(A, x, p.c, mu)
            assert abs(pr.delta - ref) <= 1e-9 * (1.0 + ref)

    def test_dual_byproduct_feasible(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m, n = 4, 9
            A = random_full_rank(rng, m, n)
            c = rng.standard_normal(n)
            p = standard_lp_from_dense(A, rng.standard_normal(m), c)
            x = rng.uniform(0.2, 3.0, n)
            pr = direction_at_x(p, x, 0.8, self._solver_for(p, x))
            err = np.linalg.norm(A.T @ pr.y + pr.s - c)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(c))

    def test_requires_positive_x(self):
        p = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])
        with pytest.raises(InteriorityViolation):
            direction_at_x(p, np.array([1.0, -1.0]), 1.0, lambda r: r)


class TestThresholdedDistance:
    def test_zero_for_equal(self):
        x = np.array([3.0, 0.5])
        assert thresholded_distance(x, x, x, 1.0) == 0.0

    def test_paper_example_value(self):
        # mixed-magnitude pair: large coordinate scaled, small one Euclidean
        x = np.array([1e10 - 1e5, 1e-10])
        z = np.array([1e10, 1e-5])
        d = thresholded_distance(x, z, x, 1.0)
        expected = np.sqrt((1e5 / (1e10 - 1e5)) ** 2 + (1e-5 - 1e-10) ** 2)
        assert abs(d - expected) <= 1e-12 * expected
        assert abs(d - 1.4142e-5) <= 0.01 * 1.4142e-5

    def test_hand_value(self):
        x = np.array([2.0, 0.5])
        y = np.array([2.0, 0.5])
        z = np.array([4.0, 1.0])
        assert_allclose(thresholded_distance(y, z, x, 1.0), np.sqrt(1.25), rtol=1e-14)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = 8
            x = rng.uniform(0.01, 10.0, n)
            a, b, c = (rng.standard_normal(n) for _ in range(3))
            nu = rng.uniform(0.05, 5.0)
            dab = thresholded_distance(a, b, x, nu)
            assert dab == thresholded_distance(b, a, x, nu)
            assert dab <= (
                thresholded_distance(a, c, x, nu)
                + thresholded_distance(c, b, x, nu)
                + 1e-12
            )

    def test_limiting_cases(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0.5, 2.0, 6)
        y = rng.standard_normal(6)
        z = rng.standard_normal(6)
        big_nu = x.max() * 1.0000001
        assert thresholded_distance(y, z, x, big_nu) == np.linalg.norm(y - z)
        small_nu = x.min()
        assert thresholded_distance(y, z, x, small_nu) == np.linalg.norm((y - z) / x)


class TestDelayedScalingPoint:
    def test_all_small(self):
        x = np.array([0.1, 0.2])
        z = np.array([5.0, 6.0])
        assert_array_equal(delayed_scaling_point(x, z, 1.0), x)

    def test_all_large(self):
        x = np.array([2.0, 3.0])
        z = np.array([5.0, 6.0])
        assert_array_equal(delayed_scaling_point(x, z, 1.0), z)

    def test_paper_mixed_case(self):
        x = np.array([1e10 - 1e5, 1e-10])
        z = np.array([1e10, 1e-5])
        assert_array_equal(delayed_scaling_point(x, z, 1.0), [1e10, 1e-10])

    def test_tie_goes_to_cached_side(self):
        x = np.array([1.0])
        z = np.array([2.0])
        assert delayed_scaling_point(x, z, 1.0)[0] == 2.0


class TestBoundScalingDiag:
    def test_infinite_bound_is_x(self):
        assert bound_scaling_diag(np.array([3.0]), np.array([np.inf]))[0] == 3.0

    def test_hand_value(self):
        d = bound_scaling_diag(np.array([1.0]), np.array([2.0]))
        assert_allclose(d[0], 1.0 / np.sqrt(2.0), rtol=1e-14)

    def test_midpoint_maximum(self):
        u = 6.0
        d_mid = bound_scaling_diag(np.array([u / 2]), np.array([u]))[0]
        assert_allclose(d_mid, u / (2 * np.sqrt(2.0)), rtol=1e-14)
        for x in (0.1 * u, 0.3 * u, 0.7 * u, 0.9 * u):
            assert bound_scaling_diag(np.array([x]), np.array([u]))[0] <= d_mid

    def test_interiority_errors(self):
        with pytest.raises(InteriorityViolation):
            bound_scaling_diag(np.array([-1.0]), np.array([2.0]))
        with pytest.raises(InteriorityViolation):
            bound_scaling_diag(np.array([2.0]), np.array([2.0]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: thresholded_distance(np.ones(2), np.ones(3), np.ones(2), 1.0),
     ValueError, "equal length"),
    (lambda: thresholded_distance(np.ones(2), np.ones(2), np.array([1.0, 0.0]), 1.0),
     InteriorityViolation, "x > 0"),
    (lambda: delayed_scaling_point(np.array([2.0, 0.5]), np.array([0.0, 1.0]), 1.0),
     InteriorityViolation, "stay positive"),
    (lambda: bound_scaling_diag(np.ones(2), np.ones(3)), ValueError, "matching lengths"),
], ids=["distance_lengths", "distance_x", "delayed_point", "diag_lengths"])
def test_invalid_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestShiftedScalingLemma:
    """Scaled-projection surrogates stay within 3 beta of the true
    projection when the scaling points are close in scaled distance."""

    def test_property_suite(self):
        rng = np.random.default_rng(25)
        trials = 30
        for _ in range(trials):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(m + 2, 50))
            A = random_full_rank(rng, m, n)
            x = rng.uniform(0.2, 5.0, n)
            beta = rng.uniform(0.01, 0.25)
            step = rng.standard_normal(n)
            step *= beta / np.linalg.norm(step / x)
            w = x + step
            assert np.all(w > 0)
            P_ax = dense_projection(A * x[np.newaxis, :])
            P_aw = dense_projection(A * w[np.newaxis, :])
            S = np.diag(w / x) @ P_aw @ np.diag(w / x) - P_ax
            V = rng.standard_normal((n, 200))
            lhs = np.linalg.norm(S @ V, axis=0)
            rhs = 3.0 * beta * np.linalg.norm(P_ax @ V, axis=0) + 1e-9
            assert np.all(lhs <= rhs)


class TestEuclideanBallLemma:
    """Generalized eigenvalues of the preconditioned normal matrix stay in
    [(1-beta)^2, (1+beta)^2] inside the Euclidean ball."""

    def test_property_suite(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(m + 2, 60))
            A = random_full_rank(rng, m, n)
            x = rng.uniform(0.2, 5.0, n)
            M_x = A @ np.diag(x**2) @ A.T
            lam = np.linalg.eigvalsh(M_x).min()
            norm_A = np.linalg.norm(A, 2)
            for beta in (0.1, 0.3, 0.5):
                # the bound needs no sign condition on x + step: the
                # perturbed point enters the normal matrix squared
                step = rng.standard_normal(n)
                step *= beta * np.sqrt(lam) / norm_A / np.linalg.norm(step)
                xw = x + step
                M_w = A @ np.diag(xw**2) @ A.T
                ev = sla.eigh(M_w, M_x, eigvals_only=True)
                assert ev.min() >= (1 - beta) ** 2 - 1e-9
                assert ev.max() <= (1 + beta) ** 2 + 1e-9
