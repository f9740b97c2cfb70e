import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpipm import (
    DELAYED_SCALING,
    EXACT,
    CholeskyFactor,
    FactorizationFailed,
    IterateState,
    NormalSolver,
    PrimalConfig,
    SolveStatus,
    NumericalBreakdown,
    TraceLog,
    cholesky_factorize,
    complementarity,
    feasibility_repair,
    form_normal_matrix,
    generate_instance,
    parse_mps,
    pd_starting_point,
    primal_solve,
    projected_direction,
    ratio_test,
    refresh_cache,
    thresholded_distance,
    to_standard_form,
)
from conftest import (
    boxed_ranged_instance,
    dense_primal_direction,
    dense_projection,
    dense_proximity,
    feasible_instance,
    normal_matrix,
    random_full_rank,
    standard_lp_from_dense,
    tiny_central_x1,
)


def _exact_solver(p, x):
    return cholesky_factorize(form_normal_matrix(p.A, x)).solve


def direction_at_x(p, x, mu, solve):
    """Projected Newton direction scaled at x itself, without a dual
    estimate: ``-D P_{AD}((1/mu) D c - D grad)``; its ``delta`` is the
    proximity ``||P_{AD}((1/mu) D c - D grad)||``."""
    return projected_direction(p, x, x, mu, np.zeros(p.nrows), solve)


def newton_step(p, st, solve):
    """The infeasible-start Newton step at st scaled at x, as the engine
    takes it off the feasible path, split into ``(dx, dy, ds)`` with
    ``ds`` the change of the composite reduced cost ``c - A^T y``."""
    r_p = p.A.matvec(st.x) - p.b
    d = projected_direction(p, st.x, st.x, st.mu, st.y, solve, r_p)
    return d.dx, d.y - st.y, d.s - st.s


def next_mu_on_feasible_path(mu, tau, alpha, measured):
    """The barrier schedule of a feasible path: a damped step (alpha < 1)
    cuts mu by ``1 - tau alpha``; a full step cuts it to ``1 - tau`` times
    the complementarity measured after the step, but to no more than
    ``(1 - tau) mu`` and no less than ``mu / 2``."""
    if alpha < 1.0:
        return (1.0 - tau * alpha) * mu
    return min((1.0 - tau) * mu, max((1.0 - tau) * measured, 0.5 * mu))


def pcg_direction(p, x, w, mu, cache, cg_tol, cg_max_iter=200):
    """Direction scaled at w through the engine's PCG solver on the
    given cache, with at most ``cg_max_iter`` PCG iterations, repaired as
    the engine repairs it; returns the step and the solver (for its
    convergence flag and counts)."""
    cfg = PrimalConfig(mode=DELAYED_SCALING, cg_tol=cg_tol)
    solver = NormalSolver(p, cfg)
    solver.cache = cache
    d = projected_direction(p, x, w, mu, np.zeros(p.nrows), solver.at(w, cg_max_iter))
    return solver.repair(d.dx), solver


class TestPrimalDirection:
    def test_zero_on_central_path(self, tiny_lp):
        mu = 1.0
        x1 = tiny_central_x1(mu)
        x = np.array([x1, 2 - x1])
        d = direction_at_x(tiny_lp, x, mu, _exact_solver(tiny_lp, x))
        assert np.linalg.norm(d.dx) <= 1e-9
        assert d.delta <= 1e-9

    def test_hand_value(self, tiny_lp):
        x = np.array([1.0, 1.0])
        d = direction_at_x(tiny_lp, x, 1.0, _exact_solver(tiny_lp, x))
        assert_allclose(d.dx, [-0.5, 0.5], rtol=1e-12)

    def test_joint_scaling_invariance(self, tiny_lp):
        x = np.array([1.3, 0.7])
        dx1 = direction_at_x(tiny_lp, x, 1.0, _exact_solver(tiny_lp, x)).dx
        p2 = standard_lp_from_dense([[1.0, 1.0]], [2.0], 2.0 * tiny_lp.c)
        dx2 = direction_at_x(p2, x, 2.0, _exact_solver(p2, x)).dx
        assert_allclose(dx1, dx2, rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            m, n = 5, 11
            A = random_full_rank(rng, m, n)
            p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n))
            x = rng.uniform(0.2, 3.0, n)
            mu = rng.uniform(0.2, 2.0)
            d = direction_at_x(p, x, mu, _exact_solver(p, x))
            ref = dense_primal_direction(A, x, p.c, mu)
            assert np.linalg.norm(d.dx - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))
            delta = dense_proximity(A, x, p.c, mu)
            assert abs(d.delta - delta) <= 1e-9 * (1.0 + delta)
            assert_allclose(d.delta, np.linalg.norm(d.dx / x), rtol=1e-12)

    def test_dual_estimate_leaves_direction_unchanged(self):
        # y only moves the split between the rhs and the solve
        rng = np.random.default_rng(29)
        p, st = feasible_instance(rng, 5, 12)
        plain = direction_at_x(p, st.x, 0.3, _exact_solver(p, st.x))
        hinted = projected_direction(p, st.x, st.x, 0.3, st.y, _exact_solver(p, st.x))
        assert_allclose(hinted.dx, plain.dx, rtol=1e-9, atol=1e-12)
        assert_allclose(hinted.y, plain.y, rtol=1e-9, atol=1e-12)
        assert_allclose(p.A.rmatvec(hinted.y) + hinted.s, p.c, rtol=1e-12, atol=1e-12)


class TestFeasibilityRepair:
    def test_zero_error_identity(self, tiny_lp):
        aat = cholesky_factorize(form_normal_matrix(tiny_lp.A, np.ones(2)))
        dx = np.array([1.0, -1.0])  # already in the null space
        assert_allclose(feasibility_repair(tiny_lp, dx, aat_factor=aat), dx, rtol=1e-14)

    def test_hand_correction(self, tiny_lp):
        aat = cholesky_factorize(form_normal_matrix(tiny_lp.A, np.ones(2)))
        fixed = feasibility_repair(
            tiny_lp, np.zeros(2), zeta=np.array([1.0]), aat_factor=aat
        )
        assert_allclose(fixed, [-0.5, -0.5], rtol=1e-14)

    def test_random_residual_bound(self):
        rng = np.random.default_rng(31)
        m, n = 5, 12
        A = random_full_rank(rng, m, n)
        p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n))
        aat = cholesky_factorize(form_normal_matrix(p.A, np.ones(n)))
        for _ in range(10):
            raw = rng.standard_normal(n)
            zeta = p.A.matvec(raw)
            fixed = feasibility_repair(p, raw, aat_factor=aat)
            tol = 1e-10 * (1.0 + np.linalg.norm(zeta) + np.abs(p.b).max())
            assert np.linalg.norm(p.A.matvec(fixed)) <= tol


class TestInfeasibleStep:
    def test_zero_on_feasible_central_point(self, tiny_lp):
        mu = 0.5
        x1 = tiny_central_x1(mu)
        x = np.array([x1, 2 - x1])
        y = np.array([-mu / (2 - x1)])
        s = tiny_lp.c - tiny_lp.A.rmatvec(y)
        st = IterateState(x=x, y=y, s=s, mu=mu, w=np.zeros(2), v=np.zeros(2))
        dx, dy, ds = newton_step(tiny_lp, st, _exact_solver(tiny_lp, x))
        assert np.linalg.norm(dx) <= 1e-10
        assert np.linalg.norm(dy) <= 1e-10
        assert np.linalg.norm(ds) <= 1e-10

    def test_feasible_start_reduces_to_primal_direction(self):
        rng = np.random.default_rng(32)
        p, st = feasible_instance(rng, 3, 6)
        st.mu = 0.6
        dx_inf, _, _ = newton_step(p, st, _exact_solver(p, st.x))
        dx_dir = direction_at_x(p, st.x, 0.6, _exact_solver(p, st.x)).dx
        assert np.linalg.norm(dx_inf - dx_dir) <= 1e-9 * (1 + np.linalg.norm(dx_dir))

    def test_two_variable_dense_kkt_oracle(self, tiny_lp):
        st = IterateState(
            x=np.array([1.5, 1.0]), y=np.zeros(1), s=np.array([1.0, 0.0]), mu=0.5,
            w=np.zeros(2), v=np.zeros(2),
        )
        dx, dy, ds = newton_step(tiny_lp, st, _exact_solver(tiny_lp, st.x))
        # dense solve of the linearized KKT system
        A = tiny_lp.A.to_dense()
        n, m = 2, 1
        x, s, mu = st.x, st.s, st.mu
        K = np.zeros((2 * n + m, 2 * n + m))
        K[:m, :n] = A
        K[m:m + n, n:n + m] = A.T
        K[m:m + n, n + m:] = np.eye(n)
        K[m + n:, :n] = mu * np.diag(1.0 / x**2)
        K[m + n:, n + m:] = np.eye(n)
        r_p = A @ x - tiny_lp.b
        r_d = A.T @ st.y + s - tiny_lp.c
        r_mu = s - mu / x
        rhs = np.concatenate([-r_p, -r_d, -r_mu])
        sol = np.linalg.solve(K, rhs)
        assert_allclose(dx, sol[:n], atol=1e-10)
        assert_allclose(dy, sol[n:n + m], atol=1e-10)
        assert_allclose(ds, sol[n + m:], atol=1e-10)

    def test_linearized_equations_satisfied(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m, n = 4, 9
            A = random_full_rank(rng, m, n)
            p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n))
            st = IterateState(
                x=rng.uniform(0.3, 2.0, n),
                y=rng.standard_normal(m),
                s=rng.uniform(0.3, 2.0, n),
                mu=rng.uniform(0.2, 1.0),
                w=np.zeros(n),
                v=np.zeros(n),
            )
            dx, dy, ds = newton_step(p, st, _exact_solver(p, st.x))
            r_p = A @ st.x - p.b
            r_d = A.T @ st.y + st.s - p.c
            r_mu = st.s - st.mu / st.x
            scale = 1e-8 * (1 + np.linalg.norm(r_p) + np.linalg.norm(r_d))
            assert np.linalg.norm(A @ dx + r_p) <= scale
            assert np.linalg.norm(A.T @ dy + ds + r_d) <= scale
            assert np.linalg.norm(ds + st.mu / st.x**2 * dx + r_mu) <= scale

    def test_stabilized_matches_direct_form(self):
        rng = np.random.default_rng(34)
        p, st = feasible_instance(rng, 4, 8)
        st.x *= rng.uniform(0.9, 1.1, 8)  # slightly infeasible
        st.mu = 0.3
        d1 = newton_step(p, st, _exact_solver(p, st.x))
        # the direct form, dense: A D^2 A^T dy = -mu r_p + A D^2 (r_mu - r_d)
        A = p.A.to_dense()
        d_sq = st.x**2
        r_p = A @ st.x - p.b
        r_d = A.T @ st.y + st.s - p.c
        r_mu = st.s - st.mu / st.x
        dy = np.linalg.solve((A * d_sq) @ A.T, -st.mu * r_p + A @ (d_sq * (r_mu - r_d)))
        ds = -r_d - A.T @ dy
        dx = -(d_sq / st.mu) * (r_mu + ds)
        for a, b in zip(d1, (dx, dy, ds)):
            assert_allclose(a, b, rtol=1e-9, atol=1e-11)

    def test_boxed_dense_kkt_oracle(self):
        # the Newton step of min <c, x> - mu sum(log x) - mu sum(log(u - x))
        # over A x = b from an infeasible x, on a problem with finite upper
        # bounds: [H, -A^T; A, 0] [dx; y+] = [mu grad - c; -r_p] with
        # H = mu (X^-2 + (U - X)^-2) on the bounded coordinates
        rng = np.random.default_rng(48)
        for _ in range(10):
            m, n = 4, 10
            A = random_full_rank(rng, m, n)
            u = np.where(rng.random(n) < 0.5, rng.uniform(2.0, 4.0, n), np.inf)
            p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n), u=u)
            x = rng.uniform(0.3, 1.8, n)
            y = rng.standard_normal(m)
            mu = rng.uniform(0.1, 1.0)
            r_p = A @ x - p.b
            assert np.linalg.norm(r_p) > 0.1
            d = projected_direction(p, x, x, mu, y, refresh_cache(p, x).factor.solve, r_p)
            gap = np.where(np.isfinite(u), u - x, np.inf)
            K = np.zeros((n + m, n + m))
            K[:n, :n] = mu * np.diag(1.0 / x**2 + 1.0 / gap**2)
            K[:n, n:] = -A.T
            K[n:, :n] = A
            grad = 1.0 / x - 1.0 / gap
            sol = np.linalg.solve(K, np.concatenate([mu * grad - p.c, -r_p]))
            assert_allclose(d.dx, sol[:n], rtol=1e-9, atol=1e-11)
            assert_allclose(d.y, sol[n:], rtol=1e-9, atol=1e-11)
            assert np.linalg.norm(A @ d.dx + r_p) <= 1e-10 * (1.0 + np.linalg.norm(r_p))
            assert_allclose(A.T @ d.y + d.s, p.c, rtol=1e-12, atol=1e-12)


class TestRatioTest:
    def test_nonnegative_direction_full_step(self):
        assert ratio_test(
            np.array([1.0, 1.0]), np.array([0.5, 0.0]), 0.9995, np.full(2, np.inf)
        ) == 1.0

    def test_hand_value(self):
        alpha = ratio_test(
            np.array([1.0, 1.0]), np.array([-2.0, 1.0]), 0.9995, np.full(2, np.inf)
        )
        assert_allclose(alpha, 0.49975, rtol=1e-14)

    def test_clamped_at_one(self):
        assert ratio_test(np.array([1.0]), np.array([-1e-30]), 0.9995, np.full(1, np.inf)) == 1.0

    def test_strict_positivity_preserved(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            x = rng.uniform(0.01, 2.0, 6)
            dx = rng.standard_normal(6) * 10
            alpha = ratio_test(x, dx, 0.9995, np.full(6, np.inf))
            assert np.all(x + alpha * dx > 0)

    def test_upper_bounds_respected(self):
        x = np.array([0.5, 0.5])
        u = np.array([1.0, np.inf])
        dx = np.array([2.0, 2.0])
        alpha = ratio_test(x, dx, 0.9995, u)
        assert np.all(x + alpha * dx < u)
        assert_allclose(alpha, 0.9995 * 0.25, rtol=1e-14)


class TestSurrogateDirection:
    def test_no_delay_matches_exact(self):
        rng = np.random.default_rng(36)
        p, st = feasible_instance(rng, 4, 9)
        mu = 0.4
        cache = refresh_cache(p, st.x)
        dx, _ = pcg_direction(p, st.x, st.x.copy(), mu, cache, 1e-13)
        ref = direction_at_x(p, st.x, mu, _exact_solver(p, st.x)).dx
        assert np.linalg.norm(dx - ref) <= 1e-9 * (1 + np.linalg.norm(ref))

    def test_zero_at_central_point(self, tiny_lp):
        mu = 0.7
        x1 = tiny_central_x1(mu)
        x = np.array([x1, 2 - x1])
        cache = refresh_cache(tiny_lp, x)
        dx, _ = pcg_direction(tiny_lp, x, x.copy(), mu, cache, 1e-13)
        assert np.linalg.norm(dx) <= 1e-9

    def test_feasibility_repaired(self):
        rng = np.random.default_rng(38)
        p, st = feasible_instance(rng, 5, 12)
        cache = refresh_cache(p, st.x)
        w = st.x * rng.uniform(0.95, 1.05, 12)
        dx, _ = pcg_direction(p, st.x, w, 0.5, cache, 1e-4)
        tol = 1e-10 * (1.0 + np.abs(p.b).max())
        assert np.linalg.norm(p.A.matvec(dx)) <= tol

    def test_mixed_magnitude_geometry_converges_fast(self):
        # delayed point on the mixed-magnitude pair keeps the cached
        # factorization effective: PCG needs at most a few iterations
        from lpipm import delayed_scaling_point

        x = np.array([1e10 - 1e5, 1e-10])
        z = np.array([1e10, 1e-5])
        p = standard_lp_from_dense([[1.0, 1.0]], [float(x.sum())], [1.0, 0.5])
        w = delayed_scaling_point(x, z, 1.0)
        assert np.array_equal(w, [1e10, 1e-10])
        cache = refresh_cache(p, z)
        _, solver = pcg_direction(p, x, w, 1.0, cache, 1e-12, cg_max_iter=40)
        assert solver.converged
        assert solver.cg_iterations <= 40


class TestRefreshCache:
    def _near_singular(self):
        # 19 large coordinates against 20 rows: A Z^2 A^T is correct to
        # rounding but has kappa ~ 1e14, as at a degenerate optimum
        rng = np.random.default_rng(0)
        A = random_full_rank(rng, 20, 50)
        p = standard_lp_from_dense(A, A @ np.ones(50), np.ones(50))
        z = np.concatenate([np.full(19, 1.0), np.full(31, 1e-7)])
        return p, z

    def test_correct_factor_of_ill_conditioned_matrix_passes(self):
        p, z = self._near_singular()
        cache = refresh_cache(p, z)
        M = normal_matrix(p.A, z)[1]
        L = cache.factor.L
        assert np.linalg.norm(L @ L.T - M) <= 1e-12 * np.linalg.norm(M)

    def test_slightly_wrong_factor_fails(self, monkeypatch):
        import lpipm.primal as primal

        real = primal.cholesky_factorize

        def wrong(M):
            # the factor of (1 + 1e-6) M
            f = real(M)
            return CholeskyFactor(f.L * np.sqrt(1.0 + 1e-6), f.diag_regularization,
                                  f.diag_max, f.levels)

        monkeypatch.setattr(primal, "cholesky_factorize", wrong)
        p, z = self._near_singular()
        with pytest.raises(NumericalBreakdown, match="probe failed"):
            refresh_cache(p, z)


class TestNormalSolver:
    def test_repair_leaves_small_coordinates_in_place(self):
        # the correction is scaled by the cache point: on a coordinate at
        # 1e-10 it is 1e-20 times the error, below rounding, where a
        # least-norm one is of the order of the error itself
        rng = np.random.default_rng(47)
        p, st = feasible_instance(rng, 6, 14)
        z = st.x.copy()
        z[:3] = 1e-10
        cfg = PrimalConfig(mode=DELAYED_SCALING)
        solver = NormalSolver(p, cfg)
        solver.cache = refresh_cache(p, z)
        dx = 1e-6 * rng.standard_normal(14)
        r_p = 1e-6 * rng.standard_normal(6)
        for target in (None, r_p):
            fixed = solver.repair(dx, target)
            zero = np.zeros(6) if target is None else -target
            assert np.linalg.norm(p.A.matvec(fixed) - zero) <= 1e-18
            assert np.abs(fixed - dx)[:3].max() <= 1e-18
        plain = feasibility_repair(p, dx)
        assert np.abs(plain - dx)[:3].max() >= 1e-9

    def test_exact_mode_solves_with_a_cache_refreshed_at_each_iterate(self):
        # exact mode holds one factor, its cache's: every update refreshes
        # the cache at x, counted, and the solve is that factor's
        rng = np.random.default_rng(43)
        p, st = feasible_instance(rng, 6, 14)
        solver = NormalSolver(p, PrimalConfig(mode=EXACT))
        A = p.A.to_dense()
        rhs = rng.standard_normal(6)
        for k, x in enumerate((st.x, 1.5 * st.x, 1.5 * st.x), start=1):
            solver.update(x)
            assert np.array_equal(solver.cache.z, x)
            assert solver.factorizations == k
            assert_allclose(A @ (x**2 * (A.T @ solver.at(x)(rhs))), rhs, rtol=1e-10)
        assert not hasattr(solver, "factor")

    def test_solves_directly_at_the_cache_point(self):
        # at the cache point the preconditioner is the factor of the very
        # matrix to solve: its solve, no PCG run; anywhere else PCG
        rng = np.random.default_rng(48)
        p, st = feasible_instance(rng, 6, 14)
        solver = NormalSolver(p, PrimalConfig(mode=DELAYED_SCALING, cg_tol=1e-12))
        solver.update(st.x)
        rhs = rng.standard_normal(6)
        assert solver.at(st.x.copy()) == solver.cache.factor.solve
        assert solver.cg_iterations == 0
        w = st.x * rng.uniform(0.9, 1.1, 14)
        t = solver.at(w)(rhs)
        assert solver.cg_iterations > 0
        A = p.A.to_dense()
        assert_allclose(A @ (w**2 * (A.T @ t)), rhs, rtol=1e-10)

    def test_miss_refreshes_once_and_counts_both_runs(self, monkeypatch):
        import lpipm.primal as primal

        monkeypatch.setattr(primal, "_CG_MAX_ITER", 1)
        runs = []
        real_pcg = primal.pcg_solve

        def counting_pcg(*args, **kwargs):
            out = real_pcg(*args, **kwargs)
            runs.append(out)
            return out

        monkeypatch.setattr(primal, "pcg_solve", counting_pcg)
        rng = np.random.default_rng(37)
        p, st = feasible_instance(rng, 6, 14)
        far = st.x * rng.uniform(5.0, 50.0, 14)  # terrible preconditioner
        # nu above every coordinate: the delayed point is far itself
        cfg = PrimalConfig(mode=DELAYED_SCALING, nu=1e3, cg_tol=1e-15)
        solver = NormalSolver(p, cfg)
        solver.cache = refresh_cache(p, st.x)
        solver.direction(
            far, lambda w, solve: projected_direction(p, far, w, 0.5, st.y, solve)
        )
        assert not runs[0].converged
        # one refresh; the retry is the new factor's direct solve, no PCG run
        assert len(runs) == 1
        assert solver.factorizations == 1
        assert np.array_equal(solver.cache.z, far)
        assert solver.cg_iterations == sum(r.iterations for r in runs)

    @pytest.mark.parametrize("mode", [EXACT, DELAYED_SCALING])
    @pytest.mark.parametrize("pd_start", [False, True], ids=["feasible", "pd_start"])
    def test_reported_counts_match_observed_work(self, monkeypatch, mode, pd_start):
        import lpipm.primal as primal

        observed = []
        real_pcg = primal.pcg_solve

        def counting_pcg(*args, **kwargs):
            out = real_pcg(*args, **kwargs)
            observed.append(out.iterations)
            return out

        monkeypatch.setattr(primal, "pcg_solve", counting_pcg)
        monkeypatch.setattr(primal, "_CG_MAX_ITER", 30)
        p, start = feasible_instance(np.random.default_rng(1), 40, 90)
        if pd_start:
            start = pd_starting_point(p)
        # a tolerance at the attainable floor makes PCG miss and refresh
        cfg = PrimalConfig(tau=0.28, mode=mode, cg_tol=1e-14)
        trace = TraceLog()
        res = primal_solve(p, cfg, start, trace_log=trace)
        assert res.status == SolveStatus.OPTIMAL
        assert sum(observed) == res.cg_iterations == sum(r.cg_iters for r in trace)
        assert sum(r.factorized for r in trace) == res.factorizations
        if mode != EXACT:
            assert len(observed) > res.iterations  # some iteration retried


    @pytest.mark.parametrize("mode", [EXACT, DELAYED_SCALING])
    def test_failed_factorization_is_counted(self, monkeypatch, mode):
        import lpipm.primal as primal

        # the third factorization runs and then fails: in the cache modes
        # its probe, in exact mode the factorization itself
        name = "cholesky_factorize" if mode == EXACT else "refresh_cache"
        error = FactorizationFailed if mode == EXACT else NumericalBreakdown
        real = getattr(primal, name)
        calls = []

        def third_fails(*args):
            calls.append(real(*args))
            if len(calls) == 3:
                raise error("third factorization failed")
            return calls[-1]

        inst = generate_instance(30, 70, 1, density=1.0, spread=3.0)
        std = to_standard_form(parse_mps(inst.mps_text))
        start = pd_starting_point(std)
        monkeypatch.setattr(primal, name, third_fails)
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=mode)
        res = primal_solve(std, cfg, start)
        assert res.status == SolveStatus.NUMERICAL_FAILURE
        assert len(calls) == res.factorizations == 3

    def test_pcg_breakdown_is_counted(self, monkeypatch):
        import lpipm.primal as primal

        # the fourth PCG run (a predictor's, of 20 iterations unharmed) meets
        # a non-finite product at its third iteration: the solve fails, and
        # the iterations of that run count
        observed = []
        real_pcg = primal.pcg_solve

        def fourth_breaks_down(apply_M, *args):
            if len(observed) == 3:
                products = []

                def poisoned(v):
                    products.append(v)
                    return apply_M(v) if len(products) < 3 else np.full_like(v, np.nan)

                try:
                    real_pcg(poisoned, *args)
                except NumericalBreakdown as exc:
                    observed.append(exc.iterations)
                    raise
            out = real_pcg(apply_M, *args)
            observed.append(out.iterations)
            return out

        monkeypatch.setattr(primal, "pcg_solve", fourth_breaks_down)
        p, start = feasible_instance(np.random.default_rng(1), 40, 90)
        cfg = PrimalConfig(tau=0.28, mode=DELAYED_SCALING, cg_tol=1e-14)
        res = primal_solve(p, cfg, start)
        assert res.status == SolveStatus.NUMERICAL_FAILURE
        assert "non-finite" in res.message
        assert len(observed) == 4 and observed[-1] == 3
        assert res.cg_iterations == sum(observed)

    def test_no_pcg_run_spends_its_budget_at_the_floor(self, monkeypatch):
        import lpipm.primal as primal

        observed = []
        real_pcg = primal.pcg_solve

        def counting_pcg(*args, **kwargs):
            out = real_pcg(*args, **kwargs)
            observed.append(out.iterations)
            return out

        monkeypatch.setattr(primal, "pcg_solve", counting_pcg)
        monkeypatch.setattr(primal, "_CG_MAX_ITER", 30)
        p, start = feasible_instance(np.random.default_rng(1), 40, 90)
        cfg = PrimalConfig(tau=0.28, mode=DELAYED_SCALING, cg_tol=1e-14)
        res = primal_solve(p, cfg, start)
        assert res.status == SolveStatus.OPTIMAL
        assert max(observed) < primal._CG_MAX_ITER


def _delayed_bound_setup(rng, m, n):
    """Geometry satisfying the delayed-scaling error bound hypotheses."""
    A = random_full_rank(rng, m, n)
    x = np.concatenate([
        rng.uniform(5.0, 50.0, n // 2),         # large coordinates
        rng.uniform(0.01, 0.5, n - n // 2),     # small coordinates
    ])
    rng.shuffle(x)
    p = standard_lp_from_dense(A, A @ x, rng.standard_normal(n))
    mu = rng.uniform(0.2, 1.0)

    # z: relative perturbation on large coordinates, Euclidean on small
    z = x.copy()
    large = x >= 1.0
    z[large] *= 1.0 + rng.uniform(-1, 1, large.sum()) * 0.02
    z[~large] += rng.uniform(-1, 1, (~large).sum()) * 0.002
    z = np.abs(z) + 1e-12

    lam_z = np.linalg.eigvalsh(A @ np.diag(z**2) @ A.T).min()
    limit = min(np.sqrt(lam_z) / (2 * np.linalg.norm(A, 2)), 0.25)
    dist = thresholded_distance(z, x, x, 1.0)
    if dist > 0.9 * limit:  # shrink z toward x to honor the hypotheses
        z = x + (z - x) * (0.9 * limit / dist)
        dist = thresholded_distance(z, x, x, 1.0)
    return p, x, z, mu, dist


class TestDelayedScalingBound:
    def test_error_bound_against_dense_direction(self):
        rng = np.random.default_rng(39)
        for _ in range(8):
            m = int(rng.integers(3, 10))
            n = int(rng.integers(2 * m, 40))
            p, x, z, mu, dist = _delayed_bound_setup(rng, m, n)
            from lpipm import delayed_scaling_point

            w = delayed_scaling_point(x, z, 1.0)
            cache = refresh_cache(p, z)
            dx, solver = pcg_direction(p, x, w, mu, cache, 1e-13, cg_max_iter=500)
            assert solver.converged
            delta = direction_at_x(p, x, mu, _exact_solver(p, x)).delta
            ref = dense_primal_direction(p.A.to_dense(), x, p.c, mu)
            err = np.linalg.norm((dx - ref) / x)
            assert err <= 6.0 * delta * dist + 1e-9


class TestMonitoredInvariants:
    def test_inexact_step_identity_and_proximity_recursion(self):
        rng = np.random.default_rng(40)
        hits = 0
        for _ in range(12):
            m, n = 4, 10
            A = random_full_rank(rng, m, n)
            x = rng.uniform(0.5, 2.0, n)
            y0 = rng.standard_normal(m)
            mu = rng.uniform(0.3, 1.0)
            # near-central dual: s ~ mu X^{-1} e with a small perturbation
            s0 = (mu / x) * (1.0 + 0.05 * rng.standard_normal(n))
            p = standard_lp_from_dense(A, A @ x, A.T @ y0 + s0)

            delta = direction_at_x(p, x, mu, _exact_solver(p, x)).delta
            if delta > 0.5:
                continue
            hits += 1

            # inexact normal solve (loose PCG) followed by the repair
            cache = refresh_cache(p, x * rng.uniform(0.97, 1.03, n))
            v = x * p.c / mu - 1.0
            from lpipm import pcg_solve

            rhs = A @ (x * v)
            out = pcg_solve(
                lambda t: A @ (x**2 * (A.T @ t)), cache.factor, rhs, 1e-3, 3
            )
            d_hat = out.solution
            dx_raw = -(x * v) + x**2 * (A.T @ d_hat)
            zeta = A @ dx_raw
            aat = cholesky_factorize(form_normal_matrix(p.A, np.ones(n)))
            lam = -A.T @ np.linalg.solve(A @ A.T, zeta)
            dx_fixed = dx_raw + lam
            assert np.linalg.norm(A @ dx_fixed) <= 1e-10 * (
                1 + np.linalg.norm(zeta) + np.abs(p.b).max()
            )
            x_plus = x + dx_fixed  # unit step

            # identity: x+ = X (2e - z + psi) with z the projected dual
            pr = direction_at_x(p, x, mu, _exact_solver(p, x))
            z_vec = x * pr.s / mu
            Mx = A @ np.diag(x**2) @ A.T
            psi = x * (A.T @ np.linalg.solve(Mx, zeta)) + lam / x
            assert np.linalg.norm(x_plus - x * (2.0 - z_vec + psi)) <= 1e-8 * (
                1 + np.linalg.norm(x_plus)
            )

            # proximity recursion at the same mu
            if np.all(x_plus > 0):
                delta_plus = direction_at_x(p, x_plus, mu, _exact_solver(p, x_plus)).delta
                bound = (
                    np.sqrt(2.0) * delta**2
                    + (np.sqrt(2.0 * n) + 1.0) * np.linalg.norm(psi)
                    + 1e-6
                )
                assert delta_plus <= bound
            del aat
        assert hits >= 4  # the sampler must actually exercise the regime


class TestPrimalSolve:
    @pytest.mark.parametrize("field, value", [
        ("max_iter", -1), ("cg_tol", 0.0), ("cg_tol", -1e-10),
    ])
    def test_config_rejects_out_of_range_values(self, field, value):
        # PrimalConfig(cg_tol=0) used to fail only at the first PCG solve
        with pytest.raises(ValueError, match=field):
            PrimalConfig(**{field: value})

    def test_tracks_closed_form_central_path(self, tiny_lp):
        mu0 = 1.0
        x1 = tiny_central_x1(mu0)
        start = IterateState(
            x=np.array([x1, 2.0 - x1]), y=np.zeros(1), s=tiny_lp.c.copy(), mu=mu0,
            w=np.zeros(2), v=np.zeros(2),
        )
        cfg = PrimalConfig(tau=0.05, max_iter=600, mode=EXACT, tol=1e-10)
        trace = TraceLog()
        res = primal_solve(tiny_lp, cfg, start, trace_log=trace, collect_iterates=True)
        assert res.status == SolveStatus.OPTIMAL
        assert abs(res.objective) <= 1e-9
        mu = mu0
        for rec, it in zip(trace, res.iterates, strict=True):
            assert rec.delta is not None and rec.delta <= 0.5
            assert rec.mu == mu
            mu = next_mu_on_feasible_path(mu, 0.05, rec.alpha, complementarity(tiny_lp, it))

    def test_square_invertible_fast(self):
        # the feasible set is one point, the projection is identically
        # zero, and delta = 0, so the barrier can be slammed shut
        rng = np.random.default_rng(41)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        x_star = rng.uniform(0.5, 2.0, 4)
        p = standard_lp_from_dense(A, A @ x_star, rng.standard_normal(4))
        start = IterateState(
            x=rng.uniform(0.5, 2.0, 4), y=np.zeros(4), s=np.ones(4), mu=1.0,
            w=np.zeros(4), v=np.zeros(4),
        )
        cfg = PrimalConfig(tau=0.9975, max_iter=100, mode=EXACT, tol=1e-10)
        res = primal_solve(p, cfg, start)
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations <= 5

    def test_interiority_all_modes(self):
        rng = np.random.default_rng(42)
        p, start = feasible_instance(rng, 6, 15)
        for mode in (EXACT, DELAYED_SCALING):
            cfg = PrimalConfig(tau=0.2, max_iter=40, mode=mode, tol=1e-10)
            trace = TraceLog()
            res = primal_solve(p, cfg, start, trace_log=trace, collect_iterates=True)
            for it in res.iterates:
                assert np.all(it.x > 0)

    def test_mu_schedule_exact_multiplication(self):
        rng = np.random.default_rng(43)
        p, start = feasible_instance(rng, 4, 9)
        start.mu = 1.0
        cfg = PrimalConfig(tau=0.125, max_iter=30, mode=EXACT, tol=1e-14)
        trace = TraceLog()
        res = primal_solve(p, cfg, start, trace_log=trace, collect_iterates=True)
        mu = 1.0
        for rec, it in zip(trace, res.iterates, strict=True):
            assert rec.mu == mu  # bitwise: the schedule of the feasible path
            mu = next_mu_on_feasible_path(mu, 0.125, rec.alpha, complementarity(p, it))

    @pytest.mark.parametrize("tau", [0.7, 0.85])
    def test_large_tau_reaches_optimal(self, tau):
        # a fixed cut this large used to stall at the iteration limit
        inst = generate_instance(40, 90, 7, density=1.0, spread=3.0)
        p = to_standard_form(parse_mps(inst.mps_text))
        cfg = PrimalConfig(tau=tau, cg_tol=1e-12, mode=DELAYED_SCALING)
        res = primal_solve(p, cfg, pd_starting_point(p))
        assert res.status == SolveStatus.OPTIMAL
        ref = inst.certificate.objective
        assert abs(p.recovery.original_objective(res.objective) - ref) <= 1e-8 * (1 + abs(ref))

    @pytest.mark.parametrize("mode", [DELAYED_SCALING, EXACT])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_degenerate_lp_reaches_optimal(self, mode, seed):
        # a degenerate optimum puts coordinates near 1e-10 next to a nearly
        # singular normal matrix; a repair of the PCG error that ignores
        # the scaling used to cut full steps short there until the solve
        # stalled, and an exact step left unrepaired kept e_p at 1.2e-10,
        # above tol, to the iteration limit (seed 1)
        inst = generate_instance(30, 70, seed, degenerate=True, density=1.0, spread=3.0)
        p = to_standard_form(parse_mps(inst.mps_text))
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=mode)
        res = primal_solve(p, cfg, pd_starting_point(p))
        assert res.status == SolveStatus.OPTIMAL
        ref = inst.certificate.objective
        assert abs(p.recovery.original_objective(res.objective) - ref) <= 1e-8 * (1 + abs(ref))

    def test_short_steps_end_the_solve_as_stalled(self, monkeypatch):
        import lpipm.primal as primal

        monkeypatch.setattr(primal, "ratio_test", lambda *args: 1e-5)
        p, start = feasible_instance(np.random.default_rng(46), 5, 12)
        trace = TraceLog()
        res = primal_solve(p, PrimalConfig(tau=0.2, mode=EXACT), start, trace_log=trace)
        assert res.status == SolveStatus.NUMERICAL_FAILURE
        assert res.message.startswith("stalled")
        assert res.iterations == len(trace) == primal._STALL_STEPS

    def test_feasible_start_stays_feasible(self):
        rng = np.random.default_rng(44)
        p, start = feasible_instance(rng, 5, 12)
        bound = 1e-8 * (1.0 + np.abs(p.b).max())
        for mode in (EXACT, DELAYED_SCALING):
            cfg = PrimalConfig(tau=0.2, max_iter=50, mode=mode, tol=1e-10)
            res = primal_solve(p, cfg, start, collect_iterates=True)
            for it in res.iterates:
                assert np.linalg.norm(p.A.matvec(it.x) - p.b) <= bound

    def test_delayed_mode_saves_factorizations(self):
        rng = np.random.default_rng(45)
        inst_A = random_full_rank(rng, 25, 60)
        x_star = np.zeros(60)
        basis = rng.permutation(60)[:25]
        x_star[basis] = rng.uniform(0.5, 2.0, 25)
        s_star = np.zeros(60)
        nonbasis = np.setdiff1d(np.arange(60), basis)
        s_star[nonbasis] = rng.uniform(0.5, 2.0, 35)
        y_star = rng.standard_normal(25)
        p = standard_lp_from_dense(inst_A, inst_A @ x_star, inst_A.T @ y_star + s_star)
        start = pd_starting_point(p)
        cfg = PrimalConfig(
            tau=0.28, max_iter=100, mode=DELAYED_SCALING, tol=1e-10, cg_tol=1e-12
        )
        res = primal_solve(p, cfg, start)
        assert res.status == SolveStatus.OPTIMAL
        assert res.factorizations < res.iterations

    def test_iteration_limit_status(self, tiny_lp):
        start = IterateState(
            x=np.array([1.0, 1.0]), y=np.zeros(1), s=tiny_lp.c.copy(), mu=0.5,
            w=np.zeros(2), v=np.zeros(2),
        )
        cfg = PrimalConfig(tau=0.01, max_iter=3, mode=EXACT, tol=1e-10)
        res = primal_solve(tiny_lp, cfg, start)
        assert res.status == SolveStatus.ITERATION_LIMIT

    def test_bounded_variables_reach_active_bounds(self):
        # min -x1 - x2 s.t. x1 + x2 + x3 = 3, x1 <= 1, x2 <= 1: both
        # bounds are active at the optimum (1, 1, 1)
        p = standard_lp_from_dense(
            [[1.0, 1.0, 1.0]], [3.0], [-1.0, -1.0, 0.0], u=[1.0, 1.0, np.inf]
        )
        start = pd_starting_point(p)
        for mode in (EXACT, DELAYED_SCALING):
            cfg = PrimalConfig(
                tau=0.2, max_iter=200, mode=mode, tol=1e-10, cg_tol=1e-12
            )
            res = primal_solve(p, cfg, start)
            assert res.status == SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(-2.0, abs=1e-8)
            assert np.all(res.x < p.u)

    @pytest.mark.parametrize("mode", [EXACT, DELAYED_SCALING])
    def test_collected_iterates_keep_their_bound_pair(self, mode):
        p = to_standard_form(parse_mps(boxed_ranged_instance().mps_text))
        fi = p.bounded
        off = np.setdiff1d(np.arange(p.ncols), fi)
        assert fi.size and off.size
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=mode)
        res = primal_solve(p, cfg, pd_starting_point(p), collect_iterates=True)
        assert len(res.iterates) == res.iterations > 0
        for it in res.iterates:
            assert np.array_equal(it.w[fi], p.u[fi] - it.x[fi])
            assert not it.w[off].any() and not it.v[off].any()

    def test_path_tracking_against_closed_form(self, tiny_lp):
        # x1(mu) = 1 + mu - sqrt(1 + mu^2): iterates follow it to within a
        # proximity-consistent envelope with a 1e-6 floor
        mu0 = 1.0
        x1 = tiny_central_x1(mu0)
        start = IterateState(
            x=np.array([x1, 2.0 - x1]), y=np.zeros(1), s=tiny_lp.c.copy(), mu=mu0,
            w=np.zeros(2), v=np.zeros(2),
        )
        cfg = PrimalConfig(tau=0.05, max_iter=600, mode=EXACT, tol=1e-10)
        res = primal_solve(tiny_lp, cfg, start, collect_iterates=True)
        assert res.status == SolveStatus.OPTIMAL
        for it in res.iterates:
            ref = tiny_central_x1(it.mu)
            tol = 10.0 * 0.5 * max(ref, it.mu) + 1e-6
            assert abs(it.x[0] - ref) <= tol


def _planted_40x100():
    return to_standard_form(parse_mps(generate_instance(40, 100, seed=11).mps_text))


class TestTangentPredictor:
    def test_affine_direction_is_the_central_path_tangent(self, tiny_lp):
        # x1(mu) = 1 + mu - sqrt(1 + mu^2), x2 = 2 - x1, y(mu) = -mu / x2:
        # the direction is -mu dx/dmu
        from lpipm.primal import affine_direction

        mu = 0.3
        x1 = tiny_central_x1(mu)
        x = np.array([x1, 2.0 - x1])
        y = np.array([-mu / x[1]])
        h = 1e-6
        dx1 = (tiny_central_x1(mu + h) - tiny_central_x1(mu - h)) / (2.0 * h)
        dx = affine_direction(tiny_lp, x, mu, y, _exact_solver(tiny_lp, x))
        assert_allclose(dx, -mu * np.array([dx1, -dx1]), rtol=1e-7)

    @pytest.mark.parametrize("mode,factorizations", [(DELAYED_SCALING, 12)])
    def test_cached_modes_take_half_the_iterations(self, mode, factorizations):
        # one Newton step per iteration took 68 iterations and 20
        # factorizations here
        p = _planted_40x100()
        trace = TraceLog()
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=mode)
        res = primal_solve(p, cfg, pd_starting_point(p), trace_log=trace)
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations <= 68 // 2
        assert res.factorizations == factorizations <= 20
        # the first iteration factors at the start and has no cache to
        # predict on; later ones predict, never longer than the fraction
        gammas = [r.predictor_step for r in trace]
        assert gammas[0] == 0.0 and max(gammas) > 0.0
        assert all(0.0 <= g <= 0.9 for g in gammas)

    def test_exact_mode_takes_no_predictor(self):
        p = _planted_40x100()
        trace = TraceLog()
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=EXACT)
        res = primal_solve(p, cfg, pd_starting_point(p), trace_log=trace)
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations == res.factorizations == 68
        assert all(r.predictor_step == 0.0 for r in trace)

    def test_forced_hybrid_primal_phase_halves(self):
        from lpipm import PdConfig, SwitchPolicy, hybrid_solve

        # one Newton step per iteration took 17 primal-phase iterations
        p = _planted_40x100()
        res = hybrid_solve(
            p, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            SwitchPolicy(min_pcg_budget=0),
        )
        assert res.status == SolveStatus.OPTIMAL
        assert res.phase_stats["switch_iteration"] is not None
        assert res.phase_stats["primal_iterations"] <= 17 // 2
        assert res.factorizations == 9

    def test_predictor_miss_is_skipped(self, monkeypatch):
        # a predictor whose PCG run misses leaves x and the target alone
        import lpipm.primal as primal

        real_predictor = primal.NormalSolver.predictor

        def missing_predictor(self, x, step):
            real_predictor(self, x, step)
            return None

        monkeypatch.setattr(primal.NormalSolver, "predictor", missing_predictor)
        p = _planted_40x100()
        trace = TraceLog()
        cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=DELAYED_SCALING)
        res = primal_solve(p, cfg, pd_starting_point(p), trace_log=trace)
        assert res.status == SolveStatus.OPTIMAL
        assert all(r.predictor_step == 0.0 for r in trace)
        assert res.iterations == 68
