import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpipm import (
    FactorizationFailed,
    IterateState,
    PdConfig,
    SolveStatus,
    TraceLog,
    cholesky_factorize,
    form_normal_matrix,
    generate_instance,
    mehrotra_step,
    parse_mps,
    pd_solve,
    pd_starting_point,
    to_standard_form,
)
from lpipm.mehrotra import _least_squares_point
from conftest import random_full_rank, standard_lp_from_dense


def _boxed_1x3():
    # min -x1 - x2 s.t. x1 + x2 + x3 = 3, x1 <= 1, x2 <= 1
    return standard_lp_from_dense(
        [[1.0, 1.0, 1.0]], [3.0], [-1.0, -1.0, 0.0], u=[1.0, 1.0, np.inf]
    )


def _boxed_4x9():
    # a random 4x9 LP whose columns 1, 4 and 7 have finite upper bounds
    rng = np.random.default_rng(57)
    A = random_full_rank(rng, 4, 9)
    x0 = rng.uniform(0.5, 2.0, 9)
    u = np.full(9, np.inf)
    u[[1, 4, 7]] = x0[[1, 4, 7]] + rng.uniform(0.5, 2.0, 3)
    return standard_lp_from_dense(A, A @ x0, rng.standard_normal(9), u=u)


def _dense_least_squares(p):
    """The start's two least-squares problems, by their dense KKT systems.

    ``min 1/2 ||x||^2 + 1/2 ||u_F - x_F||^2`` s.t. ``A x = b``, and
    ``min 1/2 ||s||^2 + 1/2 ||v_F||^2`` s.t. ``A^T y + s - v_F = c`` in
    the unknowns ``(y, s, v_F)``."""
    A = p.A.to_dense()
    m, n = A.shape
    F = np.flatnonzero(np.isfinite(p.u))
    k = F.size
    E = np.zeros((n, n))
    E[F, F] = 1.0
    eu = np.zeros(n)
    eu[F] = p.u[F]
    K = np.block([[np.eye(n) + E, A.T], [A, np.zeros((m, m))]])
    x = np.linalg.solve(K, np.concatenate([eu, p.b]))[:n]

    P = np.zeros((n, k))
    P[F, np.arange(k)] = 1.0
    G = np.hstack([A.T, np.eye(n), -P])  # n rows, m + n + k unknowns
    Q = np.diag(np.concatenate([np.zeros(m), np.ones(n + k)]))
    K = np.block([[Q, G.T], [G, np.zeros((n, n))]])
    z = np.linalg.solve(K, np.concatenate([np.zeros(m + n + k), p.c]))
    v = np.zeros(n)
    v[F] = z[m + n:m + n + k]
    return x, z[:m], z[m:m + n], v


def _textbook_start(p):
    """Mehrotra's start of an LP without finite upper bounds, as the
    unbounded formula on ``A A^T`` writes it."""
    aat = cholesky_factorize(form_normal_matrix(p.A, np.ones(p.ncols)))
    x_tilde = p.A.rmatvec(aat.solve(p.b))
    y_tilde = aat.solve(p.A.matvec(p.c))
    s_tilde = p.c - p.A.rmatvec(y_tilde)
    dx = max(-1.5 * float(x_tilde.min(initial=0.0)), 0.0)
    ds = max(-1.5 * float(s_tilde.min(initial=0.0)), 0.0)
    x_hat = x_tilde + dx
    s_hat = s_tilde + ds
    dot = float(x_hat @ s_hat)
    sum_s = float(s_hat.sum())
    sum_x = float(x_hat.sum())
    dx_hat = dx + (0.5 * dot / sum_s if sum_s > 0 else 1.0)
    ds_hat = ds + (0.5 * dot / sum_x if sum_x > 0 else 1.0)
    x = x_tilde + dx_hat
    s = s_tilde + ds_hat
    if float(x.min(initial=1.0)) <= 0.0:
        x = x + (1.0 - float(x.min()))
    if float(s.min(initial=1.0)) <= 0.0:
        s = s + (1.0 - float(s.min()))
    return x, y_tilde, s


class TestStartingPoint:
    def test_identity_instance(self):
        p = standard_lp_from_dense(np.eye(3), np.ones(3), np.ones(3))
        st = pd_starting_point(p)
        assert np.all(st.x > 0) and np.all(st.s > 0)
        assert np.linalg.norm(st.x - 1.0) <= 2.0
        assert np.linalg.norm(st.y - 1.0) <= 2.0

    def test_degenerate_zero_data(self):
        p = standard_lp_from_dense(np.eye(2), np.zeros(2), np.zeros(2))
        st = pd_starting_point(p)
        assert np.all(st.x > 0) and np.all(st.s > 0)
        assert st.x[0] == st.x[1]  # uniform shift

    def test_always_strictly_interior(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(m + 1, 30))
            A = random_full_rank(rng, m, n)
            p = standard_lp_from_dense(
                A, rng.standard_normal(m), rng.standard_normal(n)
            )
            st = pd_starting_point(p)
            assert np.all(st.x > 0) and np.all(st.s > 0)

    @pytest.mark.parametrize("lp", [_boxed_1x3, _boxed_4x9], ids=["1x3", "4x9"])
    def test_bounded_least_squares_match_dense_kkt(self, lp):
        p = lp()
        x_ls, y_ls, s_ls, v_ls = _least_squares_point(p)
        x, y, s, v = _dense_least_squares(p)
        assert_allclose(x_ls, x, atol=1e-12)
        assert_allclose(y_ls, y, atol=1e-12)
        assert_allclose(s_ls, s, atol=1e-12)
        assert v_ls.tobytes() == np.where(np.isfinite(p.u), v_ls, 0.0).tobytes()
        assert_allclose(v_ls, v, atol=1e-12)
        # the start keeps y~ and shifts s~ and v~_F by one dual shift
        st = pd_starting_point(p)
        assert st.y.tobytes() == y_ls.tobytes()
        fi = p.bounded
        shift = st.s[0] - s_ls[0]
        assert shift > 0.0
        assert_allclose(st.s - s_ls, shift, rtol=1e-12, atol=1e-14)
        assert_allclose(st.v[fi] - v_ls[fi], shift, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lp", [_boxed_1x3, _boxed_4x9], ids=["1x3", "4x9"])
    def test_bounded_start_is_interior_with_its_own_bound_pair(self, lp):
        p = lp()
        st = pd_starting_point(p)
        fi = p.bounded
        off = np.setdiff1d(np.arange(p.ncols), fi)
        assert fi.size > 0
        assert np.all(st.x > 0) and np.all(st.s > 0)
        assert np.all(st.x[fi] > 0) and np.all(st.x[fi] < p.u[fi])
        assert st.w[fi].tobytes() == (p.u[fi] - st.x[fi]).tobytes()
        assert np.all(st.v[fi] > 0)
        assert not st.w[off].any() and not st.v[off].any()
        assert st.mu == pytest.approx(
            (st.x @ st.s + st.w[fi] @ st.v[fi]) / (p.ncols + fi.size), rel=1e-14
        )

    @pytest.mark.parametrize(
        "inst",
        [
            generate_instance(25, 60, seed=1),
            generate_instance(30, 70, seed=1, density=1.0, spread=3.0),
        ],
        ids=["sparse", "dense"],
    )
    def test_unbounded_start_is_the_textbook_start(self, inst):
        p = to_standard_form(parse_mps(inst.mps_text))
        assert p.bounded.size == 0
        st = pd_starting_point(p)
        x, y, s = _textbook_start(p)
        assert st.x.tobytes() == x.tobytes()
        assert st.y.tobytes() == y.tobytes()
        assert st.s.tobytes() == s.tobytes()
        assert st.w.tobytes() == st.v.tobytes() == np.zeros(p.ncols).tobytes()
        assert st.mu == float(x @ s) / p.ncols


class TestMehrotraStep:
    def _factor(self, p, st):
        """The factor of ``A D^2 A^T`` at st, with its ``D^2 = X S^-1``."""
        d2 = st.x / st.s
        return cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2))), d2

    def test_centered_point_descent(self):
        rng = np.random.default_rng(51)
        m, n = 4, 9
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.5, 2.0, n)
        y = rng.standard_normal(m)
        mu = 0.8
        s = mu / x
        p = standard_lp_from_dense(A, A @ x, A.T @ y + s)
        st = IterateState(x=x, y=y, s=s, mu=mu, w=np.zeros(n), v=np.zeros(n))
        step = mehrotra_step(p, st, *self._factor(p, st), PdConfig().tol)
        assert step.mu_aff < mu
        x2 = x + step.alpha_p * step.dx
        s2 = s + step.alpha_d * step.ds
        assert float(x2 @ s2) / n < mu

    def test_sigma_cube_rule(self):
        rng = np.random.default_rng(52)
        m, n = 3, 7
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.5, 2.0, n)
        y = rng.standard_normal(m)
        s = rng.uniform(0.5, 2.0, n)
        p = standard_lp_from_dense(A, A @ x, A.T @ y + s)
        st = IterateState(
            x=x, y=y, s=s, mu=float(x @ s) / n, w=np.zeros(n), v=np.zeros(n)
        )
        step = mehrotra_step(p, st, *self._factor(p, st), PdConfig().tol)
        mu = float(x @ s) / n
        expected = np.clip((max(step.mu_aff, 0.0) / mu) ** 3, 1e-8, 1 - 1e-8)
        assert step.sigma == pytest.approx(expected, rel=1e-12)

    def test_refines_a_solve_whose_residual_exceeds_the_tolerance(self):
        # a factor of a matrix 1e-6 off leaves a normal-equation residual
        # of about 1e-6, which ``A dx = -r_p - res`` carries into the step;
        # one refinement on the same factor takes it to about 1e-12, and a
        # tolerance above the residual leaves the solve as it is
        rng = np.random.default_rng(53)
        m, n = 6, 15
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.5, 2.0, n)
        s = rng.uniform(0.5, 2.0, n)
        p = standard_lp_from_dense(A, A @ x + 0.1, A.T @ rng.standard_normal(m) + s)
        st = IterateState(x=x, y=np.zeros(m), s=s, mu=float(x @ s) / n,
                          w=np.zeros(n), v=np.zeros(n))
        d2 = x / s
        wrong = rng.uniform(1.0 - 1e-6, 1.0 + 1e-6, n)
        r_p = A @ x - p.b

        def feasibility_error(tol):
            factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2 * wrong)))
            step = mehrotra_step(p, st, factor, d2, tol)
            return np.linalg.norm(A @ step.dx + r_p) / (1.0 + np.linalg.norm(p.b))

        assert 1e-9 < feasibility_error(1e6) < 1e-4
        assert feasibility_error(1e-10) < 1e-11

    def test_matches_dense_kkt_oracle(self, tiny_lp):
        st = IterateState(
            x=np.array([0.6, 1.4]), y=np.array([-0.2]),
            s=np.array([1.1, 0.3]), mu=0.0, w=np.zeros(2), v=np.zeros(2),
        )
        n, m = 2, 1
        st.mu = float(st.x @ st.s) / n
        step = mehrotra_step(tiny_lp, st, *self._factor(tiny_lp, st), PdConfig().tol)

        # dense replication of predictor + corrector
        A = tiny_lp.A.to_dense()
        x, y, s = st.x, st.y, st.s
        r_p = A @ x - tiny_lp.b
        r_d = A.T @ y + s - tiny_lp.c
        mu = st.mu

        def solve(rhs_xs):
            K = np.zeros((2 * n + m, 2 * n + m))
            K[:m, :n] = A
            K[m:m + n, n:n + m] = A.T
            K[m:m + n, n + m:] = np.eye(n)
            K[m + n:, :n] = np.diag(s)
            K[m + n:, n + m:] = np.diag(x)
            rhs = np.concatenate([-r_p, -r_d, rhs_xs])
            sol = np.linalg.solve(K, rhs)
            return sol[:n], sol[n:n + m], sol[n + m:]

        dxa, dya, dsa = solve(-x * s)

        def limit(z, dz):
            neg = dz < 0
            return min(1.0, float(np.min(-z[neg] / dz[neg])) if neg.any() else np.inf)

        ap, ad = limit(x, dxa), limit(s, dsa)
        mu_aff = float((x + ap * dxa) @ (s + ad * dsa)) / n
        sigma = np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1 - 1e-8)
        dx, dy, ds = solve(sigma * mu - x * s - dxa * dsa)

        assert_allclose(step.dx, dx, atol=1e-10)
        assert_allclose(step.dy, dy, atol=1e-10)
        assert_allclose(step.ds, ds, atol=1e-10)
        assert step.sigma == pytest.approx(sigma, rel=1e-10)


class TestPdSolve:
    @pytest.mark.parametrize("make, message", [
        (lambda: PdConfig(tol=0.0), "tol must be positive"),
        (lambda: pd_starting_point(standard_lp_from_dense(np.zeros((0, 2)), [], [1.0, 1.0])),
         "no rows"),
    ], ids=["tol", "no_rows"])
    def test_rejects_invalid_input(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_config_rejects_negative_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            PdConfig(max_iter=-1)
        assert PdConfig(max_iter=0).max_iter == 0

    def test_two_variable_instance(self, tiny_lp):
        res = pd_solve(tiny_lp, PdConfig())
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations <= 15
        assert abs(res.objective) <= 1e-9
        assert_allclose(res.x, [0.0, 2.0], atol=1e-8)

    def test_failed_start_ends_numerical_failure(self):
        # the start's factorization meets a NaN pivot: the solve reports
        # it, with no iterate and no factorization counted
        p = standard_lp_from_dense([[1.0, np.nan, 1.0], [0.5, 2.0, 1.0]], [1.0, 1.0], np.ones(3))
        res = pd_solve(p, PdConfig())
        assert res.status == SolveStatus.NUMERICAL_FAILURE
        assert res.message == "non-finite pivot in the factorization"
        assert res.iterations == res.factorizations == 0
        assert np.all(np.isnan(res.x))

    def test_infeasible_instance_hits_limit(self):
        p = standard_lp_from_dense([[1.0, 1.0]], [-1.0], [1.0, 1.0])
        with np.errstate(over="ignore"), pytest.warns(UserWarning):
            res = pd_solve(p, PdConfig(max_iter=30))
        assert res.status == SolveStatus.ITERATION_LIMIT
        assert res.e_p > 1e-4  # primal infeasibility cannot vanish

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m, n", [(30, 70), (40, 90)])
    def test_degenerate_lp_ends_optimal(self, m, n, seed):
        # as A D^2 A^T turns singular, a solve leaves a residual tiny next
        # to its right-hand side but large next to r_p; unrefined, every
        # full step injects it, e_p cycles back up to 1e-2 and the solve
        # ends at the iteration limit
        inst = generate_instance(m, n, seed, degenerate=True, density=1.0, spread=3)
        std = to_standard_form(parse_mps(inst.mps_text))
        res = pd_solve(std, PdConfig())
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations <= 15
        ref = inst.certificate.objective
        assert abs(res.objective - ref) <= 1e-8 * (1 + abs(ref))

    def test_last_allowed_iteration_can_end_optimal(self):
        # the loop runs out on the iteration that converges: the check
        # after the loop, not the one at the top of the next iteration,
        # reports it
        std = to_standard_form(parse_mps(generate_instance(40, 100, 3).mps_text))
        full = pd_solve(std, PdConfig())
        assert full.status == SolveStatus.OPTIMAL and full.iterations == 8
        res = pd_solve(std, PdConfig(max_iter=full.iterations))
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations == full.iterations
        assert np.array_equal(res.x, full.x)
        short = pd_solve(std, PdConfig(max_iter=full.iterations - 1))
        assert short.status == SolveStatus.ITERATION_LIMIT

    def test_planted_instance_matches_certificate(self):
        inst = generate_instance(30, 60, seed=3)
        std = to_standard_form(parse_mps(inst.mps_text))
        res = pd_solve(std, PdConfig())
        assert res.status == SolveStatus.OPTIMAL
        ref = inst.certificate.objective
        assert abs(res.objective - ref) <= 1e-8 * (1 + abs(ref))

    def test_strict_interiority_and_mu_monotone(self):
        inst = generate_instance(15, 40, seed=4)
        std = to_standard_form(parse_mps(inst.mps_text))
        trace = TraceLog()
        states = []
        res = pd_solve(
            std, PdConfig(), trace_log=trace,
            hook=lambda info: states.append(info.state.copy()),
        )
        assert res.status == SolveStatus.OPTIMAL
        assert len(states) == res.iterations
        for it in states:
            assert np.all(it.x > 0) and np.all(it.s > 0)
        mus = [r.mu for r in trace]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(mus, mus[1:]))

    def test_trace_records_step_distances(self, tiny_lp):
        trace = TraceLog()
        states = []
        res = pd_solve(
            tiny_lp, PdConfig(), trace_log=trace,
            hook=lambda info: states.append(info.state.copy()),
        )
        assert len(trace) == len(states) == res.iterations
        prev = None
        for rec, it in zip(trace, states):
            if prev is not None:
                assert rec.step_norm == pytest.approx(
                    np.linalg.norm(it.x - prev), rel=1e-12
                )
            assert rec.wall_factor_ms >= 0.0 and rec.wall_solve_ms >= 0.0
            prev = it.x

    def test_failed_factorization_is_counted(self, monkeypatch):
        import lpipm.mehrotra as mehrotra

        real = mehrotra.cholesky_factorize
        calls = []

        def third_fails(M):
            calls.append(real(M))
            if len(calls) == 3:
                raise FactorizationFailed("third factorization failed")
            return calls[-1]

        inst = generate_instance(30, 70, 1, density=1.0, spread=3.0)
        std = to_standard_form(parse_mps(inst.mps_text))
        start = pd_starting_point(std)  # its A A^T factor is not counted
        monkeypatch.setattr(mehrotra, "cholesky_factorize", third_fails)
        res = pd_solve(std, PdConfig(), start=start)
        assert res.status == SolveStatus.NUMERICAL_FAILURE
        assert len(calls) == res.factorizations == 3

    def test_early_return_when_start_optimal(self):
        # an instance whose Mehrotra starting point is already optimal:
        # identity A with matching b, c has x = s impossible, so instead
        # force tol large enough that the start passes
        inst = generate_instance(8, 20, seed=5)
        std = to_standard_form(parse_mps(inst.mps_text))
        res = pd_solve(std, PdConfig(tol=1e3))
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations == 0

    def test_bounded_variables_solve(self):
        # min -x1 - x2 s.t. x1 + x2 + x3 = 3, x1 <= 1, x2 <= 1:
        # optimum x = (1, 1, 1), objective -2
        p = standard_lp_from_dense(
            [[1.0, 1.0, 1.0]], [3.0], [-1.0, -1.0, 0.0],
            u=[1.0, 1.0, np.inf],
        )
        res = pd_solve(p, PdConfig())
        assert res.status == SolveStatus.OPTIMAL
        assert_allclose(res.x, [1.0, 1.0, 1.0], atol=1e-7)
        assert res.objective == pytest.approx(-2.0, abs=1e-8)

    def test_unbounded_problem_runs_the_bounded_path(self):
        # an unbounded problem's start carries a zero bound pair
        inst = generate_instance(25, 60, seed=1)
        p = to_standard_form(parse_mps(inst.mps_text))
        st = pd_starting_point(p)
        assert st.w.tobytes() == np.zeros(p.ncols).tobytes()
        assert st.v.tobytes() == np.zeros(p.ncols).tobytes()

    def test_bounded_step_matches_dense_oracle(self):
        # one bounded Mehrotra iteration against a dense implementation
        # of the same formulas (x + w = u block included)
        p = standard_lp_from_dense(
            [[1.0, 1.0]], [1.5], [-1.0, 0.0], u=[1.0, np.inf]
        )
        x = np.array([0.5, 1.0])
        w = np.array([0.5, 0.0])
        y = np.array([0.1])
        s = np.array([0.4, 0.6])
        v = np.array([0.3, 0.0])
        st = IterateState(x=x, y=y, s=s, mu=0.0, w=w, v=v)
        finite = np.isfinite(p.u)
        st.mu = (float(x @ s) + float(w[finite] @ v[finite])) / 3
        vw = np.zeros(2)
        vw[finite] = v[finite] / w[finite]
        d2 = 1.0 / (s / x + vw)
        factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2)))
        step = mehrotra_step(p, st, factor, d2, PdConfig().tol)

        A = p.A.to_dense()
        r_p = A @ x - p.b
        r_d = A.T @ y + s - v - p.c
        r_u = x[:1] + w[:1] - p.u[:1]

        # unknowns: dx0 dx1 dy ds0 ds1 dw0 dv0
        def dense_solve(rhs_xs, rhs_wv):
            K = np.zeros((7, 7))
            r = np.zeros(7)
            K[0, 0:2] = A
            r[0] = -r_p[0]
            K[1, 2], K[1, 3], K[1, 6] = A[0, 0], 1.0, -1.0
            K[2, 2], K[2, 4] = A[0, 1], 1.0
            r[1:3] = -r_d
            K[3, 0], K[3, 5] = 1.0, 1.0
            r[3] = -r_u[0]
            K[4, 0], K[4, 3] = s[0], x[0]
            K[5, 1], K[5, 4] = s[1], x[1]
            r[4:6] = rhs_xs
            K[6, 5], K[6, 6] = v[0], w[0]
            r[6] = rhs_wv[0]
            sol = np.linalg.solve(K, r)
            return sol[0:2], sol[2:3], sol[3:5], sol[5:6], sol[6:7]

        mu = st.mu
        dxa, dya, dsa, dwa, dva = dense_solve(-x * s, -(w[:1] * v[:1]))

        def limit(z, dz):
            neg = dz < 0
            return min(1.0, float(np.min(-z[neg] / dz[neg])) if neg.any() else np.inf)

        ap = min(limit(x, dxa), limit(w[:1], dwa))
        ad = min(limit(s, dsa), limit(v[:1], dva))
        mu_aff = (
            float((x + ap * dxa) @ (s + ad * dsa))
            + float((w[:1] + ap * dwa) @ (v[:1] + ad * dva))
        ) / 3
        sigma = np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1 - 1e-8)
        dx, dy, ds, dw, dv = dense_solve(
            sigma * mu - x * s - dxa * dsa,
            sigma * mu - w[:1] * v[:1] - dwa * dva,
        )
        assert step.sigma == pytest.approx(sigma, rel=1e-10)
        assert_allclose(step.dx, dx, atol=1e-10)
        assert_allclose(step.dy, dy, atol=1e-10)
        assert_allclose(step.ds, ds, atol=1e-10)
        assert_allclose(step.dw[:1], dw, atol=1e-10)
        assert_allclose(step.dv[:1], dv, atol=1e-10)
