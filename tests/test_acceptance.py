"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line at its stated tolerance."""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import lpipm as L
from lpipm import SolveStatus
from conftest import (
    dense_primal_direction,
    dense_projection,
    dense_proximity,
    random_full_rank,
    standard_lp_from_dense,
    tiny_central_x1,
)
from test_primal import direction_at_x


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def _exact_solver(p, x):
    return L.cholesky_factorize(L.form_normal_matrix(p.A, x)).solve


def _planted_std(m, n, seed, **kw):
    inst = L.generate_instance(m, n, seed=seed, **kw)
    std = L.to_standard_form(L.parse_mps(inst.mps_text))
    return inst, std


def test_criterion_01_closed_form_central_path():
    t0 = time.perf_counter()
    p = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])
    mu0 = 1.0
    x1 = tiny_central_x1(mu0)
    start = L.IterateState(
        x=np.array([x1, 2.0 - x1]), y=np.zeros(1), s=p.c.copy(), mu=mu0,
        w=np.zeros(2), v=np.zeros(2),
    )
    cfg = L.PrimalConfig(tau=0.05, max_iter=600, mode=L.EXACT, tol=1e-10)
    trace = L.TraceLog()
    res = L.primal_solve(p, cfg, start, trace_log=trace, collect_iterates=True)
    ok = res.status == SolveStatus.OPTIMAL
    ok &= max(res.e_p, res.e_d, res.e_g) <= 1e-10
    ok &= abs(res.objective) <= 1e-9
    deltas = []
    for rec, it in zip(trace, res.iterates):
        # rec.delta is the engine's own proximity at (x_k, mu_k) before
        # the step recorded on this row; it.x is the iterate after it
        ok &= rec.delta is not None and rec.delta <= 0.5
        deltas.append(rec.delta)
        ref = tiny_central_x1(it.mu)
        tol = 10.0 * rec.delta * max(ref, it.mu) + 1e-6  # proximity-consistent envelope
        ok &= abs(it.x[0] - ref) <= tol
    wall = time.perf_counter() - t0
    ok &= wall < 1.0
    _report(1, "closed-form central path tracking", ok,
            f"iters={res.iterations} max_delta={max(deltas):.3f} wall={wall:.2f}s")


def test_criterion_02_projection_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(m + 1, 61))
        A = random_full_rank(rng, m, n)
        p = standard_lp_from_dense(A, rng.standard_normal(m), rng.standard_normal(n))
        x = rng.uniform(0.1, 4.0, n)
        mu = rng.uniform(0.05, 3.0)
        d = direction_at_x(p, x, mu, _exact_solver(p, x))
        delta, dx = d.delta, d.dx
        delta_ref = dense_proximity(A, x, p.c, mu)
        dx_ref = dense_primal_direction(A, x, p.c, mu)
        worst = max(worst, abs(delta - delta_ref) / (1.0 + delta_ref))
        worst = max(worst, np.linalg.norm(dx - dx_ref) / (1.0 + np.linalg.norm(dx_ref)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and wall < 10.0
    _report(2, "projection oracle equivalence", ok,
            f"worst_rel={worst:.2e} wall={wall:.2f}s")


def test_criterion_03_euclidean_ball_conditioning():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(m + 1, 61))
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.2, 5.0, n)
        M_x = A @ np.diag(x**2) @ A.T
        lam = np.linalg.eigvalsh(M_x).min()
        norm_A = np.linalg.norm(A, 2)
        for beta in (0.1, 0.3, 0.5):
            step = rng.standard_normal(n)
            step *= beta * np.sqrt(lam) / norm_A / np.linalg.norm(step)
            M_w = A @ np.diag((x + step) ** 2) @ A.T
            ev = sla.eigh(M_w, M_x, eigvals_only=True)
            ok &= ev.min() >= (1 - beta) ** 2 - 1e-9
            ok &= ev.max() <= (1 + beta) ** 2 + 1e-9
    wall = time.perf_counter() - t0
    ok &= wall < 30.0
    _report(3, "Euclidean-ball conditioning property suite", ok, f"wall={wall:.2f}s")


def test_criterion_04_shifted_scaling_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(m + 1, 51))
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.2, 5.0, n)
        beta = rng.uniform(1e-3, 0.25)
        step = rng.standard_normal(n)
        step *= beta / np.linalg.norm(step / x)
        w = x + step
        P_ax = dense_projection(A * x[np.newaxis, :])
        P_aw = dense_projection(A * w[np.newaxis, :])
        S = np.diag(w / x) @ P_aw @ np.diag(w / x) - P_ax
        V = rng.standard_normal((n, 200))
        lhs = np.linalg.norm(S @ V, axis=0)
        rhs = 3.0 * beta * np.linalg.norm(P_ax @ V, axis=0) + 1e-9
        ok &= bool(np.all(lhs <= rhs))
    wall = time.perf_counter() - t0
    ok &= wall < 60.0
    _report(4, "shifted-scaling surrogate inequality suite", ok, f"wall={wall:.2f}s")


def test_criterion_05_delayed_direction_error_bound():
    from test_primal import _delayed_bound_setup, pcg_direction

    rng = np.random.default_rng(104)
    ok = True
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(2 * m, 45))
        p, x, z, mu, dist = _delayed_bound_setup(rng, m, n)
        w = L.delayed_scaling_point(x, z, 1.0)
        cache = L.refresh_cache(p, z)
        dx, solver = pcg_direction(p, x, w, mu, cache, 1e-13, cg_max_iter=1000)
        ok &= solver.converged
        delta = direction_at_x(p, x, mu, _exact_solver(p, x)).delta
        ref = dense_primal_direction(p.A.to_dense(), x, p.c, mu)
        err = float(np.linalg.norm((dx - ref) / x))
        bound = 6.0 * delta * dist + 1e-9
        worst = max(worst, err / bound if bound > 0 else 0.0)
        ok &= err <= bound
    _report(5, "delayed-scaling direction error bound", ok,
            f"worst err/bound={worst:.3f}")


def test_criterion_06_preconditioner_reuse_regime():
    ok = True
    details = []
    for seed in (201, 202, 203):
        inst, std = _planted_std(25, 60, seed)
        cfg = L.PrimalConfig(tau=0.28, max_iter=100, mode=L.DELAYED_SCALING,
                             tol=1e-10, cg_tol=1e-12)
        res = L.primal_solve(std, cfg, L.pd_starting_point(std),
                             collect_iterates=True)
        ok &= res.status == SolveStatus.OPTIMAL and res.e_g <= 1e-8
        window = res.iterates[-5:]
        rows = L.probe_spectra(std, window, anchor=0)
        kmax = max(r.kappa_reuse for r in rows)
        ok &= kmax <= 9.0 * 1.05
        # frozen-preconditioner CG on the window systems
        anchor = L.cholesky_factorize(
            L.form_normal_matrix(std.A, window[0].x)
        )
        rng = np.random.default_rng(seed)
        cg_worst = 0
        for it in window:
            d_sq = it.x**2
            rhs = rng.standard_normal(std.nrows)
            out = L.pcg_solve(lambda v: std.A.matvec(d_sq * std.A.rmatvec(v)), anchor, rhs,
                              1e-12, 60)
            ok &= out.converged and out.iterations <= 40
            cg_worst = max(cg_worst, out.iterations)
        details.append(f"seed{seed}: kappa<={kmax:.3f} cg<={cg_worst}")
    _report(6, "preconditioner reuse regime (kappa <= 9)", ok, "; ".join(details))


def test_criterion_07_feasibility_repair_with_loose_pcg():
    rng = np.random.default_rng(105)
    ok = True
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 15))
        n = int(rng.integers(m + 2, 50))
        A = random_full_rank(rng, m, n)
        x0 = rng.uniform(0.5, 2.0, n)
        p = standard_lp_from_dense(A, A @ x0, rng.standard_normal(n))
        x = rng.uniform(0.2, 3.0, n)
        mu = rng.uniform(0.1, 1.0)
        z = x * rng.uniform(0.9, 1.1, n)
        cache = L.refresh_cache(p, z)
        v = x * p.c / mu - 1.0
        rhs = p.A.matvec(x * v)
        out = L.pcg_solve(
            lambda t: p.A.matvec(x**2 * p.A.rmatvec(t)), cache.factor, rhs,
            1e-4, 200,
        )
        dx_raw = -(x * v) + x**2 * p.A.rmatvec(out.solution)
        zeta = p.A.matvec(dx_raw)
        aat = L.cholesky_factorize(L.form_normal_matrix(p.A, np.ones(n)))
        dx = L.feasibility_repair(p, dx_raw, zeta=zeta, aat_factor=aat)
        bound = 1e-10 * (1.0 + np.linalg.norm(zeta) + np.abs(p.b).max())
        resid = float(np.linalg.norm(p.A.matvec(dx)))
        worst = max(worst, resid / bound)
        ok &= resid <= bound
    _report(7, "feasibility repair under loose PCG", ok, f"worst ratio={worst:.3f}")


def test_criterion_08_end_to_end_parity():
    t0 = time.perf_counter()
    sizes = [(20, 50), (50, 120), (80, 200), (120, 300), (200, 500)]
    ok = True
    lines = []
    count = 0
    for m, n in sizes:
        for seed in (1, 2, 3, 4):
            count += 1
            inst, std = _planted_std(m, n, seed)
            ref = inst.certificate.objective
            results = {}
            results["pd"] = L.pd_solve(std, L.PdConfig(max_iter=100, tol=1e-10))
            cfg = L.PrimalConfig(tau=0.28, max_iter=100, mode=L.DELAYED_SCALING,
                                 tol=1e-10, cg_tol=1e-12)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results["primal"] = L.primal_solve(std, cfg, L.pd_starting_point(std))
                results["hybrid"] = L.hybrid_solve(
                    std, L.PdConfig(max_iter=100, tol=1e-10), cfg,
                    L.SwitchPolicy(min_pcg_budget=0),
                )
            for name, res in results.items():
                good = (
                    res.status == SolveStatus.OPTIMAL
                    and res.iterations <= 100
                    and max(res.e_p, res.e_d, res.e_g) <= 1e-10
                    and abs(res.objective - ref) <= 1e-8 * (1 + abs(ref))
                )
                if not good:
                    lines.append(
                        f"{name} {m}x{n} s{seed}: status={res.status} "
                        f"it={res.iterations} met={max(res.e_p, res.e_d, res.e_g):.1e}"
                    )
                ok &= good
    wall = time.perf_counter() - t0
    ok &= wall < 120.0
    _report(8, "end-to-end parity on planted instances", ok,
            f"{count} instances, wall={wall:.1f}s" + ("; " + "; ".join(lines) if lines else ""))


def test_criterion_09_hybrid_factorization_savings():
    ok = True
    details = []
    for seed in (301, 302, 303):
        inst, std = _planted_std(150, 320, seed, density=1.0, spread=3.0)
        pd_res = L.pd_solve(std, L.PdConfig(max_iter=100, tol=1e-10))
        cfg = L.PrimalConfig(tau=0.28, max_iter=100, mode=L.DELAYED_SCALING,
                             tol=1e-10, cg_tol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hyb = L.hybrid_solve(
                std, L.PdConfig(max_iter=100, tol=1e-10), cfg,
                L.SwitchPolicy(min_pcg_budget=0),
            )
        stats = hyb.phase_stats
        good = (
            pd_res.status == SolveStatus.OPTIMAL
            and hyb.status == SolveStatus.OPTIMAL
            and stats["switch_iteration"] is not None
            and stats["primal_factorizations"] < stats["primal_iterations"]
            and hyb.factorizations < pd_res.factorizations
        )
        details.append(
            f"seed{seed}: pd_facts={pd_res.factorizations} "
            f"hybrid_facts={hyb.factorizations} "
            f"post_switch={stats['primal_factorizations']}/{stats['primal_iterations']}"
        )
        ok &= good
    _report(9, "hybrid factorization savings on tail-heavy family", ok,
            "; ".join(details))


def test_criterion_10_mixed_magnitude_distance_example():
    x = np.array([1e10 - 1e5, 1e-10])
    z = np.array([1e10, 1e-5])
    d = L.thresholded_distance(x, z, x, 1.0)
    euclid = float(np.linalg.norm(x - z))
    scaled = float(np.linalg.norm((x - z) / x))
    ok = abs(d - 1.4142e-5) <= 0.01 * 1.4142e-5
    ok &= euclid > 1e4 and scaled > 1e4
    _report(10, "mixed-magnitude distance example", ok,
            f"thresholded={d:.5e} euclid={euclid:.2e} scaled={scaled:.2e}")


def test_criterion_11_infeasible_feasible_step_equivalence():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(m + 1, 50))
        A = random_full_rank(rng, m, n)
        x = rng.uniform(0.3, 3.0, n)
        y = rng.standard_normal(m)
        s = rng.uniform(0.3, 3.0, n)
        p = standard_lp_from_dense(A, A @ x, A.T @ y + s)  # r_p = r_d = 0
        mu = rng.uniform(0.1, 2.0)
        solver = _exact_solver(p, x)
        r_p = p.A.matvec(x) - p.b  # rounding level
        dx_inf = L.projected_direction(p, x, x, mu, y, solver, r_p).dx
        dx_dir = direction_at_x(p, x, mu, solver).dx
        err = np.linalg.norm(dx_inf - dx_dir) / (1.0 + np.linalg.norm(dx_dir))
        worst = max(worst, err)
        ok &= err <= 1e-9
    _report(11, "infeasible/feasible step equivalence", ok, f"worst={worst:.2e}")
