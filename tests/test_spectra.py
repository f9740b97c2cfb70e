import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from lpipm import (
    DELAYED_SCALING,
    EXACT,
    IterateState,
    PrimalConfig,
    SolveStatus,
    SparseMatrix,
    StandardLp,
    bound_scaling_diag,
    generate_instance,
    parse_mps,
    pd_starting_point,
    primal_solve,
    probe_spectra,
    spectra_csv,
    to_standard_form,
)
from conftest import standard_lp_from_dense


class TestProbeSpectra:
    def test_identical_iterates_kappa_one(self):
        inst = generate_instance(6, 15, seed=21)
        std = to_standard_form(parse_mps(inst.mps_text))
        st = pd_starting_point(std)
        rows = probe_spectra(std, [st, st, st])
        for r in rows:
            assert abs(r.kappa_reuse - 1.0) <= 1e-8

    def test_converged_tail_kappa_small_and_pd_kappa_blows_up(self):
        inst = generate_instance(15, 40, seed=22)
        std = to_standard_form(parse_mps(inst.mps_text))
        cfg = PrimalConfig(
            tau=0.28, max_iter=100, mode=DELAYED_SCALING, tol=1e-10, cg_tol=1e-12
        )
        res = primal_solve(std, cfg, pd_starting_point(std), collect_iterates=True)
        assert res.status == SolveStatus.OPTIMAL
        window = res.iterates[-5:]
        rows = probe_spectra(std, window)
        for r in rows:
            assert r.kappa_reuse <= 9.0 * 1.05
        # the primal-dual normal matrix degenerates on the same tail
        assert rows[-1].kappa_pd > 100.0 * rows[-1].kappa_reuse

    def test_csv_output_shape(self):
        inst = generate_instance(5, 12, seed=23)
        std = to_standard_form(parse_mps(inst.mps_text))
        st = pd_starting_point(std)
        text = spectra_csv(probe_spectra(std, [st, st]))
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,kappa_reuse,kappa_pd"
        assert len(lines) == 3

    def test_kappa_pd_stays_finite_past_the_eigenvalue_floor(self):
        # B = A diag(sqrt(x/s)) has rows (1, 1, 0) and (1, 1, 1e-8): B B^T
        # has eigenvalues ~4 and det/4 = 5e-17, below rounding of 4, so
        # its computed smallest eigenvalue is <= 0; B's singular values
        # still give kappa = 16 / det(B B^T) = 8e16
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        p = standard_lp_from_dense(A, A @ np.ones(3), np.ones(3))
        st = IterateState(
            x=np.array([1.0, 1.0, 1e-8]), y=np.zeros(2),
            s=np.array([1.0, 1.0, 1e8]), mu=1.0, w=np.zeros(3), v=np.zeros(3),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = probe_spectra(p, [st])
        assert row.kappa_pd == pytest.approx(8e16, rel=1e-6)

    def test_kappa_reuse_is_the_pencils_exact_kappa(self):
        # the exact kappa reaches 8162 here; a 30-step Lanczos lower bound
        # stops near 2055
        inst = generate_instance(150, 320, 301, density=1.0, spread=3.0)
        std = to_standard_form(parse_mps(inst.mps_text))
        cfg = PrimalConfig(tau=0.28, mode=DELAYED_SCALING, cg_tol=1e-12)
        res = primal_solve(std, cfg, pd_starting_point(std), collect_iterates=True)
        window = res.iterates[-15:]
        A = std.A.to_dense()

        def normal(st):
            B = A * bound_scaling_diag(st.x, std.u)
            return B @ B.T

        M0 = normal(window[0])
        for row, st in zip(probe_spectra(std, window), window):
            ev = sla.eigh(normal(st), M0, eigvals_only=True)
            assert row.kappa_reuse == pytest.approx(ev[-1] / ev[0], rel=1e-6)

    def test_kappa_reuse_stays_finite_on_a_degenerate_path(self):
        # the whole path of `lpipm probe --tau 0.28 --window 200`; the exact
        # kappa reaches 1.7e19 here, and an estimate that divides by a
        # floored smallest eigenvalue reads 1.6e308
        inst = generate_instance(30, 70, 1, degenerate=True, density=1.0, spread=3.0)
        std = to_standard_form(parse_mps(inst.mps_text))
        cfg = PrimalConfig(tau=0.28, max_iter=200, tol=1e-8, mode=EXACT)
        res = primal_solve(std, cfg, pd_starting_point(std), collect_iterates=True)
        rows = probe_spectra(std, res.iterates[-200:])
        assert len(rows) == len(res.iterates) > 50
        assert all(np.isfinite(r.kappa_reuse) and r.kappa_reuse < 1e300 for r in rows)

    @pytest.mark.parametrize("extra_row", ["repeat", "zero"])
    def test_dependent_rows_leave_both_columns_unchanged(self, extra_row):
        # `generate 20 50 --seed 3` with its first row repeated read
        # kappa_reuse 2e31-8e32 and kappa_pd 7e47-1e50, rounding noise of a
        # singular pencil, where its twin reads 1.0000000-1.0000002 and
        # 425.9; with a zero row the anchor's QR was singular and raised
        inst = generate_instance(20, 50, seed=3)
        std = to_standard_form(parse_mps(inst.mps_text))
        res = primal_solve(std, PrimalConfig(tau=0.28, mode=EXACT), pd_starting_point(std),
                           collect_iterates=True)
        window = res.iterates[-5:]
        A = std.A.to_dense()
        row, rhs = (A[0], std.b[0]) if extra_row == "repeat" else (np.zeros(std.ncols), 0.0)
        dependent = StandardLp(
            A=SparseMatrix.from_dense(np.vstack([A, row])), b=np.append(std.b, rhs),
            c=std.c, u=std.u, recovery=std.recovery,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = probe_spectra(dependent, window)
        for mine, twin in zip(got, probe_spectra(std, window), strict=True):
            assert mine.kappa_reuse == pytest.approx(twin.kappa_reuse, rel=1e-6)
            assert mine.kappa_pd == pytest.approx(twin.kappa_pd, rel=1e-6)
