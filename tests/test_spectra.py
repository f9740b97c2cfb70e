import warnings

import numpy as np
import pytest

from lpipm import (
    DELAYED_SCALING,
    IterateState,
    PrimalConfig,
    SolveStatus,
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
        # the primal-dual normal matrix degenerates on the same tail; the
        # probe is a lower bound, so assert the contrast rather than a
        # particular magnitude
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
