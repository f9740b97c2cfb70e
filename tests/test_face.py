"""Termination by projection onto the optimal face: the helper alone, and
pd with it."""

import numpy as np
import pytest

import lpipm.mehrotra
from lpipm import (
    PdConfig,
    PrimalConfig,
    SolveStatus,
    SwitchPolicy,
    cholesky_factorize,
    form_normal_matrix,
    generate_instance,
    hybrid_solve,
    parse_mps,
    pd_solve,
    to_standard_form,
)
from lpipm.cli import run_cli
from lpipm.face import FaceProjection, face_partition, pcg_budget, project_onto_face
from lpipm.mehrotra import _scaling_sq
from conftest import standard_lp_from_dense


def _late_iterates(p):
    """The states after each pd iteration."""
    states = []
    res = pd_solve(p, PdConfig(), hook=lambda info: states.append(info.state.copy()) or False)
    assert res.status == SolveStatus.OPTIMAL
    return states


def _project(p, st, max_iter=50, face=None):
    d2 = _scaling_sq(st, p.bounded)
    factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2)))
    basic, at_upper = face_partition(p, st, d2) if face is None else face
    return project_onto_face(p, factor, d2, basic, at_upper, max_iter=max_iter, tol=1e-10)


def test_late_pd_iterate_projects_to_the_certificate_vertex():
    inst = generate_instance(60, 140, seed=1, density=4 / 60)
    p = to_standard_form(parse_mps(inst.mps_text))
    st = _late_iterates(p)[-3]
    d2 = _scaling_sq(st, p.bounded)
    basic, at_upper = face_partition(p, st, d2)
    assert np.flatnonzero(basic).tolist() == sorted(inst.certificate.basis)
    assert not at_upper.any()

    proj = _project(p, st)
    assert proj.state is not None
    assert 0 < proj.cg_iterations <= 2 * 50
    ref = inst.certificate.objective
    assert abs(p.objective_value(proj.state.x) - ref) <= 1e-12 * (1.0 + abs(ref))
    np.testing.assert_allclose(proj.state.x, inst.x_star, rtol=1e-10, atol=1e-12)
    assert np.all(proj.state.x[~basic] == 0.0)
    assert proj.state.mu == 0.0


def test_upper_bound_active_at_the_optimum():
    # min -x1 - x2 s.t. x1 + x2 + x3 = 3, x1 <= 1, x2 <= 1: x = (1, 1, 1),
    # with x1 and x2 at their upper bounds and y = 0, so v = (1, 1, 0)
    p = standard_lp_from_dense(
        [[1.0, 1.0, 1.0]], [3.0], [-1.0, -1.0, 0.0], u=[1.0, 1.0, np.inf]
    )
    st = _late_iterates(p)[-1]
    d2 = _scaling_sq(st, p.bounded)
    basic, at_upper = face_partition(p, st, d2)
    assert basic.tolist() == [False, False, True]
    assert at_upper.tolist() == [True, True, False]

    proj = _project(p, st)
    assert proj.state is not None
    x, v = proj.state.x, proj.state.v
    np.testing.assert_array_equal(x[at_upper], p.u[at_upper])
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0], rtol=1e-12)
    assert np.all(v[at_upper] > 0.0)
    np.testing.assert_allclose(v, [1.0, 1.0, 0.0], atol=1e-12)
    assert np.all(proj.state.w[at_upper] == 0.0)
    assert np.all(proj.state.s[at_upper] == 0.0)


def test_rank_deficient_face_is_rejected():
    # columns 0 and 1 are parallel: A D_B^2 A^T is singular on B = {0, 1}
    p = standard_lp_from_dense(
        [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]], [1.0, 3.0], [1.0, 1.0, 1.0]
    )
    st = lpipm.mehrotra.pd_starting_point(p)
    face = (np.array([True, True, False]), np.zeros(3, dtype=bool))
    proj = _project(p, st, face=face)
    assert proj.state is None
    assert proj.cg_iterations >= 1  # the run that broke down counts


def test_nonpositive_basic_value_is_rejected(monkeypatch):
    # x_B = A_B^-1 b = -1 on B = {1}: rejected before the dual system is solved
    p = standard_lp_from_dense([[1.0, -1.0]], [1.0], [1.0, 1.0])
    st = lpipm.mehrotra.pd_starting_point(p)
    monkeypatch.setattr(
        lpipm.face, "convergence_metrics",
        lambda *args: pytest.fail("a point with x_B <= 0 reached the metrics"),
    )
    face = (np.array([False, True]), np.zeros(2, dtype=bool))
    proj = _project(p, st, face=face)
    assert proj == FaceProjection(None, 1)


@pytest.fixture(scope="module")
def gated_lp():
    # sparse fill, 4 nonzeros per column: A D^2 A^T takes no round of
    # elimination (the first would save 1.92e7 flops net of its gathers,
    # below MIN_SAVED_FLOPS), and the PCG budget is 12 per face solve
    inst = generate_instance(600, 1320, 7, density=4 / 600)
    return inst, to_standard_form(parse_mps(inst.mps_text))


def test_budget_gate(gated_lp):
    """Only the LP with the large, sparse factor affords a try."""
    def budget(p):
        factor = cholesky_factorize(form_normal_matrix(p.A, np.ones(p.ncols)))
        return pcg_budget(factor, p.A.nnz)

    def planted(*args, **kw):
        return to_standard_form(parse_mps(generate_instance(*args, **kw).mps_text))

    assert budget(gated_lp[1]) == 12
    # acceptance criterion 9's dense 150x320 family and the hybrid tests' LP
    assert budget(planted(150, 320, 301, density=1.0, spread=3.0)) < lpipm.face.MIN_PCG_BUDGET
    assert budget(planted(40, 100, seed=11)) < lpipm.face.MIN_PCG_BUDGET


def test_pd_ends_by_projection_with_fewer_factorizations(gated_lp, monkeypatch):
    inst, p = gated_lp
    ref = inst.certificate.objective
    res = pd_solve(p, PdConfig())
    assert res.status == SolveStatus.OPTIMAL
    assert res.message.startswith("ended by projection onto the face of 600 columns after ")
    assert res.message.endswith(f" {res.cg_iterations} PCG iterations")
    assert abs(p.original_objective(res.x) - ref) <= 1e-8 * (1.0 + abs(ref))
    assert max(res.e_p, res.e_d, res.e_g) <= 1e-10

    monkeypatch.setattr(
        lpipm.mehrotra, "project_onto_face", lambda *args, **kw: FaceProjection(None, 0)
    )
    rejected = pd_solve(p, PdConfig())
    assert rejected.status == SolveStatus.OPTIMAL
    assert rejected.message == ""
    assert res.factorizations < rejected.factorizations
    assert res.iterations < rejected.iterations


def test_cli_prints_how_pd_ended(gated_lp, tmp_path, capsys):
    inst, _ = gated_lp
    path = tmp_path / "gated.mps"
    path.write_text(inst.mps_text)
    assert run_cli(["solve", str(path), "--algorithm", "pd"]) == 0
    status, message = capsys.readouterr().out.strip().splitlines()
    assert status.startswith("status=Optimal ")
    cg = int(status.split("cg_iterations=")[1].split()[0])
    assert cg > 0
    assert message == f"ended by projection onto the face of 600 columns after {cg} PCG iterations"


def test_small_lp_never_tries(monkeypatch):
    """Below the budget gate pd and the hybrid never call the helper."""
    inst = generate_instance(40, 100, seed=11)
    p = to_standard_form(parse_mps(inst.mps_text))

    def never(*args, **kwargs):
        raise AssertionError("projection tried below the budget gate")

    monkeypatch.setattr(lpipm.mehrotra, "project_onto_face", never)
    assert pd_solve(p, PdConfig()).status == SolveStatus.OPTIMAL
    for min_pcg_budget in (10**9, 0):
        res = hybrid_solve(
            p, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            SwitchPolicy(min_pcg_budget=min_pcg_budget),
        )
        assert res.status == SolveStatus.OPTIMAL
