import numpy as np
import pytest

from lpipm import (
    PdConfig,
    SolveStatus,
    generate_instance,
    parse_certificate,
    parse_mps,
    pd_solve,
    to_standard_form,
)


class TestGenerator:
    def test_planted_objective_consistent(self):
        inst = generate_instance(1, 2, seed=0)
        assert inst.certificate.objective == pytest.approx(
            float(inst.c @ inst.x_star), rel=1e-15
        )
        assert np.allclose(inst.A @ inst.x_star, inst.b)

    def test_strict_complementarity_nondegenerate(self):
        inst = generate_instance(10, 25, seed=1)
        cert = inst.certificate
        assert len(cert.basis) == 10
        assert set(cert.basis) | set(cert.dual_support) == set(range(25))
        assert not set(cert.basis) & set(cert.dual_support)
        assert np.all(inst.x_star[list(cert.basis)] > 0)
        assert np.all(inst.s_star[list(cert.dual_support)] > 0)

    def test_degenerate_flag_shrinks_basis(self):
        inst = generate_instance(10, 25, seed=1, degenerate=True)
        assert len(inst.certificate.basis) < 10

    def test_same_seed_byte_identical(self):
        a = generate_instance(6, 15, seed=42)
        b = generate_instance(6, 15, seed=42)
        assert a.mps_text == b.mps_text
        assert a.certificate_text == b.certificate_text

    def test_different_seed_differs(self):
        a = generate_instance(6, 15, seed=1)
        b = generate_instance(6, 15, seed=2)
        assert a.mps_text != b.mps_text

    def test_certificate_round_trip(self):
        inst = generate_instance(5, 12, seed=7, degenerate=True)
        cert = parse_certificate(inst.certificate_text)
        assert cert == inst.certificate

    def test_mps_round_trip_is_solvable(self):
        inst = generate_instance(8, 20, seed=9)
        std = to_standard_form(parse_mps(inst.mps_text))
        assert std.nrows == 8 and std.ncols == 20
        # the parsed data reproduces the generated matrices exactly
        assert np.array_equal(std.A.to_dense(), inst.A)
        assert np.array_equal(std.b, inst.b)
        assert np.array_equal(std.c, inst.c)
        res = pd_solve(std, PdConfig())
        assert res.status == SolveStatus.OPTIMAL
        ref = inst.certificate.objective
        assert abs(res.objective - ref) <= 1e-8 * (1 + abs(ref))

    def test_requires_m_below_n(self):
        for m, n in ((5, 5), (0, 5), (-1, 5)):
            with pytest.raises(ValueError):
                generate_instance(m, n, seed=0)

    def test_rank_deficient_draws_raise(self):
        # one entry per column: 11 columns rarely reach all 10 rows, so
        # every one of the 5 draws of this seed lacks full row rank
        with pytest.raises(ValueError, match="could not draw"):
            generate_instance(10, 11, seed=0, density=0.01)

    @pytest.mark.parametrize("field, value", [
        ("density", 0.0), ("density", -3.0), ("density", np.nan), ("density", np.inf),
        ("spread", -2.0), ("spread", np.nan), ("spread", np.inf),
    ])
    def test_rejects_out_of_range_shape(self, field, value):
        # density -3 used to draw one entry per column, density nan to fail
        # converting to an integer, and spread -2 to act as 0
        with pytest.raises(ValueError, match=field):
            generate_instance(6, 15, seed=0, **{field: value})

    def test_dense_and_spread_options(self):
        inst = generate_instance(10, 24, seed=3, density=1.0, spread=3.0)
        assert np.count_nonzero(inst.A) == 240  # fully dense
        basics = inst.x_star[inst.x_star > 0]
        assert basics.max() / basics.min() > 10.0
