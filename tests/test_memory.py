"""Peak memory of set-up and of the engines.

numpy reports its array buffers to ``tracemalloc``, so the traced peak
above the level at entry counts every array and string a call makes.

Every factorization lives in one m x m array, built after the previous
factor is released: two m x m arrays alive at once, an old factor beside
a new one or a copy made for LAPACK, put the peak of a solve above
2 x 8m² bytes.  Set-up splits the MPS text into lines one block at a
time and copies ``A`` once on its way to the standard form: the lines of
the whole text, or a chain of copies of ``A``, put its peak above twice
the text.
"""

import tracemalloc

import pytest

from lpipm import (
    DELAYED_SCALING,
    PdConfig,
    PrimalConfig,
    SolveStatus,
    generate_instance,
    parse_mps,
    pd_solve,
    pd_starting_point,
    primal_solve,
    to_standard_form,
)

# one m x m array plus the vectors and sparse products of the solve
PEAK_BOUND = 1.5


@pytest.fixture(scope="module")
def wide_lp():
    # sparse fill, 4 nonzeros per column: A D^2 A^T is assembled sparse
    gen = generate_instance(600, 1320, 7, density=4 / 600)
    return to_standard_form(parse_mps(gen.mps_text))


def _traced_peak(run):
    """The result of ``run()`` and its traced peak above the level at entry."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def test_pd_holds_one_factorization(wide_lp):
    m = wide_lp.nrows
    result, peak = _traced_peak(lambda: pd_solve(wide_lp, PdConfig()))
    assert result.status == SolveStatus.OPTIMAL
    assert peak <= PEAK_BOUND * 8 * m * m, f"peak {peak / (8 * m * m):.2f} x 8m²"


def test_delayed_primal_holds_one_factorization(wide_lp):
    m = wide_lp.nrows
    start = pd_starting_point(wide_lp)
    cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=DELAYED_SCALING)
    result, peak = _traced_peak(lambda: primal_solve(wide_lp, cfg, start))
    assert result.status == SolveStatus.OPTIMAL
    assert result.factorizations > 1  # the cache was refreshed
    assert peak <= PEAK_BOUND * 8 * m * m, f"peak {peak / (8 * m * m):.2f} x 8m²"


def test_setup_holds_the_text_about_once():
    # the benchmark's dense_tail size: 177k lines, 6.3 MB of text
    text = generate_instance(280, 630, 7, density=1.0, spread=3).mps_text
    std, peak = _traced_peak(lambda: to_standard_form(parse_mps(text)))
    assert std.A.shape == (280, 630)
    assert peak <= 2 * len(text), f"peak {peak / len(text):.2f} x the text"
