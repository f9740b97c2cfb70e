import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lpipm.mps
from lpipm import LpProblem, ParseError, SparseMatrix, generate_instance, parse_mps, write_mps

MINIMAL = """NAME          TOY
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  1.0  R1  1.0
    X2  R1  1.0
RHS
    RHS  R1  2.0
ENDATA
"""


class TestParse:
    def test_minimal_equality(self):
        p = parse_mps(MINIMAL)
        assert p.name == "TOY"
        assert p.nrows == 1 and p.ncols == 2
        assert p.row_types["R1"] == "E"
        assert p.objective == {"X1": 1.0}
        assert p.A.to_dense().tolist() == [[1.0, 1.0]]
        assert p.rhs["R1"] == 2.0

    def test_missing_endata(self):
        with pytest.raises(ParseError):
            parse_mps(MINIMAL.replace("ENDATA\n", ""))

    def test_missing_objective_names_the_last_line(self):
        text = MINIMAL.replace(" N  COST\n", "").replace("COST  1.0  ", "") + "* after\n\n"
        with pytest.raises(ParseError, match="no objective") as err:
            parse_mps(text)
        assert err.value.line == len(text.splitlines()) == 11

    def test_up_bound(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n UP BND  X1  5.0\nENDATA")
        p = parse_mps(text)
        assert p.bounds_of("X1") == (0.0, 5.0)
        assert p.bounds_of("X2") == (0.0, np.inf)

    def test_bound_keys(self):
        text = MINIMAL.replace(
            "ENDATA",
            "BOUNDS\n LO BND  X1  1.0\n UP BND  X1  4.0\n FR BND  X2\nENDATA",
        )
        p = parse_mps(text)
        assert p.bounds_of("X1") == (1.0, 4.0)
        lo, up = p.bounds_of("X2")
        assert np.isneginf(lo) and np.isposinf(up)

    def test_fx_and_mi(self):
        text = MINIMAL.replace(
            "ENDATA", "BOUNDS\n FX BND  X1  2.5\n MI BND  X2\nENDATA"
        )
        p = parse_mps(text)
        assert p.bounds_of("X1") == (2.5, 2.5)
        assert np.isneginf(p.bounds_of("X2")[0])

    def test_negative_up_frees_lower(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n UP BND  X1  -1.0\nENDATA")
        p = parse_mps(text)
        lo, up = p.bounds_of("X1")
        assert np.isneginf(lo) and up == -1.0

    def test_unknown_bound_key_rejected(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n XX BND  X1  5.0\nENDATA")
        with pytest.raises(ParseError):
            parse_mps(text)

    def test_undeclared_row_reference(self):
        bad = MINIMAL.replace("R1  1.0\n    X2", "R9  1.0\n    X2")
        with pytest.raises(ParseError) as err:
            parse_mps(bad)
        assert err.value.line is not None

    def test_non_numeric_field(self):
        bad = MINIMAL.replace("RHS  R1  2.0", "RHS  R1  abc")
        with pytest.raises(ParseError):
            parse_mps(bad)

    def test_duplicates_summed(self):
        text = MINIMAL.replace(
            "    X1  COST  1.0  R1  1.0", "    X1  COST  1.0  R1  1.0\n    X1  R1  0.5"
        )
        p = parse_mps(text)
        assert p.A.nnz == 2
        assert p.A.to_dense().tolist() == [[1.5, 1.0]]

    def test_comments_and_blank_lines(self):
        text = "* header comment\n" + MINIMAL.replace(
            "COLUMNS", "COLUMNS\n* a comment inside\n"
        )
        p = parse_mps(text)
        assert p.ncols == 2

    def test_objsense_max(self):
        text = MINIMAL.replace("ROWS", "OBJSENSE\n    MAX\nROWS")
        assert parse_mps(text).sense == "max"

    def test_ranges(self):
        text = MINIMAL.replace(" E  R1", " L  R1").replace(
            "ENDATA", "RANGES\n    RNG  R1  1.5\nENDATA"
        )
        p = parse_mps(text)
        assert p.ranges["R1"] == 1.5

    def test_marker_lines_ignored(self):
        text = MINIMAL.replace(
            "COLUMNS",
            "COLUMNS\n    MARKER  'MARKER'  'INTORG'",
        ).replace("    X2", "    MARKER  'MARKER'  'INTEND'\n    X2")
        p = parse_mps(text)
        assert p.ncols == 2

    def test_fixed_format_with_tabs_and_bytes(self):
        p = parse_mps(MINIMAL.replace("    ", "\t").encode())
        assert p.ncols == 2

    def test_other_source_types_rejected(self):
        with pytest.raises(TypeError, match="list"):
            parse_mps(MINIMAL.splitlines(keepends=True))

    def test_free_row_entries_dropped(self):
        text = MINIMAL.replace(" N  COST", " N  COST\n N  FREE").replace(
            "    X2  R1  1.0", "    X2  R1  1.0  FREE  9.0"
        )
        p = parse_mps(text)
        assert p.nrows == 1  # FREE is not a constraint row


class TestWrite:
    def test_round_trip_values_exact(self):
        p = parse_mps(MINIMAL)
        p.objective["X1"] = 0.1 + 0.2  # value without a short decimal form
        text = write_mps(p)
        p2 = parse_mps(text)
        assert p2.objective["X1"] == p.objective["X1"]
        assert p2.rhs["R1"] == p.rhs["R1"]

    def test_bounds_round_trip(self):
        p = LpProblem(name="B")
        p.objective_name = "COST"
        p.row_names = ["R1"]
        p.row_types = {"R1": "E"}
        p.col_names = ["A", "B", "C"]
        p.A = SparseMatrix.from_dense([[1.0, 1.0, 1.0]])
        p.rhs = {"R1": 1.0}
        p.lower = {"B": -np.inf}
        p.upper = {"A": 2.0, "B": np.inf}
        p.lower["C"] = 0.5
        p.upper["C"] = 0.5
        p2 = parse_mps(write_mps(p))
        assert p2.bounds_of("A") == (0.0, 2.0)
        assert np.isneginf(p2.bounds_of("B")[0])
        assert p2.bounds_of("C") == (0.5, 0.5)


COLUMNS_FIXTURE = """NAME          FIX
ROWS
 N  COST
 N  FREE
 E  R1
 L  R2
 G  R3
COLUMNS
    X1  COST  1.0  R1  2.0
    X2  R2  3.0  R3  4.0
* comment inside the section
    MARKER  'MARKER'  'INTORG'
    X3  R1  5.0  FREE  7.0
    X1  R3  -1.0
  * an indented comment
    MARKER  'marker'  'INTEND'
    X2  R2  0.5  COST  -2.0
    X1  R1  0.25
RHS
    RHS  R1  1.0
ENDATA
"""


class TestColumns:
    @pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
    def test_fixture_matrix_exact(self, monkeypatch, chunk):
        # two pairs per line, comments, markers, a free-row entry, the
        # duplicate (R2, X2) and X1 split over three lines, read in
        # chunks of every size down to one line
        monkeypatch.setattr(lpipm.mps, "_CHUNK_LINES", chunk)
        p = parse_mps(COLUMNS_FIXTURE)
        assert p.col_names == ["X1", "X2", "X3"]
        assert p.objective == {"X1": 1.0, "X2": -2.0}
        assert p.A.shape == (3, 3)
        assert p.A.col_ptr.tolist() == [0, 2, 4, 5]
        assert p.A.row_idx.tolist() == [0, 2, 1, 2, 0]
        assert p.A.values.tolist() == [2.25, -1.0, 3.5, 4.0, 5.0]

    @pytest.fixture(scope="class")
    def big(self):
        """A generated dense instance whose COLUMNS section spans
        several reading chunks."""
        inst = generate_instance(40, 150, seed=3, density=1.0)
        lines = inst.mps_text.splitlines()
        assert len(lines) > 1.5 * lpipm.mps._CHUNK_LINES
        return inst, lines

    @pytest.mark.parametrize("lineno", [900, 5000])
    @pytest.mark.parametrize("bad, message", [
        ("R9999", "reference to undeclared row 'R9999'"),
        ("1.0x", "expected a number, got '1.0x'"),
    ])
    def test_error_reports_its_line(self, big, lineno, bad, message):
        _, lines = big
        lines = list(lines)
        col, row, value = lines[lineno - 1].split()
        assert row.startswith("R")  # a coefficient line
        row, value = (bad, value) if bad.startswith("R") else (row, bad)
        lines[lineno - 1] = f"    {col}  {row}  {value}"
        with pytest.raises(ParseError) as err:
            parse_mps("\n".join(lines))
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    def test_generated_round_trip(self, big):
        inst, _ = big
        p = parse_mps(inst.mps_text)
        assert np.array_equal(p.A.to_dense(), inst.A)
        assert write_mps(p) == inst.mps_text


class TestNonFinite:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("where, old", [
        ("COLUMNS", "X2  R1  1.0"),
        ("RHS", "RHS  R1  2.0"),
        ("RANGES", "RNG  R1  1.5"),
    ])
    def test_rejected_with_line(self, token, where, old):
        text = MINIMAL.replace("ENDATA", "RANGES\n    RNG  R1  1.5\nENDATA")
        lines = text.splitlines()
        lineno = next(i for i, ln in enumerate(lines, 1) if ln.strip() == old)
        new = old.rsplit(" ", 1)[0] + " " + token
        with pytest.raises(ParseError, match="finite number") as err:
            parse_mps(text.replace(old, new))
        assert err.value.line == lineno

    def test_bounds_accept_inf_but_not_nan(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n UP BND  X1  inf\n LO BND  X2  -inf\nENDATA")
        p = parse_mps(text)
        assert p.bounds_of("X1") == (0.0, np.inf)
        assert p.bounds_of("X2") == (-np.inf, np.inf)
        with pytest.raises(ParseError) as err:
            parse_mps(text.replace("-inf", "nan"))
        assert err.value.line == 12


def test_crossed_bounds_report_their_line():
    text = MINIMAL.replace(
        "ENDATA", "BOUNDS\n UP BND  X2  4.0\n LO BND  X1  3.0\n UP BND  X1  2.0\nENDATA"
    )
    with pytest.raises(ParseError, match="lower bound above upper bound") as err:
        parse_mps(text)
    assert err.value.line == 13


def _reference_columns(text):
    """Line-by-line reading of the COLUMNS section of a text built by
    ``_random_columns``: the column names, the dense matrix over rows
    R1..R4 and the objective, or a ParseError."""
    lines = text.splitlines()
    start, end = lines.index("COLUMNS") + 1, lines.index("RHS")
    rows = {f"R{i + 1}": i for i in range(4)}
    cols, entries, objective = [], [], {}
    for lineno, raw in enumerate(lines[start:end], start + 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("*"):
            continue
        if len(tokens) >= 3 and tokens[1].upper() == "'MARKER'":
            continue
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise ParseError("COLUMNS line needs (row, value) pairs", lineno)
        if tokens[0] not in cols:
            cols.append(tokens[0])
        for rname, vtok in zip(tokens[1::2], tokens[2::2]):
            try:
                val = float(vtok)
            except ValueError:
                raise ParseError(f"expected a number, got {vtok!r}", lineno) from None
            if not np.isfinite(val):
                raise ParseError(f"expected a finite number, got {vtok!r}", lineno)
            if rname == "COST":
                objective[tokens[0]] = objective.get(tokens[0], 0.0) + val
            elif rname in rows:
                entries.append((rows[rname], tokens[0], val))
            elif rname != "FREE":
                raise ParseError(f"reference to undeclared row {rname!r}", lineno)
    A = np.zeros((4, len(cols)))
    for r, col, val in entries:
        A[r, cols.index(col)] += val
    return cols, A, objective


MARKERS = ["'MARKER'", "'marker'"]


def _random_columns(seed):
    """An MPS text whose COLUMNS lines mix one and two pairs, comments,
    markers and blank lines, with entries on the objective and a free
    row, duplicates, and one bad line in about half the seeds."""
    rng = random.Random(seed)
    targets = ["R1", "R2", "R3", "R4", "COST", "FREE"]

    def pair():
        return f"{rng.choice(targets)}  {rng.randint(-8, 8) / 4}"

    body = []
    for _ in range(rng.randint(0, 40)):
        kind = rng.choices(["one", "two", "comment", "marker", "blank"], [8, 4, 1, 1, 1])[0]
        col = f"X{rng.randint(1, 6)}"
        body.append({
            "one": f"    {col}  {pair()}",
            "two": f"    {col}  {pair()}  {pair()}",
            "comment": rng.choice(["* note", "   * indented note", "*"]),
            "marker": f"    M  {rng.choice(MARKERS)}  'INTORG'",
            "blank": rng.choice(["", "   "]),
        }[kind])
    if body and rng.random() < 0.5:
        at = rng.randrange(len(body))
        body[at] = rng.choice([
            "    X1  R9  1.0", "    X1  R1  one", "    X1  R1  nan", "    X1  R1  -inf",
            "    X1", "    X1  R1", "    X1  R1  1.0  R2",
        ])
    return "\n".join([
        "NAME  RANDOM", "ROWS", " N  COST", " N  FREE",
        " E  R1", " E  R2", " E  R3", " E  R4", "COLUMNS", *body, "RHS", "ENDATA", "",
    ])


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("seed", range(40))
def test_bulk_reading_matches_line_reading(monkeypatch, seed, chunk):
    monkeypatch.setattr(lpipm.mps, "_CHUNK_LINES", chunk)
    text = _random_columns(seed)
    try:
        expected = _reference_columns(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_mps(text)
        assert (got.value.line, str(got.value)) == (err.line, str(err))
        return
    cols, A, objective = expected
    p = parse_mps(text)
    assert p.col_names == cols
    assert np.array_equal(p.A.to_dense(), A)
    assert p.objective == objective


def _parsed(text):
    """Every field of the parsed problem, ``A`` as the bytes of its
    arrays; or the line and message of the ParseError."""
    try:
        p = parse_mps(text)
    except ParseError as err:
        return err.line, str(err)
    fields = [getattr(p, f.name) for f in dataclasses.fields(p) if f.name != "A"]
    return fields, p.A.shape, [a.tobytes() for a in (p.A.col_ptr, p.A.row_idx, p.A.values)]


# every line boundary str.splitlines knows
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 7, 64]),
    chunk=st.sampled_from([1, 3, lpipm.mps._CHUNK_LINES]),
    separators=st.none() | st.lists(st.sampled_from(SEPARATORS), min_size=1),
)
def test_blocks_read_as_one_split(seed, block, chunk, separators):
    """Split in blocks of a few characters, a text parses as in one
    block: the same problem, or the same error on the same line, also
    when COLUMNS chunks span blocks.  With ``separators``, line k of the
    text ends with the k-th of them, cycled."""
    text = _random_columns(seed)
    if separators is not None:
        lines = text.splitlines()
        ends = separators * (len(lines) // len(separators) + 1)
        text = "".join(line + end for line, end in zip(lines, ends))
    expected = _parsed(text)
    assert len(text) < lpipm.mps._BLOCK_CHARS  # one block by default
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpipm.mps, "_BLOCK_CHARS", block)
        patch.setattr(lpipm.mps, "_CHUNK_LINES", chunk)
        assert _parsed(text) == expected


@pytest.mark.parametrize("separator", SEPARATORS)
@pytest.mark.parametrize("block", [1, 7, 64])
def test_every_separator_in_blocks(monkeypatch, separator, block):
    text = MINIMAL.replace("ENDATA", "RANGES\n    RNG  R1  1.5\nBOUNDS\n UP BND  X1  4.0\nENDATA")
    expected = _parsed(text)
    monkeypatch.setattr(lpipm.mps, "_BLOCK_CHARS", block)
    assert _parsed(separator.join(text.splitlines()) + separator) == expected


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_header_on_a_block_and_a_chunk_cut(monkeypatch, offset):
    """The RHS header that ends COLUMNS starts a reading chunk, and with
    ``offset`` 0 also a block."""
    body = [f"    X{j}  R{j % 2 + 1}  {j + 1}.5" for j in range(8)]
    text = "\n".join([
        "NAME  CUT", "ROWS", " N  COST", " E  R1", " L  R2", "COLUMNS", *body,
        "RHS", "    RHS  R1  1.0", "ENDATA", "",
    ])
    expected = _parsed(text)
    monkeypatch.setattr(lpipm.mps, "_CHUNK_LINES", 4)  # the body is two chunks
    # the first block ends with the first newline from its last character on
    monkeypatch.setattr(lpipm.mps, "_BLOCK_CHARS", text.index("\nRHS") + 1 + offset)
    assert _parsed(text) == expected
    p = parse_mps(text)
    assert p.A.to_dense().tolist() == [
        [1.5, 0.0, 3.5, 0.0, 5.5, 0.0, 7.5, 0.0],
        [0.0, 2.5, 0.0, 4.5, 0.0, 6.5, 0.0, 8.5],
    ]
    assert p.rhs == {"R1": 1.0}
