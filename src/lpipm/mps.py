"""MPS reading and writing.

Both fixed-format and whitespace-delimited free-format files are
accepted: section headers start in column 1, data lines are indented,
comment lines start with ``*``.  Integer markers are skipped, so MIP
files parse as their LP relaxations.

The constraint coefficients are kept as one :class:`SparseMatrix`,
``LpProblem.A``, with rows in ``row_names`` order and columns in
``col_names`` order; duplicate COLUMNS entries are summed, and so are
duplicate RHS and RANGES entries.  Coefficients, right-hand sides and
ranges must be finite numbers; bounds may be infinite but not NaN.

The text is split into lines one block of about 256 KiB at a time, and
the COLUMNS section, one line per nonzero, is read in bulk: a few
thousand lines at a time, with one split of their text and array
operations over the tokens, and no Python object per entry.  Entries
that come column by column, as :func:`write_mps` writes them, become the
arrays of ``A`` in one copy.  So parsing holds, besides the text, about
one more text's worth of memory: on a dense 280 x 630 LP (6.3 MB of
text) the traced peak is about 1.0 times the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from .errors import ParseError
from .sparse import SparseMatrix

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_TYPES = {"N", "L", "G", "E"}
# bound keys with a numeric value, and those without
_VALUE_BOUNDS = {"UP", "LO", "FX", "UI", "LI"}
_FLAG_BOUNDS = {"FR", "MI", "PL", "BV"}
_MARKER = "'MARKER'"

# codes of the row names in COLUMNS; constraint rows are 0..m-1
_OBJECTIVE_ROW = -1
_FREE_ROW = -2
_UNKNOWN_ROW = -3

# characters of text split into lines at a time, cut after a newline:
# bounds the line strings alive at once
_BLOCK_CHARS = 1 << 18
# lines of COLUMNS read per split: bounds the token strings alive at once
_CHUNK_LINES = 1 << 12
# a line that is not indented: a header, or a comment or blank line
_NEW_LINE_NOT_INDENTED = re.compile(r"\n[^ \t\n]")


def _empty_matrix() -> SparseMatrix:
    return SparseMatrix.from_coo(0, 0, [], [], [])


@dataclass
class LpProblem:
    """Row/column form of an LP as read from MPS.

    ``A`` holds the constraint coefficients, rows in ``row_names`` order
    and columns in ``col_names`` order.  The objective row is kept
    separately in ``objective``; entries on free rows other than the
    objective are dropped.
    """

    name: str = ""
    sense: str = "min"
    row_names: list = field(default_factory=list)
    row_types: dict = field(default_factory=dict)
    objective_name: str = ""
    col_names: list = field(default_factory=list)
    A: SparseMatrix = field(default_factory=_empty_matrix)
    objective: dict = field(default_factory=dict)
    rhs: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    objective_constant: float = 0.0

    @property
    def nrows(self) -> int:
        return len(self.row_names)

    @property
    def ncols(self) -> int:
        return len(self.col_names)

    def bounds_of(self, col) -> tuple:
        return self.lower.get(col, 0.0), self.upper.get(col, np.inf)


def _to_float(token, lineno, allow_inf=False):
    try:
        val = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", lineno) from None
    if val != val or (not allow_inf and val in (np.inf, -np.inf)):
        raise ParseError(f"expected a finite number, got {token!r}", lineno)
    return val


class _Lines:
    """The lines of a text, ``text.splitlines()``, split one block at a time.

    Blocks of about ``_BLOCK_CHARS`` characters are cut right after a
    ``"\\n"``.  Such a cut never separates ``"\\r\\n"``, and every other
    line boundary that ``splitlines`` knows is one character, so the
    lines of the blocks are exactly the lines of the text.  ``lineno``
    counts the lines handed out so far: the number of the last one.
    """

    def __init__(self, text: str):
        self._text = text
        self._cut = 0  # where the next block starts
        self._block = []  # lines of the current block
        self._next = 0  # index in _block of the next line
        self.lineno = 0

    def _split_block(self) -> bool:
        """Load the next block; False at the end of the text."""
        text, start = self._text, self._cut
        if start >= len(text):
            return False
        self._cut = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        self._block = text[start:self._cut].splitlines()
        self._next = 0
        return True

    def __iter__(self):
        return self

    def __next__(self) -> str:
        try:
            line = self._block[self._next]
        except IndexError:
            if not self._split_block():
                raise StopIteration from None
            line = self._block[0]
        self._next += 1
        self.lineno += 1
        return line

    def take(self, count: int) -> list:
        """The next ``count`` lines, fewer at the end of the text."""
        out = self._block[self._next:self._next + count]
        self._next += len(out)
        while len(out) < count and self._split_block():
            more = self._block[:count - len(out)]
            self._next = len(more)
            out += more
        self.lineno += len(out)
        return out

    def put_back(self, lines: list) -> None:
        """Return the last ``lines`` taken, to be handed out again."""
        self._block = lines + self._block[self._next:]
        self._next = 0
        self.lineno -= len(lines)


def parse_mps(source) -> LpProblem:
    """Parse MPS text given as str or bytes (decoded as UTF-8)."""
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    if not isinstance(source, str):
        raise TypeError(f"parse_mps takes str or bytes, not {type(source).__name__}")
    lines = _Lines(source)

    prob = LpProblem()
    section = None
    seen_endata = False
    seen_objective = False
    known_rows = set()
    columns = _ColumnsReader(prob, known_rows)
    explicit_lower = set()
    bound_line = {}

    for raw in lines:
        lineno = lines.lineno
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        indented = raw[0] in (" ", "\t")
        tokens = raw.split()

        if not indented:
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise ParseError(f"unknown section header {tokens[0]!r}", lineno)
            if head == "NAME":
                prob.name = tokens[1] if len(tokens) > 1 else ""
                section = None
            elif head == "ENDATA":
                seen_endata = True
                break
            else:
                section = head
            if head == "COLUMNS":
                columns.read(lines)
            continue

        if section is None:
            raise ParseError("data line outside any section", lineno)

        if section == "OBJSENSE":
            word = tokens[0].upper()
            if word in ("MIN", "MINIMIZE"):
                prob.sense = "min"
            elif word in ("MAX", "MAXIMIZE"):
                prob.sense = "max"
            else:
                raise ParseError(f"unknown objective sense {tokens[0]!r}", lineno)

        elif section == "ROWS":
            if len(tokens) != 2:
                raise ParseError("ROWS line must be '<type> <name>'", lineno)
            rtype = tokens[0].upper()
            rname = tokens[1]
            if rtype not in _ROW_TYPES:
                raise ParseError(f"unknown row type {tokens[0]!r}", lineno)
            if rname in known_rows or rname == prob.objective_name:
                raise ParseError(f"duplicate row name {rname!r}", lineno)
            if rtype == "N":
                # first N row is the objective; later ones are free rows
                if not seen_objective:
                    prob.objective_name = rname
                    seen_objective = True
                known_rows.add(rname)
            else:
                prob.row_names.append(rname)
                prob.row_types[rname] = rtype
                known_rows.add(rname)

        elif section in ("RHS", "RANGES"):
            pairs = tokens if len(tokens) % 2 == 0 else tokens[1:]
            if not pairs or len(pairs) % 2:
                raise ParseError(f"{section} line needs (row, value) pairs", lineno)
            store = prob.rhs if section == "RHS" else prob.ranges
            for rname, vtok in zip(pairs[::2], pairs[1::2]):
                val = _to_float(vtok, lineno)
                if rname == prob.objective_name:
                    if section == "RHS":
                        # RHS on the objective row is a negated constant
                        prob.objective_constant -= val
                    continue
                if rname not in prob.row_types:
                    if rname in known_rows:
                        continue
                    raise ParseError(f"reference to undeclared row {rname!r}", lineno)
                store[rname] = store.get(rname, 0.0) + val

        elif section == "BOUNDS":
            key = tokens[0].upper()
            if key in _VALUE_BOUNDS:
                if len(tokens) != 4:
                    raise ParseError(f"{key} bound needs '<key> <set> <col> <value>'", lineno)
                col, val = tokens[2], _to_float(tokens[3], lineno, allow_inf=True)
            elif key in _FLAG_BOUNDS:
                if len(tokens) not in (3, 4):
                    raise ParseError(f"{key} bound needs '<key> <set> <col>'", lineno)
                col, val = tokens[2], None
            else:
                raise ParseError(f"unknown bound key {tokens[0]!r}", lineno)
            if col not in columns.col_index:
                raise ParseError(f"bound on undeclared column {col!r}", lineno)
            bound_line[col] = lineno
            if key in ("UP", "UI"):
                prob.upper[col] = val
                if val < 0 and col not in explicit_lower:
                    # conventional MPS reading of a negative upper bound
                    prob.lower[col] = -np.inf
            elif key in ("LO", "LI"):
                prob.lower[col] = val
                explicit_lower.add(col)
            elif key == "FX":
                prob.lower[col] = val
                prob.upper[col] = val
                explicit_lower.add(col)
            elif key == "FR":
                prob.lower[col] = -np.inf
                prob.upper[col] = np.inf
                explicit_lower.add(col)
            elif key == "MI":
                prob.lower[col] = -np.inf
                explicit_lower.add(col)
            elif key == "PL":
                prob.upper[col] = np.inf
            elif key == "BV":
                prob.lower[col] = 0.0
                prob.upper[col] = 1.0
                explicit_lower.add(col)

    if not seen_endata:
        raise ParseError("missing ENDATA", lines.lineno)
    if not seen_objective:
        for _ in lines:
            pass  # the error names the last line of the text
        raise ParseError("no objective (N) row declared", lines.lineno)
    for col, lo in prob.lower.items():
        up = prob.upper.get(col, np.inf)
        if lo > up:
            raise ParseError(
                f"column {col!r} has lower bound above upper bound", bound_line[col]
            )
    prob.A = columns.matrix()
    return prob


class _ColumnsReader:
    """Reads the COLUMNS sections of one file in bulk.

    A section is read from the block stream in chunks of at most
    ``_CHUNK_LINES`` lines, each with one split of its text and array
    operations over the tokens, so the strings of only one block and one
    chunk are alive at a time.  The entries of each chunk are kept as
    arrays; when they come column by column, rows strictly increasing in
    each column, they are joined into the arrays of ``A`` as they are,
    else ``A`` is canonicalized from them (duplicates summed, rows
    sorted).  Explicit zeros are dropped either way.  A line is a
    comment when its first token starts with ``*``, a marker when it has
    at least three tokens and the second reads ``'MARKER'``; every other
    non-blank line is ``<column> <row> <value> [<row> <value>]``.  New
    columns are appended to ``prob.col_names``, objective entries are
    summed into ``prob.objective`` and free-row entries are dropped.
    """

    def __init__(self, prob: LpProblem, known_rows: set):
        self.prob = prob
        self.known_rows = known_rows
        self.col_index = {}
        self.entries = []  # (rows, cols, values) per chunk
        # whether the entries so far come column by column, rows strictly
        # increasing in each column; the last entry's (column, row)
        self.in_order = True
        self.last = (-1, -1)

    def read(self, lines: _Lines) -> None:
        """Read the section whose body comes next from ``lines``, and put
        back the header line that ends it."""
        prob = self.prob
        row_code = {name: i for i, name in enumerate(prob.row_names)}
        row_code.update({name: _FREE_ROW for name in self.known_rows if name not in row_code})
        row_code[prob.objective_name] = _OBJECTIVE_ROW
        marker_like = [c for name, c in row_code.items() if name.upper() == _MARKER]
        while True:
            chunk = lines.take(_CHUNK_LINES)
            end = self._read_chunk(chunk, lines.lineno - len(chunk), row_code, marker_like)
            if end < len(chunk):
                lines.put_back(chunk[end:])
                return
            if len(chunk) < _CHUNK_LINES:
                return

    def matrix(self) -> SparseMatrix:
        """``A`` from the entries read; the reader keeps none of them."""
        m, n = self.prob.nrows, self.prob.ncols
        rows, cols, vals = [list(arrays) for arrays in zip(*self.entries)] or [[], [], []]
        self.entries.clear()
        if not self.in_order:
            # duplicates summed, rows sorted
            rows, cols, vals = (np.concatenate(arrays) for arrays in (rows, cols, vals))
            return SparseMatrix.from_coo(m, n, rows, cols, vals)
        # already in CSC order: the arrays of A in one copy
        for k, v in enumerate(vals):
            nonzero = v != 0.0
            if not nonzero.all():
                rows[k], cols[k], vals[k] = rows[k][nonzero], cols[k][nonzero], v[nonzero]
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        while cols:
            col_ptr[1:] += np.bincount(cols.pop(), minlength=n)
        np.cumsum(col_ptr, out=col_ptr)
        return SparseMatrix(m, n, col_ptr, _join(rows, np.int64), _join(vals, np.float64))

    def _read_chunk(self, chunk, offset, row_code, marker_like) -> int:
        """Read the lines of ``chunk``, the first of them line ``offset + 1``
        of the text, up to the first header line; return the index of that
        header, or ``len(chunk)``.  ``marker_like``: the codes of the rows
        named like a marker, as a marker line's second token reads."""
        # a header is a line that is neither indented, blank nor a
        # comment; lines hold no "\n", so newlines count them
        text = "\n" + "\n".join(chunk)
        end, cut = len(chunk), len(text)
        k, pos = -1, 0
        for match in _NEW_LINE_NOT_INDENTED.finditer(text):
            k += text.count("\n", pos, match.end())
            pos = match.end()
            if chunk[k].strip() and not chunk[k].lstrip().startswith("*"):
                end, cut = k, match.start()
                break

        tokens = np.array(text[:cut].split(), dtype=object)
        del text
        counts = np.fromiter(map(len, map(str.split, chunk[:end])), np.int64, end)
        first = np.cumsum(counts) - counts  # token index of each line's first token
        line_of = np.repeat(np.arange(counts.size), counts)
        place = np.arange(tokens.size) - first[line_of]  # position within the line

        # lines by their first token: comments, then columns in order of appearance
        filled = np.flatnonzero(counts)
        heads = tokens[first[filled]]
        # a column's lines are mostly adjacent: look up each run of equal heads once
        starts = np.ones(heads.size, dtype=bool)
        np.not_equal(heads[1:], heads[:-1], out=starts[1:])
        run_heads = heads[starts]
        head_names = list(dict.fromkeys(run_heads))
        run_head_of = np.fromiter(
            map(dict(zip(head_names, count())).__getitem__, run_heads), np.int64, run_heads.size
        )
        head_of = np.full(counts.size, -1)
        head_of[filled] = run_head_of[np.cumsum(starts) - 1]
        comment = np.zeros(counts.size, dtype=bool)
        comment[filled] = np.array([h.startswith("*") for h in head_names], dtype=bool)[
            head_of[filled]
        ]

        # every token in a row position; a marker line has an unknown row
        # (or a row named like a marker) in the first one
        odd = np.flatnonzero(place & 1)
        codes = np.fromiter(
            map(row_code.get, tokens[odd], repeat(_UNKNOWN_ROW)), np.int64, odd.size
        )
        suspect = odd[((codes == _UNKNOWN_ROW) | np.isin(codes, marker_like)) & (place[odd] == 1)]
        suspect = suspect[counts[line_of[suspect]] >= 3]
        marker = np.zeros(counts.size, dtype=bool)
        marker[line_of[suspect]] = [t.upper() == _MARKER for t in tokens[suspect]]

        data = (counts > 0) & ~comment & ~marker
        malformed = np.flatnonzero(data & ((counts < 3) | (counts % 2 == 0)))
        if malformed.size:
            data[malformed[0]:] = False  # an earlier error is reported first

        # pairs of the data lines: row token at an odd place, value after it
        in_data = data[line_of[odd]]
        row_at, codes = odd[in_data], codes[in_data]
        value_tokens = tokens[row_at + 1]
        unknown = np.flatnonzero(codes == _UNKNOWN_ROW)
        try:
            values = np.array(value_tokens, dtype=np.float64)
            valid = bool(np.isfinite(values).all())
        except ValueError:
            valid = False
        if not valid or unknown.size:
            # report the first bad pair; per pair the value is read first
            last = int(unknown[0]) if unknown.size else codes.size - 1
            lineno = offset + 1 + line_of[row_at]
            for p in range(last + 1):
                _to_float(value_tokens[p], int(lineno[p]))
            raise ParseError(
                f"reference to undeclared row {tokens[row_at[last]]!r}", int(lineno[last])
            )
        if malformed.size:
            raise ParseError(
                "COLUMNS line needs (row, value) pairs", offset + 1 + int(malformed[0])
            )

        # columns, numbered in order of first appearance on a data line
        prob = self.prob
        seen, at = np.unique(head_of[data], return_index=True)
        col_of_head = np.full(len(head_names), -1)
        for h in seen[np.argsort(at)].tolist():
            name = head_names[h]
            if name not in self.col_index:
                self.col_index[name] = len(prob.col_names)
                prob.col_names.append(name)
            col_of_head[h] = self.col_index[name]
        cols = col_of_head[head_of[line_of[row_at]]]

        on_objective = codes == _OBJECTIVE_ROW
        obj_cols = cols[on_objective]
        sums = np.bincount(obj_cols, weights=values[on_objective], minlength=prob.ncols)
        for j in np.unique(obj_cols).tolist():
            name = prob.col_names[j]
            prob.objective[name] = prob.objective.get(name, 0.0) + float(sums[j])

        keep = codes >= 0
        rows, cols, values = codes[keep], cols[keep], values[keep]
        if self.in_order and rows.size:
            dc = np.diff(cols, prepend=self.last[0])
            dr = np.diff(rows, prepend=self.last[1])
            self.in_order = bool(np.all((dc > 0) | ((dc == 0) & (dr > 0))))
            self.last = (cols[-1], rows[-1])
        self.entries.append((rows, cols, values))
        return end


def _join(chunks: list, dtype) -> np.ndarray:
    """Concatenate ``chunks``, emptying the list as they are copied."""
    out = np.empty(sum(map(len, chunks)), dtype=dtype)
    at = 0
    for k, chunk in enumerate(chunks):
        out[at:at + chunk.size] = chunk
        at += chunk.size
        chunks[k] = None
    return out


def write_mps(prob: LpProblem) -> str:
    """Serialize back to free-format MPS with round-trip exact floats."""
    A = prob.A
    if A.shape != (prob.nrows, prob.ncols):
        raise ValueError(
            f"coefficient matrix is {A.nrows}x{A.ncols}, expected "
            f"{prob.nrows}x{prob.ncols}"
        )
    out = [f"NAME          {prob.name}".rstrip()]
    if prob.sense == "max":
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {prob.objective_name or 'COST'}")
    for rname in prob.row_names:
        out.append(f" {prob.row_types[rname]}  {rname}")
    out.append("COLUMNS")
    obj_name = prob.objective_name or "COST"
    col_ptr = A.col_ptr.tolist()
    row_names = [prob.row_names[r] for r in A.row_idx.tolist()]
    values = A.values.tolist()
    for j, col in enumerate(prob.col_names):
        if col in prob.objective and prob.objective[col] != 0.0:
            out.append(f"    {col}  {obj_name}  {prob.objective[col]:.17g}")
        lo, hi = col_ptr[j], col_ptr[j + 1]
        out.extend(
            f"    {col}  {rname}  {val:.17g}"
            for rname, val in zip(row_names[lo:hi], values[lo:hi])
        )
    out.append("RHS")
    for rname in prob.row_names:
        val = prob.rhs.get(rname, 0.0)
        if val != 0.0:
            out.append(f"    RHS  {rname}  {val:.17g}")
    if prob.objective_constant != 0.0:
        out.append(f"    RHS  {obj_name}  {-prob.objective_constant:.17g}")
    if prob.ranges:
        out.append("RANGES")
        for rname in prob.row_names:
            if rname in prob.ranges:
                out.append(f"    RNG  {rname}  {prob.ranges[rname]:.17g}")
    bound_lines = []
    for col in prob.col_names:
        lo, up = prob.bounds_of(col)
        if lo == up:
            bound_lines.append(f" FX BND  {col}  {lo:.17g}")
            continue
        if np.isneginf(lo) and np.isposinf(up):
            bound_lines.append(f" FR BND  {col}")
            continue
        if np.isneginf(lo):
            bound_lines.append(f" MI BND  {col}")
        elif lo != 0.0:
            bound_lines.append(f" LO BND  {col}  {lo:.17g}")
        if not np.isposinf(up):
            bound_lines.append(f" UP BND  {col}  {up:.17g}")
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)
    out.append("ENDATA")
    return "\n".join(out) + "\n"
