"""Sparse exact-rational matrices and fraction-free rank computation.

A matrix is a list of rows, one ``{col: value}`` dict each, and every value
is the ``int`` or ``Fraction`` it was given.  All ranks in this package are
computed over the rationals with integer arithmetic only: every row is
scaled to a primitive integer vector and elimination uses cross-multiplication
followed by content removal, so no floating point and no tolerance enters
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

_denominator = attrgetter("denominator")


class SparseRationalMatrix:
    """Rational matrix stored as one {col: int or Fraction} dict per row,
    zeros omitted.  Iterating over it yields those row dicts.

    Only the shape and the nonzero entries are kept; ``dump_triplets`` is
    the text form behind ``--dump-matrix``.
    """

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self._rows: list[dict[int, int | Fraction]] = [{} for _ in range(nrows)]

    def __iter__(self):
        return iter(self._rows)

    def set(self, row, col, value):
        if not 0 <= row < self.nrows or not 0 <= col < self.ncols:
            raise IndexError((row, col))
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"entry {value!r} is not an int or a Fraction")
        if value:
            self._rows[row][col] = value
        else:
            self._rows[row].pop(col, None)

    def add(self, row, col, value):
        """Add value to one entry.  Nothing in the package calls it: it stays
        only for the benchmark tracer's ``linalg.matrix_add.calls`` metric and
        the harness test that names it, which ROADMAP item 1b retires."""
        self.set(row, col, self._rows[row].get(col, 0) + value)

    @property
    def nnz(self):
        return sum(map(len, self._rows))

    def dump_triplets(self):
        """Text form: header ``rows cols`` then sorted ``r c num/den`` lines."""
        lines = [f"{self.nrows} {self.ncols}"]
        for r, row in enumerate(self._rows):
            for c in sorted(row):
                v = row[c]
                lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


def _primitive_int_row(row):
    """Scale a {col: int or Fraction} row to a content-free {col: int} row.

    This is the one place where rational entries become integers.  Zero
    entries are dropped: a column is live only where the row has a nonzero
    value, so a pivot is never taken on a zero.
    """
    denom = lcm(*map(_denominator, row.values()))
    ints = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def rational_rank(rows):
    """Exact rank over Q via sparse fraction-free elimination.

    ``rows`` is an iterable of {col: value} dicts with int or Fraction
    values, such as a SparseRationalMatrix.  Pivots are chosen
    Markowitz-style (sparsest column, then sparsest row in it) with index
    tie-breaks, so the elimination order is deterministic.
    """
    rows = [row for row in map(_primitive_int_row, rows) if row]

    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    rank = 0
    while col_rows:
        pivot_col = None
        best = None
        for c, live in col_rows.items():
            count = len(live)
            if best is None or count < best or (count == best and c < pivot_col):
                best = count
                pivot_col = c
        candidates = col_rows[pivot_col]
        pivot_row = None
        best = None
        for i in candidates:
            size = len(rows[i])
            if best is None or size < best or (size == best and i < pivot_row):
                best = size
                pivot_row = i
        piv = rows[pivot_row]
        a = piv[pivot_col]
        rank += 1

        for j in list(candidates):
            if j == pivot_row:
                continue
            old = rows[j]
            b = old[pivot_col]
            new = {c: v * a for c, v in old.items() if c != pivot_col}
            # Only the pivot row's columns can enter or leave row j, so the
            # column index is patched for those alone.
            for c, v in piv.items():
                if c == pivot_col:
                    continue
                prev = new.get(c)
                nv = (prev or 0) - v * b
                if nv:
                    new[c] = nv
                    if prev is None:
                        col_rows[c].add(j)
                else:
                    del new[c]
                    col_rows[c].discard(j)
            g = gcd(*new.values())
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            rows[j] = new

        for c in piv:
            live = col_rows.get(c)
            if live is not None:
                live.discard(pivot_row)
                if not live:
                    del col_rows[c]
        rows[pivot_row] = {}
        col_rows.pop(pivot_col, None)

    return rank
