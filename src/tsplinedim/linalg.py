"""Sparse exact-rational matrices and fraction-free rank computation.

All ranks in this package are computed over the rationals with integer
arithmetic only: every row is scaled to a primitive integer vector and
elimination uses cross-multiplication followed by content removal, so no
floating point and no tolerance enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

_denominator = attrgetter("denominator")


class SparseRationalMatrix:
    """Rational matrix stored as (row, col) -> Fraction, zeros omitted.

    Only the shape and the nonzero entries are kept; ``dump_triplets`` is
    the text form behind ``--dump-matrix``.
    """

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}

    def set(self, row, col, value):
        if not 0 <= row < self.nrows or not 0 <= col < self.ncols:
            raise IndexError((row, col))
        value = Fraction(value)
        if value:
            self.entries[(row, col)] = value
        else:
            self.entries.pop((row, col), None)

    def add(self, row, col, value):
        current = self.entries.get((row, col), Fraction(0))
        self.set(row, col, current + value)

    @property
    def nnz(self):
        return len(self.entries)

    def rows(self):
        """Entries grouped by row index, as {col: Fraction} dicts."""
        grouped: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            grouped.setdefault(r, {})[c] = v
        return grouped

    def dump_triplets(self):
        """Text form: header ``rows cols`` then sorted ``r c num/den`` lines."""
        lines = [f"{self.nrows} {self.ncols}"]
        for (r, c) in sorted(self.entries):
            v = self.entries[(r, c)]
            lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


def _primitive_int_row(row):
    """Scale a {col: rational} row to a content-free {col: int} row.

    Zero entries are dropped: a column is live only where the row has a
    nonzero value, so a pivot is never taken on a zero.
    """
    denom = lcm(*map(_denominator, row.values()))
    ints = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def rational_rank(matrix):
    """Exact rank over Q via sparse fraction-free elimination.

    ``matrix`` is a SparseRationalMatrix or an iterable of {col: value}
    rows with int or Fraction values.  Pivots are chosen Markowitz-style
    (sparsest column, then sparsest row in it) with index tie-breaks, so the
    elimination order is deterministic.
    """
    if isinstance(matrix, SparseRationalMatrix):
        matrix = matrix.rows().values()
    rows = [row for row in map(_primitive_int_row, matrix) if row]

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
        for c in [c for c, live in col_rows.items() if not live]:
            del col_rows[c]

    return rank
