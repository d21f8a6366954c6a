"""The knot determinant from the Fox colouring matrix, a test oracle for
`height._determinant`.

The matrix is built on the curve's Gauss structure alone: an arc runs
from one underpass to the next in parameter order, the order of the
crossings' ranks, so it reads no branch, and the determinant is one of
its minors by fraction-free (Bareiss) elimination, in O(n^3) for n
crossings.  The package carries Fox colours along the curve's three
branches instead, in O(n).  Not collected by pytest.
"""

from typing import Sequence


def fox_determinant(cs, overs: Sequence[int]) -> int:
    """Knot determinant: |det| of a minor of the Fox coloring matrix.

    The diagram is the curve's own Gauss structure, closed through
    infinity (which adds no crossing on the sphere), so no
    normal-position assumption enters.  An arc runs from one underpass
    to the next in parameter order, the order of the crossings' ranks;
    crossing i contributes the row 2 over_arc - under_in - under_out.
    Any (n-1)-minor of this n x n integer matrix has the determinant as
    its absolute value.
    """
    n = len(cs)
    # parameter ranks of each crossing's overpass and underpass
    visits = [c.ranks if o > 0 else c.ranks[::-1] for c, o in zip(cs, overs)]
    unders = {u for _, u in visits}
    # arc of the segment leaving each parameter position; the last
    # segment runs through infinity back into arc 0
    arc_after, arc = [], 0
    for k in range(2 * n):
        arc += k in unders
        arc_after.append(arc % n)
    rows = []
    for o, u in visits:
        row = [0] * n
        row[arc_after[o]] += 2
        row[arc_after[u - 1]] -= 1  # index -1 is the segment through infinity
        row[arc_after[u]] -= 1
        rows.append(row[1:])
    return abs(bareiss_det(rows[1:]))


def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, entries stay minors."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
