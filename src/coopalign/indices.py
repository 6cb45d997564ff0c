"""Index algebra for the 9-coordinate monomial lattice.

Every substream is labelled by a vector of nine exponents, one per channel
gain, with coordinates named (1,1)..(3,3) in row-major order.  Tables over
these labels are stored as dense 9-d integer arrays; out-of-range labels
read as zero everywhere (the zero convention).  ``window`` is the one table
read: it turns a block read at labels shifted on some axes, with others
pinned, into a pair of array slices; the caller's zero-filled output block
keeps the entries the slices do not cover at zero.
"""

from __future__ import annotations

COORD_NAMES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
AXIS = {name: k for k, name in enumerate(COORD_NAMES)}


def window(shape, out_upper, shifts, fixed):
    """Index pair (source, output) of a shifted block read, or None when
    the read lies wholly outside the table.

    A table of ``shape`` holds coordinates {1..size} per axis (array index =
    coordinate - 1).  Axes in ``fixed`` are pinned to one coordinate and
    dropped from the output; every other axis is read at coordinate
    u + shifts[axis] for output coordinate u in {1..out_upper}.  Output
    entries whose read falls outside the table are not covered.
    """
    src = [None] * len(shape)
    dst = []
    for ax, size in enumerate(shape):
        if ax in fixed:
            if not 1 <= fixed[ax] <= size:
                return None
            src[ax] = fixed[ax] - 1
            continue
        d = int(shifts.get(ax, 0))
        lo = max(1, 1 + d)                      # smallest source coordinate
        hi = min(size, out_upper + d)
        if lo > hi:
            return None
        src[ax] = slice(lo - 1, hi)
        dst.append(slice(lo - d - 1, hi - d))
    return tuple(src), tuple(dst)
