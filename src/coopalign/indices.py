"""Index algebra for the 9-coordinate monomial lattice.

Every substream is labelled by a vector of nine exponents, one per channel
gain, with coordinates named (1,1)..(3,3) in row-major order.  Tables over
these labels are stored as dense integer arrays; out-of-range labels read as
zero everywhere (the zero convention).  ``window`` is the one table read: it
turns a block read at labels shifted on some axes into a pair of array
slices; the caller's zero-filled output block keeps the entries the slices
do not cover at zero.
"""

from __future__ import annotations

COORD_NAMES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
AXIS = {name: k for k, name in enumerate(COORD_NAMES)}


def free_coords(slab_coord):
    """A node table's coordinates after its slab one, in canonical order."""
    return tuple(c for c in COORD_NAMES if c != slab_coord)


def window(shape, out_upper, shifts):
    """Index pair (source, output) of a shifted block read, or None when
    the read lies wholly outside the table.

    A table of ``shape`` holds coordinates {1..size} per axis (array index =
    coordinate - 1); each axis is read at coordinate u + shifts[axis] for
    output coordinate u in {1..out_upper}.  Output entries whose read falls
    outside the table are not covered.
    """
    src, dst = [], []
    for ax, size in enumerate(shape):
        d = int(shifts.get(ax, 0))
        lo = max(1, 1 + d)                      # smallest source coordinate
        hi = min(size, out_upper + d)
        if lo > hi:
            return None
        src.append(slice(lo - 1, hi))
        dst.append(slice(lo - d - 1, hi - d))
    return tuple(src), tuple(dst)
