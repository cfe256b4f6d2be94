"""The lattice tour orders of uavcell.mission written over Python lists, a
reference for the tests: layout_centers builds the same orders as integer
index arrays from the column interval ends, so the layout test checks them
against an order they do not share.
"""
from __future__ import annotations

import numpy as np


def cycle_length(points: np.ndarray, order: list) -> float:
    """Length of the closed tour visiting points[order]."""
    pts = points[order]
    return float(np.hypot(*(np.roll(pts, -1, axis=0) - pts).T).sum())


def serpentine(columns: list, y_rank: list) -> list:
    """Closed visiting order over two or more lattice columns, left to right,
    each column a list of cell ids bottom to top; y_rank[id] is the cell's y
    in half rows.

    Column 0 goes up, the middle columns alternate down and up without their
    bottom cells, the last column goes down, and the tour returns along the
    skipped bottom cells. With an odd count, the last two columns B and C
    are walked down as one column, a zig-zag over their cells in y_rank
    order that starts at B's top and ends at B's bottom.
    """
    if len(columns) % 2:
        *columns, b, c = columns
        down = sorted(b + c, key=y_rank.__getitem__, reverse=True)
        in_c = set(c)
        if down[0] in in_c:
            down[:2] = down[1::-1]
        if down[-1] in in_c:
            down[-2:] = down[:-3:-1]
        columns.append(down[::-1])
    first, *middle, last = columns
    order = list(first)
    for index, column in enumerate(middle):
        order += column[:0:-1] if index % 2 == 0 else column[1:]
    order += last[::-1]
    order += [column[0] for column in reversed(middle)]
    return order


def strip_tour(ids: np.ndarray, y_rank: np.ndarray, points: np.ndarray) -> list:
    """Closed tour over a strip of at most three y values, ids in lattice
    (x, then y) order: out through the y values below a cut in x order, back
    through the rest in reverse; the shortest over the cuts, the first on a
    tie."""
    tours = []
    for cut in range(y_rank.min() + 1, y_rank.max() + 1):
        low = y_rank < cut
        order = np.concatenate((ids[low], ids[~low][::-1])).tolist()
        tours.append((cycle_length(points, order), order))
    return min(tours, key=lambda tour: tour[0])[1]
