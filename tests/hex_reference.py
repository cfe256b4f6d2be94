"""Containment in the regular hexagon cell, a reference for the tests: the
package draws terminals into the hexagon by inversion and lays out hexagon
centers without ever testing a point against it, so the sampling and layout
tests check their points with this.
"""
from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)


def hex_contains(xy, circumradius: float):
    """True for points inside the regular hexagon (vertex on +x axis), boundary inclusive.
    A circumradius that is not positive and finite raises ValueError."""
    if not 0.0 < circumradius < math.inf:  # nan fails too
        raise ValueError(f"circumradius must be positive and finite, got {circumradius}")
    xy = np.asarray(xy, dtype=float)
    x = np.abs(xy[..., 0])
    y = np.abs(xy[..., 1])
    inside = (y <= SQRT3 / 2 * circumradius) & (SQRT3 * x + y <= SQRT3 * circumradius)
    return inside if inside.ndim else bool(inside)
