"""Exact grouped float summation: ``math.fsum`` per segment.

The MAP/EXTEND/GROUP float aggregates (SUM, AVG, STD) are defined
against ``math.fsum``, which returns the correctly rounded value of the
*exact* real sum and is therefore order-independent.  That definition
is what lets the engines gather a group's values in any order and
still match the naive per-group reduction bit for bit.

:func:`segment_fsum` is that definition over CSR segments: one
``tolist`` of the values, then ``math.fsum`` over each slice.  It is
bit-identical by construction -- signed zeros, NaN and infinities come
out as fsum makes them, and it raises exactly where fsum raises
(``inf - inf``, intermediate overflow).
"""

from __future__ import annotations

from math import fsum

import numpy as np


def segment_fsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment ``math.fsum`` of float64 *values*.

    *offsets* is a CSR boundary array (:func:`repro.store.group_offsets`
    shape): segment ``i`` is ``values[offsets[i]:offsets[i+1]]``.
    Returns a float64 array aligned with segments; empty segments sum
    to ``0.0`` (fsum of an empty iterable).
    """
    listed = values.tolist()
    bounds = offsets.tolist()
    return np.array(
        [fsum(listed[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        dtype=np.float64,
    )
