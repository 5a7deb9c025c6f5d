"""Genomic bins: the fixed-width grid of the store's zone maps.

The columnar store groups each chromosome's regions into fixed-width bins
(:data:`DEFAULT_BIN_SIZE` wide) so zone maps can prune bins no query
interval reaches.  :func:`bin_span` is the scalar statement of which bins
an interval touches; the store's vectorised ``occupied_bins`` is tested
against it.
"""

from __future__ import annotations

#: Default bin width, matching the magnitude used by GMQL implementations.
DEFAULT_BIN_SIZE = 100_000


def bin_span(left: int, right: int, bin_size: int) -> range:
    """The range of bin indices an interval ``[left, right)`` touches.

    Zero-length intervals still occupy the bin containing their point.

    >>> list(bin_span(0, 250, 100))
    [0, 1, 2]
    """
    if bin_size <= 0:
        raise ValueError(f"bin size must be positive, got {bin_size}")
    last = max(right - 1, left)
    return range(left // bin_size, last // bin_size + 1)
