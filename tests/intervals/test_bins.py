"""Unit tests for the scalar bin span (the store's zone-map grid)."""

import pytest

from repro.intervals import bin_span


class TestBinSpan:
    def test_within_one_bin(self):
        assert list(bin_span(0, 50, 100)) == [0]

    def test_spanning_regions_touch_every_bin(self):
        assert list(bin_span(50, 250, 100)) == [0, 1, 2]

    def test_boundary_exclusive(self):
        # [0, 100) ends exactly at the bin edge: only bin 0.
        assert list(bin_span(0, 100, 100)) == [0]

    def test_zero_length_occupies_point_bin(self):
        assert list(bin_span(150, 150, 100)) == [1]

    def test_bad_bin_size(self):
        with pytest.raises(ValueError):
            list(bin_span(0, 10, 0))
