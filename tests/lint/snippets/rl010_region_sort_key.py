"""Golden violation for RL010: an engine ordering rows by region objects."""

from repro.gdm import GenomicRegion, chromosome_sort_key


def emit(regions, chroms):
    #! expect: RL010 @ 8
    regions.sort(key=GenomicRegion.sort_key)
    #! expect: RL010 @ 10
    ordered = sorted(regions, key=lambda region: region.sort_key())
    # Ordering chromosome names, or rows by anything else, is fine.
    names = sorted(chroms, key=chromosome_sort_key)
    by_left = sorted(regions, key=lambda region: region.left)
    return ordered, names, by_left
