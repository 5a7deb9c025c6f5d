"""Golden violation for RL011: the columnar engine building row objects."""

import repro.gdm as gdm
from repro.gdm import GenomicRegion
from repro.gdm.sample import ColumnRows


def emit(chrom, lefts, rights, depths, reference, counts):
    #! expect: RL011 @ 10
    rows = [GenomicRegion(chrom, a, b, "*", (d,)) for a, b, d in zip(lefts, rights, depths)]
    #! expect: RL011 @ 12
    mapped = [r.with_values(r.values + (c,)) for r, c in zip(reference, counts)]
    #! expect: RL011 @ 14
    qualified = gdm.GenomicRegion(chrom, 0, 1)
    # Handing the columns to ColumnRows is the sanctioned form.
    born = ColumnRows([(chrom, len(lefts))], lefts, rights, ["*"] * len(lefts), [depths])
    return rows, mapped, qualified, born
