"""Golden violation for RL009: in-place mutation of a .regions list."""


def add_peak(sample, region, other):
    #! expect: RL009 @ 6
    sample.regions.append(region)
    #! expect: RL009 @ 8
    sample.regions[0] = region
    #! expect: RL009 @ 10
    del sample.regions[-1]
    #! expect: RL009 @ 12
    sample.regions += [region]
    # Building a new list, or reading one, is fine.
    regions = list(sample.regions)
    regions.append(region)
    return sample.with_regions(regions), other.regions[0]
