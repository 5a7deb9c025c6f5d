"""Golden violation for RL013: a result writer reading region objects."""


def write(region_format, dataset, handle):
    for sample in dataset:
        #! expect: RL013 @ 7
        handle.write(region_format.serialize(sample.regions))
        # Serialising the column view is the sanctioned form.
        handle.writelines(region_format.serialize_sample(sample))


def entry(dataset):
    #! expect: RL013 @ 14
    return [(s.id, list(s.regions)) for s in dataset]
