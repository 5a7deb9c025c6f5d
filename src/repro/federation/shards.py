"""(sample, chromosome)-keyed dataset shards for federated execution.

Every genometric operator of the algebra matches regions within one
chromosome only (MAP/JOIN pair same-chromosome regions, the COVER family
sweeps per chromosome, DIFFERENCE probes per chromosome), so a dataset
cut along chromosome boundaries can be processed shard-by-shard on
different federation nodes and the partial results interleaved back --
byte-identical to single-node execution -- as long as two preconditions
hold:

* **chromosome clustering**: within every sample, regions of one
  chromosome form one contiguous run and runs appear in genome order
  (:func:`repro.gdm.region.chromosome_sort_key`).  Genome-sorted data --
  everything the simulator and the formats layer produce -- satisfies
  this; :func:`is_chromosome_clustered` verifies it so the planner can
  fall back to whole-dataset strategies for arbitrary data.
* **sample alignment**: a slice keeps *every* sample (possibly with zero
  regions) so operators that assign result sample ids positionally
  (``build_result`` numbers parts 1..N) produce the same ids on every
  shard.

The shard unit of *placement* is the chromosome: all samples' regions of
one chromosome co-locate, because MAP/JOIN/COVER need every sample's
same-chromosome regions together.  The manifest still records per
(sample, chromosome) shards -- that is the transfer/accounting unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gdm import Dataset, chromosome_sort_key


@dataclass(frozen=True)
class Shard:
    """One (sample, chromosome) shard of a dataset."""

    dataset: str
    sample_id: int
    chrom: str
    regions: int
    size_bytes: int


@dataclass(frozen=True)
class ShardManifest:
    """Every shard of one dataset, plus the clustering precondition."""

    dataset: str
    shards: tuple            # of Shard
    clustered: bool

    def chromosomes(self) -> tuple:
        """Chromosomes with at least one shard, in genome order."""
        return tuple(
            sorted({s.chrom for s in self.shards}, key=chromosome_sort_key)
        )

    def chrom_stats(self) -> dict:
        """``{chrom: [shard_count, regions, bytes]}`` aggregates."""
        out: dict = {}
        for shard in self.shards:
            entry = out.setdefault(shard.chrom, [0, 0, 0])
            entry[0] += 1
            entry[1] += shard.regions
            entry[2] += shard.size_bytes
        return out

    def summary(self) -> dict:
        """JSON-able form published in dataset info summaries."""
        return {"clustered": self.clustered, "chroms": self.chrom_stats()}


def is_chromosome_clustered(dataset: Dataset) -> bool:
    """Whether every sample's regions are one run per chromosome, in
    genome order -- the precondition for order-preserving shard merge."""
    for sample in dataset:
        chroms = [chrom for chrom, __ in sample.chromosome_runs()]
        if len(set(chroms)) != len(chroms):
            return False
        keys = [chromosome_sort_key(chrom) for chrom in chroms]
        if keys != sorted(keys):
            return False
    return True


def chromosome_names_tie(chroms) -> bool:
    """Whether two of *chroms* share a genome-order sort key.

    Tied names (``chr1``/``chr01``) have no order between them, so
    interleaving per-chromosome partials could emit them in another
    order than one unsharded run does: callers must not split them.
    """
    names = set(chroms)
    return len(set(map(chromosome_sort_key, names))) < len(names)


def dataset_manifest(dataset: Dataset) -> ShardManifest:
    """The (sample, chromosome) shard manifest of *dataset*.

    Per-shard bytes use the same cost model as
    :meth:`Dataset.estimated_size_bytes` (32 bytes/region plus 12 per
    variable value); metadata bytes are not sharded -- slices carry the
    whole metadata of every sample.
    """
    per_region = 32 + 12 * len(dataset.schema)
    shards = []
    for sample in dataset:
        counts: dict = {}
        for region in sample.regions:
            counts[region.chrom] = counts.get(region.chrom, 0) + 1
        for chrom in sorted(counts, key=chromosome_sort_key):
            shards.append(
                Shard(
                    dataset=dataset.name,
                    sample_id=sample.id,
                    chrom=chrom,
                    regions=counts[chrom],
                    size_bytes=counts[chrom] * per_region,
                )
            )
    return ShardManifest(
        dataset=dataset.name,
        shards=tuple(shards),
        clustered=is_chromosome_clustered(dataset),
    )


def slice_dataset(dataset: Dataset, chroms) -> Dataset:
    """The shard slice of *dataset* on *chroms* (same name and schema).

    Every sample is kept -- with only its regions on *chroms*, in their
    original relative order -- so sample ids, metadata and positional
    result numbering are identical across slices.
    """
    wanted = frozenset(chroms)
    samples = []
    for sample in dataset:
        regions = [r for r in sample.regions if r.chrom in wanted]
        samples.append(
            sample if len(regions) == len(sample.regions)
            else sample.with_regions(regions)
        )
    return dataset.with_samples(samples)


def partition_chromosomes(weights: dict, count: int) -> tuple:
    """Greedy longest-processing-time split of chromosomes into at most
    *count* balanced groups.

    *weights* maps chromosome to a load figure (bytes or regions).
    Deterministic: ties break on genome order; groups come out in genome
    order of their first chromosome and empty groups are dropped.
    """
    if count <= 0:
        raise ValueError(f"shard group count must be positive, got {count}")
    order = sorted(
        weights,
        key=lambda chrom: (-weights[chrom], chromosome_sort_key(chrom)),
    )
    groups = [[] for __ in range(min(count, len(order)))]
    loads = [0] * len(groups)
    for chrom in order:
        target = loads.index(min(loads))
        groups[target].append(chrom)
        loads[target] += weights[chrom]
    out = [
        tuple(sorted(group, key=chromosome_sort_key))
        for group in groups if group
    ]
    out.sort(key=lambda group: chromosome_sort_key(group[0]))
    return tuple(out)
