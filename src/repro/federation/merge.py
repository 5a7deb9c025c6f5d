"""Partial-aggregate parsing and parent-side shard merge.

A node executing a shard sub-plan stages its outputs in the same
serialised form every staged result uses
(:func:`repro.repository.staging._serialise_sections`), so partials
stream back over the existing chunked/checksummed transfer protocol --
or arrive as spill-file handles when the node is co-resident.  This
module turns those byte sections back into datasets and interleaves
per-chromosome partials into one result.

Merge guarantee: because aggregation boundaries align with the
chromosome sharding (MAP aggregates per reference region, COVER depths
per position -- never across chromosomes), the node-local kernels
already computed final values with ``segment_reduce``/``segment_fsum``;
the parent only *interleaves* chromosome runs in genome order and never
re-aggregates, so merged results are byte-identical to single-node
execution on clustered inputs.
"""

from __future__ import annotations

from repro.errors import FederationError
from repro.formats.bed import CustomBedFormat, schema_from_header, schema_to_header
from repro.formats.meta import parse_meta, text_lines
from repro.gdm import Dataset, Metadata, Sample, chromosome_sort_key
from repro.store.persist import BLOB_HEADER, map_blob


def parse_staged_sections(meta_blob: bytes, region_blob: bytes,
                          name: str) -> Dataset:
    """Rebuild a dataset from its staged (meta, regions) byte sections.

    Inverse of the staging serialisation: the metadata section carries
    the schema header and per-sample metadata, the region section the
    per-sample region rows in the custom BED layout.
    """
    schema = None
    meta_by_sample: dict = {}
    current_id = None
    current_lines: list = []

    def flush_meta():
        if current_id is not None:
            meta_by_sample[current_id] = parse_meta("\n".join(current_lines))

    for line in text_lines(meta_blob.decode()):
        if line.startswith("#schema\t"):
            schema = schema_from_header(line.split("\t", 1)[1])
        elif line.startswith("#sample\t"):
            flush_meta()
            current_id = int(line.split("\t", 1)[1])
            current_lines = []
        elif line:
            current_lines.append(line)
    flush_meta()
    if schema is None:
        raise FederationError(
            f"staged result for {name!r} carries no schema header"
        )
    # Every group of lines is parsed (and so checked) in blob order, the
    # lines before the first sample header too, under the key ``None``;
    # a repeated header's last group wins.
    groups: list = [(None, [])]
    for line in text_lines(region_blob.decode()):
        if line.startswith("#sample\t"):
            groups.append((int(line.split("\t", 1)[1]), []))
        elif line:
            groups[-1][1].append(line)
    region_format = CustomBedFormat(schema)
    regions_by_sample = {
        sample_id: _parse_region_lines(region_format, lines)
        for sample_id, lines in groups
    }
    samples = [
        Sample(sample_id,
               regions_by_sample.get(sample_id, []),
               meta_by_sample.get(sample_id, Metadata()))
        for sample_id in sorted(meta_by_sample)
    ]
    return Dataset(name, schema, samples, validate=False)


def _parse_region_lines(region_format: CustomBedFormat, lines: list):
    """One staged sample's region lines, as columns when they convert
    (:meth:`CustomBedFormat.column_rows`), else line by line -- which
    raises the line parser's own error."""
    rows = region_format.column_rows("\n".join(lines))
    if rows is None:
        rows = [region_format.parse_line(line.split("\t")) for line in lines]
    return rows


def read_blob_sections(path: str) -> tuple | None:
    """``(meta_blob, region_blob)`` of a staged spill file, or ``None``.

    The co-resident fast path: instead of streaming chunks, a node hands
    the client the path of its content-addressed spill file and the
    client maps it read-only (PR 6 handle protocol).  The map is copied
    out and closed immediately -- the caller keeps plain bytes.
    """
    mapped = map_blob(path)
    if mapped is None:
        return None
    mapping, meta_len, region_len = mapped
    try:
        base = BLOB_HEADER.size
        meta = bytes(mapping[base:base + meta_len])
        regions = bytes(mapping[base + meta_len:base + meta_len + region_len])
    finally:
        mapping.close()
    return meta, regions


def split_sections(payload: bytes, meta_len: int) -> tuple:
    """Split a streamed chunk concatenation into its two sections."""
    return payload[:meta_len], payload[meta_len:]


def merge_partials(partials: list, name: str | None = None) -> Dataset:
    """Interleave per-shard partial datasets into one result.

    Every partial must carry the same schema and the same sample id
    sequence (slices keep all samples, and result numbering is
    positional, so aligned partials are guaranteed for shardable
    plans).  For each sample, each chromosome's run is taken from the
    unique partial that produced regions on it; runs interleave in
    genome order.  Two partials producing the same (sample, chromosome)
    means the placement double-assigned a shard -- an error, not a
    merge.
    """
    if not partials:
        raise FederationError("nothing to merge: no partial results")
    if len(partials) == 1:
        # A single partial is already the complete result (and need not
        # be chromosome-clustered -- the degenerate one-group path runs
        # arbitrary plans on one node).
        only = partials[0]
        if name is not None and only.name != name:
            return only.with_name(name)
        return only
    first = partials[0]
    header = schema_to_header(first.schema)
    ids = first.sample_ids
    for other in partials[1:]:
        if schema_to_header(other.schema) != header:
            raise FederationError(
                f"partials of {first.name!r} disagree on schema"
            )
        if other.sample_ids != ids:
            raise FederationError(
                f"partials of {first.name!r} disagree on sample ids: "
                f"{ids} vs {other.sample_ids}"
            )
    merged_samples = []
    for sample_id in ids:
        runs: dict = {}
        for partial in partials:
            sample = partial[sample_id]
            end = 0
            for chrom, count in sample.chromosome_runs():
                if chrom in runs:
                    raise FederationError(
                        f"shard overlap: sample {sample_id} has "
                        f"{chrom!r} regions in two partials"
                    )
                start, end = end, end + count
                runs[chrom] = sample.regions[start:end]
        regions = [
            region
            for chrom in sorted(runs, key=chromosome_sort_key)
            for region in runs[chrom]
        ]
        merged_samples.append(first[sample_id].with_regions(regions))
    merged = first.with_samples(merged_samples, name=name or first.name)
    merged.provenance = list(first.provenance)
    return merged
