"""Genomic Data Model (GDM): regions + metadata, the paper's section 2.

The model has just two entities.  *Regions* have five fixed attributes
(sample id, chromosome, left end, right end, strand) plus dataset-specific
typed variable attributes; *metadata* are (id, attribute, value) triples.
Samples with the same region schema form named datasets, and *schema
merging* makes heterogeneous processed data interoperable.
"""

from repro.gdm.dataset import Dataset, region
from repro.gdm.digest import dataset_digest, results_digest
from repro.gdm.metadata import Metadata
from repro.gdm.region import GenomicRegion, STRANDS, chromosome_sort_key
from repro.gdm.render import render_tables, render_tracks
from repro.gdm.sample import RegionList, Sample, renumber
from repro.gdm.schema import (
    AttributeDef,
    AttributeType,
    BOOL,
    FIXED_ATTRIBUTES,
    FLOAT,
    INT,
    MergedSchema,
    RegionSchema,
    STR,
    infer_type,
    type_named,
)

__all__ = [
    "AttributeDef",
    "AttributeType",
    "BOOL",
    "Dataset",
    "FIXED_ATTRIBUTES",
    "FLOAT",
    "GenomicRegion",
    "INT",
    "MergedSchema",
    "Metadata",
    "RegionList",
    "RegionSchema",
    "STR",
    "STRANDS",
    "Sample",
    "chromosome_sort_key",
    "dataset_digest",
    "infer_type",
    "region",
    "renumber",
    "results_digest",
    "render_tables",
    "render_tracks",
    "type_named",
]
