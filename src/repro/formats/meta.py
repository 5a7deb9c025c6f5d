"""GDM metadata files and whole-dataset directory serialisation.

Metadata files follow the GMQL repository convention: one
``<attribute>\\t<value>`` pair per line, one ``.meta`` file per sample
file.  :func:`write_dataset` / :func:`read_dataset` persist a full dataset
as a directory::

    DATASET_DIR/
      schema.txt          # one line, see bed.schema_to_header
      S_00001.gdm         # region rows of sample 1
      S_00001.gdm.meta    # metadata pairs of sample 1
      ...

:func:`read_dataset` reads each sample file into columns
(:meth:`~repro.formats.bed.CustomBedFormat.parse_columns`), so a source
is born as columns: its row count, chromosome runs, strands, store
blocks and content digest are all answered from them, and its
:class:`~repro.gdm.GenomicRegion` objects are built only when something
asks for ``sample.regions`` -- an operator that reads region objects
(JOIN's row gather, MAP's reference, region SELECT, the object
operators).  A sample file the column parse cannot convert is read line
by line instead, with that parser's errors.  :func:`write_dataset`
writes each sample from its column view
(:meth:`~repro.formats.bed.CustomBedFormat.serialize_sample`), so
writing a result born as columns builds no region object either.
"""

from __future__ import annotations

import os
import re
from typing import IO

from repro.errors import FormatError
from repro.formats.bed import CustomBedFormat, schema_from_header, schema_to_header
from repro.gdm import Dataset, Metadata, Sample

_SAMPLE_FILE = re.compile(r"^S_(\d+)\.gdm$")


def parse_meta(source: str | IO[str]) -> Metadata:
    """Parse a ``.meta`` document into a :class:`Metadata` instance."""
    text = source if isinstance(source, str) else source.read()
    pairs = []
    for line_number, line in enumerate(text_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" not in line:
            raise FormatError(f"meta: line {line_number}: expected TAB separator")
        attribute, value = line.split("\t", 1)
        if not attribute:
            raise FormatError(f"meta: line {line_number}: empty attribute")
        pairs.append((attribute, _parse_value(value)))
    return Metadata.from_pairs(pairs)


def text_lines(text: str) -> list:
    """The lines of a document the writers ended with ``"\\n"``, each
    without a trailing ``"\\r"``.  Unlike ``str.splitlines``, no other
    character (``"\\x0c"``, ``"\\u2028"``, ...) ends a line, so a value
    holding one reads back as written."""
    lines = text.split("\n")
    return [line.rstrip("\r") for line in lines] if "\r" in text else lines


def serialize_meta(meta: Metadata) -> str:
    """Serialise metadata to the ``.meta`` pair-per-line layout."""
    return "".join(f"{attribute}\t{value}\n" for attribute, value in meta)


def _parse_value(text: str):
    """Best-effort typing of metadata values: int, then float, else str.

    A value is a number only when writing that number gives back the
    same text (``str`` of the int, ``repr`` of the float), so a string
    ``int``/``float`` would also accept -- ``' 5'``, ``'1_000'``,
    ``'1e3'`` -- stays the string :func:`serialize_meta` wrote.
    ``'nan'`` and ``'inf'`` still read as floats: they are those
    floats' own text.
    """
    try:
        number = int(text)
    except ValueError:
        pass
    else:
        if str(number) == text:
            return number
    try:
        number = float(text)
    except ValueError:
        pass
    else:
        if repr(number) == text:
            return number
    return text


def write_dataset(dataset: Dataset, directory: str) -> None:
    """Persist *dataset* as a GMQL-style repository directory."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "schema.txt"), "w") as handle:
        handle.write(schema_to_header(dataset.schema) + "\n")
    region_format = CustomBedFormat(dataset.schema)
    for sample in dataset:
        base = os.path.join(directory, f"S_{sample.id:05d}.gdm")
        with open(base, "w") as handle:
            handle.writelines(region_format.serialize_sample(sample))
        with open(base + ".meta", "w") as handle:
            handle.write(serialize_meta(sample.meta))


def read_dataset(directory: str, name: str | None = None) -> Dataset:
    """Load a dataset previously written by :func:`write_dataset`."""
    schema_path = os.path.join(directory, "schema.txt")
    if not os.path.exists(schema_path):
        raise FormatError(f"no schema.txt in {directory!r}")
    with open(schema_path) as handle:
        schema = schema_from_header(handle.readline())
    region_format = CustomBedFormat(schema)
    dataset = Dataset(name or os.path.basename(directory.rstrip("/")), schema)
    for entry in sorted(os.listdir(directory)):
        match = _SAMPLE_FILE.match(entry)
        if not match:
            continue
        sample_id = int(match.group(1))
        # ``newline=""``: a ``"\r"`` inside a value is not a line end;
        # both parsers strip the ``"\r"`` of a CRLF line themselves.
        with open(os.path.join(directory, entry), newline="") as handle:
            regions = region_format.parse_columns(handle)
        meta_path = os.path.join(directory, entry + ".meta")
        meta = Metadata()
        if os.path.exists(meta_path):
            with open(meta_path, newline="") as handle:
                meta = parse_meta(handle)
        dataset.add_sample(Sample(sample_id, regions, meta), validate=False)
    return dataset
