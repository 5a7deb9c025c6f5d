"""BED: the lingua franca of processed genomic regions.

Implements BED3 through BED6 plus the generic "BED with custom schema" that
GMQL repositories use: the first three (optionally six) columns are the
fixed coordinates, the remaining columns are variable attributes declared by
a :class:`~repro.gdm.schema.RegionSchema`.
"""

from __future__ import annotations

import re
from itertools import chain, groupby, islice, repeat
from operator import contains
from typing import IO, Iterable, Iterator

import numpy as np

from repro.errors import CoordinateError, FormatError, SchemaError
from repro.formats.base import RegionFormat
from repro.gdm import FLOAT, GenomicRegion, RegionSchema, STR
from repro.gdm.sample import ColumnRows, Sample, listed

#: :meth:`RegionFormat.parse_strand`'s mapping, as a lookup table.
_STRAND_FIELDS = {"+": "+", "-": "-", ".": "*", "*": "*", "": "*"}
#: :meth:`RegionFormat.format_strand`'s mapping, as a lookup table.
_STRAND_TEXT = {"+": "+", "-": "-", "*": "."}
#: The ``"\r"``s ending a line or the document: what the line parser's
#: ``rstrip("\r")`` removes.
_TRAILING_CR = re.compile("\r+(?=\n|\\Z)")
#: Rows formatted into one piece of text: large enough that per-piece
#: overhead vanishes, small enough that the text of a big sample never
#: has to exist at once.
_ROWS_PER_CHUNK = 2048


class BedFormat(RegionFormat):
    """Standard BED6: chrom, start, end, name, score, strand.

    Shorter lines degrade gracefully (BED3/BED4/BED5); missing fields
    become missing values.  The variable schema is
    ``(name STR, score FLOAT)``.
    """

    name = "bed"
    extensions = (".bed",)

    def schema(self) -> RegionSchema:
        return RegionSchema.of(("name", STR), ("score", FLOAT))

    def parse_line(self, fields: list) -> GenomicRegion:
        self.require(fields, 3)
        chrom = fields[0]
        left, right = int(fields[1]), int(fields[2])
        name = fields[3] if len(fields) > 3 and fields[3] != "." else None
        score = None
        if len(fields) > 4 and fields[4] not in (".", ""):
            score = float(fields[4])
        strand = self.parse_strand(fields[5]) if len(fields) > 5 else "*"
        return GenomicRegion(chrom, left, right, strand, (name, score))

    def format_region(self, region: GenomicRegion) -> str:
        name = region.values[0] if len(region.values) > 0 else None
        score = region.values[1] if len(region.values) > 1 else None
        return "\t".join(
            [
                region.chrom,
                str(region.left),
                str(region.right),
                "." if name is None else str(name),
                "." if score is None else f"{float(score):g}",
                self.format_strand(region.strand),
            ]
        )


class CustomBedFormat(RegionFormat):
    """BED-like file with a caller-declared variable schema.

    Layout: ``chrom  left  right  strand  v1  v2 ...`` where the ``v``
    columns follow *schema*.  This is the on-disk sample layout of the
    GMQL repository and of :class:`repro.repository.catalog.DatasetStore`.
    """

    name = "gdm"
    extensions = (".gdm",)

    def __init__(self, schema: RegionSchema) -> None:
        self._schema = schema

    def schema(self) -> RegionSchema:
        return self._schema

    def parse_columns(self, source: str | IO[str]) -> ColumnRows | list:
        """Parse a whole document into columns: the GDM repository read.

        The rows come back as :class:`~repro.gdm.sample.ColumnRows` in
        file order (see :meth:`column_rows`), no region object built.
        The document less its final newline (and each line's trailing
        ``"\\r"``) is tried as it is, which is what
        :func:`~repro.formats.meta.write_dataset` writes.  A blank line
        fails that try and a comment line fails it or heads a
        chromosome run, so only then is the document split into lines
        and tried without them.  A whitespace-only line fails both and
        reaches the line parser, which skips it.  A document some column
        of which fails to convert goes through :meth:`parse` instead,
        which raises its line-numbered error -- or, for coordinates
        beyond int64, returns its region list.
        """
        text = source if isinstance(source, str) else source.read()
        if "\r" in text:
            text = _TRAILING_CR.sub("", text)
        body = text[:-1] if text.endswith("\n") else text
        prefixes = self.comment_prefixes
        rows = self.column_rows(body)
        if rows is None or any(
            chrom.startswith(prefixes) for chrom, __ in rows.runs
        ):
            rows = self.column_rows("\n".join([
                line for line in body.split("\n")
                if line and not line.startswith(prefixes)
            ]))
        return self.parse(text) if rows is None else rows

    def column_rows(self, body: str) -> ColumnRows | None:
        """Region lines joined by ``"\\n"`` (no comment or blank line,
        no final newline) as columns, or ``None``.

        The body is split once on ``"\\t"`` into one flat list of
        fields, so no per-line container is built.  With ``count`` lines
        of ``width`` fields that list holds ``count * (width - 1) + 1``
        pieces, and every piece at a multiple of ``width - 1`` is a
        junction ``last\\nfirst`` of two consecutive lines.  The count
        alone would let a short and a long line cancel out; the count
        plus a newline in every junction holds only when every line has
        *width* fields.  Each column is then a stride of the list (the
        first and last from the junctions split once more on the
        newline) and is converted once: coordinates with ``int`` into
        int64 arrays, strands through :meth:`parse_strand`'s mapping,
        values through their type's
        :meth:`~repro.gdm.schema.AttributeType.parse_column`, so every
        value is the one :meth:`parse_line` gives.  ``None`` when any
        check or conversion fails: a ragged line, a bad strand, a
        non-integer or beyond-int64 coordinate, a value or region the
        line parser rejects -- the caller then parses line by line.
        """
        if not body:
            return ColumnRows([], np.empty(0, np.int64),
                              np.empty(0, np.int64), [],
                              [[] for __ in self._schema])
        step = 3 + len(self._schema)
        count = body.count("\n") + 1
        pieces = body.split("\t")
        if len(pieces) != count * step + 1:
            return None
        junctions = pieces[step:-1:step]
        if not all(map(contains, junctions, repeat("\n"))):
            return None
        # One newline per junction: ``last_0, first_1, last_1, ...``.
        ends = "\n".join(junctions).split("\n") if junctions else []
        chroms = [pieces[0], *ends[1::2]]
        lefts, rights, *middle = (
            pieces[column::step] for column in range(1, step)
        )
        strands, *values = (*middle, [*ends[0::2], pieces[-1]])
        try:
            return ColumnRows(
                [(chrom, len(list(run))) for chrom, run in groupby(chroms)],
                np.fromiter(map(int, lefts), np.int64, count),
                np.fromiter(map(int, rights), np.int64, count),
                list(map(_STRAND_FIELDS.__getitem__, strands)),
                [
                    definition.type.parse_column(column)
                    for definition, column in zip(self._schema, values)
                ],
            )
        except (ValueError, OverflowError, KeyError, CoordinateError,
                SchemaError):
            return None

    def parse_line(self, fields: list) -> GenomicRegion:
        """One line's region: the fallback of :meth:`parse_columns`."""
        self.require(fields, 4)
        chrom = fields[0]
        left, right = int(fields[1]), int(fields[2])
        strand = self.parse_strand(fields[3])
        raw_values = fields[4:]
        if len(raw_values) != len(self._schema):
            raise FormatError(
                f"{len(raw_values)} variable fields for "
                f"{len(self._schema)}-attribute schema"
            )
        values = tuple(
            definition.type.parse(text)
            for definition, text in zip(self._schema, raw_values)
        )
        return GenomicRegion(chrom, left, right, strand, values)

    def serialize(self, regions: ColumnRows | Iterable[GenomicRegion]) -> str:
        """Serialise regions, or rows held as columns, to a document."""
        if isinstance(regions, ColumnRows):
            return "".join(self.column_chunks(regions))
        return super().serialize(regions)

    def serialize_sample(self, sample: Sample) -> Iterator[str]:
        """A sample's document in pieces, from its column view
        (:meth:`~repro.gdm.sample.Sample.columns`); rows of unequal
        width, which have none, are formatted region by region."""
        rows = sample.columns()
        if rows is None:
            return iter([super().serialize(sample.regions)])
        return self.column_chunks(rows)

    def column_chunks(self, rows: ColumnRows) -> Iterator[str]:
        """The document of *rows*, :data:`_ROWS_PER_CHUNK` lines a piece.

        Each piece is built a column at a time -- coordinates by ``str``
        over the listed array, strands through :meth:`format_strand`'s
        table, values through their type's
        :meth:`~repro.gdm.schema.AttributeType.format_column` -- and its
        bytes are those :meth:`format_region` gives row by row.
        """
        chroms = chain.from_iterable(
            repeat(chrom, count) for chrom, count in rows.runs
        )
        typed = list(zip(self._schema.types, rows.values))
        for start in range(0, len(rows), _ROWS_PER_CHUNK):
            stop = start + _ROWS_PER_CHUNK
            fields = zip(
                list(islice(chroms, _ROWS_PER_CHUNK)),
                map(str, rows.lefts[start:stop].tolist()),
                map(str, rows.rights[start:stop].tolist()),
                map(_STRAND_TEXT.__getitem__, rows.strands[start:stop]),
                *(
                    attr_type.format_column(listed(column[start:stop]))
                    for attr_type, column in typed
                ),
            )
            yield "\n".join(map("\t".join, fields)) + "\n"

    def format_region(self, region: GenomicRegion) -> str:
        fields = [
            region.chrom,
            str(region.left),
            str(region.right),
            self.format_strand(region.strand),
        ]
        for definition, value in zip(self._schema, region.values):
            fields.append(definition.type.format(value))
        return "\t".join(fields)


def schema_to_header(schema: RegionSchema) -> str:
    """Serialise a schema to the one-line header used by ``.schema`` files."""
    return "\t".join(f"{d.name}:{d.type.name}" for d in schema)


def schema_from_header(header: str) -> RegionSchema:
    """Parse a schema header line produced by :func:`schema_to_header`."""
    header = header.strip()
    if not header:
        return RegionSchema.empty()
    pairs = []
    for token in header.split("\t"):
        if ":" not in token:
            raise FormatError(f"bad schema token {token!r}")
        name, type_name = token.rsplit(":", 1)
        pairs.append((name, type_name))
    return RegionSchema.of(*pairs)
