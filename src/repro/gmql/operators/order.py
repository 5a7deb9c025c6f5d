"""ORDER/SORT: order samples by metadata and regions by attributes, with top-k.

ORDER supports the paper's "short and ranked" result philosophy (section
4.4): biologically inspired queries rank their outputs, and top-k keeps
transmitted results small.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import EvaluationError
from repro.gdm import Dataset
from repro.gmql.operators.base import build_result

#: Sort key placed after all comparable values so missing sorts last.
_MISSING = (1,)
_PRESENT = (0,)


def _meta_sort_value(sample, attribute: str):
    value = sample.meta.first(attribute)
    if value is None:
        return _MISSING + ((),)
    try:
        return _PRESENT + ((0, float(value)),)
    except (TypeError, ValueError):
        return _PRESENT + ((1, str(value)),)


def order(
    dataset: Dataset,
    meta_keys: Iterable[tuple] | None = None,
    top: int | None = None,
    region_keys: Iterable[tuple] | None = None,
    region_top: int | None = None,
    name: str | None = None,
) -> Dataset:
    """GMQL ORDER.

    Parameters
    ----------
    dataset:
        The operand.
    meta_keys:
        ``[(metadata_attribute, "ASC"|"DESC"), ...]`` ordering the samples.
    top:
        Keep only the first *top* samples after ordering.
    region_keys:
        ``[(region_attribute, "ASC"|"DESC"), ...]`` ordering each sample's
        regions (fixed attributes ``left``/``right`` are allowed).
    region_top:
        Keep only the first *region_top* regions per sample.
    name:
        Result dataset name.
    """
    for keys in (meta_keys, region_keys):
        for __, direction in keys or ():
            if direction not in ("ASC", "DESC"):
                raise EvaluationError(
                    f"ORDER: direction must be ASC or DESC, got {direction!r}"
                )

    samples = list(dataset)
    for attribute, direction in reversed(tuple(meta_keys or ())):
        samples.sort(
            key=lambda s: _meta_sort_value(s, attribute),
            reverse=(direction == "DESC"),
        )
    if top is not None:
        samples = samples[: max(0, top)]

    region_sorters = []
    for attribute, direction in region_keys or ():
        if attribute == "left":
            getter = lambda r: r.left  # noqa: E731
        elif attribute == "right":
            getter = lambda r: r.right  # noqa: E731
        else:
            index = dataset.schema.index_of(attribute)
            getter = lambda r, i=index: r.values[i]  # noqa: E731
        region_sorters.append((getter, direction == "DESC"))

    def order_regions(regions: list) -> list:
        if not region_sorters and region_top is None:
            # Ordering samples only: hand the list (and the blocks and
            # columns memoised on it) through unchanged.
            return regions
        ordered = list(regions)
        for getter, descending in reversed(region_sorters):
            # Missing values sort last regardless of direction, so
            # partition them out before sorting the comparable values.
            present = [r for r in ordered if getter(r) is not None]
            missing = [r for r in ordered if getter(r) is None]
            present.sort(key=getter, reverse=descending)
            ordered = present + missing
        if region_top is not None:
            ordered = ordered[: max(0, region_top)]
        return ordered

    def parts():
        for position, sample in enumerate(samples, start=1):
            meta = sample.meta.with_pairs([("order", position)])
            yield (
                order_regions(sample.regions),
                meta,
                [(dataset.name, sample.id)],
            )

    described = ",".join(f"{a}:{d}" for a, d in (meta_keys or ()))
    return build_result(
        "ORDER",
        name or f"ORDER({dataset.name})",
        dataset.schema,
        parts(),
        parameters=described or "regions",
    )
