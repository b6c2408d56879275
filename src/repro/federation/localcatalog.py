"""A local MCS participating in a federation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.catalog import MetadataCatalog
from repro.core.client import MCSClient
from repro.core.model import ObjectType
from repro.core.service import MCSService
from repro.rls.softstate import BloomFilter


@dataclass
class CatalogSummary:
    """Soft-state summary of one local catalog's discovery information.

    Carries, per user-defined attribute, a Bloom filter of the *string
    values* present plus numeric [min, max] ranges — enough for an index
    node to rule catalogs in or out without holding their contents.
    """

    catalog_id: str
    sequence: int
    attribute_names: frozenset[str]
    string_values: dict[str, BloomFilter]
    numeric_ranges: dict[str, tuple[float, float]]
    file_count: int

    def might_match(self, attribute: str, op: str, value: Any) -> bool:
        """Could this catalog hold objects matching the condition?

        Conservative: unknown attribute → False; unknown shape → True.
        """
        if attribute not in self.attribute_names:
            return False
        if op == "=" and isinstance(value, str):
            bloom = self.string_values.get(attribute)
            if bloom is not None:
                return value in bloom
            return True
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            bounds = self.numeric_ranges.get(attribute)
            if bounds is None:
                return True
            low, high = bounds
            if op == "=":
                return low <= value <= high
            if op in ("<", "<="):
                return low < value or (op == "<=" and low <= value)
            if op in (">", ">="):
                return high > value or (op == ">=" and high >= value)
        return True


class LocalMCS:
    """One federation member: a full MCS plus summary generation."""

    def __init__(self, catalog_id: str) -> None:
        self.catalog_id = catalog_id
        self.catalog = MetadataCatalog()
        self.service = MCSService(self.catalog)
        self.client = MCSClient.in_process(self.service, caller=f"site:{catalog_id}")
        self._sequence = 0

    def make_summary(self) -> CatalogSummary:
        """Scan attribute values and build the next soft-state summary."""
        self._sequence += 1
        conn = self.catalog._conn
        names: set[str] = set()
        string_values: dict[str, list[str]] = {}
        numeric_ranges: dict[str, tuple[float, float]] = {}
        rows = conn.execute(
            "SELECT d.name, v.value "
            "FROM attribute_value v JOIN attribute_def d ON v.attr_id = d.id"
        ).fetchall()
        for name, value in rows:
            names.add(name)
            # Strings go to the Bloom filter, numbers to the range; any
            # other value (a temporal) only names its attribute.
            if isinstance(value, str):
                string_values.setdefault(name, []).append(value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                low, high = numeric_ranges.get(name, (value, value))
                numeric_ranges[name] = (min(low, value), max(high, value))
        blooms = {
            name: BloomFilter.from_items(values)
            for name, values in string_values.items()
        }
        file_count = conn.execute("SELECT COUNT(*) FROM logical_file").scalar()
        return CatalogSummary(
            catalog_id=self.catalog_id,
            sequence=self._sequence,
            attribute_names=frozenset(names),
            string_values=blooms,
            numeric_ranges=numeric_ranges,
            file_count=file_count,
        )
