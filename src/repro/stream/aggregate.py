"""Incremental drag aggregation in O(sites) memory.

:class:`StreamingDragAnalysis` consumes one record at a time and
maintains exactly the aggregates the batch
:class:`repro.core.analyzer.DragAnalysis` keeps — per-site
count/bytes/drag/in-use sums, the never-used partition, and the nested
and (site, last-use) partitions — without ever holding the records
themselves. Both share :class:`~repro.core.analyzer.Partitions`: the
same per-record derivation, totals and sorted views, so the two
analyses agree exactly on any stream (the equivalence is pinned by
``tests/stream/test_aggregate.py`` on real benchmark profiles).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.analyzer import Partitions, SiteStats
from repro.core.trailer import ObjectRecord

__all__ = ["SiteStats", "StreamingDragAnalysis"]


class StreamingDragAnalysis(Partitions):
    """One-pass, bounded-memory analyzer over a record stream.

    Keeps the partitions of the batch analyzer as :class:`SiteStats`
    (running sums without records): ``by_site`` (plain allocation
    site), ``by_nested`` (call chain), and ``by_site_and_use``
    ((site, last-use frame)). Feed it with :meth:`add` — directly, via
    an :class:`~repro.stream.sinks.AggregatorSink` during a live run,
    or from a log with :meth:`consume`.
    """

    def __init__(self, include_library_sites: bool = True) -> None:
        super().__init__()
        self.include_library_sites = include_library_sites
        self.end_time: Optional[int] = None
        # Optional attached repro.obs.timeline.TimelineBuilder (duck
        # typed so this module never imports obs). When present it sees
        # *every* record, before the excluded/library filters: the
        # timeline is a log-level view, which is what keeps it
        # bit-identical to a recompute from the raw v2 log.
        self.timeline = None

    # -- ingestion --------------------------------------------------------

    def add(self, record: ObjectRecord) -> None:
        """Fold one record in; applies the same excluded/library filter
        as the batch analyzer's constructor."""
        if self.timeline is not None:
            self.timeline.add(record)
        if record.excluded:
            return
        if not self.include_library_sites and record.site_is_library:
            return
        self._add(record)

    def consume(self, records) -> "StreamingDragAnalysis":
        """Fold in an iterable of records (e.g. ``iter_log(path)``);
        returns self for chaining."""
        for record in records:
            self.add(record)
        return self

    # -- merge ------------------------------------------------------------

    def merge(self, other: "StreamingDragAnalysis") -> "StreamingDragAnalysis":
        """Fold another aggregator (e.g. from a sharded run) into this
        one; per-site sums are associative so the result equals a
        single-stream analysis of the concatenated logs."""
        self.sampled = self.sampled or other.sampled
        self._totals = None
        for table_name in ("by_site", "by_nested", "by_site_and_use"):
            mine: Dict[object, SiteStats] = getattr(self, table_name)
            theirs: Dict[object, SiteStats] = getattr(other, table_name)
            for key, stats in theirs.items():
                existing = mine.get(key)
                if existing is None:
                    existing = mine[key] = SiteStats(key)
                existing.merge(stats)
        other_timeline = getattr(other, "timeline", None)
        if other_timeline is not None:
            if self.timeline is None:
                self.timeline = other_timeline.empty_like()
            self.timeline.merge(other_timeline)
        if other.end_time is not None:
            if self.end_time is None:
                self.end_time = other.end_time
            else:
                self.end_time = max(self.end_time, other.end_time)
        return self
