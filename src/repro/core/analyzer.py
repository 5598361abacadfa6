"""Phase 2: the off-line drag analyzer (§2.2).

Partitions dragged objects by allocation site, by *nested* allocation
site (call chain), and by (allocation site, last-use site); sums the
drag space-time product per group; maintains the special partition of
*never-used* objects; and sorts groups by drag — "allocation sites
having a large drag suggest a potential for significant space savings".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.sampler import WeightedTotal
from repro.core.trailer import ObjectRecord


def drag_terms(record: ObjectRecord) -> Tuple[int, int, int, float, bool]:
    """``(size, drag, in_use, weight, never_used)`` of one record: the
    single derivation every aggregate folds, so a record's drag is
    computed once per analysis instead of once per partition and per
    total. ``drag`` and ``in_use`` are the space-time products
    size x drag time and size x in-use time (definitions in
    :mod:`repro.core.trailer`)."""
    size = record.size
    last_use = record.last_use_time
    if last_use == 0:
        drag_time = record.collection_time - record.creation_time
        in_use = 0
    else:
        drag_time = record.collection_time - last_use
        in_use = size * (last_use - record.creation_time)
    drag = size * drag_time if drag_time > 0 else 0
    return size, drag, in_use, record.weight, last_use == 0


class SiteStats:
    """Running aggregates for one partition key (a site label, a
    nested-site chain, or a (site, last-use-site) pair).

    The streaming analyzer keeps only these; :class:`SiteGroup` adds
    the record list the report needs. The report/sort paths read the
    running sums and never rescan records.
    """

    __slots__ = (
        "key",
        "count",
        "total_bytes",
        "total_drag",
        "total_in_use",
        "never_used_count",
        "never_used_drag",
        "_est_count",
        "_est_bytes",
        "_est_drag",
        "_est_in_use",
        "_est_never_used_drag",
        "type_names",
    )

    def __init__(self, key) -> None:
        self.key = key
        self.count = 0
        self.total_bytes = 0
        self.total_drag = 0  # drag space-time products, bytes^2
        self.total_in_use = 0
        self.never_used_count = 0
        self.never_used_drag = 0
        # Weight-corrected (Horvitz-Thompson) estimates. For full-rate
        # profiles every weight is 1.0 and each contribution is the
        # exact int, so these stay equal — as ints — to the observed
        # sums above. WeightedTotal keeps the float part exact
        # (order-independent), which is what lets batch, streaming, and
        # sharded-merge analyses agree bit for bit on sampled data.
        self._est_count = WeightedTotal()
        self._est_bytes = WeightedTotal()
        self._est_drag = WeightedTotal()
        self._est_in_use = WeightedTotal()
        self._est_never_used_drag = WeightedTotal()
        self.type_names: List[str] = []  # insertion-ordered, deduplicated

    def add(self, record: ObjectRecord, terms: Optional[tuple] = None) -> None:
        """Fold one record in; ``terms`` is its :func:`drag_terms` when
        the caller already derived them."""
        size, drag, in_use, weight, never_used = terms or drag_terms(record)
        self.count += 1
        self.total_bytes += size
        self.total_drag += drag
        self.total_in_use += in_use
        if weight == 1.0:
            # WeightedTotal's int path, without the per-add type check.
            self._est_count.ints += 1
            self._est_bytes.ints += size
            self._est_drag.ints += drag
            self._est_in_use.ints += in_use
            est_drag = drag
        else:
            self._est_count.add(weight)
            self._est_bytes.add(weight * size)
            est_drag = weight * drag
            self._est_drag.add(est_drag)
            self._est_in_use.add(weight * in_use)
        if never_used:
            self.never_used_count += 1
            self.never_used_drag += drag
            self._est_never_used_drag.add(est_drag)
        if record.type_name not in self.type_names:
            self.type_names.append(record.type_name)

    # Weight-corrected estimates of the population quantities. Exact
    # ints (== the observed sums) for full-rate groups.

    @property
    def est_count(self) -> float:
        return self._est_count.value

    @property
    def est_bytes(self) -> float:
        return self._est_bytes.value

    @property
    def est_drag(self) -> float:
        """Estimated total drag (bytes²) this group stands for."""
        return self._est_drag.value

    @property
    def est_in_use(self) -> float:
        return self._est_in_use.value

    @property
    def est_never_used_drag(self) -> float:
        return self._est_never_used_drag.value

    @property
    def never_used_fraction(self) -> float:
        """Fraction of the group's drag due to never-used objects."""
        return self.never_used_drag / self.total_drag if self.total_drag > 0 else 0.0

    @property
    def all_never_used(self) -> bool:
        return self.count > 0 and self.never_used_count == self.count

    def merge(self, other: "SiteStats") -> None:
        """Fold another shard's stats for the same key into this one
        (the multi-process merge primitive)."""
        if other.key != self.key:
            raise ValueError(f"cannot merge {other.key!r} into {self.key!r}")
        self._fold(other)

    def _fold(self, other: "SiteStats") -> None:
        self.count += other.count
        self.total_bytes += other.total_bytes
        self.total_drag += other.total_drag
        self.total_in_use += other.total_in_use
        self.never_used_count += other.never_used_count
        self.never_used_drag += other.never_used_drag
        self._est_count.merge(other._est_count)
        self._est_bytes.merge(other._est_bytes)
        self._est_drag.merge(other._est_drag)
        self._est_in_use.merge(other._est_in_use)
        self._est_never_used_drag.merge(other._est_never_used_drag)
        for name in other.type_names:
            if name not in self.type_names:
                self.type_names.append(name)

    def __repr__(self) -> str:
        return f"<stats {self.key} n={self.count} drag={self.total_drag}>"


class SiteGroup(SiteStats):
    """:class:`SiteStats` plus the group's records, for the per-record
    views of the report (patterns, anchors, lifetime histograms)."""

    __slots__ = ("records",)

    def __init__(self, key) -> None:
        super().__init__(key)
        self.records: List[ObjectRecord] = []

    def add(self, record: ObjectRecord, terms: Optional[tuple] = None) -> None:
        self.records.append(record)
        SiteStats.add(self, record, terms)

    def partition_by_last_use(self) -> Dict[Optional[str], "SiteGroup"]:
        """§2.2: 'we also partition dragged objects according to nested
        allocation site and last-use site'."""
        out: Dict[Optional[str], SiteGroup] = {}
        for record in self.records:
            key = record.last_use_frame
            group = out.get(key)
            if group is None:
                group = out[key] = SiteGroup((self.key, key))
            group.add(record)
        return out

    def lifetime_breakdown(self, attr: str = "drag_time", buckets: int = 4) -> "Histogram":
        """§3.4: 'The tool also partitions the dragged objects at that
        anchor allocation site according to their drag time, in-use
        time, and collection time.' ``attr`` is one of ``drag_time``,
        ``in_use_time``, ``collection_time``, ``lag_time``, ``lifetime``
        or ``drag``."""
        values = [getattr(r, attr) for r in self.records]
        return Histogram(attr, values, buckets)

    def __repr__(self) -> str:
        return f"<group {self.key} n={self.count} drag={self.total_drag}>"


class Histogram:
    """Equal-width bucketing of one lifetime attribute over a group."""

    __slots__ = ("attr", "values", "edges", "counts")

    def __init__(self, attr: str, values: List[int], buckets: int) -> None:
        self.attr = attr
        self.values = sorted(values)
        if not values:
            self.edges: List[int] = []
            self.counts: List[int] = []
            return
        lo, hi = self.values[0], self.values[-1]
        width = max(1, (hi - lo + buckets) // buckets)
        self.edges = [lo + i * width for i in range(buckets + 1)]
        self.counts = [0] * buckets
        for value in self.values:
            index = min((value - lo) // width, buckets - 1)
            self.counts[index] += 1

    @property
    def minimum(self) -> Optional[int]:
        return self.values[0] if self.values else None

    @property
    def maximum(self) -> Optional[int]:
        return self.values[-1] if self.values else None

    @property
    def median(self) -> Optional[int]:
        if not self.values:
            return None
        return self.values[len(self.values) // 2]

    @property
    def mean(self) -> Optional[float]:
        if not self.values:
            return None
        return sum(self.values) / len(self.values)

    def summary(self) -> str:
        if not self.values:
            return f"{self.attr}: (empty)"
        rows = " ".join(
            f"[{self.edges[i]}..{self.edges[i + 1]}):{self.counts[i]}"
            for i in range(len(self.counts))
        )
        return (
            f"{self.attr}: min={self.minimum} median={self.median} "
            f"max={self.maximum}  {rows}"
        )

    def __repr__(self) -> str:
        return f"<histogram {self.attr} n={len(self.values)}>"


class Partitions:
    """The three partitions both analyzers maintain, their totals and
    the ranked views (the tool's primary output).

    Subclasses fold records with :meth:`_add`. Totals are folded from
    the ``by_site`` groups on first read after a change; the
    WeightedTotal merge is order-independent, so they equal a
    record-by-record sum bit for bit.
    """

    #: Group type the partitions hold.
    group_class = SiteStats

    def __init__(self) -> None:
        self.by_site: Dict[object, SiteStats] = {}
        self.by_nested: Dict[object, SiteStats] = {}
        self.by_site_and_use: Dict[object, SiteStats] = {}
        # True once any record carries a non-unit weight.
        self.sampled = False
        self._totals: Optional[SiteStats] = None

    def _add(self, record: ObjectRecord) -> None:
        terms = drag_terms(record)
        if terms[3] != 1.0:
            self.sampled = True
        self._totals = None
        label = record.site_label
        for table, key in (
            (self.by_site, label),
            (self.by_nested, record.nested_alloc or (label,)),
            (self.by_site_and_use, (label, record.last_use_frame)),
        ):
            group = table.get(key)
            if group is None:
                group = table[key] = self.group_class(key)
            group.add(record, terms)

    # -- totals ---------------------------------------------------------------

    @property
    def totals(self) -> SiteStats:
        """All kept records as one :class:`SiteStats` (key ``None``)."""
        if self._totals is None:
            totals = SiteStats(None)
            for group in self.by_site.values():
                totals._fold(group)
            self._totals = totals
        return self._totals

    @property
    def object_count(self) -> int:
        return self.totals.count

    @property
    def total_bytes(self) -> int:
        return self.totals.total_bytes

    @property
    def total_drag(self) -> int:
        """Observed drag: the sum over *logged* records, uncorrected."""
        return self.totals.total_drag

    # Weight-corrected (Horvitz-Thompson) population estimates. On a
    # full-rate profile every record weight is 1.0 and these are the
    # observed ints, so consumers (lint correlation, the optimize
    # verifier, serve payloads) can read the ``est_*`` forms
    # unconditionally.

    @property
    def est_object_count(self) -> float:
        return self.totals.est_count

    @property
    def est_total_bytes(self) -> float:
        return self.totals.est_bytes

    @property
    def est_total_drag(self) -> float:
        return self.totals.est_drag

    @property
    def effective_sample_rate(self) -> float:
        """Observed bytes / estimated bytes — 1.0 for full-rate logs."""
        est = self.est_total_bytes
        return self.total_bytes / est if est > 0 else 1.0

    def drag_share(self, group: SiteStats) -> float:
        total = self.est_total_drag
        return group.est_drag / total if total > 0 else 0.0

    # -- sorted views ---------------------------------------------------------
    #
    # Rankings order by *estimated* drag, which equals observed drag
    # (as an int) for full-rate profiles — the pre-weight sort order.

    def sorted_sites(self, limit: Optional[int] = None) -> List[SiteStats]:
        groups = sorted(self.by_site.values(), key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def sorted_nested(self, limit: Optional[int] = None) -> List[SiteStats]:
        groups = sorted(self.by_nested.values(), key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def never_used_sites(self, limit: Optional[int] = None) -> List[SiteStats]:
        """Sites whose drag is entirely due to never-used objects —
        'a sure bet for code rewriting' (§2.2)."""
        groups = [
            g for g in self.by_site.values() if g.all_never_used and g.total_drag > 0
        ]
        groups.sort(key=lambda g: (-g.est_drag, str(g.key)))
        return groups[:limit] if limit else groups

    def site(self, label: str) -> Optional[SiteStats]:
        return self.by_site.get(label)


class DragAnalysis(Partitions):
    """The analyzer's view of one profile log, built in one pass over
    its records."""

    group_class = SiteGroup

    def __init__(
        self,
        records: Iterable[ObjectRecord],
        include_library_sites: bool = True,
    ) -> None:
        super().__init__()
        all_records = [r for r in records if not r.excluded]
        if not include_library_sites:
            all_records = [r for r in all_records if not r.site_is_library]
        self.records = all_records
        # by_site: allocation site alone (§2.2: "sometimes an allocation
        # site is used in many contexts and a large drag may be
        # distributed among several smaller drag groups" under the
        # nested partition); by_nested: the call chain; by_site_and_use:
        # allocation site and last-use site.
        for record in all_records:
            self._add(record)
        self._uses_by_site: Dict[str, Dict[Optional[str], SiteGroup]] = {}
        for (label, use), group in self.by_site_and_use.items():
            self._uses_by_site.setdefault(label, {})[use] = group

    def last_use_groups(self, group: SiteGroup) -> Dict[Optional[str], SiteGroup]:
        """``group`` split by last-use frame, keyed like
        :meth:`SiteGroup.partition_by_last_use`. A ``by_site`` group's
        split is read from ``by_site_and_use``; any other group is
        partitioned on demand."""
        if self.by_site.get(group.key) is group:
            return self._uses_by_site[group.key]
        return group.partition_by_last_use()


class DragDelta:
    """The difference between two drag analyses (original vs revised) —
    the quantity every row of the paper's Table 5 reports, and the
    pipeline's verification criterion ("total drag must not increase")."""

    __slots__ = ("before", "after")

    def __init__(self, before: "DragAnalysis", after: "DragAnalysis") -> None:
        self.before = before
        self.after = after

    @property
    def total_before(self) -> int:
        """Estimated total drag of the original run (the exact observed
        int when the profile was full-rate)."""
        return self.before.est_total_drag

    @property
    def total_after(self) -> int:
        return self.after.est_total_drag

    @property
    def delta(self) -> int:
        """after − before; negative is a drag reduction."""
        return self.total_after - self.total_before

    @property
    def pct(self) -> float:
        """Delta as a percentage of the original total (0.0 when the
        original had no drag)."""
        if self.total_before == 0:
            return 0.0
        return 100.0 * self.delta / self.total_before

    @property
    def non_increasing(self) -> bool:
        return self.total_after <= self.total_before

    @property
    def decreased(self) -> bool:
        return self.total_after < self.total_before

    def per_site(self, limit: Optional[int] = None):
        """(site label, drag before, drag after) rows for every site in
        either run, largest absolute change first."""
        labels = set(self.before.by_site) | set(self.after.by_site)
        rows = []
        for label in labels:
            b = self.before.by_site.get(label)
            a = self.after.by_site.get(label)
            rows.append((label, b.est_drag if b else 0, a.est_drag if a else 0))
        rows.sort(key=lambda row: (-abs(row[2] - row[1]), row[0]))
        return rows[:limit] if limit else rows

    def summary(self) -> str:
        return (
            f"total drag {self.total_before} -> {self.total_after} "
            f"({self.pct:+.1f}%)"
        )

    def __repr__(self) -> str:
        return f"<drag-delta {self.summary()}>"


def drag_delta(before, after) -> DragDelta:
    """Build a :class:`DragDelta` from two runs. Each argument may be a
    :class:`DragAnalysis` or an iterable of :class:`ObjectRecord`."""

    def as_analysis(x):
        return x if isinstance(x, DragAnalysis) else DragAnalysis(x)

    return DragDelta(as_analysis(before), as_analysis(after))
