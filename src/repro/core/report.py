"""Human-readable drag reports — the tool's user-facing output.

The report lists allocation sites sorted by accumulated drag
space-time product, flags never-used sites ("a sure bet for code
rewriting"), classifies each site's lifetime pattern, and names the
§3.4-suggested transformation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.program import CompiledProgram
from repro.core.analyzer import DragAnalysis, SiteGroup
from repro.core.anchor import anchor_site
from repro.core.integrals import MB
from repro.core.patterns import classify_group, suggest_transformation


def _mb2(bytes2: int) -> float:
    return bytes2 / (MB * MB)


def _format_group(
    rank: int,
    group: SiteGroup,
    analysis: DragAnalysis,
    interval_bytes: int,
    program: Optional[CompiledProgram],
) -> List[str]:
    pattern = classify_group(group, interval_bytes=interval_bytes)
    suggestion = suggest_transformation(pattern) or "-"
    lines = [
        f"#{rank} {group.key}",
        f"    allocates: {', '.join(group.type_names)}",
        (
            f"    drag {_mb2(group.est_drag):10.4f} MB^2"
            f"  ({100.0 * analysis.drag_share(group):5.1f}% of total)"
            f"  objects {group.count}"
            f"  bytes {group.total_bytes}"
        ),
        (
            f"    never-used: {group.never_used_count}/{group.count}"
            f" ({100.0 * group.never_used_fraction:5.1f}% of site drag)"
            f"  pattern: {pattern.name}"
            f"  suggest: {suggestion}"
        ),
    ]
    if program is not None:
        anchor = anchor_site(group, program)
        if anchor is not None and anchor != group.key:
            lines.append(f"    anchor site: {anchor}")
    uses = analysis.last_use_groups(group)
    if len(uses) > 1 or (len(uses) == 1 and None not in uses):
        top_uses = sorted(uses.values(), key=lambda g: -g.total_drag)[:3]
        for use_group in top_uses:
            use_label = use_group.key[1] or "<never used>"
            lines.append(
                f"    last-use {use_label}: drag {_mb2(use_group.total_drag):.4f} MB^2"
                f" ({use_group.count} objects)"
            )
    if group.count > 1:
        lines.append("    " + group.lifetime_breakdown("drag_time").summary())
    return lines


def drag_report(
    analysis: DragAnalysis,
    top: int = 10,
    interval_bytes: int = 100 * 1024,
    program: Optional[CompiledProgram] = None,
    nested: bool = False,
) -> str:
    """Render the sorted drag report (phase-2 output).

    With ``nested=True``, groups are nested allocation sites (call
    chains) instead of plain allocation sites.
    """
    lines: List[str] = []
    lines.append("=== Drag report ===")
    lines.append(
        f"objects logged: {analysis.object_count}"
        f"   total drag: {_mb2(analysis.total_drag):.4f} MB^2"
    )
    if analysis.sampled:
        lines.append(
            f"byte-sampled profile: effective rate {analysis.effective_sample_rate:.6f}"
            f"   est objects {analysis.est_object_count:.1f}"
            f"   est total drag {_mb2(analysis.est_total_drag):.4f} MB^2"
        )
    groups = analysis.sorted_nested(top) if nested else analysis.sorted_sites(top)
    lines.append("")
    lines.append(f"--- top {len(groups)} {'nested ' if nested else ''}allocation sites by drag ---")
    for rank, group in enumerate(groups, start=1):
        lines.extend(_format_group(rank, group, analysis, interval_bytes, program))
    never = analysis.never_used_sites(5)
    if never:
        lines.append("")
        lines.append("--- never-used sites (sure bets) ---")
        for group in never:
            lines.append(
                f"  {group.key}: {group.count} objects, all never used,"
                f" drag {_mb2(group.total_drag):.4f} MB^2"
            )
    return "\n".join(lines)


def heap_profile_chart(
    curves: dict,
    width: int = 72,
    height: int = 16,
    end_time: Optional[int] = None,
) -> str:
    """ASCII rendition of Figure 2: overlaid heap curves.

    ``curves`` maps a single-character legend key to a
    :class:`repro.core.integrals.HeapCurve`. Later entries overdraw
    earlier ones.
    """
    if not curves:
        return "(no curves)"
    if all(not c.times for c in curves.values()):
        return "(empty profile)"
    t_max = end_time or max((c.times[-1] for c in curves.values() if c.times), default=1)
    v_max = max((max(c.values) for c in curves.values() if c.values), default=1)
    if t_max <= 0 or v_max <= 0:
        return "(empty profile)"
    grid = [[" "] * width for _ in range(height)]
    for key, curve in curves.items():
        for col in range(width):
            t = t_max * col // max(1, width - 1)
            v = curve.value_at(t)
            row = height - 1 - min(height - 1, v * (height - 1) // v_max)
            grid[row][col] = key
    from repro.obs.timeline import format_axis

    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    lines.append(format_axis(t_max, v_max))
    return "\n".join(lines)
