"""Registry-driven paper-table generation.

Table 1 and Table 2 of the paper are *per-algorithm rows*; the registry
(:mod:`repro.zoo.registry`) declares which spec belongs to which row and
what it is compared against, so this module can render the paper-shaped
comparison tables without any hand-maintained row list.  ``repro compare
ALGO`` renders one row; ``repro compare --all`` renders every registered
row of both tables; the row id and theorem reference in each table title
come straight from :class:`~repro.zoo.spec.PaperRow`, making the output
directly citable against PAPER.md, and each row's claimed shapes from
its :class:`~repro.zoo.spec.Claim` print under the fitted ones.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.runner import Series, sweep
from repro.bench.tables import render_rows
from repro.bench.workloads import Workload, make_workload

#: table number -> section heading for ``paper_tables``
TABLE_TITLES = {
    1: "Table 1 -- vertex coloring: vertex-averaged vs worst-case",
    2: "Table 2 -- MIS, edge-coloring, matching: vertex-averaged vs worst-case",
}


def _colors_of(spec) -> Callable | None:
    """Palette extraction for the kinds that report colors."""
    if spec.problem in ("coloring", "edge-coloring"):
        return lambda r: r.colors_used
    return None


def spec_series(
    spec,
    workload: Workload | str,
    ns: Sequence[int],
    seeds: int = 2,
    baseline: bool = False,
    parallel: bool | None = None,
) -> Series:
    """Sweep one spec's driver (or its baseline) with registry labels."""
    wl = make_workload(workload) if isinstance(workload, str) else workload
    ref = spec.baseline if baseline else spec.driver
    if ref is None:
        raise ValueError(f"spec {spec.name!r} declares no baseline")
    label = "worst-case baseline" if baseline else spec.name
    return sweep(
        label,
        ref.resolve(),
        wl,
        ns,
        seeds=seeds,
        colors_of=_colors_of(spec),
        parallel=parallel,
    )


def render_spec_comparison(
    spec,
    workload: str,
    ns: Sequence[int],
    seeds: int = 2,
    parallel: bool | None = None,
) -> str:
    """One paper-shaped row table for ``spec`` (vs its baseline if any)."""
    ours = spec_series(spec, workload, ns, seeds=seeds, parallel=parallel)
    base = (
        spec_series(
            spec, workload, ns, seeds=seeds, baseline=True, parallel=parallel
        )
        if spec.has_baseline
        else None
    )
    text = render_rows(
        f"{spec.name} on {workload}: vertex-averaged vs worst-case",
        ours,
        base,
        row_id=spec.paper_row.cite() if spec.paper_row else None,
    )
    if spec.claim is None:
        return text
    claimed = f"claimed shape: ours = {spec.claim.avg}"
    if base is not None:
        claimed += f"; baseline = {spec.claim.baseline}"
    return f"{text}\n{claimed}"


def paper_tables(
    ns: Sequence[int],
    seeds: int = 2,
    workload: str = "forest_union_a3",
    tables: Sequence[int] = (1, 2),
    parallel: bool | None = None,
) -> str:
    """Every registered Table 1/2 row, grouped by table, in row order."""
    from repro import zoo

    blocks: list[str] = []
    for table in tables:
        rows = zoo.by_table(table)
        if not rows:
            continue
        blocks.append(TABLE_TITLES.get(table, f"Table {table}"))
        for spec in rows:
            blocks.append(
                render_spec_comparison(
                    spec, workload, ns, seeds=seeds, parallel=parallel
                )
            )
    return "\n\n".join(blocks)
