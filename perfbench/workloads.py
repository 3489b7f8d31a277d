"""The benchmark's three workloads: how their inputs are built and which
cells run on them.

A workload is a list of *inputs* (a graph and its ID assignment, plus
any fault plans) and a list of *cells*.  A cell is one algorithm run on
one input through :func:`repro.zoo.execute`, followed by its validator;
it is the benchmark's unit of work ("one operation").

Every random choice derives from the ``--seed`` argument alone: the
graph seeds, the ID permutations, the fault-plan seeds and the crash
victims all come off one ``random.Random(seed)`` in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import verify, zoo
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.runtime.async_sched import DelaySpec
from repro.zoo.spec import AlgorithmSpec, DriverRef

#: Input sizes.  Each workload's pass (all its cells once) takes about
#: 2.5-3 s on a 2-core x86 host, so a 40 s run measures 9-13 passes.
SIZES = {
    "bulk-det": {"partition_n": 150_000, "ring_n": 150_000, "defective_n": 4_000},
    "bulk-rand": {"n": 20_000},
    "fast-zoo": {"n": 1_000, "ring_n": 400},
}

#: Tiny sizes for the untimed warm-up pass (lazy imports, first-call costs).
WARMUP_SIZES = {
    "bulk-det": {"partition_n": 256, "ring_n": 64, "defective_n": 64},
    "bulk-rand": {"n": 256},
    "fast-zoo": {"n": 48, "ring_n": 16},
}

#: Cole-Vishkin and standalone defective coloring are exported drivers
#: without a registry entry; these unregistered specs let them run
#: through the same ``zoo.execute`` pipeline (engine session, profiler,
#: run manifest) as the registered algorithms.
COLE_VISHKIN = AlgorithmSpec(
    name="cole-vishkin",
    problem="coloring",
    driver=DriverRef.make("run_ring_three_coloring", passes_a=False, passes_seed=True),
    bulk_capable=True,
)
DEFECTIVE_D = 2
#: arboricity of every forest-union input, passed to the drivers as ``a``
A = 3
DEFECTIVE = AlgorithmSpec(
    name="defective",
    problem="coloring",
    driver=DriverRef.make(
        "run_defective_coloring", params={"d": DEFECTIVE_D}, passes_a=False, passes_seed=True
    ),
    bulk_capable=True,
)


@dataclass
class Input:
    """One built input graph with its IDs."""

    graph: Graph
    ids: Any

    def csr_bytes(self) -> int:
        offsets, indices = self.graph.csr(dtype="auto")
        return offsets.nbytes + indices.nbytes


@dataclass(frozen=True)
class Cell:
    """One algorithm run on one input, and how its result is checked."""

    label: str  # unique within the workload, e.g. "partition@crash-drop"
    spec: AlgorithmSpec
    input: str
    engine: str = "fast"
    mode: str = "sync"
    delays: DelaySpec | None = None
    plan: str | None = None  # key into the workload's fault plans
    seed: int = 0
    check: Callable | None = None  # check(graph, execution); None = Execution.validate

    @property
    def algo(self) -> str:
        return self.spec.name


def check_cole_vishkin(g, ex) -> None:
    verify.assert_proper_coloring(g, ex.result.colors, max_colors=3)


def check_defective(g, ex) -> None:
    verify.assert_defective_coloring(g, ex.result.colors, DEFECTIVE_D)


@dataclass
class Workload:
    name: str
    inputs: dict[str, Input] = field(default_factory=dict)
    plans: dict[str, FaultPlan] = field(default_factory=dict)
    cells: list[Cell] = field(default_factory=list)


class Builder:
    """Builds one workload's inputs, timing each set-up stage.

    ``stage(name, fn)`` is supplied by the caller; it runs ``fn`` and
    records its cost under ``name`` (``graphs.generate``, ``graphs.csr``,
    ``graphs.ids``, ``faults.plan``).
    """

    def __init__(self, seed: int, stage: Callable[[str, Callable], Any]) -> None:
        self.rng = random.Random(seed)
        self.stage = stage

    def draw(self) -> int:
        return self.rng.randrange(2**31)

    def csr_input(self, n: int) -> Input:
        gseed, iseed = self.draw(), self.draw()
        g = self.stage("graphs.generate", lambda: gen.forest_union_csr(n, A, seed=gseed))
        self.stage("graphs.csr", lambda: g.csr(dtype="auto"))
        ids = self.stage("graphs.ids", lambda: gen.permutation_ids(n, seed=iseed))
        return Input(g, ids)

    def object_input(self, make: Callable[[], Graph], fast: bool) -> Input:
        iseed = self.draw()
        g = self.stage("graphs.generate", make)
        if fast:
            # the generator engines iterate the cached per-vertex rows
            self.stage("graphs.csr", lambda: (g.csr(dtype="auto"), g.csr_rows()))
            ids = self.stage("graphs.ids", lambda: gen.random_ids(g.n, seed=iseed))
        else:
            self.stage("graphs.csr", lambda: g.csr(dtype="auto"))
            ids = self.stage("graphs.ids", lambda: gen.permutation_ids(g.n, seed=iseed))
        return Input(g, ids)


def build(name: str, seed: int, stage, sizes: dict | None = None) -> Workload:
    """Build workload ``name`` for ``seed`` (``sizes`` defaults to SIZES)."""
    sz = (sizes or SIZES)[name]
    b = Builder(seed, stage)
    wl = Workload(name)
    if name == "bulk-det":
        wl.inputs["forest"] = b.csr_input(sz["partition_n"])
        wl.inputs["ring"] = b.object_input(lambda: gen.ring(sz["ring_n"]), fast=False)
        wl.inputs["small"] = b.csr_input(sz["defective_n"])
        wl.cells = [
            Cell("partition", zoo.get("partition"), "forest", engine="bulk"),
            Cell("cole-vishkin", COLE_VISHKIN, "ring", engine="bulk", check=check_cole_vishkin),
            Cell("defective", DEFECTIVE, "small", engine="bulk", check=check_defective),
        ]
    elif name == "bulk-rand":
        n = sz["n"]
        wl.inputs["forest"] = b.csr_input(n)
        run_seed, hazard_seed, sched_seed = b.draw(), b.draw(), b.draw()

        def crash_drop() -> FaultPlan:
            return FaultPlan(
                seed=hazard_seed,
                crashes=CrashSpec(hazard=0.01),
                messages=MessageFaults(drop=0.02),
            )

        def even_crashes() -> FaultPlan:
            # 2% of the vertices, the i-th victim struck at round 2*(1 + i%3):
            # even rounds are Luby's benign crash window (EXPERIMENTS.md)
            victims = b.rng.sample(range(n), n // 50)
            at = {v: 2 * (1 + i % 3) for i, v in enumerate(victims)}
            return FaultPlan(seed=sched_seed, crashes=CrashSpec(at=at))

        wl.plans["crash-drop"] = b.stage("faults.plan", crash_drop)
        wl.plans["even-crash"] = b.stage("faults.plan", even_crashes)
        luby, part = zoo.get("luby-mis"), zoo.get("partition")
        wl.cells = [
            Cell("luby-mis", luby, "forest", engine="bulk", seed=run_seed),
            Cell("partition@crash-drop", part, "forest", engine="bulk", plan="crash-drop"),
            Cell("luby-mis@even-crash", luby, "forest", engine="bulk", plan="even-crash", seed=run_seed),
        ]
    elif name == "fast-zoo":
        n, gseed = sz["n"], b.draw()
        wl.inputs["forests"] = b.object_input(
            lambda: gen.union_of_forests(n, A, seed=gseed), fast=True
        )
        wl.inputs["ring"] = b.object_input(lambda: gen.ring(sz["ring_n"]), fast=True)
        run_seed, delay_seed = b.draw(), b.draw()
        for spec in zoo.all_specs():
            on = "ring" if "ring" in spec.workloads else "forests"
            wl.cells.append(Cell(spec.name, spec, on, seed=run_seed))
        exp = DelaySpec("exp", seed=delay_seed)
        for algo in ("partition", "luby-mis"):
            wl.cells.append(
                Cell(f"{algo}@async", zoo.get(algo), "forests", mode="async", delays=exp, seed=run_seed)
            )
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(SIZES)}")
    return wl
