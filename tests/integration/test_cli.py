"""Tests for the command-line interface."""

import io

import pytest

from repro import zoo
from repro.cli import build_parser, cmd_compare, cmd_list, cmd_run, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "algorithms:" in out and "workloads:" in out
    assert "mis" in out and "forest_union_a3" in out


def test_list_shows_registry_metadata(capsys):
    """`repro list` is registry-driven: problem kind, paper row, claim
    and baseline presence appear for every algorithm."""
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for spec in zoo.all_specs():
        assert spec.name in out
    assert "paper row" in out and "claim" in out
    assert "T2.R1" in out  # mis row anchor
    assert "O(1) vs O(log n)" in out  # partition / a2logn claims
    assert "rand" in out  # randomized flag column


def test_list_check_gate(capsys):
    assert main(["list", "--check"]) == 0
    out = capsys.readouterr().out
    assert "registry consistent" in out


@pytest.mark.parametrize("algo", ["partition", "a2logn", "mis", "matching"])
def test_run_algorithms(algo, capsys):
    assert main(["run", algo, "-n", "300"]) == 0
    out = capsys.readouterr().out
    assert "vertex-averaged" in out
    assert algo in out


def test_run_on_other_workload(capsys):
    assert main(["run", "oa", "-n", "200", "--workload", "planar_grid"]) == 0
    out = capsys.readouterr().out
    assert "planar_grid" in out


def test_compare(capsys):
    assert main(["compare", "a2logn", "--sweep", "200,400", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "fitted shape" in out
    assert "win at n=400" in out
    assert "claimed shape: ours = O(1); baseline = O(log n)" in out


def test_unknown_algorithm_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonsense"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_choices_are_registry_baselines():
    """The `compare` subcommand only offers specs that declare a baseline."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "one-plus-eta"])  # no baseline
    args = build_parser().parse_args(["compare", "a2logn"])
    assert args.algorithm == "a2logn"


def test_run_choices_equal_registry_names():
    parser = build_parser()
    args = parser.parse_args(["run", "ka2"])  # registered but formerly unfuzzed
    assert args.algorithm == "ka2"


def test_run_trace_out_then_inspect(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    assert main(["run", "partition", "-n", "300", "--trace-out", path]) == 0
    out = capsys.readouterr().out
    assert f"repro inspect {path}" in out

    assert main(["inspect", path, "--decay"]) == 0
    out = capsys.readouterr().out
    assert "algo=partition" in out
    assert "round    1:" in out
    assert "n_i" in out and "shape:" in out


def test_inspect_reproduces_trace_counts(tmp_path, capsys):
    """Acceptance: the counts `repro inspect` derives from a JSONL trace
    equal what a live collector records for the same seeded run."""
    import repro
    from repro import obs
    from repro.bench import make_workload
    from repro.graphs import generators as gen
    from repro.obs.report import RunReport

    path = str(tmp_path / "run.jsonl")
    assert main(["run", "partition", "-n", "400", "--seed", "3", "--trace-out", path]) == 0
    capsys.readouterr()

    # replay the exact run cmd_run performs under a live collector
    g, a = make_workload("forest_union_a3")(400, seed=3)
    ids = gen.random_ids(g.n, seed=4)
    with obs.collecting() as live:
        repro.run_partition(g, a=a, ids=ids)

    col = RunReport.from_path(path).main
    assert live.rounds > 0
    assert col.terminations_per_round() == live.terminations_per_round()
    assert col.commits_per_round() == live.commits_per_round()
    assert col.sent == live.sent


def test_inspect_diff_identical_and_divergent(tmp_path, capsys):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    c = str(tmp_path / "c.jsonl")
    assert main(["run", "partition", "-n", "200", "--trace-out", a]) == 0
    assert main(["run", "partition", "-n", "200", "--trace-out", b]) == 0
    assert main(["run", "partition", "-n", "200", "--seed", "9", "--trace-out", c]) == 0
    capsys.readouterr()

    assert main(["inspect", a, "--diff", b]) == 0
    assert "identical" in capsys.readouterr().out

    assert main(["inspect", a, "--diff", c]) == 1
    assert "DIVERGENT" in capsys.readouterr().out


def test_run_profile_prints_phases(capsys):
    assert main(["run", "mis", "-n", "200", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "engine phase profile:" in out
    assert "step" in out and "route" in out and "deliver" in out


def test_run_profile_bulk_engine_prints_kernel_phase(capsys):
    """Satellite: --profile works on the columnar bulk engine too."""
    assert main(
        ["run", "partition", "-n", "300", "--engine", "bulk", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine phase profile:" in out
    assert "kernel" in out and "finalize" in out


def test_run_trace_out_prints_manifest_key(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    assert main(["run", "partition", "-n", "200", "--trace-out", path]) == 0
    out = capsys.readouterr().out
    assert f"manifest : {path}.manifest.jsonl" in out
    assert "(key " in out


def test_inspect_missing_file_clear_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["inspect", missing]) == 2
    out = capsys.readouterr().out
    assert "inspect: cannot read trace" in out
    assert "Traceback" not in out


def test_inspect_headerless_trace_clear_error(tmp_path, capsys):
    """A JSONL file without the meta header a JsonlSink always writes
    first is diagnosed in one line, not a traceback."""
    import json

    path = str(tmp_path / "headerless.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"ev": "round_start", "round": 1, "active": 3}))
        fh.write("\n")
    assert main(["inspect", path]) == 2
    out = capsys.readouterr().out
    assert "has no meta header" in out
    assert "Traceback" not in out
    # the same diagnosis guards the --diff second operand
    good = str(tmp_path / "good.jsonl")
    assert main(["run", "partition", "-n", "200", "--trace-out", good]) == 0
    capsys.readouterr()
    assert main(["inspect", good, "--diff", path]) == 2
    assert "has no meta header" in capsys.readouterr().out


def test_inspect_timeline_bulk_run(tmp_path, capsys):
    """Acceptance: a profiled bulk run's manifest renders as the
    per-phase timing table."""
    path = str(tmp_path / "bulk.jsonl")
    assert main(
        [
            "run", "partition", "-n", "400", "--engine", "bulk",
            "--profile", "--trace-out", path,
        ]
    ) == 0
    capsys.readouterr()

    assert main(["inspect", path, "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline : partition" in out
    assert "engine=bulk mode=sync" in out
    for phase in ("kernel", "finalize"):
        assert phase in out
    assert "wall" in out


def test_run_rejects_removed_shards_option(capsys):
    """``--shards`` is gone: argparse rejects it (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "partition", "-n", "200", "--engine", "bulk", "--shards", "2"])
    assert exc.value.code == 2
    assert "--shards" in capsys.readouterr().err


def test_inspect_timeline_without_manifest_clear_error(tmp_path, capsys):
    path = str(tmp_path / "no_manifest.jsonl")
    assert main(["inspect", path, "--timeline"]) == 2
    out = capsys.readouterr().out
    assert "no manifest at" in out and "Traceback" not in out


def test_inspect_timeline_unprofiled_run_exits_nonzero(tmp_path, capsys):
    """A manifest exists (every traced run writes one) but carries no
    phase timing: the timeline command says so and exits 2 -- this is
    what lets CI smoke-check that --profile actually recorded phases."""
    path = str(tmp_path / "unprofiled.jsonl")
    assert main(["run", "partition", "-n", "200", "--trace-out", path]) == 0
    capsys.readouterr()
    assert main(["inspect", path, "--timeline"]) == 2
    out = capsys.readouterr().out
    assert "--profile" in out


def test_inspect_shows_manifest_line(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    assert main(["run", "partition", "-n", "200", "--trace-out", path]) == 0
    capsys.readouterr()
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "manifest : key" in out
    assert "engine=fast" in out and "status=ok" in out
