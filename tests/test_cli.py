import csv
import json
import math
import os

import pytest

from orienteer import bench, formulation, instance
from orienteer.cli import main, validate_solution
from orienteer.formulation import build_arrival_formulation, build_flow_formulation
from orienteer.instance import parse_instance, preprocess, read_instance
from orienteer.lp import export_lp_text
from orienteer.separation import FAMILIES
from orienteer.solver import (
    PIPELINES,
    SolveConfig,
    cutting_plane_phase,
    solve_baseline,
    solve_lp_only,
    solve_stop,
)

from conftest import PAPER_CONFIGS, I, J, K, L, S, T, make_figure_instance

FIVE = "n 5\nm 2\ntmax 20\n0.0 0.0 0\n3.0 4.0 10\n6.0 0.0 5\n3.0 -4.0 7\n10.0 0.0 0\n"
# mandatory vertex 2 lies 30 from the origin on a budget of 20: screened
FAR = FIVE.replace("6.0 0.0 5", "30.0 0.0 5") + "M: 2\n"
# one vehicle; the root cuts pull the relaxation bound from 16.09 to 15
ROOT_GAP = (
    "n 9\nm 1\ntmax 11.7\n5.3 7.9 0\n8.5 0.9 8\n9.0 3.8 7\n6.5 4.3 7\n3.1 8.1 3\n"
    "9.7 1.3 1\n4.3 7.6 3\n8.0 9.7 2\n4.9 0.7 0\n"
)


@pytest.fixture
def five_path(tmp_path):
    p = tmp_path / "five.txt"
    p.write_text(FIVE)
    return str(p)


# -- validate_solution ---------------------------------------------------------


def test_validate_good_route(figure_instance):
    verdict = validate_solution(figure_instance, [[S, L, J, T]])
    assert verdict.ok
    assert verdict.reward == 2  # rewards of vertices 2 and 4
    assert verdict.durations == [3.0]


def test_validate_overlong_route(figure_instance):
    verdict = validate_solution(figure_instance, [[S, I, K, J, T]])
    assert not verdict.ok
    assert any("exceeds limit" in v for v in verdict.violations)
    assert verdict.durations == [5.0]


def test_validate_duplicate_visit():
    inst = make_figure_instance(fleet=2)
    verdict = validate_solution(inst, [[S, L, T], [S, L, J, T]])
    assert not verdict.ok
    assert any("visited by" in v for v in verdict.violations)


def test_validate_counts_every_rule():
    inst = make_figure_instance(fleet=1, mandatory=(K,))
    verdict = validate_solution(inst, [[S, L, T], [S, 9, T]])
    joined = "\n".join(verdict.violations)
    assert "exceed fleet size" in joined
    assert "missing arc" in joined
    assert "mandatory vertices not covered" in joined


# -- CLI flows -----------------------------------------------------------------


def test_cli_solve_json(five_path, capsys):
    assert main(["solve", five_path, "--json", "--time-limit", "60"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert payload["lower_bound"] == 22.0
    assert payload["lp_fallbacks"] == 0
    # the LP-guided heuristic is reported as its own layer
    assert payload["heuristic_incumbents"] >= 0 and payload["heuristic_discarded"] == 0
    assert "heuristic" in payload["timings_s"]
    assert payload["reduced_cost_fixed"] >= 0


def test_cli_solve_modes_agree(five_path, capsys):
    values = {}
    for mode in ("cpa", "baseline"):
        main(["solve", five_path, "--mode", mode, "--json", "--time-limit", "60"])
        values[mode] = json.loads(capsys.readouterr().out)["lower_bound"]
    assert values["cpa"] == values["baseline"] == 22.0


def test_cli_solve_lp_mode(five_path, capsys):
    main(["solve", five_path, "--mode", "lp", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "bound"
    assert payload["upper_bound"] >= 22.0 - 1e-9


def test_cli_generate_round_trip(five_path, tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["generate", five_path, "--fraction", "0.34", "--seed", "7", "-o", str(out)]) == 0
    text = out.read_text()
    inst = parse_instance(text)
    assert len(inst.mandatory) == 1  # floor(0.34 * 3)
    again = tmp_path / "gen2.txt"
    main(["generate", five_path, "--fraction", "0.34", "--seed", "7", "-o", str(again)])
    assert again.read_text() == text


def test_cli_validate_oracle(five_path, capsys):
    assert main(["validate", five_path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "optimum 22" in out
    # an exhausted node budget is a refusal, never an answer
    assert main(["validate", five_path, "--oracle", "--oracle-budget", "1"]) == 2
    out = capsys.readouterr().out
    assert "budget exhausted" in out and "optimum" not in out


def test_cli_validate_routes(five_path, capsys):
    assert main(["validate", five_path, "--routes", "0 1 4; 0 2 3 4"]) == 0
    assert main(["validate", five_path, "--routes", "0 1 1 4"]) == 1


BAD_INPUT = {
    "fractional-mandatory": (FIVE, ["--mandatory", "2.5"]),
    "mandatory-out-of-range": (FIVE, ["--mandatory", "9"]),
    "malformed-file": ("n 5\nm 2\ntmax 20\n0.0 0.0 0\n", []),
}
# route sets are read by validate only; "{dir}" is the test's directory
BAD_ROUTES = {
    "non-integer-route": ["--routes", "0 x 4"],
    "non-integer-route-file": ["--routes-file", "{dir}/routes.txt"],
    "no-route-source": [],
}
# search limits are read by solve and bench
BAD_FLAGS = {
    "nan-time-limit": ["--time-limit", "nan"],
    "negative-time-limit": ["--time-limit", "-1"],
    "negative-max-nodes": ["--max-nodes", "-1"],
    "unknown-family": ["--families", "connectivity,bogus"],
}
# worker counts are read by bench only
BAD_JOBS = {
    "zero-jobs": ["--jobs", "0"],
    "negative-jobs": ["--jobs", "-3"],
}
BAD_CASES = [(command, case) for command in ("solve", "validate") for case in sorted(BAD_INPUT)]
BAD_CASES += [("validate", case) for case in sorted(BAD_ROUTES)]
BAD_CASES += [(command, case) for command in ("solve", "bench") for case in sorted(BAD_FLAGS)]
BAD_CASES += [("bench", case) for case in sorted(BAD_JOBS)]


@pytest.mark.parametrize(("command", "case"), BAD_CASES, ids=[f"{c}-{k}" for c, k in BAD_CASES])
def test_cli_bad_input_prints_one_line(command, case, tmp_path, capsys):
    text, flags = BAD_INPUT.get(case, (FIVE, BAD_FLAGS.get(case, BAD_JOBS.get(case, []))))
    path = tmp_path / "inst.txt"
    path.write_text(text)
    (tmp_path / "routes.txt").write_text("0 1 4\n0 x 4\n")
    routes = ["--routes", "0 1 4"] if command == "validate" else []
    routes = [f.format(dir=tmp_path) for f in BAD_ROUTES.get(case, routes)]
    assert main([command, str(path), *flags, *routes]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"orienteer {command}: error: ")
    if case.startswith("non-integer-route"):
        assert "'x'" in err


def test_cli_dump_lp_only_for_a_screened_instance(five_path, tmp_path, capsys):
    # with a budget of 12, vertex 1 cannot be routed (13.06 via it) while
    # vertex 2 can; preprocessing drops vertex 1, so the relaxation left
    # over describes a feasible model and must not be written
    tight = tmp_path / "tight.txt"
    tight.write_text(FIVE.replace("tmax 20", "tmax 12"))
    dump = tmp_path / "relaxation.lp"
    assert main(["solve", str(tight), "--mandatory", "1 2", "--dump-lp", str(dump), "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "infeasible"
    assert not dump.exists()
    assert len(err.splitlines()) == 1 and "mandatory vertex 1 " in err
    assert main(["solve", str(tight), "--mandatory", "2", "--dump-lp", str(dump), "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "optimal" and err == ""
    assert dump.read_text().startswith("\\ tight\nMaximize\n")


def test_cli_dump_lp_writes_the_model_of_the_mode(five_path, tmp_path):
    inst = read_instance(five_path)
    pre, _ = preprocess(inst)
    want = {
        "cpa": build_flow_formulation(pre),
        "lp": build_flow_formulation(pre),
        # the baseline solves the arrival formulation with its total-time row
        "baseline": build_arrival_formulation(pre, include_total_time_row=True),
        "root": build_flow_formulation(pre),
        "impact-flow": build_flow_formulation(pre),
        "impact-arrival": build_arrival_formulation(pre),
    }
    assert want.keys() == PIPELINES.keys()
    for mode, handle in want.items():
        dump = tmp_path / f"{mode}.lp"
        assert main(["solve", five_path, "--mode", mode, "--dump-lp", str(dump)]) == 0
        assert dump.read_text() == export_lp_text(handle.model, name=inst.name), mode


def test_cli_dump_lp_screens_and_builds_once(five_path, tmp_path, monkeypatch):
    # the dump is the model the pipeline builds, so the flag adds no second
    # screening pass and no second shortest-time matrix
    calls = []
    for module in (instance, formulation):
        monkeypatch.setattr(module, "min_time_matrix", _counted(module.min_time_matrix, calls))
    for mode in PIPELINES:
        runs = []
        for extra in ([], ["--dump-lp", str(tmp_path / f"{mode}.lp")]):
            calls.clear()
            assert main(["solve", five_path, "--mode", mode, *extra]) == 0
            runs.append(len(calls))
        assert runs[0] == runs[1] >= 1, mode


def _counted(fn, calls):
    def counted(*args):
        calls.append(fn)
        return fn(*args)

    return counted


def test_cli_solve_rejects_the_bench_config_modes(five_path, capsys):
    # the paper's root configurations are ``--mode root --families ...`` in
    # both commands; no configN mode is left
    for command in ("solve", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command, five_path, "--mode", "config1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "config1" in err


def test_solve_and_bench_root_give_one_upper_bound(tmp_path, capsys):
    path = tmp_path / "gap.txt"
    path.write_text(ROOT_GAP)
    assert main(["solve", str(path), "--mode", "root", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = bench.run_bench([str(path)], "root")[0]
    assert payload["status"] == row.status == "bound"
    assert payload["upper_bound"] == row.upper == pytest.approx(15.0)
    assert payload["lp_bound"] == row.lp_bound > row.upper


def test_cli_json_carries_the_solve_stats(five_path, tmp_path, capsys):
    rep = solve_stop(read_instance(five_path), SolveConfig(time_limit_s=60))
    timers = ("heuristic_s", "prefetch_wait_s")
    counts = {k: v for k, v in rep.stats.items() if k not in timers}  # no wall time
    assert main(["solve", five_path, "--json", "--time-limit", "60"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cuts"] == rep.cut_counts
    assert list(payload["cuts"]) == list(FAMILIES)
    assert all(k in payload for k in timers) and counts.items() <= payload.items()
    assert payload["prefetched"] == 0  # the five-vertex search never branches
    assert "lp_iterations" in payload and "lp_iterations" not in bench.CSV_FIELDS
    rows = tmp_path / "rows.json"
    assert main(["bench", five_path, "--json-out", str(rows), "--time-limit", "60"]) == 0
    row = json.loads(rows.read_text())["rows"][0]
    assert row["stats"].keys() == rep.stats.keys()
    assert counts.items() <= row["stats"].items()
    assert row["nodes"] == rep.node_count


def test_screened_instance_gives_one_verdict_everywhere(tmp_path, capsys):
    # on a budget of 12, mandatory vertices 1 and 3 both need 13.06 while
    # vertex 2 fits; every path names the lowest blocker, vertex 1
    path = tmp_path / "tight.txt"
    path.write_text(FIVE.replace("tmax 20", "tmax 12") + "M: 3 1 2\n")
    inst = parse_instance(path.read_text())
    cfg = SolveConfig(time_limit_s=30)
    reports = [solve(inst, cfg) for solve in (solve_stop, solve_baseline, solve_lp_only)]
    assert {r.status for r in reports} == {"infeasible"}
    assert {r.reason for r in reports} == {"mandatory vertex 1 cannot be routed within the limit"}
    assert bench.run_bench([str(path)], "impact-flow", cfg)[0].status == "infeasible"
    dump = tmp_path / "relaxation.lp"
    assert main(["solve", str(path), "--dump-lp", str(dump), "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["reason"] == reports[0].reason
    assert "mandatory vertex 1 " in err
    assert not dump.exists()


def test_solve_and_bench_name_a_dotted_file_alike(tmp_path, capsys):
    # only .txt, .top and .stop are suffixes; other dots belong to the name
    path = tmp_path / "p1.2.a"
    path.write_text(FIVE)
    assert main(["solve", str(path), "--mode", "lp", "--json"]) == 0
    named = json.loads(capsys.readouterr().out)["instance"]
    row = bench.run_bench([str(path)], "lp")[0]
    assert named == row.instance == "p1.2.a"
    assert row.set_id == "1"


def test_cli_bench_text_and_csv(five_path, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    assert (
        main(
            [
                "bench",
                five_path,
                "--mode",
                "cpa",
                "--csv",
                str(csv_path),
                "--time-limit",
                "60",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "five" in out
    body = csv_path.read_text()
    assert body.startswith(bench.CSV_FIELDS)
    assert "five,,cpa,optimal,22.000000,22.000000,0.0000" in body


def test_cli_bench_manifest_and_empty(tmp_path, capsys):
    manifest = tmp_path / "all.manifest"
    manifest.write_text("# nothing here\n")
    assert main(["bench", str(manifest), "--mode", "lp"]) == 0
    out = capsys.readouterr().out
    assert "instance" in out  # header only


def test_cli_bench_manifest_entries_are_relative_to_it(tmp_path, monkeypatch, capsys):
    # an entry stored beside its manifest is found from another directory,
    # and an indented comment is no entry
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "s00_n21_m2_t15_f0_free.txt").write_text(FIVE)
    (sub / "all.manifest").write_text("s00_n21_m2_t15_f0_free.txt\n  # indented comment\n")
    monkeypatch.chdir(tmp_path)
    assert main(["bench", os.path.join("sub", "all.manifest"), "--mode", "lp"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("s00_")]
    assert len(rows) == 1 and "error" not in rows[0]


def test_cli_bench_parallel_matches_serial(five_path, tmp_path):
    cfg_args = ["--mode", "cpa", "--time-limit", "60"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bench", five_path, five_path, "--csv", str(a), "--jobs", "1", *cfg_args])
    main(["bench", five_path, five_path, "--csv", str(b), "--jobs", "2", *cfg_args])
    assert a.read_text() == b.read_text()


def test_cli_bench_exits_nonzero_on_an_error_row(five_path, tmp_path, capsys):
    bad = tmp_path / "broken.txt"
    bad.write_text("n x\n")
    csv_path = tmp_path / "rows.csv"
    args = ["bench", five_path, "--mode", "cpa", "--time-limit", "60", "--csv", str(csv_path)]
    assert main(args) == 0
    assert main([*args[:2], str(bad), *args[2:]]) == 1
    rows = csv_path.read_text().splitlines()
    assert any(r.startswith("broken,") and ",error," in r for r in rows)
    assert any(r.startswith("five,,cpa,optimal,") for r in rows)  # the rest still written


# -- bench internals -----------------------------------------------------------


def test_bench_error_rows_do_not_abort(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text(FIVE)
    bad = tmp_path / "broken.txt"
    bad.write_text("n x\n")
    rows = bench.run_bench([str(bad), str(good)], "lp", SolveConfig(time_limit_s=30))
    by_name = {r.instance: r for r in rows}
    assert by_name["broken"].status == "error"
    assert by_name["ok"].status == "bound"


def test_bench_lp_rows(tmp_path):
    good = tmp_path / "five.txt"
    good.write_text(FIVE)
    far = tmp_path / "far.txt"
    far.write_text(FAR)
    rows = bench.run_bench([str(good), str(far)], "lp", SolveConfig(time_limit_s=30))
    assert bench.to_csv(rows).splitlines()[1:3] == [
        "far,,lp,infeasible,,,0.0000,0,0,0,0,0,,,",
        "five,,lp,bound,,22.000000,100.0000,0,0,0,0,0,22.000000,,",
    ]


def test_bench_csv_quotes_a_name_with_a_comma_and_a_quote(tmp_path, capsys):
    odd = tmp_path / 'a,"b.txt'
    odd.write_text(FIVE)
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", str(odd), "--mode", "lp", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert [(r["instance"], r["mode"], r["status"], r["upper"]) for r in rows] == [
        ('a,"b', "lp", "bound", "22.000000")
    ]


def test_bench_aggregate_recomputation(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text(FIVE)
    rows = bench.run_bench([str(good)], "cpa", SolveConfig(time_limit_s=60))
    aggs = bench.aggregate(rows)
    assert aggs[0]["solved"] == sum(1 for r in rows if r.status in ("optimal", "infeasible"))
    assert aggs[0]["total"] == len(rows)


def test_bench_impact_modes(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text(FIVE)
    uppers = {}
    for mode in ("impact-flow", "impact-arrival"):
        rows = bench.run_bench([str(good)], mode, SolveConfig(time_limit_s=60))
        row = rows[0]
        assert row.status == "bound"
        assert row.upper is not None and row.lp_bound is not None
        # adding valid lower-bound rows can only pull the bound down
        assert row.upper <= row.lp_bound + 1e-9
        assert row.improvement is not None and row.improvement >= -1e-9
        uppers[mode] = row.upper
    # lp and impact-flow share one pipeline body; this guards the full flow
    # model's bound they share
    (plain,) = bench.run_bench([str(good)], "lp", SolveConfig(time_limit_s=60))
    assert plain.upper == uppers["impact-flow"]


def test_bench_csv_footer_matches_rows(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text(FIVE)
    other = tmp_path / "p9.9.z.txt"
    other.write_text(FIVE)
    rows = bench.run_bench([str(good), str(other)], "cpa", SolveConfig(time_limit_s=60))
    text = bench.to_csv(rows)
    data_lines = [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]
    footer = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert len(data_lines) == len(rows)
    for agg in bench.aggregate(rows):
        tag = f"# set {agg['set'] or '?'}: solved {agg['solved']}/{agg['total']}"
        assert any(ln.startswith(tag) for ln in footer)


def test_relaxation_only_footers_count_bound_and_infeasible_rows(tmp_path):
    paths = []
    for name, text in (("far", FAR), ("gap", ROOT_GAP)):
        (tmp_path / f"{name}.txt").write_text(text)
        paths.append(str(tmp_path / f"{name}.txt"))
    for mode in ("root", "lp", "impact-flow"):
        rows = bench.run_bench(paths, mode, SolveConfig(time_limit_s=60))
        agg = bench.aggregate(rows)[0]
        assert (agg["bound"], agg["infeasible"], agg["solved"]) == (1, 1, None), mode
        assert agg["avg_time_solved"] is None
        footer = bench.to_csv(rows).splitlines()[-1]
        assert footer.startswith("# set ?: bound 1/2, infeasible 1/2"), footer
        assert ("avg_improvement" in footer) == (mode != "lp")
        text = bench.to_text(rows).splitlines()[-1]
        assert text.startswith("[set ?] bound 1/2  infeasible 1/2  avg time -"), text
    # a set with a search row still counts what was solved
    rows = bench.run_bench(paths, "cpa", SolveConfig(time_limit_s=60))
    assert bench.to_csv(rows).splitlines()[-1] == "# set ?: solved 2/2"


def test_bench_text_columns_fit_their_longest_cell():
    cuts = dict(zip(FAMILIES, (12, 345, 6, 7890)))
    rows = [
        bench.BenchRow("s13_n21_m2_t20_f0.25_exhausted", "", "impact-arrival", "infeasible",
                       None, None, 0.0, 0.01, cuts=cuts, nodes=0),
        bench.BenchRow("p1.2.a", "1", "lp", "bound", None, 1591.07, 1.0, 12.5, nodes=123456),
        bench.BenchRow("s00", "", "cpa", "time-limit", 165.0, 180.261349, 0.08, 3.0,
                       cuts=dict.fromkeys(FAMILIES, 1), nodes=400),
    ]
    head, rule, *table = bench.to_text(rows).splitlines()[: 2 + len(rows)]
    assert len(rule) == len(head) and {len(line) for line in table} == {len(head)}
    for r, line in zip(rows, table):
        for name, cell in (("mode", r.mode), ("status", r.status)):
            assert line[head.index(name) :].startswith(cell), (name, line)
        assert line.endswith(" " + "/".join(str(r.cuts.get(f, 0)) for f in FAMILIES))
    assert table[0].endswith(" 12/345/6/7890") and head.endswith(" " * 9 + "cuts")


def test_bench_improvement_definition(tmp_path, capsys):
    path = tmp_path / "gap.txt"
    path.write_text(ROOT_GAP)
    pre, _ = preprocess(parse_instance(ROOT_GAP))
    for families in PAPER_CONFIGS.values():
        out = tmp_path / "rows.json"
        flags = ["--mode", "root", "--families", ",".join(sorted(families)), "--time-limit", "60"]
        assert main(["bench", str(path), *flags, "--json-out", str(out)]) == 0
        capsys.readouterr()
        row = json.loads(out.read_text())["rows"][0]
        assert row["status"] == "bound"
        # the bench reads the same root loop the solver runs
        phase = cutting_plane_phase(pre, SolveConfig(time_limit_s=60, families=families))
        assert row["upper"] == phase.upper_bound
        assert row["lp_bound"] == phase.lp_bound
        for fam in FAMILIES:
            assert row["cuts"][fam] == sum(1 for c in phase.cuts if c.family == fam)
        assert set(row["cuts"]) == set(FAMILIES)
        want = 100.0 * (row["lp_bound"] - row["upper"]) / row["lp_bound"]
        assert row["improvement"] == pytest.approx(want)
        assert row["improvement"] >= -1e-9


def test_bench_infeasible_rows_carry_no_gap_and_no_improvement(tmp_path):
    paths = []
    for name, text in (("far", FAR), ("gap", ROOT_GAP)):
        (tmp_path / f"{name}.txt").write_text(text)
        paths.append(str(tmp_path / f"{name}.txt"))
    for mode in ("root", "impact-flow", "impact-arrival"):
        rows = bench.run_bench(paths, mode, SolveConfig(time_limit_s=60))
        assert [r.status for r in rows] == ["infeasible", "bound"], mode
        assert rows[0].gap == 0.0 and rows[0].improvement is None
        assert rows[1].improvement is not None
        lines = bench.to_csv(rows).splitlines()
        assert lines[1] == f"far,,{mode},infeasible,,,0.0000,0,0,0,0,0,,,"
        # the footer averages the bound rows alone
        agg = bench.aggregate(rows)[0]
        assert agg["avg_improvement"] == rows[1].improvement
        assert lines[-1].endswith(f", avg_improvement {rows[1].improvement:.2f}%")
