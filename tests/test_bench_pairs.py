"""tools/bench_pairs.py's summary and claim rule, on hand-made pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"wall_ref_s": ("lower", 0.25), "setup_s": ("lower", 0.25),
          "peak_rss_mb": ("lower", 0.1)}


def side(wall, setup, rss, law_s, expect_s, probes=None):
    return {"metrics": {"wall_ref_s": {"value": wall},
                        "setup_s": {"value": setup},
                        "peak_rss_mb": {"value": rss}},
            "detail": {"law_of_t": law_s, "best_job_sum_s": law_s + expect_s},
            "job_s": {"000-law": law_s, "001-expect": expect_s},
            "setup_probes_s": probes or [setup],
            "correct": True, "failed": 0}


def two_pairs():
    return {"analytic_large_n": [
        {"seed": 1, "first": "parent",
         "parent": side(0.040, 0.11, 80.0, 0.030, 0.004,
                        [0.12, 0.11, 0.10]),
         "change": side(0.030, 0.12, 90.0, 0.020, 0.004,
                        [0.09, 0.12, 0.10])},
        {"seed": 2, "first": "change",
         "parent": side(0.036, 0.11, 80.0, 0.026, 0.006,
                        [0.11, 0.14, 0.11]),
         "change": side(0.032, 0.11, 95.0, 0.022, 0.008, [0.08])},
    ], "forward_large_n": []}


@pytest.fixture
def summary():
    return bench_pairs.summarize(two_pairs(), BOUNDS)


def test_workloads_without_pairs_are_left_out(summary):
    assert list(summary) == ["analytic_large_n"]
    entry = summary["analytic_large_n"]
    assert entry["seeds"] == [1, 2] and entry["pairs"] == 2
    assert entry["all_runs_correct"]


def test_wins_spreads_and_bounds(summary):
    metrics = summary["analytic_large_n"]["metrics"]
    wall = metrics["wall_ref_s"]
    assert wall["change_wins"] == 2
    assert wall["parent"]["median"] == pytest.approx(0.038)
    # inclusive quartiles of two runs: a quarter of the way in from each
    assert wall["parent"]["q1"] == pytest.approx(0.037)
    assert wall["parent"]["q3"] == pytest.approx(0.039)
    assert wall["change"]["median"] == pytest.approx(0.031)
    assert wall["relative_change"] == pytest.approx(-0.007 / 0.038)
    assert wall["within_bound"]
    # a tie counts for neither side
    assert metrics["setup_s"]["change_wins"] == 0
    assert metrics["setup_s"]["within_bound"]
    # 92.5 MB against 80 is 15.6% worse, past the 10% bound
    rss = metrics["peak_rss_mb"]
    assert rss["change_wins"] == 0
    assert rss["relative_change"] == pytest.approx(0.15625)
    assert not rss["within_bound"]


def test_medians_per_kind_and_per_job(summary):
    entry = summary["analytic_large_n"]
    assert entry["detail"]["parent"]["law_of_t"] == pytest.approx(0.028)
    assert entry["job_s"] == {
        "parent": {"000-law": pytest.approx(0.028),
                   "001-expect": pytest.approx(0.005)},
        "change": {"000-law": pytest.approx(0.021),
                   "001-expect": pytest.approx(0.006)}}


def test_job_spreads_and_wins(summary):
    # job_s keeps its medians; the quartiles and pair wins sit beside it
    entry = summary["analytic_large_n"]
    assert entry["job_spread_s"]["parent"]["000-law"] == {
        "median": pytest.approx(0.028), "q1": pytest.approx(0.027),
        "q3": pytest.approx(0.029), "runs": [0.030, 0.026]}
    assert entry["job_spread_s"]["change"]["001-expect"] == {
        "median": pytest.approx(0.006), "q1": pytest.approx(0.005),
        "q3": pytest.approx(0.007), "runs": [0.004, 0.008]}
    # law ran faster on the change in both pairs; expect tied in the first
    # and ran slower in the second
    assert entry["job_change_wins"] == {"000-law": 2, "001-expect": 0}


def test_setup_probes_pooled_over_runs(summary):
    # every probe of every run, beside setup_s's median of run medians
    probes = summary["analytic_large_n"]["setup_probes_s"]
    assert probes["parent"] == {
        "median": pytest.approx(0.11), "q1": pytest.approx(0.11),
        "q3": pytest.approx(0.1175),
        "probes": [0.12, 0.11, 0.10, 0.11, 0.14, 0.11]}
    # four probes, 0.08 0.09 0.10 0.12: inclusive quartiles three quarters
    # of the way from 0.08 to 0.09 and a quarter from 0.10 to 0.12
    assert probes["change"]["median"] == pytest.approx(0.095)
    assert probes["change"]["q1"] == pytest.approx(0.0875)
    assert probes["change"]["q3"] == pytest.approx(0.105)
    setup = summary["analytic_large_n"]["metrics"]["setup_s"]
    assert setup["parent"]["runs"] == [0.11, 0.11]
    assert setup["change"]["median"] == pytest.approx(0.115)


def test_job_medians_of_one_run():
    run = {"jobs": [{"name": "law"}, {"name": "expect"}],
           "passes": [{"job_s": [0.3, 0.1]}, {"job_s": [0.1, 0.2]},
                      {"job_s": [0.2, 0.3]}]}
    assert bench_pairs.job_medians(run) == {"000-law": 0.2,
                                            "001-expect": 0.2}


def test_claim_needs_enough_pairs(summary):
    claim = bench_pairs.claim(summary, "analytic_large_n:wall_ref_s")
    assert claim["wins"] == 2 and claim["pairs"] == 2
    assert claim["median_drop"] == pytest.approx(0.007)
    assert claim["parent_iqr"] == pytest.approx(0.002)
    assert claim["median_drop"] > claim["parent_iqr"]
    assert bench_pairs.PAIRS == 10
    assert not claim["holds"]


def test_claim_rule(summary, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    assert bench_pairs.claim(summary, "analytic_large_n:wall_ref_s")["holds"]
    # no wins and no drop
    assert not bench_pairs.claim(summary,
                                 "analytic_large_n:peak_rss_mb")["holds"]
    # won every pair, but the drop is within the parent's spread
    results = two_pairs()
    results["analytic_large_n"][0]["parent"]["metrics"]["wall_ref_s"] = {
        "value": 0.050}
    results["analytic_large_n"][0]["change"]["metrics"]["wall_ref_s"] = {
        "value": 0.049}
    results["analytic_large_n"][1]["change"]["metrics"]["wall_ref_s"] = {
        "value": 0.035}
    claim = bench_pairs.claim(bench_pairs.summarize(results, BOUNDS),
                              "analytic_large_n:wall_ref_s")
    assert claim["wins"] == 2
    assert claim["median_drop"] == pytest.approx(0.001)
    assert claim["parent_iqr"] == pytest.approx(0.007)
    assert not claim["holds"]


def test_claim_of_an_unknown_metric(summary):
    assert bench_pairs.claim(summary, "analytic_large_n:nfev") is None
    assert bench_pairs.claim(summary, "forward_large_n:wall_ref_s") is None


def test_workload_names_come_from_benchmark_json(tmp_path):
    # the list was a constant of four names, so a fifth workload was never
    # run and a parent without one of them crashed the series
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [
        {"name": "mc_long_paths", "why": "x"},
        {"name": "law_only", "why": "y"}]}))
    assert bench_pairs.workload_names(tmp_path) == ["mc_long_paths",
                                                   "law_only"]


def test_a_workload_the_parent_lacks_is_change_only():
    results = two_pairs()
    results["law_only"] = [
        {"seed": seed, "first": "change",
         "change": side(wall, 0.1, 70.0, wall, 0.0)}
        for seed, wall in ((1, 0.010), (2, 0.014))]
    summary = bench_pairs.summarize(results, BOUNDS)
    assert not summary["analytic_large_n"]["change_only"]
    entry = summary["law_only"]
    assert entry["change_only"] and entry["all_runs_correct"]
    assert entry["metrics"]["wall_ref_s"] == {"change": {
        "median": pytest.approx(0.012), "q1": pytest.approx(0.011),
        "q3": pytest.approx(0.013), "runs": [0.010, 0.014]}}
    assert list(entry["detail"]) == list(entry["job_s"]) == ["change"]
    assert list(entry["job_spread_s"]) == ["change"]
    assert "job_change_wins" not in entry
    assert bench_pairs.claim(summary, "law_only:wall_ref_s") is None


def test_output_hashes_of_jobs_on_one_side():
    parent = {"a/000-x": "1", "a/001-y": "2", "a/002-z": "3"}
    change = {"a/000-x": "1", "a/001-y": "9", "b/000-w": "4"}
    assert bench_pairs.compare_hashes(parent, change) == {
        "differing": ["a/001-y", "a/002-z"], "change_only": ["b/000-w"]}


def test_workdir_with_an_earlier_export_is_refused(tmp_path, capsys):
    # an earlier series' export is refused by name before any export
    (tmp_path / "parent").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--out",
                          str(tmp_path / "bench.json"),
                          "--workdir", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "parent") in err and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["parent"]
