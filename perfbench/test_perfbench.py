"""Tests of the benchmark itself: span arithmetic, computed counts, checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json

import pytest

import qmemchan.cli as cli
import run
import spans
import workloads
import worker
from spans import Span
from workloads import Op


def _span(name, start, end, parent=None, **info):
    return Span(name, start, end, parent, 0, info)


def test_self_time_subtracts_child_coverage():
    tree = [
        _span("cli", 0.0, 10.0),
        _span("ensembles", 1.0, 5.0, parent=0, family="ghz"),
        _span("channel", 1.5, 3.0, parent=1, bytes=256),
        _span("linalg.spectrum", 3.0, 4.5, parent=1),
        _span("two_qubit", 6.0, 7.0, parent=0),
        # overlaps its sibling: the shared interval is subtracted once
        _span("two_qubit", 6.5, 8.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 1.5, 1.5, 1.0, 1.5])


def test_self_time_clips_children_to_the_parent_interval():
    tree = [_span("cli", 0.0, 2.0), _span("channel", 1.0, 3.0, parent=0)]
    assert spans.self_times(tree) == pytest.approx([1.0, 2.0])


def test_computed_counts():
    assert spans.forward_rows(3) == 42  # 3 * (2 + 4 + 8)
    assert spans.forward_rows(22) == 3 * sum(2**t for t in range(1, 23))
    assert spans.dense_bytes(2**10) == 16 * 4**10


def test_layer_metrics_on_a_synthetic_trace():
    tree = [
        _span("cli", 0.0, 10.0, bytes_out=100),
        _span("hmm_rate", 1.0, 3.0, parent=0, n_used=3, converged=True, rows=42),
        _span("hmm_rate", 3.0, 4.0, parent=0, n_used=2, converged=False, rows=18),
        _span("hmm_rate.recheck", 4.0, 5.0, parent=0, rows=18),
        _span("hmm_rate.recheck", 5.0, 6.0, parent=0, rows=18),
        _span("linalg.entropy", 1.5, 2.0, parent=1, entries=8),
        _span("ensembles", 6.0, 9.0, parent=0, family="w"),
        _span("channel", 6.5, 8.0, parent=6, bytes=spans.dense_bytes(4)),
    ]
    m = spans.layer_metrics(tree, traced_s=[3.0, 5.0], untraced_s=[1.0, 2.0])
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["cli.calls"] == 0.5
    assert m["cli.self_s"] == pytest.approx((10.0 - 8.0) / 2)
    assert m["cli.bytes_out"] == 50
    assert m["hmm_rate.calls"] == 1
    assert m["hmm_rate.busy_s"] == pytest.approx(1.5)
    assert m["hmm_rate.strings"] == (42 + 18) / 2
    assert m["hmm_rate.n_used_max"] == 3
    assert m["hmm_rate.converged_ratio"] == 0.5
    assert m["hmm_rate.recheck_waste"] == pytest.approx(36 / 60)
    assert m["linalg.entropy_entries"] == 4
    assert m["ensembles.w_s"] == pytest.approx(1.5)
    assert m["ensembles.ghz_s"] == 0
    assert m["ensembles.self_s"] == pytest.approx(0.75)
    assert m["channel.bytes"] == 16 * 16 / 2
    assert m["trace.overhead_s"] == pytest.approx(4.0 - 1.5)


def test_generator_is_seeded_and_stays_in_its_region():
    assert list(zip(range(3), workloads.rounds("paper_batch", 5))) == \
        list(zip(range(3), workloads.rounds("paper_batch", 5)))
    assert next(workloads.rounds("mi_n10", 1)) != next(workloads.rounds("mi_n10", 2))
    for _, batch in zip(range(50), workloads.rounds("rate_n22", 3)):
        argv = batch[0].argv
        mu, a, d = (float(workloads._flag(argv, f)) for f in ("--mu", "--a", "--d"))
        x0, x1 = (a + d) / 2.0, (a - d) / 2.0
        assert 0.97 <= mu < 0.99 and abs(x0 - x1) >= 0.5 - 1e-12
        assert -1.0 / 3.0 - 1e-12 <= min(x0, x1) and max(x0, x1) <= 1.0 + 1e-12
        assert repr(float(workloads._flag(argv, "--a"))) == workloads._flag(argv, "--a")


def test_values_in_exponent_notation_reach_the_cli(capsys):
    flags = workloads._point_flags(0.5, -8.252935041916376e-05, 0.4946462037504272)
    assert cli.main(["two-qubit", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["a"] == -8.252935041916376e-05
    assert workloads._flag(flags, "--a") == "-8.252935041916376e-05"


def test_traced_ops_restore_bindings_and_keep_expected_nulls(tmp_path):
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _, _ in spans.BINDINGS}
    tracer = spans.Tracer()
    mi = Op("mutual_info", ("mutual-info", "--mu", "0.5", "--a", "0.6", "--d", "0.3",
                            "--n", "4", "--families", "all", "--format", "json"), 0)
    record = worker.run_op(mi, tmp_path, tracer)
    assert not record["failed"], record["error"]
    names = {s.name for s in tracer.spans}
    assert {"cli", "ensembles", "channel", "linalg.spectrum"} <= names
    assert not any(name.startswith("hmm_rate") for name in names)
    rate = Op("entropy_rate", ("entropy-rate", "--mu", "0.5", "--a", "0.6", "--d", "0.3",
                               "--n-max", "6", "--tolerance", "1e-12"), 3)
    before = len(tracer.spans)
    record = worker.run_op(rate, tmp_path, tracer)
    assert not record["failed"], record["error"]
    names = {s.name for s in tracer.spans[before:]}
    assert {"hmm_rate", "hmm_rate.recheck", "linalg.entropy"} <= names
    rows = {name: [s.info["rows"] for s in tracer.spans if s.name == name]
            for name in ("hmm_rate", "hmm_rate.recheck")}
    assert rows["hmm_rate"] == [spans.forward_rows(6)]
    assert rows["hmm_rate.recheck"] == [spans.forward_rows(n) for n in range(2, 7)]
    assert not names & {"channel", "ensembles", "two_qubit"}
    assert {s.op for s in tracer.spans} == {0, 1}
    for (module, attr), original in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is original


def test_a_corrupted_figure_byte_fails_the_operation(tmp_path, monkeypatch):
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        target = tmp_path / "figures" / "fig3.csv"
        data = bytearray(target.read_bytes())
        data[-2] ^= 1
        target.write_bytes(bytes(data))
        return code

    monkeypatch.setattr(worker.cli, "main", corrupting_main)
    record = worker.run_op(Op("figures", ("figures", "--out", "{out}"), 0), tmp_path, None)
    assert record["failed"] and "fig3.csv" in record["error"]
    assert run.ops_failed_ratio([record]) == 1.0


def test_the_seed_figures_pass_their_check(tmp_path):
    assert cli.main(["figures", "--out", str(tmp_path)]) == 0
    workloads.check_figures(tmp_path)


def test_a_wrong_exit_code_fails_the_operation(tmp_path, monkeypatch):
    good = {"lower": 0.1, "upper": 0.2, "n_used": 22, "converged": False,
            "bracket_monotone": True, "c_prod_bracket": [0.8, 0.9], "capacity_upper_bound": 1.0}

    def fake_main(exit_code):
        def main(argv):
            print(json.dumps(good))
            return exit_code
        return main

    op = next(workloads.rounds("rate_n22", 1))[0]
    monkeypatch.setattr(worker.cli, "main", fake_main(3))
    ok = worker.run_op(op, tmp_path, None)
    monkeypatch.setattr(worker.cli, "main", fake_main(0))
    wrong = worker.run_op(op, tmp_path, None)
    assert not ok["failed"], ok["error"]
    assert wrong["failed"] and "exit 0" in wrong["error"]
    assert run.ops_failed_ratio([ok, wrong]) == 0.5


@pytest.mark.parametrize("field, value", [
    ("converged", True), ("bracket_monotone", False), ("n_used", 21),
    ("lower", 0.3), ("capacity_upper_bound", 0.85),
])
def test_entropy_rate_check_rejects_each_broken_field(field, value):
    record = {"lower": 0.1, "upper": 0.2, "n_used": 22, "converged": False,
              "bracket_monotone": True, "c_prod_bracket": [0.8, 0.9], "capacity_upper_bound": 1.0}
    argv = next(workloads.rounds("rate_n22", 1))[0].argv
    workloads.check_entropy_rate(argv, json.dumps(record))
    record[field] = value
    with pytest.raises(workloads.CheckFailed):
        workloads.check_entropy_rate(argv, json.dumps(record))


def test_sweep_and_mutual_info_checks_reject_bad_outputs(capsys):
    sweep = next(workloads.rounds("paper_batch", 1))[1]
    assert cli.main(list(sweep.argv)) == 0
    text = capsys.readouterr().out
    workloads.check_sweep(sweep.argv, text)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_sweep(sweep.argv, "\n".join(text.splitlines()[:-1]) + "\n")
    mi = ("mutual-info", "--mu", "0.5", "--a", "0.6", "--d", "0.3", "--n", "4",
          "--families", "all", "--format", "json")
    assert cli.main(list(mi)) == 0
    record = json.loads(capsys.readouterr().out)
    workloads.check_mutual_info(mi, json.dumps(record))
    for row in record["rows"]:
        if row["family"] == "product":
            row["i_n"] += 1e-8
    with pytest.raises(workloads.CheckFailed):
        workloads.check_mutual_info(mi, json.dumps(record))


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
