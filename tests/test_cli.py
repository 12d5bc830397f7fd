import json
from pathlib import Path

import pytest

from treestealer.channel import PHR_SGX, ChannelModel, ChannelSession, make_oracle
from treestealer.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, run
from treestealer.extraction import dt_extraction
from treestealer.trees import load_tree, save_tree, tree_equal, tree_to_dict

from conftest import build_example_target, chain_tree

IRIS_CSV = Path(__file__).resolve().parents[1] / "src" / "treestealer" / "data" / "iris.csv"


def test_gen_attack_eval_pipeline(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    shadow_path = tmp_path / "s.json"
    assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:2",
                "--range", "0:1,0:1", "--grid", "0.25",
                "--out", str(tree_path)]) == EXIT_OK
    assert run(["attack", "--tree", str(tree_path), "--channel", "perfect",
                "--epsilon", "0.125", "--out", str(shadow_path)]) == EXIT_OK
    assert run(["eval", "--target", str(tree_path), "--shadow", str(shadow_path),
                "--grid-dataset", "1000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fidelity 1.0000" in out
    assert "mispredicts" not in out  # only the register channel reads out


def test_attack_does_not_mutate_input_tree(tmp_path):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    before = tree_path.read_bytes()
    assert run(["attack", "--tree", str(tree_path), "--epsilon", "0.5",
                "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert tree_path.read_bytes() == before


def test_strict_register_channel_fails_on_deep_tree(tmp_path, capsys):
    tree_path = tmp_path / "deep12.json"
    assert run(["--seed", "3", "gen-tree", "--features", "2", "--depth", "12:12",
                "--range", "0:4096,0:4096", "--grid", "1.0",
                "--out", str(tree_path)]) == EXIT_OK
    capsys.readouterr()
    code = run(["attack", "--tree", str(tree_path), "--channel", "phr",
                "--epsilon", "0.25", "--out", str(tmp_path / "s.json")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: leaf depth 12 exceeds the register budget of 11 decisions\n")


def test_register_attack_reports_readout_mispredicts(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    assert run(["--seed", "4", "attack", "--tree", str(tree_path), "--channel", "phr",
                "--epsilon", "0.5", "--out", str(tmp_path / "s.json")]) == EXIT_OK
    target = build_example_target()
    session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=4)
    result = dt_extraction(make_oracle(target, session), target.ranges_low,
                           target.ranges_high, 0.5)
    assert session.pht_mispredicts > 0
    assert (f"in {result.queries} queries, {session.pht_mispredicts} readout "
            f"mispredicts (channel: phr)") in capsys.readouterr().out


def test_sweep_both_writes_paired_report(tmp_path):
    tree_path = tmp_path / "t.json"
    assert run(["--seed", "2", "gen-tree", "--features", "2", "--depth", "2:3",
                "--range", "0:8,0:8", "--grid", "0.5",
                "--out", str(tree_path)]) == EXIT_OK
    report_dir = tmp_path / "report"
    code = run(["sweep", "--tree", str(tree_path), "--attack", "both",
                "--eps-start", "100", "--samples", "200",
                "--out", str(report_dir)])
    assert code in (EXIT_OK, EXIT_PARTIAL)
    doc = json.loads((report_dir / "report.json").read_text())
    assert set(doc["attacks"]) == {"extractor", "baseline"}
    assert run(["report", "--in", str(report_dir / "report.json")]) == EXIT_OK


def test_usage_errors_exit_one():
    assert run([]) == EXIT_USAGE
    assert run(["attack", "--no-such-flag"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE


def test_missing_file_exits_three(tmp_path):
    assert run(["attack", "--tree", str(tmp_path / "nope.json"),
                "--epsilon", "0.5", "--out", str(tmp_path / "s.json")]) == EXIT_ERROR


def test_malformed_report_exits_three(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"attacks": {"x": {"points": [{}]}}}))
    assert run(["report", "--in", str(report)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith('error: missing required key "attack"')
    report.write_text(json.dumps({"attacks": {"x": {"attack": "x", "points": [{}]}}}))
    assert run(["report", "--in", str(report)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith('error: point 0: missing required key "epsilon"')


def test_malformed_rule_set_exits_three(tmp_path, capsys):
    target = tmp_path / "t.json"
    save_tree(build_example_target(), target)
    shadow = tmp_path / "s.json"
    shadow.write_text(json.dumps({"kind": "rule_set", "regions": []}))
    assert run(["eval", "--target", str(target), "--shadow", str(shadow),
                "--grid-dataset", "10"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith('error: missing required key "ranges_low"')


def _malformed_tree(**fields):
    return {**tree_to_dict(build_example_target()), **fields}


def _rule_set(values, ranges_high=(7, 3), label="a"):
    """Two regions over 2-feature ranges whose bounds hold ``values`` values
    each; the first one is labelled ``label``."""
    regions = [{"label": label, "witness": [1.0, 1.0],
                "low": [low] * values, "high": [low + 4.0] * values}
               for label, low in ((label, -2.0), ("b", 2.0))]
    return {"kind": "rule_set", "regions": regions, "ranges_low": [2, -2],
            "ranges_high": list(ranges_high)}


@pytest.mark.parametrize("command, doc, message", [
    ("report", {"attacks": []}, '"attacks": expected a JSON object, got list'),
    ("report", {"attacks": {"x": {"attack": "x", "points": 5}}},
     '"points" must be a JSON array, got int'),
    ("attack", _malformed_tree(nodes=5), '"nodes" must be a JSON array, got int'),
    ("attack", _malformed_tree(ranges_low=3), '"ranges_low" must be a JSON array, got int'),
    ("eval", {"kind": "rule_set", "regions": 3, "ranges_low": [2, -2],
              "ranges_high": [7, 3]}, '"regions" must be a JSON array, got int'),
    ("eval", _rule_set(1), 'region 0: "low" has 1 values, expected 2'),
    ("eval", _rule_set(3), 'region 0: "low" has 3 values, expected 2'),
    ("eval", _rule_set(2, ranges_high=[7]), '"ranges_high" has 1 values, expected 2'),
    ("eval", _rule_set(2, label=["a"]), 'region 0: label [\'a\'] is unhashable'),
    ("eval", _rule_set(2, label=float("nan")), "region 0: label nan is unequal to itself"),
], ids=["attacks-list", "points-int", "nodes-int", "ranges-int", "regions-int",
        "region-1-value", "region-3-values", "ranges-high-1-value", "list-label",
        "nan-label"])
def test_malformed_container_exits_three(tmp_path, capsys, command, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    target = tmp_path / "t.json"
    save_tree(build_example_target(), target)
    out = str(tmp_path / "out.json")
    argv = {
        "report": ["report", "--in", str(bad)],
        "attack": ["attack", "--tree", str(bad), "--epsilon", "0.5", "--out", out],
        "eval": ["eval", "--target", str(target), "--shadow", str(bad),
                 "--grid-dataset", "10"],
    }[command]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def _tree_with_leaf_value(value):
    """The example target with leaf 6's label replaced by ``value``."""
    doc = tree_to_dict(build_example_target())
    node = next(n for n in doc["nodes"] if n["id"] == 6)
    assert node["value"] is not None
    node["value"] = value
    return doc


@pytest.mark.parametrize("argv", [
    ["baseline", "--epsilon", "0.5"],
    ["sweep", "--attack", "both", "--samples", "50"],
], ids=["baseline", "sweep-both"])
@pytest.mark.parametrize("value, message", [
    ([1, 2], "error: leaf 6: label [1, 2] is unhashable\n"),
    (float("nan"), "error: leaf 6: label nan is unequal to itself\n"),
], ids=["list-label", "nan-label"])
def test_incomparable_leaf_label_exits_three(tmp_path, capsys, argv, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_tree_with_leaf_value(value)))
    out = str(tmp_path / "out")
    assert run(argv + ["--tree", str(bad), "--out", out]) == EXIT_ERROR
    assert capsys.readouterr().err == message


def test_seed_accepted_after_subcommand(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen-tree", "--features", "2", "--depth", "2:2",
                "--range", "0:1,0:1", "--grid", "0.25", "--seed", "1",
                "--out", str(a)]) == EXIT_OK
    assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:2",
                "--range", "0:1,0:1", "--grid", "0.25", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("TREESTEALER_SEED", "9")
    assert run(["gen-tree", "--features", "2", "--depth", "2:3",
                "--range", "0:8", "--grid", "0.5", "--out", str(a)]) == EXIT_OK
    monkeypatch.delenv("TREESTEALER_SEED")
    assert run(["--seed", "9", "gen-tree", "--features", "2", "--depth", "2:3",
                "--range", "0:8", "--grid", "0.5", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_train_subcommand(tmp_path, capsys):
    out = tmp_path / "iris_tree.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--out", str(out)]) == EXIT_OK
    tree = load_tree(out)
    assert tree.num_features == 4
    assert "training accuracy" in capsys.readouterr().out


def test_transcript_and_determinism(tmp_path):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    paths = []
    for name in ("one", "two"):
        shadow = tmp_path / f"{name}.json"
        transcript = tmp_path / f"{name}.jsonl"
        assert run(["--seed", "5", "attack", "--tree", str(tree_path),
                    "--epsilon", "0.5", "--transcript", str(transcript),
                    "--out", str(shadow)]) == EXIT_OK
        paths.append((shadow, transcript))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_no_passive_tracking_flag(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    assert run(["attack", "--tree", str(tree_path), "--epsilon", "0.5",
                "--no-passive-tracking", "--out", str(tmp_path / "s.json")]) == EXIT_OK
    shadow = load_tree(tmp_path / "s.json")
    assert tree_equal(build_example_target(), shadow, 0.25).equal


def test_baseline_subcommand(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    out = tmp_path / "regions.json"
    assert run(["baseline", "--tree", str(tree_path), "--epsilon", "0.25",
                "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rule_set"
    assert run(["eval", "--target", str(tree_path), "--shadow", str(out),
                "--grid-dataset", "500"]) == EXIT_OK
    assert "fidelity" in capsys.readouterr().out


def test_baseline_sweep_ignores_the_register_budget(tmp_path, capsys):
    tree_path = tmp_path / "chain12.json"
    save_tree(chain_tree(12), tree_path)
    reports = {}
    for channel in ("perfect", "phr"):
        out = tmp_path / channel
        assert run(["sweep", "--tree", str(tree_path), "--attack", "baseline",
                    "--channel", channel, "--samples", "200", "--no-timing",
                    "--out", str(out)]) == EXIT_OK
        reports[channel] = (out / "report.json").read_text()
    assert reports["phr"] == reports["perfect"]
    capsys.readouterr()
    assert run(["attack", "--tree", str(tree_path), "--channel", "phr",
                "--epsilon", "0.5", "--out", str(tmp_path / "s.json")]) == EXIT_ERROR
    assert "register budget" in capsys.readouterr().err


def test_sweep_both_survives_register_truncation(tmp_path, capsys):
    # The extractor's first run is truncated; the baseline sweep still
    # completes and the report is written, flagged as partial.
    tree_path = tmp_path / "chain12.json"
    save_tree(chain_tree(12), tree_path)
    out = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), "--attack", "both",
                "--channel", "phr", "--samples", "200", "--out", str(out)]) == EXIT_PARTIAL
    doc = json.loads((out / "report.json").read_text())
    assert doc["attacks"]["baseline"]["points"][-1]["fidelity"] == 1.0
    extractor = doc["attacks"]["extractor"]["points"]
    assert [p["status"] for p in extractor] == ["truncated"]
    assert extractor[0]["fidelity"] == 0.0 and extractor[0]["queries"] == 1
    assert (out / "report.csv").exists()
    assert "status truncated" in capsys.readouterr().out


def test_attack_has_no_truncation_flags(tmp_path):
    # A register readout that loses decisions always raises; there is no
    # flag to choose another behaviour.
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    for flag in ("--lenient", "--strict"):
        assert run(["attack", "--tree", str(tree_path), "--channel", "phr", flag,
                    "--epsilon", "0.5", "--out", str(tmp_path / "s.json")]) == EXIT_USAGE


def test_eval_rejects_a_zero_holdout(tmp_path, capsys):
    tree_path = tmp_path / "iris_tree.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--out", str(tree_path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["eval", "--target", str(tree_path), "--shadow", str(tree_path),
                "--dataset", str(IRIS_CSV), "--holdout", "0"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: holdout fraction must be in (0, 1)\n"


@pytest.mark.parametrize("rows", ["0", "-3"])
def test_eval_rejects_a_grid_dataset_below_one(tmp_path, capsys, rows):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    assert run(["eval", "--target", str(tree_path), "--shadow", str(tree_path),
                "--grid-dataset", rows]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: --grid-dataset must be at least 1\n"


@pytest.mark.parametrize("extra, message", [
    (["--dataset", str(IRIS_CSV), "--grid-dataset", "5"],
     "argument --grid-dataset: not allowed with argument --dataset"),
    (["--holdout", "0.2"], "error: --holdout needs --dataset\n"),
    (["--header"], "error: --header needs --dataset\n"),
], ids=["dataset-and-grid-dataset", "holdout-without-dataset", "header-without-dataset"])
def test_eval_rejects_options_that_do_not_fit_its_rows(tmp_path, capsys, extra, message):
    tree_path = tmp_path / "iris_tree.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--out", str(tree_path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["eval", "--target", str(tree_path), "--shadow", str(tree_path)]
               + extra) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sweep_rejects_samples_below_one(tmp_path, capsys, samples):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    assert run(["sweep", "--tree", str(tree_path), "--samples", samples,
                "--out", str(tmp_path / "report")]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: --samples must be at least 1\n"


@pytest.mark.parametrize("timing", [[], ["--no-timing"]], ids=["timed", "untimed"])
def test_report_out_reproduces_the_report(tmp_path, timing):
    tree_path = tmp_path / "t.json"
    assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:3",
                "--range", "0:8", "--grid", "0.5", "--out", str(tree_path)]) == EXIT_OK
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["sweep", "--tree", str(tree_path), "--samples", "200", *timing,
                "--out", str(first)]) == EXIT_OK
    assert run(["report", "--in", str(first / "report.json"), "--out", str(again)]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
