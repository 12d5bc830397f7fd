import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treestealer.channel import PHR_SGX, ChannelModel, ChannelSession, make_oracle
from treestealer.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, run
from treestealer.evaluate import load_dataset
from treestealer.extraction import dt_extraction
from treestealer.trees import (
    MAX_TREE_NODES,
    DecisionTree,
    assign_ids_breadth_first,
    load_tree,
    min_path_separation,
    save_tree,
    tree_equal,
    tree_to_dict,
)

from conftest import (
    build_example_target,
    chain_tree,
    deep_chain,
    inner,
    leaf,
    leaf_only_doc,
    predict_label,
    stump,
)

SRC = Path(__file__).resolve().parents[1] / "src"
IRIS_CSV = SRC / "treestealer" / "data" / "iris.csv"


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


def test_attack_extracts_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    target = deep_chain(1200)
    tree_path, shadow_path = tmp_path / "chain.json", tmp_path / "shadow.json"
    save_tree(target, tree_path)
    assert run(["attack", "--tree", str(tree_path), "--epsilon", "0.25",
                "--out", str(shadow_path)]) == EXIT_OK
    assert "extracted 1200 inner nodes / 1201 leaves" in capsys.readouterr().out
    shadow = load_tree(shadow_path)
    assert tree_equal(target, shadow, 0.125).equal
    assert shadow.depth() == target.depth() == 1200
    assert min_path_separation(target) == 1.0
    target.root.left.left.left.left.right.value = "changed"
    assert tree_equal(shadow, target, 0.125).first_mismatch == \
        "node at path 'LLLLR': leaf value 4 vs 'changed'"


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


def test_there_is_no_log_level_option(tmp_path):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    argv = ["eval", "--target", str(tree_path), "--shadow", str(tree_path)]
    assert run(["--log-level", "debug"] + argv) == EXIT_USAGE
    assert run(argv + ["--log-level", "debug"]) == EXIT_USAGE


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


def _rule_set_with(where, key, value):
    """A valid two-feature rule set whose ``key`` (of region ``where``, or
    of the model when ``where`` is None) holds ``value`` at index 0."""
    doc = _rule_set(2)
    holder = doc if where is None else doc["regions"][where]
    holder[key] = [value] + holder[key][1:]
    return doc


@pytest.mark.parametrize("where, key, value, message", [
    (0, "low", "-0.25", 'region 0: "low" must be a number, got "-0.25"'),
    (0, "high", True, 'region 0: "high" must be a number, got true'),
    (1, "witness", "1.0", 'region 1: "witness" must be a number, got "1.0"'),
    (None, "ranges_low", False, '"ranges_low" must be a number, got false'),
    (None, "ranges_high", "7", '"ranges_high" must be a number, got "7"'),
], ids=["low-string", "high-bool", "witness-string", "ranges-low-bool",
        "ranges-high-string"])
def test_rule_set_with_a_mistyped_number_exits_three(tmp_path, capsys, where, key,
                                                      value, message):
    target = tmp_path / "t.json"
    save_tree(build_example_target(), target)
    shadow = tmp_path / "s.json"
    shadow.write_text(json.dumps(_rule_set_with(where, key, value)))
    assert run(["eval", "--target", str(target), "--shadow", str(shadow),
                "--grid-dataset", "10"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_with_a_mistyped_point_exits_three_before_printing(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    report_dir = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), "--attack", "extractor",
                "--samples", "50", "--no-timing", "--out", str(report_dir)]) == EXIT_OK
    path = report_dir / "report.json"
    doc = json.loads(path.read_text())
    doc["attacks"]["extractor"]["points"][0]["epsilon"] = "100"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["report", "--in", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: point 0: "epsilon" must be a number, got "100"\n'


@pytest.mark.parametrize("command", ["eval", "report"])
def test_invalid_json_exits_three_with_the_schema_message(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    target = tmp_path / "t.json"
    save_tree(build_example_target(), target)
    argv = {
        "eval": ["eval", "--target", str(target), "--shadow", str(bad), "--grid-dataset", "10"],
        "report": ["report", "--in", str(bad)],
    }[command]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == ("error: not valid JSON: Expecting property name enclosed"
                                       " in double quotes: line 1 column 2 (char 1)\n")


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
    ("eval", {**_rule_set(2), "regions": []}, '"regions" must hold at least one region'),
    ("eval", _rule_set(1), 'region 0: "low" has 1 values, expected 2'),
    ("eval", _rule_set(3), 'region 0: "low" has 3 values, expected 2'),
    ("eval", _rule_set(2, ranges_high=[7]), '"ranges_high" has 1 values, expected 2'),
    ("eval", _rule_set(2, label=["a"]), 'region 0: label [\'a\'] is unhashable'),
    ("eval", _rule_set(2, label=float("nan")), "region 0: label nan is unequal to itself"),
], ids=["attacks-list", "points-int", "nodes-int", "ranges-int", "regions-int",
        "regions-empty", "region-1-value", "region-3-values", "ranges-high-1-value",
        "list-label", "nan-label"])
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


def _tree_with_threshold(value):
    """The example target with its root threshold replaced by ``value``."""
    doc = tree_to_dict(build_example_target())
    doc["nodes"][0]["threshold"] = value
    return doc


def _report_with_epsilon(value):
    return {"attacks": {"extractor": {"attack": "extractor", "points": [
        {"epsilon": value, "queries": 3, "fidelity": 1.0, "status": "ok"}]}}}


@pytest.mark.parametrize("command, doc, message", [
    ("eval-target", _malformed_tree(ranges_high=[float("inf"), 8.0]),
     '"ranges_high" must be a finite number, got Infinity'),
    ("eval-target", _malformed_tree(ranges_low=[10 ** 400, 0.0]),
     f'"ranges_low" must be a finite number, got {10 ** 400}'),
    ("attack", _tree_with_threshold(float("nan")),
     'node 0: "threshold" must be a finite number, got NaN'),
    ("eval", _rule_set_with(0, "low", float("-inf")),
     'region 0: "low" must be a finite number, got -Infinity'),
    ("report", _report_with_epsilon(float("nan")),
     'point 0: "epsilon" must be a finite number, got NaN'),
], ids=["tree-range-infinity", "tree-range-huge-integer", "tree-threshold-nan",
        "rule-set-low-minus-infinity", "report-epsilon-nan"])
def test_non_finite_number_in_a_file_exits_three(tmp_path, capsys, command, doc, message):
    # Python's json reads NaN and Infinity; the loaders accept finite numbers only.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    target = tmp_path / "t.json"
    save_tree(build_example_target(), target)
    argv = {
        "report": ["report", "--in", str(bad)],
        "attack": ["attack", "--tree", str(bad), "--epsilon", "0.5",
                   "--out", str(tmp_path / "out.json")],
        "eval": ["eval", "--target", str(target), "--shadow", str(bad),
                 "--grid-dataset", "10"],
        "eval-target": ["eval", "--target", str(bad), "--shadow", str(target),
                        "--grid-dataset", "10"],
    }[command]
    assert run(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["gen-tree", "--features", "120", "--depth", "1100:1100",
      "--range", ",".join(["0:4096"] * 120), "--grid", "1"],
     f"depth_min 1100 forces at least 2 ** 1101 - 1 nodes, "
     f"more than MAX_TREE_NODES = {MAX_TREE_NODES}"),
    (["--seed", "3", "gen-tree", "--features", "8", "--depth", "1:100",
      "--range", ",".join(["0:1e9"] * 8), "--grid", "1"],
     f"random tree passes MAX_TREE_NODES = {MAX_TREE_NODES} nodes"),
], ids=["depth-min", "node-count"])
def test_oversize_tree_recipe_exits_three(tmp_path, argv, message):
    # The first recipe forces 2 ** 1101 leaves and once recursed past the
    # interpreter's limit; the second grows without end at split
    # probability 0.6. A child process with a timeout turns a run that
    # never ends into a failure.
    out = tmp_path / "t.json"
    done = subprocess.run(
        [sys.executable, "-m", "treestealer.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_ERROR, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("ranges, message", [
    ("0-1", "range '0-1' must look like low:high"),
    ("0:1,0:1", "2 ranges for 3 features"),
], ids=["no-colon", "too-few"])
def test_malformed_gen_tree_ranges_exit_three(tmp_path, capsys, ranges, message):
    out = tmp_path / "t.json"
    assert run(["gen-tree", "--features", "3", "--depth", "1:2", "--range", ranges,
                "--grid", "0.25", "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("ranges, features, message", [
    ("0:8,0:8", "2", "feature range (0.0, 8.0) spans 8e+300 grid steps"),
    ("0:1e308", "1", "feature range (0.0, 1e+308) spans inf grid steps"),
], ids=["steps-past-ssize", "steps-infinite"])
def test_grid_with_more_than_2_53_steps_exits_three(tmp_path, capsys, ranges, features,
                                                    message):
    assert run(["gen-tree", "--features", features, "--depth", "1:2", "--range", ranges,
                "--grid", "1e-300", "--out", str(tmp_path / "t.json")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}, more than 2 ** 53\n")


@pytest.mark.parametrize("command, epsilon, code, stream, text", [
    ("attack", "1e-20", EXIT_OK, "stdout", "extracted 3 inner nodes / 4 leaves in 164 queries"),
    ("attack", "5e-324", EXIT_OK, "stdout", "extracted 3 inner nodes / 4 leaves in 164 queries"),
    ("baseline", "1e-20", EXIT_OK, "stdout", "baseline mapped 4 regions in 213 queries"),
    ("baseline", "5e-324", EXIT_OK, "stdout", "baseline mapped 4 regions in 212 queries"),
], ids=["attack", "attack-subnormal", "baseline", "baseline-subnormal"])
def test_resolution_below_float_spacing_ends(tmp_path, command, epsilon, code, stream, text):
    # At these resolutions a bracket around 1.5 stops halving long before
    # it is epsilon wide, and a subnormal one overflows the baseline's
    # lattice step count; the run must end anyway. A child process with a
    # timeout turns a run that never ends into a failure. The extractor's
    # feature probes still step off the box edge by one ulp, and a bracket
    # of two adjacent doubles gives its exact lower end, so the shadow is
    # bit-exact.
    tree_path = tmp_path / "t.json"
    assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:2",
                "--range", "0:8", "--grid", "0.5", "--out", str(tree_path)]) == EXIT_OK
    done = subprocess.run(
        [sys.executable, "-m", "treestealer.cli", command, "--tree", str(tree_path),
         "--epsilon", epsilon, "--out", str(tmp_path / "out.json")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == code
    assert getattr(done, stream).startswith(text)
    if command == "attack":
        shadow = load_tree(tmp_path / "out.json")
        assert tree_equal(load_tree(tree_path), shadow, 0.0).equal


@pytest.mark.parametrize("attack, eps_start, expected, fidelity, code", [
    ("extractor", "5e-324", [(5e-324, "ok")], 1.0, EXIT_OK),
    ("baseline", "1e-323", [(1e-323, "ok"), (5e-324, "exhausted")], 0.44, EXIT_PARTIAL),
], ids=["extractor", "baseline-duplicate-labels"])
def test_subnormal_sweep_stops_halving_above_zero(tmp_path, capsys, attack, eps_start,
                                                  expected, fidelity, code):
    # The extractor is bit-exact at the smallest double, so its sweep ends
    # there. The baseline merges the two label-0 leaves at every epsilon,
    # so its sweep runs until halving would reach 0.0, and stops there,
    # short of fidelity 1.0: its last point says the epsilons ran out.
    if attack == "extractor":
        tree_path = tmp_path / "t.json"
        assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:2",
                    "--range", "0:8", "--grid", "0.5", "--out", str(tree_path)]) == EXIT_OK
    else:
        root = inner(0, 2.0, inner(0, 6.0, leaf(0), leaf(1)), leaf(0))
        assign_ids_breadth_first(root)
        tree_path = tmp_path / "dup.json"
        save_tree(DecisionTree(root=root, ranges_low=[0.0], ranges_high=[8.0]), tree_path)
    out = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), "--attack", attack,
                "--eps-start", eps_start, "--samples", "50", "--out", str(out)]) == code
    points = json.loads((out / "report.json").read_text())["attacks"][attack]["points"]
    assert [(p["epsilon"], p["status"]) for p in points] == expected
    assert points[-1]["fidelity"] == pytest.approx(fidelity)
    capsys.readouterr()
    assert run(["report", "--in", str(out / "report.json")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-2].endswith(expected[-1][1])


def test_sweep_timeout_is_partial_and_reported(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    out = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), "--timeout", "1e-9",
                "--samples", "50", "--out", str(out)]) == EXIT_PARTIAL
    points = json.loads((out / "report.json").read_text())["attacks"]["extractor"]["points"]
    assert [(p["epsilon"], p["status"]) for p in points] == [(100.0, "timeout")]
    assert "status timeout" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--plateau-limit", "0", "plateau_limit must be at least 1"),
    ("--timeout", "nan", "timeout must be positive"),
], ids=["plateau-0", "timeout-nan"])
def test_sweep_rejects_a_disabled_stop_rule(tmp_path, capsys, flag, value, message):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)
    out = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), flag, value, "--samples", "50",
                "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_that_plateaus_on_path_deviations_is_partial(tmp_path, capsys):
    # At epsilon 100 and 50 every run deviates and scores fidelity 0, so
    # the sweep plateaus with its last point still a path deviation.
    tree_path = tmp_path / "t.json"
    assert run(["--seed", "1", "gen-tree", "--features", "2", "--depth", "2:2",
                "--range", "0:8", "--grid", "0.5", "--out", str(tree_path)]) == EXIT_OK
    out = tmp_path / "report"
    assert run(["sweep", "--tree", str(tree_path), "--plateau-limit", "2",
                "--out", str(out)]) == EXIT_PARTIAL
    points = json.loads((out / "report.json").read_text())["attacks"]["extractor"]["points"]
    assert [(p["epsilon"], p["status"], p["fidelity"]) for p in points] == [
        (100.0, "path_deviation", 0.0), (50.0, "path_deviation", 0.0)]
    assert "status path_deviation" in capsys.readouterr().out


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


@pytest.mark.parametrize("flag", ["--min-leaf", "--margin"])
def test_train_has_no_leaf_size_or_margin_flags(tmp_path, flag):
    assert run(["train", "--dataset", str(IRIS_CSV), flag, "1",
                "--out", str(tmp_path / "t.json")]) == EXIT_USAGE
    assert not (tmp_path / "t.json").exists()


def test_train_then_attack_on_class_names(tmp_path, capsys):
    names = {"0": "setosa", "1": "versicolor", "2": "virginica"}
    dataset = tmp_path / "names.csv"
    rows = [line.rsplit(",", 1) for line in IRIS_CSV.read_text().splitlines()]
    dataset.write_text("".join(f"{x},{names[y]}\n" for x, y in rows))
    tree_path, shadow_path = tmp_path / "t.json", tmp_path / "s.json"
    assert run(["train", "--dataset", str(dataset), "--out", str(tree_path)]) == EXIT_OK
    assert "training accuracy 1.000" in capsys.readouterr().out
    tree = load_tree(tree_path)
    assert {leaf.value for leaf in tree.leaves()} == set(names.values())
    assert run(["attack", "--tree", str(tree_path), "--epsilon", "0.01",
                "--out", str(shadow_path)]) == EXIT_OK
    assert tree_equal(tree, load_tree(shadow_path), 0.01).equal


def test_train_accuracy_counts_per_row_agreement(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--max-depth", "1",
                "--out", str(out)]) == EXIT_OK
    tree, rows = load_tree(out), load_dataset(IRIS_CSV).rows
    agreement = sum(1 for x, y in rows if predict_label(tree, x) == y)
    assert f"training accuracy {agreement / len(rows):.3f}," in capsys.readouterr().out
    assert agreement / len(rows) == pytest.approx(2 / 3)


def test_train_rejects_negative_max_depth(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--max-depth", "-1",
                "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: max_depth must be at least 0\n")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_non_finite_dataset_cell_exits_three_and_writes_nothing(tmp_path, capsys, cell):
    # Iris rows 1-10 and 51-60 train a one-split tree; one bad cell
    # would otherwise give it NaN ranges, or score a NaN row.
    lines = IRIS_CSV.read_text().splitlines()
    dataset = tmp_path / "d.csv"
    dataset.write_text("\n".join(lines[:10] + lines[50:60] + [f"{cell},3.0,1.4,0.2,0"]) + "\n")
    message = f"error: row 21, column 1: non-finite feature '{cell}'\n"
    tree = tmp_path / "t.json"
    assert run(["train", "--dataset", str(dataset), "--out", str(tree)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", message)
    assert not tree.exists()
    save_tree(build_example_target(), tree)
    dataset.write_text(f"1.0,2.0,0\n{cell},3.0,1\n")
    out = tmp_path / "fidelity.json"
    assert run(["eval", "--target", str(tree), "--shadow", str(tree),
                "--dataset", str(dataset), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", message.replace("21", "2"))
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_label_exits_three_and_writes_nothing(tmp_path, capsys, cell):
    # A nan label used to fail the tree check, and an inf one to train a
    # leaf written as Infinity, which is not JSON.
    dataset = tmp_path / "d.csv"
    dataset.write_text(f"1.0,2.0,0.5\n2.0,1.0,1.5\n3.0,3.0,{cell}\n")
    tree = tmp_path / "t.json"
    assert run(["train", "--dataset", str(dataset), "--out", str(tree)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: row 3, column 3: non-finite label '{cell}'\n")
    assert not tree.exists()


def test_train_on_extreme_feature_magnitudes(tmp_path, capsys):
    # A constant column at 1e17, where a 0.05 pad is below half an ulp,
    # and a column whose span overflows a double.
    dataset = tmp_path / "d.csv"
    dataset.write_text("1e17,-1e308,0\n1e17,1e308,1\n")
    out = tmp_path / "t.json"
    assert run(["train", "--dataset", str(dataset), "--out", str(out)]) == EXIT_OK
    assert "training accuracy 1.000" in capsys.readouterr().out
    tree = load_tree(out)
    assert tree.ranges_low == [1e17 - 16, -1.1e308]
    assert tree.ranges_high == [1e17 + 16, 1.1e308]


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


def test_eval_out_writes_the_printed_metrics(tmp_path, capsys):
    tree_path, metrics = tmp_path / "iris_tree.json", tmp_path / "m.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--out", str(tree_path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["eval", "--target", str(tree_path), "--shadow", str(tree_path),
                "--dataset", str(IRIS_CSV), "--out", str(metrics)]) == EXIT_OK
    assert capsys.readouterr().out == \
        "fidelity 1.0000 (extraction error 0.0000) on 150 rows\n"
    assert json.loads(metrics.read_text()) == \
        {"fidelity": 1.0, "extraction_error": 0.0, "rows": 150}


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
    (["--header"], "error: --header needs --dataset\n"),
], ids=["dataset-and-grid-dataset", "header-without-dataset"])
def test_eval_rejects_options_that_do_not_fit_its_rows(tmp_path, capsys, extra, message):
    tree_path = tmp_path / "iris_tree.json"
    assert run(["train", "--dataset", str(IRIS_CSV), "--out", str(tree_path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["eval", "--target", str(tree_path), "--shadow", str(tree_path)]
               + extra) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_range_too_wide_to_sample_exits_three_and_writes_nothing(tmp_path, capsys, command):
    # One split at 0 on [-1e308, 1e308]: the tree extracts (attack exits
    # 0), but the range's width overflows a double, so neither command
    # can draw its evaluation samples.
    root = inner(0, 0.0, leaf(0), leaf(1))
    assign_ids_breadth_first(root)
    tree = tmp_path / "w.json"
    save_tree(DecisionTree(root=root, ranges_low=[-1e308], ranges_high=[1e308]), tree)
    assert run(["attack", "--tree", str(tree), "--epsilon", "1",
                "--out", str(tmp_path / "s.json")]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / ("m.json" if command == "eval" else "d")
    argv = {"eval": ["eval", "--target", str(tree), "--shadow", str(tree), "--out", str(out)],
            "sweep": ["sweep", "--tree", str(tree), "--out", str(out)]}[command]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: feature 0 range [-1e+308, 1e+308] cannot be "
                                       "sampled: its width is not a finite double\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "attack", "baseline", "sweep"])
def test_inverted_range_in_a_tree_file_exits_three_and_writes_nothing(tmp_path, capsys,
                                                                       command):
    # A leaf-only tree on the range [8, 0]: loading it fails the domain
    # rule, so no command scores or attacks it.
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(leaf_only_doc([8], [0])))
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--target", str(tree), "--shadow", str(tree),
                     "--grid-dataset", "5", "--out", str(out)],
            "attack": ["attack", "--tree", str(tree), "--epsilon", "1", "--out", str(out)],
            "baseline": ["baseline", "--tree", str(tree), "--epsilon", "1",
                         "--out", str(out)],
            "sweep": ["sweep", "--tree", str(tree), "--out", str(out)]}[command]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: invalid feature range (8.0, 0.0)\n")
    assert not out.exists()


def test_attacks_across_a_range_whose_width_overflows_are_exact(tmp_path, capsys):
    # x0 > 4 on [-DBL_MAX, DBL_MAX]: both attacks bisect a bracket wider
    # than the largest double and must land on the threshold.
    tree_path = tmp_path / "stump.json"
    save_tree(stump(-sys.float_info.max, sys.float_info.max), tree_path)
    shadow_path, regions_path = tmp_path / "s.json", tmp_path / "r.json"
    assert run(["attack", "--tree", str(tree_path), "--epsilon", "0.25",
                "--out", str(shadow_path)]) == EXIT_OK
    assert tree_equal(load_tree(tree_path), load_tree(shadow_path), 0.125).equal
    assert run(["baseline", "--tree", str(tree_path), "--epsilon", "0.25",
                "--out", str(regions_path)]) == EXIT_OK
    regions = {r["label"]: r for r in json.loads(regions_path.read_text())["regions"]}
    assert 4.0 - 0.25 <= regions[0]["low"][0] <= 4.0
    assert 4.0 - 0.25 <= regions[1]["high"][0] <= 4.0
    capsys.readouterr()


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
