import json

import pytest

from treestealer.errors import SchemaError
from treestealer.evaluate import (
    SweepPoint,
    SweepResult,
    boundary_margin_inputs,
    emit_report,
    extraction_error,
    fidelity,
    infer_ranges,
    load_dataset,
    load_report,
    pareto_frontier,
    pareto_sweep,
    sweep_to_dict,
    threshold_margin,
    uniform_inputs,
)
from treestealer.trees import DecisionTree, infer

from conftest import build_example_target, leaf


class TestExtractionError:
    def test_identical_trees_have_zero_error(self, example_target):
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 500, seed=0)
        assert extraction_error(example_target, example_target, inputs) == 0.0
        assert fidelity(example_target, example_target, inputs) == 1.0

    def test_flipped_leaf_error_equals_routed_fraction(self, example_target):
        flipped = build_example_target()
        flipped.root.left.left.value = 99
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 1000, seed=1)
        # Independent oracle: count the rows the target routes to that leaf.
        routed = sum(1 for x in inputs if infer(example_target, x) == 0)
        expected = routed / len(inputs)
        assert extraction_error(example_target, flipped, inputs) == pytest.approx(expected)
        assert expected > 0.1  # the leftmost leaf covers a visible share

    def test_symmetric_in_argument_order(self, example_target):
        flipped = build_example_target()
        flipped.root.left.left.value = 99
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 400, seed=2)
        assert extraction_error(example_target, flipped, inputs) == \
            extraction_error(flipped, example_target, inputs)

    def test_empty_dataset_rejected(self, example_target):
        with pytest.raises(ValueError):
            extraction_error(example_target, example_target, [])


class TestDatasets:
    def test_two_row_ranges(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n3,4,B\n")
        dataset = load_dataset(path)
        lows, highs = infer_ranges(dataset, margin=0.0)
        assert lows == [1.0, 2.0]
        assert highs == [3.0, 4.0]
        assert dataset.labels() == ["A", "B"]

    def test_margin_widens_each_side_by_span_fraction(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,10,A\n4,20,B\n")
        lows, highs = infer_ranges(load_dataset(path), margin=0.05)
        assert lows == pytest.approx([-0.2, 9.5])
        assert highs == pytest.approx([4.2, 20.5])

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n1,oops,B\n")
        with pytest.raises(SchemaError, match="row 2, column 2"):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n1,B\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_dataset(path)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n")
        dataset = load_dataset(path, header=True)
        assert dataset.feature_names == ["a", "b"]
        assert dataset.labels() == [0, 1]


class TestSamplers:
    def test_uniform_respects_ranges_and_seed(self):
        a = uniform_inputs([0, -2], [1, 3], 100, seed=5)
        b = uniform_inputs([0, -2], [1, 3], 100, seed=5)
        assert a == b
        assert all(0 <= x[0] <= 1 and -2 <= x[1] <= 3 for x in a)

    def test_margin_sampler_avoids_boundaries(self, example_target):
        margin = threshold_margin(example_target)
        assert margin > 0
        samples = boundary_margin_inputs(example_target, 500, seed=6)
        thresholds = {0: [3.094], 1: [0.594, -0.906, 1.906, 0.094]}
        for x in samples:
            for f, ts in thresholds.items():
                for t in ts:
                    assert abs(x[f] - t) >= margin - 1e-12

    def test_leaf_only_tree_falls_back_to_uniform(self):
        tree = DecisionTree(root=leaf(1, 0), num_features=1,
                            ranges_low=[0], ranges_high=[1])
        samples = boundary_margin_inputs(tree, 50, seed=7)
        assert len(samples) == 50


class TestSweep:
    def test_single_leaf_target_single_point(self):
        tree = DecisionTree(root=leaf(3, 0), num_features=1,
                            ranges_low=[0], ranges_high=[1])
        result = pareto_sweep(tree, "extractor", eps_start=100.0, samples=50, seed=0)
        assert len(result.points) == 1
        point = result.points[0]
        assert point.epsilon == 100.0
        assert point.queries == 1
        assert point.fidelity == 1.0
        assert point.status == "ok"

    def test_example_tree_perfect_at_first_point(self, example_target):
        result = pareto_sweep(example_target, "extractor", eps_start=0.5,
                              samples=500, seed=0)
        assert result.points[0].fidelity == 1.0
        assert len(result.points) == 1

    def test_plateau_terminates(self):
        # Duplicate leaf labels cap the baseline's fidelity below 1.0, so
        # halving epsilon cannot help and the sweep must plateau out.
        from treestealer.trees import assign_ids_breadth_first
        from conftest import inner
        root = inner(0, 2.0, 0,
                     inner(0, 6.0, 1, leaf(0, 2), leaf(1, 2)),
                     leaf(0, 1))
        assign_ids_breadth_first(root)
        target = DecisionTree(root=root, num_features=1,
                              ranges_low=[0.0], ranges_high=[8.0])
        result = pareto_sweep(target, "baseline", eps_start=0.25,
                              plateau_limit=3, samples=200, seed=0)
        assert result.points[-1].status == "plateau"
        assert result.points[-1].fidelity < 1.0
        tail = [p.fidelity for p in result.points[-3:]]
        assert len(set(tail)) == 1

    def test_determinism(self, example_target):
        a = pareto_sweep(example_target, "extractor", eps_start=2.0, samples=200, seed=9)
        b = pareto_sweep(example_target, "extractor", eps_start=2.0, samples=200, seed=9)
        assert sweep_to_dict(a, include_timing=False) == sweep_to_dict(b, include_timing=False)


class TestParetoFrontier:
    def test_non_dominated_sorted(self):
        points = [
            SweepPoint(1.0, 10, 0.5, 0.0, "ok"),
            SweepPoint(0.5, 20, 0.4, 0.0, "ok"),   # dominated
            SweepPoint(0.25, 30, 0.9, 0.0, "ok"),
            SweepPoint(0.125, 25, 0.9, 0.0, "ok"),  # same fidelity, cheaper
            SweepPoint(0.0625, 40, 1.0, 0.0, "ok"),
        ]
        frontier = pareto_frontier(points)
        queries = [p.queries for p in frontier]
        fidelities = [p.fidelity for p in frontier]
        assert queries == sorted(queries)
        assert fidelities == sorted(fidelities)
        for i, a in enumerate(frontier):
            for b in frontier[i + 1:]:
                assert b.queries > a.queries and b.fidelity > a.fidelity


class TestReports:
    def test_empty_sweep_emits_headers(self, tmp_path):
        json_path, csv_path = emit_report(SweepResult(attack="extractor"), tmp_path)
        assert json.loads(json_path.read_text())["attacks"]["extractor"]["points"] == []
        assert csv_path.read_text().splitlines() == \
            ["attack,epsilon,queries,fidelity,status"]

    def test_json_round_trip_exact(self, tmp_path, example_target):
        result = pareto_sweep(example_target, "extractor", eps_start=1.0,
                              samples=100, seed=1)
        emit_report(result, tmp_path)
        loaded = load_report(tmp_path / "report.json")
        assert sweep_to_dict(loaded["extractor"]) == sweep_to_dict(result)

    def test_paired_report_keyed_by_attack(self, tmp_path, example_target):
        results = {
            "extractor": pareto_sweep(example_target, "extractor", eps_start=0.5,
                                      samples=100, seed=1),
            "baseline": pareto_sweep(example_target, "baseline", eps_start=0.5,
                                     samples=100, seed=1, plateau_limit=3,
                                     max_points=6),
        }
        json_path, csv_path = emit_report(results, tmp_path)
        doc = json.loads(json_path.read_text())
        assert set(doc["attacks"]) == {"extractor", "baseline"}
        rows = csv_path.read_text().splitlines()
        assert any(r.startswith("extractor,") for r in rows[1:])
        assert any(r.startswith("baseline,") for r in rows[1:])

    def test_missing_attacks_key_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{}")
        with pytest.raises(SchemaError, match="attacks"):
            load_report(path)


class TestSplit:
    def test_split_fractions_and_determinism(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("".join(f"{i},{i % 2}\n" for i in range(20)))
        from treestealer.evaluate import split_dataset
        dataset = load_dataset(path)
        train, held = split_dataset(dataset, 0.25, seed=3)
        assert len(held.rows) == 5 and len(train.rows) == 15
        train2, held2 = split_dataset(dataset, 0.25, seed=3)
        assert held.rows == held2.rows and train.rows == train2.rows
        all_rows = sorted(map(tuple, (tuple(r[0]) for r in train.rows + held.rows)))
        assert len(all_rows) == 20

    def test_bad_fraction_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n2,1\n")
        from treestealer.evaluate import split_dataset
        with pytest.raises(ValueError):
            split_dataset(load_dataset(path), 1.5)
