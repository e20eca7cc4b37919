import json

import numpy as np
import pytest

from medcascade.errors import EmptyInput
from medcascade.evaluator import (ReportCell, TaskScores, _rates, avg_percent, confusion_matrix,
                                  evaluate, prediction_dump, render_report)
from medcascade.corpus import LabelSet
from medcascade.encoder import build_toy_encoder
from medcascade.trainer import MultiTaskModel
from medcascade.variants import DatasetVariant, VariantExample


def rates(preds, golds, n_classes):
    """Accuracy and balanced accuracy of class indices, as ``score_predictions``
    takes them off the confusion matrix."""
    return _rates(confusion_matrix(preds, golds, n_classes))


class TestAccuracy:
    def test_identity(self):
        assert rates([1, 2, 3], [1, 2, 3], 4)[0] == 1.0

    def test_half(self):
        assert rates([0, 0, 1, 1], [0, 1, 1, 0], 2)[0] == 0.5

    def test_published_rate_from_stored_predictions(self):
        # reporting-path fixture: 79 of 100 stored predictions correct
        golds = [i % 4 for i in range(100)]
        preds = [g if i < 79 else (g + 1) % 4 for i, g in enumerate(golds)]
        assert rates(preds, golds, 4)[0] == 0.79


class TestBalancedAccuracy:
    def test_perfect(self):
        assert rates([0, 1, 2], [0, 1, 2], 3)[1] == 1.0

    def test_derived_recall_example(self):
        # golds aaab, preds aaaa: recalls (1.0, 0.0) -> 0.5; accuracy 0.75
        golds = [0, 0, 0, 1]
        preds = [0, 0, 0, 0]
        assert rates(preds, golds, 2) == (0.75, 0.5)

    def test_single_class_golds(self):
        assert rates([0, 0], [0, 0], 2)[1] == 1.0

    def test_absent_class_excluded(self):
        # class 2 never appears in golds: mean over classes 0 and 1 only
        assert rates([0, 1], [0, 1], 3)[1] == 1.0

    def test_agrees_with_accuracy_on_balanced_golds(self):
        # with perfectly class-balanced golds the two metrics coincide
        rng = np.random.default_rng(4)
        k, per_class = 4, 25
        golds = [c for c in range(k) for _ in range(per_class)]
        preds = [int(p) for p in rng.integers(0, k, size=k * per_class)]
        n = len(golds)
        acc, balanced = rates(preds, golds, k)
        assert abs(balanced - acc) <= 1.0 / n

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 51))
            golds = [int(g) for g in rng.integers(0, k, size=n)]
            preds = [int(p) for p in rng.integers(0, k, size=n)]
            recalls = []
            for cls in range(k):
                gold_in_class = sum(1 for g in golds if g == cls)
                if gold_in_class == 0:
                    continue
                correct = sum(1 for p, g in zip(preds, golds) if g == cls and p == cls)
                recalls.append(correct / gold_in_class)
            expected = sum(recalls) / len(recalls)
            assert rates(preds, golds, k)[1] == expected


class TestConfusion:
    def test_row_sums_are_gold_counts(self):
        golds = [0, 0, 1, 2, 2, 2]
        preds = [0, 1, 1, 2, 0, 2]
        matrix = confusion_matrix(preds, golds, 3)
        assert [sum(row) for row in matrix] == [2, 1, 3]
        assert sum(matrix[i][i] for i in range(3)) == 4


def variant_from(rows):
    return DatasetVariant(condition="normal", examples=[
        VariantExample(record_id=f"e{i}", text=text, aux="",
                       labels=LabelSet(condition_type=t, severity=s))
        for i, (text, t, s) in enumerate(rows)])


def toy_model(seed=0):
    enc = build_toy_encoder(seed=seed, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                            vocab_size=64, max_len=12)
    return MultiTaskModel.build(
        enc, {"type": ["chronic", "acute"], "severity": ["mild", "severe"]},
        head_seed=seed + 1)


class TestEvaluate:
    def test_zero_examples(self):
        with pytest.raises(EmptyInput):
            evaluate(toy_model(), DatasetVariant(condition="normal", examples=[]))

    def test_metrics_consistent_with_confusion(self):
        variant = variant_from([("نص اول", "chronic", "mild"),
                                ("نص ثاني", "acute", "severe"),
                                ("نص ثالث", "chronic", "severe")])
        scores, _ = evaluate(toy_model(), variant)
        for task_scores in scores.values():
            n = task_scores.n
            matrix = np.array(task_scores.confusion)
            assert matrix.sum() == n
            assert task_scores.accuracy == pytest.approx(np.trace(matrix) / n)
            assert 0.0 <= task_scores.balanced_accuracy <= 1.0

    def test_perfect_model_all_ones(self):
        variant = variant_from([("a", "chronic", "mild"), ("b", "acute", "severe")])
        model = toy_model()

        class Oracle:
            tasks = model.tasks
            task_vocabs = model.task_vocabs
            label_index = model.label_index
        # force predictions equal to golds by patching predict output via heads:
        # easier: evaluate a model over a dataset it trivially memorizes is
        # covered in trainer tests; here use direct metric checks instead.
        preds = [0, 1]
        golds = [0, 1]
        assert rates(preds, golds, 2) == (1.0, 1.0)
        matrix = confusion_matrix(preds, golds, 2)
        assert matrix[0][1] == matrix[1][0] == 0

    def test_random_predictions_near_chance(self):
        # binomial oracle: accuracy of uniform predictions over K=5 balanced
        # classes concentrates at 0.2 within 3 sigma for n = 10^4
        rng = np.random.default_rng(11)
        n, k = 10_000, 5
        golds = [int(g) for g in rng.integers(0, k, size=n)]
        preds = [int(p) for p in rng.integers(0, k, size=n)]
        acc, _ = rates(preds, golds, k)
        sigma = (0.2 * 0.8 / n) ** 0.5
        assert abs(acc - 0.2) <= 3 * sigma

    def test_prediction_dump_schema(self):
        variant = variant_from([("نص", "chronic", "mild")])
        model = toy_model()
        _, preds = evaluate(model, variant)
        dump = prediction_dump(model, variant, preds)
        rows = [json.loads(line) for line in dump.strip().splitlines()]
        assert {r["task"] for r in rows} == {"type", "severity"}
        assert all(set(r) == {"record_id", "task", "pred", "gold"} for r in rows)


# every (FT and W/O) AVG cell of the published grid: (type%, severity%) -> avg%
PUBLISHED_AVG_CELLS = [
    # refined-condition table
    (73, 65, 69), (65, 65, 65), (79, 63, 71), (76, 66, 71), (62, 57, 60), (81, 61, 71),
    (17, 43, 30), (13, 40, 27), (15, 45, 30), (19, 40, 30), (16, 39, 28), (13, 49, 31),
    # ner-condition table
    (73, 65, 69), (65, 65, 65), (79, 63, 71), (75, 66, 71), (62, 64, 63), (83, 69, 76),
    (17, 43, 30), (13, 40, 27), (15, 45, 30), (20, 40, 30), (15, 40, 28), (15, 42, 29),
    # summarized-condition table
    (73, 65, 69), (65, 65, 65), (79, 63, 71), (75, 64, 70), (63, 61, 62), (79, 64, 72),
    (17, 43, 30), (13, 40, 27), (15, 45, 30), (16, 40, 28), (15, 40, 28), (14, 46, 30),
]


class TestReportRendering:
    @pytest.mark.parametrize("type_pct,sev_pct,expected_avg", PUBLISHED_AVG_CELLS)
    def test_avg_cells_half_up(self, type_pct, sev_pct, expected_avg):
        assert avg_percent(type_pct / 100, sev_pct / 100) == expected_avg

    def test_symmetric_case(self):
        assert avg_percent(0.5, 0.5) == 50

    def test_percent_half_up(self):
        assert avg_percent(0.715) == 72
        assert avg_percent(0.714) == 71
        assert avg_percent(0.5) == 50

    def _cell(self, model_id, condition, fine_tuned, type_acc, sev_acc):
        def scores(task, acc):
            return TaskScores(task=task, accuracy=acc, balanced_accuracy=acc,
                              n=100, confusion=[[50, 0], [0, 50]])
        return ReportCell(model_id=model_id, condition=condition, fine_tuned=fine_tuned,
                          tasks={"type": scores("type", type_acc),
                                 "severity": scores("severity", sev_acc)})

    def test_render_grid_files(self, tmp_path):
        cells = [
            self._cell("camelbert", "normal", True, 0.79, 0.63),
            self._cell("camelbert", "ner", True, 0.83, 0.69),
            self._cell("camelbert", "ner", False, 0.15, 0.42),
        ]
        json_path, md_path = render_report(cells, tmp_path / "reports")
        grid = json.loads((tmp_path / "reports" / "report.json").read_text())
        by_cond = {(c["model_id"], c["condition"], c["fine_tuned"]): c
                   for c in grid["cells"]}
        assert by_cond[("camelbert", "ner", True)]["avg_percent"] == 76
        assert by_cond[("camelbert", "normal", True)]["avg_percent"] == 71
        md = (tmp_path / "reports" / "report.md").read_text()
        assert "| Normal Text | camelbert | 79% | 63% | 71% |" in md
        assert "| With Ner | camelbert | 83% | 69% | 76% | 15% | 42% | 29% |" in md

    def test_render_requires_cells(self, tmp_path):
        with pytest.raises(EmptyInput):
            render_report([], tmp_path)

    def test_render_deterministic(self, tmp_path):
        cells = [self._cell("m", "ner", True, 0.8, 0.7)]
        render_report(cells, tmp_path / "a")
        render_report(cells, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "report.md").read_bytes() == \
            (tmp_path / "b" / "report.md").read_bytes()
