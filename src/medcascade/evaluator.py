"""Accuracy / balanced accuracy per task and the model x condition report grid.

The human-readable report shows one whole-percent accuracy per task plus an
AVG column (arithmetic mean of the Type and Severity accuracies, rounded
half-up); balanced accuracy and the confusion matrices travel in the JSON
detail, since a grid of single numbers cannot carry both metrics.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import TYPE_CHECKING

import numpy as np

from .atomic import json_line, write_atomic, write_json
from .corpus import TASKS
from .errors import EmptyInput
from .variants import CONDITIONS, DatasetVariant, VariantExample

if TYPE_CHECKING:   # trainer imports this module
    from .trainer import MultiTaskModel

METRIC_NOTE = ("Headline cells are plain accuracy; balanced accuracy per cell "
               "is in report.json under tasks.<task>.balanced_accuracy.")


@dataclass
class TaskScores:
    task: str
    accuracy: float
    balanced_accuracy: float
    n: int
    confusion: list[list[int]]


def confusion_matrix(preds, golds, n_classes: int) -> list[list[int]]:
    """Counts with gold on rows, prediction on columns."""
    matrix = [[0] * n_classes for _ in range(n_classes)]
    for p, g in zip(preds, golds):
        matrix[int(g)][int(p)] += 1
    return matrix


def _rates(matrix: list[list[int]]) -> tuple[float, float]:
    """Accuracy and balanced accuracy off a confusion matrix's rows: the
    diagonal over all counts, and the mean recall of the rows that hold a
    gold, summed in row order."""
    recalls = [row[i] / sum(row) for i, row in enumerate(matrix) if sum(row)]
    correct = sum(row[i] for i, row in enumerate(matrix))
    return correct / sum(map(sum, matrix)), sum(recalls) / len(recalls)


def predict(model: MultiTaskModel, examples: list[VariantExample], batch_size: int = 8,
            ) -> dict[str, dict[str, np.ndarray]]:
    """Eval-mode argmax per task; ties break to the lowest class index.

    Examples are batched in order of length, each batch padded to its longest
    example.  An example's scores equal, to float64 rounding, those it gets
    alone: the BLAS kernel can change with the batch's row count, so the bytes
    can differ.  Scores and indices come back in input order.
    """
    ids, mask = model.encode_texts(examples)
    lengths = mask.sum(axis=1).astype(np.int64)
    order = np.argsort(lengths, kind="stable")
    scores = {task: np.zeros((len(examples), model.heads[task]["b"].shape[0]))
              for task in model.tasks}
    for start in range(0, len(order), batch_size):
        sel = order[start: start + batch_size]
        width = lengths[sel].max()
        logits, _, _ = model.forward(ids[sel, :width], mask[sel, :width], training=False)
        for task in model.tasks:
            scores[task][sel] = logits[task]
    return {task: {"indices": np.argmax(scores[task], axis=1).astype(np.int64),
                   "scores": scores[task]}
            for task in model.tasks}


def evaluate(model: MultiTaskModel, dataset: DatasetVariant,
             ) -> tuple[dict[str, TaskScores], dict[str, dict[str, np.ndarray]]]:
    """Score each of ``model.tasks`` on one variant; deterministic in its inputs.

    Returns the scores and the predictions they were computed from, so the
    prediction dump can reuse them instead of running the model again.
    """
    if not dataset.examples:
        raise EmptyInput("dataset has no examples")
    preds = predict(model, dataset.examples)
    return score_predictions(model, preds, model.targets(dataset)), preds


def score_predictions(model: MultiTaskModel, preds: dict[str, dict[str, np.ndarray]],
                      targets: dict[str, np.ndarray]) -> dict[str, TaskScores]:
    """Each task's scores off the confusion matrix of ``predict``'s indices
    against its class-index ``targets``."""
    scores: dict[str, TaskScores] = {}
    for task, golds in targets.items():
        confusion = confusion_matrix(preds[task]["indices"], golds,
                                     len(model.task_vocabs[task]))
        acc, balanced = _rates(confusion)
        scores[task] = TaskScores(task=task, accuracy=acc, balanced_accuracy=balanced,
                                  n=len(golds), confusion=confusion)
    return scores


def prediction_dump(model: MultiTaskModel, dataset: DatasetVariant,
                    preds: dict[str, dict[str, np.ndarray]]) -> str:
    """JSONL audit dump of ``evaluate``'s predictions: one line per
    (record, task) with pred and gold labels."""
    return "".join(
        json_line({"record_id": ex.record_id, "task": task,
                   "pred": model.task_vocabs[task][int(preds[task]["indices"][i])],
                   "gold": ex.labels.get(task)})
        for i, ex in enumerate(dataset.examples) for task in model.tasks)


# -- report grid ---------------------------------------------------------------

def avg_percent(*accuracies: float) -> int:
    """The exact mean of ``accuracies`` as a whole percent, rounded half-up
    (0.715 -> 72): a cell's percent of one accuracy, its AVG of all tasks'."""
    mean = sum(Decimal(repr(acc)) for acc in accuracies) / len(accuracies)
    return int(mean.scaleb(2).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


@dataclass
class ReportCell:
    model_id: str
    condition: str
    fine_tuned: bool
    tasks: dict[str, TaskScores] = field(default_factory=dict)

    def percent(self, task: str) -> int:
        return avg_percent(self.tasks[task].accuracy)

    def avg(self) -> int:
        return avg_percent(*(self.tasks[t].accuracy for t in TASKS))

    def to_json(self) -> dict:
        return {**asdict(self), "percent": {t: self.percent(t) for t in self.tasks},
                "avg_percent": self.avg()}


def render_report(cells: list[ReportCell], out_dir: str) -> tuple[str, str]:
    """Write report.json (full grid) and report.md (per-condition tables).

    Each augmented condition's table pairs the normal-text rows against the
    augmented rows, fine-tuned and non-fine-tuned arms side by side.
    """
    if not cells:
        raise EmptyInput("no report cells")

    grid = {"note": METRIC_NOTE,
            "cells": [c.to_json() for c in sorted(
                cells, key=lambda c: (c.condition, c.model_id, not c.fine_tuned))]}
    json_path = os.path.join(out_dir, "report.json")
    write_json(json_path, grid)

    by_key = {(c.model_id, c.condition, c.fine_tuned): c for c in cells}
    model_ids = sorted({c.model_id for c in cells})
    conditions = [c for c in CONDITIONS
                  if c != "normal" and any(cell.condition == c for cell in cells)]
    if not conditions and any(c.condition == "normal" for c in cells):
        conditions = ["normal"]

    md = ["# Evaluation report", "", f"_{METRIC_NOTE}_", ""]
    for condition in conditions:
        md.append(f"## {condition.capitalize()} condition")
        md.append("")
        md.append("| Rows | Model | FT Type | FT Severity | FT AVG "
                  "| W/O FT Type | W/O FT Severity | W/O FT AVG |")
        md.append("|---|---|---|---|---|---|---|---|")
        row_groups = [("Normal Text", "normal")] if condition != "normal" else []
        row_groups.append((f"With {condition.capitalize()}" if condition != "normal"
                           else "Normal Text", condition))
        for group_name, cond in row_groups:
            for model_id in model_ids:
                ft = by_key.get((model_id, cond, True))
                wo = by_key.get((model_id, cond, False))
                if ft is None and wo is None:
                    continue
                md.append("| " + " | ".join(
                    [group_name, model_id] + _row_cells(ft) + _row_cells(wo)) + " |")
        md.append("")
    md_path = os.path.join(out_dir, "report.md")
    write_atomic(md_path, "\n".join(md) + "\n")
    return json_path, md_path


def _row_cells(cell: ReportCell | None) -> list[str]:
    if cell is None:
        return ["-", "-", "-"]
    return [f"{cell.percent(t)}%" for t in TASKS] + [f"{cell.avg()}%"]
