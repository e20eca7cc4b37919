"""The whole experiment grid through the CLI, exactly as you would run it
from a shell:

    medcascade ingest     --config cfg.json
    medcascade preprocess --config cfg.json --backend mock
    medcascade variants   --config cfg.json
    medcascade train      --config cfg.json --model toy
    medcascade train      --config cfg.json --model toy --no-finetune
    medcascade report     --config cfg.json

``train`` runs a row of the grid: one cell per condition (all four unless
``--condition`` picks some), each with its own state, all on one encoder.

Every command is idempotent: its state file holds one digest per input
(each module, input file and setting) and per file it wrote, and it
short-circuits only when all of them still match.  So rerunning the script is
cheap, and a deleted or damaged output is redone (``preprocess`` from the
response cache, with no backend calls).
Run from the repository root:
python demos/05_full_pipeline_cli.py
"""

import json
import os
import tempfile

from medcascade.cli import main

workdir = tempfile.mkdtemp(prefix="medcascade_grid_")
cfg_path = os.path.join(workdir, "cfg.json")
with open(cfg_path, "w", encoding="utf-8") as fh:
    json.dump({
        "corpus": os.path.abspath("data/synthetic/corpus.jsonl"),
        "workdir": workdir,
        "train": {"epochs": 15, "learning_rate": 2e-3},
    }, fh)

steps = [["ingest"], ["preprocess", "--backend", "mock"], ["variants"],
         ["train", "--model", "toy"], ["train", "--model", "toy", "--no-finetune"], ["report"]]
for argv in steps:
    code = main(argv + ["--config", cfg_path])
    assert code == 0, f"step {argv} exited {code}"

print("\n" + open(os.path.join(workdir, "reports", "report.md"), encoding="utf-8").read())
print(f"artifacts under {workdir}")
