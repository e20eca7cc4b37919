"""medcascade: LLM-preprocessed Arabic medical complaint classification.

A numpy library covering the full experiment pipeline:

- ``corpus``     record/label data model, PII scrubbing, stratified splits
- ``gateway``    LLM access with caching, deferred retries and a
                 deterministic mock backend
- ``preprocess`` the three LLM preprocessing layers (refine / summarize /
                 extract entities) and the bundle store
- ``variants``   the four evaluation-condition datasets (normal, refined,
                 summarized, ner)
- ``lora``       low-rank adapters from scratch (init, forward, merge)
- ``encoder``    a numpy transformer encoder with adapter injection and
                 manual backprop for the trainable parameters
- ``trainer``    multi-task heads, imbalance-weighted loss, AdamW training
- ``evaluator``  eval-mode prediction, accuracy / balanced accuracy and
                 the report grid
- ``cli``        the ``medcascade`` command (ingest .. report)
"""

__version__ = "0.1.0"
