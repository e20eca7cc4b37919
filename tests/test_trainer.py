import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from medcascade import encoder as encoder_module, trainer as trainer_module
from medcascade.corpus import LabelSet
from medcascade.encoder import build_toy_encoder
from medcascade.errors import EmptyClass, IndexOutOfVocab, VocabMismatch
from medcascade.evaluator import score_predictions
from medcascade.tokenizers import WordPieceTokenizer
from medcascade.trainer import (AdamW, MultiTaskModel, TrainConfig, class_weights,
                                lr_schedule, predict, train, weighted_loss,
                                weighted_loss_and_grad)
from medcascade.variants import DatasetVariant, VariantExample

VOCAB = {"type": ["chronic", "acute"], "severity": ["mild", "severe"]}

# planted one-token signals, distinct from each other
TYPE_WORDS = {"chronic": "سكري", "acute": "حمى"}
SEV_WORDS = {"mild": "خفيف", "severe": "شديد"}


def signal_variant(n, seed=0):
    rng = np.random.default_rng(seed)
    fillers = ["عندي", "من", "ايام", "كتير", "ومش", "عارف", "السبب", "ابدا"]
    examples = []
    for i in range(n):
        ctype = ["chronic", "acute"][i % 2]
        severity = ["mild", "severe"][(i // 2) % 2]
        words = [TYPE_WORDS[ctype], SEV_WORDS[severity]] + \
            list(rng.choice(fillers, size=4, replace=False))
        rng.shuffle(words)
        examples.append(VariantExample(
            record_id=f"s{i:03d}", text=" ".join(words), aux="",
            labels=LabelSet(condition_type=ctype, severity=severity)))
    return DatasetVariant(condition="normal", examples=examples)


def normal(texts):
    """Normal-condition examples of ``texts``, for calls that read no label."""
    return [VariantExample(f"t{i}", text, "", LabelSet(condition_type="chronic", severity="mild"))
            for i, text in enumerate(texts)]


def tiny_model(seed=1, with_adapters=True, dropout=0.0, vocab=None):
    enc = build_toy_encoder(seed=seed, d_model=16, n_layers=2, n_heads=2, d_ff=24,
                            vocab_size=128, max_len=16)
    if with_adapters:
        enc.attach_adapters(enc.build_adapters(rank=2, alpha=4.0, dropout_rate=dropout,
                                               seed=seed + 1))
    return MultiTaskModel.build(enc, vocab or VOCAB, head_seed=seed + 2)


class TestClassWeights:
    def test_balanced_all_ones(self):
        assert class_weights({"a": 10, "b": 10}) == {"a": 1.0, "b": 1.0}

    def test_inverse_frequency_fixture(self):
        # hand arithmetic: N=4, K=2 -> a: 4/(2*3), b: 4/(2*1)
        w = class_weights({"a": 3, "b": 1})
        assert math.isclose(w["a"], 2.0 / 3.0)
        assert w["b"] == 2.0

    def test_mean_weight_one_when_balanced(self):
        w = class_weights({"a": 7, "b": 7, "c": 7})
        assert math.isclose(sum(w.values()) / 3, 1.0)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            class_weights({"a": 0, "b": 3})
        with pytest.raises(EmptyClass):
            class_weights({})


class TestWeightedLoss:
    def test_perfect_prediction_zero_loss(self):
        logits = {"type": np.array([[50.0, -50.0], [-50.0, 50.0]]),
                  "severity": np.array([[50.0, -50.0], [50.0, -50.0]])}
        targets = {"type": np.array([0, 1]), "severity": np.array([0, 0])}
        assert weighted_loss(logits, targets) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_ln_k_per_task(self):
        k1, k2 = 3, 5
        logits = {"type": np.zeros((4, k1)), "severity": np.zeros((4, k2))}
        targets = {"type": np.zeros(4, dtype=int), "severity": np.zeros(4, dtype=int)}
        loss = weighted_loss(logits, targets)
        assert loss == pytest.approx(math.log(k1) + math.log(k2), rel=1e-12)

    def test_two_example_weighted_fixture(self):
        # brute-force scalar oracle: weighted batch loss = (2*c1 + c2) / 3
        logits = {"type": np.array([[1.3, -0.2], [0.4, 0.9]])}
        targets = {"type": np.array([0, 1])}
        weights = {"type": np.array([2.0, 1.0])}

        def scalar_ce(row, target):
            z = math.log(sum(math.exp(v) for v in row))
            return z - row[target]

        c1 = scalar_ce([1.3, -0.2], 0)
        c2 = scalar_ce([0.4, 0.9], 1)
        expected = (2 * c1 + 1 * c2) / 3
        assert weighted_loss(logits, targets, weights) == pytest.approx(expected, rel=1e-12)

    def test_all_ones_weights_equal_plain_mean_ce(self):
        rng = np.random.default_rng(3)
        logits = {"type": rng.normal(size=(10, 4))}
        targets = {"type": rng.integers(0, 4, size=10)}
        ones = {"type": np.ones(4)}
        plain = weighted_loss(logits, targets, None)
        weighted = weighted_loss(logits, targets, ones)
        mean_ce = float(np.mean([math.log(np.exp(row).sum()) - row[t]
                                 for row, t in zip(logits["type"], targets["type"])]))
        assert abs(plain - mean_ce) <= 1e-7
        assert abs(weighted - mean_ce) <= 1e-7

    def test_index_out_of_vocab(self):
        logits = {"type": np.zeros((2, 3))}
        with pytest.raises(IndexOutOfVocab):
            weighted_loss(logits, {"type": np.array([0, 3])})
        with pytest.raises(IndexOutOfVocab):
            weighted_loss(logits, {"type": np.array([-1, 0])})

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        logits = {"type": rng.normal(size=(4, 3)), "severity": rng.normal(size=(4, 2))}
        targets = {"type": rng.integers(0, 3, size=4), "severity": rng.integers(0, 2, size=4)}
        weights = {"type": np.array([0.5, 2.0, 1.0]), "severity": np.array([1.5, 0.7])}
        _, grads = weighted_loss_and_grad(
            {k: v.copy() for k, v in logits.items()}, targets, weights)
        h = 1e-6
        for task in logits:
            for i in range(logits[task].shape[0]):
                for j in range(logits[task].shape[1]):
                    up = {k: v.copy() for k, v in logits.items()}
                    up[task][i, j] += h
                    down = {k: v.copy() for k, v in logits.items()}
                    down[task][i, j] -= h
                    fd = (weighted_loss(up, targets, weights)
                          - weighted_loss(down, targets, weights)) / (2 * h)
                    assert abs(fd - grads[task][i, j]) < 1e-8


class TestSchedule:
    def test_warmup_then_decay(self):
        total = 100
        scales = [lr_schedule(s, total) for s in range(total)]
        assert scales[0] == pytest.approx(0.1)
        assert max(scales) == 1.0
        assert scales.index(1.0) == 9  # warmup is 10% of steps
        assert all(a <= b + 1e-12 for a, b in zip(scales[:10], scales[1:11]))
        assert all(a >= b for a, b in zip(scales[10:], scales[11:]))
        assert scales[-1] > 0.0


class TestAdamW:
    def test_moves_toward_minimum(self):
        params = {"x": np.array([5.0])}
        opt = AdamW(params, lr=0.1)
        for _ in range(500):
            opt.step({"x": 2 * params["x"]}, lr_scale=1.0)  # d/dx of x^2
        assert abs(params["x"][0]) < 1e-2

    def test_decoupled_weight_decay(self):
        params = {"x": np.array([1.0])}
        opt = AdamW(params, lr=0.1)
        opt.step({"x": np.array([0.0])}, lr_scale=1.0)
        assert params["x"][0] == pytest.approx(1.0 - 0.1 * 0.01)


class TestTrain:
    def _cfg(self, **kwargs):
        defaults = dict(batch_size=4, epochs=2, learning_rate=2e-3, seed=5)
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def test_epoch_step_accounting(self):
        for n, batch in ((10, 4), (8, 4), (7, 2), (5, 5), (9, 8)):
            variant = signal_variant(n)
            model = tiny_model()
            cfg = self._cfg(epochs=3, batch_size=batch)
            result = train(model, variant, signal_variant(4, seed=9), cfg)
            assert result.steps_taken == 3 * math.ceil(n / batch)
            assert len(result.log.rows) == 3

    def test_deterministic_trainlog(self):
        logs = []
        for _ in range(2):
            model = tiny_model(seed=2)
            result = train(model, signal_variant(12), signal_variant(4, seed=9),
                           self._cfg(epochs=3))
            logs.append(result.log.to_csv())
        assert logs[0] == logs[1]

    def test_loss_decreases_on_separable_data(self):
        model = tiny_model(seed=4)
        result = train(model, signal_variant(40), signal_variant(8, seed=9),
                       self._cfg(epochs=10))
        first, last = result.log.rows[0]["train_loss"], result.log.rows[-1]["train_loss"]
        assert last < first

    def test_vocab_mismatch_head_size(self):
        model = tiny_model()
        model.heads["type"]["W"] = model.heads["type"]["W"][:1]  # 1 class vs 2
        with pytest.raises(VocabMismatch):
            train(model, signal_variant(8), signal_variant(4, seed=9), self._cfg())

    def test_vocab_mismatch_unknown_label(self):
        model = tiny_model()
        variant = signal_variant(8)
        variant.examples[0] = VariantExample(
            record_id="bad", text="x", aux="",
            labels=LabelSet(condition_type="novel", severity="mild"))
        with pytest.raises(VocabMismatch):
            train(model, variant, signal_variant(4, seed=9), self._cfg())

    def test_freeze_contract_and_trainable_count(self):
        model = tiny_model(seed=6, dropout=0.05)
        before = model.encoder.base_state_bytes()
        named_before = {k: v.copy() for k, v in model.trainable_params().items()}
        result = train(model, signal_variant(16), signal_variant(4, seed=9),
                       self._cfg(epochs=2))
        assert model.encoder.base_state_bytes() == before
        changed = [k for k, v in model.trainable_params().items()
                   if not np.array_equal(v, named_before[k])]
        total_changed = sum(model.trainable_params()[k].size for k in changed)
        assert total_changed == model.trainable_count()

    def test_the_loss_weights_each_class_by_its_inverse_training_frequency(self, monkeypatch):
        seen = []

        def recording(logits, targets, weights=None):
            seen.append({task: list(w) for task, w in weights.items()})
            return weighted_loss_and_grad(logits, targets, weights)

        monkeypatch.setattr(trainer_module, "weighted_loss_and_grad", recording)
        # 5 chronic / 4 acute and 5 mild / 4 severe: w = N / (K * count)
        variant = DatasetVariant(condition="normal", examples=signal_variant(12).examples[:9])
        train(tiny_model(), variant, signal_variant(4, seed=9), self._cfg(epochs=1))
        assert seen and all(w == {"type": [9 / 10, 9 / 8], "severity": [9 / 10, 9 / 8]}
                            for w in seen)

    def test_no_training_cache_is_live_while_validating(self, monkeypatch):
        live = []

        def counting_predict(model, examples, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, encoder_module._Cache) for o in gc.get_objects()))
            return predict(model, examples, **kwargs)

        monkeypatch.setattr(trainer_module, "predict", counting_predict)
        train(tiny_model(), signal_variant(8), signal_variant(4, seed=9), self._cfg(epochs=2))
        assert live == [0, 0]

    def test_no_earlier_step_holds_layer_activations_when_a_step_starts(self, monkeypatch):
        live = []
        forward = encoder_module.NumpyTransformerEncoder.forward

        def counting_forward(self, ids, mask, training=False, rng=None):
            if training:
                gc.collect()
                live.append(sum(len(o.layers) for o in gc.get_objects()
                                if isinstance(o, encoder_module._Cache)))
            return forward(self, ids, mask, training, rng)

        monkeypatch.setattr(encoder_module.NumpyTransformerEncoder, "forward", counting_forward)
        train(tiny_model(), signal_variant(8), signal_variant(4, seed=9), self._cfg(epochs=2))
        assert live == [0, 0, 0, 0]   # 2 epochs of 2 steps

    def test_best_params_selected_by_val_avg(self):
        model = tiny_model(seed=8)
        result = train(model, signal_variant(24), signal_variant(8, seed=9),
                       self._cfg(epochs=5))
        avgs = [np.mean([row["val_acc"][t] for t in ("type", "severity")])
                for row in result.log.rows]
        assert result.best_epoch == int(np.argmax(avgs)) + 1

    def test_train_leaves_the_model_at_its_best_epoch(self):
        model, val = tiny_model(seed=9), signal_variant(8, seed=9)
        result = train(model, signal_variant(24), val, self._cfg(epochs=6))
        best, last = result.log.rows[result.best_epoch - 1], result.log.rows[-1]
        assert result.best_epoch < 6 and best["val_acc"] != last["val_acc"]
        scores = score_predictions(model, predict(model, val.examples), model.targets(val))
        assert {task: s.accuracy for task, s in scores.items()} == best["val_acc"]


class TestPredict:
    def test_batch_invariance(self):
        model = tiny_model(seed=7)
        examples = signal_variant(9).examples
        single = [predict(model, [ex])["type"]["indices"][0] for ex in examples]
        batched = predict(model, examples, batch_size=8)["type"]["indices"]
        assert list(batched) == single

    def test_tie_breaks_to_lowest_index(self):
        model = tiny_model(with_adapters=False)
        for task in model.tasks:
            model.heads[task]["W"][:] = 0.0
            model.heads[task]["b"][:] = 0.0
        out = predict(model, normal(["اي نص هنا", "نص اخر"]))
        assert list(out["type"]["indices"]) == [0, 0]
        assert list(out["severity"]["indices"]) == [0, 0]

    def test_argmax_invariant_under_positive_rescale(self):
        model = tiny_model(seed=9)
        examples = signal_variant(6).examples
        base = predict(model, examples)
        for task in model.tasks:
            model.heads[task]["W"] *= 3.0
            model.heads[task]["b"] *= 3.0
        scaled = predict(model, examples)
        for task in model.tasks:
            assert list(base[task]["indices"]) == list(scaled[task]["indices"])

    def test_trained_model_predicts_planted_signal(self):
        model = tiny_model(seed=10)
        cfg = TrainConfig(batch_size=4, epochs=12, learning_rate=5e-3, seed=5)
        train(model, signal_variant(40), signal_variant(8, seed=9), cfg)
        out = predict(model, normal([f"كلام {TYPE_WORDS['chronic']} {SEV_WORDS['severe']} هنا",
                                     f"كلام {TYPE_WORDS['acute']} {SEV_WORDS['mild']} هنا"]))
        assert list(out["type"]["indices"]) == [0, 1]

    def test_aux_truncation_keeps_normal_text(self):
        model = tiny_model()
        long_aux = " ".join(f"كلمة{i}" for i in range(40))
        ids, mask = model.encode_texts([VariantExample("a", "نص عادي قصير", long_aux,
                                                       LabelSet("chronic", "mild"))])
        tok = model.encoder.tokenizer
        normal_ids = tok.encode("نص عادي قصير")
        assert list(ids[0, : 2 + len(normal_ids)]) == [tok.cls_id, *normal_ids, tok.sep_id]
        assert int(mask.sum()) == model.encoder.max_len  # filled to capacity

    def test_normal_truncated_last(self):
        model = tiny_model()
        text = " ".join(f"ك{i}" for i in range(40))
        ids, mask = model.encode_texts(normal([text]))
        assert int(mask.sum()) == model.encoder.max_len
        assert ids[0, 0] == model.encoder.tokenizer.cls_id


def _truncation_branch(tok, text, aux, max_len):
    """[CLS], ``text``'s ids and, after [SEP], ``aux``'s, kept as the
    truncation branch of the one-string layout kept them: when too long, the
    aux tail went first."""
    budget = max_len - 1
    content = tok.encode(text)
    tail = [tok.sep_id, *tok.encode(aux)] if aux else []
    if len(content) >= budget:
        content = content[:budget]
    else:
        content += tail[: budget - len(content)]
    return [tok.cls_id] + content


PIECES = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "حمى", "صداع", "fever", "##s"]
SEGMENT = st.lists(st.sampled_from(["حمى", "صداع،", "fever", "fevers", "x", "؟"]), max_size=20)


class TestPrefixCut:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(SEGMENT, SEGMENT), min_size=1, max_size=4),
           wordpiece=st.booleans())
    def test_the_prefix_is_what_the_truncation_branch_kept(self, pairs, wordpiece):
        # an empty or a present aux, and up to 40 words with a max_len of 16:
        # short and over-long inputs, the cut in the normal text or in the aux
        model = tiny_model(with_adapters=False)
        if wordpiece:
            model.encoder.tokenizer = WordPieceTokenizer({t: i for i, t in enumerate(PIECES)})
        tok, max_len = model.encoder.tokenizer, model.encoder.max_len
        examples = [VariantExample(f"p{i}", " ".join(text), " ".join(aux),
                                   LabelSet("chronic", "mild"))
                    for i, (text, aux) in enumerate(pairs)]
        seqs = [_truncation_branch(tok, ex.text, ex.aux, max_len) for ex in examples]
        ids, mask = model.encode_texts(examples)
        width = max(map(len, seqs))
        assert ids.shape == mask.shape == (len(examples), width)
        for row, seq in enumerate(seqs):
            assert list(ids[row]) == seq + [tok.pad_id] * (width - len(seq))
            assert list(mask[row]) == [1.0] * len(seq) + [0.0] * (width - len(seq))


def words(n, stem="w"):
    return " ".join(f"{stem}{i}" for i in range(n))


# token counts 4..71 with [CLS], the longest truncated to max_len 64
MIXED = normal([words(n) for n in (3, 40, 15, 16, 70, 5, 31, 47, 2, 33)])


def bucket_model(seed=11, **shape):
    """A model with nonzero adapters, so the adapter path counts in the outputs."""
    enc = build_toy_encoder(seed=seed, **shape)
    enc.attach_adapters(enc.build_adapters(rank=4, alpha=8.0, dropout_rate=0.1, seed=seed))
    rng = np.random.default_rng(seed)
    for adapter in enc.adapters.values():
        adapter.B[:] = rng.normal(0.0, 0.1, size=adapter.B.shape)
    return MultiTaskModel.build(enc, VOCAB, head_seed=seed)


class TestLengthBuckets:
    @pytest.mark.parametrize("shape", [{}, dict(d_model=128, n_heads=4, d_ff=256,
                                                n_layers=3, max_len=128)],
                             ids=["toy", "wider"])
    def test_bucketed_outputs_match_pad_to_max_len(self, shape):
        model = bucket_model(**shape)
        examples = MIXED + normal([words(100, "x")])
        ids, mask = model.encode_texts(examples)
        max_len = model.encoder.max_len
        full_ids = np.full((len(examples), max_len), model.encoder.tokenizer.pad_id)
        full_mask = np.zeros((len(examples), max_len))
        full_ids[:, : ids.shape[1]] = ids
        full_mask[:, : mask.shape[1]] = mask
        padded, _, _ = model.forward(full_ids, full_mask)
        bucketed = predict(model, examples, batch_size=3)
        for task in model.tasks:
            np.testing.assert_allclose(bucketed[task]["scores"], padded[task],
                                       rtol=0, atol=1e-12)
            assert list(bucketed[task]["indices"]) == list(np.argmax(padded[task], axis=1))

    def test_encode_texts_pads_to_the_longest_sequence(self):
        model = bucket_model()
        assert model.encode_texts(normal([words(3)]))[0].shape == (1, 4)
        assert model.encode_texts(normal([words(3), words(15)]))[0].shape == (2, 16)
        assert model.encode_texts(normal([words(3), words(16)]))[0].shape == (2, 17)
        assert model.encode_texts(normal([words(40), words(3)]))[0].shape == (2, 41)
        ids, mask = model.encode_texts(normal([words(3), words(200)]))
        assert ids.shape == mask.shape == (2, model.encoder.max_len)
        assert list(mask.sum(axis=1)) == [4, model.encoder.max_len]

    def test_training_batch_is_as_wide_as_its_longest_sequence(self):
        model = bucket_model(d_model=16, n_heads=2, d_ff=24, vocab_size=128)
        forward, widths = model.encoder.forward, []

        def recording(ids, mask, training=False, **kwargs):
            if training:
                real = int(np.asarray(mask).sum(axis=1).max())
                assert ids.shape[1] == real
                widths.append(ids.shape[1])
            return forward(ids, mask, training=training, **kwargs)

        model.encoder.forward = recording
        variant = DatasetVariant("normal", [
            VariantExample(f"m{i}", ex.text, "", LabelSet(condition_type=VOCAB["type"][i % 2],
                                                         severity=VOCAB["severity"][i // 2 % 2]))
            for i, ex in enumerate(MIXED)])
        train(model, variant, variant, TrainConfig(batch_size=2, epochs=2, seed=3))
        assert len(widths) == 10
        assert len(set(widths)) > 1

    def test_predict_forward_is_as_wide_as_its_longest_text(self):
        model = bucket_model(d_model=16, n_heads=2, d_ff=24, vocab_size=128)
        forward, batches = model.encoder.forward, []

        def recording(ids, mask, training=False, **kwargs):
            real = np.asarray(mask).sum(axis=1)
            assert ids.shape[1] == real.max()
            batches.append(sorted(real))
            return forward(ids, mask, training=training, **kwargs)

        model.encoder.forward = recording
        predict(model, MIXED, batch_size=3)
        # batched in order of length, so each batch is the next three lengths
        assert batches == [[3, 4, 6], [16, 17, 32], [34, 41, 48], [64]]

    def test_predict_is_batch_invariant_across_interleaved_buckets(self):
        model = bucket_model(d_model=16, n_heads=2, d_ff=24, vocab_size=128)
        single = [predict(model, [ex]) for ex in MIXED]
        for batch_size in (1, 3, 8):
            batched = predict(model, MIXED, batch_size=batch_size)
            for task in model.tasks:
                assert list(batched[task]["indices"]) == \
                    [int(p[task]["indices"][0]) for p in single]
                np.testing.assert_allclose(
                    batched[task]["scores"],
                    np.concatenate([p[task]["scores"] for p in single]), rtol=0, atol=1e-12)
