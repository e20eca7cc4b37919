import os
import re

import numpy as np
import pytest

from medcascade import encoder as encoder_module
from medcascade.encoder import (EncoderConfig, NumpyTransformerEncoder, build_toy_encoder,
                                gelu, gelu_grad, resolve_encoder)
from medcascade.errors import EncoderUnavailable, ShapeMismatch, VocabInvalid
from medcascade.lora import adapted_forward, adapter_backward, adapter_delta
from medcascade.tokenizers import HashWordTokenizer, WordPieceTokenizer


def tiny_encoder(seed=3, **overrides):
    defaults = dict(d_model=16, n_layers=2, n_heads=2, d_ff=24, vocab_size=64, max_len=12)
    defaults.update(overrides)
    return build_toy_encoder(seed=seed, **defaults)


class TestHashWordTokenizer:
    def test_aux_is_single_reserved_id(self):
        tok = HashWordTokenizer(128)
        ids = tok.encode("نص عادي [AUX] حمى، صداع")
        assert ids.count(tok.aux_id) == 1
        assert tok.encode("[AUX]") == [tok.aux_id]

    def test_stable_across_instances(self):
        a = HashWordTokenizer(256).encode("fever and صداع")
        b = HashWordTokenizer(256).encode("fever and صداع")
        assert a == b

    def test_ids_within_vocab(self):
        tok = HashWordTokenizer(64)
        ids = tok.encode("many different words " * 20)
        assert all(tok.n_reserved <= i < 64 for i in ids)


class TestWordPieceTokenizer:
    def _vocab(self):
        tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[unused0]",
                  "fever", "head", "##ache", "he", "##ad", ",", "the"]
        return {t: i for i, t in enumerate(tokens)}

    def test_greedy_longest_match(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok.encode("headache") == [6, 7]          # head + ##ache
        assert tok.encode("fever") == [5]

    def test_unknown_word(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok.encode("xyzzy") == [tok.unk_id]

    def test_punctuation_split(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok.encode("fever,fever") == [5, 10, 5]

    def test_aux_maps_to_unused_slot(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok.aux_id == 4
        assert tok.encode("fever [AUX] fever") == [5, 4, 5]

    def test_vocab_without_an_aux_slot_is_refused(self, tmp_path):
        vocab = {t: i for i, t in enumerate(["[PAD]", "[UNK]", "[CLS]", "fever"])}
        with pytest.raises(VocabInvalid, match=r"\[AUX\]"):
            WordPieceTokenizer(vocab)
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(vocab) + "\n", encoding="utf-8")
        with pytest.raises(VocabInvalid, match=re.escape(str(path))):
            WordPieceTokenizer.from_vocab_file(path)

    def test_from_vocab_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(self._vocab()) + "\n", encoding="utf-8")
        tok = WordPieceTokenizer.from_vocab_file(path)
        assert tok.encode("headache") == [6, 7]


class TestForward:
    def test_pooled_shape_and_determinism(self):
        enc = tiny_encoder()
        ids = np.array([[2, 5, 7, 0], [2, 9, 0, 0]])
        mask = np.array([[1.0, 1, 1, 0], [1, 1, 0, 0]])
        a = enc.forward(ids, mask)
        b = enc.forward(ids, mask)
        assert a.shape == (2, 16)
        assert np.array_equal(a, b)

    def test_padding_does_not_change_pooled(self):
        enc = tiny_encoder()
        ids = [2, 5, 7, 9]
        short_ids = np.array([ids])
        short_mask = np.ones((1, 4))
        padded_ids = np.array([ids + [0, 0, 0]])
        padded_mask = np.concatenate([np.ones((1, 4)), np.zeros((1, 3))], axis=1)
        a = enc.forward(short_ids, short_mask)
        b = enc.forward(padded_ids, padded_mask)
        assert np.allclose(a, b, atol=1e-12)

    def test_mean_pooling_ignores_padding(self):
        enc = tiny_encoder(pooling="mean")
        ids = np.array([[2, 5, 7, 0, 0]])
        mask = np.array([[1.0, 1, 1, 0, 0]])
        a = enc.forward(ids, mask)
        b = enc.forward(ids[:, :3], mask[:, :3])
        assert np.allclose(a, b, atol=1e-12)

    def test_too_long_sequence_rejected(self):
        enc = tiny_encoder(max_len=4)
        with pytest.raises(ShapeMismatch):
            enc.forward(np.zeros((1, 5), dtype=int), np.ones((1, 5)))

    def test_gelu_grad_matches_fd(self):
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
        assert np.allclose(gelu_grad(x), fd, atol=1e-8)


class TestAdapters:
    def test_targets_default_query_value(self):
        enc = tiny_encoder()
        targets = enc.adapter_targets()
        assert targets == ["layer.0.attn.query", "layer.0.attn.value",
                           "layer.1.attn.query", "layer.1.attn.value"]

    def test_zero_init_adapters_leave_output_unchanged(self):
        enc = tiny_encoder()
        ids = np.array([[2, 5, 7, 9, 11]])
        mask = np.ones((1, 5))
        before = enc.forward(ids, mask)
        enc.attach_adapters(enc.build_adapters(rank=4, alpha=8.0, dropout_rate=0.0, seed=7))
        after = enc.forward(ids, mask)
        assert before.tobytes() == after.tobytes()

    def test_attach_rejects_bad_shapes(self):
        enc = tiny_encoder()
        from medcascade.lora import AdapterSet, init_adapter
        bad = AdapterSet({"layer.0.attn.query": init_adapter(8, 8, r=2)})
        with pytest.raises(ShapeMismatch):
            enc.attach_adapters(bad)
        missing = AdapterSet({"layer.9.attn.query": init_adapter(16, 16, r=2)})
        with pytest.raises(ShapeMismatch):
            enc.attach_adapters(missing)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_linear_is_lora_adapted_forward_bitwise(self, training):
        enc = tiny_encoder()
        adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.3, seed=9)
        rng = np.random.default_rng(0)
        for _, adapter in adapters:
            adapter.B[:] = rng.normal(0, 0.3, adapter.B.shape)
        enc.attach_adapters(adapters)
        name = "layer.1.attn.value"
        x = rng.normal(size=(3, 10, 16))
        y = enc._linear(name, x, training, np.random.default_rng(5), [])
        base = x @ enc.params[f"{name}.W"].T + enc.params[f"{name}.b"]
        expected = adapted_forward(adapters[name], base, x, training=training,
                                   rng=np.random.default_rng(5))
        assert y.tobytes() == expected.tobytes()

    def _grad_check(self, pooling, dropout_rate=0.0):
        enc = tiny_encoder(pooling=pooling)
        adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=dropout_rate, seed=9)
        rng = np.random.default_rng(0)
        for _, adapter in adapters:
            adapter.B[:] = rng.normal(0, 0.3, adapter.B.shape)
        enc.attach_adapters(adapters)
        ids = rng.integers(0, 64, size=(3, 10))
        mask = np.ones((3, 10))
        mask[0, 7:] = 0
        w = rng.normal(size=16)

        def forward_scalar():
            dropout_rng = np.random.default_rng(123)
            pooled = enc.forward(ids, mask, training=dropout_rate > 0, rng=dropout_rng)
            return float(pooled @ w @ np.ones(3))

        dropout_rng = np.random.default_rng(123)
        pooled, cache = enc.forward(ids, mask, training=dropout_rate > 0,
                                    rng=dropout_rng, return_cache=True)
        grads = enc.backward_adapters(cache, np.tile(w, (3, 1)))

        h = 1e-6
        checked = 0
        fd_rng = np.random.default_rng(17)
        for name, adapter in adapters:
            for mat_name in ("A", "B"):
                mat = getattr(adapter, mat_name)
                i = int(fd_rng.integers(mat.shape[0]))
                j = int(fd_rng.integers(mat.shape[1]))
                orig = mat[i, j]
                mat[i, j] = orig + h
                up = forward_scalar()
                mat[i, j] = orig - h
                down = forward_scalar()
                mat[i, j] = orig
                fd = (up - down) / (2 * h)
                analytic = grads[name][mat_name][i, j]
                assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(fd)), \
                    f"{name}.{mat_name}[{i},{j}]: fd={fd} analytic={analytic}"
                checked += 1
        assert checked == 8

    def test_adapter_grads_match_fd_cls(self):
        self._grad_check("cls")

    def test_adapter_grads_match_fd_mean(self):
        self._grad_check("mean")

    def test_adapter_grads_match_fd_with_dropout(self):
        # fixed dropout seed makes the loss a deterministic function
        self._grad_check("cls", dropout_rate=0.3)


def _with_random_adapters(enc, seed=9):
    adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    for _, adapter in adapters:
        adapter.B[:] = rng.normal(0, 0.3, adapter.B.shape)
    enc.attach_adapters(adapters)
    return enc


class TestHotPath:
    # the toy shape, and a wider one whose row count is no multiple of anything
    SHAPES = [(dict(), (3, 10)),
              (dict(d_model=192, n_heads=3, d_ff=768, n_layers=1), (4, 37))]

    @pytest.mark.parametrize("overrides,batch", SHAPES, ids=["toy", "wide"])
    def test_linear_and_its_backward_match_the_stacked_matmul(self, overrides, batch):
        # One GEMM over all B*L rows may block its sums differently from the
        # per-example GEMMs of a stacked (B, L, d) @ (d, o) matmul, so the two
        # agree to float64 rounding (within K * eps of sum |x||W|), not bitwise
        # at every shape and BLAS.
        enc = _with_random_adapters(build_toy_encoder(seed=4, **overrides))
        rng = np.random.default_rng(1)
        eps = np.finfo(float).eps
        for name in ("attn.query", "attn.key", "attn.value", "attn.output",
                     "ffn.inner", "ffn.outer"):
            name = f"layer.0.{name}"
            W, b = enc.params[f"{name}.W"], enc.params[f"{name}.b"]
            x = rng.normal(size=(*batch, W.shape[1]))
            dy = rng.normal(size=(*batch, W.shape[0]))
            cache: list = []
            enc._adapter_grads = {}
            y = enc._linear(name, x, False, None, cache)
            dx = enc._linear_backward(dy, cache[0])

            y_ref, dx_ref = x @ W.T + b, dy @ W
            adapter = enc.adapters.adapters.get(name)
            if adapter is not None:
                delta, saved = adapter_delta(adapter, x)
                y_ref = y_ref + delta
                dxd, dA, dB = adapter_backward(adapter, dy, saved)
                dx_ref = dx_ref + dxd
                assert enc._adapter_grads[name]["A"].tobytes() == dA.tobytes()
                assert enc._adapter_grads[name]["B"].tobytes() == dB.tobytes()
            assert y.shape == y_ref.shape and dx.shape == dx_ref.shape
            assert np.all(np.abs(y - y_ref) <= W.shape[1] * eps * (np.abs(x) @ np.abs(W).T + 1))
            assert np.all(np.abs(dx - dx_ref) <= W.shape[0] * eps * (np.abs(dy) @ np.abs(W) + 1))

    def test_gelu_term_gives_the_same_bits(self):
        x = np.concatenate([np.random.default_rng(2).normal(0, 3, size=(4, 9, 16)).ravel(),
                            [-40.0, -6.0, -1e-300, 0.0, 1e-300, 6.0, 40.0]])
        y, term = gelu(x, return_term=True)
        assert y.tobytes() == gelu(x).tobytes()
        assert gelu_grad(x, term).tobytes() == gelu_grad(x).tobytes()

    def test_eval_forward_keeps_no_cache_and_gives_the_same_bits(self, monkeypatch):
        enc = _with_random_adapters(tiny_encoder())
        ids = np.random.default_rng(3).integers(0, 64, size=(3, 10))
        mask = np.ones((3, 10))
        mask[1, 6:] = 0
        cached, cache = enc.forward(ids, mask, return_cache=True)
        assert len(cache.layers) == enc.config.n_layers

        def no_grad(*args, **kwargs):
            raise AssertionError("an eval forward computed the GELU derivative")

        caches = []

        def linear(self, name, x, training, rng, cache):
            caches.append(cache)
            return NumpyTransformerEncoder._linear(enc, name, x, training, rng, cache)

        monkeypatch.setattr(encoder_module, "gelu_grad", no_grad)
        monkeypatch.setattr(enc, "_linear", linear.__get__(enc))
        assert enc.forward(ids, mask).tobytes() == cached.tobytes()
        assert len(caches) == 6 * enc.config.n_layers
        assert all(c is None for c in caches)


class TestInit:
    BIG = dict(d_model=32, n_heads=2, d_ff=48, n_layers=3, vocab_size=96)

    def test_weights_do_not_depend_on_the_worker_count(self, monkeypatch):
        workers = []

        class Recording(encoder_module.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(encoder_module, "ThreadPoolExecutor", Recording)
        params = []
        for cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            params.append(build_toy_encoder(seed=5, **self.BIG).params)
        assert workers == [1, 4]
        assert list(params[0]) == list(params[1])
        for name in params[0]:
            assert params[0][name].tobytes() == params[1][name].tobytes(), name

    def test_weights_are_seed_deterministic(self):
        a, b, c = (build_toy_encoder(seed=s, **self.BIG) for s in (5, 5, 6))
        assert a.base_state_bytes() == b.base_state_bytes()
        assert a.base_state_bytes() != c.base_state_bytes()
        for name, arr in a.params.items():
            if name.endswith(".W") or name.startswith("embeddings.word"):
                assert not np.array_equal(arr, c.params[name]), name

    def test_vocab_size_leaves_every_layer_weight_unchanged(self):
        small = build_toy_encoder(seed=5, **self.BIG).params
        large = build_toy_encoder(seed=5, **{**self.BIG, "vocab_size": 200}).params
        assert list(small) == list(large)
        for name in small:
            if name != "embeddings.word":
                assert small[name].tobytes() == large[name].tobytes(), name
        assert large["embeddings.word"].shape == (200, 32)


class TestPersistence:
    def test_save_and_reload_base(self, tmp_path):
        enc = tiny_encoder()
        enc.save_base(tmp_path / "enc")
        reloaded = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")
        ids = np.array([[2, 5, 7]])
        mask = np.ones((1, 3))
        assert np.array_equal(enc.forward(ids, mask), reloaded.forward(ids, mask))
        assert enc.base_state_bytes() == reloaded.base_state_bytes()

    def test_resolve_toy(self):
        enc = resolve_encoder("toy", seed=1, d_model=16, n_layers=1, n_heads=2,
                              d_ff=16, vocab_size=32, max_len=8)
        assert enc.d_model == 16

    def test_resolve_pretrained_without_weights_dir(self):
        with pytest.raises(EncoderUnavailable):
            resolve_encoder("CAMeL-Lab/bert-base-arabic-camelbert-mix")

    def test_resolve_unknown(self):
        with pytest.raises(EncoderUnavailable):
            resolve_encoder("not-a-backend")


class TestHuggingFaceParity:
    """Cross-checks the numpy forward pass against the reference transformer
    implementation on a tiny random BERT; skips when the hf extra is absent."""

    def test_forward_matches_transformers(self, tmp_path):
        torch = pytest.importorskip("torch")
        transformers = pytest.importorskip("transformers")
        from medcascade.hf_export import convert_state_dict

        cfg = transformers.BertConfig(
            vocab_size=50, hidden_size=16, num_hidden_layers=2,
            num_attention_heads=2, intermediate_size=24,
            max_position_embeddings=12, hidden_act="gelu",
            hidden_dropout_prob=0.0, attention_probs_dropout_prob=0.0)
        torch.manual_seed(0)
        hf_model = transformers.BertModel(cfg)
        hf_model.eval()

        params = convert_state_dict(
            {k: v.numpy() for k, v in hf_model.state_dict().items()})
        my_cfg = EncoderConfig(vocab_size=50, d_model=16, n_layers=2, n_heads=2,
                               d_ff=24, max_len=12, layer_norm_eps=cfg.layer_norm_eps)
        enc = NumpyTransformerEncoder(my_cfg, HashWordTokenizer(50), params=params)

        ids = np.array([[2, 5, 7, 9, 4], [2, 11, 13, 0, 0]])
        mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
        mine = enc.forward(ids, mask)

        with torch.no_grad():
            out = hf_model(input_ids=torch.tensor(ids),
                           attention_mask=torch.tensor(mask, dtype=torch.long))
        reference = out.last_hidden_state[:, 0, :].numpy()
        assert np.allclose(mine, reference, atol=1e-5), \
            np.max(np.abs(mine - reference))
