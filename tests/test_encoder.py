import ast
import hashlib
import json
import os
import re
import struct
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from medcascade import encoder as encoder_module
from medcascade.encoder import (NEG_INF, EncoderConfig, NumpyTransformerEncoder,
                                build_toy_encoder, gelu, gelu_grad, resolve_encoder)
from medcascade.errors import EncoderUnavailable, ShapeMismatch, UserError, VocabInvalid
from medcascade.lora import adapted_forward, adapter_backward, adapter_delta
from medcascade.tokenizers import HashWordTokenizer, WordPieceTokenizer, clean_text

from conftest import edit_safetensors_header, read_safetensors, safetensors_bytes


def tiny_encoder(seed=3, **overrides):
    defaults = dict(d_model=16, n_layers=2, n_heads=2, d_ff=24, vocab_size=64, max_len=12)
    defaults.update(overrides)
    return build_toy_encoder(seed=seed, **defaults)


# transformers' BasicTokenizer text cleaning (tokenization_bert.py), transcribed
def _is_whitespace(char):
    if char == " " or char == "\t" or char == "\n" or char == "\r":
        return True
    cat = unicodedata.category(char)
    if cat == "Zs":
        return True
    return False


def _is_control(char):
    if char == "\t" or char == "\n" or char == "\r":
        return False
    cat = unicodedata.category(char)
    if cat.startswith("C"):
        return True
    return False


def _clean_text(text):
    output = []
    for char in text:
        cp = ord(char)
        if cp == 0 or cp == 0xFFFD or _is_control(char):
            continue
        if _is_whitespace(char):
            output.append(" ")
        else:
            output.append(char)
    return "".join(output)


# the rest of BasicTokenizer.tokenize, transcribed; _tokenize_chinese_chars,
# which pads CJK ideographs with spaces, is left out, as _basic_tokens has none
def _whitespace_tokenize(text):
    text = text.strip()
    if not text:
        return []
    tokens = text.split()
    return tokens


def _is_punctuation(char):
    cp = ord(char)
    if (cp >= 33 and cp <= 47) or (cp >= 58 and cp <= 64) or \
            (cp >= 91 and cp <= 96) or (cp >= 123 and cp <= 126):
        return True
    cat = unicodedata.category(char)
    if cat.startswith("P"):
        return True
    return False


def _run_strip_accents(text):
    text = unicodedata.normalize("NFD", text)
    output = []
    for char in text:
        cat = unicodedata.category(char)
        if cat == "Mn":
            continue
        output.append(char)
    return "".join(output)


def _run_split_on_punc(text):
    chars = list(text)
    i = 0
    start_new_word = True
    output = []
    while i < len(chars):
        char = chars[i]
        if _is_punctuation(char):
            output.append([char])
            start_new_word = True
        else:
            if start_new_word:
                output.append([])
            start_new_word = False
            output[-1].append(char)
        i += 1
    return ["".join(x) for x in output]


def _basic_tokenize(text, do_lower_case):
    """``BasicTokenizer(do_lower_case).tokenize(text)``, ``strip_accents`` unset."""
    text = _clean_text(text)
    unicode_normalized_text = unicodedata.normalize("NFC", text)
    orig_tokens = _whitespace_tokenize(unicode_normalized_text)
    split_tokens = []
    for token in orig_tokens:
        if do_lower_case:
            token = token.lower()
            token = _run_strip_accents(token)
        split_tokens.extend(_run_split_on_punc(token))
    output_tokens = _whitespace_tokenize(" ".join(split_tokens))
    return output_tokens


ARABIC = "".join(map(chr, range(0x0621, 0x064B)))       # letters
HARAKAT = "".join(map(chr, range(0x064B, 0x0653)))
CF_MARKS = "\u200c\u200f\u061c"                        # ZWNJ, RLM, ALM
ZS_SPACES = " \u00a0\u2002\u2009\u202f\u3000"
CONTROLS = "\t\n\r\x01\x1b\x7f\x85\u2028"
PUNCT = "!\"#,-.:;?[]،؛؟"


class TestCleanText:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet=st.sampled_from(ARABIC + HARAKAT + CF_MARKS + ZS_SPACES + CONTROLS
                                            + PUNCT + "ab\x00\ufffd"), max_size=40)
           | st.text(max_size=40))
    def test_text_is_cleaned_as_bert_s_basic_tokenizer_does(self, text):
        assert clean_text(text) == _clean_text(text)

    def test_a_format_mark_does_not_change_a_word(self):
        vocab = {t: i for i, t in enumerate(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "ألم"])}
        for tok in (WordPieceTokenizer(vocab), HashWordTokenizer(64)):
            assert tok.encode("ألم\u200f") == tok.encode("ألم")
        assert WordPieceTokenizer(vocab).encode("ألم\u200f") == [4]

    @pytest.mark.parametrize("text", ["fever [AUX] fever", "fever [SEP] fever",
                                      "fever [AU\u200bX] fever"])
    def test_a_marker_in_the_text_never_makes_a_separator(self, text):
        vocab = {t: i for i, t in enumerate(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[AUX]",
                                             "[unused0]", "fever"])}
        for tok in (WordPieceTokenizer(vocab), HashWordTokenizer(64)):
            ids = tok.encode_pair(text, "", 64)
            assert ids == [tok.cls_id, *tok.encode(text)]
            assert tok.sep_id not in ids
        assert WordPieceTokenizer(vocab).encode(text) == [6, 1, 1, 1, 6]


class TestHashWordTokenizer:
    def test_a_literal_aux_marker_is_a_word(self):
        assert HashWordTokenizer(512).encode("ألم شديد [AUX] منذ يومين") == [261, 209, 225, 504, 509]

    def test_pair_layout_and_truncation(self):
        tok = HashWordTokenizer(512)
        assert tok.sep_id == 3
        assert tok.encode_pair("ألم شديد", "حمى، صداع", 64) == [2, 261, 209, 3, 495, 146]
        assert tok.encode_pair("ألم شديد", "حمى، صداع", 4) == [2, 261, 209, 3]
        assert tok.encode_pair("ألم شديد", "حمى، صداع", 2) == [2, 261]

    def test_stable_across_instances(self):
        a = HashWordTokenizer(256).encode("fever and صداع")
        b = HashWordTokenizer(256).encode("fever and صداع")
        assert a == b

    def test_ids_within_vocab(self):
        tok = HashWordTokenizer(64)
        ids = tok.encode("many different words " * 20)
        assert all(tok.n_reserved <= i < 64 for i in ids)

    def test_a_vocabulary_of_only_reserved_ids_is_refused(self):
        with pytest.raises(ValueError, match="vocab_size must exceed 4"):
            HashWordTokenizer(vocab_size=4)


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

    def test_a_word_over_100_characters_is_one_unk(self):
        vocab = {t: i for i, t in enumerate(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "##a"])}
        tok = WordPieceTokenizer(vocab)
        assert tok.encode("a" * 100) == [4] + [5] * 99
        assert tok.encode("a" * 101) == [tok.unk_id]

    def test_do_lower_case(self):
        assert WordPieceTokenizer(self._vocab(), do_lower_case=True).encode("FEVER") == [5]
        assert WordPieceTokenizer(self._vocab()).encode("FEVER") == [1]

    def test_punctuation_split(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok.encode("fever,fever") == [5, 10, 5]

    def test_whitespace_and_punctuation_end_words(self):
        tok = WordPieceTokenizer(self._vocab())
        assert tok._basic_tokens("  fever,\t\u00a0head!!ache \n") == \
            ["fever", ",", "head", "!", "!", "ache"]
        assert tok._basic_tokens("حمى، صداع؟") == ["حمى", "،", "صداع", "؟"]
        assert tok._basic_tokens(" \t ") == []

    @staticmethod
    def _reference_basic_tokens(text, is_punct):
        """A character loop over the rule: whitespace ends a word, and each
        punctuation character is a word of its own."""
        out, word = [], []
        for ch in text:
            if ch.isspace() or is_punct(ch):
                if word:
                    out.append("".join(word))
                    word = []
                if not ch.isspace():
                    out.append(ch)
            else:
                word.append(ch)
        return out + (["".join(word)] if word else [])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("ab حمىكتب،؟!?.,-\t\n\u00a0\u3000\u064e\u0301"
                                            "\u2028\u00e9"), max_size=30) | st.text(max_size=30))
    def test_basic_tokens_match_the_character_loop(self, text):
        tok = WordPieceTokenizer(self._vocab())
        nfc = unicodedata.normalize("NFC", _clean_text(text))
        assert tok._basic_tokens(text) == self._reference_basic_tokens(nfc, tok._is_punct)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet=st.sampled_from(ARABIC + HARAKAT + CF_MARKS + ZS_SPACES
                                            + CONTROLS + PUNCT + "AbÉé\u0301\x00\ufffd"),
                   max_size=40),
           st.booleans())
    def test_basic_tokens_are_bert_s_basic_tokens(self, text, do_lower_case):
        tok = WordPieceTokenizer(self._vocab(), do_lower_case=do_lower_case)
        assert tok._basic_tokens(text) == _basic_tokenize(text, do_lower_case)

    def test_lower_casing_strips_accents_as_bert_does(self):
        vocab = {**self._vocab(), "كتب": 12, "cafe": 13}
        lower = WordPieceTokenizer(vocab, do_lower_case=True)
        assert lower.encode("كَتَبَ") == [12]           # harakat are combining marks
        assert lower.encode("Café") == [13]
        assert lower.encode("CAFE\u0301") == [13]       # decomposed already
        cased = WordPieceTokenizer(vocab)
        assert cased.encode("كَتَبَ") == [cased.unk_id]
        assert cased.encode("café") == [cased.unk_id]

    @pytest.mark.parametrize("lower, strip, expected", [
        (False, True, 13), (True, False, 14), (False, False, 14), (True, True, 13)])
    def test_an_explicit_strip_accents_wins(self, lower, strip, expected):
        vocab = {**self._vocab(), "cafe": 13, "café": 14}
        tok = WordPieceTokenizer(vocab, do_lower_case=lower, strip_accents=strip)
        assert tok.encode("café") == [expected]

    def test_pair_layout_and_truncation(self):
        # [SEP] separates the pair even where [AUX] or [unused0] is in the vocab
        tok = WordPieceTokenizer({**self._vocab(), "[AUX]": 12})
        assert tok.sep_id == 3
        assert tok.encode_pair("headache", "fever, the", 16) == [2, 6, 7, 3, 5, 10, 11]
        assert tok.encode_pair("headache", "fever, the", 5) == [2, 6, 7, 3, 5]
        assert tok.encode_pair("headache", "fever, the", 2) == [2, 6]

    def test_vocab_without_sep_is_refused(self, tmp_path):
        vocab = {t: i for i, t in enumerate(["[PAD]", "[UNK]", "[CLS]", "[unused0]", "fever"])}
        with pytest.raises(VocabInvalid, match=r"\[SEP\]"):
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

    def test_too_long_sequence_rejected(self):
        enc = tiny_encoder(max_len=4)
        with pytest.raises(ShapeMismatch):
            enc.forward(np.zeros((1, 5), dtype=int), np.ones((1, 5)))

    def test_ids_and_mask_of_different_shapes_rejected(self):
        with pytest.raises(ShapeMismatch, match=re.escape("ids (1, 4) vs mask (1, 3)")):
            tiny_encoder().forward(np.full((1, 4), 2), np.ones((1, 3)))

    def test_d_model_not_divisible_by_n_heads_rejected(self):
        with pytest.raises(ShapeMismatch, match="d_model 16 not divisible by n_heads 3"):
            tiny_encoder(n_heads=3)

    def test_gelu_grad_matches_fd(self):
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
        assert np.allclose(gelu_grad(x), fd, atol=1e-8)


class TestAdapters:
    def test_targets_default_query_value(self):
        enc = tiny_encoder()
        targets = enc.adapter_targets()
        assert targets == ["encoder.layer.0.attention.self.query",
                           "encoder.layer.0.attention.self.value",
                           "encoder.layer.1.attention.self.query",
                           "encoder.layer.1.attention.self.value"]

    @pytest.mark.parametrize("patterns, named", [
        (("query", "qeury"), "'qeury'"),
        (("attn.query",), "'attn.query' matches no weight matrix; their names read like "
                          "'encoder.layer.0.attention.self.query'"),
        ((), "no adapter target")], ids=["unmatched", "old-spelling", "empty"])
    def test_targets_that_adapt_no_matrix_are_refused(self, patterns, named):
        with pytest.raises(ShapeMismatch, match=named):
            tiny_encoder().build_adapters(rank=2, alpha=4.0, dropout_rate=0.0, seed=7,
                                          patterns=patterns)

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
        from medcascade.lora import init_adapter
        bad = {"encoder.layer.0.attention.self.query": init_adapter(8, 8, r=2)}
        with pytest.raises(ShapeMismatch):
            enc.attach_adapters(bad)
        missing = {"encoder.layer.9.attention.self.query": init_adapter(16, 16, r=2)}
        with pytest.raises(ShapeMismatch):
            enc.attach_adapters(missing)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_linear_is_lora_adapted_forward_bitwise(self, training):
        enc = tiny_encoder()
        adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.3, seed=9)
        rng = np.random.default_rng(0)
        for adapter in adapters.values():
            adapter.B[:] = rng.normal(0, 0.3, adapter.B.shape)
        enc.attach_adapters(adapters)
        name = "encoder.layer.1.attention.self.value"
        x = rng.normal(size=(3, 10, 16))
        y = enc._linear(name, x, training, np.random.default_rng(5), [])
        base = x @ enc.params[f"{name}.weight"].T + enc.params[f"{name}.bias"]
        expected = adapted_forward(adapters[name], base, x, training=training,
                                   rng=np.random.default_rng(5))
        assert y.tobytes() == expected.tobytes()

    def _grad_check(self, dropout_rate=0.0):
        enc = tiny_encoder()
        adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=dropout_rate, seed=9)
        rng = np.random.default_rng(0)
        for adapter in adapters.values():
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
        for name, adapter in adapters.items():
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
        self._grad_check()

    def test_adapter_grads_match_fd_with_dropout(self):
        # fixed dropout seed makes the loss a deterministic function
        self._grad_check(dropout_rate=0.3)


def _with_random_adapters(enc, seed=9):
    adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    for adapter in adapters.values():
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
        for name in ("attention.self.query", "attention.self.key", "attention.self.value",
                     "attention.output.dense", "intermediate.dense", "output.dense"):
            name = f"encoder.layer.0.{name}"
            W, b = enc.params[f"{name}.weight"], enc.params[f"{name}.bias"]
            x = rng.normal(size=(*batch, W.shape[1]))
            dy = rng.normal(size=(*batch, W.shape[0]))
            cache: list = []
            grads: dict = {}
            y = enc._linear(name, x, False, None, cache)
            dx = enc._linear_backward(dy, cache[0], grads)

            y_ref, dx_ref = x @ W.T + b, dy @ W
            adapter = enc.adapters.get(name)
            if adapter is not None:
                delta, saved = adapter_delta(adapter, x)
                y_ref = y_ref + delta
                dxd, dA, dB = adapter_backward(adapter, dy, saved)
                dx_ref = dx_ref + dxd
                assert grads[name]["A"].tobytes() == dA.tobytes()
                assert grads[name]["B"].tobytes() == dB.tobytes()
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


ALL_LINEARS = ("query", "key", "value", "dense")


def _padded_reference(enc, ids, mask, d_pooled):
    """Pooled outputs and adapter gradients of the padded encoder: every one of
    the B*L positions runs through every layer, and the [CLS] state is read
    off the top layer's full output.  No dropout."""
    c, p = enc.config, enc.params
    B, L = ids.shape
    H, dh = c.n_heads, c.d_model // c.n_heads
    eps = c.layer_norm_eps
    ln, ln_back = enc._layer_norm, enc._layer_norm_backward
    grads = {}

    def linear(name, x, tape):
        y = x @ p[f"{name}.weight"].T + p[f"{name}.bias"]
        adapter, saved = enc.adapters.get(name), None
        if adapter is not None:
            delta, saved = adapter_delta(adapter, x)
            y = y + delta
        tape.append((name, adapter, saved))
        return y

    def linear_back(dy, entry):
        name, adapter, saved = entry
        dx = dy @ p[f"{name}.weight"]
        if adapter is not None:
            dxd, dA, dB = adapter_backward(adapter, dy, saved)
            g = grads.setdefault(name, {"A": 0.0, "B": 0.0})
            g["A"], g["B"] = g["A"] + dA, g["B"] + dB
            dx = dx + dxd
        return dx

    def split(t):
        return t.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(B, L, H * dh)

    def norm(name, x):
        return ln(x, p[f"{name}.weight"], p[f"{name}.bias"], eps)

    x = p["embeddings.word_embeddings.weight"][ids] \
        + p["embeddings.position_embeddings.weight"][:L] \
        + p["embeddings.token_type_embeddings.weight"][0]
    x, _ = norm("embeddings.LayerNorm", x)
    layers = []
    for i in range(c.n_layers):
        pre, tape = f"encoder.layer.{i}.", []
        q, k, v = (split(linear(f"{pre}attention.self.{n}", x, tape))
                   for n in ("query", "key", "value"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + NEG_INF * (1 - mask)[:, None, None, :]
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        att = linear(f"{pre}attention.output.dense", merge(probs @ v), tape)
        h1, ln1 = norm(f"{pre}attention.output.LayerNorm", x + att)
        u = linear(f"{pre}intermediate.dense", h1, tape)
        f_out = linear(f"{pre}output.dense", gelu(u), tape)
        x, ln2 = norm(f"{pre}output.LayerNorm", h1 + f_out)
        layers.append((tape, q, k, v, probs, ln1, ln2, u))

    pooled = x[:, 0]
    dx = np.zeros_like(x)
    dx[:, 0] = d_pooled
    for tape, q, k, v, probs, ln1, ln2, u in reversed(layers):
        d_res2 = ln_back(dx, ln2)
        du = linear_back(d_res2, tape[5]) * gelu_grad(u)
        d_res1 = ln_back(d_res2 + linear_back(du, tape[4]), ln1)
        dctx = split(linear_back(d_res1, tape[3]))
        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
        dx = (d_res1 + linear_back(merge(dscores @ k), tape[0])
              + linear_back(merge(dscores.transpose(0, 1, 3, 2) @ q), tape[1])
              + linear_back(merge(probs.transpose(0, 1, 3, 2) @ dctx), tape[2]))
    return pooled, grads


def _masks(lengths, width, hole=None):
    mask = np.zeros((len(lengths), width))
    for row, n in enumerate(lengths):
        mask[row, :n] = 1.0
    if hole is not None:
        mask[hole] = 0.0
    return mask


class TestPacking:
    # (encoder shape, row lengths, padded width, a masked position inside a row)
    CASES = [(dict(), (10, 7, 1), 12, (1, 3)),
             (dict(), (10, 10, 10), 10, None),
             (dict(d_model=192, n_heads=3, d_ff=768, n_layers=3), (37, 20, 5, 1, 33), 40, None)]

    @pytest.mark.parametrize("overrides,lengths,width,hole", CASES,
                             ids=["toy-uneven", "toy-unpadded", "wide-uneven"])
    def test_pooled_and_adapter_grads_match_the_padded_reference(self, overrides, lengths,
                                                                 width, hole):
        enc = build_toy_encoder(seed=4, **overrides)
        adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.0, seed=9,
                                      patterns=ALL_LINEARS)
        rng = np.random.default_rng(1)
        for adapter in adapters.values():
            adapter.B[:] = rng.normal(0, 0.3, adapter.B.shape)
        enc.attach_adapters(adapters)
        ids = rng.integers(0, enc.config.vocab_size, size=(len(lengths), width))
        mask = _masks(lengths, width, hole)
        d_pooled = rng.normal(size=(len(lengths), enc.d_model))

        pooled, cache = enc.forward(ids, mask, return_cache=True)
        grads = enc.backward_adapters(cache, d_pooled)
        ref_pooled, ref_grads = _padded_reference(enc, ids, mask, d_pooled)

        # Packing changes GEMM row counts, so the two agree to float64
        # rounding: within K * eps of the largest term, K summing the
        # lengths of the dot products a value passes through.
        c = enc.config
        tol = c.d_ff * c.n_layers * np.finfo(float).eps

        def close(got, want):
            return got.shape == want.shape and np.all(
                np.abs(got - want) <= tol * (np.abs(want).max() + 1))

        assert close(pooled, ref_pooled)
        assert sorted(grads) == sorted(ref_grads) == sorted(name for name, _ in adapters.items())
        for name in grads:
            assert close(grads[name]["A"], ref_grads[name]["A"]), name
            assert close(grads[name]["B"], ref_grads[name]["B"]), name

    def test_a_masked_cls_position_is_refused(self):
        enc = tiny_encoder()
        ids = np.array([[2, 5, 7], [2, 9, 4]])
        mask = np.array([[1.0, 1, 1], [0, 1, 1]])
        with pytest.raises(ShapeMismatch, match="position 0"):
            enc.forward(ids, mask)

    def test_rows_each_linear_runs_on(self, monkeypatch):
        enc = _with_random_adapters(tiny_encoder())
        mask = _masks((6, 3, 1), 8)
        ids = np.random.default_rng(3).integers(0, 64, size=mask.shape)
        rows = {}

        def linear(self, name, x, training, rng, cache):
            rows[name] = x.shape
            return NumpyTransformerEncoder._linear(enc, name, x, training, rng, cache)

        monkeypatch.setattr(enc, "_linear", linear.__get__(enc))
        _, cache = enc.forward(ids, mask, return_cache=True)
        N, B, d = 10, 3, enc.d_model
        for name, shape in rows.items():
            _, _, i, module = name.split(".", 3)
            n = N if i == "0" or module in ("attention.self.key", "attention.self.value") else B
            assert shape == (n, enc.config.d_ff if module == "output.dense" else d), name

    def test_layer_0_forms_no_input_gradient(self, monkeypatch):
        enc = _with_random_adapters(tiny_encoder())
        mask = _masks((6, 3, 1), 8)
        ids = np.random.default_rng(3).integers(0, 64, size=mask.shape)
        pooled, cache = enc.forward(ids, mask, return_cache=True)
        calls = []

        def linear_backward(self, dy, entry, grads, need_dx=True):
            dx = NumpyTransformerEncoder._linear_backward(enc, dy, entry, grads, need_dx)
            calls.append((entry["name"], need_dx, dx is None))
            return dx

        monkeypatch.setattr(enc, "_linear_backward", linear_backward.__get__(enc))
        grads = enc.backward_adapters(cache, np.ones_like(pooled))
        assert sorted(grads) == enc.adapter_targets()
        attention = "encoder.layer.0.attention."
        layer0 = [call for call in calls if call[0].startswith(attention)]
        assert [name for name, _, _ in layer0] == [
            f"{attention}output.dense", f"{attention}self.value", f"{attention}self.query"]
        assert [(need, none) for _, need, none in layer0] == [(True, False), (False, True),
                                                            (False, True)]
        assert all(need and not none for name, need, none in calls
                   if not name.startswith(attention))

    def test_a_cache_serves_one_backward(self):
        enc = _with_random_adapters(tiny_encoder())
        mask = _masks((6, 3, 1), 8)
        ids = np.random.default_rng(3).integers(0, 64, size=mask.shape)
        pooled, cache = enc.forward(ids, mask, return_cache=True)
        enc.backward_adapters(cache, np.ones_like(pooled))
        assert cache.layers == []    # every layer freed once backward is done with it
        with pytest.raises(ValueError, match="already consumed"):
            enc.backward_adapters(cache, np.ones_like(pooled))


# sha256 of each tensor of build_toy_encoder()'s random base (numpy 2.4.6)
TOY_BASE_SHA256 = {
    "embeddings.word_embeddings.weight":
        "2b7400e694fe2068e87814722df04faaae5d2849235f83a90a4646dfb6a57501",
    "embeddings.position_embeddings.weight":
        "abc0ae4334c759c06712b611a58abde54ae2ef417f17d6b23bde8dc09e07b308",
    "embeddings.token_type_embeddings.weight":
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    "embeddings.LayerNorm.weight":
        "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "embeddings.LayerNorm.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.attention.self.query.weight":
        "8e39de6dfce810149f86e2cf1fe8fcd1e9a814c72931793e7f491b44f87f9a33",
    "encoder.layer.0.attention.self.query.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.attention.self.key.weight":
        "8c68beba7166cc4f9b57914411edb9d099a6d303a51e4b4428e912a3d3f48e2f",
    "encoder.layer.0.attention.self.key.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.attention.self.value.weight":
        "4d37d14bd387d7e0fab68707671b2970adb9c233761b167043c8c2937f8da9a4",
    "encoder.layer.0.attention.self.value.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.attention.output.dense.weight":
        "234b5772c126547de0513af7d397ef567153bcd6357dfcb4a7a801cd68fd0577",
    "encoder.layer.0.attention.output.dense.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.attention.output.LayerNorm.weight":
        "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "encoder.layer.0.attention.output.LayerNorm.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.intermediate.dense.weight":
        "6324cfa478aa9b9675faa978113b2dc025cd5398026613640b1e69ce4a6035ba",
    "encoder.layer.0.intermediate.dense.bias":
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    "encoder.layer.0.output.dense.weight":
        "b48a89b361278e06d61a1bc79a7a12ab374c6be86b9038cb1c1d97b80669a4bf",
    "encoder.layer.0.output.dense.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.0.output.LayerNorm.weight":
        "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "encoder.layer.0.output.LayerNorm.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.attention.self.query.weight":
        "51135047a9714006ddd3d4a90ea600c9eb177a9fb7ca9d2a072eda2346569db9",
    "encoder.layer.1.attention.self.query.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.attention.self.key.weight":
        "da3215adc282381b6f9c31f1518ccbb7f7706e5205264f99973c9acc62345f7c",
    "encoder.layer.1.attention.self.key.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.attention.self.value.weight":
        "15b6e263a103810f731a5eda525c7b62034af16fc519f49dc03ead8b691497e1",
    "encoder.layer.1.attention.self.value.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.attention.output.dense.weight":
        "a26ef1326c6fc0ec18659d9322b42ec6dc1424f8ae3ff8d8af9a905422a9f43a",
    "encoder.layer.1.attention.output.dense.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.attention.output.LayerNorm.weight":
        "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "encoder.layer.1.attention.output.LayerNorm.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.intermediate.dense.weight":
        "793856e47dd199b38ca67961ca3dcb0c4ffd17ebecf63c3d8b32f4c56f36499e",
    "encoder.layer.1.intermediate.dense.bias":
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    "encoder.layer.1.output.dense.weight":
        "be1fa9a8296d46c304c4cd4d8c9ad8c91988871fbfbb0ac9cf9f688022a30f92",
    "encoder.layer.1.output.dense.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    "encoder.layer.1.output.LayerNorm.weight":
        "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "encoder.layer.1.output.LayerNorm.bias":
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
}


class TestInit:
    BIG = dict(d_model=32, n_heads=2, d_ff=48, n_layers=3, vocab_size=96)

    def test_the_default_toy_base_keeps_each_tensor_s_values(self):
        """Pinned by name, so that renaming or reordering the base parameters
        cannot move a weight to another random stream unnoticed."""
        params = build_toy_encoder().params
        assert {name: hashlib.sha256(array.tobytes()).hexdigest()
                for name, array in params.items()} == TOY_BASE_SHA256

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
            if arr.ndim == 2 and "token_type" not in name:   # a drawn matrix
                assert not np.array_equal(arr, c.params[name]), name

    def test_vocab_size_leaves_every_layer_weight_unchanged(self):
        small = build_toy_encoder(seed=5, **self.BIG).params
        large = build_toy_encoder(seed=5, **{**self.BIG, "vocab_size": 200}).params
        assert list(small) == list(large)
        for name in small:
            if name != "embeddings.word_embeddings.weight":
                assert small[name].tobytes() == large[name].tobytes(), name
        assert large["embeddings.word_embeddings.weight"].shape == (200, 32)


class TestBaseStore:
    SHAPE = dict(d_model=16, n_layers=2, n_heads=2, d_ff=24, vocab_size=64, max_len=12)

    def _config(self, **overrides):
        return EncoderConfig(**{**self.SHAPE, "seed": 3, **overrides})

    def _outputs(self, params):
        enc = NumpyTransformerEncoder(self._config(), HashWordTokenizer(64), params=params)
        ids = np.array([[2, 9, 17, 40, 0], [2, 33, 5, 0, 0]])
        mask = (np.arange(5) < np.array([[4], [3]])).astype(float)
        return enc.forward(ids, mask)

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 65), ("d_model", 32), ("n_layers", 3), ("d_ff", 25), ("max_len", 13),
        ("init_std", 0.2), ("seed", 4)])
    def test_the_key_covers_every_field_that_decides_the_bytes(self, field, value):
        assert encoder_module.base_key(self._config(**{field: value})) \
            != encoder_module.base_key(self._config())

    @pytest.mark.parametrize("field, value", [("n_heads", 4), ("layer_norm_eps", 1e-6)])
    def test_the_key_ignores_fields_that_do_not_change_the_bytes(self, field, value):
        assert encoder_module.base_key(self._config(**{field: value})) \
            == encoder_module.base_key(self._config())

    def test_the_key_covers_numpy_and_the_module_source(self, monkeypatch, tmp_path):
        key = encoder_module.base_key(self._config())
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert encoder_module.base_key(self._config()) != key
        monkeypatch.undo()
        source = tmp_path / "encoder.py"
        source.write_bytes(Path(encoder_module.__file__).read_bytes() + b"# edited\n")
        monkeypatch.setattr(encoder_module, "__file__", str(source))
        assert encoder_module.base_key(self._config()) != key

    def test_a_stored_base_has_the_bits_of_one_normal_draw_per_matrix(self, tmp_path):
        c = self._config()
        params = encoder_module.random_base(c, str(tmp_path))
        drawn = [n for n in params if params[n].ndim == 2 and "token_type" not in n]
        streams = np.random.SeedSequence(c.seed).spawn(len(drawn))
        for name, stream in zip(drawn, streams):
            expected = np.random.default_rng(stream).normal(0.0, c.init_std, params[name].shape)
            assert params[name].tobytes() == expected.tobytes(), name
        in_memory = encoder_module.random_base(c)
        assert list(in_memory) == list(params)
        for name in params:
            assert in_memory[name].tobytes() == params[name].tobytes(), name

    def test_the_default_toy_base_file_keeps_its_bytes(self, tmp_path):
        """``np.save`` writes the ``.npy`` header and array a stored base
        always had (sha256 of the file under numpy 2.4.6)."""
        build_toy_encoder(store_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "ef1eaccbbe8346267c7383637e484c405ba051e518da51465506829d90f03132"

    def test_a_second_map_draws_nothing(self, tmp_path, monkeypatch):
        draws = []
        real = encoder_module._draw_normal
        monkeypatch.setattr(encoder_module, "_draw_normal",
                            lambda *a: draws.append(1) or real(*a))
        first = encoder_module.random_base(self._config(), str(tmp_path))
        second = encoder_module.random_base(self._config(), str(tmp_path))
        assert len(draws) == 1 and len(os.listdir(tmp_path)) == 1
        assert np.array_equal(self._outputs(first), self._outputs(second))

    def test_alternating_bases_are_each_filled_once(self, tmp_path, monkeypatch):
        draws = []
        real = encoder_module._draw_normal
        monkeypatch.setattr(encoder_module, "_draw_normal",
                            lambda *a: draws.append(1) or real(*a))
        for seed in (11, 12, 11, 12):
            encoder_module.random_base(self._config(seed=seed), str(tmp_path))
        assert len(draws) == 2 and len(os.listdir(tmp_path)) == 2

    def test_a_new_base_removes_the_stale_ones(self, tmp_path):
        """A store keeps the three most recently used bases: a fourth key
        removes the one used least recently, whatever order they were filled in."""
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        for seed in (11, 12, 13, 11):   # 11 is filled first but used after 12
            encoder_module.random_base(self._config(seed=seed), str(tmp_path))
        params = encoder_module.random_base(self._config(seed=14), str(tmp_path))
        kept = sorted(f"{encoder_module.base_key(self._config(seed=seed))}.npy"
                      for seed in (11, 13, 14))
        assert sorted(os.listdir(tmp_path)) == sorted(kept + ["notes.txt"])
        assert np.array_equal(self._outputs(params), self._outputs(
            encoder_module.random_base(self._config(seed=14))))

    @pytest.mark.parametrize("damage", ["delete", "empty", "truncate", "header", "float32",
                                        "longer", "trailing"])
    def test_a_damaged_file_is_drawn_again(self, tmp_path, damage):
        c = self._config()
        clean = self._outputs(encoder_module.random_base(c, str(tmp_path)))
        path = tmp_path / f"{encoder_module.base_key(c)}.npy"
        data = path.read_bytes()
        size = np.load(path, mmap_mode="r").size
        if damage == "delete":
            path.unlink()
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "truncate":
            path.write_bytes(data[: len(data) // 2])
        elif damage == "header":
            path.write_bytes(b"PK\x03\x04" + data[4:])
        elif damage == "float32":
            np.save(path, np.ones(size, dtype=np.float32))
        elif damage == "longer":
            np.save(path, np.ones(size + 1))
        else:
            path.write_bytes(data + b"\0" * 8)
        assert np.array_equal(self._outputs(encoder_module.random_base(c, str(tmp_path))),
                              clean)
        assert path.read_bytes() == data
        assert os.listdir(tmp_path) == [path.name]   # no temp file left behind

    def test_a_base_swept_right_after_its_rename_still_maps(self, tmp_path, monkeypatch):
        """Another process's sweep may remove the file the moment it is
        published: the process that filled it keeps its own array."""
        real = encoder_module.write_atomic

        def swept(path, data):
            real(path, data)
            os.remove(path)

        monkeypatch.setattr(encoder_module, "write_atomic", swept)
        c = self._config()
        params = encoder_module.random_base(c, str(tmp_path))
        assert os.listdir(tmp_path) == []
        in_memory = encoder_module.random_base(c)
        for name in in_memory:
            assert params[name].tobytes() == in_memory[name].tobytes(), name

    @pytest.mark.parametrize("stored, exported", [(False, False), (True, False),
                                                  (False, True), (True, True)],
                             ids=["False", "True", "exported-False", "exported-True"])
    def test_every_base_parameter_is_read_only(self, tmp_path, stored, exported):
        store = str(tmp_path / "store") if stored else None
        if exported:
            build_toy_encoder(seed=3, **self.SHAPE).save_base(tmp_path / "export")
            enc = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "export",
                                                              store_dir=store)
        else:
            enc = build_toy_encoder(seed=3, store_dir=store, **self.SHAPE)
        for name, arr in enc.params.items():
            with pytest.raises(ValueError):
                arr[...] = 0.0
            with pytest.raises(ValueError):
                enc.params[name] += 1.0


def hand_written_snapshot(directory, enc, vocab=None, tokenizer_config=None):
    """A snapshot laid out as a Hugging Face BertForMaskedLM checkpoint would
    be: F32 tensors under ``bert.`` names, with a pooler, an int64
    ``position_ids`` and an MLM head the encoder does not use, ``__metadata__``,
    a space-padded header, and Hugging Face's config keys."""
    c = enc.config
    tensors = {"cls.predictions.bias": np.zeros(c.vocab_size, "<f4"),
               "bert.embeddings.position_ids": np.arange(c.max_len, dtype="<i8")[None],
               **{f"bert.{n}": a.astype("<f4") for n, a in enc.params.items()},
               "bert.pooler.dense.weight": np.ones((c.d_model, c.d_model), "<f4")}
    header, buffer = {"__metadata__": {"format": "pt"}}, b""
    for name, array in tensors.items():
        header[name] = {"dtype": {"<f4": "F32", "<i8": "I64"}[array.dtype.str],
                        "shape": list(array.shape),
                        "data_offsets": [len(buffer), len(buffer) + array.nbytes]}
        buffer += array.tobytes()
    directory.mkdir()
    (directory / "model.safetensors").write_bytes(safetensors_bytes(header, buffer, pad=5))
    config = {"architectures": ["BertForMaskedLM"], "model_type": "bert", "hidden_act": "gelu",
              "hidden_size": c.d_model, "num_hidden_layers": c.n_layers,
              "num_attention_heads": c.n_heads, "intermediate_size": c.d_ff,
              "max_position_embeddings": c.max_len, "vocab_size": c.vocab_size,
              "type_vocab_size": 2, "position_embedding_type": "absolute"}
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    if vocab is not None:
        (directory / "vocab.txt").write_text("".join(f"{t}\n" for t in vocab), encoding="utf-8")
    if tokenizer_config is not None:
        (directory / "tokenizer_config.json").write_text(json.dumps(tokenizer_config),
                                                        encoding="utf-8")
    return directory


def snapshot_config(c: EncoderConfig) -> EncoderConfig:
    """``c`` as a snapshot's config.json gives it back: its shapes and
    ``layer_norm_eps``, with the defaults of fields that only draw a random base."""
    return EncoderConfig(**{k: getattr(c, k) for k in (
        "vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len", "layer_norm_eps")})


SNAPSHOT_VOCAB = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[unused0]"] + [f"w{i}" for i in range(59)]


class TestSnapshotReader:
    @pytest.mark.parametrize("stored", [False, True])
    def test_a_hand_written_snapshot_loads_the_float32_parameters(self, tmp_path, stored):
        enc = tiny_encoder()
        snapshot = hand_written_snapshot(tmp_path / "snap", enc)
        store = str(tmp_path / "store") if stored else None
        loaded = NumpyTransformerEncoder.from_pretrained_dir(snapshot, store_dir=store)
        assert sorted(loaded.params) == sorted(enc.params)
        for name, array in enc.params.items():
            expected = array.astype(np.float32).astype(np.float64)
            assert loaded.params[name].tobytes() == expected.tobytes(), name
        assert loaded.config == snapshot_config(enc.config)
        assert isinstance(loaded.tokenizer, HashWordTokenizer)

    def test_a_missing_config_key_means_bert_s_default(self, tmp_path):
        snapshot = hand_written_snapshot(tmp_path / "snap", tiny_encoder(max_len=512))
        config = json.loads((snapshot / "config.json").read_text(encoding="utf-8"))
        del config["max_position_embeddings"], config["hidden_act"]
        (snapshot / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert NumpyTransformerEncoder.from_pretrained_dir(snapshot).config.max_len == 512

    @pytest.mark.parametrize("tokenizer_config, lower", [
        (None, True), ({}, True), ({"do_lower_case": False}, False),
        ({"do_lower_case": True}, True)])
    def test_do_lower_case_comes_from_the_tokenizer_config(self, tmp_path, tokenizer_config,
                                                          lower):
        snapshot = hand_written_snapshot(tmp_path / "snap", tiny_encoder(), SNAPSHOT_VOCAB,
                                         tokenizer_config)
        tokenizer = NumpyTransformerEncoder.from_pretrained_dir(snapshot).tokenizer
        assert isinstance(tokenizer, WordPieceTokenizer)
        assert tokenizer.do_lower_case is lower
        assert tokenizer.vocab == {t: i for i, t in enumerate(SNAPSHOT_VOCAB)}


    @pytest.mark.parametrize("tokenizer_config, strip", [
        (None, True), ({"do_lower_case": False}, False), ({"strip_accents": False}, False),
        ({"do_lower_case": False, "strip_accents": True}, True),
        ({"strip_accents": None}, True)])
    def test_strip_accents_comes_from_the_tokenizer_config(self, tmp_path, tokenizer_config,
                                                           strip):
        snapshot = hand_written_snapshot(tmp_path / "snap", tiny_encoder(), SNAPSHOT_VOCAB,
                                         tokenizer_config)
        tokenizer = NumpyTransformerEncoder.from_pretrained_dir(snapshot).tokenizer
        assert tokenizer.strip_accents is strip


def damage_tensor(export, edit, name="encoder.layer.1.intermediate.dense.weight"):
    """Apply ``edit`` to the header entry of tensor ``name`` of ``export``'s
    ``model.safetensors``."""
    edit_safetensors_header(export / "model.safetensors", lambda header: edit(header, name))


class TestPersistence:
    def test_save_and_reload_base(self, tmp_path):
        enc = tiny_encoder()
        enc.save_base(tmp_path / "enc")
        reloaded = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")
        ids = np.array([[2, 5, 7]])
        mask = np.ones((1, 3))
        assert np.array_equal(enc.forward(ids, mask), reloaded.forward(ids, mask))
        assert enc.base_state_bytes() == reloaded.base_state_bytes()

    def test_an_older_export_naming_a_pooling_still_loads(self, tmp_path):
        """Config keys the encoder does not read, such as an older export's
        ``pooling`` or Hugging Face's ``architectures``, are ignored."""
        enc = tiny_encoder()
        enc.save_base(tmp_path / "enc")
        path = tmp_path / "enc" / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "pooling": "mean", "model_type": "bert",
                                    "architectures": ["BertModel"]}), encoding="utf-8")
        reloaded = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")
        assert reloaded.config == snapshot_config(enc.config)
        assert reloaded.base_state_bytes() == enc.base_state_bytes()

    @pytest.mark.parametrize("damaged", ["model.safetensors", "config.json"])
    def test_truncated_export_is_a_user_error(self, tmp_path, damaged):
        tiny_encoder().save_base(tmp_path / "enc")
        path = tmp_path / "enc" / damaged
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(EncoderUnavailable, match=re.escape(str(tmp_path / "enc"))):
            NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")

    def test_an_export_without_weights_is_unavailable_naming_the_file(self, tmp_path):
        tiny_encoder().save_base(tmp_path / "enc")
        (tmp_path / "enc" / "model.safetensors").unlink()
        with pytest.raises(EncoderUnavailable,
                           match=re.escape(str(tmp_path / "enc" / "model.safetensors"))):
            NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")

    @pytest.mark.parametrize("damage", [
        "config-type", "config-heads", "hidden-act-relu", "position-relative-key",
        "vocab-no-pad", "vocab-not-utf8", "vocab-directory", "tokenizer-config-not-json",
        "weights-npz-only", "F16", "BF16", "overlap", "past-end", "long-header"])
    def test_a_damaged_export_is_a_user_error_naming_it(self, tmp_path, damage):
        export = tmp_path / "enc"
        tiny_encoder().save_base(export)
        weights = export / "model.safetensors"
        config = json.loads((export / "config.json").read_text(encoding="utf-8"))
        vocab = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(60)]
        if damage == "config-type":
            config["hidden_size"] = "16"
        elif damage == "config-heads":
            config["num_attention_heads"] = 0
        elif damage == "hidden-act-relu":
            config["hidden_act"] = "relu"
        elif damage == "position-relative-key":
            config["position_embedding_type"] = "relative_key"
        elif damage == "vocab-no-pad":
            vocab.remove("[PAD]")
        elif damage == "weights-npz-only":
            np.savez(export / "weights.npz", **tiny_encoder().params)
            weights.unlink()
        elif damage in ("F16", "BF16"):
            damage_tensor(export, lambda header, name: header[name].update(dtype=damage))
        elif damage == "overlap":   # on a tensor of the same size
            damage_tensor(export, lambda header, name: header[name].update(
                data_offsets=header["encoder.layer.0.intermediate.dense.weight"]["data_offsets"]))
        elif damage == "past-end":
            size = weights.stat().st_size
            damage_tensor(export, lambda header, name: header[name].update(
                data_offsets=[size, size + 24 * 16 * 8]))
        elif damage == "long-header":
            weights.write_bytes(struct.pack("<Q", weights.stat().st_size)
                                + weights.read_bytes()[8:])
        (export / "config.json").write_text(json.dumps(config), encoding="utf-8")
        (export / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")
        if damage == "vocab-not-utf8":
            (export / "vocab.txt").write_bytes(b"[PAD]\n\xff\xfe\n")
        elif damage == "vocab-directory":
            (export / "vocab.txt").unlink()
            (export / "vocab.txt").mkdir()
        elif damage == "tokenizer-config-not-json":
            (export / "tokenizer_config.json").write_text("{do_lower_case", encoding="utf-8")
        store = tmp_path / "s"
        with pytest.raises(UserError, match=re.escape(str(export))):
            NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        assert not store.exists() or os.listdir(store) == []

    def test_resolve_toy(self):
        enc = resolve_encoder("toy", seed=1, d_model=16, n_layers=1, n_heads=2,
                              d_ff=16, vocab_size=32, max_len=8)
        assert enc.d_model == 16

    def test_resolve_pretrained_without_weights_dir(self):
        with pytest.raises(EncoderUnavailable, match="model.safetensors"):
            resolve_encoder("CAMeL-Lab/bert-base-arabic-camelbert-mix")

    def test_resolve_unknown(self):
        with pytest.raises(EncoderUnavailable):
            resolve_encoder("not-a-backend")


class TestExportWriter:
    """``save_base`` writes a Hugging Face BERT snapshot: F64 safetensors under
    Hugging Face's names and a config.json with Hugging Face's keys."""

    def test_an_export_round_trips_through_from_pretrained_dir(self, tmp_path):
        enc = tiny_encoder()
        enc.save_base(tmp_path / "enc")
        header, buffer = read_safetensors(tmp_path / "enc" / "model.safetensors")
        # the encoder's own names, in parameter order
        assert list(header) == list(enc.params) == list(encoder_module._base_shapes(enc.config))
        head_length = (tmp_path / "enc" / "model.safetensors").read_bytes()[:8]
        assert int.from_bytes(head_length, "little") % 8 == 0   # an aligned buffer
        for name, array in enc.params.items():
            entry = header[name]
            begin, stop = entry["data_offsets"]
            assert entry["dtype"] == "F64" and entry["shape"] == list(array.shape)
            assert buffer[begin:stop] == array.astype("<f8").tobytes(), name
        loaded = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")
        assert loaded.base_state_bytes() == enc.base_state_bytes()
        config = (tmp_path / "enc" / "config.json").read_text(encoding="utf-8")
        assert config.endswith("}\n") and json.loads(config) == {
            "hidden_size": 16, "num_hidden_layers": 2, "num_attention_heads": 2,
            "intermediate_size": 24, "max_position_embeddings": 12, "vocab_size": 64,
            "layer_norm_eps": 1e-12}

    def test_a_failed_export_leaves_the_previous_one_readable(self, tmp_path, monkeypatch):
        first, second = tiny_encoder(seed=3), tiny_encoder(seed=4)
        first.save_base(tmp_path / "enc")
        written = []
        real = np.ascontiguousarray

        def torn(array, *args, **kwargs):   # the disk fills up at the third tensor
            written.append(1)
            if len(written) == 3:
                raise OSError("disk full")
            return real(array, *args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", torn)
        with pytest.raises(OSError):
            second.save_base(tmp_path / "enc")
        monkeypatch.undo()
        loaded = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "enc")
        assert loaded.base_state_bytes() == first.base_state_bytes()
        assert sorted(os.listdir(tmp_path / "enc")) == ["config.json", "model.safetensors"]


class TestExportStore:
    """An export's base is a stored, read-only map like a random base."""
    SHAPE = TestBaseStore.SHAPE

    @pytest.fixture
    def export(self, tmp_path):
        build_toy_encoder(seed=3, **self.SHAPE).save_base(tmp_path / "export")
        return tmp_path / "export"

    @pytest.fixture
    def reads(self, monkeypatch):
        """The files ``np.fromfile`` reads a tensor from, one entry per tensor."""
        calls = []
        real = np.fromfile
        monkeypatch.setattr(np, "fromfile", lambda f, *a, **k: calls.append(
            str(getattr(f, "name", f))) or real(f, *a, **k))
        return calls

    def test_a_stored_export_has_its_bits_and_is_loaded_once(self, tmp_path, export, reads):
        store = tmp_path / "store"
        first = NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        second = NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        assert reads == [str(export / "model.safetensors")] * len(first.params)
        assert len(os.listdir(store)) == 1
        in_memory = NumpyTransformerEncoder.from_pretrained_dir(export)
        saved = build_toy_encoder(seed=3, **self.SHAPE)
        for name, arr in second.params.items():
            assert arr.tobytes() == saved.params[name].tobytes() == first.params[name].tobytes()
            assert in_memory.params[name].tobytes() == arr.tobytes(), name

    def test_given_digests_are_not_taken_again(self, tmp_path, export, monkeypatch):
        digests = encoder_module.export_digests(export)
        monkeypatch.setattr(encoder_module, "export_digests", lambda d: pytest.fail("hashed"))
        enc = resolve_encoder("toy", weights_dir=str(export), store_dir=str(tmp_path / "s"),
                              digests=digests)
        assert enc.base_state_bytes() == tiny_encoder().base_state_bytes()

    def test_a_new_export_gets_a_new_key_and_sweeps_the_old(self, tmp_path, export):
        """Each new export in the directory is a new key; the store keeps the
        three most recently used, so the fourth sweeps the first."""
        store = tmp_path / "store"
        NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        first = set(os.listdir(store))
        counts, first_kept = [], []
        for seed in (4, 5, 6):
            build_toy_encoder(seed=seed, **self.SHAPE).save_base(export)
            enc = NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
            assert enc.base_state_bytes() == tiny_encoder(seed=seed).base_state_bytes()
            counts.append(len(os.listdir(store)))
            first_kept.append(first <= set(os.listdir(store)))
        assert counts == [2, 3, 3] and first_kept == [True, True, False]

    def test_a_new_vocabulary_keeps_the_stored_base(self, tmp_path, export, reads):
        """The key covers the files that decide the base's bytes, and the
        vocabulary is not one of them."""
        store = tmp_path / "store"
        NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        stored, filled = os.listdir(store), len(reads)
        (export / "vocab.txt").write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n", encoding="utf-8")
        enc = NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        assert isinstance(enc.tokenizer, WordPieceTokenizer)
        assert os.listdir(store) == stored and len(reads) == filled

    def test_a_vocabulary_past_vocab_size_is_refused_before_a_base_is_filled(
            self, tmp_path, export, reads):
        vocab_size = json.loads((export / "config.json").read_text())["vocab_size"]
        tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(vocab_size - 4)]
        (export / "vocab.txt").write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")
        assert NumpyTransformerEncoder.from_pretrained_dir(export).tokenizer.vocab == \
            {t: i for i, t in enumerate(tokens)}
        reads.clear()
        (export / "vocab.txt").write_text("".join(f"{t}\n" for t in tokens + ["extra"]),
                                          encoding="utf-8")
        store = tmp_path / "store"
        with pytest.raises(VocabInvalid, match=re.escape(str(export / "vocab.txt"))):
            NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        assert reads == [] and list(store.glob("*")) == []

    @pytest.mark.parametrize("damage", ["missing", "shape"])
    def test_a_bad_parameter_is_never_published(self, tmp_path, export, damage):
        if damage == "missing":
            damage_tensor(export, lambda header, name: header.pop(name))
        else:
            damage_tensor(export, lambda header, name: header[name].update(shape=[24, 15]))
        store = tmp_path / "store"
        with pytest.raises(ShapeMismatch, match=re.escape(str(export))) as err:
            NumpyTransformerEncoder.from_pretrained_dir(export, store_dir=str(store))
        assert "encoder.layer.1.intermediate.dense.weight" in str(err.value)
        assert list(store.glob("*")) == []   # no file in the store, temp files included


def test_one_function_under_src_maps_a_file():
    """Every frozen base goes through ``encoder.frozen_base``: no other
    function calls ``np.memmap`` or ``open_memmap``."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    users = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outer = [node for top in tree.body
                 for node in ([top] if not isinstance(top, ast.ClassDef) else top.body)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in outer:
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and \
                        ast.unparse(call.func).split(".")[-1] in ("memmap", "open_memmap"):
                    users.add(f"{path.name}:{fn.name}")
    assert users == {"encoder.py:frozen_base"}


def test_only_the_encoder_names_the_snapshot_weights():
    """``encoder`` reads and writes a snapshot; no other module knows its file
    names, and nothing names the older ``weights.npz`` layout."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    texts = {p.name: p.read_text(encoding="utf-8") for p in src.rglob("*.py")}
    assert sorted(name for name, text in texts.items() if "model.safetensors" in text) \
        == ["encoder.py"]
    assert not any("weights.npz" in text or "zipfile" in text for text in texts.values())


class TestHuggingFaceParity:
    """Cross-checks the numpy forward pass against the reference transformer
    implementation on a tiny random BERT; skips when torch and transformers
    are not installed."""

    def test_forward_matches_transformers(self, tmp_path):
        torch = pytest.importorskip("torch")
        transformers = pytest.importorskip("transformers")

        cfg = transformers.BertConfig(
            vocab_size=50, hidden_size=16, num_hidden_layers=2,
            num_attention_heads=2, intermediate_size=24,
            max_position_embeddings=12, hidden_act="gelu",
            hidden_dropout_prob=0.0, attention_probs_dropout_prob=0.0)
        torch.manual_seed(0)
        hf_model = transformers.BertModel(cfg)
        hf_model.eval()
        hf_model.save_pretrained(tmp_path / "snapshot", safe_serialization=True)
        enc = NumpyTransformerEncoder.from_pretrained_dir(tmp_path / "snapshot")

        ids = np.array([[2, 5, 7, 9, 4], [2, 11, 13, 0, 0]])
        mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
        mine = enc.forward(ids, mask)

        with torch.no_grad():
            out = hf_model(input_ids=torch.tensor(ids),
                           attention_mask=torch.tensor(mask, dtype=torch.long))
        reference = out.last_hidden_state[:, 0, :].numpy()
        assert np.allclose(mine, reference, atol=1e-5), \
            np.max(np.abs(mine - reference))
