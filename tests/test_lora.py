import json

import numpy as np
import pytest

from medcascade.errors import RankTooLarge, ShapeMismatch
from medcascade.lora import (LoraAdapter, adapted_forward, count_trainable, init_adapter,
                             load_adapter_set, merge, save_adapter_set)


class TestInitAdapter:
    def test_shapes_and_zero_b(self):
        adapter = init_adapter(64, 64, r=16, seed=0)
        assert adapter.A.shape == (16, 64)
        assert adapter.B.shape == (64, 16)
        assert np.all(adapter.B == 0.0)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            init_adapter(64, 64, r=128)
        with pytest.raises(RankTooLarge):
            init_adapter(64, 256, r=65)
        with pytest.raises(RankTooLarge, match=">= 1"):
            init_adapter(64, 64, r=0)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
    def test_dropout_rate_outside_zero_to_one_is_refused(self, rate):
        with pytest.raises(ValueError, match="dropout_rate"):
            init_adapter(8, 8, r=2, dropout_rate=rate)

    def test_deterministic_in_seed(self):
        a = init_adapter(32, 48, r=4, seed=9)
        b = init_adapter(32, 48, r=4, seed=9)
        assert a.A.tobytes() == b.A.tobytes()
        assert init_adapter(32, 48, r=4, seed=10).A.tobytes() != a.A.tobytes()

    def test_a_std_is_inverse_rank(self):
        adapter = init_adapter(2000, 8, r=4, seed=1)
        assert abs(adapter.A.std() - 0.25) < 0.01

    def test_scaling_is_alpha_over_rank(self):
        adapter = init_adapter(8, 8, r=4, alpha=8.0)
        assert adapter.scaling == 2.0
        paper_shaped = init_adapter(64, 64, r=16, alpha=8.0)
        assert paper_shaped.scaling == 0.5


def r1_fixture():
    """Hand-computed before the build: r=1, alpha=1, A=[[1,0]], B=[[1],[0]].
    B(A x) for x=(3,5) is ((1)(3), 0) = (3, 0)."""
    return LoraAdapter(A=np.array([[1.0, 0.0]]), B=np.array([[1.0], [0.0]]),
                       rank=1, alpha=1.0, dropout_rate=0.0)


class TestAdaptedForward:
    def test_zero_init_neutrality(self):
        adapter = init_adapter(16, 16, r=4, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=16)
            base = rng.normal(size=16)
            out = adapted_forward(adapter, base, x)
            assert np.array_equal(out, base)

    def test_hand_computed_r1_fixture(self):
        out = adapted_forward(r1_fixture(), np.zeros(2), np.array([3.0, 5.0]))
        assert np.allclose(out, [3.0, 0.0])

    def test_eval_mode_deterministic(self):
        adapter = init_adapter(8, 8, r=2, seed=1, dropout_rate=0.5)
        adapter.B[:] = 1.0
        x = np.arange(8.0)
        base = np.zeros(8)
        assert np.array_equal(adapted_forward(adapter, base, x, training=False),
                              adapted_forward(adapter, base, x, training=False))

    def test_batched_inputs(self):
        adapter = r1_fixture()
        x = np.array([[3.0, 5.0], [1.0, 2.0]])
        out = adapted_forward(adapter, np.zeros((2, 2)), x)
        assert np.allclose(out, [[3.0, 0.0], [1.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adapted_forward(r1_fixture(), np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            adapted_forward(r1_fixture(), np.zeros(3), np.zeros(2))

    def test_training_dropout_needs_rng(self):
        adapter = init_adapter(8, 8, r=2, seed=1, dropout_rate=0.5)
        with pytest.raises(ValueError):
            adapted_forward(adapter, np.zeros(8), np.ones(8), training=True)

    def test_dropout_expectation_matches_eval(self):
        # inverted dropout: train-time mean approaches the eval output
        adapter = init_adapter(16, 8, r=4, seed=5, dropout_rate=0.3)
        adapter.B[:] = np.random.default_rng(6).normal(size=adapter.B.shape)
        x = np.random.default_rng(7).normal(size=16)
        eval_out = adapted_forward(adapter, np.zeros(8), x, training=False)
        rng = np.random.default_rng(8)
        n = 20000
        samples = np.stack([adapted_forward(adapter, np.zeros(8), x, training=True, rng=rng)
                            for _ in range(n)])
        se = samples.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - eval_out) <= 3 * se + 1e-12)


class TestMerge:
    def test_zero_b_returns_w_unchanged(self):
        adapter = init_adapter(8, 8, r=2, seed=0)
        w = np.random.default_rng(1).normal(size=(8, 8))
        assert np.array_equal(merge(adapter, w), w)

    def test_hand_computed_r1_fixture(self):
        merged = merge(r1_fixture(), np.zeros((2, 2)))
        assert np.allclose(merged, [[1.0, 0.0], [0.0, 0.0]])

    def test_merge_equals_adapted_forward(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d_in = int(rng.integers(2, 33))
            d_out = int(rng.integers(2, 33))
            r = int(rng.integers(1, min(d_in, d_out) + 1))
            adapter = init_adapter(d_in, d_out, r=r, alpha=float(rng.uniform(0.5, 16)),
                                   seed=int(rng.integers(0, 1000)))
            adapter.B[:] = rng.normal(size=adapter.B.shape)
            w = rng.normal(size=(d_out, d_in))
            x = rng.normal(size=(5, d_in))
            merged_out = x @ merge(adapter, w).T
            adapted_out = adapted_forward(adapter, x @ w.T, x, training=False)
            assert np.max(np.abs(merged_out - adapted_out)) <= 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            merge(r1_fixture(), np.zeros((3, 2)))


class TestCountTrainable:
    def test_single_adapter(self):
        adapters = {"w": init_adapter(64, 64, r=16)}
        assert count_trainable(adapters) == 16 * 128  # 2048

    def test_head_only(self):
        assert count_trainable({}, [(64, 5)]) == 64 * 5 + 5  # 325

    def test_additive(self):
        adapters = {"w": init_adapter(64, 64, r=16)}
        assert count_trainable(adapters, [(64, 5)]) == 2048 + 325  # 2373


class TestCheckpoint:
    def test_round_trip_independent_of_base(self, tmp_path):
        adapters = {
            "encoder.layer.0.attention.self.query": init_adapter(16, 16, r=4, seed=1),
            "encoder.layer.1.attention.self.value": init_adapter(16, 16, r=2, seed=2, alpha=4.0),
        }
        adapters["encoder.layer.0.attention.self.query"].B[:] = 0.5
        heads = {"type": {"W": np.ones((3, 16)), "b": np.zeros(3)}}
        path = tmp_path / "ckpt.npz"
        save_adapter_set(path, adapters, heads, extra_meta={"note": "test"})
        loaded, loaded_heads, extra = load_adapter_set(path)
        assert set(loaded) == set(adapters)
        for name, adapter in adapters.items():
            assert np.array_equal(loaded[name].A, adapter.A)
            assert np.array_equal(loaded[name].B, adapter.B)
            assert loaded[name].alpha == adapter.alpha
            assert loaded[name].rank == adapter.rank
        assert np.array_equal(loaded_heads["type"]["W"], heads["type"]["W"])
        assert extra == {"note": "test"}

    def test_loads_checkpoint_written_with_frozen_base_key(self, tmp_path):
        name = "encoder.layer.0.attention.self.query"
        adapters = {name: init_adapter(8, 8, r=2, seed=1)}
        path = tmp_path / "ckpt.npz"
        save_adapter_set(path, adapters, {}, {})
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        assert "frozen_base" not in meta
        meta["frozen_base"] = True  # older checkpoints carry this key
        arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                           dtype=np.uint8)
        np.savez(path, **arrays)
        loaded, heads, extra = load_adapter_set(path)
        assert np.array_equal(loaded[name].A, adapters[name].A)
        assert (heads, extra) == ({}, {})

    @pytest.mark.parametrize("meta", [{"format": "something-else"}, None],
                             ids=["other-format", "no-meta"])
    def test_an_archive_that_is_not_a_checkpoint_is_refused(self, tmp_path, meta):
        path = tmp_path / "other.npz"
        arrays = {"w": np.zeros(3)}
        if meta is not None:
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="not an adapter checkpoint"):
            load_adapter_set(path)
