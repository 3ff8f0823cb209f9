from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot import autodiff as ad
from ddmot.autodiff import Tensor
from ddmot.core import InvalidInputError
from ddmot.diffusion import TrainConfig, TrainingSet, attenuation_constant, forward_diffuse, train, training_loss
from ddmot.hminet import (
    HMINet,
    ModelConfig,
    apply_condition_variant,
    init_params,
    parameter_shapes,
    sinusoidal_features,
)

from test_data_io import small_models

SMALL = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)


def window(rng, b=1, n=5):
    return rng.normal(size=(b, n, 8)) * 0.3


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(token_dim=65, n_heads=8)

    def test_bad_variant(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(variant="XX")
        with pytest.raises(InvalidInputError):
            ModelConfig(condition_variant="Z")

    def test_dict_round_trip(self):
        cfg = ModelConfig(token_dim=32, n_heads=4, history_length=3, variant="TB")
        assert ModelConfig(**asdict(cfg)) == cfg


class TestInit:
    def test_deterministic(self):
        a, b = init_params(SMALL, 42), init_params(SMALL, 42)
        assert all(np.array_equal(a[k].value, b[k].value) for k in a)

    def test_seed_changes_weights(self):
        a, b = init_params(SMALL, 1), init_params(SMALL, 2)
        assert not np.array_equal(a["cond.embed.w"].value, b["cond.embed.w"].value)

    def test_attention_projection_shapes(self):
        shapes = parameter_shapes(ModelConfig(token_dim=64, n_heads=8))
        for layer in ("cond.l0", "cond.l1", "fuse.l0", "fuse.l1"):
            for w in ("wq", "wk", "wv", "wo"):
                assert shapes[f"{layer}.attn.{w}"] == (64, 64)

    def test_class_token_shape(self):
        assert parameter_shapes(SMALL)["cond.cls"] == (1, 16)

    def test_tb_head_is_eight_wide(self):
        shapes = parameter_shapes(ModelConfig(token_dim=16, n_heads=2, variant="TB"))
        assert shapes["head.w2"] == (16, 8)


class TestEmbedCondition:
    def test_output_shape(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(0)
        assert net.embed_condition(window(rng)).shape == (1, 16)
        assert net.embed_condition(window(rng, b=7)).shape == (7, 16)

    def test_wrong_window_length(self):
        net = HMINet.init(SMALL, 0)
        with pytest.raises(InvalidInputError):
            net.embed_condition(np.zeros((1, 4, 8)))
        with pytest.raises(InvalidInputError):
            net.embed_condition(np.zeros((5, 8)))  # a lone window is not a batch of one

    def test_zero_window_is_finite(self):
        net = HMINet.init(SMALL, 0)
        out = net.embed_condition(np.zeros((1, 5, 8)))
        assert np.all(np.isfinite(out.value))

    def test_permutation_sensitivity(self):
        # the positional encodings let the encoder tell the order of its window
        rng = np.random.default_rng(3)
        w = window(rng)
        perm = w[:, ::-1].copy()
        net = HMINet.init(SMALL, 5)
        e1, e2 = net.embed_condition(w).value, net.embed_condition(perm).value
        assert np.abs(e1 - e2).max() > 1e-8


DESK = HMINet.init(ModelConfig(), 0)


class TestBatchInvariance:
    """What the d2mp session's embedding cache relies on: a window's
    float32 embedding does not depend on the batch it is encoded in, once
    that batch has two or more rows."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), b=st.integers(2, 96), data=st.data())
    def test_sub_batch_bits_equal_full_batch(self, seed, b, data):
        rows = data.draw(st.lists(st.integers(0, b - 1), min_size=2, max_size=b))  # any order, repeats too
        w = window(np.random.default_rng(seed), b=b)
        with ad.no_grad():
            full = DESK.embed_condition(w).value
            sub = DESK.embed_condition(w[rows]).value
        assert sub.dtype == np.float32
        assert np.array_equal(sub, full[rows])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), b=st.integers(1, 96), t=st.floats(0.001, 1.0))
    def test_scalar_time_bits_equal_per_row_time(self, seed, b, t):
        """A sampling step's scalar time, whose features are computed once
        and shared, gives the bits of the same time given per row."""
        rng = np.random.default_rng(seed)
        emb = DESK.embed_condition(window(rng, b=b))
        m = rng.normal(size=(b, 4))
        shared, _ = DESK.predict_values(m, t, emb)
        per_row, _ = DESK.predict_values(m, np.full(b, t), emb)
        assert np.array_equal(shared, per_row)


def all_token_embedding(net, windows):
    """The encoder with every block updating every token; the class token
    (row 0) of the last block is the embedding."""
    w = apply_condition_variant(windows, net.config.condition_variant)
    b, d = w.shape[0], net.config.token_dim
    x = ad.linear(Tensor(w), net.params["cond.embed.w"], net.params["cond.embed.b"]) + net.params["cond.pos"]
    cls = ad.broadcast_to(ad.reshape(net.params["cond.cls"], (1, 1, d)), (b, 1, d))
    x = ad.concat([cls, x], axis=1)
    for i in range(net.config.n_condition_layers):
        x = net._block(x, f"cond.l{i}")
    return ad.slice_(x, (slice(None), 0))


class TestClassTokenLastBlock:
    """The last encoder block updates only the class token; the embedding
    and its gradients are those of a block that updates every token."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_embedding_equals_all_token_reference(self, layers):
        net = HMINet.init(ModelConfig(token_dim=32, n_heads=4, n_condition_layers=layers), layers)
        w = window(np.random.default_rng(layers), b=9)
        np.testing.assert_allclose(
            net.embed_condition(w).value, all_token_embedding(net, w).value, rtol=1e-12, atol=1e-14
        )

    def test_gradients_equal_all_token_reference(self):
        net = HMINet.init(ModelConfig(token_dim=16, n_heads=2), 8)
        rng = np.random.default_rng(8)
        w, probe = window(rng, b=4), Tensor(rng.normal(size=(4, 16)))
        params = list(net.params.values())
        got = ad.backward(ad.mean(ad.mul(net.embed_condition(w), probe)), params)
        want = ad.backward(ad.mean(ad.mul(all_token_embedding(net, w), probe)), params)
        for name, g, r in zip(net.params, got, want):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-15, err_msg=name)


class TestConditionVariants:
    def test_masks(self):
        rng = np.random.default_rng(1)
        w = window(rng)
        b = apply_condition_variant(w, "B")
        m = apply_condition_variant(w, "M")
        i = apply_condition_variant(w, "I")
        assert np.array_equal(b[..., 4:], np.zeros((1, 5, 4))) and np.array_equal(b[..., :4], w[..., :4])
        assert np.array_equal(m[..., :4], np.zeros((1, 5, 4))) and np.array_equal(m[..., 4:], w[..., 4:])
        assert np.array_equal(i, w)

    def test_embedding_ignores_masked_columns(self):
        cfg = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1, condition_variant="B")
        net = HMINet.init(cfg, 0)
        rng = np.random.default_rng(2)
        w1 = window(rng)
        w2 = w1.copy()
        w2[..., 4:] = rng.normal(size=(1, 5, 4))  # motion half differs
        assert np.array_equal(net.embed_condition(w1).value, net.embed_condition(w2).value)


class TestFuseMotion:
    """The motion fusion layer ``_mfl`` that the forward pass runs."""

    def test_shape_and_finiteness(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(4)
        feat = net._mlp2(Tensor(rng.normal(size=(1, 4))), "motion")
        out = net._mfl(net.embed_condition(window(rng, b=1)), feat, "mfl0")
        assert out.shape == (1, 16) and np.all(np.isfinite(out.value))

    def test_saturated_gate_leaves_shift_branch(self):
        net = HMINet.init(SMALL, 0)
        # force the scale branch to strong negatives: sigmoid -> ~0
        net.params["mfl0.scale.w2"].value[:] = 0.0
        net.params["mfl0.scale.b2"].value[:] = -60.0
        rng = np.random.default_rng(5)
        e = Tensor(rng.normal(size=(1, 16)))
        feat = net._mlp2(Tensor(rng.normal(size=(1, 4))), "motion")
        fused = net._mfl(e, feat, "mfl0").value[0]
        shift = net._mlp2(e, "mfl0.shift").value[0]
        assert np.abs(fused - shift).max() < 1e-12

    def test_zero_embedding_keeps_product_term_only(self):
        # fresh init has zero MLP biases, so MLP(0) = 0 and the shift
        # branch vanishes: output = sigmoid(0) * MLP(m) = 0.5 * MLP(m)
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(6)
        feat = net._mlp2(Tensor(rng.normal(size=(1, 4))), "motion")
        fused = net._mfl(Tensor(np.zeros((1, 16))), feat, "mfl0").value[0]
        assert np.abs(fused - 0.5 * feat.value[0]).max() < 1e-12


class TestPredictTarget:
    """The network's target prediction, ``predict_values``."""

    def test_shape_contract(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(7)
        c_hat, z_hat = net.predict_values(rng.normal(size=(1, 4)), 0.5, net.embed_condition(window(rng)))
        assert c_hat.shape == (1, 4) and z_hat is None

    def test_tb_variant_returns_noise_head(self):
        cfg = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1, variant="TB")
        net = HMINet.init(cfg, 0)
        rng = np.random.default_rng(8)
        _, z_hat = net.predict_values(rng.normal(size=(1, 4)), 0.5, net.embed_condition(window(rng)))
        assert z_hat is not None and z_hat.shape == (1, 4)

    def test_bit_determinism(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(9)
        m, w = rng.normal(size=(1, 4)), window(rng)
        a, _ = net.predict_values(m, 0.7, net.embed_condition(w))
        b, _ = net.predict_values(m, 0.7, net.embed_condition(w))
        assert np.array_equal(a, b)

    def test_time_parameter_matters(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(10)
        m, w = rng.normal(size=(1, 4)), window(rng)
        a, _ = net.predict_values(m, 0.1, net.embed_condition(w))
        b, _ = net.predict_values(m, 0.9, net.embed_condition(w))
        assert np.abs(a - b).max() > 1e-10

    def test_time_range_validated(self):
        net = HMINet.init(SMALL, 0)
        rng = np.random.default_rng(11)
        # reaching the network with t outside [T_MIN, 1] is a caller bug
        # guarded at the diffusion layer; the network itself only needs t
        # to be finite, so just confirm a legal boundary value works
        c_hat, _ = net.predict_values(rng.normal(size=(1, 4)), 1.0, net.embed_condition(window(rng)))
        assert np.all(np.isfinite(c_hat))

    @pytest.mark.parametrize("shape", [(8,), (4, 2)])
    def test_noisy_motion_must_be_one_row_per_embedding(self, shape):
        """A batch of 2 takes only a (2, 4) motion array: an (8,) or
        (4, 2) array of the same size is not two rows."""
        net = HMINet.init(SMALL, 0)
        w = window(np.random.default_rng(12), b=2)
        with pytest.raises(InvalidInputError, match="noisy motion"):
            net.predict_values(np.zeros(shape), 1.0, net.embed_condition(w))
        with pytest.raises(InvalidInputError, match="noisy motion"):
            net.predict_graph(np.zeros(shape), 1.0, w)


def fresh_copy(net: HMINet) -> HMINet:
    return HMINet(net.config, {k: ad.parameter(p.value.copy(), k) for k, p in net.params.items()})


def predictions(net: HMINet, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w, m = window(rng, b=3), rng.normal(size=(3, 4))
    return net.predict_values(m, 0.6, net.embed_condition(w))[0]


class TestFloat32Inference:
    """Inference reads float32 copies of the parameters, made once per
    parameter array and never stale."""

    def test_runs_in_float32_and_trains_in_float64(self):
        net = HMINet.init(SMALL, 0)
        assert predictions(net).dtype == np.float32
        with ad.no_grad():
            assert net._p("head.w2").value.dtype == np.float32
        assert net._p("head.w2") is net.params["head.w2"]
        assert net.params["head.w2"].value.dtype == np.float64

    def test_one_copy_per_parameter_array(self):
        net = HMINet.init(SMALL, 0)
        with ad.no_grad():
            first = net._p("cond.embed.w")
            predictions(net)
            assert net._p("cond.embed.w") is first

    def test_copies_follow_training(self):
        rng = np.random.default_rng(1)
        net = HMINet.init(SMALL, 2)
        predictions(net)
        ds = TrainingSet(window(rng, b=16), rng.normal(size=(16, 4)) * 0.1)
        train(ds, net, TrainConfig(steps=2, batch_size=8, learning_rate=1e-2))
        assert np.array_equal(predictions(net), predictions(fresh_copy(net)))

    def test_copies_follow_finite_difference_edits(self):
        """The audit perturbs one component at a time; a no-grad forward
        inside it sees each perturbation, and the parameter comes back."""
        net = HMINet.init(SMALL, 3)
        predictions(net)
        p = net.params["head.b2"]
        before = p.value
        seen = []

        def f():
            seen.append(np.array_equal(predictions(net), predictions(fresh_copy(net))))
            return ad.mean(ad.mul(p, p))

        assert ad.finite_difference_check(f, {"head.b2": p}).ok
        assert all(seen) and len(seen) == 1 + 2 * p.value.size
        assert p.value is before

    def test_in_place_edit_before_inference_is_seen(self):
        net = HMINet.init(SMALL, 4)
        net.params["head.b2"].value[:] = 0.25
        assert np.array_equal(predictions(net), predictions(fresh_copy(net)))

    def test_in_place_edit_after_inference_is_refused(self):
        """The array a copy was made from is read-only: an edit must rebind
        the value, which makes a new copy."""
        net = HMINet.init(SMALL, 4)
        predictions(net)
        p = net.params["head.b2"]
        with pytest.raises(ValueError, match="read-only"):
            p.value[:] = 0.25
        p.value = np.full_like(p.value, 0.25)
        assert np.array_equal(predictions(net), predictions(fresh_copy(net)))

    def test_kept_step_time_follows_the_time_mlp(self):
        """Inference keeps the time MLP's output per sampling time; a
        rebound time parameter makes it anew."""
        net = HMINet.init(SMALL, 6)
        before = predictions(net)
        assert np.array_equal(predictions(net), before)
        p = net.params["time.b2"]
        p.value = np.full_like(p.value, 0.5)
        after = predictions(net)
        assert np.array_equal(after, predictions(fresh_copy(net))) and not np.array_equal(after, before)

    def test_replaced_parameter_is_seen(self):
        """A parameter tensor replaced in ``params`` after inference is read
        by the next inference, though inference had made a float32 copy of
        the tensor it replaced."""
        net = HMINet.init(SMALL, 7)
        before = predictions(net)
        net.params["mfl0.shift.w1"] = ad.parameter(np.full((16, 16), 0.1), "mfl0.shift.w1")
        after = predictions(net)
        assert np.array_equal(after, predictions(fresh_copy(net))) and not np.array_equal(after, before)

    def test_parameter_beyond_float32_range_raises(self):
        net = HMINet.init(SMALL, 5)
        net.params["time.w1"].value[0, 0] = 1e39  # finite in float64 only
        net.predict_graph(np.zeros((1, 4)), 0.5, window(np.random.default_rng(2)))
        with pytest.raises(ad.NonFiniteError, match="time.w1"):
            predictions(net)


class TestGradients:
    def test_full_network_spot_check(self):
        """FD audit of a random parameter subset through the whole forward
        pass (the full audit is an acceptance criterion)."""
        rng = np.random.default_rng(12)
        net = HMINet.init(SMALL, 3)
        w = window(rng, b=2)
        m0 = rng.normal(size=(2, 4)) * 0.5
        tt = rng.uniform(0.2, 1.0, 2)
        z = rng.normal(size=(2, 4))
        noisy, _ = forward_diffuse(m0, tt, z)

        def f():
            c_hat, _ = net.predict_graph(noisy.values, tt, w)
            return training_loss(c_hat, attenuation_constant(m0))

        names = ["cond.pos", "cond.l0.attn.wv", "fuse.l0.mfl.scale.w1", "head.b2", "time.w2", "cond.l0.ln2.b"]
        report = ad.finite_difference_check(f, {n: net.params[n] for n in names}, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]

    def test_fused_layers_spot_check(self):
        """FD audit of parameters that reach the loss through the fused
        ops: both first and both second layers of an ``mfl``, an ``mlp2``'s
        first layer, and an attention's key projection."""
        rng = np.random.default_rng(13)
        net = HMINet.init(SMALL, 4)
        w = window(rng, b=3)
        m0 = rng.normal(size=(3, 4)) * 0.5
        noisy, _ = forward_diffuse(m0, rng.uniform(0.2, 1.0, 3), rng.normal(size=(3, 4)))

        def f():
            c_hat, _ = net.predict_graph(noisy.values, noisy.t, w)
            return training_loss(c_hat, attenuation_constant(m0))

        names = ["mfl0.scale.b1", "mfl0.shift.b1", "mfl0.scale.b2", "fuse.l0.mfl.shift.w2", "motion.w1", "fuse.l0.attn.wk"]
        report = ad.finite_difference_check(f, {n: net.params[n] for n in names}, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]


    @settings(max_examples=25, deadline=None)
    @given(small_models())
    def test_every_declared_parameter_is_trained(self, model):
        """One training-loss backward pass reaches every tensor that
        ``parameter_shapes`` declares with a nonzero gradient."""
        config, seed = model
        rng = np.random.default_rng(seed)
        net = HMINet.init(config, seed)
        m0 = rng.normal(size=(3, 4)) * 0.5
        t = rng.uniform(0.2, 1.0, 3)
        z = rng.normal(size=(3, 4))
        noisy, _ = forward_diffuse(m0, t, z)
        c_hat, z_hat = net.predict_graph(noisy.values, t, window(rng, b=3, n=config.history_length))
        loss = training_loss(c_hat, attenuation_constant(m0), z_hat, None if z_hat is None else z)
        names = list(parameter_shapes(config))
        grads = dict(zip(names, ad.backward(loss, [net.params[n] for n in names])))
        assert [n for n in names if not np.any(grads[n])] == []


class TestSinusoidalFeatures:
    def test_shape_and_range(self):
        emb = sinusoidal_features(np.array([0.001, 0.5, 1.0]), 16)
        assert emb.shape == (3, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_times_distinct_embeddings(self):
        emb = sinusoidal_features(np.array([0.3, 0.31]), 16)
        assert np.abs(emb[0] - emb[1]).max() > 1e-6
