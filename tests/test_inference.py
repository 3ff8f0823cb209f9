"""Graph-free float32 inference: ``encode_windows`` encodes each batch of
windows once and sampling runs fusion+head per step on the embeddings
without a graph, in float32, with outputs within INFERENCE_TOLERANCE of the
float64 training forward pass."""
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmot import autodiff as ad
from ddmot.autodiff import NonFiniteError, Tensor
from ddmot.core import BoundingBox, InvalidInputError, stack_boxes
from ddmot.diffusion import (
    T_MIN,
    NoisyMotion,
    TrainConfig,
    TrainingSet,
    attenuation_constant,
    encode_windows,
    forward_diffuse,
    reverse_step,
    sample_k_steps,
    train,
    training_loss,
)
from ddmot.hminet import HMINet, ModelConfig, parameter_shapes
from ddmot.predictors import D2MPPredictor, PredictorConfig

from test_predictors import WindowRecorder

SMALL = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)
# largest |float32 inference - float64 graph| allowed, in normalized units
INFERENCE_TOLERANCE = 1e-6


def graph_sample(k, windows, net, rng):
    """The sampler as a loop over the training forward pass: encoder,
    fusion and head rebuilt as a graph at every step. ``rng`` is a
    Generator or a draw function, as for ``sample_k_steps``."""
    w = np.asarray(windows, dtype=np.float64)
    b = w.shape[0]
    draw = rng.standard_normal if isinstance(rng, np.random.Generator) else rng
    m = draw((b, 4))
    for i in range(k, 0, -1):
        t, dt = i / k, 1.0 / k
        c_hat, z_hat = net.predict_graph(m, np.full(b, max(t, T_MIN)), w)
        noise = draw((b, 4)) if dt * (t - dt) / t > 0.0 else None
        z = None if z_hat is None else z_hat.value
        m = reverse_step(NoisyMotion(m, np.full(b, t)), dt, c_hat.value, z=z, noise=noise).values
    return m


def window_sample(k, windows, net, rng):
    """The sampler on a batch of windows: one encode, then k steps."""
    return sample_k_steps(k, encode_windows(windows, net), net, rng)


def streams(b, seed=0):
    """One Generator per row, as a draw function: row i of a (b, 4) draw
    comes from stream i."""
    rngs = [np.random.default_rng((seed, i)) for i in range(b)]
    return lambda size: np.stack([r.standard_normal(size[1:]) for r in rngs])


class TestParity:
    @pytest.mark.parametrize("variant", ["OB", "TB"])
    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("b", [1, 7, 64])
    def test_sampler_equals_graph_loop(self, variant, k, b):
        net = HMINet.init(ModelConfig(variant=variant), 3)
        rng = np.random.default_rng(b)
        windows = rng.normal(size=(b, 5, 8)) * 0.3
        got = window_sample(k, windows, net, streams(b))
        want = graph_sample(k, windows, net, streams(b))
        assert np.abs(got - want).max() <= INFERENCE_TOLERANCE

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        b=st.integers(1, 6),
        t=st.floats(T_MIN, 1.0),
        variant=st.sampled_from(["OB", "TB"]),
    )
    def test_predict_values_equals_graph_values(self, seed, b, t, variant):
        net = HMINet.init(ModelConfig(**{**asdict(SMALL), "variant": variant}), seed % 100)
        rng = np.random.default_rng(seed)
        w, m = rng.normal(size=(b, 5, 8)), rng.normal(size=(b, 4))
        c_free, z_free = net.predict_values(m, t, net.embed_condition(w))
        c_graph, z_graph = net.predict_graph(m, t, w)
        assert c_free.dtype == np.float32
        assert np.abs(c_free - c_graph.value).max() <= INFERENCE_TOLERANCE
        assert (z_free is None) == (z_graph is None)
        if z_graph is not None:
            assert np.abs(z_free - z_graph.value).max() <= INFERENCE_TOLERANCE

    def test_embedding_shape_checked(self):
        net = HMINet.init(SMALL, 0)
        for emb in (np.zeros((5, 8)), np.zeros(16)):  # a lone (d,) embedding is not a batch of one
            with pytest.raises(InvalidInputError, match="embedding"):
                net.predict_values(np.zeros((1, 4)), 1.0, emb)


class CountingNet(HMINet):
    def __init__(self, config, params):
        super().__init__(config, params)
        self.encodes = 0
        self.steps = 0

    def embed_condition(self, windows):
        self.encodes += 1
        return super().embed_condition(windows)

    def predict_values(self, noisy_motion, t, emb):
        self.steps += 1
        return super().predict_values(noisy_motion, t, emb)


class TestEncodeOnce:
    def test_one_encode_per_sample_call(self):
        net = CountingNet.init(SMALL, 1)
        emb = encode_windows(np.random.default_rng(2).normal(size=(4, 5, 8)), net)
        assert (net.encodes, net.steps) == (1, 0)
        sample_k_steps(10, emb, net, streams(4))
        assert (net.encodes, net.steps) == (1, 10)

    def test_sampling_records_no_graph(self):
        net = HMINet.init(SMALL, 1)
        sampled = []
        fusion_head = net._fusion_head

        def spy(noisy_motion, t, cond, group):
            out = fusion_head(noisy_motion, t, cond, group)
            sampled.append((cond, out[0]))
            return out

        net._fusion_head = spy
        window_sample(3, np.zeros((2, 5, 8)), net, streams(2))
        assert len(sampled) == 3
        for emb, c_hat in sampled:
            assert emb._parents == () and c_hat._parents == () and not c_hat.requires_grad

    def test_recorder_sees_one_window_batch_per_frame(self):
        model = WindowRecorder(history_length=3)
        p = D2MPPredictor(model, PredictorConfig(kind="d2mp"))
        p.start([1, 2], stack_boxes([BoundingBox(0.2 * tid, 0.5, 0.1, 0.1, "norm") for tid in (1, 2)]))
        for frame in range(4):
            p.predict_all()
            p.observe([0, 1], stack_boxes([BoundingBox(0.2 * tid + 0.01 * frame, 0.5, 0.1, 0.1, "norm")
                                           for tid in (1, 2)]))
        assert len(model.windows) == 4
        assert all(w.shape == (2, 3, 8) for w in model.windows)


TINY = ModelConfig(token_dim=4, n_heads=1, n_condition_layers=1, n_fusion_blocks=1, history_length=2)


class TestModeHygiene:
    def test_training_after_sampling_passes_gradient_audit(self):
        """Sampling leaves the graph mode on: the training forward run next
        records a graph whose gradients pass the finite-difference audit of
        acceptance criterion 4 (same h and tolerance, smaller network)."""
        rng = np.random.default_rng(5)
        net = HMINet.init(TINY, 11)
        windows = rng.normal(size=(3, 2, 8)) * 0.3
        window_sample(10, windows, net, rng)
        m0 = rng.normal(size=(3, 4)) * 0.5
        t = rng.uniform(0.2, 1.0, 3)
        noisy, _ = forward_diffuse(m0, t, rng.normal(size=(3, 4)))

        def f():
            c_hat, _ = net.predict_graph(noisy.values, t, windows)
            return training_loss(c_hat, attenuation_constant(m0))

        audit = ad.finite_difference_check(f, net.params, h=1e-5, tolerance=1e-4)
        assert audit.ok, audit.flagged[:3]

    def test_train_step_after_sampling_updates_encoder_and_head(self):
        rng = np.random.default_rng(6)
        net = HMINet.init(TINY, 2)
        ds = TrainingSet(rng.normal(size=(16, 2, 8)) * 0.3, rng.normal(size=(16, 4)) * 0.1)
        window_sample(10, ds.conditions, net, rng)
        before = {k: p.value.copy() for k, p in net.params.items()}
        train(ds, net, TrainConfig(steps=1, batch_size=8, learning_rate=1e-3))
        for name in ("cond.embed.w", "cond.l0.attn.wq", "mfl0.scale.w2", "fuse.l0.attn.wv", "head.w2"):
            assert not np.array_equal(before[name], net.params[name].value), name


class TestFiniteCheckKept:
    """No-grad ops skip the per-op finite check. The check stays where an
    inf can vanish: the input of a sigmoid (``sigmoid`` and the gate of
    ``mfl`` and ``mfl_condition``), the attention scores, and the values
    leaving ``embed_condition`` and ``predict_values``."""

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_gate_overflow_raises(self):
        """Scale one unit of the first gate's output layer so that its
        pre-activation overflows to +inf. The sigmoid turns that into a
        finite 1.0 and the sample would come out finite, so only the
        gate's input check in ``mfl_condition`` stops it."""
        net = HMINet.init(SMALL, 4)
        window = np.random.default_rng(7).normal(size=(1, 5, 8)) * 0.3
        e = net.embed_condition(window).value[0, 0]
        h = e @ net.params["mfl0.scale.w1"].value + net.params["mfl0.scale.b1"].value
        h = h / (1.0 + np.exp(-h))  # SiLU
        w2 = net.params["mfl0.scale.w2"]
        w2.value[:, 0] = np.where(h >= 0, 1.0, -1.0) * np.finfo(np.float64).max
        with np.errstate(over="ignore"):
            assert np.isposinf(h @ w2.value[:, 0])  # the overflow this test is about
        with pytest.raises(NonFiniteError, match="node"):
            window_sample(1, window, net, np.random.default_rng(8))
        # the graph mode came back when the error left the sampler
        assert ad.mul(net.params["head.b2"], net.params["head.b2"]).requires_grad

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_float32_gate_overflow_raises(self):
        """The same overflow with weights that float32 holds: the gate's
        pre-activation overflows float32 only inside the no-grad encoder,
        and the gate's input check in ``mfl_condition`` stops it there."""
        net = HMINet.init(SMALL, 4)
        window = np.random.default_rng(7).normal(size=(1, 5, 8)) * 0.3
        with ad.no_grad():
            e = net.embed_condition(window).value[0, 0]
            a = ad.linear(Tensor(e), net._p("mfl0.scale.w1"), net._p("mfl0.scale.b1"))
            h = ad.mul(a, ad.sigmoid(a)).value  # SiLU
        w2 = net.params["mfl0.scale.w2"]
        w2.value = w2.value.copy()  # the array inference copied is read-only
        w2.value[:, 0] = np.where(h >= 0, 1.0, -1.0) * 3e38
        assert np.isposinf(h @ w2.value[:, 0].astype(np.float32))
        assert np.isfinite(h.astype(np.float64) @ w2.value[:, 0])
        with pytest.raises(NonFiniteError, match="node 'mfl_condition'"):
            window_sample(1, window, net, np.random.default_rng(8))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_head_overflow_names_op(self):
        """A head output past float32 range is refused by the sampler as a
        NonFiniteError naming the head's op, before the reverse step reads
        it."""
        net = HMINet.init(SMALL, 4)
        net.params["head.w2"].value = np.full((16, 4), 3e38)
        net.params["head.b2"].value = np.full(4, 3e38)
        window = np.random.default_rng(7).normal(size=(1, 5, 8)) * 0.3
        with pytest.raises(NonFiniteError, match="node 'mlp2'"):
            window_sample(1, window, net, np.random.default_rng(8))

    @settings(max_examples=40, deadline=None)
    @example(name="fuse.l0.mfl.scale.w1", index=144, exponent=38.5, sign=1.0)  # only the sigmoid check sees it
    @given(
        name=st.sampled_from(sorted(parameter_shapes(SMALL))),
        index=st.integers(0, 2**16),
        exponent=st.floats(30.0, 39.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_sampler_raises_exactly_when_graph_forward_does(self, name, index, exponent, sign):
        """One parameter entry pushed towards and past float32 range: the
        no-grad sampler raises exactly when the float32 graph forward, which
        checks every op, does."""
        net = HMINet.init(SMALL, 6)
        p = net.params[name]
        p.value.flat[index % p.value.size] = sign * 10.0**exponent
        windows = np.random.default_rng(9).normal(size=(2, 5, 8)) * 0.3
        m = np.random.default_rng(10).standard_normal((2, 4))  # the sampler's first draw

        def raises(run) -> bool:
            try:
                run()
            except NonFiniteError:
                return True
            return False

        with np.errstate(all="ignore"):
            with ad.precision(np.float32):
                graph = raises(lambda: net.predict_graph(m, np.ones(2), windows))
            free = raises(lambda: window_sample(1, windows, net, np.random.default_rng(10)))
        assert free == graph


def test_one_step_call_runs_at_most_60_nodes(monkeypatch):
    """The per-op cost of sampling is per node: a desk-scale K=1 call (the
    encoder and one fusion+head pass) stays within 60 autodiff nodes."""
    net = HMINet.init(ModelConfig(), 0)
    windows = np.random.default_rng(11).normal(size=(8, 5, 8)) * 0.3
    ops = []
    real_make = ad._make

    def make(value, op, parents, vjp):
        ops.append(op)
        return real_make(value, op, parents, vjp)

    monkeypatch.setattr(ad, "_make", make)
    window_sample(1, windows, net, np.random.default_rng(12))
    assert 0 < len(ops) <= 60, sorted(ops)


def test_mfl0_runs_once_per_encode_and_a_k10_step_in_25_nodes(monkeypatch):
    """mfl0's gate and shift read only the embedding, so each encode runs
    mfl0's two perceptrons once and no sampling step runs them. A
    desk-scale K=10 step runs 25 autodiff nodes (28 while each step ran
    mfl0), plus 2 for the time MLP the first time the network meets the
    step's time."""
    net = HMINet.init(ModelConfig(), 0)
    windows = np.random.default_rng(11).normal(size=(8, 5, 8)) * 0.3
    ops, perceptron_weights, steps = [], [], []
    real_make, real_perceptron, predict = ad._make, ad._perceptron, net.predict_values

    def make(value, op, parents, vjp):
        ops.append(op)
        return real_make(value, op, parents, vjp)

    def perceptron(x2, w1, *rest):
        perceptron_weights.append(w1)
        return real_perceptron(x2, w1, *rest)

    def step(*args):
        before = len(ops), len(perceptron_weights)
        out = predict(*args)
        steps.append((ops[before[0]:], perceptron_weights[before[1]:]))
        return out

    monkeypatch.setattr(ad, "_make", make)
    monkeypatch.setattr(ad, "_perceptron", perceptron)
    monkeypatch.setattr(net, "predict_values", step)
    with ad.no_grad():
        mfl0 = {id(net._p(f"mfl0.{part}.w1").value) for part in ("scale", "shift")}
    emb = encode_windows(windows, net)
    assert ops.count("mfl_condition") == 1
    assert sum(id(w) in mfl0 for w in perceptron_weights) == 2
    for call, nodes in enumerate([27, 25]):
        steps.clear()
        sample_k_steps(10, emb, net, np.random.default_rng(12))
        assert [len(step_ops) for step_ops, _ in steps] == [nodes] * 10, call
        for step_ops, weights in steps:
            assert "mfl_condition" not in step_ops and step_ops.count("mfl_tokens") == 1
            assert not any(id(w) in mfl0 for w in weights)
