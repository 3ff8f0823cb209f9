from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddmot import autodiff as ad
from ddmot import diffusion
from ddmot.autodiff import Tensor
from ddmot.core import InvalidInputError, NumericError
from ddmot.diffusion import (
    T_MIN,
    NoisyMotion,
    TrainConfig,
    TrainingSet,
    attenuation_constant,
    derive_noise,
    encode_windows,
    forward_diffuse,
    reverse_step,
    sample_k_steps,
    sample_one_step,
    train,
    training_loss,
)
from ddmot.hminet import HMINet, ModelConfig

SMALL = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)


class OracleModel:
    """Stands in for a perfectly trained network: always returns the true
    attenuation constant (and, optionally, a noise head)."""

    def __init__(self, target_motion, history_length=5, with_z=False):
        self.target = np.asarray(target_motion, dtype=np.float64)
        self.history_length = history_length
        self.with_z = with_z

    def embed_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        c = np.broadcast_to(-self.target, noisy.shape).copy()
        if not self.with_z:
            return c, None
        return c, derive_noise(NoisyMotion(noisy, t), c)


class TestAttenuation:
    def test_negation(self):
        assert np.array_equal(attenuation_constant(np.array([2.0, 1, 0, 0])), [-2, -1, 0, 0])

    def test_zero(self):
        assert np.array_equal(attenuation_constant(np.zeros(4)), np.zeros(4))

    def test_defining_integral(self):
        # M_0 + int_0^1 c dt = M_0 + c = 0 for the constant attenuation
        rng = np.random.default_rng(0)
        for _ in range(50):
            m0 = rng.normal(size=4)
            assert np.abs(m0 + attenuation_constant(m0)).max() == 0.0


class TestForwardDiffuse:
    def test_full_attenuation_at_t1(self):
        rng = np.random.default_rng(1)
        m0, z = rng.normal(size=4), rng.normal(size=4)
        noisy, dec = forward_diffuse(m0, 1.0, z)
        assert np.allclose(noisy.values, z, atol=1e-15)
        assert np.array_equal(dec.data_term, np.zeros(4))  # D_1 = 0 exactly

    def test_small_t_zero_noise_approaches_data(self):
        m0 = np.array([1.0, -2.0, 0.5, 0.25])
        noisy, _ = forward_diffuse(m0, T_MIN, np.zeros(4))
        assert np.allclose(noisy.values, (1 - T_MIN) * m0, atol=1e-15)

    def test_point_example(self):
        noisy, _ = forward_diffuse(np.array([1.0, 0, 0, 0]), 0.25, np.zeros(4))
        assert np.allclose(noisy.values, [0.75, 0, 0, 0], atol=1e-15)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m0, z, t = rng.normal(size=4), rng.normal(size=4), rng.uniform(T_MIN, 1)
            noisy, dec = forward_diffuse(m0, t, z)
            assert np.array_equal(dec.data_term + dec.noise_term, noisy.values)

    def test_zero_noise_term(self):
        _, dec = forward_diffuse(np.ones(4), 0.5, np.zeros(4))
        assert np.array_equal(dec.noise_term, np.zeros(4))

    def test_time_out_of_range(self):
        with pytest.raises(InvalidInputError):
            forward_diffuse(np.ones(4), 0.0, np.zeros(4))
        with pytest.raises(InvalidInputError):
            forward_diffuse(np.ones(4), 1.1, np.zeros(4))


class TestDeriveNoise:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m0, z, t = rng.normal(size=4), rng.normal(size=4), rng.uniform(T_MIN, 1)
            noisy, _ = forward_diffuse(m0, t, z)
            back = derive_noise(noisy, attenuation_constant(m0))
            assert np.abs(back - z).max() < 1e-12

    def test_t1_returns_sample(self):
        values = np.array([0.3, -0.7, 0.1, 0.9])
        z = derive_noise(NoisyMotion(values, 1.0), np.array([5.0, 5, 5, 5]))
        assert np.array_equal(z, values)

    def test_zero_noise_trajectory(self):
        c = np.array([1.0, -1.0, 2.0, 0.0])
        t = 0.4
        z = derive_noise(NoisyMotion((t - 1) * c, t), c)
        assert np.abs(z).max() < 1e-15


class TestReverseStep:
    def test_one_step_anchor(self):
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        out = reverse_step(NoisyMotion(np.array([9.0, -3.0, 4.0, 7.0]), 1.0), 1.0, c)
        assert np.array_equal(out.values, [1.0, 2.0, 0.0, 0.0])
        assert out.t == 0.0

    def test_ob_tb_equivalence(self):
        """Eq-10-style reduced mean equals the two-branch mean under the
        algebraic noise substitution, for arbitrary c."""
        rng = np.random.default_rng(4)
        for _ in range(300):
            t = rng.uniform(T_MIN, 1)
            dt = rng.uniform(0, t)
            if dt <= 0:
                continue
            m = NoisyMotion(rng.normal(size=4), t)
            c = rng.normal(size=4)
            ob = reverse_step(m, dt, c).values
            tb = reverse_step(m, dt, c, z=derive_noise(m, c)).values
            assert np.abs(ob - tb).max() < 1e-12

    def test_ground_truth_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m0, z, t = rng.normal(size=4), rng.normal(size=4), rng.uniform(T_MIN, 1)
            noisy, _ = forward_diffuse(m0, t, z)
            out = reverse_step(noisy, t, attenuation_constant(m0), z=z, noise=rng.normal(size=4) * 100)
            assert np.abs(out.values - m0).max() < 1e-9  # variance coefficient is exactly 0

    def test_variance_exactly_zero_at_full_step(self):
        m = NoisyMotion(np.ones(4), 0.5)
        a = reverse_step(m, 0.5, np.zeros(4), noise=np.full(4, 1e12)).values
        b = reverse_step(m, 0.5, np.zeros(4), noise=None).values
        assert np.array_equal(a, b)

    def test_dt_larger_than_t_rejected(self):
        with pytest.raises(InvalidInputError):
            reverse_step(NoisyMotion(np.ones(4), 0.3), 0.4, np.zeros(4))


@st.composite
def diffusion_draws(draw):
    """A batch of clean motions m0, unit-scale noises z and times t in
    [T_MIN, 1], one time per row."""
    n = draw(st.integers(1, 6))
    m0 = draw(arrays(np.float64, (n, 4), elements=st.floats(-10.0, 10.0)))
    z = draw(arrays(np.float64, (n, 4), elements=st.floats(-6.0, 6.0)))
    t = draw(arrays(np.float64, (n,), elements=st.floats(T_MIN, 1.0)))
    return m0, z, t


class TestForwardReverseIdentity:
    """Properties of the decoupled process at random times: the forward
    sample inverts for its noise given c = -m0, and one reverse step of
    the full remaining time returns the clean motion."""

    @settings(max_examples=200, deadline=None)
    @given(diffusion_draws())
    def test_derive_noise_inverts_forward_diffuse(self, draw):
        m0, z, t = draw
        noisy, _ = forward_diffuse(m0, t, z)
        # a few ulps of the summed terms, magnified by the 1/sqrt(t) division;
        # below the smallest normal float the spacing is absolute
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
        bound = 4 * eps * (np.abs(m0) + np.abs(z)) / np.sqrt(t)[:, None] + tiny
        assert np.all(np.abs(derive_noise(noisy, -m0) - z) <= bound)

    @settings(max_examples=200, deadline=None)
    @given(diffusion_draws(), st.floats(-1e6, 1e6))
    def test_full_reverse_step_returns_m0(self, draw, noise_scale):
        """With dt = t the reduced mean is 0*M_t + m0 and the variance
        coefficient is 0, so the step is exact whatever the noise."""
        m0, z, t = draw
        noisy, _ = forward_diffuse(m0, t, z)
        out = reverse_step(noisy, t, -m0, noise=np.full_like(m0, noise_scale))
        assert np.array_equal(out.values, m0)
        assert np.all(out.t == 0.0)


class TestSampling:
    def test_oracle_one_step_returns_target_exactly(self):
        target = np.array([0.02, -0.01, 0.0, 0.005])
        model = OracleModel(target)
        rng = np.random.default_rng(6)
        out = sample_one_step(encode_windows(np.zeros((1, 5, 8)), model), model, rng)
        assert np.array_equal(out, target[None])

    def test_seeded_determinism(self):
        model = OracleModel(np.zeros(4))
        emb = encode_windows(np.zeros((1, 5, 8)), model)
        a = sample_one_step(emb, model, np.random.default_rng(11))
        b = sample_one_step(emb, model, np.random.default_rng(11))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_oracle_k_step_deterministic_telescopes(self, k):
        target = np.array([0.5, -0.25, 0.1, 0.0])
        model = OracleModel(target)
        emb = encode_windows(np.zeros((1, 5, 8)), model)
        out = sample_k_steps(k, emb, model, np.random.default_rng(7), deterministic=True)
        assert out.shape == (1, 4) and np.abs(out - target).max() < 1e-9

    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_k_step_loop_contract(self, k):
        model = OracleModel(np.ones(4), with_z=True)
        out = sample_k_steps(k, encode_windows(np.zeros((3, 5, 8)), model), model, np.random.default_rng(8))
        assert out.shape == (3, 4) and np.all(np.isfinite(out))

    def test_k1_equals_one_step(self):
        model = OracleModel(np.array([1.0, 2.0, 3.0, 4.0]))
        emb = encode_windows(np.zeros((1, 5, 8)), model)
        a = sample_one_step(emb, model, np.random.default_rng(9))
        b = sample_k_steps(1, emb, model, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(InvalidInputError):
            sample_k_steps(0, np.zeros((1, 5, 8)), OracleModel(np.zeros(4)), np.random.default_rng(0))

    def test_single_window_rejected(self):
        # a lone (n, 8) window is not a batch of one
        with pytest.raises(InvalidInputError, match="batch"):
            encode_windows(np.zeros((5, 8)), OracleModel(np.zeros(4)))


class TestTrainingLoss:
    def test_anchor_values(self):
        assert training_loss(np.zeros(4), np.zeros(4)) == 0.0
        assert training_loss(np.array([0.5]), np.array([0.0])) == pytest.approx(0.125, abs=1e-15)
        assert training_loss(np.array([2.0]), np.array([0.0])) == pytest.approx(1.5, abs=1e-15)
        assert training_loss(np.array([-2.0]), np.array([0.0])) == pytest.approx(1.5, abs=1e-15)

    def test_c1_continuity_at_one(self):
        below = training_loss(np.array([1.0 - 1e-9]), np.array([0.0]))
        above = training_loss(np.array([1.0 + 1e-9]), np.array([0.0]))
        assert below == pytest.approx(0.5, abs=1e-8)
        assert above == pytest.approx(0.5, abs=1e-8)

    def test_mean_reduction(self):
        v = training_loss(np.array([[0.5, 0, 0, 0], [2.0, 0, 0, 0]]), np.zeros((2, 4)))
        assert v == pytest.approx((0.125 + 1.5) / 8, abs=1e-15)

    def test_tb_adds_noise_head(self):
        c_term = training_loss(np.array([0.5]), np.array([0.0]))
        both = training_loss(np.array([0.5]), np.array([0.0]), z_hat=np.array([2.0]), z=np.array([0.0]))
        assert both == pytest.approx(c_term + 1.5, abs=1e-15)

    def test_graph_mode_returns_tensor(self):
        out = training_loss(Tensor(np.zeros(4)), np.zeros(4))
        assert isinstance(out, Tensor)


def constant_dataset(rng, n, target, cond_scale=0.2):
    conds = rng.normal(size=(n, 5, 8)) * cond_scale
    targets = np.broadcast_to(np.asarray(target, dtype=np.float64), (n, 4)).copy()
    return TrainingSet(conds, targets)


class TestTrain:
    def test_fixed_seed_bit_identical_history(self):
        rng = np.random.default_rng(10)
        ds = constant_dataset(rng, 64, [0.1, 0, 0, 0])
        cfg = TrainConfig(steps=12, batch_size=16, seed=3)
        l1 = train(constant_dataset(np.random.default_rng(10), 64, [0.1, 0, 0, 0]), HMINet.init(SMALL, 1), cfg)
        l2 = train(ds, HMINet.init(SMALL, 1), cfg)
        assert l1 == l2

    def test_single_sample_overfit(self):
        rng = np.random.default_rng(11)
        ds = TrainingSet(rng.normal(size=(1, 5, 8)) * 0.2, rng.normal(size=(1, 4)) * 0.3)
        net = HMINet.init(SMALL, 2)
        losses = train(ds, net, TrainConfig(steps=1500, batch_size=8, learning_rate=1e-3, seed=4, stop_below=1e-4))
        assert losses[-1] < 1e-3

    def test_constant_target_desk_config_loss_under_001(self):
        """Desk configuration, default learning rate: the constant-target
        loss must fall below 0.01 within 2000 steps."""
        rng = np.random.default_rng(20)
        ds = constant_dataset(rng, 2048, [1.0, 0, 0, 0])
        net = HMINet.init(ModelConfig(), 5)
        losses = train(ds, net, TrainConfig(steps=2000, batch_size=256, learning_rate=1e-4,
                                            seed=6, stop_below=0.01))
        assert losses[-1] < 0.01 and len(losses) <= 2000

    def test_constant_target_convergence_small_config(self):
        """The constant-target oracle at small scale: c = (-1, 0, 0, 0)
        everywhere, so the head must converge to it."""
        rng = np.random.default_rng(12)
        ds = constant_dataset(rng, 256, [1.0, 0, 0, 0])
        net = HMINet.init(SMALL, 5)
        train(ds, net, TrainConfig(steps=1500, batch_size=64, learning_rate=1e-3, seed=6, stop_below=5e-4))
        c_hat, _ = net.predict_values(rng.normal(size=(32, 4)), rng.uniform(T_MIN, 1, 32),
                                    net.embed_condition(ds.conditions[:32]))
        assert np.abs(c_hat - np.array([-1.0, 0, 0, 0])).mean() < 0.05

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train(TrainingSet(np.zeros((0, 5, 8)), np.zeros((0, 4))), HMINet.init(SMALL, 0), TrainConfig(steps=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_step_number(self):
        # the first update scales weights to ~1e154, so the next forward
        # overflows float64 and the trainer must abort, naming the step
        rng = np.random.default_rng(13)
        ds = constant_dataset(rng, 64, [1.0, 0, 0, 0])
        net = HMINet.init(SMALL, 7)
        with pytest.raises(NumericError, match="step"):
            train(ds, net, TrainConfig(steps=5, batch_size=16, learning_rate=1e154, seed=8))


class TestNoisyMotionType:
    def test_time_bounds(self):
        with pytest.raises(InvalidInputError):
            NoisyMotion(np.zeros(4), -0.1)
        with pytest.raises(InvalidInputError):
            NoisyMotion(np.zeros(4), 1.5)

    def test_finite_values_required(self):
        with pytest.raises(InvalidInputError):
            NoisyMotion(np.array([np.nan, 0, 0, 0]), 0.5)


def spied_train_step(monkeypatch, net: HMINet) -> dict:
    """Run one ``train`` step on ``net`` and return what it passed around:
    the network's inputs, the loss's targets, the dtype of every op output
    and of every vector-Jacobian product, and the gradients and state that
    Adam received."""
    seen = {"ops": []}
    real_graph, real_loss, real_make, real_adam = net.predict_graph, diffusion.training_loss, ad._make, ad.adam_step

    def graph(*args):
        seen["inputs"] = args
        return real_graph(*args)

    def loss(c_hat, c, z_hat, z):
        seen["targets"] = c, z
        return real_loss(c_hat, c, z_hat, z)

    def make(value, op, parents, vjp):
        seen["ops"].append((op, value.dtype))
        return real_make(value, op, parents, spy_vjp(op, vjp))

    def spy_vjp(op, vjp):
        def run(g):
            out = vjp(g)
            seen["ops"].extend((f"{op} vjp", grad.dtype) for grad in out)
            return out
        return run

    def adam(params, grads, state, learning_rate):
        seen["grads"], seen["state"] = grads, state
        return real_adam(params, grads, state, learning_rate)

    monkeypatch.setattr(net, "predict_graph", graph)
    monkeypatch.setattr(diffusion, "training_loss", loss)
    monkeypatch.setattr(ad, "_make", make)
    monkeypatch.setattr(ad, "adam_step", adam)
    rng = np.random.default_rng(21)
    ds = TrainingSet(rng.normal(size=(32, 5, 8)) * 0.2, rng.normal(size=(32, 4)) * 0.1)
    train(ds, net, TrainConfig(steps=1, batch_size=16, learning_rate=1e-3, seed=9))
    monkeypatch.undo()
    return seen


class TestMixedPrecisionTraining:
    """``train`` runs forward, loss and backward in float32 on float32
    copies of the parameters, and keeps float64 master weights and Adam
    moments. Finite differences cannot audit a float32 graph, so its
    gradients are held against the float64 graph's backward instead."""

    # per parameter: max |float32 - float64| gradient component, relative to
    # the parameter's largest float64 component, or to 1e-3 of the largest
    # component over all parameters where a parameter's own gradient is
    # smaller. Measured: at most 5e-7 on these nets.
    GRADIENT_TOLERANCE = 1e-5

    @pytest.mark.parametrize("variant", ["OB", "TB"])
    def test_gradients_match_float64_backward(self, monkeypatch, variant):
        net = HMINet.init(replace(SMALL, variant=variant), 3)
        ref = HMINet(net.config, {k: ad.parameter(p.value.copy(), k) for k, p in net.params.items()})
        seen = spied_train_step(monkeypatch, net)
        c, z = seen["targets"]
        c_hat, z_hat = ref.predict_graph(*seen["inputs"])
        assert c_hat.value.dtype == np.float64
        want = dict(zip(ref.params, ad.backward(training_loss(c_hat, c, z_hat, z), list(ref.params.values()))))
        got = seen["grads"]
        assert list(got) == list(want)
        largest = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            scale = max(np.abs(g).max(), 1e-3 * largest)
            assert np.abs(got[name] - g).max() <= self.GRADIENT_TOLERANCE * scale, name

    @pytest.mark.parametrize("variant", ["OB", "TB"])
    def test_forward_and_backward_run_in_float32(self, monkeypatch, variant):
        net = HMINet.init(replace(SMALL, variant=variant), 5)
        ops = spied_train_step(monkeypatch, net)["ops"]
        assert sum(op.endswith(" vjp") for op, _ in ops) > 100 and sum(not op.endswith(" vjp") for op, _ in ops) > 50
        assert [op for op, dtype in ops if dtype != np.float32] == []

    def test_master_weights_and_moments_stay_float64(self, monkeypatch):
        net = HMINet.init(SMALL, 4)
        before = {k: p.value for k, p in net.params.items()}
        seen = spied_train_step(monkeypatch, net)
        assert all(g.dtype == np.float64 for g in seen["grads"].values())
        assert all(p.value.dtype == np.float64 and p.value is not before[k] for k, p in net.params.items())
        state = seen["state"]
        assert state.step == 1
        assert all(a.dtype == np.float64 for a in [*state.m.values(), *state.v.values()])
