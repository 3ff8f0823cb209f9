import contextlib

import numpy as np
import pytest

from ddmot import autodiff as ad
from ddmot.autodiff import Tensor
from ddmot.core import InvalidInputError


def t(x, grad=False, name="t"):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad, name=name)


class TestForward:
    def test_matmul_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = ad.matmul(t(np.eye(3)), t(x))
        assert np.array_equal(out.value, x)

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(t([0.0])).value[0] == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        v = ad.sigmoid(t([-1e4, 1e4])).value
        assert np.all(np.isfinite(v)) and v[0] == pytest.approx(0.0) and v[1] == pytest.approx(1.0)

    def test_softmax_uniform(self):
        assert np.allclose(ad.softmax(t([1.0, 1.0, 1.0])).value, [1 / 3] * 3)

    def test_softmax_simplex_property(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6, 5)) * 10
        s = ad.softmax(t(x)).value
        assert np.all(s >= 0)
        assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12

    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(4, 8)), rng.normal(size=(8, 8))

        def run():
            h = ad.matmul(t(x), t(w))
            return ad.mean(ad.mul(ad.sigmoid(h), ad.layer_norm(h, t(w[0]), t(w[1])))).value.copy()

        assert np.array_equal(run(), run())

    def test_shape_error_names_node(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_detected(self):
        x = t([800.0])
        with pytest.raises(ad.NonFiniteError, match="node"):
            for _ in range(9):  # 800**512 overflows float64
                x = ad.mul(x, x)


class TestBackward:
    def test_product_rule(self):
        x, y = t(3.0, grad=True), t(4.0, grad=True)
        gx, gy = ad.backward(ad.mul(x, y), [x, y])
        assert gx == pytest.approx(4.0) and gy == pytest.approx(3.0)

    def test_sigmoid_derivative_at_zero(self):
        x = t(0.0, grad=True)
        (g,) = ad.backward(ad.sigmoid(x), [x])
        assert g == pytest.approx(0.25)

    def test_unused_parameter_gets_zeros(self):
        x = t(2.0, grad=True)
        unused = t(np.ones((2, 2)), grad=True)
        (gx, gu) = ad.backward(ad.mul(x, x), [x, unused])
        assert gx == pytest.approx(4.0)
        assert np.array_equal(gu, np.zeros((2, 2)))

    def test_non_scalar_output_rejected(self):
        x = t(np.ones(3), grad=True)
        with pytest.raises(InvalidInputError):
            ad.backward(ad.mul(x, x), [x])

    def test_mlp_matches_finite_differences(self):
        """Every gradient component of a random 2-layer MLP agrees with
        central differences (the independent oracle)."""
        rng = np.random.default_rng(3)
        params = {
            "w1": ad.parameter(rng.normal(size=(4, 6)) * 0.5, "w1"),
            "b1": ad.parameter(rng.normal(size=6) * 0.1, "b1"),
            "w2": ad.parameter(rng.normal(size=(6, 2)) * 0.5, "w2"),
            "b2": ad.parameter(rng.normal(size=2) * 0.1, "b2"),
        }
        x = rng.normal(size=(5, 4))

        def f():
            h = ad.matmul(Tensor(x), params["w1"]) + params["b1"]
            h = ad.mul(h, ad.sigmoid(h))
            out = ad.matmul(h, params["w2"]) + params["b2"]
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, params, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]
        assert report.max_rel_error < 1e-4


class TestOpGradients:
    """Each op's analytic gradient against the FD oracle on random inputs."""

    @pytest.mark.parametrize(
        "name",
        ["add", "mul", "matmul", "linear", "linear_no_bias", "sigmoid", "silu", "softmax", "concat", "scale",
         "slice", "mean", "layer_norm", "reshape", "swapaxes", "broadcast", "smooth_l1"],
    )
    def test_gradient(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        a = ad.parameter(rng.normal(size=(3, 4)), "a")
        b = ad.parameter(rng.normal(size=(3, 4)), "b")

        def f():
            if name == "add":
                out = a + b
            elif name == "mul":
                out = ad.mul(a, b)
            elif name == "matmul":
                out = ad.matmul(a, ad.swapaxes(b, 0, 1))
            elif name == "linear":
                out = ad.linear(a, ad.swapaxes(b, 0, 1), ad.slice_(b, (slice(None), 0)))
            elif name == "linear_no_bias":
                out = ad.linear(a, ad.swapaxes(b, 0, 1), None)
            elif name == "sigmoid":
                out = ad.sigmoid(a)
            elif name == "silu":
                out = ad.silu(a)
            elif name == "softmax":
                out = ad.mul(ad.softmax(a), b)
            elif name == "concat":
                out = ad.concat([a, b], axis=-1)
            elif name == "scale":
                out = ad.scale(a, -2.5)
            elif name == "slice":
                out = ad.slice_(a, (slice(1, 3), slice(0, 2)))
            elif name == "mean":
                out = ad.mean(a, axis=0)
            elif name == "layer_norm":
                out = ad.layer_norm(a, ad.slice_(b, 0), ad.slice_(b, 1))
            elif name == "reshape":
                out = ad.reshape(a, (4, 3))
            elif name == "swapaxes":
                out = ad.mul(ad.swapaxes(a, 0, 1), ad.swapaxes(b, 0, 1))
            elif name == "broadcast":
                out = ad.broadcast_to(ad.reshape(a, (3, 1, 4)), (3, 5, 4))
            else:
                out = ad.smooth_l1(ad.mul(a, b))
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, {"a": a, "b": b}, h=1e-5, tolerance=1e-4)
        assert report.ok, (name, report.flagged[:3])

    @pytest.mark.parametrize("queries", ["self", "class_token"])
    def test_attention_gradient(self, queries):
        """``xq is xkv`` sends two gradients into one tensor; a class-token
        query attends over more tokens than it has queries (Tk > Tq)."""
        rng = np.random.default_rng(13)
        d = 4
        params = {"xkv": ad.parameter(rng.normal(size=(2, 3, d)), "xkv")}
        params |= {n: ad.parameter(rng.normal(size=(d, d)), n) for n in ("wq", "wk", "wv", "wo")}
        params |= {n: ad.parameter(rng.normal(size=d), n) for n in ("bq", "bv", "bo")}
        if queries == "class_token":
            params["xq"] = ad.parameter(rng.normal(size=(2, 1, d)), "xq")
        p = params

        def f():
            out = ad.attention(p.get("xq", p["xkv"]), p["xkv"], p["wq"], p["bq"], p["wk"], p["wv"], p["bv"],
                               p["wo"], p["bo"], heads=2)
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, params, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(9)
        x = ad.parameter(rng.normal(size=(4, 3)), "x")
        bias = ad.parameter(rng.normal(size=(3,)), "bias")

        def f():
            return ad.mean(ad.smooth_l1(x + bias))

        report = ad.finite_difference_check(f, {"x": x, "bias": bias}, h=1e-5, tolerance=1e-4)
        assert report.ok


    def test_linear_batched_input_gradient(self):
        # a (B, T, k) input goes through one GEMM on its flattened rows
        rng = np.random.default_rng(10)
        x = ad.parameter(rng.normal(size=(2, 3, 4)), "x")
        w = ad.parameter(rng.normal(size=(4, 5)), "w")
        bias = ad.parameter(rng.normal(size=(5,)), "bias")

        def f():
            out = ad.linear(x, w, bias)
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, {"x": x, "w": w, "bias": bias}, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]


class TestFusedValues:
    """The fused ops give the values of the ops they replace."""

    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(11)
        x, w, bias = t(rng.normal(size=(6, 4))), t(rng.normal(size=(4, 3))), t(rng.normal(size=3))
        assert np.array_equal(ad.linear(x, w, bias).value, (ad.matmul(x, w) + bias).value)
        assert np.array_equal(ad.linear(x, w, None).value, ad.matmul(x, w).value)

    def test_linear_shape_error_names_op(self):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(5)))
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(t(np.zeros((2, 4))), t(np.zeros((4, 5))), t(np.zeros(4)))

    @pytest.mark.parametrize("tq", [6, 1])
    def test_float32_attention_equals_composition(self, tq):
        """No-grad float32 ``attention`` gives the bits of the ops it fuses."""
        rng = np.random.default_rng(14)
        b, tk, d, heads = 8, 6, 64, 8
        dh = d // heads
        with ad.no_grad():
            xkv = Tensor(rng.normal(size=(b, tk, d)))
            xq = xkv if tq == tk else Tensor(rng.normal(size=(b, tq, d)))
            wq, wk, wv, wo = (Tensor(rng.normal(size=(d, d)) / 8) for _ in range(4))
            bq, bv, bo = (Tensor(rng.normal(size=d)) for _ in range(3))

            def split(x, w, bias):
                return ad.swapaxes(ad.reshape(ad.linear(x, w, bias), (b, x.shape[1], heads, dh)), 1, 2)

            scores = ad.scale(ad.matmul(split(xq, wq, bq), ad.swapaxes(split(xkv, wk, None), -1, -2)), 1.0 / np.sqrt(dh))
            heads_out = ad.matmul(ad.softmax(scores), split(xkv, wv, bv))
            want = ad.linear(ad.reshape(ad.swapaxes(heads_out, 1, 2), (b, tq, d)), wo, bo).value
            got = ad.attention(xq, xkv, wq, bq, wk, wv, bv, wo, bo, heads).value
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_layer_norm_equals_unfused_form(self):
        x = np.random.default_rng(15).normal(size=(5, 3, 16)).astype(np.float32) * 3 + 1
        gain, bias = x[0, 0], x[1, 1]
        with ad.no_grad():
            got = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).value
        mu = x.mean(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * gain + bias
        assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_attention_and_layer_norm_shape_errors_name_op(self):
        x, w, v = t(np.zeros((2, 3, 4))), t(np.zeros((4, 4))), t(np.zeros(4))
        for args, heads in [((x, t(np.zeros((3, 3, 4)))), 2), ((x, x), 3), ((t(np.zeros((3, 4))),) * 2, 2)]:
            with pytest.raises(ad.ShapeError, match="attention"):
                ad.attention(*args, w, v, w, w, v, w, v, heads=heads)
        with pytest.raises(ad.ShapeError, match="layer_norm"):
            ad.layer_norm(x, v, t(np.zeros(3)))

    def test_silu_equals_product_with_sigmoid(self):
        x = t(np.linspace(-40.0, 40.0, 81))
        assert np.array_equal(ad.silu(x).value, ad.mul(x, ad.sigmoid(x)).value)

    def test_sigmoid_within_three_ulp_of_two_branch_formula(self):
        x = np.random.default_rng(12).normal(size=10_000) * 8.0
        e = np.exp(-np.abs(x))
        ref = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.all(np.abs(ad.sigmoid(t(x)).value - ref) <= 3 * np.spacing(ref))


class TestSmoothL1Values:
    def test_anchors(self):
        v = ad.smooth_l1(t([0.0, 0.5, -0.5, 2.0, -2.0])).value
        assert np.allclose(v, [0.0, 0.125, 0.125, 1.5, 1.5])

    def test_c1_continuity_at_one(self):
        quad = 0.5 * 1.0**2
        lin = abs(1.0) - 0.5
        assert quad == lin == 0.5
        v = ad.smooth_l1(t([1.0 - 1e-9, 1.0, 1.0 + 1e-9])).value
        assert np.abs(v - 0.5).max() < 1e-8


class TestAdam:
    def test_first_step_magnitude(self):
        """At step 1 the bias-corrected update is lr * g / (|g| + eps)."""
        p = {"w": ad.parameter(np.array([1.0]), "w")}
        state = ad.adam_init(p)
        ad.adam_step(p, {"w": np.array([1.0])}, state, 1e-4)
        expected = 1.0 - 1e-4 * 1.0 / (1.0 + 1e-8)
        assert p["w"].value[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_keeps_params_decays_moments(self):
        p = {"w": ad.parameter(np.array([2.0]), "w")}
        state = ad.adam_init(p)
        ad.adam_step(p, {"w": np.array([5.0])}, state, 1e-3)
        m_before, v_before = state.m["w"].copy(), state.v["w"].copy()
        w_before = p["w"].value.copy()
        ad.adam_step(p, {"w": np.array([0.0])}, state, 1e-3)
        assert not np.array_equal(p["w"].value, w_before)  # momentum still moves it
        assert state.m["w"][0] == pytest.approx(0.9 * m_before[0])
        assert state.v["w"][0] == pytest.approx(0.999 * v_before[0])

    def test_deterministic_repetition(self):
        def run():
            p = {"w": ad.parameter(np.linspace(-1, 1, 8), "w")}
            state = ad.adam_init(p)
            for _ in range(5):
                ad.adam_step(p, {"w": np.sin(p["w"].value)}, state, 1e-2)
            return p["w"].value.copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        p = {"w": ad.parameter(np.zeros(3), "w")}
        state = ad.adam_init(p)
        with pytest.raises(InvalidInputError):
            ad.adam_step(p, {"w": np.zeros(4)}, state, 1e-3)


class TestFiniteDifferenceCheck:
    def test_linear_function_is_exact(self):
        a = ad.parameter(np.array([1.0, -2.0, 0.5]), "a")

        def f():
            return ad.mean(ad.scale(a, 3.0))

        report = ad.finite_difference_check(f, {"a": a}, h=1e-5, tolerance=1e-4)
        assert report.max_rel_error < 1e-9

    def test_quadratic_truncation_error(self):
        a = ad.parameter(np.array([1.0]), "a")

        def f():
            return ad.mean(ad.mul(a, a))

        report = ad.finite_difference_check(f, {"a": a}, h=1e-5, tolerance=1e-4)
        assert report.max_rel_error < 1e-9

    def test_corrupted_gradient_is_flagged(self):
        a = ad.parameter(np.array([1.0, 2.0]), "a")

        def f():
            return ad.mean(ad.mul(a, a))

        bad = {"a": np.array([1.0, 17.0])}  # true gradient is [1, 2]
        report = ad.finite_difference_check(f, {"a": a}, h=1e-5, tolerance=1e-4, analytic=bad)
        assert not report.ok
        assert report.worst[0] == "a"


class TestNoGrad:
    """``no_grad`` runs the same ops without recording a graph."""

    def test_node_has_no_parents(self):
        x, y = t(3.0, grad=True), t(4.0, grad=True)
        with ad.no_grad():
            out = ad.sigmoid(ad.mul(x, y) + y)
        assert out._parents == () and not out.requires_grad and out.name == "sigmoid"

    def test_same_values_as_graph_mode(self):
        rng = np.random.default_rng(4)
        x, w = t(rng.normal(size=(4, 8)), grad=True), t(rng.normal(size=(8, 8)), grad=True)

        def run():
            h = ad.matmul(x, w)
            return ad.softmax(ad.mul(ad.sigmoid(h), ad.layer_norm(h, ad.slice_(w, 0), ad.slice_(w, 1)))).value

        with ad.no_grad():
            free = run()
        assert np.array_equal(free, run())

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        x = t(2.0, grad=True)
        out = ad.mul(x, x)
        assert out.requires_grad and len(out._parents) == 2
        assert ad.backward(out, [x])[0] == pytest.approx(4.0)

    def test_nested_contexts_restore_outer_mode(self):
        x = t(2.0, grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.mul(x, x).requires_grad
        assert ad.mul(x, x).requires_grad

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_linear_overflow_names_op(self):
        # no-grad ops skip the finite check; the sigmoid that would hide the
        # inf checks its input and names the op that made it
        x, w, bias = t([[1e200]]), t([[1e200]]), t([0.0])
        with ad.no_grad():
            h = ad.linear(x, w, bias)
            assert np.isposinf(h.value).all()
            with pytest.raises(ad.NonFiniteError, match="node 'linear'"):
                ad.sigmoid(h)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("grad", [True, False], ids=["graph", "no_grad"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_key_score_names_attention(self, grad, sign):
        """Key 0's scores overflow float32 to +-inf. Softmax would turn -inf
        into a finite 0 weight, so the scores themselves are checked."""
        d = 4
        xkv = np.zeros((1, 2, d))
        xkv[0, 0] = 1.0
        eye, zero = np.eye(d), np.zeros(d)
        with ad.precision(np.float32):
            args = [Tensor(v, requires_grad=grad) for v in (xkv, eye, zero, sign * 3e38 * eye, eye, zero, eye, zero)]
            x = args[0]
            with contextlib.nullcontext() if grad else ad.no_grad():
                with pytest.raises(ad.NonFiniteError, match="node 'attention'"):
                    ad.attention(x, *args, heads=2)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_every_op_still_checks_finiteness(self):
        # x*x overflows to inf; the sigmoid would squash it to a finite 1.0,
        # so only the check on the intermediate op catches it
        x = t([1e200])
        with ad.no_grad(), pytest.raises(ad.NonFiniteError, match="node 'mul'"):
            ad.sigmoid(ad.mul(x, x))


class TestFloat32Inference:
    """Under ``no_grad`` new tensors are float32 and every op keeps its
    input dtype; graph mode and parameters stay float64."""

    def test_tensor_dtype_follows_mode(self):
        assert Tensor([1.0]).value.dtype == np.float64
        with ad.no_grad():
            assert Tensor([1.0]).value.dtype == np.float32
            assert ad.parameter([1.0], "p").value.dtype == np.float64

    def test_every_op_keeps_float32(self):
        rng = np.random.default_rng(3)
        with ad.no_grad():
            x, w, b = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 4))), Tensor(np.zeros(4))
            h = ad.linear(x, w, b)
            outs = [
                h, h + x, h * x, ad.scale(h, 0.5), ad.matmul(h, ad.swapaxes(x, -1, -2)),
                ad.sigmoid(h), ad.silu(h), ad.softmax(h), ad.concat([h, x], axis=1),
                ad.slice_(h, (slice(None), 0)), ad.reshape(h, (6, 4)), ad.broadcast_to(b, (3, 4)),
                ad.mean(h, axis=1), ad.layer_norm(h, b, b), ad.smooth_l1(h),
                ad.attention(h, x, w, b, w, w, b, w, b, heads=2),
            ]
        assert all(o.value.dtype == np.float32 for o in outs), [o.name for o in outs if o.value.dtype != np.float32]

    def test_float32_sigmoid_and_silu_close_to_expit(self):
        """The float32 form is within 6.5e-8 of float64 ``expit`` of the
        same input and stays finite without a warning on both tails."""
        from scipy.special import expit

        x = np.concatenate([np.linspace(-40.0, 40.0, 200001), [-3e38, -1e4, 1e4, 3e38]]).astype(np.float32)
        want = expit(x.astype(np.float64))
        with ad.no_grad():
            s, silu = ad.sigmoid(Tensor(x)).value, ad.silu(Tensor(x)).value
        assert np.abs(s - want).max() <= 6.5e-8
        assert np.all(np.abs(silu - x * want) <= 6.5e-8 * np.abs(x) + 2**-24 * np.abs(x * want))

    def test_float64_sigmoid_is_expit(self):
        from scipy.special import expit

        x = np.random.default_rng(5).normal(size=1000) * 10
        xt = t(x)
        with ad.no_grad():
            assert np.array_equal(ad.sigmoid(xt).value, expit(x))
            assert np.array_equal(ad.silu(xt).value, x * expit(x))

    def test_value_beyond_float32_range_is_non_finite(self):
        with ad.no_grad(), pytest.raises(ad.NonFiniteError, match="non-finite"):
            Tensor([1e39])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_float32_overflow_names_op(self):
        with ad.no_grad():
            x = Tensor([3e38])
            with pytest.raises(ad.NonFiniteError, match="node 'mul'"):
                ad.sigmoid(ad.mul(x, x))


class TestPrecision:
    """The compute-precision switch sets the dtype of new tensors in graph
    mode too; parameters stay float64 master weights."""

    def test_float32_graph_records_and_backpropagates(self):
        with ad.precision(np.float32):
            x = Tensor([1.5, -2.0], requires_grad=True)
            out = ad.mean(ad.mul(ad.sigmoid(x), x))
            assert ad.parameter([1.0], "p").value.dtype == np.float64
            (g,) = ad.backward(out, [x])
        assert x.value.dtype == out.value.dtype == np.float32 and out.requires_grad
        assert g.dtype == np.float64
        assert Tensor([1.0]).value.dtype == np.float64

    def test_previous_precision_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.precision(np.float32):
                raise RuntimeError("boom")
        assert ad.compute_dtype() == np.float64
        with ad.no_grad():
            with ad.precision(np.float64):
                assert Tensor([1.0]).value.dtype == np.float64
            assert Tensor([1.0]).value.dtype == np.float32
