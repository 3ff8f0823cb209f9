import contextlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ["add", "mul", "matmul", "linear", "linear_no_bias", "sigmoid", "mlp2", "softmax", "concat", "scale",
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
            elif name == "linear_no_bias":  # an affine map without bias is a matmul, here with a batch axis
                out = ad.matmul(ad.reshape(a, (3, 1, 4)), ad.swapaxes(b, 0, 1))
            elif name == "sigmoid":
                out = ad.sigmoid(a)
            elif name == "mlp2":
                out = ad.mlp2(a, ad.swapaxes(b, 0, 1), ad.slice_(b, (slice(None), 0)), b, ad.slice_(b, 0))
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

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_mlp2_gradient(self, lead):
        rng = np.random.default_rng(16)
        params = {"x": ad.parameter(rng.normal(size=(*lead, 4)), "x")}
        params |= {n: ad.parameter(rng.normal(size=shape), n) for n, shape in _mlp_shapes(4, 5, 3).items()}

        def f():
            out = ad.mlp2(*params.values())
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, params, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_mfl_gradient(self, lead):
        """Every parameter of the fusion layer, the embedding ``e`` (a
        parent twice) and the motion features ``m``."""
        rng = np.random.default_rng(17)
        params = {"e": ad.parameter(rng.normal(size=(*lead, 4)), "e"), "m": ad.parameter(rng.normal(size=(*lead, 3)), "m")}
        params |= {n: ad.parameter(rng.normal(size=shape), n) for n, shape in _mfl_shapes(4, 5, 3).items()}

        def f():
            out = ad.mfl(*params.values())
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, params, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]

    def test_split_mfl_gradient(self):
        """``mfl_tokens`` of ``mfl_condition``: every parameter of the layer,
        the embedding ``e`` (a parent of ``mfl_condition`` three times) and
        the motion features ``m``."""
        rng = np.random.default_rng(18)
        params = {"e": ad.parameter(rng.normal(size=(3, 4)), "e"), "m": ad.parameter(rng.normal(size=(3, 4)), "m")}
        params |= {n: ad.parameter(rng.normal(size=shape), n) for n, shape in _mfl_shapes(4, 5, 4).items()}
        e, m, *weights = params.values()

        def f():
            out = ad.mfl_tokens(ad.mfl_condition(e, *weights), m)
            return ad.mean(ad.mul(out, out))

        report = ad.finite_difference_check(f, params, h=1e-5, tolerance=1e-4)
        assert report.ok, report.flagged[:3]


def _mlp_shapes(k: int, h: int, d: int) -> dict[str, tuple[int, ...]]:
    return {"w1": (k, h), "b1": (h,), "w2": (h, d), "b2": (d,)}


def _mfl_shapes(k: int, h: int, d: int) -> dict[str, tuple[int, ...]]:
    """``mfl``'s weights after ``e`` and ``m``, in its parameter order: the
    scale perceptron's, then the shift perceptron's."""
    return {f"{name}{part}": shape for part in "sh" for name, shape in _mlp_shapes(k, h, d).items()}


def _op_nodes(rng) -> dict:
    """One graph-mode node per op, on float32 parents that require a
    gradient; ``add`` and ``mul`` broadcast a (4,) parent over (3, 4)."""
    def p(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x, w, v = p(2, 3, 4), p(4, 4), p(4)
    mlp, fusion = (p(*shape) for shape in _mlp_shapes(4, 5, 3).values()), (p(*shape) for shape in _mfl_shapes(4, 5, 4).values())
    return {
        "add": ad.add(p(3, 4), v), "mul": ad.mul(v, p(3, 4)), "scale": ad.scale(x, 0.5),
        "matmul": ad.matmul(p(2, 3, 4), p(4, 5)), "linear": ad.linear(x, w, v), "linear_no_bias": ad.matmul(x, w),
        "sigmoid": ad.sigmoid(x), "mlp2": ad.mlp2(x, *mlp), "mfl": ad.mfl(x, p(2, 3, 4), *fusion), "softmax": ad.softmax(x),
        "concat": ad.concat([x, p(2, 1, 4), p(2, 2, 4)], axis=1), "slice_": ad.slice_(x, (slice(None), 1)),
        "reshape": ad.reshape(x, (6, 4)), "swapaxes": ad.swapaxes(x, 0, 2), "broadcast_to": ad.broadcast_to(v, (3, 4)),
        "mean": ad.mean(x, axis=1), "layer_norm": ad.layer_norm(x, p(4), v), "smooth_l1": ad.smooth_l1(x),
        "attention": ad.attention(p(2, 1, 4), x, w, v, p(4, 4), p(4, 4), p(4), p(4, 4), p(4), heads=2),
        "mfl_condition": ad.mfl_condition(p(3, 4), *(p(*shape) for shape in _mfl_shapes(4, 5, 4).values())),
        "mfl_tokens": ad.mfl_tokens(p(3, 3, 4), p(3, 4)),
    }


class TestVjpContract:
    """A node's one VJP returns a gradient per parent, in parent order,
    each of its parent's shape and, in a float32 graph, float32."""

    CASES = ["add", "mul", "scale", "matmul", "linear", "linear_no_bias", "sigmoid", "mlp2", "mfl", "mfl_condition",
             "mfl_tokens", "softmax", "concat", "slice_", "reshape", "swapaxes", "broadcast_to", "mean", "layer_norm",
             "smooth_l1", "attention"]

    def test_every_op_is_covered(self):
        # every public function of the module that makes a node
        ops = {name for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and not name.startswith("_") and "_make" in fn.__code__.co_names}
        assert ops == {case.removesuffix("_no_bias") for case in self.CASES}
        with ad.precision(np.float32):
            assert sorted(_op_nodes(np.random.default_rng(0))) == sorted(self.CASES)

    @pytest.mark.parametrize("op", CASES)
    def test_one_gradient_per_parent(self, op):
        with ad.precision(np.float32):
            node = _op_nodes(np.random.default_rng(1))[op]
            g = np.random.default_rng(2).normal(size=node.shape).astype(np.float32)
            grads = node._vjp(g)
        assert node.requires_grad and len(grads) == len(node._parents) > 0
        assert [gr.shape for gr in grads] == [parent.shape for parent in node._parents]
        assert all(gr.dtype == np.float32 for gr in grads)

    def test_leaf_has_no_parents_and_an_empty_vjp(self):
        leaf = ad.parameter(np.ones(3), "w")
        assert leaf._parents == () and tuple(leaf._vjp(np.ones(3))) == ()


def _leaf(rng, *shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _silu_mlp(x, w1, b1, w2, b2) -> Tensor:
    a = ad.linear(x, w1, b1)
    return ad.linear(ad.mul(a, ad.sigmoid(a)), w2, b2)


def _fused_and_composed(rng, fused, composed, fused_leaves, composed_leaves) -> tuple[list, list]:
    """The value and the leaves' gradients of ``fused`` and of ``composed``,
    each backpropagated from the same random cotangent."""
    cotangent = Tensor(rng.normal(size=fused.shape))
    return [[out.value, *ad.backward(ad.mean(ad.mul(out, cotangent)), leaves)]
            for out, leaves in [(fused, fused_leaves), (composed, composed_leaves)]]


def _fusion_layer_pair(rng, lead, k: int, h: int, d: int) -> tuple[list, list]:
    """``mfl`` and its composition on random float32 leaves: values, then
    gradients in ``mfl``'s parameter order."""
    e, m = _leaf(rng, *lead, k), _leaf(rng, *lead, d)
    scale, shift = ([_leaf(rng, *shape) for shape in _mlp_shapes(k, h, d).values()] for _ in range(2))
    composed = ad.add(ad.mul(ad.sigmoid(_silu_mlp(e, *scale)), m), _silu_mlp(e, *shift))
    leaves = [e, m, *scale, *shift]
    return _fused_and_composed(rng, ad.mfl(e, m, *scale, *shift), composed, leaves, leaves)


def _split_fusion_layer_pair(rng, b: int, h: int, d: int) -> tuple[list, list]:
    """``mfl_tokens`` of ``mfl_condition`` and the pair it replaces, the
    (b, 2, d) concatenation of the embedding and ``mfl``, on random float32
    leaves: values, then gradients in ``mfl``'s parameter order."""
    e, m = _leaf(rng, b, d), _leaf(rng, b, d)
    weights = [_leaf(rng, *shape) for shape in _mfl_shapes(d, h, d).values()]
    pair = ad.concat([ad.reshape(e, (b, 1, d)), ad.reshape(ad.mfl(e, m, *weights), (b, 1, d))], axis=1)
    leaves = [e, m, *weights]
    return _fused_and_composed(rng, ad.mfl_tokens(ad.mfl_condition(e, *weights), m), pair, leaves, leaves)


class TestFusedValues:
    """The fused ops give the values of the ops they replace."""

    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(11)
        x, w, bias = t(rng.normal(size=(6, 4))), t(rng.normal(size=(4, 3))), t(rng.normal(size=3))
        assert np.array_equal(ad.linear(x, w, bias).value, (ad.matmul(x, w) + bias).value)

    def test_linear_shape_error_names_op(self):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(5)))
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(t(np.zeros((2, 4))), t(np.zeros((4, 5))), t(np.zeros(4)))

    @pytest.mark.parametrize("tq", [6, 1])
    def test_float32_attention_equals_composition(self, tq):
        """No-grad float32 ``attention`` gives the bits of the ops it fuses,
        at width 64 and at 40, where one GEMM over the joined query, key and
        value weights would not give the bits of three."""
        rng = np.random.default_rng(14)
        b, tk, heads = 8, 6, 8
        for d in (64, 40):
            dh = d // heads
            with ad.no_grad():
                xkv = Tensor(rng.normal(size=(b, tk, d)))
                xq = xkv if tq == tk else Tensor(rng.normal(size=(b, tq, d)))
                wq, wk, wv, wo = (Tensor(rng.normal(size=(d, d)) / 8) for _ in range(4))
                bq, bv, bo = (Tensor(rng.normal(size=d)) for _ in range(3))

                def split(x, w, bias):  # keys take no bias: a matmul on the flattened rows
                    h = ad.matmul(ad.reshape(x, (-1, d)), w) if bias is None else ad.linear(x, w, bias)
                    return ad.swapaxes(ad.reshape(h, (b, x.shape[1], heads, dh)), 1, 2)

                scores = ad.scale(ad.matmul(split(xq, wq, bq), ad.swapaxes(split(xkv, wk, None), -1, -2)),
                                  1.0 / np.sqrt(dh))
                heads_out = ad.matmul(ad.softmax(scores), split(xkv, wv, bv))
                want = ad.linear(ad.reshape(ad.swapaxes(heads_out, 1, 2), (b, tq, d)), wo, bo).value
                got = ad.attention(xq, xkv, wq, bq, wk, wv, bv, wo, bo, heads).value
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want), d

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

    def test_mlp2_hidden_activation_equals_product_with_sigmoid(self):
        """With identity weights and zero biases ``mlp2`` returns its hidden
        activation, SiLU ``x * sigmoid(x)``."""
        x = t(np.linspace(-40.0, 40.0, 81)[:, None])
        assert np.array_equal(_hidden_activation(x).value, ad.mul(x, ad.sigmoid(x)).value)

    def test_fused_op_shape_errors_name_op(self):
        x, w1, b1, w2, b2 = t(np.zeros((2, 4))), t(np.zeros((4, 6))), t(np.zeros(6)), t(np.zeros((6, 3))), t(np.zeros(3))
        for args in [(x, w1, b1, t(np.zeros((5, 3))), b2), (x, w1, t(np.zeros(5)), w2, b2), (t(np.zeros((2, 5))), w1, b1, w2, b2)]:
            with pytest.raises(ad.ShapeError, match="mlp2"):
                ad.mlp2(*args)
        m, scale = t(np.zeros((2, 3))), (w1, b1, w2, b2)
        for m_, shift in [(m, (w2, b1, w2, b2)), (m, (w1, b1, t(np.zeros((6, 4))), t(np.zeros(4)))),
                          (t(np.zeros((3, 3))), scale), (t(np.zeros((2, 4))), scale)]:
            with pytest.raises(ad.ShapeError, match="mfl"):
                ad.mfl(x, m_, *scale, *shift)
        e4, square = t(np.zeros((2, 4))), (t(np.zeros((4, 6))), b1, t(np.zeros((6, 4))), t(np.zeros(4)))
        for e_, weights in [(t(np.zeros((2, 3, 4))), square * 2), (e4, scale * 2), (e4, square + scale)]:
            with pytest.raises(ad.ShapeError, match="mfl_condition"):
                ad.mfl_condition(e_, *weights)
        for c, m_ in [(t(np.zeros((2, 2, 4))), e4), (t(np.zeros((2, 3, 4))), t(np.zeros((3, 4)))),
                      (t(np.zeros((2, 3, 4))), t(np.zeros((2, 3))))]:
            with pytest.raises(ad.ShapeError, match="mfl_tokens"):
                ad.mfl_tokens(c, m_)

    # OpenBLAS's small float32 GEMV can raise a spurious invalid flag on
    # finite operands (seen once in a full run, for a (10, 5) @ (5, 1)
    # product in mlp2's VJP, and not again in isolation); every value and
    # gradient is compared bit for bit, so a real NaN still fails the test
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.sampled_from([(1,), (2,), (7,), (3, 1), (2, 5)]),
        dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        seed=st.integers(0, 2**16),
    )
    def test_float32_fused_ops_equal_composition(self, lead, dims, seed):
        """``mlp2`` and ``mfl`` give the values, and their VJPs every
        gradient, of their composition from ``linear``, ``sigmoid``,
        ``mul`` and ``add`` in a float32 graph; on (B, d) rows, so do
        ``mfl_condition`` and ``mfl_tokens`` of the embedding beside its
        ``mfl``, the embedding's three gradients summed in the same order."""
        k, h, d = dims
        rng = np.random.default_rng(seed)
        with ad.precision(np.float32):
            x, mlp = _leaf(rng, *lead, k), [_leaf(rng, *shape) for shape in _mlp_shapes(k, h, d).values()]
            got, want = _fused_and_composed(rng, ad.mlp2(x, *mlp), _silu_mlp(x, *mlp), [x, *mlp], [x, *mlp])
            assert got[0].dtype == np.float32
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            got, want = _fusion_layer_pair(rng, lead, k, h, d)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            if len(lead) == 1:
                got, want = _split_fusion_layer_pair(rng, lead[0], h, d)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_sigmoid_within_three_ulp_of_two_branch_formula(self):
        x = np.random.default_rng(12).normal(size=10_000) * 8.0
        e = np.exp(-np.abs(x))
        ref = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.all(np.abs(ad.sigmoid(t(x)).value - ref) <= 3 * np.spacing(ref))


def _hidden_activation(x: Tensor) -> Tensor:
    """``mlp2`` of the (N, 1) ``x`` through unit weights and zero biases:
    its hidden activation, exactly."""
    with ad.precision(x.value.dtype):
        one, zero = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
    return ad.mlp2(x, one, zero, one, zero)


class TestKeySlabReductions:
    """``attention`` reduces its softmax over keys one key slab at a time."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keys", range(1, 8))
    def test_bits_equal_numpy_up_to_7_keys(self, dtype, keys):
        for shape in [(37, 8, 6, keys), (37, 8, 1, keys)]:
            s = (np.random.default_rng(keys).normal(size=shape) * 10).astype(dtype)
            assert np.array_equal(ad._over_keys(np.maximum, s), s.max(axis=-1, keepdims=True))
            assert np.array_equal(ad._over_keys(np.add, s), s.sum(axis=-1, keepdims=True))
            assert ad._over_keys(np.add, s).dtype == dtype

    @pytest.mark.parametrize("precision", [np.float32, np.float64])
    @pytest.mark.parametrize("keys", [8, 9, 16, 33, 65])  # history_length <= 64, plus the class token
    def test_softmax_rows_sum_to_one_from_8_keys(self, precision, keys):
        """With every value 1 an attention head returns its softmax row's sum."""
        rng = np.random.default_rng(keys)
        d, heads = 8, 2
        with ad.precision(precision):
            xq, xkv = Tensor(rng.normal(size=(5, 3, d))), Tensor(rng.normal(size=(5, keys, d)))
            wq, wk = Tensor(rng.normal(size=(d, d)) * 3), Tensor(rng.normal(size=(d, d)))
            zero, one = Tensor(np.zeros(d)), Tensor(np.ones(d))
            out = ad.attention(xq, xkv, wq, zero, wk, Tensor(np.zeros((d, d))), one, Tensor(np.eye(d)), zero, heads)
        assert out.value.dtype == precision
        assert np.abs(out.value - 1.0).max() <= 1e-6


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

    @pytest.mark.parametrize("grad", [True, False], ids=["graph", "no_grad"])
    def test_layer_norm_variance_overflow_names_op(self, grad):
        """The squares of a finite float32 row overflow, so its variance is
        inf; the op would return the bias row, so the variance is checked."""
        with ad.precision(np.float32):
            x = Tensor([[3e19, -3e19, 1.0, 2.0]], requires_grad=grad)
            gain, bias = Tensor(np.ones(4)), Tensor([0.0, 1.0, 2.0, 3.0])
            with contextlib.nullcontext() if grad else ad.no_grad():
                with pytest.raises(ad.NonFiniteError, match="node 'layer_norm'"):
                    ad.layer_norm(x, gain, bias)

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
                ad.sigmoid(h), ad.mlp2(h, w, b, w, b), ad.mfl(h, x, w, b, w, b, w, b, w, b),
                ad.softmax(h), ad.concat([h, x], axis=1),
                ad.slice_(h, (slice(None), 0)), ad.reshape(h, (6, 4)), ad.broadcast_to(b, (3, 4)),
                ad.mean(h, axis=1), ad.layer_norm(h, b, b), ad.smooth_l1(h),
                ad.attention(h, x, w, b, w, w, b, w, b, heads=2),
                ad.mfl_condition(ad.slice_(h, (slice(None), 0)), w, b, w, b, w, b, w, b),
                ad.mfl_tokens(x, ad.slice_(h, (slice(None), 0))),
            ]
        assert all(o.value.dtype == np.float32 for o in outs), [o.name for o in outs if o.value.dtype != np.float32]

    def test_float32_sigmoid_and_mlp2_activation_close_to_expit(self):
        """The float32 form is within 6.5e-8 of float64 ``expit`` of the
        same input and stays finite without a warning on both tails."""
        from scipy.special import expit

        x = np.concatenate([np.linspace(-40.0, 40.0, 200001), [-3e38, -1e4, 1e4, 3e38]]).astype(np.float32)
        want = expit(x.astype(np.float64))
        with ad.no_grad():
            s, silu = ad.sigmoid(Tensor(x)).value, _hidden_activation(Tensor(x[:, None])).value[:, 0]
        assert np.abs(s - want).max() <= 6.5e-8
        assert np.all(np.abs(silu - x * want) <= 6.5e-8 * np.abs(x) + 2**-24 * np.abs(x * want))

    def test_float64_sigmoid_is_expit(self):
        from scipy.special import expit

        x = np.random.default_rng(5).normal(size=1000) * 10
        xt, column = t(x), t(x[:, None])
        with ad.no_grad():
            assert np.array_equal(ad.sigmoid(xt).value, expit(x))
            assert np.array_equal(_hidden_activation(column).value[:, 0], x * expit(x))

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
