"""Tests for the reverse-mode engine.

Every primitive gets a forward oracle (hand arithmetic or an explicit
loop) and a finite-difference gradient check on randomized small shapes.
"""

import math

import numpy as np
import pytest

from msa_forge.autodiff import (
    GradCheckReport,
    ParamSet,
    Tape,
    Tensor,
    add,
    backward,
    concat,
    dropout,
    grad_check,
    l1_loss,
    lstm_cell_step,
    lstm_sequence,
    masked_mean,
    matmul,
    mean_,
    mse_loss,
    mul,
    outer_fusion,
    relu,
    reshape,
    scaled_dot_attention,
    sigmoid,
    slice_,
    softmax,
    sub,
    sum_,
    tanh,
    transpose,
)
from msa_forge.errors import ShapeError


def _params_from(arrays: dict) -> ParamSet:
    return ParamSet({name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()})


class TestForwardOracles:
    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 1))
        out = matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 1)
        expect = np.zeros((2, 1))
        for i in range(2):
            for j in range(1):
                for k in range(3):
                    expect[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_masked_mean_ignores_padded_row(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]]))
        mask = np.array([True, True, False])
        out = masked_mean(x, mask)
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_masked_mean_all_false_is_zero(self):
        x = Tensor(np.ones((2, 3, 4)))
        mask = np.zeros((2, 3), dtype=bool)
        np.testing.assert_allclose(masked_mean(x, mask).data, np.zeros((2, 4)))

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(x, 0.5, train=False)
        assert out is x

    def test_dropout_train_scales_kept_values(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, train=True, rng=rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        # inverted scaling keeps the expectation near 1
        assert abs(out.data.mean() - 1.0) < 0.06


class TestBackward:
    def test_sum_gradient_is_ones(self):
        ps = _params_from({"w": np.random.default_rng(0).normal(size=(3, 4))})
        with Tape() as tape:
            loss = sum_(ps["w"])
        backward(tape, loss, ps)
        np.testing.assert_allclose(ps["w"].grad, np.ones((3, 4)))

    def test_linear_mse_matches_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 1))
        ps = _params_from({"w": rng.normal(size=(3, 1))})
        with Tape() as tape:
            pred = matmul(Tensor(x), ps["w"])
            loss = mse_loss(pred, Tensor(y))
        backward(tape, loss, ps)
        resid = x @ ps["w"].data - y
        expect = 2.0 * x.T @ resid / y.size
        np.testing.assert_allclose(ps["w"].grad, expect, rtol=1e-10)

    def test_unused_param_gets_zero_grad(self):
        ps = _params_from({"used": [1.0, 2.0], "unused": [3.0]})
        with Tape() as tape:
            loss = sum_(mul(ps["used"], ps["used"]))
        backward(tape, loss, ps)
        np.testing.assert_allclose(ps["unused"].grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        ps = _params_from({"w": [1.0, 2.0]})
        with Tape() as tape:
            out = mul(ps["w"], 2.0)
        with pytest.raises(ShapeError):
            backward(tape, out, ps)

    def test_reused_tensor_accumulates(self):
        ps = _params_from({"w": [2.0]})
        with Tape() as tape:
            loss = sum_(mul(ps["w"], ps["w"]))  # w^2
        backward(tape, loss, ps)
        np.testing.assert_allclose(ps["w"].grad, [4.0])


class TestGradCheckPrimitives:
    """Every primitive passes grad_check on randomized small shapes
    (float64, eps 1e-5, tol 1e-4), dropout off."""

    def _check(self, build, arrays, eps=1e-5, tol=1e-4):
        ps = _params_from(arrays)
        report = grad_check(build, ps, eps=eps, tol=tol)
        assert report.passed, repr(report)
        return report

    def test_add_sub_mul_broadcast(self):
        rng = np.random.default_rng(2)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3,))}
        self._check(lambda p: sum_(mul(add(p["a"], p["b"]), sub(p["a"], p["b"]))), arrays)

    def test_matmul_batched(self):
        rng = np.random.default_rng(3)
        arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 2))}
        self._check(lambda p: sum_(matmul(p["a"], p["b"])), arrays)

    def test_concat_slice_reshape_transpose(self):
        rng = np.random.default_rng(4)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}

        def f(p):
            c = concat([p["a"], p["b"]], axis=1)
            s = slice_(c, (slice(None), slice(1, 4)))
            r = reshape(s, (3, 2))
            t = transpose(r, (1, 0))
            return sum_(mul(t, t))

        self._check(f, arrays)

    def test_activations(self):
        rng = np.random.default_rng(5)
        arrays = {"x": rng.normal(size=(3, 4))}
        self._check(lambda p: sum_(sigmoid(p["x"])), arrays)
        self._check(lambda p: sum_(tanh(p["x"])), arrays)
        # weight the softmax so the loss is not the constant row count
        w = rng.normal(size=(3, 4))
        self._check(lambda p: sum_(mul(softmax(p["x"], axis=-1), Tensor(w))), arrays)
        # keep relu inputs clearly away from the kink at 0
        arrays_relu = {"x": rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5}
        self._check(lambda p: sum_(mul(relu(p["x"]), relu(p["x"]))), arrays_relu)

    def test_reductions_and_losses(self):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(4, 3))}
        target = rng.normal(size=(4, 3))
        self._check(lambda p: mean_(p["x"]), arrays)
        self._check(lambda p: sum_(mean_(p["x"], axis=1)), arrays)
        self._check(lambda p: mse_loss(p["x"], Tensor(target)), arrays)
        # keep |pred - target| away from 0 so the L1 kink is not sampled
        far = {"x": rng.normal(size=(4, 3)) + 5.0}
        self._check(lambda p: l1_loss(p["x"], Tensor(target)), far)

    def test_masked_mean_grad(self):
        rng = np.random.default_rng(7)
        arrays = {"x": rng.normal(size=(2, 4, 3))}
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        self._check(lambda p: sum_(mul(masked_mean(p["x"], mask),
                                       masked_mean(p["x"], mask))), arrays)

    def test_dropout_train_mode_grad(self):
        # fixed mask via a reseeded rng on every call keeps f deterministic
        rng = np.random.default_rng(8)
        arrays = {"x": rng.normal(size=(3, 3))}

        def f(p):
            r = np.random.default_rng(123)
            return sum_(dropout(p["x"], 0.4, train=True, rng=r))

        self._check(f, arrays)

    def test_linear_sigmoid_mse_toy(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 3)))
        y = Tensor(rng.uniform(0.2, 0.8, size=(4, 1)))
        ps = _params_from({"w": rng.normal(size=(3, 1)), "b": rng.normal(size=(1,))})
        report = grad_check(
            lambda p: mse_loss(sigmoid(add(matmul(x, p["w"]), p["b"])), y),
            ps, eps=1e-5, tol=1e-4)
        assert report.passed and report.max_rel_error < 1e-4

    def test_constant_function_has_zero_grads(self):
        ps = _params_from({"w": [1.0, -2.0]})
        report = grad_check(lambda p: Tensor(np.float64(3.5)), ps)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_grad_check_requires_f64(self):
        ps = ParamSet({"w": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ValueError):
            grad_check(lambda p: sum_(p["w"]), ps)


class TestParamSet:
    """Values and gradient slots live flat, in the mapping's order; each
    parameter's data and grad are views into them."""

    SHAPES = {"w": (3, 2), "b": (2,), "s": (), "u": (4, 5)}

    def _params(self):
        rng = np.random.default_rng(4)
        return _params_from({n: rng.normal(size=s) for n, s in self.SHAPES.items()})

    @staticmethod
    def assert_views(ps):
        lo = 0
        for name, p in ps.items():
            hi = lo + p.data.size
            assert np.shares_memory(p.data, ps.data) and np.shares_memory(p.grad, ps.grad), name
            np.testing.assert_array_equal(p.data.reshape(-1), ps.data[lo:hi])
            np.testing.assert_array_equal(p.grad.reshape(-1), ps.grad[lo:hi])
            lo = hi
        assert lo == ps.data.size == ps.grad.size == ps.num_values()

    def test_flat_layout_in_mapping_order(self):
        rng = np.random.default_rng(4)
        values = {n: rng.normal(size=s) for n, s in self.SHAPES.items()}
        ps = _params_from(values)
        assert {n: p.shape for n, p in ps.items()} == self.SHAPES and ps.names() == list(self.SHAPES)
        self.assert_views(ps)
        np.testing.assert_array_equal(ps.data, np.concatenate(
            [values[n].reshape(-1) for n in self.SHAPES]))
        ps["b"].grad[...] = 7.0
        np.testing.assert_array_equal(ps.grad, [0] * 6 + [7, 7] + [0] * 21)

    def test_views_survive_whole_set_write_and_grad_check(self):
        ps = self._params()
        ps.data[...] = 0.5
        self.assert_views(ps)
        np.testing.assert_array_equal(ps.data, 0.5)
        x = Tensor(np.ones((4, 3)))
        report = grad_check(lambda p: add(sum_(mul(add(matmul(x, p["w"]), p["b"]), p["s"])),
                                          sum_(mul(p["u"], p["u"]))), ps)
        assert report.passed
        self.assert_views(ps)
        assert np.all(ps.grad != 0)

    def test_second_dtype_refused(self):
        with pytest.raises(ValueError, match="one dtype"):
            ParamSet({"w": np.zeros(3, dtype=np.float32), "b": np.zeros(3, dtype=np.float64)})
        assert ParamSet({"w": np.zeros(3, dtype=np.float32)}).data.dtype == np.float32


class TestLstmCell:
    def _make_params(self, d, h, rng, dtype=np.float64):
        return ParamSet({"wx": rng.normal(size=(d, 4 * h)).astype(dtype),
                         "wh": rng.normal(size=(h, 4 * h)).astype(dtype),
                         "b": rng.normal(size=(4 * h,)).astype(dtype)})

    def test_zero_everything_gives_zero_h(self):
        ps = ParamSet({"wx": np.zeros((2, 12)), "wh": np.zeros((3, 12)), "b": np.zeros(12)})
        h, c = lstm_cell_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                              Tensor(np.zeros((1, 3))), ps)
        np.testing.assert_allclose(h.data, 0.0)
        np.testing.assert_allclose(c.data, 0.0)

    def test_saturated_forget_gate_copies_cell(self):
        d, h = 2, 3
        b = np.zeros(4 * h)
        b[0:h] = -50.0   # input gate ~ 0
        b[h:2 * h] = 50.0  # forget gate ~ 1
        ps = ParamSet({"wx": np.zeros((d, 4 * h)), "wh": np.zeros((h, 4 * h)), "b": b})
        c_prev = Tensor(np.array([[0.3, -0.2, 0.9]]))
        _, c = lstm_cell_step(Tensor(np.ones((1, d))), Tensor(np.zeros((1, h))), c_prev, ps)
        np.testing.assert_allclose(c.data, c_prev.data, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(9)
        d, h, batch = 3, 3, 2
        ps = self._make_params(d, h, rng)
        x = rng.normal(size=(batch, d))
        h0 = rng.normal(size=(batch, h))
        c0 = rng.normal(size=(batch, h))
        ht, ct = lstm_cell_step(Tensor(x), Tensor(h0), Tensor(c0), ps)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        wx, wh, b = ps["wx"].data, ps["wh"].data, ps["b"].data
        for n in range(batch):
            for j in range(h):
                zi = b[j] + sum(x[n, a] * wx[a, j] for a in range(d)) \
                    + sum(h0[n, a] * wh[a, j] for a in range(h))
                zf = b[h + j] + sum(x[n, a] * wx[a, h + j] for a in range(d)) \
                    + sum(h0[n, a] * wh[a, h + j] for a in range(h))
                zg = b[2 * h + j] + sum(x[n, a] * wx[a, 2 * h + j] for a in range(d)) \
                    + sum(h0[n, a] * wh[a, 2 * h + j] for a in range(h))
                zo = b[3 * h + j] + sum(x[n, a] * wx[a, 3 * h + j] for a in range(d)) \
                    + sum(h0[n, a] * wh[a, 3 * h + j] for a in range(h))
                c_ref = sig(zf) * c0[n, j] + sig(zi) * math.tanh(zg)
                h_ref = sig(zo) * math.tanh(c_ref)
                assert abs(ct.data[n, j] - c_ref) < 1e-6
                assert abs(ht.data[n, j] - h_ref) < 1e-6

    def test_grad_check(self):
        rng = np.random.default_rng(10)
        d, h = 2, 2
        ps = self._make_params(d, h, rng)
        x = rng.normal(size=(2, d))
        h0 = rng.normal(size=(2, h))
        c0 = rng.normal(size=(2, h))

        def f(p):
            ht, ct = lstm_cell_step(Tensor(x), Tensor(h0), Tensor(c0), p)
            return sum_(add(mul(ht, ht), ct))

        assert grad_check(f, ps).passed


class TestLstmSequence:
    # row 0 stops early, row 1 is masked at every step, row 2 has gaps,
    # and no row takes step 4
    MASK = np.array([[True, True, True, False, False, False],
                     [False, False, False, False, False, False],
                     [True, False, True, True, False, True]])

    def _params(self, rng, b=3, t=6, d=2, h=3):
        return _params_from({"x": rng.normal(size=(b, t, d)),
                             "wx": rng.normal(size=(d, 4 * h)),
                             "wh": rng.normal(size=(h, 4 * h)),
                             "b": rng.normal(size=(4 * h,))})

    @staticmethod
    def _stepped(p, mask):
        """The per-step formulation: lstm_cell_step and a masked blend."""
        b, t = mask.shape
        hid = p["wh"].shape[0]
        h = c = Tensor(np.zeros((b, hid)))
        states = []
        for s in range(t):
            h_new, c_new = lstm_cell_step(slice_(p["x"], (slice(None), s)), h, c, p)
            step = mask[:, s].astype(np.float64)[:, None]
            h = add(mul(h_new, step), mul(h, 1.0 - step))
            c = add(mul(c_new, step), mul(c, 1.0 - step))
            states += [h, c]
        return states

    def test_grad_check_ragged_masks(self):
        rng = np.random.default_rng(30)
        ps = self._params(rng)
        weights = Tensor(rng.normal(size=(3, 6, 2, 3)))
        report = grad_check(lambda p: sum_(mul(lstm_sequence(p["x"], self.MASK, p), weights)), ps)
        assert report.passed, repr(report)

    def test_matches_stepped_cells(self):
        rng = np.random.default_rng(31)
        ps = self._params(rng)
        weights = rng.normal(size=(3, 6, 2, 3))
        with Tape() as tape:
            states = lstm_sequence(ps["x"], self.MASK, ps)
            loss = sum_(mul(states, Tensor(weights)))
        backward(tape, loss, ps)
        assert len(tape) == 3
        fused = {name: p.grad.copy() for name, p in ps.items()}

        with Tape() as tape:
            stepped = self._stepped(ps, self.MASK)   # h_0, c_0, h_1, c_1, ...
            stack = concat([reshape(s, (3, 1, 1, 3)) for s in stepped], axis=1)
            loss = sum_(mul(stack, Tensor(weights.reshape(3, 12, 1, 3))))
        backward(tape, loss, ps)
        np.testing.assert_allclose(states.data.reshape(3, 12, 1, 3), stack.data,
                                   rtol=0, atol=1e-12)
        for name, p in ps.items():
            np.testing.assert_allclose(fused[name], p.grad, rtol=1e-12, atol=1e-12,
                                       err_msg=name)
        # masked rows carry: row 1 stays at zero, row 0 ends at its step-2 state
        np.testing.assert_array_equal(states.data[1], 0.0)
        np.testing.assert_array_equal(states.data[0, 5], states.data[0, 2])

    def test_taped_and_untaped_forwards_agree(self):
        rng = np.random.default_rng(32)
        ps = self._params(rng)
        untaped = lstm_sequence(ps["x"], self.MASK, ps).data
        with Tape():
            taped = lstm_sequence(ps["x"], self.MASK, ps).data
        np.testing.assert_allclose(taped, untaped, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(33)
        ps = self._params(rng)
        with pytest.raises(ShapeError, match="mask"):
            lstm_sequence(ps["x"], self.MASK[:, :5], ps)
        with pytest.raises(ShapeError, match="wx"):
            lstm_sequence(Tensor(np.zeros((3, 6, 5))), self.MASK, ps)


class TestAttention:
    def test_single_key_returns_that_value(self):
        rng = np.random.default_rng(11)
        q = Tensor(rng.normal(size=(3, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 5)))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=0), rtol=1e-6)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(12)
        k_row = rng.normal(size=(1, 4))
        k = Tensor(np.repeat(k_row, 5, axis=0))
        v = Tensor(rng.normal(size=(5, 2)))
        q = Tensor(rng.normal(size=(2, 4)))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data.mean(0, keepdims=True), 2, 0),
                                   rtol=1e-6)

    def test_two_by_two_hand_case(self):
        q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = scaled_dot_attention(q, k, v)
        s = 1.0 / math.sqrt(2.0)
        w00 = math.exp(s) / (math.exp(s) + math.exp(0.0))
        row0 = w00 * v.data[0] + (1 - w00) * v.data[1]
        row1 = (1 - w00) * v.data[0] + w00 * v.data[1]
        np.testing.assert_allclose(out.data, np.stack([row0, row1]), rtol=1e-6)

    def test_rows_sum_to_one_over_unmasked(self):
        # with v = identity, the output rows are the attention weights
        rng = np.random.default_rng(13)
        tk = 6
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(tk, 3)))
        v = Tensor(np.eye(tk))
        mask = np.array([True, True, False, True, False, True])
        weights = scaled_dot_attention(q, k, v, mask=mask).data
        np.testing.assert_allclose(weights[:, ~mask], 0.0, atol=1e-9)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_all_masked_rows_are_zero(self):
        rng = np.random.default_rng(14)
        q = Tensor(rng.normal(size=(2, 3)))
        k = Tensor(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=(4, 2)))
        out = scaled_dot_attention(q, k, v, mask=np.zeros(4, dtype=bool))
        np.testing.assert_allclose(out.data, 0.0)

    def test_mask_broadcasts_over_leading_axes(self):
        # a (B, 1, Tk) mask serves every head of (B, H, T, d) inputs; the
        # batch row with no valid key comes back as zeros
        rng = np.random.default_rng(17)
        q = rng.normal(size=(3, 2, 4, 5))
        k = rng.normal(size=(3, 2, 6, 5))
        v = rng.normal(size=(3, 2, 6, 3))
        mask = np.array([[1, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=bool)
        out = scaled_dot_attention(q, k, v, mask=mask[:, None]).data
        for i in range(3):
            for h in range(2):
                if mask[i].any():
                    ref = scaled_dot_attention(q[i, h], k[i, h], v[i, h], mask=mask[i]).data
                else:
                    ref = np.zeros((4, 3))
                np.testing.assert_allclose(out[i, h], ref, rtol=0, atol=1e-12)

    def test_mask_must_cover_keys(self):
        q, k, v = (Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeError, match="mask"):
            scaled_dot_attention(q, k, v, mask=np.ones(3, dtype=bool))

    def test_grad_check_with_mask(self):
        rng = np.random.default_rng(15)
        ps = _params_from({
            "q": rng.normal(size=(2, 3, 4)),
            "k": rng.normal(size=(2, 5, 4)),
            "v": rng.normal(size=(2, 5, 3)),
        })
        mask = np.array([[True, True, True, False, False],
                         [True, False, True, True, True]])

        def f(p):
            out = scaled_dot_attention(p["q"], p["k"], p["v"], mask=mask)
            return sum_(mul(out, out))

        assert grad_check(f, ps).passed


class TestOuterFusion:
    def test_hand_enumerated_augmented_case(self):
        out = outer_fusion([Tensor([1.0]), Tensor([2.0]), Tensor([3.0])], augment=True)
        np.testing.assert_allclose(out.data, [1.0, 3.0, 2.0, 6.0, 1.0, 3.0, 2.0, 6.0])

    def test_zero_vector_without_augment_kills_everything(self):
        rng = np.random.default_rng(16)
        out = outer_fusion([Tensor(rng.normal(size=4)), Tensor(np.zeros(3))], augment=False)
        np.testing.assert_allclose(out.data, 0.0)

    def test_size_formula(self):
        rng = np.random.default_rng(17)
        vs = [Tensor(rng.normal(size=2)), Tensor(rng.normal(size=3)), Tensor(rng.normal(size=4))]
        assert outer_fusion(vs, augment=True).shape == (3 * 4 * 5,)
        assert outer_fusion(vs, augment=False).shape == (2 * 3 * 4,)

    def test_multilinearity(self):
        rng = np.random.default_rng(18)
        a, b = rng.normal(size=3), rng.normal(size=4)
        base = outer_fusion([Tensor(a), Tensor(b)], augment=False).data
        scaled = outer_fusion([Tensor(2.5 * a), Tensor(b)], augment=False).data
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-9)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 3))
        batched = outer_fusion([Tensor(a), Tensor(b)], augment=True).data
        for i in range(3):
            single = outer_fusion([Tensor(a[i]), Tensor(b[i])], augment=True).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-9)

    def test_grad_check(self):
        rng = np.random.default_rng(20)
        ps = _params_from({"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(2, 3))})

        def f(p):
            out = outer_fusion([p["a"], p["b"]], augment=True)
            return sum_(mul(out, out))

        assert grad_check(f, ps).passed

    @staticmethod
    def _chained(vectors, augment):
        """The per-factor formulation: concat a ones column, then chain
        broadcast ``mul``s of (B, p, 1) and (B, 1, q) views."""
        ts = list(vectors)
        one_dim = all(t.ndim == 1 for t in ts)
        if one_dim:
            ts = [reshape(t, (1, -1)) for t in ts]
        batch = ts[0].shape[0]
        if augment:
            ones = Tensor(np.ones((batch, 1), dtype=ts[0].data.dtype))
            ts = [concat([ones, t], axis=1) for t in ts]
        out = ts[0]
        for t in ts[1:]:
            p, q = out.shape[1], t.shape[1]
            out = reshape(mul(reshape(out, (batch, p, 1)), reshape(t, (batch, 1, q))),
                          (batch, p * q))
        return reshape(out, (-1,)) if one_dim else out

    @staticmethod
    def _factors(rng, ways, batch):
        lead = () if batch is None else (batch,)
        return {f"x{i}": rng.normal(size=lead + (i + 2,)) for i in range(ways)}

    CASES = [(ways, augment, batch) for ways in (2, 3, 4) for augment in (True, False)
             for batch in (None, 3)]

    @pytest.mark.parametrize("ways,augment,batch", CASES)
    def test_grad_check_fused(self, ways, augment, batch):
        rng = np.random.default_rng(22)
        ps = _params_from(self._factors(rng, ways, batch))
        size = math.prod(i + 2 + augment for i in range(ways))
        weights = Tensor(rng.normal(size=(size,) if batch is None else (batch, size)))

        def f(p):
            return sum_(mul(outer_fusion([p[n] for n in p], augment=augment), weights))

        report = grad_check(f, ps, eps=1e-5, tol=1e-4)
        assert report.passed, repr(report)

    @pytest.mark.parametrize("ways,augment,batch", CASES)
    def test_matches_chained_mul(self, ways, augment, batch):
        rng = np.random.default_rng(23)
        arrays = self._factors(rng, ways, batch)
        for dtype in (np.float32, np.float64):
            xs = [Tensor(a.astype(dtype)) for a in arrays.values()]
            np.testing.assert_array_equal(outer_fusion(xs, augment).data,
                                          self._chained(xs, augment).data)
        ps = _params_from(arrays)
        weights = Tensor(rng.normal(size=self._chained(
            [ps[n] for n in ps], augment).shape))
        grads = []
        for fn in (outer_fusion, self._chained):
            with Tape() as tape:
                loss = sum_(mul(fn([ps[n] for n in ps], augment), weights))
            backward(tape, loss, ps)
            grads.append({n: p.grad.copy() for n, p in ps.items()})
            if fn is outer_fusion:
                assert len(tape) == 3  # the fusion, the weighting and the sum
        for n in ps:
            np.testing.assert_allclose(grads[0][n], grads[1][n], rtol=1e-12, atol=1e-15,
                                       err_msg=n)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="at least 2"):
            outer_fusion([Tensor(np.ones(3))])
        with pytest.raises(ShapeError, match="all 1-D"):
            outer_fusion([Tensor(np.ones(3)), Tensor(np.ones((2, 3)))])
        with pytest.raises(ShapeError, match="empty"):
            outer_fusion([Tensor(np.ones(3)), Tensor(np.ones(0))])
        with pytest.raises(ShapeError, match="batch sizes"):
            outer_fusion([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])


class TestDeterminism:
    def test_forward_is_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        w = rng.normal(size=(6, 3)).astype(np.float32)

        def run():
            return softmax(matmul(Tensor(x), Tensor(w)), axis=-1).data

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_report_repr_mentions_status(self):
        rep = GradCheckReport(per_param={"w": 1e-9}, eps=1e-5, tol=1e-4)
        assert "ok" in repr(rep)
