"""Tests for the reverse-mode engine.

Every primitive gets a forward oracle (hand arithmetic or an explicit
loop) and a finite-difference gradient check on randomized small shapes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msa_forge.autodiff import (
    MASK_BIAS,
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
    linear,
    linear_recurrence,
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
    tanh,
    transpose,
)
from msa_forge import autodiff as ad
from msa_forge.errors import ShapeError
from msa_forge.models import Batch, ModalityInput, ModelConfig, build_model
from reference_kernels import (affine_per_op, attention_per_op, lstm_sequence_batch_major,
                               lstm_single, memory_stepped, outer_fusion_broadcast, sum_)


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
        report = grad_check(
            lambda p: sum_(mul(lstm_sequence([p["x"]], [self.MASK], [p]), weights)), ps)
        assert report.passed, repr(report)

    def test_matches_stepped_cells(self):
        rng = np.random.default_rng(31)
        ps = self._params(rng)
        weights = rng.normal(size=(3, 6, 2, 3))
        with Tape() as tape:
            states = lstm_sequence([ps["x"]], [self.MASK], [ps])
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
        untaped = lstm_sequence([ps["x"]], [self.MASK], [ps]).data
        with Tape():
            taped = lstm_sequence([ps["x"]], [self.MASK], [ps]).data
        np.testing.assert_allclose(taped, untaped, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(33)
        ps = self._params(rng)
        with pytest.raises(ShapeError, match="mask"):
            lstm_sequence([ps["x"]], [self.MASK[:, :5]], [ps])
        with pytest.raises(ShapeError, match="wx"):
            lstm_sequence([Tensor(np.zeros((3, 6, 5)))], [self.MASK], [ps])
        with pytest.raises(ShapeError, match="one mask and one parameter set per input"):
            lstm_sequence([ps["x"], ps["x"]], [self.MASK], [ps, ps])
        with pytest.raises(ShapeError, match="one mask and one parameter set per input"):
            lstm_sequence([], [], [])
        with pytest.raises(ShapeError, match=r"\(batch, steps\)"):
            lstm_sequence([ps["x"], Tensor(np.zeros((3, 5, 2)))], [self.MASK, self.MASK[:, :5]],
                          [ps, ps])


def _taped(fn, params: ParamSet, weights: np.ndarray):
    """The output of ``fn(params)``, the gradients of sum(out * weights),
    and the number of tape records."""
    with Tape() as tape:
        out = fn(params)
        loss = sum_(mul(out, Tensor(weights)))
    backward(tape, loss, params)
    return out.data, {name: p.grad.copy() for name, p in params.items()}, len(tape) - 2


def _assert_grads_close(grads, ref_grads):
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=1e-12, atol=1e-300, err_msg=name)
        assert np.abs(g).max() > 0, name


class TestLockstepLstm:
    """Two or three LSTMs in one lstm_sequence call equal separate passes of
    the single-LSTM reference: f32 states bit for bit, with and without a
    tape, and f64 gradients within 1e-12."""

    HIDDEN, DIMS = (3, 2, 4), (2, 3, 1)
    # group 0 never takes row 1 and nothing takes step 3; at step 4 only
    # group 1 (and group 2) step; at step 1 only row 0 of group 0 steps
    RAGGED = [np.array([[1, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 1, 1]]),
              np.array([[0, 1, 1, 0, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1, 1]]),
              np.array([[1, 1, 1, 0, 1, 1, 1], [1, 1, 1, 0, 1, 0, 1], [1, 1, 1, 0, 1, 1, 0]])]
    # steps 1-3 are taken by every row of every group, so they skip the blends
    DENSE = [np.array([[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 0]]),
             np.ones((3, 5)),
             np.array([[0, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]])]

    def _params(self, groups, steps, dtype, seed=40):
        rng = np.random.default_rng(seed)
        arrays = {}
        for k, (hid, d) in enumerate(zip(self.HIDDEN[:groups], self.DIMS[:groups])):
            arrays.update({f"x{k}": rng.normal(size=(3, steps, d)),
                           f"wx{k}": rng.normal(size=(d, 4 * hid)) * 0.6,
                           f"wh{k}": rng.normal(size=(hid, 4 * hid)) * 0.6,
                           f"b{k}": rng.normal(size=(4 * hid,))})
        return ParamSet({name: a.astype(dtype) for name, a in arrays.items()})

    @staticmethod
    def _group(p, k):
        return {"wx": p[f"wx{k}"], "wh": p[f"wh{k}"], "b": p[f"b{k}"]}

    def _fused(self, masks):
        return lambda p: lstm_sequence([p[f"x{k}"] for k in range(len(masks))],
                                       [m.astype(bool) for m in masks],
                                       [self._group(p, k) for k in range(len(masks))])

    def _separate(self, masks):
        return lambda p: concat([lstm_single(p[f"x{k}"], m.astype(bool), self._group(p, k))
                                 for k, m in enumerate(masks)], axis=-1)

    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("masks", [RAGGED, DENSE], ids=["ragged", "dense"])
    def test_f32_states_bit_equal_to_separate_passes(self, groups, masks):
        masks = masks[:groups]
        p = self._params(groups, masks[0].shape[1], np.float32)
        fused, separate = self._fused(masks), self._separate(masks)
        assert fused(p).data.tobytes() == separate(p).data.tobytes()
        with Tape() as tape:
            taped = fused(p)
        assert len(tape) == 1
        with Tape():
            assert taped.data.tobytes() == separate(p).data.tobytes()

    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("masks", [RAGGED, DENSE], ids=["ragged", "dense"])
    def test_f64_gradients_match_separate_passes(self, groups, masks):
        masks = masks[:groups]
        p = self._params(groups, masks[0].shape[1], np.float64)
        weights = np.random.default_rng(41).normal(
            size=(3, masks[0].shape[1], 2, sum(self.HIDDEN[:groups])))
        out, grads, records = _taped(self._fused(masks), p, weights)
        ref_out, ref_grads, _ = _taped(self._separate(masks), p, weights)
        assert records == 1
        np.testing.assert_array_equal(out, ref_out)
        _assert_grads_close(grads, ref_grads)

    def test_masked_rows_carry_per_group(self):
        p = self._params(2, 7, np.float64)
        states = self._fused(self.RAGGED[:2])(p).data
        np.testing.assert_array_equal(states[1, :, :, :3], 0.0)    # group 0 never takes row 1
        np.testing.assert_array_equal(states[:, 3], states[:, 2])  # nothing takes step 3
        np.testing.assert_array_equal(states[:, 4, :, :3], states[:, 2, :, :3])
        assert np.abs(states[:, 4, :, 3:] - states[:, 3, :, 3:]).max() > 0

    def test_second_replay_raises(self):
        # the backward frees the gate cache before the weight gradients
        p = self._params(2, 5, np.float64)
        with Tape() as tape:
            loss = sum_(self._fused(self.DENSE[:2])(p))
        backward(tape, loss, p)
        with pytest.raises(RuntimeError, match="replay a tape once"):
            backward(tape, loss, p)

    def test_no_step_taken(self):
        p = self._params(2, 3, np.float64)
        masks = [np.zeros((3, 3), dtype=bool)] * 2
        out, grads, records = _taped(self._fused(masks), p,
                                     np.ones((3, 3, 2, sum(self.HIDDEN[:2]))))
        np.testing.assert_array_equal(out, 0.0)
        assert records == 1
        for name, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    def test_untaped_pass_projects_one_step_at_a_time(self):
        # no (B, T, 4, H) gate buffer and no whole-sequence projection: the
        # pass allocates little beyond its (B, T, 2, H) result
        steps, hid = 400, 8
        rng = np.random.default_rng(42)
        ps = [{"wx": Tensor(rng.normal(size=(2, 4 * hid))),
               "wh": Tensor(rng.normal(size=(hid, 4 * hid))),
               "b": Tensor(rng.normal(size=(4 * hid,)))} for _ in range(2)]
        xs = [Tensor(rng.normal(size=(4, steps, 2))) for _ in range(2)]
        masks = [rng.random((4, steps)) < 0.8 for _ in range(2)]
        tracemalloc.start()
        try:
            states = lstm_sequence(xs, masks, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gate_buffer = 4 * steps * 4 * (2 * hid) * 8
        assert peak - states.data.nbytes < gate_buffer / 4, (peak, states.data.nbytes)

    def test_untaped_last_state_builds_no_states(self):
        # with last_h the pass, and ef_lstm's eval forward, allocate less than
        # the (B, T, 2, H) states they no longer build
        steps, hid, batch = 400, 16, 12
        rng = np.random.default_rng(43)
        ps = [{"wx": Tensor(rng.normal(size=(2, 4 * hid))),
               "wh": Tensor(rng.normal(size=(hid, 4 * hid))),
               "b": Tensor(rng.normal(size=(4 * hid,)))} for _ in range(2)]
        xs = [Tensor(rng.normal(size=(batch, steps, 2))) for _ in range(2)]
        ends = rng.integers(0, steps + 1, size=batch)
        masks = [np.arange(steps) < ends[:, None]] * 2
        state_bytes = batch * steps * 2 * (2 * hid) * 8
        tracemalloc.start()
        try:
            h_last = lstm_sequence(xs, masks, ps, last_h=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h_last.shape == (batch, 2 * hid)
        assert peak < state_bytes, (peak, state_bytes)

        feature_dims = {"text": 1, "audio": 1}
        model = build_model(ModelConfig(model_name="ef_lstm", feature_dims=feature_dims,
                                        hidden_dims={"text": hid, "audio": hid},
                                        post_fusion_dim=4, seed=1, dtype="f64"))
        batch_in = Batch(modalities={
            m: ModalityInput(data=rng.normal(size=(batch, steps, d)),
                             mask=np.arange(steps) < ends[:, None])
            for m, d in feature_dims.items()}, labels={"m": np.zeros(batch)})
        state_bytes = batch * steps * 2 * hid * 8
        tracemalloc.start()
        try:
            model.forward(batch_in)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the forward's own padded and concatenated copies of the input count as input
        input_bytes = sum(m.data.nbytes for m in batch_in.modalities.values())
        assert peak - 2 * input_bytes < state_bytes, (peak, input_bytes, state_bytes)


def _assert_same_bits(a: np.ndarray, b: np.ndarray, what: str = "") -> None:
    assert a.dtype == b.dtype and a.shape == b.shape, (what, a.dtype, b.dtype, a.shape, b.shape)
    np.testing.assert_array_equal(a, b, err_msg=what)
    assert a.tobytes() == b.tobytes(), what


class TestStepMajorLstm:
    """lstm_sequence keeps its gate cache step-major. The batch-major kernel it
    replaced runs the same GEMMs on the same operands and the same elementwise
    ops on the same values, so the states and every adjoint equal it bit for
    bit: f32 and f64, with and without a tape, for one to three groups of
    unequal hidden sizes under full, partial and no-step masks."""

    HIDDEN, DIMS, BATCH = (32, 16, 16), (8, 5, 3), 5

    def _masks(self, kind, groups, steps, rng, batch=BATCH):
        if kind != "partial":
            return [np.full((batch, steps), kind == "full")] * groups
        # each group's rows stop at their own lengths (0 included); row k of
        # group k runs to the end, and group 0 skips a step in its first row
        masks = []
        for k in range(groups):
            lengths = rng.integers(0, steps + 1, size=batch)
            lengths[k] = steps
            mask = np.arange(steps)[None] < lengths[:, None]
            if k == 0 and steps > 2:
                mask[0, steps // 2] = False
            masks.append(mask)
        return masks

    def _arrays(self, groups, batch, steps, dtype, rng):
        arrays = {}
        for k, (hid, d) in enumerate(zip(self.HIDDEN[:groups], self.DIMS[:groups])):
            arrays.update({f"x{k}": rng.normal(size=(batch, steps, d)),
                           f"wx{k}": rng.normal(size=(d, 4 * hid)) * 0.4,
                           f"wh{k}": rng.normal(size=(hid, 4 * hid)) * 0.4,
                           f"b{k}": rng.normal(size=(4 * hid,))})
        return {name: a.astype(dtype) for name, a in arrays.items()}

    def _assert_equal_to_batch_major(self, arrays, masks, weights):
        for taped in (False, True):
            out, grads = self._run(lstm_sequence, arrays, masks, weights, taped)
            ref, ref_grads = self._run(lstm_sequence_batch_major, arrays, masks, weights, taped)
            _assert_same_bits(out, ref, f"states, taped={taped}")
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                _assert_same_bits(grads[name], ref_grads[name], name)
        return out

    def _run(self, kernel, arrays, masks, weights, taped):
        params = ParamSet({name: a.copy() for name, a in arrays.items()})
        groups = range(len(masks))

        def fn(p):
            return kernel([p[f"x{k}"] for k in groups], masks,
                          [{w: p[f"{w}{k}"] for w in ("wx", "wh", "b")} for k in groups])
        if not taped:
            return fn(params).data, {}
        out, grads, records = _taped(fn, params, weights)
        assert records == 1
        return out, grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("steps", [1, 300])
    @pytest.mark.parametrize("kind", ["full", "partial", "none"])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_bit_equal_to_batch_major_kernel(self, groups, kind, steps, dtype):
        rng = np.random.default_rng(60 + groups)
        arrays = self._arrays(groups, self.BATCH, steps, dtype, rng)
        masks = self._masks(kind, groups, steps, rng)
        weights = rng.normal(size=(self.BATCH, steps, 2, sum(self.HIDDEN[:groups]))).astype(dtype)
        out = self._assert_equal_to_batch_major(arrays, masks, weights)
        if kind == "none":
            np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_steps_no_row_takes(self, groups, dtype):
        # both passes run a step that no row takes in any group, here the last
        # three and one in the middle, and blend it away. 12 rows and hidden
        # sizes that are multiples of 4 make the untaped pass step a sorted
        # prefix of at least 8 rows through them.
        batch, steps = 12, 12
        rng = np.random.default_rng(70 + groups)
        arrays = self._arrays(groups, batch, steps, dtype, rng)
        masks = self._masks("partial", groups, steps - 3, rng, batch)
        masks = [np.pad(m, ((0, 0), (0, 3))) for m in masks]
        for m in masks:
            m[:, 4] = False
        assert not np.logical_or.reduce(masks)[:, [4, 9, 10, 11]].any()
        weights = rng.normal(size=(batch, steps, 2, sum(self.HIDDEN[:groups]))).astype(dtype)
        out = self._assert_equal_to_batch_major(arrays, masks, weights)
        np.testing.assert_array_equal(out[:, 4], out[:, 3])
        np.testing.assert_array_equal(out[:, 9:], np.repeat(out[:, 8:9], 3, axis=1))


class TestLiveRowLstm:
    """Without a tape lstm_sequence steps only the rows still running, in an
    order sorted by each row's last valid step. Every row meets the same GEMMs
    and elementwise ops on the same values as in the all-rows batch-major
    kernel, so the states and the last h equal it bit for bit: any batch size
    around the 8-row floor, narrow and wide (>= 96) d and H, hidden sizes that
    take the live-row prefix (multiples of 4) and that step every row, one to
    three groups, f32 and f64, prefix masks, masks with gaps and empty rows."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_batch_major_kernel(self, data):
        batch = data.draw(st.sampled_from([1, 2, 7, 8, 9, 150, 256]), label="batch")
        groups = data.draw(st.integers(1, 3), label="groups")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        steps = data.draw(st.integers(1, 16), label="steps")
        wide = data.draw(st.booleans(), label="d and H >= 96")
        live_rows = data.draw(st.booleans(), label="hidden sizes multiples of 4")
        gaps = data.draw(st.booleans(), label="masks with gaps")
        empty_row = data.draw(st.booleans(), label="a row with no valid step")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lo, hi = (96, 129) if wide else (1, 40)
        xs, masks, params = [], [], []
        for _ in range(groups):
            d, hid = rng.integers(lo, hi, size=2)
            if live_rows:
                hid = 4 * max(1, hid // 4)
            xs.append(Tensor(rng.normal(size=(batch, steps, d)).astype(dtype)))
            arrays = {"wx": rng.normal(size=(d, 4 * hid)) / np.sqrt(d),
                      "wh": rng.normal(size=(hid, 4 * hid)) / np.sqrt(hid),
                      "b": rng.normal(size=(4 * hid,))}
            params.append({name: Tensor(a.astype(dtype)) for name, a in arrays.items()})
            if gaps:
                masks.append(rng.random((batch, steps)) < rng.uniform(0.2, 0.9))
            else:
                masks.append(np.arange(steps) < rng.integers(0, steps + 1, size=(batch, 1)))
        if empty_row:
            row = rng.integers(batch)
            for m in masks:
                m[row] = False
        ref = lstm_sequence_batch_major(xs, masks, params).data
        _assert_same_bits(lstm_sequence(xs, masks, params).data, ref, "states")
        _assert_same_bits(lstm_sequence(xs, masks, params, last_h=True).data,
                          np.ascontiguousarray(ref[:, -1, 0]), "last h")
        if empty_row:
            np.testing.assert_array_equal(ref[row], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_taped_last_h_equals_sliced_states(self, dtype):
        # one record whose backward hands the BPTT the adjoint slice_ builds
        rng = np.random.default_rng(44)
        masks = [np.arange(9) < rng.integers(0, 10, size=(12, 1)) for _ in range(2)]
        arrays = {}
        for k, (d, hid) in enumerate(((5, 8), (3, 4))):
            arrays.update({f"x{k}": rng.normal(size=(12, 9, d)),
                           f"wx{k}": rng.normal(size=(d, 4 * hid)) * 0.5,
                           f"wh{k}": rng.normal(size=(hid, 4 * hid)) * 0.5,
                           f"b{k}": rng.normal(size=(4 * hid,))})
        weights = rng.normal(size=(12, 12)).astype(dtype)

        def run(last):
            params = ParamSet({name: a.astype(dtype) for name, a in arrays.items()})
            return _taped(lambda p: last(
                [p["x0"], p["x1"]], masks,
                [{w: p[f"{w}{k}"] for w in ("wx", "wh", "b")} for k in range(2)]),
                params, weights)

        out, grads, records = run(lambda *a: lstm_sequence(*a, last_h=True))
        ref, ref_grads, ref_records = run(
            lambda *a: slice_(lstm_sequence(*a), (slice(None), -1, 0)))
        assert (records, ref_records) == (1, 2)
        _assert_same_bits(out, ref, "last h")
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            _assert_same_bits(grads[name], ref_grads[name], name)

    def test_row_order_and_counts(self):
        # rows end after steps 3, 9, 0 (no valid step), 9, 6, ... and the
        # rows still running form a prefix of the order, never below 8 rows
        ends = np.array([3, 9, 0, 9, 6, 1, 9, 2, 5, 7, 4, 8])
        valid = np.arange(10) < ends[:, None]
        valid[1, 4] = False   # a gap leaves row 1's end where it is
        order, live = ad._live_row_order(valid, [4, 8])
        np.testing.assert_array_equal(order, [1, 3, 6, 11, 9, 4, 8, 10, 0, 7, 5, 2])
        np.testing.assert_array_equal(live, [11, 10, 9, 8, 8, 8, 8, 8, 8, 8])
        # a hidden size of no multiple of 4, or 8 rows, steps every row in batch order
        for hids, rows in (([4, 6], 12), ([4, 8], 8)):
            order, live = ad._live_row_order(valid[:rows], hids)
            np.testing.assert_array_equal(order, np.arange(rows))
            np.testing.assert_array_equal(live, rows)

    def test_empty_batch(self):
        # a batch of no rows steps no row
        params = {"wx": Tensor(np.ones((2, 16))), "wh": Tensor(np.ones((4, 16))),
                  "b": Tensor(np.zeros(16))}
        x, mask = Tensor(np.ones((0, 3, 2))), np.ones((0, 3), dtype=bool)
        assert lstm_sequence([x], [mask], [params]).shape == (0, 3, 2, 4)
        assert lstm_sequence([x], [mask], [params], last_h=True).shape == (0, 4)

    @pytest.mark.parametrize("last_h", [False, True])
    def test_empty_batch_under_a_tape(self, last_h):
        # the taped pass returns empty states, an empty x adjoint and zero
        # weight gradients, not numpy's reshape error
        rng = np.random.default_rng(3)
        params = ParamSet({"wx": rng.normal(size=(2, 16)), "wh": rng.normal(size=(4, 16)),
                           "b": rng.normal(size=16)})
        x, mask = Tensor(np.ones((0, 3, 2))), np.ones((0, 3), dtype=bool)
        with Tape() as tape:
            out = lstm_sequence([x], [mask], [dict(params.items())], last_h=last_h)
            loss = sum_(out)
        assert out.shape == ((0, 4) if last_h else (0, 3, 2, 4))
        backward(tape, loss, params)
        for name, p in params.items():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.data), err_msg=name)


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


class TestAttentionHeads:
    """``heads=H`` splits the last axis of q, k and v inside the one record:
    a 3-D call equals the 4-D call on heads split on the tape by reshape and
    transpose records, byte for byte, forward and adjoints, at f32 and f64."""

    B, TQ, TK, H, D, DV = 3, 4, 6, 4, 2, 3
    # row 0 has a gap, row 1 no valid key, row 2 every key
    MASK = np.array([[1, 1, 0, 1, 0, 0], [0] * 6, [1] * 6], dtype=bool)

    def run(self, arrays, mask, heads, presplit, dtype):
        ps = ParamSet({n: a.astype(dtype) for n, a in arrays.items()})
        weights = np.random.default_rng(2).normal(size=(self.B, self.TQ, self.H * self.DV))

        def split(t):  # (B, T, H·d) -> (B, H, T, d)
            return transpose(reshape(t, t.shape[:2] + (heads, -1)), (0, 2, 1, 3))

        with Tape() as tape:
            if presplit:
                out = scaled_dot_attention(split(ps["q"]), split(ps["k"]), split(ps["v"]),
                                           mask=None if mask is None else mask[:, None])
                out = reshape(transpose(out, (0, 2, 1, 3)), (self.B, self.TQ, -1))
            else:
                out = scaled_dot_attention(ps["q"], ps["k"], ps["v"], mask=mask, heads=heads)
            loss = sum_(mul(out, Tensor(weights.astype(dtype))))
        backward(tape, loss, ps)
        return out.data, {n: p.grad.copy() for n, p in ps.items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_presplit_call(self, heads, masked, dtype):
        rng = np.random.default_rng(21)
        d, dv = self.H * self.D // heads, self.H * self.DV // heads
        arrays = {"q": rng.normal(size=(self.B, self.TQ, heads * d)),
                  "k": rng.normal(size=(self.B, self.TK, heads * d)),
                  "v": rng.normal(size=(self.B, self.TK, heads * dv))}
        mask = self.MASK if masked else None
        out, grads = self.run(arrays, mask, heads, False, dtype)
        ref_out, ref_grads = self.run(arrays, mask, heads, True, dtype)
        assert out.shape == (self.B, self.TQ, self.H * self.DV)
        assert out.tobytes() == ref_out.tobytes()
        for n in "qkv":
            assert grads[n].tobytes() == ref_grads[n].tobytes(), n
        if masked:
            np.testing.assert_array_equal(out[1], 0.0)
        untaped = scaled_dot_attention(*(Tensor(arrays[n].astype(dtype)) for n in "qkv"),
                                       mask=mask, heads=heads)
        assert untaped.data.tobytes() == out.tobytes()

    def test_one_record(self):
        rng = np.random.default_rng(22)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 8))) for _ in range(3))
        with Tape() as tape:
            scaled_dot_attention(q, k, v, mask=np.ones((2, 3), dtype=bool), heads=4)
        assert [r.op for r in tape.records] == ["scaled_dot_attention"]

    @pytest.mark.parametrize("heads, q_dim, v_dim", [(0, 4, 4), (-2, 4, 4), (3, 4, 6),
                                                     (2, 4, 3), (4, 2, 4)])
    def test_heads_must_split_q_and_v(self, heads, q_dim, v_dim):
        q, k = Tensor(np.zeros((2, 3, q_dim))), Tensor(np.zeros((2, 5, q_dim)))
        v = Tensor(np.zeros((2, 5, v_dim)))
        with pytest.raises(ShapeError, match="heads"):
            scaled_dot_attention(q, k, v, heads=heads)


class TestFusedAttention:
    """scaled_dot_attention is one record; it equals the per-op reference:
    f32 outputs bit for bit, f64 gradients within 1e-12."""

    EMPTY_ROW = np.array([[True, True, False, True, False], [False] * 5])

    @staticmethod
    def _arrays(case):
        rng = np.random.default_rng(16)
        lead, mask = (3, 2), np.array([[1, 1, 0, 1, 0, 0], [0] * 6, [1] * 6], dtype=bool)[:, None]
        if case != "heads":
            lead = (2,)
            mask = {"unmasked": None, "all_valid": np.ones((2, 5), dtype=bool),
                    "empty_row": TestFusedAttention.EMPTY_ROW}[case]
        tk = 6 if case == "heads" else 5
        arrays = {"q": rng.normal(size=lead + (4, 5)), "k": rng.normal(size=lead + (tk, 5)),
                  "v": rng.normal(size=lead + (tk, 3))}
        return arrays, mask, rng.normal(size=lead + (4, 3))

    CASES = ["unmasked", "all_valid", "empty_row", "heads"]

    @pytest.mark.parametrize("case", CASES)
    def test_f32_output_bit_equal_to_per_op(self, case):
        arrays, mask, _ = self._arrays(case)
        q, k, v = (Tensor(arrays[n].astype(np.float32)) for n in "qkv")
        ref = attention_per_op(q, k, v, mask).data
        assert scaled_dot_attention(q, k, v, mask=mask).data.tobytes() == ref.tobytes()
        with Tape() as tape:
            out = scaled_dot_attention(q, k, v, mask=mask)
        assert len(tape) == 1
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_f64_gradients_match_per_op(self, case):
        arrays, mask, weights = self._arrays(case)
        ps = _params_from(arrays)
        out, grads, records = _taped(
            lambda p: scaled_dot_attention(p["q"], p["k"], p["v"], mask=mask), ps, weights)
        ref_out, ref_grads, _ = _taped(
            lambda p: attention_per_op(p["q"], p["k"], p["v"], mask), ps, weights)
        assert records == 1
        np.testing.assert_array_equal(out, ref_out)
        _assert_grads_close(grads, ref_grads)
        if case in ("empty_row", "heads"):
            np.testing.assert_array_equal(out[1], 0.0)
            np.testing.assert_array_equal(grads["q"][1], 0.0)


class TestLinear:
    """linear is one record; it equals the matmul + add pair it replaced:
    f32 outputs bit for bit, 2-D f32 x and w gradients bit for bit (b's is
    ones @ g, where the add record sums), and 3-D f64 gradients within
    1e-12 (flattening the rows changes their summation)."""

    # (x shape, d_out): a pooled head's 2-D input, and the (B, T, d) inputs
    # of mult's projections, with T > 1 (a one-step batch is a matrix-vector
    # product per row, which BLAS sums in another order)
    SHAPES = [((5, 4), 3), ((32, 16), 1), ((3, 6, 4), 5), ((32, 20, 16), 16)]

    @staticmethod
    def _arrays(x_shape, d_out, seed=60):
        rng = np.random.default_rng(seed)
        return {"x": rng.normal(size=x_shape), "w": rng.normal(size=(x_shape[-1], d_out)),
                "b": rng.normal(size=(d_out,))}, rng.normal(size=x_shape[:-1] + (d_out,))

    @pytest.mark.parametrize("x_shape,d_out", SHAPES)
    def test_f32_output_bit_equal_to_per_op(self, x_shape, d_out):
        arrays, _ = self._arrays(x_shape, d_out)
        x, w, b = (Tensor(arrays[n].astype(np.float32)) for n in "xwb")
        ref = affine_per_op(x, w, b).data
        assert linear(x, w, b).data.tobytes() == ref.tobytes()
        with Tape() as tape:
            out = linear(x, w, b)
        assert len(tape) == 1 and tape.records[0].op == "linear"
        assert out.data.dtype == np.float32 and out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("x_shape,d_out", [s for s in SHAPES if len(s[0]) == 2])
    def test_2d_f32_gradients_bit_equal_to_per_op(self, x_shape, d_out):
        arrays, weights = self._arrays(x_shape, d_out)
        ps = ParamSet({n: a.astype(np.float32) for n, a in arrays.items()})
        weights = weights.astype(np.float32)
        out, grads, records = _taped(lambda p: linear(p["x"], p["w"], p["b"]), ps, weights)
        ref_out, ref_grads, _ = _taped(lambda p: affine_per_op(p["x"], p["w"], p["b"]),
                                       ps, weights)
        assert records == 1
        assert out.tobytes() == ref_out.tobytes()
        for name in "xw":
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        # the add record sums the bias adjoint; linear takes ones @ g
        assert grads["b"].tobytes() == (np.ones(x_shape[0], dtype=np.float32) @ weights).tobytes()

    @pytest.mark.parametrize("x_shape,d_out", [s for s in SHAPES if len(s[0]) == 3])
    def test_3d_f64_gradients_match_per_op(self, x_shape, d_out):
        arrays, weights = self._arrays(x_shape, d_out)
        ps = _params_from(arrays)
        out, grads, records = _taped(lambda p: linear(p["x"], p["w"], p["b"]), ps, weights)
        ref_out, ref_grads, _ = _taped(lambda p: affine_per_op(p["x"], p["w"], p["b"]),
                                       ps, weights)
        assert records == 1
        np.testing.assert_array_equal(out, ref_out)
        _assert_grads_close(grads, ref_grads)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_grad_check(self, x_shape):
        arrays, weights = self._arrays(x_shape, 2, seed=61)
        report = grad_check(lambda p: sum_(mul(linear(p["x"], p["w"], p["b"]), Tensor(weights))),
                            _params_from(arrays), eps=1e-5, tol=1e-4)
        assert report.passed, repr(report)

    def test_shape_errors_name_both_shapes(self):
        x, w, b = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones(5))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(4, 5, 1\)"):
            linear(x, Tensor(np.ones((4, 5, 1))), b)
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5,\)"):
            linear(x, Tensor(np.ones(5)), b)
        with pytest.raises(ShapeError, match=r"\(2, 3, 5\).*\(4, 5\)"):
            linear(Tensor(np.ones((2, 3, 5))), w, b)
        with pytest.raises(ShapeError, match=r"\(4,\).*\(4, 5\)"):
            linear(x, w, Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match=r"\(1, 5\).*\(4, 5\)"):
            linear(x, w, Tensor(np.ones((1, 5))))


class TestReductionProducts:
    """The reductions taken as BLAS matrix-vector products hold the
    arithmetic they state byte for byte: the attention's softmax denominator
    and its backward's row dot (weights @ ones), linear's bias gradient
    (ones @ g) and masked_mean's masked sum (mᵀ x). The attention's
    key-major row max gives the bytes of the max over the last axis."""

    DTYPES = [np.float32, np.float64]

    @staticmethod
    def _scores(dtype, tk):
        rng = np.random.default_rng(70)
        s = rng.normal(size=(3, 2, 5, tk)).astype(dtype)
        s[0, 0, 1] = 0.0
        s[0, 0, 1, ::2] = -0.0                 # signed zeros below a positive max
        s[0, 0, 1, -1] = 0.5
        s[0, 0, 2, ::3] = -0.0                 # signed zeros among random values
        s[0, 1, 2, tk // 2] = np.nan           # a NaN row
        masked = rng.random((3, tk)) < 0.5
        masked[1] = True                       # all-masked rows
        s[:, 1] += np.where(masked, MASK_BIAS, 0.0)[:, None, :].astype(dtype)
        return s

    @pytest.mark.parametrize("tk", [1, 5, 20, 33])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_key_major_max_equals_max_over_keys(self, dtype, tk):
        s = self._scores(dtype, tk)
        _assert_same_bits(ad._row_max(s), s.max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_row_max_keeps_the_weights(self, dtype):
        """Where a row's max is a zero, the two orders may pick zeros of
        other signs; the shifted exponentials stay the same bytes."""
        rng = np.random.default_rng(71)
        s = rng.choice(np.array([0.0, -0.0, -1.0, -2.5], dtype=dtype), size=(4, 6, 33))
        s[..., 0] = rng.choice(np.array([0.0, -0.0], dtype=dtype), size=(4, 6))
        got, ref = ad._row_max(s), s.max(axis=-1, keepdims=True)
        np.testing.assert_array_equal(got, ref)
        _assert_same_bits(np.exp(s - got), np.exp(s - ref))

    @staticmethod
    def _attention_by_products(q, k, v, mask, g):
        """The attention and its q, k, v adjoints for one head in numpy, the
        denominator and the row dot as products with a ones vector."""
        k_t = k.swapaxes(-1, -2)
        scale = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=q.dtype)
        s = (q @ k_t) * scale
        keep = np.ones(q.shape[:-1] + (1,), dtype=q.dtype)
        if mask is not None:
            s = s + np.where(mask[:, None, :], 0.0, MASK_BIAS).astype(q.dtype)
            keep = keep * mask.any(axis=-1)[:, None, None]
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        ones = np.ones(k.shape[-2], dtype=q.dtype)
        w = e / (e @ ones)[..., None]
        out = (w @ v) * keep
        g = g * keep
        d_w, dv = g @ v.swapaxes(-1, -2), w.swapaxes(-1, -2) @ g
        d_qk = (d_w - ((d_w * w) @ ones)[..., None]) * w * scale
        return out, d_qk @ k_t.swapaxes(-1, -2), (q.swapaxes(-1, -2) @ d_qk).swapaxes(-1, -2), dv

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attention_denominators_are_products(self, dtype, masked):
        rng = np.random.default_rng(72)
        q, k, v, g = (rng.normal(size=shape).astype(dtype)
                      for shape in [(3, 4, 5), (3, 7, 5), (3, 7, 6), (3, 4, 6)])
        mask = None
        if masked:
            mask = rng.random((3, 7)) < 0.6
            mask[0, 0], mask[2] = True, False   # row 2 has no valid key
        qt, kt, vt = Tensor(q), Tensor(k), Tensor(v)
        with Tape() as tape:
            out = scaled_dot_attention(qt, kt, vt, mask=mask)
        adjoints = {id(t): a for t, a in tape.records[0].backward(g)}
        ref_out, dq, dk, dv = self._attention_by_products(q, k, v, mask, g)
        _assert_same_bits(out.data, ref_out, "out")
        for t, ref in ((qt, dq), (kt, dk), (vt, dv)):
            _assert_same_bits(adjoints[id(t)], ref)
        if masked:
            np.testing.assert_array_equal(out.data[2], 0.0)

    @pytest.mark.parametrize("x_shape,d_out", [((5, 4), 3), ((32, 16), 1), ((3, 6, 4), 5),
                                               ((32, 20, 16), 16), ((32, 20, 16), 64)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear_bias_gradient_is_ones_times_adjoint(self, dtype, x_shape, d_out):
        rng = np.random.default_rng(73)
        x, w, b = (Tensor(rng.normal(size=shape).astype(dtype))
                   for shape in (x_shape, (x_shape[-1], d_out), (d_out,)))
        g = rng.normal(size=x_shape[:-1] + (d_out,)).astype(dtype)
        with Tape() as tape:
            linear(x, w, b)
        adjoints = {id(t): a for t, a in tape.records[0].backward(g)}
        g2 = g.reshape(-1, d_out)
        _assert_same_bits(adjoints[id(b)], np.ones(len(g2), dtype=dtype) @ g2)

    @pytest.mark.parametrize("shape", [(6, 9, 4), (150, 30, 40), (2, 3, 7, 5)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_masked_mean_is_batched_product(self, dtype, shape):
        rng = np.random.default_rng(74)
        x = rng.normal(size=shape).astype(dtype)
        mask = rng.random(shape[:-1]) < 0.7
        mask.reshape(-1, shape[-2])[0] = False              # an all-false row
        m = mask.astype(dtype)[..., None]
        counts = np.maximum(mask.sum(axis=-1), 1).astype(dtype)
        out = masked_mean(Tensor(x), mask).data
        _assert_same_bits(out, (m.swapaxes(-1, -2) @ x)[..., 0, :] / counts[..., None])
        np.testing.assert_array_equal(out.reshape(-1, shape[-1])[0], 0.0)


class TestMatmulAdjoints:
    def test_same_batch_operands_match_per_slice_products(self):
        """Operands that already have the product's batch shape take the
        path without broadcast_to and _unbroadcast; it gives each slice's
        2-D adjoints bit for bit."""
        rng = np.random.default_rng(62)
        a, b = (rng.normal(size=s).astype(np.float32) for s in ((2, 3, 4, 5), (2, 3, 5, 6)))
        g = rng.normal(size=(2, 3, 4, 6)).astype(np.float32)
        ga, gb = ad._matmul_adjoints(g, a, b)
        for i in np.ndindex(2, 3):
            assert ga[i].tobytes() == (g[i] @ b[i].T).tobytes()
            assert gb[i].tobytes() == (a[i].T @ g[i]).tobytes()


class TestSigmoidHelper:
    def test_matches_the_formula_and_saturates_without_a_warning(self):
        x = np.array([-1000.0, -100.0, -1.0, 0.0, 2.0, 100.0, 1000.0])
        for dtype in (np.float32, np.float64):
            xd = x.astype(dtype)
            y = sigmoid(xd).data
            assert y.dtype == dtype
            with np.errstate(over="ignore"):
                want = np.asarray(1.0, dtype) / (np.asarray(1.0, dtype) + np.exp(-xd))
            assert y.tobytes() == want.tobytes()
            assert y[0] == 0.0 and y[-1] == 1.0 and y[3] == 0.5

    def test_out_is_written_in_place(self):
        x = np.random.default_rng(63).normal(size=(4, 3)).astype(np.float32)
        want = sigmoid(x).data
        buf = x.copy()
        assert ad._sigmoid(buf, out=buf) is buf
        assert buf.tobytes() == want.tobytes()

    def test_lstm_step_saturates_without_a_warning(self):
        b = np.zeros(8)
        b[:2], b[6:] = -1000.0, 1000.0   # input gate 0, output gate 1
        ps = ParamSet({"wx": np.zeros((1, 8)), "wh": np.zeros((2, 8)), "b": b})
        h, c = lstm_cell_step(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 2))),
                              Tensor(np.full((1, 2), 0.5)), ps)
        np.testing.assert_array_equal(c.data, 0.25)
        states = lstm_sequence([np.ones((1, 2, 1))], [np.ones((1, 2), dtype=bool)], [ps])
        assert np.isfinite(states.data).all()


class TestLinearRecurrence:
    """linear_recurrence is one record; it equals the stepped slice/mul/add
    chain: f32 outputs bit for bit, f64 gradients within 1e-12."""

    @staticmethod
    def _arrays(steps=6):
        rng = np.random.default_rng(50)
        return {"keep": rng.uniform(0.2, 1.0, size=(3, steps, 4)),
                "write": rng.normal(size=(3, steps, 4)), "u0": rng.normal(size=(3, 4))}

    def test_f32_output_bit_equal_to_stepped(self):
        keep, write, u0 = (Tensor(a.astype(np.float32)) for a in self._arrays().values())
        ref = memory_stepped(keep, write, u0).data
        assert linear_recurrence(keep, write, u0).data.tobytes() == ref.tobytes()
        with Tape() as tape:
            out = linear_recurrence(keep, write, u0)
        assert len(tape) == 1
        assert out.data.tobytes() == ref.tobytes()

    def test_f64_gradients_match_stepped(self):
        ps = _params_from(self._arrays())
        weights = np.random.default_rng(51).normal(size=(3, 4))
        out, grads, records = _taped(
            lambda p: linear_recurrence(p["keep"], p["write"], p["u0"]), ps, weights)
        ref_out, ref_grads, _ = _taped(
            lambda p: memory_stepped(p["keep"], p["write"], p["u0"]), ps, weights)
        assert records == 1
        np.testing.assert_array_equal(out, ref_out)
        _assert_grads_close(grads, ref_grads)

    def test_f32_adjoints_equal_stepped(self):
        # the step-major pass forms the same products as the stepped chain
        ps = ParamSet({name: a.astype(np.float32) for name, a in self._arrays(steps=20).items()})
        weights = np.random.default_rng(52).normal(size=(3, 4)).astype(np.float32)
        out, grads, _ = _taped(
            lambda p: linear_recurrence(p["keep"], p["write"], p["u0"]), ps, weights)
        ref_out, ref_grads, _ = _taped(
            lambda p: memory_stepped(p["keep"], p["write"], p["u0"]), ps, weights)
        np.testing.assert_array_equal(out, ref_out)
        for name, g in grads.items():
            assert g.dtype == np.float32, name
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)

    def test_grad_check(self):
        ps = _params_from(self._arrays(steps=4))
        report = grad_check(
            lambda p: sum_(mul(linear_recurrence(p["keep"], p["write"], p["u0"]),
                               linear_recurrence(p["keep"], p["write"], p["u0"]))), ps)
        assert report.passed, repr(report)

    def test_shape_errors(self):
        keep, write, u0 = (Tensor(a) for a in self._arrays().values())
        with pytest.raises(ShapeError, match="linear_recurrence"):
            linear_recurrence(keep, slice_(write, (slice(None), slice(0, 5))), u0)
        with pytest.raises(ShapeError, match="linear_recurrence"):
            linear_recurrence(keep, write, slice_(u0, (slice(0, 2),)))


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

    # plain factor values have no sign bit and no NaN: the einsum path
    PLAIN = [0.0, 1.5, 3e-39, 5e-324, 2.0 ** 100, np.inf, 0.25]
    VALUES = {"plain": PLAIN, "signed": PLAIN + [-0.0, -2.5, -np.inf],
              "nan": PLAIN + [np.nan, -np.nan]}
    BIT_CASES = [(ways, augment, batch, dtype, kind)
                 for ways in (2, 3) for augment in (True, False) for batch in (None, 3)
                 for dtype in (np.float32, np.float64) for kind in ("plain", "signed", "nan")]

    @pytest.mark.parametrize("ways,augment,batch,dtype,kind", BIT_CASES)
    def test_bits_match_broadcast_reference(self, monkeypatch, ways, augment, batch,
                                            dtype, kind):
        """The forward and every adjoint equal ``outer_fusion_broadcast``'s
        bytes, on zeros, subnormals, infinities and NaNs. Plain factors take
        the einsum path; a sign bit or a NaN takes the broadcast path, as
        einsum gives +0.0 for -0.0 and may keep the other of two NaNs."""
        rng = np.random.default_rng(24)
        values = np.array(self.VALUES[kind])
        lead = () if batch is None else (batch,)
        arrays = {f"x{i}": rng.choice(values, size=lead + (i + 3,)).astype(dtype)
                  for i in range(ways)}
        size = math.prod(i + 3 + augment for i in range(ways))
        weights = Tensor(rng.normal(size=lead + (size,)).astype(dtype))
        einsums = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: einsums.append(1) or einsum(*a, **k))
        results = []
        for fn in (outer_fusion, outer_fusion_broadcast):
            ps = ParamSet({n: a.copy() for n, a in arrays.items()})
            with np.errstate(all="ignore"), Tape() as tape:
                out = fn([ps[n] for n in ps], augment)
                backward(tape, sum_(mul(out, weights)), ps)
            results.append([out.data.tobytes()] + [ps[n].grad.tobytes() for n in ps])
            if fn is outer_fusion:
                assert len(einsums) == (ways - 1 if kind == "plain" else 0)
        assert results[0] == results[1]

    def test_tfn_factors_take_the_einsum_path(self, monkeypatch):
        # tfn fuses ReLU outputs and ones, which never carry a sign bit
        model = build_model(ModelConfig("tfn", feature_dims={"text": 5, "audio": 4,
                                                             "vision": 3}))
        rng = np.random.default_rng(25)
        batch = Batch(modalities={m: ModalityInput(rng.normal(size=(6, 4, d)).astype(np.float32),
                                                   np.ones((6, 4), dtype=bool))
                                  for m, d in model.config.feature_dims.items()},
                      labels={"m": np.zeros(6)})
        einsums = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: einsums.append(1) or einsum(*a, **k))
        for train in (True, False):
            with Tape():
                model.forward(batch, train=train)
        assert len(einsums) == 4  # two partial products per forward

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
