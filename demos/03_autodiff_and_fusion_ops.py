"""The differentiation engine behind the model zoo: tapes, gradients,
gradient checking, and the fusion primitives (outer product, low-rank
contraction, cross-modal attention, lockstep LSTMs).
"""

import numpy as np

from msa_forge import ParamSet, Tape, Tensor, backward, grad_check
from msa_forge.autodiff import (
    add,
    l1_loss,
    lstm_sequence,
    masked_mean,
    matmul,
    outer_fusion,
    scaled_dot_attention,
)

rng = np.random.default_rng(0)

# --- a tiny regression traced on a tape -----------------------------------
params = ParamSet({"w": rng.normal(size=(4, 1)) * 0.1, "b": np.zeros(1)})
w, b = params["w"], params["b"]

x = Tensor(rng.normal(size=(16, 4)))
y = Tensor(rng.normal(size=(16, 1)))

with Tape() as tape:
    pred = add(matmul(x, w), b)
    loss = l1_loss(pred, y)
print(f"loss {float(loss.data):.4f}, tape recorded {len(tape)} primitive applications")

backward(tape, loss, params)
print(f"dL/dw norm {np.linalg.norm(w.grad):.4f}, dL/db {b.grad}")

# reverse-mode agrees with central differences
report = grad_check(lambda p: l1_loss(add(matmul(x, p['w']), p['b']), y), params)
print(f"grad_check: max relative error {report.max_rel_error:.2e} "
      f"(tol {report.tol:.0e}) -> {'ok' if report.passed else 'FAIL'}")

# --- outer-product fusion --------------------------------------------------
za, zv, zt = Tensor([1.0]), Tensor([2.0]), Tensor([3.0])
fused = outer_fusion([za, zv, zt], augment=True)
print(f"\nouter fusion of [1],[2],[3] with constant augmentation: {fused.data}")
print("the 1-augmentation is what exposes the uni- and bi-modal terms")

# --- masked pooling and attention ------------------------------------------
seq = Tensor(rng.normal(size=(2, 5, 3)))
mask = np.array([[True, True, True, False, False],
                 [True, True, True, True, True]])
pooled = masked_mean(seq, mask)
print(f"\nmasked mean pools (2,5,3) -> {pooled.shape}, ignoring padding")

q = Tensor(rng.normal(size=(4, 8)))
k = Tensor(rng.normal(size=(6, 8)))
v = Tensor(np.eye(6))
with Tape() as tape:
    weights = scaled_dot_attention(q, k, v, mask=np.array([1, 1, 0, 1, 1, 0], dtype=bool))
print(f"attention weights per query sum to {weights.data.sum(axis=1)} "
      "over the unmasked keys")
print(f"the whole attention (scores, mask, softmax, sum) is {len(tape)} tape record")

# --- two LSTMs in lockstep ---------------------------------------------------
# each group has its own input, mask and weights; row 1 of the second group
# never steps, so its state stays zero
lstms = [ParamSet({"wx": rng.normal(size=(3, 8)) * 0.3, "wh": rng.normal(size=(2, 8)) * 0.3,
                   "b": np.zeros(8)}),
         ParamSet({"wx": rng.normal(size=(2, 12)) * 0.3, "wh": rng.normal(size=(3, 12)) * 0.3,
                   "b": np.zeros(12)})]
xs = [Tensor(rng.normal(size=(2, 4, 3))), Tensor(rng.normal(size=(2, 4, 2)))]
masks = [np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool),
         np.array([[1, 1, 1, 1], [0, 0, 0, 0]], dtype=bool)]
with Tape() as tape:
    states = lstm_sequence(xs, masks, lstms)
print(f"\ntwo LSTMs (h = 2 and 3) in lockstep: states {states.shape}, {len(tape)} tape record")
print(f"h after the last step, units side by side:\n{states.data[:, -1, 0].round(3)}")
