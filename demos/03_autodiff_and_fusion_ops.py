"""The differentiation engine behind the model zoo: tapes, gradients,
gradient checking, and the fusion primitives (outer product, low-rank
contraction, cross-modal attention).
"""

import numpy as np

from msa_forge import ParamSet, Tape, Tensor, backward, grad_check
from msa_forge.autodiff import (
    l1_loss,
    lstm_cell_step,
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
    pred = matmul(x, w) + b
    loss = l1_loss(pred, y)
print(f"loss {float(loss.data):.4f}, tape recorded {len(tape)} primitive applications")

backward(tape, loss, params)
print(f"dL/dw norm {np.linalg.norm(w.grad):.4f}, dL/db {b.grad}")

# reverse-mode agrees with central differences
report = grad_check(lambda p: l1_loss(matmul(x, p['w']) + p['b'], y), params)
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
weights = scaled_dot_attention(q, k, v, mask=np.array([1, 1, 0, 1, 1, 0], dtype=bool))
print(f"attention weights per query sum to {weights.data.sum(axis=1)} "
      "over the unmasked keys")

# --- one recurrent step ------------------------------------------------------
lstm = ParamSet({"wx": rng.normal(size=(3, 8)) * 0.3,
                 "wh": rng.normal(size=(2, 8)) * 0.3,
                 "b": np.zeros(8)})
h, c = lstm_cell_step(Tensor(rng.normal(size=(1, 3))),
                      Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), lstm)
print(f"\nlstm step: h {h.data.round(3)}, c {c.data.round(3)}")
