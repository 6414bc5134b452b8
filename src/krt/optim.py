"""Fixed-rate Adam over a list of leaf tensors."""

import numpy as np

EPS = 1e-8  # added to the root of the second moment, so no update divides by zero


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update; params whose grad is None are left untouched."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
