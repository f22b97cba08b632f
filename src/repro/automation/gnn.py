"""One-layer GNN for node classification over the LiDS graph (§4.1-4.3).

The paper trains GNN models (via GraphSAINT sampling) that classify
dataset nodes — initialized with CoLR-derived embeddings — into the
cleaning / transformation operation applied by similar datasets'
pipelines. §4.2: "The GNN model has one layer, as there is only one
edge between a given table and its cleaning operation."

PyTorch is unavailable offline (S8), so the model is implemented in
numpy: one layer over the node's own embedding followed by a softmax
head, trained with Adam + cross-entropy on sampled node batches (the
GraphSAINT node-sampler analogue). A table's only edge is to its
operation, the label, so no neighbour message enters the layer. Adam
updates its moments in place, in buffers allocated once per ``fit``.

``LabelModel`` is what the §4.2/4.3 recommenders train: it standardizes
the embeddings, fits a ``OneLayerGNN`` on them and answers in label
names.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_B1, _B2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class GNNConfig:
    hidden: int = 64
    lr: float = 0.01
    epochs: int = 300
    batch: int = 64
    l2: float = 1e-4
    seed: int = 0


# the training schedule of the §4.2/4.3 recommenders
RECOMMENDER_CONFIG = GNNConfig(epochs=900, lr=0.02)

def _adam_step(param, grad, m, v, work, lr: float, c1: float, c2: float) -> None:
    """``param -= lr·m̂/(√v̂ + ε)`` (Kingma & Ba) without temporaries.

    Same operations in the same order as the textbook expression, so the
    result is bit-identical to it. ``grad`` is overwritten.
    """
    np.multiply(grad, 1 - _B1, out=work)
    m *= _B1
    m += work
    np.multiply(grad, 1 - _B2, out=work)
    work *= grad
    v *= _B2
    v += work
    np.divide(m, c1, out=work)
    work *= lr
    np.divide(v, c2, out=grad)
    np.sqrt(grad, out=grad)
    grad += _EPS
    work /= grad
    param -= work


class OneLayerGNN:
    """h_v = relu(W_self·x_v + b); ŷ = softmax(U·h_v + c)."""

    def __init__(self, n_classes: int, d_in: int, config: GNNConfig = GNNConfig()):
        self.cfg = config
        g = np.random.default_rng(config.seed)
        h = config.hidden
        self.W_self = g.standard_normal((d_in, h)) / np.sqrt(d_in)
        # Drawn and discarded: this block was the neighbour-message
        # weights, which the layer does not have. Keeping the draw keeps
        # ``U``, and so every trained parameter, the same for a seed.
        g.standard_normal((d_in, h))
        self.b = np.zeros(h)
        self.U = g.standard_normal((h, n_classes)) / np.sqrt(h)
        self.c = np.zeros(n_classes)
        self.n_classes = n_classes

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and class probabilities of the rows ``x``."""
        z = x @ self.W_self
        z += self.b
        h = np.maximum(0.0, z, out=z)
        logits = h @ self.U + self.c
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return h, p

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneLayerGNN":
        X = np.asarray(X, dtype="float64")
        y = np.asarray(y)
        rng = np.random.default_rng(self.cfg.seed)
        lr, l2 = self.cfg.lr, self.cfg.l2
        size = min(self.cfg.batch, len(y))
        params = [self.W_self, self.b, self.U, self.c]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        work = [np.empty_like(p) for p in params]
        dW_self = np.empty_like(self.W_self)
        eye = np.eye(self.n_classes)
        for t in range(1, self.cfg.epochs + 1):
            # GraphSAINT-style node sampling: one sampled subgraph batch
            batch = rng.choice(len(y), size=size, replace=False)
            x = X[batch]
            h, p = self._forward(x)
            dlogits = (p - eye[y[batch]]) / len(batch)
            dU = h.T @ dlogits + l2 * self.U
            dc = dlogits.sum(axis=0)
            dh = dlogits @ self.U.T
            dh[h <= 0] = 0.0
            np.matmul(x.T, dh, out=dW_self)
            dW_self += np.multiply(self.W_self, l2, out=work[0])
            db = dh.sum(axis=0)
            c1, c2 = 1 - _B1**t, 1 - _B2**t
            for param, grad, mi, vi, wi in zip(params, [dW_self, db, dU, dc], m, v, work):
                _adam_step(param, grad, mi, vi, wi, lr, c1, c2)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(X, dtype="float64"))[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class LabelModel:
    """A ``OneLayerGNN`` over standardized embeddings that answers in
    ``labels``: one per §4.2/4.3 recommender head."""

    def __init__(self, labels: list[str], config: GNNConfig):
        self.labels = labels
        self.config = config

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu) / self.sd

    def fit(self, X: np.ndarray, targets: list[str]) -> "LabelModel":
        self.mu = X.mean(axis=0)
        self.sd = X.std(axis=0)
        self.sd[self.sd == 0] = 1.0
        y = np.array([self.labels.index(t) for t in targets])
        self.gnn = OneLayerGNN(len(self.labels), X.shape[1], self.config).fit(
            self._standardize(X), y
        )
        return self

    def predict(self, X: np.ndarray) -> list[str]:
        """The label of each row of ``X``."""
        return [self.labels[i] for i in self.gnn.predict(self._standardize(X))]
