"""One-layer GNN for node classification over the LiDS graph (§4.1-4.3).

The paper trains GNN models (via GraphSAINT sampling) that classify
dataset nodes — initialized with CoLR-derived embeddings — into the
cleaning / transformation operation applied by similar datasets'
pipelines. §4.2: "The GNN model has one layer, as there is only one
edge between a given table and its cleaning operation."

PyTorch is unavailable offline (S8), so the model is implemented in
numpy: one mean-aggregation message-passing layer over the node's
neighborhood followed by a softmax head, trained with Adam +
cross-entropy on sampled node batches (the GraphSAINT node-sampler
analogue).

The message path (neighbour mean, ``W_nbr``) runs only when the graph
gives nodes neighbours, i.e. when ``fit``/``predict`` get a non-empty
``adjacency``. The §4.2/4.3 recommenders give none — a table's only
edge is to its operation, the label — so their ``W_nbr`` is neither
used nor trained. Adam updates its moments in place, in buffers
allocated once per ``fit``.
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
    """h_v = relu(W_self·x_v + W_nbr·mean(x_u, u∈N(v))); ŷ = softmax(U·h_v).

    ``adjacency`` maps node index -> neighbor indices (dataset-graph
    context of the node, e.g. a table's columns). Nodes with no
    neighbors aggregate a zero message; with no adjacency at all the
    ``W_nbr`` term is skipped.
    """

    def __init__(self, n_classes: int, d_in: int, config: GNNConfig = GNNConfig()):
        self.cfg = config
        g = np.random.default_rng(config.seed)
        h = config.hidden
        self.W_self = g.standard_normal((d_in, h)) / np.sqrt(d_in)
        self.W_nbr = g.standard_normal((d_in, h)) / np.sqrt(d_in)
        self.b = np.zeros(h)
        self.U = g.standard_normal((h, n_classes)) / np.sqrt(h)
        self.c = np.zeros(n_classes)
        self.n_classes = n_classes

    # ---------- forward ----------
    def _agg(self, X: np.ndarray, adjacency: dict[int, list[int]], idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), X.shape[1]))
        for i, v in enumerate(idx):
            nbrs = adjacency.get(int(v), [])
            if nbrs:
                out[i] = X[nbrs].mean(axis=0)
        return out

    def _forward(self, X, adjacency, idx):
        """Returns (x_idx, h, msg, p); ``msg`` is None without adjacency."""
        x = X[idx]
        z = x @ self.W_self
        msg = None
        if adjacency:
            msg = self._agg(X, adjacency, idx)
            z += msg @ self.W_nbr
        z += self.b
        h = np.maximum(0.0, z, out=z)
        logits = h @ self.U + self.c
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return x, h, msg, p

    # ---------- training ----------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        adjacency: dict[int, list[int]] | None = None,
        train_idx: np.ndarray | None = None,
    ) -> "OneLayerGNN":
        adjacency = adjacency or {}
        X = np.asarray(X, dtype="float64")
        y = np.asarray(y)
        idx_all = (
            np.asarray(train_idx) if train_idx is not None else np.arange(len(y))
        )
        rng = np.random.default_rng(self.cfg.seed)
        lr, l2 = self.cfg.lr, self.cfg.l2
        params = [self.W_self, self.b, self.U, self.c]
        if adjacency:
            params.append(self.W_nbr)
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        work = [np.empty_like(p) for p in params]
        dW_self = np.empty_like(self.W_self)
        dW_nbr = np.empty_like(self.W_nbr) if adjacency else None
        eye = np.eye(self.n_classes)
        for t in range(1, self.cfg.epochs + 1):
            # GraphSAINT-style node sampling: one sampled subgraph batch
            batch = rng.choice(idx_all, size=min(self.cfg.batch, len(idx_all)),
                               replace=False)
            x, h, msg, p = self._forward(X, adjacency, batch)
            dlogits = (p - eye[y[batch]]) / len(batch)
            dU = h.T @ dlogits + l2 * self.U
            dc = dlogits.sum(axis=0)
            dh = dlogits @ self.U.T
            dh[h <= 0] = 0.0
            np.matmul(x.T, dh, out=dW_self)
            dW_self += np.multiply(self.W_self, l2, out=work[0])
            db = dh.sum(axis=0)
            grads = [dW_self, db, dU, dc]
            if adjacency:
                np.matmul(msg.T, dh, out=dW_nbr)
                dW_nbr += np.multiply(self.W_nbr, l2, out=work[4])
                grads.append(dW_nbr)
            c1, c2 = 1 - _B1**t, 1 - _B2**t
            for param, grad, mi, vi, wi in zip(params, grads, m, v, work):
                _adam_step(param, grad, mi, vi, wi, lr, c1, c2)
        return self

    # ---------- inference ----------
    def predict_proba(
        self, X: np.ndarray, adjacency: dict[int, list[int]] | None = None,
        idx: np.ndarray | None = None,
    ) -> np.ndarray:
        X = np.asarray(X, dtype="float64")
        idx = np.asarray(idx) if idx is not None else np.arange(len(X))
        return self._forward(X, adjacency or {}, idx)[3]

    def predict(self, X, adjacency=None, idx=None) -> np.ndarray:
        return np.argmax(self.predict_proba(X, adjacency, idx), axis=1)
