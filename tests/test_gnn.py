"""Tests for the one-layer numpy GNN (§4.2, S8)."""
import numpy as np
import pandas as pd
import pytest

from repro.automation import cleaning as cl
from repro.automation import transformation as tr
from repro.automation.embeddings import column_embeddings, table_embedding_1800
from repro.automation.gnn import GNNConfig, OneLayerGNN
from repro.core.types import EMBEDDED_TYPES, EMBEDDING_DIM


@pytest.fixture(scope="module")
def separable():
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(i * 3, 0.5, (40, 10)) for i in range(3)])
    y = np.repeat([0, 1, 2], 40)
    return X, y


def test_learns_separable_classes(separable):
    X, y = separable
    gnn = OneLayerGNN(3, 10, GNNConfig(epochs=300, lr=0.02)).fit(X, y)
    assert (gnn.predict(X) == y).mean() > 0.95


def test_predict_proba_sums_to_one(separable):
    X, y = separable
    gnn = OneLayerGNN(3, 10, GNNConfig(epochs=50)).fit(X, y)
    p = gnn.predict_proba(X)
    assert p.shape == (len(X), 3)
    assert np.allclose(p.sum(axis=1), 1.0)


@pytest.fixture(scope="module")
def with_neighbours():
    """Target nodes with no signal of their own, each seeing one
    informative context node."""
    g = np.random.default_rng(1)
    n = 60
    X = np.zeros((2 * n, 6))
    X[n:] = g.normal(0, 0.1, (n, 6))  # target nodes: no signal of their own
    X[:n] = np.vstack(
        [g.normal(-3, 0.3, (n // 2, 6)), g.normal(3, 0.3, (n // 2, 6))]
    )
    adjacency = {n + i: [i] for i in range(n)}  # target i sees context node i
    y = np.array([0] * (n // 2) + [1] * (n // 2) + [0] * (n // 2) + [1] * (n // 2))
    return X, y, adjacency, np.arange(n, 2 * n)


def test_neighbor_aggregation_used(with_neighbours):
    """Nodes whose own features are uninformative can still be classified
    through their neighborhoods — the message-passing path works."""
    X, y, adjacency, train_idx = with_neighbours
    gnn = OneLayerGNN(2, 6, GNNConfig(epochs=400, lr=0.02)).fit(
        X, y, adjacency, train_idx
    )
    acc = (gnn.predict(X, adjacency, train_idx) == y[train_idx]).mean()
    assert acc > 0.9


def test_deterministic_with_seed(separable):
    X, y = separable
    a = OneLayerGNN(3, 10, GNNConfig(epochs=50, seed=7)).fit(X, y).predict(X)
    b = OneLayerGNN(3, 10, GNNConfig(epochs=50, seed=7)).fit(X, y).predict(X)
    assert np.array_equal(a, b)


def test_single_layer_parameter_shapes():
    gnn = OneLayerGNN(5, 1800)
    assert gnn.W_self.shape == (1800, 64)
    assert gnn.W_nbr.shape == (1800, 64)
    assert gnn.U.shape == (64, 5)


# --------------------------------------------------------------------------
# exactness against the straightforward implementation
# --------------------------------------------------------------------------
def _reference_agg(X, adjacency, idx):
    out = np.zeros((len(idx), X.shape[1]))
    for i, v in enumerate(idx):
        nbrs = adjacency.get(int(v), [])
        if nbrs:
            out[i] = X[nbrs].mean(axis=0)
    return out


def _reference_forward(model, X, adjacency, idx):
    msg = _reference_agg(X, adjacency, idx)
    h = np.maximum(0.0, X[idx] @ model.W_self + msg @ model.W_nbr + model.b)
    logits = h @ model.U + model.c
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return h, msg, p


def _reference_fit(model, X, y, adjacency=None, train_idx=None):
    """The textbook loop: a message for every node, every parameter
    stepped by Adam with freshly allocated moments."""
    adjacency = adjacency or {}
    X = np.asarray(X, dtype="float64")
    y = np.asarray(y)
    idx_all = np.asarray(train_idx) if train_idx is not None else np.arange(len(y))
    rng = np.random.default_rng(model.cfg.seed)
    params = [model.W_self, model.W_nbr, model.b, model.U, model.c]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    for _ in range(model.cfg.epochs):
        batch = rng.choice(idx_all, size=min(model.cfg.batch, len(idx_all)),
                           replace=False)
        h, msg, p = _reference_forward(model, X, adjacency, batch)
        onehot = np.zeros((len(batch), model.n_classes))
        onehot[np.arange(len(batch)), y[batch]] = 1.0
        dlogits = (p - onehot) / len(batch)
        dU = h.T @ dlogits + model.cfg.l2 * model.U
        dc = dlogits.sum(axis=0)
        dh = dlogits @ model.U.T
        dh[h <= 0] = 0.0
        dW_self = X[batch].T @ dh + model.cfg.l2 * model.W_self
        dW_nbr = msg.T @ dh + model.cfg.l2 * model.W_nbr
        db = dh.sum(axis=0)
        grads = [dW_self, dW_nbr, db, dU, dc]
        t += 1
        for i, (param, grad) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * grad
            v[i] = b2 * v[i] + (1 - b2) * grad * grad
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            param -= model.cfg.lr * mhat / (np.sqrt(vhat) + eps)
    return model


def _reference_predict_proba(model, X, adjacency=None, idx=None):
    X = np.asarray(X, dtype="float64")
    idx = np.asarray(idx) if idx is not None else np.arange(len(X))
    return _reference_forward(model, X, adjacency or {}, idx)[2]


_PARAMS = ("W_self", "b", "U", "c")


@pytest.mark.parametrize("n,d,k", [(15, 1800, 5), (60, 300, 3)])
def test_fit_without_adjacency_is_exact(n, d, k):
    g = np.random.default_rng(d)
    X = g.standard_normal((n, d))
    y = g.integers(0, k, n)
    cfg = GNNConfig(epochs=60, lr=0.02)
    fast = OneLayerGNN(k, d, cfg).fit(X, y)
    ref = _reference_fit(OneLayerGNN(k, d, cfg), X, y)
    for name in _PARAMS:
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    Q = g.standard_normal((7, d))
    assert np.array_equal(fast.predict_proba(Q), _reference_predict_proba(ref, Q))


def test_fit_with_adjacency_is_exact(with_neighbours):
    X, y, adjacency, train_idx = with_neighbours
    cfg = GNNConfig(epochs=100, lr=0.02)
    fast = OneLayerGNN(2, 6, cfg).fit(X, y, adjacency, train_idx)
    ref = _reference_fit(OneLayerGNN(2, 6, cfg), X, y, adjacency, train_idx)
    for name in _PARAMS + ("W_nbr",):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    assert np.array_equal(
        fast.predict_proba(X, adjacency, train_idx),
        _reference_predict_proba(ref, X, adjacency, train_idx),
    )


def test_without_adjacency_w_nbr_is_left_alone(separable):
    X, y = separable
    gnn = OneLayerGNN(3, 10, GNNConfig(epochs=20))
    before = gnn.W_nbr.copy()
    gnn.fit(X, y)
    assert np.array_equal(gnn.W_nbr, before)


# --------------------------------------------------------------------------
# the recommenders built on it
# --------------------------------------------------------------------------
_SMALL = GNNConfig(epochs=60, lr=0.02)


def _reference_table_embedding(pdf, only_missing=False):
    """Per-type averages, embedding the selected columns afresh."""
    cols = pdf.columns
    if only_missing:
        with_na = [c for c in cols if pdf[c].isna().any()]
        cols = with_na if with_na else cols
    embs = column_embeddings(pdf[list(cols)])
    return np.concatenate([
        np.mean(of_type, axis=0) if (of_type := [e for t, e in embs.values() if t == fgt])
        else np.zeros(EMBEDDING_DIM)
        for fgt in EMBEDDED_TYPES
    ])


def _frame(seed: int, missing: bool) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    n = 40
    pdf = pd.DataFrame({
        "count": g.integers(0, 1000, n),
        "amount": np.exp(g.normal(3, 2, n)),
        "ratio": g.uniform(-1, 1, n),
        "city": g.choice(["paris", "lyon", "nice", "lille"], n),
    })
    if missing:
        pdf.loc[g.choice(n, 5, replace=False), "amount"] = np.nan
        pdf.loc[g.choice(n, 3, replace=False), "city"] = None
    return pdf


@pytest.fixture(scope="module")
def frames():
    # the last one has no missing value: the only_missing fallback
    return [_frame(s, missing=s < 3) for s in range(4)]


def test_table_embedding_from_given_column_embeddings(frames):
    for pdf in frames:
        embs = column_embeddings(pdf)
        for only_missing in (False, True):
            ref = _reference_table_embedding(pdf, only_missing)
            assert np.array_equal(table_embedding_1800(pdf, only_missing), ref)
            assert np.array_equal(
                table_embedding_1800(pdf, only_missing, embeddings=embs), ref
            )


def _train_both(monkeypatch, train):
    """``train()`` once as is and once with the reference fit."""
    fast = train()
    with monkeypatch.context() as mp:
        mp.setattr(OneLayerGNN, "fit", _reference_fit)
        ref = train()
    return fast, ref


def test_cleaning_recommender_matches_reference(monkeypatch, frames):
    g = np.random.default_rng(5)
    E = g.standard_normal((15, 1800))
    ops = [cl.CLEANING_OPERATIONS[i % 5] for i in g.integers(0, 5, 15)]
    fast, ref = _train_both(
        monkeypatch, lambda: cl.CleaningRecommender(_SMALL).fit(E, ops)
    )
    for name in _PARAMS:
        assert np.array_equal(getattr(fast.model, name), getattr(ref.model, name))
    for pdf in frames:
        x = ref._standardize(_reference_table_embedding(pdf, True).reshape(1, -1))
        p = _reference_predict_proba(ref.model, x)
        assert np.array_equal(fast.model.predict_proba(x), p)
        expected = cl.CLEANING_OPERATIONS[int(np.argmax(p, axis=1)[0])]
        assert fast.recommend_cleaning_operations(pdf) == expected


def _reference_recommend_transformations(rec, pdf):
    mu, sd = rec._tab_stats
    x = ((_reference_table_embedding(pdf) - mu) / sd).reshape(1, -1)
    scaler = tr.TABLE_TRANSFORMS[
        int(np.argmax(_reference_predict_proba(rec.table_model, x), axis=1)[0])
    ]
    cmu, csd = rec._col_stats
    col_ops = {}
    for col, (fgt, cemb) in column_embeddings(pdf).items():
        if fgt.value in ("int", "float"):
            p = _reference_predict_proba(rec.column_model, ((cemb - cmu) / csd).reshape(1, -1))
            col_ops[col] = tr.COLUMN_TRANSFORMS[int(np.argmax(p, axis=1)[0])]
    return scaler, col_ops


def test_transformation_recommender_matches_reference(monkeypatch, frames):
    g = np.random.default_rng(6)
    T, C = g.standard_normal((15, 1800)), g.standard_normal((60, 300))
    scalers = [tr.TABLE_TRANSFORMS[i] for i in g.integers(0, 3, 15)]
    col_ops = [tr.COLUMN_TRANSFORMS[i] for i in g.integers(0, 3, 60)]

    def train():
        rec = tr.TransformationRecommender(_SMALL)
        return rec.fit_table(T, scalers).fit_columns(C, col_ops)

    fast, ref = _train_both(monkeypatch, train)
    for model in ("table_model", "column_model"):
        for name in _PARAMS:
            assert np.array_equal(
                getattr(getattr(fast, model), name), getattr(getattr(ref, model), name)
            )
    for pdf in frames:
        assert fast.recommend_transformations(pdf) == (
            _reference_recommend_transformations(ref, pdf)
        )


def test_transformation_fit_from_kg_embeds_as_before(monkeypatch, frames):
    tables = {f"ds{i}": pdf for i, pdf in enumerate(frames)}
    scaler_labels = pd.DataFrame(
        {"dataset": ["ds0", "ds1", "ds2", "ds3"],
         "op": ["MinMaxScaler", "RobustScaler", "StandardScaler", "MinMaxScaler"]}
    )
    column_labels = pd.DataFrame(
        {"dataset": ["ds1", "ds2", "ds9"], "column": ["amount", "count", "x"],
         "op": ["log", "sqrt", "log"]}
    )
    monkeypatch.setattr(tr, "mine_scaler_labels", lambda store: scaler_labels)
    monkeypatch.setattr(tr, "mine_column_transform_labels", lambda store: column_labels)
    fast = tr.TransformationRecommender(_SMALL).fit_from_kg(None, tables)

    tab = np.stack([_reference_table_embedding(tables[d]) for d in scaler_labels["dataset"]])
    col_embs, ops = [], []
    for ds, grp in column_labels.groupby("dataset"):
        if ds in tables:
            done = dict(zip(grp["column"], grp["op"]))
            for col, (fgt, emb) in column_embeddings(tables[ds]).items():
                if fgt.value in ("int", "float"):
                    col_embs.append(emb)
                    ops.append(done.get(col, "none"))
    with monkeypatch.context() as mp:
        mp.setattr(OneLayerGNN, "fit", _reference_fit)
        ref = tr.TransformationRecommender(_SMALL).fit_table(tab, list(scaler_labels["op"]))
        ref.fit_columns(np.stack(col_embs), ops)
    for model in ("table_model", "column_model"):
        for name in _PARAMS:
            assert np.array_equal(
                getattr(getattr(fast, model), name), getattr(getattr(ref, model), name)
            )
