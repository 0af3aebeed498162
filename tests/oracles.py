"""Independent straight-line reference implementations used as test oracles.

Everything here is written directly from the mathematical definition,
with explicit Python loops and no reuse of package code, so a bug in the
package cannot hide in its own oracle. The one exception is
`rerun_predict_fn`, the explanation query by its definition: the whole
context classifier re-run on the swapped dialogue.
"""
import math

import numpy as np


def matmul_loops(a, b):
    """Three nested loops, no numpy dot."""
    n, k = len(a), len(a[0])
    k2, m = len(b), len(b[0])
    assert k == k2
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return np.array(out)


def softmax_row(row):
    """Plain softmax of one list of floats."""
    mx = max(row)
    es = [math.exp(v - mx) for v in row]
    z = sum(es)
    return [e / z for e in es]


def lstm_step(x, h_prev, c_prev, Wx, Wh, b, hidden):
    """One LSTM cell step from the textbook equations.

    Gate blocks are ordered input, forget, candidate, output along the
    columns of Wx / Wh / b. All args are plain lists or 1-D arrays.
    """
    din = len(x)
    z = [0.0] * (4 * hidden)
    for j in range(4 * hidden):
        s = b[j]
        for i in range(din):
            s += x[i] * Wx[i][j]
        for i in range(hidden):
            s += h_prev[i] * Wh[i][j]
        z[j] = s

    def sig(v):
        if v >= 0:
            return 1.0 / (1.0 + math.exp(-v))
        e = math.exp(v)
        return e / (1.0 + e)

    i_g = [sig(z[j]) for j in range(0, hidden)]
    f_g = [sig(z[j]) for j in range(hidden, 2 * hidden)]
    g_g = [math.tanh(z[j]) for j in range(2 * hidden, 3 * hidden)]
    o_g = [sig(z[j]) for j in range(3 * hidden, 4 * hidden)]
    c = [f_g[k] * c_prev[k] + i_g[k] * g_g[k] for k in range(hidden)]
    h = [o_g[k] * math.tanh(c[k]) for k in range(hidden)]
    return h, c


def attention_layer(w, proj_w, proj_b):
    """One self-attention refinement step: softmax(w w^T / sqrt(d)) w, then affine."""
    w = np.asarray(w, dtype=np.float64)
    n, d = w.shape
    scores = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for t in range(d):
                s += w[i][t] * w[j][t]
            scores[i][j] = s / math.sqrt(d)
    att = np.array([softmax_row(list(scores[i])) for i in range(n)])
    mixed = matmul_loops(att.tolist(), w.tolist())
    out = matmul_loops(mixed.tolist(), np.asarray(proj_w).tolist())
    return out + np.asarray(proj_b)


def cross_attention_block(query, keys_vals, wk, wv, scale_, bias, dk):
    """softmax(scale * (q K^T / sqrt(dk)) + bias) V computed with loops."""
    q = np.asarray(query, dtype=np.float64)
    f = np.asarray(keys_vals, dtype=np.float64)
    K = matmul_loops(f.tolist(), np.asarray(wk).tolist())
    V = matmul_loops(f.tolist(), np.asarray(wv).tolist())
    raw = matmul_loops(q.tolist(), K.T.tolist()) / math.sqrt(dk)
    raw = scale_ * raw + bias
    att = np.array([softmax_row(list(r)) for r in raw])
    return matmul_loops(att.tolist(), V.tolist())


def cross_network_oracle(mode, encoded, dense, cross, cls_w, cls_b,
                         peripherals, num_modes, num_heads):
    """Brute-force evaluation of one mode's query network.

    encoded: dict mode -> ndarray (seq x enc_dim). dense: [(w, b)] arrays.
    cross: dict (layer, peripheral, head) -> (wk, wv, scale, bias) arrays.
    Returns (pooled descriptor vector, class probability vector).
    """
    head_outs = []
    for head in range(num_heads):
        g = np.asarray(encoded[mode], dtype=np.float64)
        for layer, (w, b) in enumerate(dense):
            g = matmul_loops(g.tolist(), np.asarray(w).tolist()) + np.asarray(b)
            if layer < len(dense) - 1:
                g = np.maximum(g, 0.0)
            inj = None
            for mi in peripherals:
                wk, wv, sc, bi = cross[(layer, mi, head)]
                sc = float(np.asarray(sc).reshape(-1)[0])
                bi = float(np.asarray(bi).reshape(-1)[0])
                block = cross_attention_block(g, encoded[mi], wk, wv, sc, bi, g.shape[1])
                inj = block if inj is None else inj + block
            g = g + inj / num_modes
        head_outs.append(g)
    avg = head_outs[0]
    for h in head_outs[1:]:
        avg = avg + h
    avg = avg / num_heads
    pooled = avg.mean(axis=0)
    logits = matmul_loops([pooled.tolist()], np.asarray(cls_w).tolist())[0] + np.asarray(cls_b)[0]
    probs = np.array(softmax_row(list(logits)))
    return pooled, probs


def weighted_f1(y_true, y_pred, n_classes):
    """Support-weighted mean of per-class F1, from per-class tallies."""
    total = len(y_true)
    acc = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = tp + fn
        if support == 0:
            continue
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        acc += support * f1
    return acc / total


def ridge_closed_form(X, y, sample_w, lam):
    """Weighted ridge with unpenalized intercept, solved densely.

    Returns (intercept, coefs). X is (n, d) without the ones column.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(sample_w, dtype=np.float64)
    n, d = X.shape
    Xa = np.hstack([np.ones((n, 1)), X])
    W = np.diag(w)
    pen = lam * np.eye(d + 1)
    pen[0, 0] = 0.0
    beta = np.linalg.solve(Xa.T @ W @ Xa + pen, Xa.T @ W @ y)
    return float(beta[0]), beta[1:]


def cosine(u, v):
    nu_ = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu_ == 0.0 or nv == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu_ * nv)


def nce_printed_oracle(query, positive, negatives, nu, tau):
    """Literal transcription of the ratio-form contrastive objective."""
    sims = [cosine(query, positive)] + [cosine(query, n) for n in negatives]
    probs = softmax_row([s / tau for s in sims])
    first = -math.log(probs[0] / (probs[0] + nu))
    rest = sum(math.log(p / (p + nu)) for p in probs[1:])
    return first + rest - 1.0


def ace_oracle(desc, negs, pool_size, tau):
    """Triple-loop mean over utterances and ordered mode pairs.

    desc: id -> {mode: vector}; negs: id -> list of {mode: vector}.
    """
    terms = []
    for j in sorted(desc):
        modes = sorted(desc[j])
        nu = len(negs[j]) / pool_size
        for m in modes:
            for mi in modes:
                if m == mi:
                    continue
                terms.append(nce_printed_oracle(desc[j][m], desc[j][mi],
                                                [n[mi] for n in negs[j]], nu, tau))
    return sum(terms) / len(terms)


def focal_term(p, gamma):
    """Canonical focal scaling of cross entropy for target probability p."""
    p = max(p, 1e-12)
    return -((1.0 - p) ** gamma) * math.log(p)


def adam_step_scalar(param, grad, m, v, t, lr, beta1, beta2, eps):
    """One Adam update for a single scalar, from the published update rule."""
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad * grad
    mhat = m / (1 - beta1 ** t)
    vhat = v / (1 - beta2 ** t)
    return param - lr * mhat / (math.sqrt(vhat) + eps), m, v


def rerun_predict_fn(pipeline, dialogue, fused, index, label):
    """Explanation query as a full re-run: classify all of ``dialogue``
    with row ``index`` of ``fused`` replaced by ``x``; class ``label``'s
    probability there."""
    from emofuse import tensor as T
    from emofuse.model import classify_dialogues

    def predict_fn(x):
        rows = fused.values.copy()
        rows[index] = np.asarray(x, dtype=np.float64).reshape(-1)
        out = classify_dialogues(pipeline, [dialogue], T.Tensor(rows))[0]
        return float(out.probs.values[index, label])

    return predict_fn
