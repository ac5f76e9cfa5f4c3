"""Independent brute-force oracles used to pin expected values.

Everything here is written with explicit loops and no shared code with the
library, so a bug in the library cannot hide in its own oracle.
"""

import math

import numpy as np


def brute_conv2d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Grouped conv via explicit loops over every output element."""
    bsz, cin, hin, win = x.shape
    cout, cg, k, _ = w.shape
    ho = (hin + 2 * padding - k) // stride + 1
    wo = (win + 2 * padding - k) // stride + 1
    xp = np.zeros((bsz, cin, hin + 2 * padding, win + 2 * padding))
    xp[:, :, padding:padding + hin, padding:padding + win] = x
    cog = cout // groups
    out = np.zeros((bsz, cout, ho, wo))
    for b in range(bsz):
        for co in range(cout):
            g = co // cog
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for c in range(cg):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (w[co, c, ky, kx]
                                        * xp[b, g * cg + c, oy * stride + ky, ox * stride + kx])
                    out[b, co, oy, ox] = acc + (0.0 if bias is None else bias[co])
    return out


def _row_softmax(row):
    e = [math.exp(v - max(row)) for v in row]
    s = sum(e)
    return [v / s for v in e]


def naive_mhsa(x, wq, wk, wv, wo, heads, scaled=True):
    """Per-sample, per-head, per-query loops; bias-free."""
    bsz, n, d = x.shape
    dh = d // heads
    out = np.zeros((bsz, n, d))
    for b in range(bsz):
        q = x[b] @ wq
        k = x[b] @ wk
        v = x[b] @ wv
        merged = np.zeros((n, d))
        for h in range(heads):
            qh = q[:, h * dh:(h + 1) * dh]
            kh = k[:, h * dh:(h + 1) * dh]
            vh = v[:, h * dh:(h + 1) * dh]
            for i in range(n):
                logits = [float(qh[i] @ kh[j]) for j in range(n)]
                if scaled:
                    logits = [l / math.sqrt(dh) for l in logits]
                weights = _row_softmax(logits)
                acc = np.zeros(dh)
                for j in range(n):
                    acc += weights[j] * vh[j]
                merged[i, h * dh:(h + 1) * dh] = acc
        out[b] = merged @ wo
    return out


def naive_cska(x, wq, wv, wo, conv_w, heads, grid, kernel, scaled=True, cls_key=None):
    """Bias-free conv static key attention with explicit padded window sums.

    With `cls_key` ([heads, 1, d_h]) token 0 of `x` is a CLS token: every
    query, the CLS one included, gets a first key column holding its dot
    product with the head's cls_key, and the CLS query's spatial-key logits
    are zero.
    """
    bsz, total, d = x.shape
    off = 0 if cls_key is None else 1  # index of the first spatial token
    n = total - off
    gh, gw = grid
    dh = d // heads
    pad = (kernel - 1) // 2
    out = np.zeros((bsz, total, d))
    for b in range(bsz):
        q = x[b] @ wq   # [N(+1), D]
        v = x[b] @ wv
        # query feature map: channel c at (y, x) is q[off + y*gw + x, c]
        qmap = np.zeros((d, gh + 2 * pad, gw + 2 * pad))
        for t in range(n):
            y, xx = divmod(t, gw)
            for c in range(d):
                qmap[c, y + pad, xx + pad] = q[off + t, c]
        merged = np.zeros((total, d))
        for h in range(heads):
            vh = v[:, h * dh:(h + 1) * dh]
            logits = np.zeros((total, total))  # [query, key]
            for key in range(n):
                co = h * n + key
                for qy in range(gh):
                    for qx in range(gw):
                        acc = 0.0
                        for c in range(dh):
                            for ky in range(kernel):
                                for kx in range(kernel):
                                    acc += (conv_w[co, c, ky, kx]
                                            * qmap[h * dh + c, qy + ky, qx + kx])
                        logits[off + qy * gw + qx, off + key] = acc
            if cls_key is not None:
                for i in range(total):
                    logits[i, 0] = sum(q[i, h * dh + e] * cls_key[h, 0, e] for e in range(dh))
            if scaled:
                logits = logits / math.sqrt(dh)
            for i in range(total):
                weights = _row_softmax(list(logits[i]))
                acc = np.zeros(dh)
                for j in range(total):
                    acc += weights[j] * vh[j]
                merged[i, h * dh:(h + 1) * dh] = acc
        out[b] = merged @ wo
    return out


def pooled_nearest_centroid(train_images, train_labels, test_images, test_labels):
    """Classify by nearest class centroid of the per-image pooled mean."""
    pooled_train = train_images.mean(axis=(1, 2, 3))
    pooled_test = test_images.mean(axis=(1, 2, 3))
    centroids = {c: pooled_train[train_labels == c].mean() for c in np.unique(train_labels)}
    classes = sorted(centroids)
    preds = np.array([min(classes, key=lambda c: abs(p - centroids[c])) for p in pooled_test])
    return float((preds == test_labels).mean())


def reference_adam(params, grads_fn, lr, betas, eps, steps):
    """Textbook Adam (no weight decay). Returns the parameter trajectory."""
    b1, b2 = betas
    theta = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    for t in range(1, steps + 1):
        grads = grads_fn(theta)
        for i in range(len(theta)):
            m[i] = b1 * m[i] + (1 - b1) * grads[i]
            v[i] = b2 * v[i] + (1 - b2) * grads[i] ** 2
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            theta[i] = theta[i] - lr * mhat / (np.sqrt(vhat) + eps)
        history.append([p.copy() for p in theta])
    return history


def loop_synth_dataset(kind, n, grid=(8, 8), seed=0):
    """`synth_dataset` drawn image by image through `Rng.uniform`/`Rng.normal`.

    Unlike the oracles above, this one uses the library's `Rng`: it pins the
    order in which a dataset consumes the stream, one image after another,
    not the stream itself (`TestRng` pins that)."""
    from skattn import Rng
    gh, gw = grid
    rng = Rng(seed).split(kind)
    labels = (np.arange(n) % 2).astype(np.int64)
    images = np.empty((n, 1, gh, gw))
    if kind == "stripe_orientation":
        for i in range(n):
            if labels[i] == 0:
                levels = rng.uniform((gh,)) * 2.0 - 1.0
                img = np.repeat(levels[:, None], gw, axis=1)
            else:
                levels = rng.uniform((gw,)) * 2.0 - 1.0
                img = np.repeat(levels[None, :], gh, axis=0)
            images[i, 0] = img + 0.05 * rng.normal((gh, gw))
    else:
        templates = [off + 0.25 * rng.normal((gh, gw)) for off in (-0.25, 0.25)]
        for i in range(n):
            images[i, 0] = templates[labels[i]] + 0.3 * rng.normal((gh, gw))
    return images, labels


def loop_permutation(rng, n):
    """Fisher-Yates over a numpy array, one uint64 raw per swap from the top down."""
    perm = np.arange(n)
    if n > 1:
        raws = rng._raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(raws[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
    return perm
