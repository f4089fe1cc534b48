"""Seeded world generators for the benchmark workloads.

Each generator takes its seed as an argument and returns (features, labels,
num_classes) as numpy arrays; `write_rawf32` stores them in the program's
rawf32 format. The program under test only ever sees the written files.
Nothing here imports the program, so a change to its own generators or test
fixtures cannot change a workload.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed), *tag.encode("ascii")]))


# ---------------------------------------------------------------------------
# heavy-tail four-class 2-D mixture (the acceptance check-5 world)

CORE_CENTERS = np.array([[5.0, 0.0], [-5.0, 0.0]])
BROAD_CENTERS = np.array([[0.0, 0.9], [0.0, -0.9]])
CORE_SIGMA = 0.55
BROAD_SIGMA = 2.6
TAIL_FRACTION = 0.30
TAIL_SIGMA = 5.0


def heavy_tail_mixture(n: int, seed: int):
    """Two tight cores at (+-5, 0) and two broad classes near the origin
    whose samples are 70% sigma-2.6 and 30% sigma-5 tails."""
    rng = _rng(seed, "heavy_tail")
    per = n // 4
    feats, labels = [], []
    for c, mean, sigma in ((0, CORE_CENTERS[0], CORE_SIGMA),
                           (1, BROAD_CENTERS[0], BROAD_SIGMA),
                           (2, CORE_CENTERS[1], CORE_SIGMA),
                           (3, BROAD_CENTERS[1], BROAD_SIGMA)):
        pts = rng.normal(mean, sigma, size=(per, 2))
        if c in (1, 3):
            n_tail = int(round(TAIL_FRACTION * per))
            pts[:n_tail] = rng.normal(mean, TAIL_SIGMA, size=(n_tail, 2))
        feats.append(pts)
        labels.append(np.full(per, c))
    X = np.vstack(feats).astype(np.float32)
    y = np.concatenate(labels)
    perm = rng.permutation(len(y))
    return X[perm], y[perm], 4


# ---------------------------------------------------------------------------
# isotropic Gaussian blobs on a circle


def circle_mixture(n: int, seed: int, classes: int = 4, sigma: float = 1.5,
                   radius: float = 3.0):
    """`classes` 2-D Gaussian blobs with means evenly spaced on a circle."""
    rng = _rng(seed, "circle")
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = np.arange(n) % classes
    X = (means[y] + rng.normal(0.0, sigma, size=(n, 2))).astype(np.float32)
    perm = rng.permutation(n)
    return X[perm], y[perm], classes


# ---------------------------------------------------------------------------
# 28x28 stroke glyphs

GLYPH_SIDE = 28


def _arc(cx, cy, rx, ry, a0, a1, steps=24):
    a = np.linspace(a0, a1, steps)
    return list(zip(cx + rx * np.cos(a), cy + ry * np.sin(a)))


# one list of polylines per class, in unit coordinates (x right, y down)
_STROKES = [
    [_arc(0.5, 0.5, 0.22, 0.32, 0, 2 * np.pi)],
    [[(0.42, 0.28), (0.52, 0.18), (0.52, 0.82)]],
    [_arc(0.5, 0.36, 0.2, 0.17, np.pi, 2.2 * np.pi)
     + [(0.28, 0.82), (0.74, 0.82)]],
    [_arc(0.48, 0.34, 0.2, 0.15, -0.8 * np.pi, 0.5 * np.pi),
     _arc(0.48, 0.66, 0.22, 0.17, -0.5 * np.pi, 0.8 * np.pi)],
    [[(0.62, 0.82), (0.62, 0.18), (0.26, 0.62), (0.78, 0.62)]],
    [[(0.72, 0.18), (0.32, 0.18), (0.3, 0.48)],
     _arc(0.48, 0.62, 0.22, 0.19, -0.75 * np.pi, 0.8 * np.pi)],
    [_arc(0.5, 0.65, 0.2, 0.17, 0, 2 * np.pi),
     [(0.3, 0.62), (0.44, 0.3), (0.62, 0.16)]],
    [[(0.26, 0.2), (0.76, 0.2), (0.42, 0.84)]],
    [_arc(0.5, 0.33, 0.16, 0.15, 0, 2 * np.pi),
     _arc(0.5, 0.66, 0.2, 0.17, 0, 2 * np.pi)],
    [_arc(0.5, 0.35, 0.19, 0.16, 0, 2 * np.pi),
     [(0.69, 0.35), (0.64, 0.84)]],
]


def _render_template(polylines, width: float = 0.055) -> np.ndarray:
    """Anti-aliased strokes: pixel intensity falls off with the distance to
    the nearest polyline segment."""
    side = GLYPH_SIDE
    coords = (np.arange(side) + 0.5) / side
    px = np.stack(np.meshgrid(coords, coords, indexing="xy"),
                  axis=-1).reshape(-1, 2)
    dist = np.full(px.shape[0], np.inf)
    for line in polylines:
        pts = np.asarray(line, dtype=np.float64)
        for a, b in zip(pts[:-1], pts[1:]):
            ab = b - a
            t = np.clip(((px - a) @ ab) / max(ab @ ab, 1e-12), 0.0, 1.0)
            d = np.linalg.norm(px - (a + t[:, None] * ab), axis=1)
            dist = np.minimum(dist, d)
    return np.exp(-0.5 * (dist / width) ** 2).reshape(side, side)


def glyphs(n: int, seed: int, noise: float = 0.4, chunk: int = 4096):
    """10-class 28x28 glyphs: each class template is rendered once, then
    every image is an affine-jittered copy taken by a nearest-pixel index
    gather, plus uniform pixel noise, clipped to [0, 1]."""
    rng = _rng(seed, "glyphs")
    side, pad = GLYPH_SIDE, 12
    big = side + 2 * pad
    templates = np.stack([_render_template(s) for s in _STROKES])
    k = templates.shape[0]
    # a zero border wide enough that clamped out-of-range taps read 0
    padded = np.zeros((k, big, big), dtype=np.float32)
    padded[:, pad:pad + side, pad:pad + side] = templates
    flat = padded.ravel()
    y = np.arange(n) % k
    rng.shuffle(y)
    centre = np.float32((side - 1) / 2.0)
    gx, gy = (np.stack(np.meshgrid(np.arange(side), np.arange(side),
                                   indexing="xy"), axis=-1).reshape(-1, 2)
              .astype(np.float32) - centre).T
    X = np.empty((n, side * side), dtype=np.float32)
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        rot = rng.uniform(-0.3, 0.3, m)
        scale = rng.uniform(0.8, 1.2, m)
        shear = rng.uniform(-0.25, 0.25, m)
        shift = rng.uniform(-2.5, 2.5, (m, 2))
        cos = (np.cos(rot) / scale).astype(np.float32)[:, None]
        sin = (np.sin(rot) / scale).astype(np.float32)[:, None]
        off = (centre + pad - shift).astype(np.float32)
        # inverse map: output pixel -> template pixel
        ix = np.rint(cos * gx + (shear[:, None] - sin) * gy + off[:, :1])
        iy = np.rint(sin * gx + cos * gy + off[:, 1:])
        tap = (np.clip(iy, 0, big - 1).astype(np.int32) * big
               + np.clip(ix, 0, big - 1).astype(np.int32)
               + (y[lo:lo + m, None] * (big * big)).astype(np.int32))
        img = flat[tap]
        img += rng.random(img.shape, dtype=np.float32) * (2 * noise) - noise
        X[lo:lo + m] = np.clip(img, 0.0, 1.0)
    return X, y, k


def write_rawf32(path: str, X: np.ndarray, y: np.ndarray, k: int) -> None:
    """Features, `<path>.meta` and `<path>.labels`, as the program reads them."""
    X = np.ascontiguousarray(X, dtype="<f4")
    with open(path, "wb") as f:
        f.write(X.tobytes())
    with open(path + ".meta", "w") as f:
        f.write(f"n={X.shape[0]}\nd={X.shape[1]}\nk={k}\n")
    with open(path + ".labels", "wb") as f:
        f.write(np.ascontiguousarray(y, dtype="<u4").tobytes())
