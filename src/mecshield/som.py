"""Self-organizing map with online training, neuron labeling and map merging.

Neurons live on a 2-D lattice, numbered row-major; weight vectors stay inside
[0,1]^dim: `init_map` draws them there, `from_dict` checks it, merging takes
convex means, and every update is a convex move toward a normalized sample.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

BENIGN = "benign"
MALICIOUS = "malicious"
UNLABELED = "unlabeled"

MAP_FORMAT = "mecshield-som"
MAP_FORMAT_VERSION = 1

# rows `classify_batch` hands the distance kernel at a time: a block's
# (rows, dim, n) float64 differences then stay near the CPU caches (1 MiB for
# a 20x20 map with dim 5); of 16, 32, 64, 128 and 1024 rows, 64 classified a
# 700-row batch fastest per row
CLASSIFY_BLOCK_ROWS = 64


class UnlabeledMapError(RuntimeError):
    """Raised when a classification is requested from a map with no labeled neurons."""


def _sq_dists(vectors: np.ndarray, points_t: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each vector (shape (..., dim)) to each
    of n points stored column-major (shape (dim, n)), shape (..., n).  Every
    winner search compares these (argmin-equivalent to the true distances).
    Each distance sums its dim squared differences in order,
    ((p0 + p1) + p2) + ..., over runs of n contiguous elements, so a single
    vector and a batch row get the same bits."""
    d = points_t - vectors[..., None]
    d *= d
    return d.sum(axis=-2)


# steps whose neighbourhood coefficients one table holds: with the 180
# distinct squared distances of a 20x20 lattice, 360 KiB
TABLE_STEPS = 256


@functools.cache
def _lattice(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """The squared lattice distances of one lattice shape, shared by every
    map of that shape: their distinct values `d2`, ascending (whole numbers,
    held exactly in float64), and the n x n table `rank`, whose entry
    [i, j] is the index in `d2` of neurons i and j's squared distance (the
    smallest unsigned type that holds it: 160 KiB on a 20x20 lattice)."""
    # the index of each lattice offset's squared distance, by |row| and
    # |column| difference
    r, c = np.ogrid[:height, :width]
    values, by_offset = np.unique(r * r + c * c, return_inverse=True)
    by_offset = by_offset.reshape(height, width).astype(np.min_scalar_type(len(values) - 1))
    # neuron (r1, c1) against neuron (r2, c2) at [r1, c1, r2, c2], without an
    # n x n temporary
    row_off, col_off = abs(r - r.T), abs(c - c.T)
    rank = by_offset[row_off[:, None, :, None], col_off[None, :, None, :]]
    rank = rank.reshape(width * height, width * height)
    rank.flags.writeable = False
    values = values.astype(np.float64)
    values.flags.writeable = False
    return values, rank


@dataclass
class SomHyperParams:
    initial_learning_rate: float = 0.1
    initial_radius: float = 10.0
    lr_decay_constant: float = 10000.0
    radius_decay_constant: float = 10000.0

    def __post_init__(self):
        if not (0.0 < self.initial_learning_rate <= 1.0):
            raise ValueError(f"initial_learning_rate must be in (0,1], got {self.initial_learning_rate}")
        # an infinite radius times an underflowed decay would be NaN
        if not (0.0 < self.initial_radius < math.inf):
            raise ValueError(f"initial_radius must be positive and finite, got {self.initial_radius}")
        if not (self.lr_decay_constant > 0.0 and math.isfinite(self.lr_decay_constant)):
            raise ValueError(f"lr_decay_constant must be positive and finite, got {self.lr_decay_constant}")
        if not (self.radius_decay_constant > 0.0 and math.isfinite(self.radius_decay_constant)):
            raise ValueError(f"radius_decay_constant must be positive and finite, got {self.radius_decay_constant}")

    def learning_rate(self, epoch: int) -> float:
        return self.initial_learning_rate * math.exp(-epoch / self.lr_decay_constant)

    def radius(self, epoch: int) -> float:
        return self.initial_radius * math.exp(-epoch / self.radius_decay_constant)


class SomMap:
    """A width x height lattice of neurons, each holding a weight vector of length dim.

    Single-writer: training mutates the map in place; classification is
    read-only.  Neuron index j maps to lattice position (j // width, j % width).
    The codebook is stored column-major, one contiguous row of n values per
    weight dimension, so each step's arithmetic runs over n elements at a
    time; `weights` is its (n, dim) view.
    """

    def __init__(self, width: int, height: int, dim: int, weights: np.ndarray,
                 labels=None, hit_counts=None, benign_wins=None,
                 malicious_wins=None, epoch: int = 0):
        n = width * height
        self.width = width
        self.height = height
        self.dim = dim
        self._wt = np.array(np.asarray(weights, dtype=np.float64).reshape(n, dim).T,
                            order="C")
        # -0.0 + 0.0 is +0.0, so no weight is -0.0 and no step makes one: numpy
        # versions that clip -0.0 to -0.0 and those that clip it to +0.0 agree
        self._wt += 0.0
        self.labels = np.full(n, UNLABELED, dtype="<U9") if labels is None else np.asarray(labels, dtype="<U9")
        self.hit_counts = np.zeros(n, dtype=np.int64) if hit_counts is None else np.asarray(hit_counts, dtype=np.int64)
        self.benign_wins = np.zeros(n, dtype=np.int64) if benign_wins is None else np.asarray(benign_wins, dtype=np.int64)
        self.malicious_wins = np.zeros(n, dtype=np.int64) if malicious_wins is None else np.asarray(malicious_wins, dtype=np.int64)
        self.epoch = epoch

    @property
    def neuron_count(self) -> int:
        return self.width * self.height

    @property
    def weights(self) -> np.ndarray:
        """The (n, dim) codebook, row j neuron j's weight vector: a view, so
        writes through it reach the map."""
        return self._wt.T

    # -- lookup ------------------------------------------------------------

    def _check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"input vector has shape {v.shape}, map dimension is {self.dim}")
        return v

    def find_winner(self, v) -> int:
        """Index of the neuron with minimum Euclidean distance to v.

        Squared distances are compared (argmin-equivalent); ties resolve to
        the lowest row-major index via argmin's first-occurrence rule.
        """
        return int(_sq_dists(self._check_vector(v), self._wt).argmin())

    # -- training ----------------------------------------------------------

    def train_step(self, v, hp: SomHyperParams, label: str | None = None) -> int:
        """One online update, `train_online` of one row: move the winner and
        its lattice neighborhood toward v and return the winner index.
        `label` (benign/malicious) feeds the winner's vote tally; None
        updates weights and hit count only."""
        return self.train_online(self._check_vector(v)[None], hp, [label])[0]

    def train(self, vectors, labels, hp: SomHyperParams) -> None:
        """Pretrain on the samples, in order, each tallied under its label."""
        self.train_online(vectors, hp, labels)

    def train_online(self, vectors, hp: SomHyperParams, labels=None, *,
                     self_labeled: bool = False) -> list[int]:
        """`train_maps` of this map alone; returns each row's winner."""
        return train_maps([self], [vectors], hp, [labels], self_labeled=self_labeled)[0]

    def _check_batch(self, vectors, labels) -> tuple[np.ndarray, list | None]:
        x = np.asarray(vectors, dtype=np.float64)
        if x.ndim == 1 and x.size == 0:
            x = x.reshape(0, self.dim)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"batch has shape {x.shape}, map dimension is {self.dim}")
        if not np.isfinite(x).all():
            raise ValueError("training samples must be finite")
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(x):
                raise ValueError(f"{len(x)} samples but {len(labels)} labels")
            unknown = [lab for lab in labels if lab not in (BENIGN, MALICIOUS, None)]
            if unknown:
                raise ValueError(f"unknown sample label {unknown[0]!r}")
        return x, labels

    def _tally(self, wins: list[int], labels, self_labeled: bool) -> None:
        n = self.neuron_count
        counts = np.bincount(wins, minlength=n)
        self.hit_counts += counts
        if self_labeled:
            self.benign_wins += np.where(self.labels == BENIGN, counts, 0)
            self.malicious_wins += np.where(self.labels == MALICIOUS, counts, 0)
        elif labels is not None:
            for tally, which in ((self.benign_wins, BENIGN),
                                 (self.malicious_wins, MALICIOUS)):
                tally += np.bincount([w for w, lab in zip(wins, labels) if lab == which],
                                     minlength=n)

    # -- labeling / classification ----------------------------------------

    def label_neurons(self) -> None:
        """Assign each neuron the majority label of the samples it won.

        Malicious wins ties (fail-safe).  Neurons with no votes inherit the
        label of the nearest labeled neuron in weight space.
        """
        voted = (self.benign_wins + self.malicious_wins) > 0
        if not voted.any():
            raise UnlabeledMapError("map has no labeled training presentations")
        self.labels[:] = UNLABELED
        self.labels[voted & (self.benign_wins > self.malicious_wins)] = BENIGN
        self.labels[voted & (self.malicious_wins >= self.benign_wins)] = MALICIOUS
        dead = np.nonzero(~voted)[0]
        if dead.size:
            labeled_idx = np.nonzero(voted)[0]
            wt = self._wt
            nearest = _sq_dists(wt[:, dead].T, wt[:, labeled_idx]).argmin(axis=1)
            self.labels[dead] = self.labels[labeled_idx[nearest]]

    @property
    def is_labeled(self) -> bool:
        return bool((self.labels != UNLABELED).any())

    def classify(self, v) -> str:
        """Label of the winning neuron for v."""
        if not self.is_labeled:
            raise UnlabeledMapError("classify called on an unlabeled map")
        return str(self.labels[self.find_winner(v)])

    def classify_batch(self, vectors) -> list[str]:
        if not self.is_labeled:
            raise UnlabeledMapError("classify called on an unlabeled map")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.size == 0:
            return []
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"batch has shape {vectors.shape}, map dimension is {self.dim}")
        labels = self.labels.tolist()
        return [labels[j] for j in _winners(vectors, self._wt)]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        weights = self.weights.tolist()
        return {
            "format": MAP_FORMAT,
            "version": MAP_FORMAT_VERSION,
            "width": self.width,
            "height": self.height,
            "dim": self.dim,
            "epoch": self.epoch,
            "neurons": [
                {
                    "weights": weights[j],
                    "label": str(self.labels[j]),
                    "hit_count": int(self.hit_counts[j]),
                    "benign_wins": int(self.benign_wins[j]),
                    "malicious_wins": int(self.malicious_wins[j]),
                }
                for j in range(self.neuron_count)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SomMap":
        """The map a `to_dict` document describes; ValueError if the document
        is malformed or its values are out of range."""
        if not isinstance(doc, dict) or doc.get("format") != MAP_FORMAT:
            raise ValueError("not a SOM map document")
        if doc.get("version") != MAP_FORMAT_VERSION:
            raise ValueError(f"unsupported map version {doc.get('version')!r}")
        try:
            width, height, dim = int(doc["width"]), int(doc["height"]), int(doc["dim"])
            neurons = doc["neurons"]
            weights = np.array([n["weights"] for n in neurons], dtype=np.float64)
            labels = [n["label"] for n in neurons]
            counts = {k: np.array([n[k] for n in neurons], dtype=np.int64)
                      for k in ("hit_count", "benign_wins", "malicious_wins")}
            epoch = int(doc["epoch"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"malformed map document: {e!r}") from e
        if min(width, height, dim) < 1 or len(neurons) != width * height:
            raise ValueError(f"{len(neurons)} neurons for a {width} x {height} map: map "
                             f"dimensions must be >= 1 and the neurons width x height")
        if weights.shape != (width * height, dim):
            raise ValueError(f"weights have shape {weights.shape}, expected ({width * height}, {dim})")
        if not ((weights >= 0.0) & (weights <= 1.0)).all():     # NaN fails both
            raise ValueError("weights must be finite and lie in [0,1]")
        unknown = [x for x in labels if x not in (BENIGN, MALICIOUS, UNLABELED)]
        if unknown:
            raise ValueError(f"unknown neuron label {unknown[0]!r}")
        return cls(width, height, dim, weights, labels=labels,
                   hit_counts=counts["hit_count"], benign_wins=counts["benign_wins"],
                   malicious_wins=counts["malicious_wins"], epoch=epoch)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "SomMap":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def copy(self) -> "SomMap":
        return SomMap(self.width, self.height, self.dim,
                      weights=self.weights, labels=self.labels.copy(),
                      hit_counts=self.hit_counts.copy(),
                      benign_wins=self.benign_wins.copy(),
                      malicious_wins=self.malicious_wins.copy(),
                      epoch=self.epoch)


def init_map(width: int, height: int, dim: int, seed: int) -> SomMap:
    """Fresh map with weights drawn uniformly from [0,1]; reproducible per seed."""
    if width < 1 or height < 1 or dim < 1:
        raise ValueError(f"map dimensions must be >= 1, got {width}x{height} dim {dim}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(width * height, dim))
    return SomMap(width, height, dim, weights)


def train_maps(maps: list[SomMap], batches, hp: SomHyperParams, labels=None, *,
               self_labeled: bool = False, segments=None) -> list[list[int]]:
    """The one training loop: train each map on its batch, one step per row
    in order, and return each map's winners.  A step pulls the row's winner
    and the neurons within the current lattice radius of it toward the row
    by a Gaussian neighborhood weight.

    The maps share one lattice shape and dimension, and each steps from its
    own epoch.  Maps at the same epoch step together, in lockstep: one
    winner search and one update per epoch serve them all, at that epoch's
    learning rate and radius.  A map gets the bits that training it alone
    gives.

    `labels` holds, per map, one benign/malicious/None label per row, or
    None (all unlabeled); with `self_labeled`, each row of a map without
    segments takes its winner's neuron label (an unlabeled neuron tallies
    no vote), fixed for the batch since training never relabels.
    `segments` holds, per map, None or the lengths of the consecutive
    segments its batch is cut into: such a map, which takes no labels and
    must be labeled, classifies each segment's rows when the segment
    starts, against its codebook as it stands then (as `classify_batch`
    does), and tallies them under those labels (a row an unlabeled neuron
    wins tallies no vote); the winners returned for it are those of the
    classification, its verdicts.  Every batch, its labels and segments
    are checked before any weight moves; the tallies are counted after the
    loop, which never reads them."""
    count = len(maps)
    if not maps or len(batches) != count:
        raise ValueError(f"{count} maps need as many batches, got {len(batches)}")
    labels = [None] * count if labels is None else list(labels)
    segments = [None] * count if segments is None else list(segments)
    if len(labels) != count or len(segments) != count:
        raise ValueError(f"{count} maps need as many label lists and segment lists, "
                         f"got {len(labels)} and {len(segments)}")
    if self_labeled and any(lab is not None for lab in labels):
        raise ValueError("self_labeled takes no labels")
    first = maps[0]
    for m in maps:
        if (m.width, m.height, m.dim) != (first.width, first.height, first.dim):
            raise ValueError(f"maps trained together share one shape: "
                             f"{m.width}x{m.height}/{m.dim} vs "
                             f"{first.width}x{first.height}/{first.dim}")
    if len({id(m) for m in maps}) != count:
        raise ValueError("a map appears twice")
    xs, labels = zip(*(m._check_batch(x, lab) for m, x, lab in zip(maps, batches, labels)))
    begin = [m.epoch for m in maps]
    end = [e + len(x) for e, x in zip(begin, xs)]
    # epoch -> the (map, first row, end row) of each segment starting there
    searches: dict[int, list] = {}
    for i, seg in enumerate(segments):
        if seg is None:
            continue
        if labels[i] is not None:
            raise ValueError("a map trained in segments takes no labels")
        seg = [int(n_rows) for n_rows in seg]
        if min(seg, default=0) < 0 or sum(seg) != len(xs[i]):
            raise ValueError(f"segments of {seg} rows do not cut a batch of {len(xs[i])}")
        if not maps[i].is_labeled:
            raise UnlabeledMapError("a map trained in segments classifies them, "
                                    "but it has no labeled neurons")
        row = 0
        for n_rows in seg:
            if n_rows:
                searches.setdefault(begin[i] + row, []).append((i, row, row + n_rows))
            row += n_rows

    wins: list[list[int]] = [[] for _ in maps]
    verdicts = {i: [] for i, seg in enumerate(segments) if seg is not None}
    lattice = _lattice(first.width, first.height)
    # chunks start at each map's first epoch, at the epoch after its last,
    # at each segment start and at each multiple of TABLE_STEPS, so the maps
    # that step do not change within a chunk
    points = sorted({*begin, *end, *searches})
    for lo, hi in zip(points, points[1:]):
        for i, r0, r1 in searches.get(lo, ()):
            verdicts[i] += _winners(xs[i][r0:r1], maps[i]._wt)
        active = [i for i in range(count) if begin[i] <= lo < end[i]]
        if not active:
            continue
        cuts = [lo, *range((lo // TABLE_STEPS + 1) * TABLE_STEPS, hi, TABLE_STEPS), hi]
        for a, b in zip(cuts, cuts[1:]):
            won = _train_chunk([maps[i] for i in active],
                               [xs[i][a - begin[i]:b - begin[i]] for i in active],
                               range(a, b), hp, lattice)
            for i, mine in zip(active, won):
                wins[i] += mine

    for i, (m, mine, labs) in enumerate(zip(maps, wins, labels)):
        m.epoch += len(mine)
        if i in verdicts:
            names = m.labels.tolist()
            m._tally(mine, [names[j] for j in verdicts[i]], False)
            wins[i] = verdicts[i]
        else:
            m._tally(mine, labs, self_labeled)
    return wins


def _winners(vectors: np.ndarray, wt: np.ndarray) -> list[int]:
    """Each row's winner in the codebook `wt`, searched in blocks of
    CLASSIFY_BLOCK_ROWS; rows are independent, so blocks of any size keep
    the bits."""
    return [j for lo in range(0, len(vectors), CLASSIFY_BLOCK_ROWS)
            for j in _sq_dists(vectors[lo:lo + CLASSIFY_BLOCK_ROWS], wt).argmin(axis=1).tolist()]


def _train_chunk(maps: list[SomMap], rows: list[np.ndarray], epochs: range,
                 hp: SomHyperParams, lattice) -> list[list[int]]:
    """The steps of `epochs`, at most TABLE_STEPS of them, for maps that all
    step at each: map k steps on rows[k], one row per epoch.  Returns each
    map's winners."""
    k = len(maps)
    # a lone map steps on its own (dim, n) codebook and 1-D rows, whose
    # smaller arrays numpy handles faster; several step on one (k, dim, n)
    # stack of their codebooks, written back at the end
    single = k == 1
    if single:
        w, vs = maps[0]._wt, rows[0]
        stack = (w,)
    else:
        w, vs = np.stack([m._wt for m in maps]), np.stack(rows, axis=1)
        stack = w
    width, height = maps[0].width, maps[0].height
    d2, rank = lattice
    # one memoryview per map and weight dimension: the winner-only step reads
    # and writes the winner's column as Python floats
    dims = [[memoryview(row) for row in wk] for wk in stack]
    a0, lr_decay = hp.initial_learning_rate, hp.lr_decay_constant
    r0, radius_decay = hp.initial_radius, hp.radius_decay_constant
    exp = math.exp
    alphas = [a0 * exp(-e / lr_decay) for e in epochs]
    sigmas = [r0 * exp(-e / radius_decay) for e in epochs]
    # lattice distances are whole numbers, so below sigma^2 = 1 the
    # neighborhood is the winner alone, at weight exp(-0) = 1 (also once
    # sigma^2 underflows to 0, where exp(-0/0) would be NaN)
    wide = [t for t, sigma in enumerate(sigmas) if sigma * sigma >= 1.0]
    # per step: None for a winner-only step, else its coefficients by
    # distinct d2 and the lattice rows its radius reaches either side
    updates = [None] * len(epochs)
    if wide:
        # alpha * exp(-d2 / (2 sigma^2)) per wide step and distinct d2: the
        # learning rate times the Gaussian neighborhood weight, exactly 0
        # beyond the radius, so only the distances within the chunk's widest
        # radius are computed
        sigma = np.array([sigmas[t] for t in wide])
        s2 = sigma * sigma
        near = d2[:d2.searchsorted(s2.max(), "right")]
        coef = np.zeros((len(wide), len(d2)))
        within = coef[:, :len(near)]
        np.multiply(np.exp(-near / (2.0 * sigma * sigma)[:, None]),
                    np.array([alphas[t] for t in wide])[:, None], out=within)
        within[near > s2[:, None]] = 0.0
        for t, c in zip(wide, coef):
            updates[t] = c, math.isqrt(int(min(sigmas[t] * sigmas[t], height * height)))
    ys = ((vs[:, None] if single else vs).tolist() if len(wide) < len(updates)
          else itertools.repeat(None))
    won = []
    for v, y, update, alpha in zip(vs, ys, updates, alphas):
        win = _sq_dists(v, w).argmin(-1)
        js = [int(win)] if single else win.tolist()
        won += js
        if update is None:
            # IEEE sub/mul/add and a clamp on Python floats: the bits of the
            # update below at weight 1
            for cols, yv, j in zip(dims, y, js):
                for col, yd in zip(cols, yv):
                    wj = col[j]
                    wj += alpha * (yd - wj)
                    col[j] = 0.0 if wj < 0.0 else 1.0 if wj > 1.0 else wj
        else:
            # convex moves, w + (alpha*h)*(v - w) within the radius and
            # w + 0*(v - w) == w beyond it (v - w is finite and no weight is
            # -0.0), over the lattice rows the radius reaches from any
            # winner; the clamps to [0,1] only guard against ulp-level
            # overshoot, and the weights that do not move already lie there
            c, reach = update
            c0 = max(0, min(js) // width - reach) * width
            c1 = min(height, max(js) // width + reach + 1) * width
            band = w[..., c0:c1]
            move = v[..., None] - band
            move *= c.take(rank[win, c0:c1])[..., None, :]
            band += move
            band.clip(0.0, 1.0, out=band)
    if not single:
        for m, wk in zip(maps, w):
            m._wt[...] = wk
    return [won[pos::k] for pos in range(k)]


def merge_maps(maps: list[SomMap]) -> SomMap:
    """Hit-count-weighted per-neuron average of several same-shaped maps.

    Vote tallies and hit counts are summed; labels are recomputed from the
    summed tallies.  Neurons nobody ever won fall back to the uniform mean.
    """
    if not maps:
        raise ValueError("merge_maps needs at least one map")
    first = maps[0]
    for m in maps[1:]:
        if (m.width, m.height, m.dim) != (first.width, first.height, first.dim):
            raise ValueError(
                f"map shape mismatch: {m.width}x{m.height}/{m.dim} vs "
                f"{first.width}x{first.height}/{first.dim}")
    if len(maps) == 1:
        # the weighted mean h*w/h of one map is not always w in floating point
        merged_wt = first._wt
    else:
        w = np.stack([m._wt for m in maps])              # (M, dim, n)
        hits = np.stack([m.hit_counts for m in maps]).astype(np.float64)  # (M, n)
        total = hits.sum(axis=0)
        weighted = (hits[:, None, :] * w).sum(axis=0)
        uniform = w.mean(axis=0)
        merged_wt = np.where(total > 0, weighted / np.maximum(total, 1.0), uniform)
    merged = SomMap(
        first.width, first.height, first.dim, merged_wt.T,
        hit_counts=sum(m.hit_counts for m in maps),
        benign_wins=sum(m.benign_wins for m in maps),
        malicious_wins=sum(m.malicious_wins for m in maps),
        epoch=sum(m.epoch for m in maps),
    )
    if ((merged.benign_wins + merged.malicious_wins) > 0).any():
        merged.label_neurons()
    return merged
