"""Self-organizing map with online training, neuron labeling and map merging.

Neurons live on a 2-D lattice stored row-major; weight vectors stay inside
[0,1]^dim: `init_map` draws them there, `from_dict` checks it, merging takes
convex means, and every update is a convex move toward a normalized sample.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

BENIGN = "benign"
MALICIOUS = "malicious"
UNLABELED = "unlabeled"

MAP_FORMAT = "mecshield-som"
MAP_FORMAT_VERSION = 1


class UnlabeledMapError(RuntimeError):
    """Raised when a classification is requested from a map with no labeled neurons."""


def _sq_dists(vectors: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each of k vectors to each of n points,
    shape (k, n).  Every winner search compares these (argmin-equivalent to
    the true distances)."""
    d = vectors[:, None, :] - points[None, :, :]
    return np.einsum("kij,kij->ki", d, d)


_LATTICE_SQ: dict[tuple[int, int], np.ndarray] = {}


def _lattice_sq_dists(width: int, height: int) -> np.ndarray:
    """Read-only table of squared lattice distances between every two neurons,
    shape (n, n): 625 KiB for 20x20.  Built once per lattice shape and
    shared by every map of that shape, copies included.  The distances are
    whole numbers, so int32 holds them exactly and they convert to the same
    float64 values in arithmetic."""
    table = _LATTICE_SQ.get((width, height))
    if table is None:
        rows, cols = np.divmod(np.arange(width * height), width)
        coords = np.stack([rows, cols], axis=1)
        table = _sq_dists(coords, coords).astype(np.int32)
        table.flags.writeable = False
        _LATTICE_SQ[(width, height)] = table
    return table


@dataclass
class SomHyperParams:
    initial_learning_rate: float = 0.1
    initial_radius: float = 10.0
    lr_decay_constant: float = 10000.0
    radius_decay_constant: float = 10000.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.initial_learning_rate <= 1.0):
            raise ValueError(f"initial_learning_rate must be in (0,1], got {self.initial_learning_rate}")
        if self.initial_radius <= 0.0:
            raise ValueError(f"initial_radius must be > 0, got {self.initial_radius}")
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
    """

    def __init__(self, width: int, height: int, dim: int, weights: np.ndarray,
                 labels=None, hit_counts=None, benign_wins=None,
                 malicious_wins=None, epoch: int = 0):
        n = width * height
        self.width = width
        self.height = height
        self.dim = dim
        self.weights = np.asarray(weights, dtype=np.float64).reshape(n, dim)
        self.labels = np.full(n, UNLABELED, dtype="<U9") if labels is None else np.asarray(labels, dtype="<U9")
        self.hit_counts = np.zeros(n, dtype=np.int64) if hit_counts is None else np.asarray(hit_counts, dtype=np.int64)
        self.benign_wins = np.zeros(n, dtype=np.int64) if benign_wins is None else np.asarray(benign_wins, dtype=np.int64)
        self.malicious_wins = np.zeros(n, dtype=np.int64) if malicious_wins is None else np.asarray(malicious_wins, dtype=np.int64)
        self.epoch = epoch

    @property
    def neuron_count(self) -> int:
        return self.width * self.height

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
        v = self._check_vector(v)
        return int(np.argmin(_sq_dists(v[None, :], self.weights)[0]))

    # -- training ----------------------------------------------------------

    def train_step(self, v, hp: SomHyperParams, label: str | None = None,
                   winner: int | None = None) -> int:
        """One online update: move the winner and its lattice neighborhood toward v.

        Neurons whose lattice distance to the winner is within the current
        radius are pulled by a Gaussian neighborhood weight.  Returns the
        winner index.  `label` (benign/malicious) feeds the winner's vote
        tally; None updates weights and hit count only.  `winner` is
        `find_winner(v)` when the caller has already searched these weights.
        """
        v = self._check_vector(v)
        alpha = hp.learning_rate(self.epoch)
        sigma = hp.radius(self.epoch)
        win = self.find_winner(v) if winner is None else winner
        d2_grid = _lattice_sq_dists(self.width, self.height)[win]
        s2 = sigma * sigma
        mask = d2_grid <= s2
        # once s2 underflows to 0 the mask holds the winner alone, at the
        # Gaussian's limit weight 1 (exp(-0/0) would be NaN)
        h = np.exp(-d2_grid[mask] / (2.0 * sigma * sigma)) if s2 > 0.0 else np.ones(1)
        moved = self.weights[mask]
        moved += alpha * h[:, None] * (v - moved)
        # convex move; the clip only guards against ulp-level overshoot at
        # 0/1, and the rows that did not move already lie in [0,1]
        np.clip(moved, 0.0, 1.0, out=moved)
        self.weights[mask] = moved
        self.hit_counts[win] += 1
        if label == BENIGN:
            self.benign_wins[win] += 1
        elif label == MALICIOUS:
            self.malicious_wins[win] += 1
        elif label is not None:
            raise ValueError(f"unknown sample label {label!r}")
        self.epoch += 1
        return win

    def train(self, vectors, labels, hp: SomHyperParams) -> None:
        for v, lab in zip(vectors, labels):
            self.train_step(v, hp, label=lab)

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
            nearest = _sq_dists(self.weights[dead], self.weights[labeled_idx]).argmin(axis=1)
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
        winners = _sq_dists(vectors, self.weights).argmin(axis=1)
        return [str(self.labels[j]) for j in winners]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": MAP_FORMAT,
            "version": MAP_FORMAT_VERSION,
            "width": self.width,
            "height": self.height,
            "dim": self.dim,
            "epoch": self.epoch,
            "neurons": [
                {
                    "weights": [float(x) for x in self.weights[j]],
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
                      weights=self.weights.copy(), labels=self.labels.copy(),
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
        merged_w = first.weights.copy()
    else:
        w = np.stack([m.weights for m in maps])          # (M, n, dim)
        hits = np.stack([m.hit_counts for m in maps]).astype(np.float64)  # (M, n)
        total = hits.sum(axis=0)
        weighted = (hits[:, :, None] * w).sum(axis=0)
        uniform = w.mean(axis=0)
        merged_w = np.where(total[:, None] > 0,
                            weighted / np.maximum(total[:, None], 1.0), uniform)
    merged = SomMap(
        first.width, first.height, first.dim, merged_w,
        hit_counts=sum(m.hit_counts for m in maps),
        benign_wins=sum(m.benign_wins for m in maps),
        malicious_wins=sum(m.malicious_wins for m in maps),
        epoch=sum(m.epoch for m in maps),
    )
    if ((merged.benign_wins + merged.malicious_wins) > 0).any():
        merged.label_neurons()
    return merged
