"""Unit tests for the SOM lattice: winner search, training dynamics,
labeling, merging and serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mecshield.som import (BENIGN, MALICIOUS, UNLABELED, SomHyperParams,
                           SomMap, UnlabeledMapError, init_map, merge_maps)



def brute_force_winner(m, v):
    """Independent oracle: plain loop over neurons with true Euclidean distance."""
    best, best_d = 0, float("inf")
    for j in range(m.neuron_count):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(m.weights[j], v)))
        if d < best_d:
            best, best_d = j, d
    return best


def test_init_map_shape_and_range():
    m = init_map(20, 20, 5, seed=1)
    assert m.neuron_count == 400
    assert m.weights.shape == (400, 5)
    assert (m.weights >= 0.0).all() and (m.weights <= 1.0).all()
    assert (m.labels == UNLABELED).all()
    assert m.hit_counts.sum() == 0 and m.epoch == 0


def test_init_map_single_neuron():
    m = init_map(1, 1, 3, seed=9)
    assert m.neuron_count == 1
    assert m.weights.shape == (1, 3)


def test_init_map_reproducible():
    a = init_map(2, 2, 2, seed=42)
    b = init_map(2, 2, 2, seed=42)
    assert (a.weights == b.weights).all()


def test_init_map_rejects_bad_dims():
    for args in [(0, 2, 3), (2, 0, 3), (2, 2, 0)]:
        with pytest.raises(ValueError):
            init_map(*args, seed=0)


def test_find_winner_exact_weight_match():
    m = init_map(4, 4, 3, seed=3)
    for j in [0, 7, 15]:
        assert m.find_winner(m.weights[j]) == j


def test_find_winner_matches_brute_force():
    rng = np.random.default_rng(100)
    for _ in range(200):
        w = int(rng.integers(2, 8))
        h = int(rng.integers(2, 8))
        dim = int(rng.choice([3, 5]))
        m = init_map(w, h, dim, seed=int(rng.integers(1 << 30)))
        v = rng.uniform(0.0, 1.0, size=dim)
        assert m.find_winner(v) == brute_force_winner(m, v)


def test_find_winner_tie_breaks_low_index():
    w = np.array([[0.4, 0.4], [0.4, 0.4], [0.9, 0.9]])
    m = SomMap(3, 1, 2, w)
    assert m.find_winner([0.4, 0.4]) == 0
    # symmetric tie around the sample
    w2 = np.array([[0.0, 0.0], [1.0, 1.0]])
    m2 = SomMap(2, 1, 2, w2)
    assert m2.find_winner([0.5, 0.5]) == 0


def test_find_winner_dimension_mismatch():
    m = init_map(2, 2, 3, seed=0)
    with pytest.raises(ValueError):
        m.find_winner([0.1, 0.2])


def test_train_step_moves_winner_closer():
    hp = SomHyperParams(initial_learning_rate=0.5, initial_radius=1e-6)
    m = init_map(3, 3, 3, seed=11)
    v = np.array([0.9, 0.1, 0.5])
    j = m.find_winner(v)
    before = np.linalg.norm(m.weights[j] - v)
    m.train_step(v, hp)
    after = np.linalg.norm(m.weights[j] - v)
    assert after < before


def test_train_step_updates_tallies_and_epoch():
    hp = SomHyperParams()
    m = init_map(2, 2, 3, seed=1)
    v = m.weights[2].copy()
    win = m.train_step(v, hp, label=MALICIOUS)
    assert win == 2
    assert m.epoch == 1
    assert m.hit_counts[2] == 1 and m.malicious_wins[2] == 1
    m.train_step(v, hp, label=BENIGN)
    assert m.benign_wins[2] == 1
    with pytest.raises(ValueError):
        m.train_step(v, hp, label="weird")


@pytest.mark.parametrize("epoch,radius_decay", [(10**6, 1000.0), (1_200_000, 3000.0)])
def test_train_step_after_radius_underflow_moves_winner_only(epoch, radius_decay):
    # sigma^2 is 0.0 here; the winner keeps the Gaussian's limit weight 1
    hp = SomHyperParams(initial_learning_rate=0.5, initial_radius=10.0,
                        lr_decay_constant=1e15, radius_decay_constant=radius_decay)
    assert hp.radius(epoch) ** 2 == 0.0
    m = init_map(3, 3, 5, seed=1)
    m.epoch = epoch
    before = m.weights.copy()
    v = np.full(5, 0.5)
    win = m.train_step(v, hp)
    assert np.isfinite(m.weights).all()
    expected = before.copy()
    expected[win] += hp.learning_rate(epoch) * (v - before[win])
    assert m.weights.tobytes() == expected.tobytes()


def test_decay_schedule_values():
    hp = SomHyperParams(initial_learning_rate=0.1, initial_radius=10.0,
                        lr_decay_constant=100.0, radius_decay_constant=50.0)
    assert hp.learning_rate(0) == 0.1
    assert hp.learning_rate(100) == pytest.approx(0.1 * math.exp(-1.0))
    assert hp.radius(0) == 10.0
    assert hp.radius(100) == pytest.approx(10.0 * math.exp(-2.0))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        SomHyperParams(initial_learning_rate=0.0)
    with pytest.raises(ValueError):
        SomHyperParams(initial_learning_rate=1.5)
    with pytest.raises(ValueError):
        SomHyperParams(initial_radius=-1.0)
    with pytest.raises(ValueError):
        SomHyperParams(lr_decay_constant=float("inf"))
    with pytest.raises(ValueError):
        SomHyperParams(radius_decay_constant=0.0)


def test_weights_stay_in_unit_cube_after_10000_steps():
    rng = np.random.default_rng(77)
    hp = SomHyperParams(initial_learning_rate=1.0, initial_radius=5.0,
                        lr_decay_constant=1e6, radius_decay_constant=1e6)
    m = init_map(5, 5, 3, seed=8)
    for _ in range(10000):
        m.train_step(rng.uniform(0.0, 1.0, size=3), hp)
        assert (m.weights >= 0.0).all() and (m.weights <= 1.0).all()
    assert m.epoch == 10000
    assert m.hit_counts.sum() == 10000


def test_radius_zero_constant_alpha_geometric_convergence():
    # huge decay constants make alpha effectively constant over a few steps
    hp = SomHyperParams(initial_learning_rate=0.5, initial_radius=1e-9,
                        lr_decay_constant=1e15, radius_decay_constant=1e15)
    m = init_map(1, 1, 3, seed=2)
    v = np.array([1.0, 0.0, 1.0])
    d_prev = np.linalg.norm(m.weights[0] - v)
    for _ in range(15):
        m.train_step(v, hp)
        d = np.linalg.norm(m.weights[0] - v)
        assert d == pytest.approx(0.5 * d_prev, rel=1e-9)
        d_prev = d


def test_training_determinism():
    rng = np.random.default_rng(13)
    samples = rng.uniform(0, 1, size=(500, 5))
    labels = [BENIGN if i % 3 else MALICIOUS for i in range(500)]
    hp = SomHyperParams()
    a = init_map(6, 6, 5, seed=4)
    b = init_map(6, 6, 5, seed=4)
    a.train(samples, labels, hp)
    b.train(samples, labels, hp)
    assert (a.weights == b.weights).all()
    assert (a.hit_counts == b.hit_counts).all()


def test_label_neurons_majority_and_tie():
    m = init_map(2, 1, 2, seed=0)
    m.benign_wins[:] = [10, 3]
    m.malicious_wins[:] = [2, 3]
    m.hit_counts[:] = [12, 6]
    m.label_neurons()
    assert m.labels[0] == BENIGN
    assert m.labels[1] == MALICIOUS  # ties go malicious


def test_label_neurons_dead_neuron_inherits_nearest():
    w = np.array([[0.0, 0.0], [1.0, 1.0], [0.9, 0.9]])
    m = SomMap(3, 1, 2, w)
    m.benign_wins[:] = [5, 0, 0]
    m.malicious_wins[:] = [0, 4, 0]
    m.label_neurons()
    # neuron 2 has no votes; its nearest labeled neighbor in weight space is 1
    assert m.labels[2] == MALICIOUS


def test_label_neurons_requires_votes():
    m = init_map(2, 2, 2, seed=0)
    with pytest.raises(UnlabeledMapError):
        m.label_neurons()


def test_classify_returns_winner_label():
    rng = np.random.default_rng(21)
    m = init_map(5, 5, 3, seed=6)
    m.benign_wins[:] = rng.integers(0, 5, size=25)
    m.malicious_wins[:] = rng.integers(0, 5, size=25)
    m.hit_counts[:] = m.benign_wins + m.malicious_wins
    if m.hit_counts.sum() == 0:
        m.benign_wins[0] = 1
    m.label_neurons()
    for _ in range(50):
        v = rng.uniform(0, 1, size=3)
        assert m.classify(v) == m.labels[brute_force_winner(m, v)]
    batch = rng.uniform(0, 1, size=(20, 3))
    assert m.classify_batch(batch) == [m.classify(v) for v in batch]


def test_classify_unlabeled_raises():
    m = init_map(2, 2, 3, seed=0)
    with pytest.raises(UnlabeledMapError):
        m.classify([0.1, 0.2, 0.3])
    with pytest.raises(UnlabeledMapError):
        m.classify_batch([[0.1, 0.2, 0.3]])


def test_squared_distance_equals_distance_argmin():
    # monotone-transform invariance of the winner
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = init_map(4, 4, 5, seed=int(rng.integers(1 << 30)))
        v = rng.uniform(0, 1, size=5)
        d = np.linalg.norm(m.weights - v, axis=1)
        d2 = (np.square(m.weights - v)).sum(axis=1)
        assert int(np.argmin(d)) == int(np.argmin(d2)) == m.find_winner(v)


def test_merge_self_is_identity():
    m = init_map(3, 3, 4, seed=12)
    m.hit_counts[:] = 3
    m.benign_wins[:] = 3
    merged = merge_maps([m, m])
    assert np.allclose(merged.weights, m.weights)


def test_merge_weighted_mean():
    a = SomMap(1, 1, 1, np.array([[0.2]]))
    b = SomMap(1, 1, 1, np.array([[0.6]]))
    a.hit_counts[:] = 1
    b.hit_counts[:] = 3
    a.benign_wins[:] = 1
    b.malicious_wins[:] = 3
    merged = merge_maps([a, b])
    assert merged.weights[0, 0] == pytest.approx((0.2 * 1 + 0.6 * 3) / 4)
    assert merged.hit_counts[0] == 4
    assert merged.labels[0] == MALICIOUS


def test_merge_zero_hits_uses_uniform_mean():
    a = SomMap(1, 1, 2, np.array([[0.0, 1.0]]))
    b = SomMap(1, 1, 2, np.array([[1.0, 0.0]]))
    merged = merge_maps([a, b])
    assert np.allclose(merged.weights, [[0.5, 0.5]])


def test_merge_convex_bounds():
    rng = np.random.default_rng(55)
    for _ in range(50):
        maps = []
        for k in range(3):
            m = init_map(3, 2, 3, seed=int(rng.integers(1 << 30)))
            m.hit_counts[:] = rng.integers(0, 10, size=6)
            m.benign_wins[:] = m.hit_counts
            maps.append(m)
        for m in maps:
            m.weights[rng.random(m.weights.shape) < 0.3] = 1.0
        merged = merge_maps(maps)
        stack = np.stack([m.weights for m in maps])
        assert (merged.weights >= stack.min(axis=0) - 1e-12).all()
        assert (merged.weights <= stack.max(axis=0) + 1e-12).all()
        assert ((merged.weights >= 0.0) & (merged.weights <= 1.0)).all()


def test_merge_shape_mismatch():
    with pytest.raises(ValueError):
        merge_maps([init_map(2, 2, 3, 0), init_map(2, 3, 3, 0)])
    with pytest.raises(ValueError):
        merge_maps([])


def test_serialization_round_trip_lossless(tmp_path):
    m = init_map(4, 4, 5, seed=19)
    rng = np.random.default_rng(19)
    hp = SomHyperParams()
    for _ in range(200):
        m.train_step(rng.uniform(0, 1, size=5), hp,
                     label=BENIGN if rng.random() < 0.5 else MALICIOUS)
    m.label_neurons()
    path = tmp_path / "map.json"
    m.save(path)
    loaded = SomMap.load(path)
    assert (loaded.weights == m.weights).all()       # bit-exact floats
    assert (loaded.labels == m.labels).all()
    assert (loaded.hit_counts == m.hit_counts).all()
    assert loaded.epoch == m.epoch
    # saving again produces an identical byte stream
    path2 = tmp_path / "map2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_from_dict_rejects_foreign_documents():
    with pytest.raises(ValueError):
        SomMap.from_dict({"format": "something-else"})
    m = init_map(1, 1, 1, seed=0)
    doc = m.to_dict()
    doc["version"] = 99
    with pytest.raises(ValueError):
        SomMap.from_dict(doc)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["neurons"].pop(), "neurons"),
    (lambda d: d.update(width=3), "neurons"),
    (lambda d: d.update(width=0, height=0, neurons=[]), "dimensions"),
    (lambda d: d["neurons"][1].update(weights=[0.5]), "shape"),
    (lambda d: d["neurons"][0]["weights"].__setitem__(0, float("nan")), "finite"),
    (lambda d: d["neurons"][0]["weights"].__setitem__(1, float("inf")), "finite"),
    (lambda d: d["neurons"][2]["weights"].__setitem__(0, -0.25), r"\[0,1\]"),
    (lambda d: d["neurons"][3]["weights"].__setitem__(2, 1.5), r"\[0,1\]"),
    (lambda d: d["neurons"][0].update(label="suspicious"), "label"),
    (lambda d: d["neurons"][0].update(label="maliciousness"), "label"),
    (lambda d: d.pop("neurons"), "malformed"),
    (lambda d: d["neurons"][0].pop("hit_count"), "malformed"),
    (lambda d: d.update(epoch="later"), "malformed"),
])
def test_from_dict_rejects_bad_maps(edit, match):
    doc = json.loads(json.dumps(init_map(2, 2, 3, seed=4).to_dict()))
    SomMap.from_dict(doc)
    edit(doc)
    with pytest.raises(ValueError, match=match):
        SomMap.from_dict(doc)


def test_copy_is_independent():
    m = init_map(2, 2, 2, seed=1)
    c = m.copy()
    c.weights[0, 0] = 0.123
    c.hit_counts[0] = 7
    assert m.weights[0, 0] != 0.123
    assert m.hit_counts[0] == 0


# Weights and inputs on a 1/16 grid keep every squared distance exact in
# float64, so the oracle's summation order cannot matter and every tie is a
# real tie that must resolve to the lowest index.
_grid = st.integers(0, 16).map(lambda k: k / 16)


@st.composite
def voted_maps_and_inputs(draw):
    width, height, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n = width * height
    weights = draw(st.lists(_grid, min_size=n * dim, max_size=n * dim))
    dead = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assume(not all(dead))
    benign = [0 if d else draw(st.integers(0, 3)) for d in dead]
    # a live neuron has at least one vote
    malicious = [0 if d else draw(st.integers(0, 3)) if b else draw(st.integers(1, 3))
                 for d, b in zip(dead, benign)]
    m = SomMap(width, height, dim, np.array(weights).reshape(n, dim),
               benign_wins=benign, malicious_wins=malicious)
    vectors = draw(st.lists(st.lists(_grid, min_size=dim, max_size=dim),
                            min_size=1, max_size=8))
    return m, np.array(vectors)


def _brute_sq(a, b):
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def _brute_nearest(m, v, candidates):
    best, best_d = None, None
    for j in candidates:
        d = _brute_sq(m.weights[j], v)
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def _brute_labels(m):
    def vote(j):
        return BENIGN if m.benign_wins[j] > m.malicious_wins[j] else MALICIOUS
    voted = [j for j in range(m.neuron_count)
             if m.benign_wins[j] + m.malicious_wins[j] > 0]
    return [vote(j) if j in voted else vote(_brute_nearest(m, m.weights[j], voted))
            for j in range(m.neuron_count)]


@settings(deadline=None, max_examples=150)
@given(voted_maps_and_inputs())
def test_distance_kernel_matches_brute_force_loop(case):
    m, vectors = case
    expected_labels = _brute_labels(m)
    m.label_neurons()
    assert [str(x) for x in m.labels] == expected_labels
    winners = [_brute_nearest(m, v, range(m.neuron_count)) for v in vectors]
    assert [m.find_winner(v) for v in vectors] == winners
    assert m.classify_batch(vectors) == [expected_labels[j] for j in winners]


@st.composite
def trained_maps(draw):
    """Maps with arbitrary unit-cube weights, consistent tallies, an epoch,
    and labels from label_neurons whenever any neuron has votes."""
    width, height, dim = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = width * height
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n * dim, max_size=n * dim))
    benign = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    malicious = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    unvoted = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    m = SomMap(width, height, dim, np.array(weights).reshape(n, dim),
               hit_counts=[b + x + u for b, x, u in zip(benign, malicious, unvoted)],
               benign_wins=benign, malicious_wins=malicious,
               epoch=draw(st.integers(0, 10**6)))
    if sum(benign) + sum(malicious):
        m.label_neurons()
    return m


@settings(deadline=None, max_examples=100)
@given(trained_maps())
def test_json_round_trip_is_exact(m):
    back = SomMap.from_dict(json.loads(json.dumps(m.to_dict(), sort_keys=True)))
    assert back.weights.tobytes() == m.weights.tobytes()
    assert back.to_dict() == m.to_dict()


@settings(deadline=None, max_examples=100)
@given(trained_maps())
def test_merge_of_one_map_reproduces_it(m):
    merged = merge_maps([m])
    assert merged.weights.tobytes() == m.weights.tobytes()
    assert merged.to_dict() == m.to_dict()


def _train_step_clipping_every_row(m, v, hp, label, winner):
    """Reference update: the same convex move over the whole Gaussian
    neighborhood, at every radius, then a clip of the whole weight matrix
    rather than of the moved rows only.  Once sigma^2 underflows to 0 the
    neighborhood is the winner alone, at the Gaussian's limit weight 1."""
    alpha, sigma = hp.learning_rate(m.epoch), hp.radius(m.epoch)
    rows, cols = np.divmod(np.arange(m.neuron_count), m.width)
    d2 = (rows - rows[winner]) ** 2 + (cols - cols[winner]) ** 2
    mask = d2 <= sigma * sigma
    h = np.exp(-d2[mask] / (2.0 * sigma * sigma)) if sigma * sigma > 0 else np.ones(1)
    w = m.weights.copy()
    w[mask] += alpha * h[:, None] * (v - w[mask])
    np.clip(w, 0.0, 1.0, out=w)
    return w


@settings(deadline=None, max_examples=150)
@given(trained_maps(), st.data())
def test_train_step_matches_whole_matrix_clip(m, data):
    hp = SomHyperParams(initial_learning_rate=data.draw(st.floats(1e-3, 1.0)),
                        initial_radius=data.draw(st.floats(0.1, 8.0)),
                        lr_decay_constant=data.draw(st.floats(100.0, 1e4)),
                        radius_decay_constant=data.draw(st.floats(100.0, 1e4)))
    m.epoch = data.draw(st.integers(0, 5000))     # keeps the radius above 0
    unit = st.floats(0.0, 1.0)
    for _ in range(data.draw(st.integers(1, 5))):
        v = np.array(data.draw(st.lists(unit, min_size=m.dim, max_size=m.dim)))
        label = data.draw(st.sampled_from([None, BENIGN, MALICIOUS]))
        win = m.find_winner(v)
        expected = _train_step_clipping_every_row(m, v, hp, label, win)
        assert m.train_step(v, hp, label=label) == win
        assert m.weights.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=150)
@given(trained_maps(), st.data())
def test_train_step_matches_neighborhood_reference_at_every_radius(m, data):
    _assert_steps_match_reference(m, data, max_radius=8.0)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(20, 20), (7, 3), (3, 7)]), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_train_step_matches_reference_on_large_and_oblong_lattices(shape, dim, seed, data):
    # neighbourhoods up to the whole 20x20 lattice, clipped at its edges
    _assert_steps_match_reference(init_map(*shape, dim, seed=seed), data, max_radius=30.0)


def _assert_steps_match_reference(m, data, max_radius):
    # below sigma^2 = 1 only the winner moves; train_step updates that row
    # alone and must give the reference's bits, tallies and epoch
    hp = SomHyperParams(initial_learning_rate=data.draw(st.floats(1e-3, 1.0)),
                        initial_radius=data.draw(st.floats(0.1, max_radius)),
                        lr_decay_constant=data.draw(st.floats(100.0, 1e4)),
                        radius_decay_constant=data.draw(st.floats(100.0, 1e4)))
    c, log_r = hp.radius_decay_constant, math.log(hp.initial_radius)
    at_one = max(0, int(c * log_r))                 # sigma^2 crosses 1 here
    underflow = int(c * (log_r + 373.0)) + 1        # sigma^2 is 0 from here on
    m.epoch = data.draw(st.one_of(st.integers(0, at_one + 5),
                                  st.integers(max(0, at_one - 3), at_one + 3),
                                  st.integers(at_one, underflow),
                                  st.integers(underflow, underflow + 10**6)))
    unit = st.floats(0.0, 1.0)
    for _ in range(data.draw(st.integers(1, 5))):
        v = np.array(data.draw(st.lists(unit, min_size=m.dim, max_size=m.dim)))
        label = data.draw(st.sampled_from([None, BENIGN, MALICIOUS]))
        win = m.find_winner(v)
        expected = _train_step_clipping_every_row(m, v, hp, label, win)
        tallies = [a.copy() for a in (m.hit_counts, m.benign_wins, m.malicious_wins)]
        tallies[0][win] += 1
        if label is not None:
            tallies[1 if label == BENIGN else 2][win] += 1
        epoch = m.epoch
        assert m.train_step(v, hp, label=label) == win
        assert m.weights.tobytes() == expected.tobytes()
        for got, want in zip((m.hit_counts, m.benign_wins, m.malicious_wins), tallies):
            assert got.tobytes() == want.tobytes()
        assert m.epoch == epoch + 1


@pytest.mark.parametrize("epoch", [0, 10**5, 10**7])
def test_train_step_rejects_wrong_shape_at_every_radius(epoch):
    m = init_map(4, 4, 3, seed=0)
    m.epoch = epoch
    before = m.weights.copy()
    for bad in ([0.5, 0.5], [[0.5, 0.5, 0.5]], [0.5] * 4):
        with pytest.raises(ValueError, match="shape"):
            m.train_step(bad, SomHyperParams(), winner=0)
    assert m.weights.tobytes() == before.tobytes() and m.epoch == epoch
