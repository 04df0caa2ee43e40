"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of the mecshield modules from
outside the package.  A function imported by name into another module
(`agent.extract_one`, `cli.run_matrix`, ...) is replaced in every mecshield
module that binds it, so each caller sees the wrapper.

Spans stay in memory as flat arrays (id, hook, parent, cell, start, end and
two integer counts) and are written once, at the end of the process, by
`Tracer.save`.  `derive` turns a saved span file into the per-layer metrics.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from array import array

import numpy as np

MODULES = ("traffic", "features", "som", "agent", "controller", "harness",
           "cli", "config")


def _packets(flows) -> int:
    return sum(len(f.packet_timestamps) for f in flows)


def _source_mode(mode) -> bool:
    return getattr(mode, "value", mode) == "source"


def _count_gen(tr, args, res):
    return len(res), _packets(res)


def _count_extract(tr, args, res):
    flows, mode = args[0], args[1]
    return len(flows), _packets(flows) if _source_mode(mode) else 0


def _count_extract_one(tr, args, res):
    flow, mode = args[0], args[1]
    return 1, len(flow.packet_timestamps) if _source_mode(mode) else 0


def _count_run(tr, args, res):
    _metrics, events = res
    work = next((e["work_units"] for e in reversed(events)
                 if e["kind"] == "controller_summary"), 0)
    return len(events), work


def _count_training_set(tr, args, res):
    vectors, labels = res
    h = hashlib.sha1(np.asarray(vectors, dtype=np.float64).tobytes())
    h.update("\n".join(labels).encode())
    return len(vectors), tr.intern(h.hexdigest())


def _count_train(tr, args, res):
    m = args[0]
    h = hashlib.sha1(m.weights.tobytes())
    for a in (m.hit_counts, m.benign_wins, m.malicious_wins):
        h.update(a.tobytes())
    h.update(str(m.epoch).encode())
    return len(args[1]), tr.intern(h.hexdigest())


def _count_ingest(tr, args, res):
    verdicts, _work = res
    return len(args[1]), sum(1 for v in verdicts if v.classified)


def _count_len_arg1(tr, args, res):
    return len(args[1]), 0


def _count_len_arg0(tr, args, res):
    return len(args[0]), 0


def _count_len_res(tr, args, res):
    return len(res), 0


# (module, qualified name, counter, name of a hook under which calls are not
# recorded because the enclosing span already counts them)
HOOKS = [
    ("traffic", "gen_benign", _count_gen, None),
    ("traffic", "gen_attack", _count_gen, None),
    ("features", "window_stats", _count_len_arg0, None),
    ("features", "extract", _count_extract, None),
    ("features", "extract_one", _count_extract_one, "features.extract"),
    ("som", "SomMap.train", _count_train, None),
    ("som", "SomMap.train_step", None, "som.SomMap.train"),
    ("som", "SomMap.classify", None, None),
    ("som", "SomMap.classify_batch", _count_len_arg1, None),
    ("som", "SomMap.label_neurons", None, None),
    ("som", "merge_maps", _count_len_arg0, None),
    ("agent", "Agent.ingest", _count_ingest, None),
    ("agent", "Agent.observe", _count_len_arg1, None),
    ("agent", "Agent.make_report", None, None),
    ("agent", "Agent.apply_policy", None, None),
    ("controller", "Controller.collect", _count_len_arg1, None),
    ("controller", "Controller.analyze", None, None),
    ("controller", "Controller.dispatch", _count_len_res, None),
    ("harness", "run", _count_run, None),
    ("harness", "generate_traffic", None, None),
    ("harness", "build_training_set", _count_training_set, None),
    ("harness", "compute_metrics", None, None),
    ("harness", "event_log_digest", None, None),
    ("harness", "run_matrix", None, None),
    ("cli", "main", None, None),
    ("cli", "cmd_run", None, None),
    ("config", "load_config", None, None),
]
HOOK_NAMES = [f"{mod}.{qual}" for mod, qual, _c, _s in HOOKS]
CELL_HOOK = "harness.run"
_RAISED = object()


def resolve(mod_name: str, qualname: str):
    """(owner, attribute, original) for a hook, or None if it no longer exists."""
    obj = importlib.import_module(f"mecshield.{mod_name}")
    *owners, attr = qualname.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    fn = getattr(obj, attr, None)
    if not callable(fn):
        return None
    return obj, attr, fn


class Tracer:
    """Records one span per call of each hook while `active` is set.

    Single-threaded: the current span and cell are plain attributes."""

    def __init__(self):
        self.active = False
        self.clock = time.perf_counter     # read at every call: replaceable after install
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hashes: dict[str, int] = {}
        self._next_id = 0
        self._current = -1
        self._current_hook = -1
        self._cell = -1
        self._n_cells = 0
        self.ids = array("q")
        self.hooks = array("i")
        self.parents = array("q")
        self.cells = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.count_a = array("q")
        self.count_b = array("q")

    def intern(self, key: str) -> int:
        return self._hashes.setdefault(key, len(self._hashes))

    def install(self) -> None:
        """Wrap every hook that resolves; record the others in `missing`."""
        for mod in MODULES:
            importlib.import_module(f"mecshield.{mod}")
        modules = [m for name, m in sys.modules.items()
                   if name == "mecshield" or name.startswith("mecshield.")]
        for idx, (mod, qual, counter, skip_under) in enumerate(HOOKS):
            found = resolve(mod, qual)
            if found is None:
                self.missing.append(HOOK_NAMES[idx])
                continue
            owner, attr, fn = found
            skip = HOOK_NAMES.index(skip_under) if skip_under else -2
            wrapper = self._wrap(idx, fn, counter, skip)
            if "." in qual:
                self._patch(owner, attr, wrapper)
            else:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, name, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, hook: int, fn, counter, skip: int):
        tr = self
        is_cell = HOOK_NAMES[hook] == CELL_HOOK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active or tr._current_hook == skip:
                return fn(*args, **kwargs)
            sid = tr._next_id
            tr._next_id += 1
            parent, parent_hook = tr._current, tr._current_hook
            tr._current, tr._current_hook = sid, hook
            if is_cell:
                tr._cell = tr._n_cells
                tr._n_cells += 1
            cell = tr._cell
            res = _RAISED
            t0 = tr.clock()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = tr.clock()
                tr._current, tr._current_hook = parent, parent_hook
                if is_cell:
                    tr._cell = -1
                a = b = 0
                if counter is not None and res is not _RAISED:
                    a, b = counter(tr, args, res)
                tr._record(sid, hook, parent, cell, t0, t1, a, b)
        return wrapper

    def _record(self, sid, hook, parent, cell, t0, t1, a, b) -> None:
        self.ids.append(sid)
        self.hooks.append(hook)
        self.parents.append(parent)
        self.cells.append(cell)
        self.starts.append(t0)
        self.ends.append(t1)
        self.count_a.append(a)
        self.count_b.append(b)

    def save(self, path) -> None:
        """Write all spans once, as one compressed numpy archive."""
        np.savez_compressed(
            path, hook_names=np.array(HOOK_NAMES), missing=np.array(self.missing, dtype=str),
            ids=np.frombuffer(self.ids, dtype=np.int64),
            hooks=np.frombuffer(self.hooks, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            cells=np.frombuffer(self.cells, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            count_a=np.frombuffer(self.count_a, dtype=np.int64),
            count_b=np.frombuffer(self.count_b, dtype=np.int64))


# -- per-layer metrics -------------------------------------------------------

def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _spans(d):
    """Columns sorted by span id, plus duration, self time and parent hook."""
    order = np.argsort(d["ids"], kind="stable")
    s = {k: np.asarray(d[k])[order] for k in
         ("ids", "hooks", "parents", "cells", "starts", "ends", "count_a", "count_b")}
    n = len(s["ids"])
    s["dur"] = s["ends"] - s["starts"]
    pos = np.searchsorted(s["ids"], s["parents"])
    has_parent = (s["parents"] >= 0) & (pos < n)
    has_parent[has_parent] &= s["ids"][pos[has_parent]] == s["parents"][has_parent]
    s["parent_hook"] = np.full(n, -1, dtype=np.int64)
    s["parent_hook"][has_parent] = s["hooks"][pos[has_parent]]
    child = np.bincount(pos[has_parent], weights=s["dur"][has_parent], minlength=n)
    s["self"] = s["dur"] - child[:n]
    return s


# per-layer metric -> hooks it is derived from
REQUIRES = {
    "traffic.": ["traffic.gen_benign", "traffic.gen_attack"],
    "features.": ["features.window_stats", "features.extract", "features.extract_one"],
    "harness.cells": ["harness.run"],
    "harness.generate_traffic_s": ["harness.generate_traffic"],
    "harness.build_training_set": ["harness.build_training_set"],
    "harness.training_useful_share": ["harness.build_training_set"],
    "harness.loop_self_s": HOOK_NAMES,
    "harness.events": ["harness.run"],
    "harness.compute_metrics_s": ["harness.compute_metrics"],
    "harness.digest_s": ["harness.event_log_digest"],
    "som.pretrain": ["som.SomMap.train"],
    "som.us_per_pretrain_step": ["som.SomMap.train"],
    "som.online": ["som.SomMap.train_step", "som.SomMap.train"],
    "som.classify_s": ["som.SomMap.classify"],
    "som.classify_calls": ["som.SomMap.classify"],
    "som.classify_batch": ["som.SomMap.classify_batch"],
    "som.label_s": ["som.SomMap.label_neurons"],
    "som.merge_s": ["som.merge_maps"],
    "agent.ingest_s": ["agent.Agent.ingest"],
    "agent.flows_ingested": ["agent.Agent.ingest"],
    "agent.us_per_flow": ["agent.Agent.ingest"],
    "agent.classified_share": ["agent.Agent.ingest"],
    "agent.observe_s": ["agent.Agent.observe"],
    "agent.report_s": ["agent.Agent.make_report"],
    "agent.policies_applied": ["agent.Agent.apply_policy"],
    "controller.reports": ["controller.Controller.collect"],
    "controller.collect_s": ["controller.Controller.collect"],
    "controller.analyze_s": ["controller.Controller.analyze"],
    "controller.dispatch_s": ["controller.Controller.dispatch"],
    "controller.policies": ["controller.Controller.dispatch"],
    "controller.work_units": ["harness.run"],
    "cli.serialize_s": HOOK_NAMES,
    "config.load_s": ["config.load_config"],
}


def affected_by(missing: list[str], metric: str) -> list[str]:
    """The missing hooks a per-layer metric depends on."""
    need = set()
    for prefix, hooks in REQUIRES.items():
        if metric.startswith(prefix):
            need.update(hooks)
    return sorted(need & set(missing))


def derive(path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one saved span file, and the missing hooks."""
    with np.load(path) as d:
        names = [str(x) for x in d["hook_names"]]
        missing = [str(x) for x in d["missing"]]
        s = _spans(d)
    idx = {n: i for i, n in enumerate(names)}
    hooks = s["hooks"]

    def sel(*hook_names):
        return np.isin(hooks, [idx[n] for n in hook_names])

    def total(mask, col="dur"):
        return float(s[col][mask].sum())

    def distinct_share(mask):
        n = int(mask.sum())
        return _ratio(len(np.unique(s["count_b"][mask])), n)

    out: dict[str, float] = {}
    gen = sel("traffic.gen_benign", "traffic.gen_attack")
    out["traffic.gen_s"] = total(gen)
    out["traffic.flows"] = int(s["count_a"][gen].sum())
    out["traffic.packets"] = int(s["count_b"][gen].sum())
    out["traffic.ns_per_packet"] = _ratio(out["traffic.gen_s"], out["traffic.packets"], 1e9)

    feat_hooks = [idx[n] for n in ("features.window_stats", "features.extract",
                                   "features.extract_one")]
    outer = np.isin(hooks, feat_hooks) & ~np.isin(s["parent_hook"], feat_hooks)
    vec = outer & sel("features.extract", "features.extract_one")
    out["features.extract_s"] = total(outer)
    out["features.vectors"] = int(s["count_a"][vec].sum())
    out["features.packets_scanned"] = int(s["count_b"][vec].sum())
    out["features.ns_per_packet"] = _ratio(out["features.extract_s"],
                                           out["features.packets_scanned"], 1e9)

    run = sel("harness.run")
    bts = sel("harness.build_training_set")
    out["harness.cells"] = int(run.sum())
    out["harness.generate_traffic_s"] = total(sel("harness.generate_traffic"))
    out["harness.build_training_set_s"] = total(bts)
    out["harness.build_training_set_calls"] = int(bts.sum())
    out["harness.training_useful_share"] = distinct_share(bts)
    out["harness.loop_self_s"] = total(run, "self")
    out["harness.events"] = int(s["count_a"][run].sum())
    out["harness.compute_metrics_s"] = total(sel("harness.compute_metrics"))
    out["harness.digest_s"] = total(sel("harness.event_log_digest"))

    train = sel("som.SomMap.train")
    online = sel("som.SomMap.train_step")
    out["som.pretrain_s"] = total(train)
    out["som.pretrain_steps"] = int(s["count_a"][train].sum())
    out["som.us_per_pretrain_step"] = _ratio(out["som.pretrain_s"],
                                             out["som.pretrain_steps"], 1e6)
    out["som.pretrain_useful_share"] = distinct_share(train)
    out["som.online_s"] = total(online)
    out["som.online_steps"] = int(online.sum())
    cls = sel("som.SomMap.classify")
    out["som.classify_s"] = total(cls)
    out["som.classify_calls"] = int(cls.sum())
    batch = sel("som.SomMap.classify_batch")
    out["som.classify_batch_s"] = total(batch)
    out["som.classify_batch_rows"] = int(s["count_a"][batch].sum())
    out["som.label_s"] = total(sel("som.SomMap.label_neurons"))
    out["som.merge_s"] = total(sel("som.merge_maps"))

    ingest = sel("agent.Agent.ingest")
    flows = int(s["count_a"][ingest].sum())
    out["agent.ingest_s"] = total(ingest)
    out["agent.flows_ingested"] = flows
    out["agent.us_per_flow"] = _ratio(out["agent.ingest_s"], flows, 1e6)
    out["agent.classified_share"] = _ratio(int(s["count_b"][ingest].sum()), flows)
    out["agent.observe_s"] = total(sel("agent.Agent.observe"))
    out["agent.report_s"] = total(sel("agent.Agent.make_report"))
    out["agent.policies_applied"] = int(sel("agent.Agent.apply_policy").sum())

    collect = sel("controller.Controller.collect")
    dispatch = sel("controller.Controller.dispatch")
    out["controller.reports"] = int(s["count_a"][collect].sum())
    out["controller.collect_s"] = total(collect)
    out["controller.analyze_s"] = total(sel("controller.Controller.analyze"))
    out["controller.dispatch_s"] = total(dispatch)
    out["controller.policies"] = int(s["count_a"][dispatch].sum())
    out["controller.work_units"] = int(s["count_b"][run].sum())

    out["cli.serialize_s"] = total(sel("cli.cmd_run"), "self")
    out["config.load_s"] = total(sel("config.load_config"))
    for name in list(out):
        if affected_by(missing, name):
            del out[name]
    return out, missing
