"""In-memory span recorder that times relaysec functions from outside.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that records one span per call: name, start, end, the span that
was open when it was called (its parent) and a group id, which is the
ordinal of the outermost span it runs under (one protocol trial in the
simulate workloads, one census or check call in verify and scan).  Module
functions are replaced in every relaysec module that binds them, so a
name imported with ``from .lattice import codebook_point`` is traced
where its caller looks it up; methods are replaced on their class.

Self time is computed from the spans after the pass: a span's duration
minus the durations of its direct children.

numpy is imported where the spans are read, not at import time, so that
the benchmark's own imports leave numpy's import inside the timed set-up.
"""

from __future__ import annotations

import importlib
import sys
import time

# Per-trial functions of the simulate path: calls, busy and self time, and
# the p50/p99 of one call.
HOT = [
    "protocol.TwoHopProtocol.run_trial",
    "protocol.TwoHopProtocol._seed_stage",
    "protocol.TwoHopProtocol._tag_stage",
    "protocol.TwoHopProtocol._message_stage",
    "protocol.TwoHopProtocol._hop",
    "channel.relay_step",
    "channel.phase1",
    "channel.phase2",
    "lattice.codebook_point",
    "lattice.decode_fine_mod_coarse",
]
# Everything else: calls, busy and self time.
OTHER = [
    "lattice.lattice_sub",
    "amd.amd_tag",
    "amd.amd_verify",
    "fields.ExtField.mul",
    "fields.ExtField.pow",
    "fields.ExtField.tables",
    "fields.matrix_row_rank",
    "fields.find_irreducible",
    "extract.encode_message",
    "extract.decode_message",
    "extract.seed_to_element",
    "extract.EncoderMap.contains",
    "extract.build_encoder",
    "oracle.exact_seed_leakage",
    "oracle._observation_index",
    "oracle.exact_amd_win_census",
    "oracle.isomorphism_census",
    "oracle.representation_census",
    "oracle.full_rank_census",
    "oracle.universal_hash_census",
    "oracle.leftover_census",
    "oracle.pinsker_check",
    "cli.load_config",
]
TARGETS = HOT + OTHER
# functions whose truthy results are counted, for a useful-work ratio
COUNT_TRUE = {"extract.EncoderMap.contains"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric read from the spans, in report order."""
    specs = []
    for name in TARGETS:
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.busy_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        if name in HOT:
            specs += [(f"{name}.p50_us", "us", "lower"),
                      (f"{name}.p99_us", "us", "lower")]
    specs += [
        ("extract.EncoderMap.contains.hit_ratio", "ratio", "higher"),
        ("oracle.exact_seed_leakage.cache_hit_ratio", "ratio", "higher"),
    ]
    return specs


class SpanRecorder:
    """Spans as parallel lists, appended by the wrappers, read after the pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.group: list[int] = []
        self.true_counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._roots = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count_true = name in COUNT_TRUE
        self.true_counts[name] = 0
        clock = time.perf_counter_ns
        stack, name_id, start, end, parent, group = (
            self._stack, self.name_id, self.start, self.end, self.parent, self.group)

        def traced(*args, **kwargs):
            idx = len(start)
            if stack:
                up = stack[-1]
                group.append(group[up])
            else:
                up = -1
                group.append(self._roots)
                self._roots += 1
            name_id.append(nid)
            parent.append(up)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_true and result:
                self.true_counts[name] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS):
        """Replace each target where it is bound; absent targets are noted."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "relaysec" or key.startswith("relaysec.")]
        for name in targets:
            modname, *path = name.split(".")
            owner = importlib.import_module(f"relaysec.{modname}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            attr = path[-1]
            if isinstance(owner, type):
                orig = owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append(name)
                    continue
                self._bind(owner, attr, self._wrapper(name, orig), orig)
                continue
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, key, wrapped, orig)

    def _bind(self, owner, attr, wrapped, orig):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading the spans -------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "group": np.array(self.group, dtype=np.int64),
        }

    def save(self, path):
        """Write the spans and the name table to an .npz side file."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def function_stats(self) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s (and p50_us, p99_us for HOT) per target."""
        import numpy as np

        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        stats = {}
        for name in TARGETS:
            nid = self.names.index(name) if name in self.names else -1
            mask = a["name_id"] == nid
            d = dur[mask]
            row = {"calls": int(mask.sum()),
                   "busy_s": float(d.sum()) / 1e9,
                   "self_s": float(self_ns[mask].sum()) / 1e9}
            if name in HOT:
                p50, p99 = np.percentile(d, [50, 99]) / 1e3 if len(d) else (0.0, 0.0)
                row["p50_us"] = float(p50)
                row["p99_us"] = float(p99)
            stats[name] = row
        return stats

    def ratio_counts(self, stats) -> dict[str, tuple[int, int]]:
        """(useful, attempts) behind each ratio, as exact counts."""
        contains = stats["extract.EncoderMap.contains"]["calls"]
        leakage = stats["oracle.exact_seed_leakage"]["calls"]
        misses = stats["oracle._observation_index"]["calls"]
        return {
            "extract.EncoderMap.contains.hit_ratio":
                (self.true_counts.get("extract.EncoderMap.contains", 0), contains),
            "oracle.exact_seed_leakage.cache_hit_ratio": (leakage - misses, leakage),
        }
