"""Spans around the public entry points of each layer, recorded from outside.

The traced run wraps the library's public functions and methods from here —
nothing under ``src/`` is edited (in-program spans are ROADMAP item 2).  A
wrapper opens a span when the call starts and closes it when the call
returns; the span remembers the span that was open on the same thread when
it started (its parent) and the run or request it belongs to.  Spans stay in
memory and are written with the benchmark's output.

A layer's self time is its span's duration minus the time its child spans
cover; children run on their parent's thread, one after another, so that is
the sum of their durations.

The daemon child is a fork of the benchmark process: wrappers installed
before the fork are live in the child, which starts from an empty span list
and writes it to a file when the harness signals it (``SIGUSR1``).  Both
processes stamp spans with ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so child spans line up with the client's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field

#: (module, class or None, attribute, span name, layer) of every wrapped entry point
ENTRY_POINTS = (
    ("repro.hashing.base", "HashFamily", "signatures", "hashing.signatures", "hashing"),
    ("repro.hashing.simhash", "SimHashFamily", "clone_for", "hashing.clone_for", "hashing"),
    ("repro.hashing.minhash", "MinHashFamily", "clone_for", "hashing.clone_for", "hashing"),
    ("repro.candidates.allpairs", "AllPairsGenerator", "generate", "candidates.generate", "candidates"),
    ("repro.candidates.lsh_index", "LSHGenerator", "generate", "candidates.generate", "candidates"),
    ("repro.candidates.lsh_index", "BandPostings", "build", "candidates.postings_build", "candidates"),
    ("repro.candidates.lsh_index", "BandPostings", "add", "candidates.postings_add", "candidates"),
    ("repro.candidates.lsh_index", "BandPostings", "probe_many", "candidates.probe", "candidates"),
    ("repro.verification.bayes", "BayesLSHVerifier", "verify", "verification.verify", "verification"),
    ("repro.verification.bayes", "BayesLSHLiteVerifier", "verify", "verification.verify", "verification"),
    ("repro.serving.segments", "SegmentedCollection", "cross_similarities", "similarity.exact", "similarity"),
    ("repro.verification.base", None, "exact_similarities_for_pairs", "similarity.exact", "similarity"),
    ("repro.similarity.measures", "CosineSimilarity", "exact", "similarity.exact_scalar", "similarity"),
    ("repro.similarity.measures", "JaccardSimilarity", "exact", "similarity.exact_scalar", "similarity"),
    ("repro.similarity.measures", "CosineSimilarity", "prepare", "similarity.prepare", "similarity"),
    ("repro.similarity.measures", "JaccardSimilarity", "prepare", "similarity.prepare", "similarity"),
    ("repro.search.pipelines", None, "make_pipeline", "search.engine.make", "search.engine"),
    ("repro.search.engine", "SearchEngine", "run", "search.engine.run", "search.engine"),
    ("repro.search.query", "QueryIndex", "query_many", "search.query.query_many", "search.query"),
    ("repro.search.query", "QueryIndex", "top_k_many", "search.query.top_k_many", "search.query"),
    ("repro.search.query", "QueryIndex", "insert", "search.query.insert", "search.query"),
    ("repro.search.query", "QueryIndex", "delete", "search.query.delete", "search.query"),
    ("repro.search.query", "QueryIndex", "start_pool", "search.executor.start_pool", "search.executor"),
    ("repro.search.query", "QueryIndex", "close", "search.executor.close", "search.executor"),
    ("repro.serving.segments", "SegmentedCollection", "append", "serving.segments.append", "serving.segments"),
    ("repro.serving.segments", "SegmentedCollection", "count_matches_cross", "serving.segments.count_cross", "serving.segments"),
    ("repro.serving.segments", "SegmentedCollection", "ensure_hashes", "serving.segments.ensure_hashes", "serving.segments"),
    ("repro.serving.wal", "WriteAheadLog", "append_insert", "serving.wal.append", "serving.wal"),
    ("repro.serving.wal", "WriteAheadLog", "append_delete", "serving.wal.append", "serving.wal"),
    ("repro.serving.wal", "WriteAheadLog", "sync", "serving.wal.sync", "serving.wal"),
    ("repro.search.query", "QueryIndex", "save", "serving.snapshot.save", "serving.snapshot"),
    ("repro.search.query", "QueryIndex", "load", "serving.snapshot.load", "serving.snapshot"),
    ("repro.search.query", "QueryIndex", "recover", "serving.snapshot.replay", "serving.snapshot"),
    ("repro.serving.daemon", None, "encode_vector", "serving.client.encode", "serving.client"),
    ("repro.serving.client", "DaemonClient", "query", "serving.client.query", "serving.client"),
    ("repro.serving.client", "DaemonClient", "top_k", "serving.client.top_k", "serving.client"),
    ("repro.serving.client", "DaemonClient", "insert", "serving.client.insert", "serving.client"),
    ("repro.serving.client", "DaemonClient", "delete", "serving.client.delete", "serving.client"),
    # With fsync="always" the log syncs through a private helper, so the one
    # place its cost is visible from outside is the system call itself.
    ("os", None, "fsync", "os.fsync", "os"),
)

#: Entry points called once per pair.  A span each would swamp the list (an
#: ``lsh_sets`` join scores ~7 000 pairs one by one), so their calls and time
#: are added up on the span they run under: ``counts["agg"][name]`` holds
#: ``[layer, calls, seconds]``, and that time is the named layer's, not the
#: parent's.
AGGREGATED = {"similarity.exact_scalar"}

#: modules holding a by-name import of a wrapped module-level function
_IMPORTERS = {
    "exact_similarities_for_pairs": ("repro.verification.bayes", "repro.verification.exact"),
    "make_pipeline": ("repro.search", "repro.search.engine"),
    "encode_vector": ("repro.serving.client", "repro.serving"),
}


@dataclass
class Span:
    """One timed call: what ran, when, under which span, for which run."""

    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    run: str = ""
    process: str = "harness"
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.run = ""
        self.process = "harness"
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            layer=layer,
            start=time.perf_counter(),
            run=self.run,
            process=self.process,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self, process: str) -> None:
        """Forget every span (the forked child starts its own list)."""
        self.spans = []
        self.process = process
        self._local = threading.local()

    # -- wrapping ------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` (idempotent)."""
        if self._installed:
            return
        for module_name, class_name, attribute, name, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attribute] if class_name else getattr(module, attribute)
            wrapped = self._wrap(original, name, layer)
            self._set(owner, attribute, wrapped, original)
            for importer in _IMPORTERS.get(attribute, ()) if class_name is None else ():
                holder = importlib.import_module(importer)
                if getattr(holder, attribute, None) is original:
                    self._set(holder, attribute, wrapped, original)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def _set(self, owner, attribute: str, wrapped, original) -> None:
        setattr(owner, attribute, wrapped)
        self._installed.append((owner, attribute, original))

    def _wrap(self, original, name: str, layer: str):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name, layer))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, name, layer))
        if name in AGGREGATED:
            return self._wrap_aggregated(original, name, layer)
        count, note = _COUNTS.get(name), _BEFORE.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self.begin(name, layer)
            before = note(args) if note else None
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if count:
                span.counts.update(count(args, result, before))
            return result

        return traced

    def _wrap_aggregated(self, original, name: str, layer: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack() if self.enabled else None
            if not stack:  # tracing off, or no span open to charge the call to
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                entry = stack[-1].counts.setdefault("agg", {}).setdefault(name, [layer, 0, 0.0])
                entry[1] += 1
                entry[2] += time.perf_counter() - start

        return traced

    # -- the forked daemon child ---------------------------------------- #
    def dump(self, path) -> None:
        """Write this process's spans to ``path`` atomically."""
        payload = json.dumps([asdict(span) for span in list(self.spans)])
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    def adopt(self, path) -> None:
        """Merge the spans a child dumped, renumbered after this process's own."""
        with open(path) as handle:
            loaded = [Span(**item) for item in json.load(handle)]
        renumber = {span.id: next(self._ids) for span in loaded}
        for span in loaded:
            span.id = renumber[span.id]
            span.parent = renumber.get(span.parent)
        self.spans.extend(loaded)


# --------------------------------------------------------------------------- #
# counts taken at the same boundaries
# --------------------------------------------------------------------------- #
def _verify_counts(args, result, before) -> dict:
    return {
        "candidates": int(result.n_candidates),
        "pruned": int(result.n_pruned),
        "emitted": len(result.left),
        "hash_comparisons": int(result.hash_comparisons),
        "exact_computations": int(result.exact_computations),
        "survivors": [[int(n), int(alive)] for n, alive in result.trace],
    }


#: span name -> what to read off the call once it returned: ``(args, result, before)``
_COUNTS = {
    "hashing.signatures": lambda args, result, before: {
        "hashes": args[0].collection.n_vectors * max(args[0].n_hashes - before, 0)
    },
    "candidates.generate": lambda args, result, before: {"candidates": len(result)},
    "candidates.probe": lambda args, result, before: {"candidates": len(result[0])},
    "verification.verify": _verify_counts,
    "similarity.exact": lambda args, result, before: {"pairs": len(result)},
    "search.query.query_many": lambda args, result, before: {"rows": len(result)},
    "search.query.top_k_many": lambda args, result, before: {"rows": len(result)},
    "search.query.insert": lambda args, result, before: {"rows": len(result)},
    "serving.segments.count_cross": lambda args, result, before: {"pairs": len(result)},
}
#: span name -> what to note before the call, handed to its ``_COUNTS`` entry
_BEFORE = {"hashing.signatures": lambda args: args[0].n_hashes}


# --------------------------------------------------------------------------- #
# reading a span list
# --------------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans and aggregated calls cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
        for _, _, seconds in span.counts.get("agg", {}).values():
            own[span.id] -= seconds
    return own


def pack_spans(spans: list[Span]) -> dict:
    """Spans as one table: a few megabytes of repeated keys become a fraction.

    Times are microseconds since the first span's start.
    """
    names = sorted({span.name for span in spans})
    runs = sorted({span.run for span in spans})
    layer_of = {span.name: span.layer for span in spans}
    origin = min((span.start for span in spans), default=0.0)
    name_index = {name: i for i, name in enumerate(names)}
    run_index = {run: i for i, run in enumerate(runs)}
    return {
        "columns": ["id", "parent", "name", "start_us", "end_us", "run", "in_daemon", "counts"],
        "names": names,
        "layers": [layer_of[name] for name in names],
        "runs": runs,
        "rows": [
            [
                span.id,
                span.parent,
                name_index[span.name],
                round((span.start - origin) * 1e6),
                round((span.end - origin) * 1e6),
                run_index[span.run],
                int(span.process == "daemon"),
                span.counts,
            ]
            for span in spans
        ],
    }


def unpack_spans(packed: dict) -> list[Span]:
    """The inverse of :func:`pack_spans` (times in seconds since the first span)."""
    return [
        Span(
            id=row[0],
            parent=row[1],
            name=packed["names"][row[2]],
            layer=packed["layers"][row[2]],
            start=row[3] / 1e6,
            end=row[4] / 1e6,
            run=packed["runs"][row[5]],
            process="daemon" if row[6] else "harness",
            counts=row[7],
        )
        for row in packed["rows"]
    ]


def has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    """Whether some span above ``span`` carries ``name``."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a missing parent, or a child outlasting it."""
    by_id = {span.id: span for span in spans}
    problems = []
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.id} {span.name} ends before it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} {span.name} names a missing parent")
        elif span.start < parent.start or span.end > parent.end:
            problems.append(f"span {span.id} {span.name} outlasts its parent {parent.name}")
    return problems
