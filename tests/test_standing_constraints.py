"""ROADMAP standing constraints that a machine can check.

Integer-key dedup under ``candidates/``, ``search/`` and ``core/`` goes
through ``repro.candidates.arrayops.sorted_unique``, which scatters keys of a
dense range into a bounded bool mask and sorts all others: from NumPy 2.3 a
plain ``np.unique(ints)`` builds a hash table before it sorts — 16x slower on
pair keys — and a library upgrade turned three hot paths into one without a
line of this repo changing.  ``np.unique`` stays only where it
is asked for more than the values (``return_index`` / ``return_inverse`` /
``return_counts``) or works along an ``axis``, which take the sort path.

BayesLSH has one round driver, ``core/rounds.replay_rounds``: pool workers
only probe and score exactly, and the parent counts every hash agreement
and makes every decision, so ``PairState`` is built and advanced nowhere
else — and no signature column leaves the parent, so nothing under ``src/``
imports ``multiprocessing.shared_memory``.  And every fault-injection seam
the code fires is one ``repro.testing.faults`` documents, and the other way
round.

A candidate generator is its block stream: under ``candidates/`` only the
base class (which collects ``generate_blocks``) and brute force (which
builds its pairs in one pass) define ``generate`` (a class may name the
base's own method, as the benchmark's tracer needs), and one module owns
the probe batches' hit cap ``_HIT_BATCH``.

Nothing under ``src/repro`` defines a function, method or class that no
file in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` names: a
definition whose only mention is its own ``def`` line is a path nothing
runs.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_GUARDED = ("candidates", "search", "core")
_SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}


def plain_unique_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every ``np.unique(...)`` call that only asks for the values."""
    offenders = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        target = node.func
        if target.attr != "unique" or not isinstance(target.value, ast.Name):
            continue
        if target.value.id not in ("np", "numpy"):
            continue
        if not _SORT_PATH_KEYWORDS & {keyword.arg for keyword in node.keywords}:
            offenders.append(f"{filename}:{node.lineno}")
    return offenders


@pytest.mark.parametrize("package", _GUARDED)
def test_no_plain_np_unique_on_the_hot_paths(package):
    files = sorted((_SRC / package).rglob("*.py"))
    assert files, f"nothing to check under {_SRC / package}"
    offenders = [
        offender
        for path in files
        for offender in plain_unique_calls(path.read_text(), str(path.relative_to(_SRC.parents[1])))
    ]
    assert not offenders, (
        "plain np.unique(ints) is a hash table from NumPy 2.3 on; use "
        "repro.candidates.arrayops.sorted_unique: " + ", ".join(offenders)
    )


def test_the_check_sees_what_it_is_for():
    # the line core/concentration_cache.py carried until the mask fill replaced it
    source = (
        "import numpy as np\n"
        "def fill(matches, states):\n"
        "    unknown = np.unique(matches[states == -1])\n"
        "    keys, inverse = np.unique(matches, return_inverse=True)\n"
        "    rows = np.unique(matches.reshape(-1, 2), axis=0)\n"
        "    return numpy.unique(keys)\n"
    )
    assert plain_unique_calls(source, "cache.py") == ["cache.py:3", "cache.py:6"]


# --------------------------------------------------------------------- #
# one driver: workers probe and score, the parent counts and decides
# --------------------------------------------------------------------- #
_ROUNDS = Path("core") / "rounds.py"


def round_engine_uses(source: str, filename: str) -> list[str]:
    """``file:line`` of every ``PairState(...)`` construction and ``.advance(...)`` call."""
    uses = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.id if isinstance(target, ast.Name) else None
        attr = target.attr if isinstance(target, ast.Attribute) else None
        if name == "PairState" or attr in ("PairState", "advance"):
            uses.append(f"{filename}:{node.lineno}")
    return uses


def test_pair_state_is_built_and_advanced_only_by_the_round_driver():
    files = sorted(_SRC.rglob("*.py"))
    offenders = [
        use
        for path in files
        if path.relative_to(_SRC) != _ROUNDS
        for use in round_engine_uses(path.read_text(), str(path.relative_to(_SRC.parents[1])))
    ]
    assert not offenders, (
        "PairState is built and advanced only in core/rounds.py (replay_rounds); "
        "pool workers probe and score, the parent counts and decides: " + ", ".join(offenders)
    )
    assert round_engine_uses((_SRC / _ROUNDS).read_text(), "rounds.py"), (
        "the check no longer finds the driver it protects"
    )


def test_the_driver_check_sees_what_it_is_for():
    # the shape the pool workers had while they ran rounds themselves
    source = (
        "from repro.core import rounds\n"
        "def worker(tables, counts, n_now):\n"
        "    state = PairState(tables, len(counts))\n"
        "    other = rounds.PairState(tables, 0)\n"
        "    state.advance(counts, n_now)\n"
        "    return advance(state)\n"
    )
    assert round_engine_uses(source, "w.py") == ["w.py:3", "w.py:4", "w.py:5"]


def shared_memory_imports(source: str, filename: str) -> list[str]:
    """``file:line`` of every import that reaches ``multiprocessing.shared_memory``."""
    offenders = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] == ["multiprocessing", "shared_memory"] for name in names):
            offenders.append(f"{filename}:{node.lineno}")
    return offenders


def test_no_signature_column_leaves_the_parent():
    offenders = [
        offender
        for path in sorted(_SRC.rglob("*.py"))
        for offender in shared_memory_imports(
            path.read_text(), str(path.relative_to(_SRC.parents[1]))
        )
    ]
    assert not offenders, (
        "the pools publish nothing to shared memory: workers probe and score "
        "over forked state, the parent counts hash agreements: " + ", ".join(offenders)
    )


def test_the_shared_memory_check_sees_what_it_is_for():
    # the imports the signature transport of the pools had, beside harmless ones
    source = (
        "import multiprocessing\n"
        "from multiprocessing import resource_tracker\n"
        "def ensure(block):\n"
        "    from multiprocessing import shared_memory\n"
        "    from multiprocessing.shared_memory import SharedMemory\n"
        "    import multiprocessing.shared_memory as shm\n"
        "    return shared_memory, SharedMemory, shm\n"
    )
    assert shared_memory_imports(source, "x.py") == ["x.py:4", "x.py:5", "x.py:6"]


# --------------------------------------------------------------------- #
# every fault-injection seam is documented
# --------------------------------------------------------------------- #
def fired_seams(source: str, filename: str) -> tuple[set[str], list[str]]:
    """Seam names fired by literal ``fire("…")`` / ``atomic_writer(…, event="…")``
    calls, and ``file:line`` of every ``fire`` call whose name is not a literal."""
    names: set[str] = set()
    dynamic: list[str] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        callee = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if callee == "fire" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
            else:
                dynamic.append(f"{filename}:{node.lineno}")
        elif callee == "atomic_writer":
            for keyword in node.keywords:
                if keyword.arg == "event" and isinstance(keyword.value, ast.Constant):
                    names.add(keyword.value.value)
    return names, dynamic


def documented_seams() -> set[str]:
    """The seam names listed in ``repro.testing.faults``'s docstring."""
    doc = ast.get_docstring(ast.parse((_SRC / "testing" / "faults.py").read_text()))
    listing = doc.split("The seams are:")[1].split("A plan schedules")[0]
    names: set[str] = set()
    for line in listing.splitlines():
        if line.startswith("* "):
            head = line.split(" — ")[0]
            names.update(part.strip("`") for part in head[2:].split(" / "))
    return names


def test_every_fired_seam_is_documented_and_every_documented_seam_fires():
    fired: set[str] = set()
    dynamic: list[str] = []
    for path in sorted(_SRC.rglob("*.py")):
        names, calls = fired_seams(path.read_text(), str(path.relative_to(_SRC.parents[1])))
        fired |= names
        dynamic += calls
    # atomic_writer forwards its ``event`` argument; its callers name the seams
    assert [call.split(":")[0] for call in dynamic] == ["src/repro/datasets/io.py"]
    assert fired == documented_seams()


def test_the_seam_check_sees_what_it_is_for():
    source = (
        "def save(path, seq):\n"
        "    _faults.fire('wal_append', seq=seq)\n"
        "    fire(event_name)\n"
        "    with atomic_writer(path, event='flat_replace') as handle:\n"
        "        pass\n"
    )
    assert fired_seams(source, "s.py") == ({"wal_append", "flat_replace"}, ["s.py:3"])
    assert {"pool_start", "serving_estimates", "serving_exact"} <= documented_seams()


# --------------------------------------------------------------------- #
# every definition under src/ is referenced somewhere
# --------------------------------------------------------------------- #
_ROOT = _SRC.parents[1]
_REFERENCING = ("src", "benchmarks", "examples", "tests")
_DEFINITION_LINE = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)")


def defined_names(source: str, filename: str) -> list[tuple[str, str]]:
    """``(name, file:line)`` of every function, method and class, dunders exempt."""
    return [
        (node.name, f"{filename}:{node.lineno}")
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def word_counts(source: str) -> Counter:
    """Whole-word occurrences, strings and comments included, each ``def`` /
    ``class`` line's own name excluded."""
    counts: Counter = Counter()
    for line in source.splitlines():
        words = re.findall(r"\w+", line)
        definition = _DEFINITION_LINE.match(line)
        if definition:
            words.remove(definition.group(1))
        counts.update(words)
    return counts


def unreferenced(definitions: list[tuple[str, str]], counts: Counter) -> list[str]:
    return [f"{name} ({where})" for name, where in definitions if not counts[name]]


def test_every_definition_under_src_is_referenced():
    definitions = [
        definition
        for path in sorted(_SRC.rglob("*.py"))
        for definition in defined_names(path.read_text(), str(path.relative_to(_ROOT)))
    ]
    assert definitions, f"nothing to check under {_SRC}"
    counts: Counter = Counter()
    for directory in _REFERENCING:
        for path in sorted((_ROOT / directory).rglob("*.py")):
            counts.update(word_counts(path.read_text()))
    dead = unreferenced(definitions, counts)
    assert not dead, "defined under src/ and named nowhere else: " + ", ".join(dead)


def test_the_dead_definition_check_sees_what_it_is_for():
    # the shape of the row-splicing path the signature stores kept after
    # every insert sealed its own segment (names made up: a real one written
    # here would count as a reference)
    source = (
        "class Store:\n"
        "    def splice_rows(self, other):\n"
        "        self.grow_rows(other.words)\n"
        "    def grow_rows(self, block):\n"
        "        \"\"\"Called by Store.consolidate.\"\"\"\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "async def serve():\n"
        "    pass\n"
    )
    assert sorted(unreferenced(defined_names(source, "s.py"), word_counts(source))) == [
        "serve (s.py:8)",
        "splice_rows (s.py:2)",
    ]


# --------------------------------------------------------------------- #
# a candidate generator is its block stream
# --------------------------------------------------------------------- #
_OWN_GENERATE = {"CandidateGenerator", "BruteForceGenerator"}


def _binds_generate(item: ast.stmt) -> bool:
    """Whether a class-body statement binds ``generate`` to anything but the
    base class's own method (``generate = CandidateGenerator.generate``, the
    name the end-to-end benchmark's tracer wraps)."""
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return item.name == "generate"
    if isinstance(item, ast.Assign):
        alias = ast.unparse(item.value) == "CandidateGenerator.generate"
        return not alias and any(
            isinstance(target, ast.Name) and target.id == "generate" for target in item.targets
        )
    return False


def generate_definitions(source: str, filename: str) -> list[str]:
    """``Class (file:line)`` of every ``generate`` a class other than the base
    and brute force defines."""
    return [
        f"{node.name} ({filename}:{item.lineno})"
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.ClassDef) and node.name not in _OWN_GENERATE
        for item in node.body
        if _binds_generate(item)
    ]


def hit_batch_assignments(source: str, filename: str) -> list[str]:
    """``file:line`` of every assignment to a name ``_HIT_BATCH``."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "_HIT_BATCH"
    ]


def test_a_candidate_generator_is_its_block_stream():
    overrides = [
        override
        for path in sorted((_SRC / "candidates").rglob("*.py"))
        for override in generate_definitions(path.read_text(), str(path.relative_to(_ROOT)))
    ]
    assert not overrides, (
        "a streaming generator implements generate_blocks only; the base class's "
        "generate collects it: " + ", ".join(overrides)
    )
    assignments = [
        assignment
        for path in sorted(_SRC.rglob("*.py"))
        for assignment in hit_batch_assignments(path.read_text(), str(path.relative_to(_ROOT)))
    ]
    assert len({assignment.split(":")[0] for assignment in assignments}) == 1, (
        "one module owns the hit budget of every probe batch: " + ", ".join(assignments)
    )


def test_the_block_stream_check_sees_what_it_is_for():
    # the shape each inverted-index generator had while it wrapped its own stream
    source = (
        "_HIT_BATCH = 4_000_000\n"
        "class AllPairsGenerator(CandidateGenerator):\n"
        "    def generate(self, collection, block_size=None):\n"
        "        return self._stream(collection, _HIT_BATCH, block_size)\n"
        "class BruteForceGenerator(CandidateGenerator):\n"
        "    def generate(self, collection, block_size=None):\n"
        "        budget: int = _HIT_BATCH\n"
        "class LSHGenerator(CandidateGenerator):\n"
        "    generate = CandidateGenerator.generate\n"
        "class PPJoinGenerator(CandidateGenerator):\n"
        "    generate = streamed_generate\n"
        "def generate(collection):\n"
        "    limits._HIT_BATCH = 5\n"
    )
    assert generate_definitions(source, "g.py") == [
        "AllPairsGenerator (g.py:3)", "PPJoinGenerator (g.py:11)",
    ]
    assert hit_batch_assignments(source, "g.py") == ["g.py:1"]
