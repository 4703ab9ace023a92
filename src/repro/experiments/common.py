"""Shared plumbing for the experiment modules.

Every experiment returns an :class:`ExperimentResult` — a uniform container
holding one or more named tables (headers + rows) plus free-form notes — so
the runner, the benchmark harness and EXPERIMENTS.md generation can treat all
ten experiments identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table

__all__ = [
    "ExperimentResult",
    "ExperimentTable",
    "load_experiment_dataset",
    "COSINE_THRESHOLDS",
    "JACCARD_THRESHOLDS",
    "TEXT_DATASETS",
    "GRAPH_DATASETS",
    "BINARY_DATASETS",
    "PAPER_BAYESLSH",
]

#: Pipeline arguments every table and figure passes: BayesLSH as published is
#: Algorithm 1 — a pair undecided at the hash budget emits its estimate — while
#: the library default scores such a pair exactly (see ``docs/reproduction.md``).
PAPER_BAYESLSH = {"on_budget": "estimate"}

#: thresholds swept in the paper
COSINE_THRESHOLDS: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
JACCARD_THRESHOLDS: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

#: dataset groups as used in the evaluation
TEXT_DATASETS: tuple[str, ...] = ("rcv1", "wikiwords100k", "wikiwords500k")
GRAPH_DATASETS: tuple[str, ...] = ("wikilinks", "orkut", "twitter")
#: the three largest datasets, used for the binary experiments in the paper
BINARY_DATASETS: tuple[str, ...] = ("wikiwords500k", "orkut", "twitter")


@dataclass
class ExperimentTable:
    """One table of an experiment: headers, rows and an optional caption."""

    headers: list[str]
    rows: list[list]
    caption: str = ""

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.caption or None)


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        ``"figure1"`` ... ``"table5"``.
    title:
        Human-readable description (matches the paper's caption).
    tables:
        Named tables; most experiments produce one, figure3 produces one per
        panel group.
    notes:
        Caveats and reproduction remarks surfaced alongside the numbers.
    parameters:
        The knobs this run used (scale, seeds, thresholds, ...), recorded so
        results are self-describing.
    """

    experiment_id: str
    title: str
    tables: dict[str, ExperimentTable] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    def add_table(self, name: str, headers: list[str], rows: list[list], caption: str = "") -> None:
        self.tables[name] = ExperimentTable(headers=headers, rows=rows, caption=caption)

    def render(self) -> str:
        """Render the whole experiment as plain text."""
        blocks = [f"{self.experiment_id}: {self.title}"]
        if self.parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            blocks.append(f"parameters: {rendered}")
        for name, table in self.tables.items():
            caption = table.caption or name
            blocks.append(format_table(table.headers, table.rows, title=caption))
        for note in self.notes:
            blocks.append(f"note: {note}")
        return "\n\n".join(blocks)


_DATASET_CACHE: dict[tuple[str, float, int, bool], Dataset] = {}


def load_experiment_dataset(
    name: str, scale: float = 1.0, seed: int = 0, binary: bool = False
) -> Dataset:
    """Load (and memoise) a registry dataset for use inside experiments.

    Experiments and benchmarks repeatedly need the same dataset at the same
    scale; generation is cheap but not free, so instances are cached for the
    lifetime of the process.
    """
    key = (name, float(scale), int(seed), bool(binary))
    if key not in _DATASET_CACHE:
        dataset = load_dataset(name, scale=scale, seed=seed)
        _DATASET_CACHE[key] = dataset.binarized() if binary else dataset
    return _DATASET_CACHE[key]
