"""Shared test helpers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dynlayout.errors import DisconnectedGraphError
from dynlayout.graph import require_connected


def load_data_script(name: str):
    """The script ``tests/data/<name>.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parent / "data" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_connected_adjacency(rng: np.random.Generator, n: int,
                               weighted: bool = False) -> np.ndarray:
    """Random symmetric adjacency guaranteed connected (spanning chain plus
    random extra edges)."""
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        W[a, b] = W[b, a] = rng.uniform(0.5, 2.0) if weighted else 1.0
    extra = rng.random((n, n)) < 0.35
    for i in range(n):
        for j in range(i + 1, n):
            if extra[i, j] and W[i, j] == 0:
                W[i, j] = W[j, i] = rng.uniform(0.5, 2.0) if weighted else 1.0
    return W


def connectivity_verdict(A: np.ndarray):
    """The message ``require_connected(A, "layout")`` raises, or None."""
    try:
        require_connected(A, "layout")
    except DisconnectedGraphError as exc:
        return str(exc)
    return None


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    cats_a = {v: i for i, v in enumerate(np.unique(a))}
    cats_b = {v: i for i, v in enumerate(np.unique(b))}
    table = np.zeros((len(cats_a), len(cats_b)))
    for x, y in zip(a, b):
        table[cats_a[x], cats_b[y]] += 1

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(float(len(a)))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def floyd_warshall_reference(W: np.ndarray) -> np.ndarray:
    """Independent all-pairs shortest-path oracle."""
    n = W.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and W[i, j] > 0:
                dist[i, j] = W[i, j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_threads():
    """Reads and sets the thread count of every loaded OpenBLAS, restoring
    the counts it found when the test ends; skips where none is found."""
    from dynlayout.numerics import _openblas_thread_controls

    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    original = [getter() for getter, _ in controls]

    class BlasThreads:
        @staticmethod
        def counts() -> list[int]:
            return [getter() for getter, _ in controls]

        @staticmethod
        def set(counts) -> None:
            for (_, setter), count in zip(controls, counts):
                setter(count)

        @staticmethod
        def caller_counts() -> list[int]:
            # a different count per library (2, 1, 2, ...), so a restore
            # that mixed up the libraries would show
            return [2 - i % 2 for i in range(len(controls))]

    yield BlasThreads
    BlasThreads.set(original)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
