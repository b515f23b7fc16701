"""Benchmark-suite fixtures.

Every figure bench renders the same rows/series the paper's figure
reports; the text is printed (visible with ``-s``) and archived under
``benchmarks/out/`` so results survive pytest's capture.

Set ``REPRO_BENCH_SCALE=small|default|full`` to trade fidelity for
runtime (default: ``default``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.figures import SCALES, clear_cells

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    return SCALES[name]


@pytest.fixture(scope="session")
def archive():
    OUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to benchmarks/out/{name}.txt]")

    return save


def run_once(benchmark, func):
    """Run a figure function exactly once under pytest-benchmark, from
    an empty cell cache: the timing means "this figure alone" whatever
    pytest collected before it."""
    clear_cells()
    return benchmark.pedantic(func, rounds=1, iterations=1)
