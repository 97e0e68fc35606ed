from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# `scripts/bench.py` builds the ladder and long-arm instances the tests use too
sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))

from empower.fixtures import load_textbook
from empower.graph import EmergyGraph, NodeKind


@pytest.fixture(scope="session")
def textbook() -> EmergyGraph:
    return load_textbook()


@pytest.fixture(scope="session")
def trivial() -> EmergyGraph:
    """Source with emergy 5 feeding a single output."""
    return EmergyGraph(
        {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT},
        {1: Fraction(5)},
        {(1, 2): Fraction(1)})
