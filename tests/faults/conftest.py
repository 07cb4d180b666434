"""Shared fixtures for the fault-injection and chaos suite.

The CI chaos job parameterizes this directory through two environment
variables:

* ``REPRO_CHAOS_PLAN`` — restrict the recovery tests to one builtin
  plan (any of ``BUILTIN_PLAN_NAMES``); unset runs all of them (the
  local default).
* ``REPRO_CHAOS_SCALE`` — ``large`` drives more sessions and feedback
  rounds through the chaos workload (the nightly configuration);
  anything else uses the quick PR-gate scale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults.plans import BUILTIN_PLAN_NAMES
from repro.retrieval import FeatureDatabase


def chaos_plan_names() -> tuple:
    """Builtin plan names the current environment asks to exercise."""
    selected = os.environ.get("REPRO_CHAOS_PLAN", "").strip()
    if selected:
        if selected not in BUILTIN_PLAN_NAMES:
            raise ValueError(
                f"REPRO_CHAOS_PLAN={selected!r} is not one of {BUILTIN_PLAN_NAMES}"
            )
        return (selected,)
    return BUILTIN_PLAN_NAMES


def chaos_scale() -> dict:
    """Workload size knobs: nightly ``large`` vs the PR-gate default."""
    if os.environ.get("REPRO_CHAOS_SCALE", "").strip() == "large":
        return {"sessions": 8, "iterations": 5, "seeds": (0, 1, 2)}
    return {"sessions": 4, "iterations": 3, "seeds": (0,)}


@pytest.fixture(scope="session")
def database() -> FeatureDatabase:
    """120 points in 3-d: four well-separated Gaussian categories."""
    rng = np.random.default_rng(7)
    centers = np.array(
        [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [4.0, 4.0, 4.0]]
    )
    vectors = np.concatenate(
        [center + 0.4 * rng.standard_normal((30, 3)) for center in centers]
    )
    labels = np.repeat(np.arange(4), 30)
    return FeatureDatabase(vectors, labels)


@pytest.fixture(scope="session")
def indexed_database() -> FeatureDatabase:
    """800 points in 8-d: eight Gaussian categories over 16 tree leaves.

    A 4 KB page holds 64 such rows, so a tree search opens several
    nodes and the ANN tier's calibrated row budget is below the
    collection's size; the 3-d collection above fits one leaf.
    """
    rng = np.random.default_rng(11)
    centers = 3.0 * rng.standard_normal((8, 8))
    vectors = np.concatenate([center + rng.standard_normal((100, 8)) for center in centers])
    labels = np.repeat(np.arange(8), 100)
    return FeatureDatabase(vectors, labels)
