"""Shared instance builders for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from l0rcd import L0Problem, LeastSquaresObjective, LogisticL2Objective


def toy_problem(lam: float = 0.5) -> L0Problem:
    """f = 1/2 ||x - (2, 0.5)||^2 with per-coordinate penalty lam.

    Hand-enumerable: supports {}, {0}, {1}, {0,1} give restricted minimizers
    0, (2,0), (0,0.5), (2,0.5) with F = 2.125, 0.625 + lam.., etc. At
    lam = 0.5 the unique quadratic-model strong point for M near 1 is (2,0).
    """
    return L0Problem.from_oracle(LeastSquaresObjective(np.eye(2), np.array([2.0, 0.5])), lam)


def random_ls_problem(
    m: int, n: int, seed: int, lam: float = 0.3, tall: bool = False
) -> L0Problem:
    """Random least squares instance; ``tall`` forces full column rank."""
    rng = np.random.default_rng(seed)
    if tall and m < n:
        raise ValueError("tall instance needs m >= n")
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = rng.uniform(-1.0, 1.0, size=m)
    return L0Problem.from_oracle(LeastSquaresObjective(A, b), lam)


def random_logistic_problem(
    m: int, n: int, seed: int, lam: float = 0.2, nu: float = 0.5
) -> L0Problem:
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, size=(m, n))
    y = (rng.random(m) < 0.5).astype(float)
    return L0Problem.from_oracle(LogisticL2Objective(data, y, nu), lam)


@pytest.fixture
def toy():
    return toy_problem()
