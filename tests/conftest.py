from pathlib import Path

import numpy as np
import pytest

from surrokit import ArmLabel, OutcomePanel

CONTROL = ArmLabel("control", True)
T1 = ArmLabel("t1", False)
T2 = ArmLabel("t2", False)

DATA_DIR = Path(__file__).parent / "data"


def build_panel(matrix, arms, days=None, experiment_id="exp"):
    """Panel from an (n_users, n_days) array; days default to 1..n_days."""
    matrix = np.asarray(matrix, dtype=float)
    if days is None:
        days = list(range(1, matrix.shape[1] + 1))
    else:
        days = list(days)
    user_ids = [f"u{i}" for i in range(matrix.shape[0])]
    return OutcomePanel.from_matrix(experiment_id, user_ids, list(arms), days, matrix)


def random_two_arm_panel(rng, n_per_arm=5, days=None, loc=2.0, scale=1.0):
    """Noise-only panel with n_per_arm control users then n_per_arm t1 users."""
    if days is None:
        days = list(range(1, 8))
    matrix = loc + scale * rng.standard_normal((2 * n_per_arm, len(days)))
    arms = [CONTROL] * n_per_arm + [T1] * n_per_arm
    return build_panel(matrix, arms, days=days)


@pytest.fixture
def fixture_dir():
    return DATA_DIR
