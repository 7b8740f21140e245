import os

# one BLAS thread, as importing detbundle before numpy sets it, so that the
# tests see the outputs of a CLI run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from detbundle import BaseGrid, demo_family, rotated_interface

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's capture of per-test stdout
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# integrator resolution shared by the refinement fixtures; the b-grid is the
# refined quantity, so the x-step only needs to keep the 4th-order Magnus
# error below the O(h^2) signal being measured
STEPS = 64


@pytest.fixture(scope="session")
def demo16():
    return demo_family(BaseGrid.torus(16, 16), steps_per_half=STEPS)


@pytest.fixture(scope="session")
def demo32():
    return demo_family(BaseGrid.torus(32, 32), steps_per_half=STEPS)


@pytest.fixture(scope="session")
def demo64():
    return demo_family(BaseGrid.torus(64, 64), steps_per_half=STEPS)


@pytest.fixture(scope="session")
def rot16(demo16):
    return rotated_interface(demo16)


@pytest.fixture(scope="session")
def rot32(demo32):
    return rotated_interface(demo32)


@pytest.fixture(scope="session")
def rot64(demo64):
    return rotated_interface(demo64)


def random_complex(rng, *shape, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_frame(rng, dim: int, rank: int) -> np.ndarray:
    """Orthonormal (dim, rank) frame: the leading columns of a random unitary."""
    q, _ = np.linalg.qr(random_complex(rng, dim, dim))
    return q[:, :rank]


def random_projection(rng, dim: int, rank: int) -> np.ndarray:
    f = random_frame(rng, dim, rank)
    return f @ f.conj().T


def _count_calls(monkeypatch, name, modules=(np.linalg,)):
    """Count calls of ``name`` through every one of ``modules`` that binds it."""
    calls = []

    def wrap(fn):
        return lambda *a, **k: calls.append(1) or fn(*a, **k)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, wrap(getattr(mod, name)))
    return calls
