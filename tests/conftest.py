"""Shared benchmark fixtures.

Everything expensive (eigensolves, HJB solves) is session scoped; the
benchmark problems themselves are cheap to rebuild and are exposed as
plain constructors so individual tests can vary resolution.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import densctl as dc

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def _src_on_subprocess_path():
    """Let `python -m densctl...` children import the package from src.

    pytest's `pythonpath` setting reaches only the pytest process itself.
    """
    with pytest.MonkeyPatch.context() as m:
        m.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


def ou_spec(counts=401, q="6*x1^2"):
    """Constant-noise quadratic-well benchmark on [-6, 6]."""
    grid = dc.Grid((-6.0,), (6.0,), (counts,))
    return dc.ProblemSpec(grid=grid, phi="x1^2", sigma=[["sqrt(2)"]], q=q)


def statesig_spec(counts=401):
    """State-dependent diffusion benchmark: Sigma = 1 + x^2, phi = x^2."""
    grid = dc.Grid((-6.0,), (6.0,), (counts,))
    return dc.ProblemSpec(grid=grid, phi="x1^2", Sigma=[["1 + x1^2"]], q="0")


def dwell2d_spec(counts=(57, 53)):
    """2D double-well with diagonal anisotropic diffusion."""
    grid = dc.Grid((-2.8, -5.2), (2.8, 5.2), counts)
    return dc.ProblemSpec(
        grid=grid,
        phi="(x1^2 - 1)^2 + x2^2",
        Sigma=[["2", "0"], ["0", "1"]],
        q="0",
    )


def corr2d_spec(counts=(65, 65)):
    """2D benchmark with cross-diffusion; closed-form rate ladder."""
    grid = dc.Grid((-6.5, -6.5), (6.5, 6.5), counts)
    return dc.ProblemSpec(
        grid=grid,
        phi="(x1^2 + x2^2)/2",
        Sigma=[["2", "1"], ["1", "2"]],
        q="0",
    )


def bimodal_spec(counts=281):
    """Bimodal target density for the inverse direction."""
    grid = dc.Grid((-2.8,), (2.8,), (counts,))
    return dc.ProblemSpec(
        grid=grid,
        phi="x1^2",
        sigma=[["sqrt(2)"]],
        target="exp(-(x1^2 - 1)^2)",
    )


def assemble(spec):
    return dc.assemble_generator(spec.diffusion_field(), spec.phi_field())


@pytest.fixture(scope="session")
def ou401():
    return ou_spec()


@pytest.fixture(scope="session")
def ou_operator(ou401):
    return assemble(ou401)


@pytest.fixture(scope="session")
def ou_hjb(ou401):
    return dc.solve_hjb_principal(
        ou401.diffusion_field(), ou401.phi_field(), ou401.q_field()
    )


@pytest.fixture(scope="session")
def dwell2d_operator():
    return assemble(dwell2d_spec())
