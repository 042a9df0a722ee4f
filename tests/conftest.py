"""Shared fixtures: small meshes and manufactured loads used across suites."""

import os

import numpy as np
import pytest

from dpgfem import system
from dpgfem.formulations import ManufacturedCase
from dpgfem.meshes import build_structured


def pytest_report_header(config):
    # the pinned modal bases were recorded with OpenBLAS's default of two
    # threads, and some differ in their last bits under one
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OPENBLAS_NUM_THREADS: {threads}"


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, and the recorded tier-1 output is run with -q
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(autouse=True)
def empty_stack_table():
    """Every test starts from an empty table of class stacks, so a test
    that patches or counts the kernels sees them run whatever ran
    before it."""
    system._STACKS.clear()
    yield
    system._STACKS.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def two_tri():
    return build_structured("unit-square", 1)


@pytest.fixture
def eight_tri():
    return build_structured("unit-square", 2)


@pytest.fixture
def five_tet():
    return build_structured("unit-cube", 1)


@pytest.fixture
def lshape():
    return build_structured("l-shape", 2)


def _corner_load(R=0.35):
    """Poisson load on the L-shape whose solution is a cut-off corner
    singularity: u = (1 - (r/R)^2)^3 r^(2/3) sin(2 psi/3) with psi the
    angle measured from the reentrant edge at (1/2, 1/2).  The load is
    supported in r < R and vanishes with the cutoff at r = R."""

    def f2(x):
        dx = x[:, 0] - 0.5
        dy = x[:, 1] - 0.5
        r = np.hypot(dx, dy)
        psi = np.mod(np.arctan2(dy, dx) - 0.5 * np.pi, 2.0 * np.pi)
        s = np.where(r > 0, r, 1.0) ** (2.0 / 3.0) * np.sin(2.0 * psi / 3.0)
        s = np.where(r > 0, s, 0.0)
        rho = (r / R) ** 2
        return np.where(rho < 1.0,
                        (1.0 - rho) * (20.0 - 44.0 * rho) / R ** 2 * s, 0.0)

    return ManufacturedCase("poisson_lshape_corner", 2,
                            {"a": 1.0, "beta": np.zeros(2), "gamma": 0.0},
                            {"f2": f2}, has_exact=False)


@pytest.fixture
def corner_case():
    return _corner_load()
