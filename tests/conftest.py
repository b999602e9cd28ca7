from __future__ import annotations

import os
import re
from typing import Dict

import numpy as np
import pytest

from geonets import (
    Net,
    Point,
    Triangle,
    build_double_tripod,
    build_fermat_tripod,
    build_overlay_net,
    build_paper_net,
    find_proper_subnet,
)


@pytest.fixture(scope="session")
def paper_net() -> Net:
    return build_paper_net()


@pytest.fixture(scope="session")
def overlay_net() -> Net:
    return build_overlay_net()


@pytest.fixture(scope="session")
def tripod_net() -> Net:
    return build_fermat_tripod(Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)))


@pytest.fixture(scope="session")
def double_tripod_net() -> Net:
    return build_double_tripod(
        Point(0.0, 2.0), Point(0.0, -2.0), Point(6.0, 2.0), Point(6.0, -2.0)
    )


@pytest.fixture(scope="session")
def paper_cert(paper_net):
    return find_proper_subnet(paper_net)


@pytest.fixture(scope="session")
def overlay_cert(overlay_net):
    return find_proper_subnet(overlay_net)


# --- acceptance summary -------------------------------------------------
#
# Tests named test_criterion_<NN>* roll up into one PASS/FAIL line per
# criterion in the terminal summary.

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: Dict[int, bool] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.failed):
        ok = _criterion_outcomes.get(num, True) and report.passed
        _criterion_outcomes[num] = ok


def _numpy_build() -> str:
    """numpy's BLAS build string and the SIMD extensions it found, each
    "unknown" where numpy cannot report it as a dict."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # an older numpy has no mode and only prints it
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "unknown")
    simd = ",".join(config.get("SIMD Extensions", {}).get("found", ["unknown"]))
    return f"blas_build={blas!r} simd_found={simd}"


def pytest_terminal_summary(terminalreporter):
    # The relax pins hash np.linalg.solve's bits, which depend on the BLAS
    # thread count from about 100 rows up, and OpenBLAS's DYNAMIC_ARCH
    # picks its kernels by CPU: every log says what it ran with
    threads = (f"{name}={os.environ.get(name, 'unset')}"
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    terminalreporter.write_line(
        f"BLAS threads: {' '.join(threads)} cpu_count={os.cpu_count()} {_numpy_build()}")
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_criterion_outcomes):
        verdict = "PASS" if _criterion_outcomes[num] else "FAIL"
        terminalreporter.write_line(f"CRITERION {num:2d}: {verdict}")
