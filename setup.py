"""Setuptools entry point.

Plain ``setup.py`` (no ``pyproject.toml``) so that ``pip install -e .`` works
in offline environments where the ``wheel`` package (required for PEP 660
editable installs) is unavailable and pip falls back to the legacy
``setup.py develop`` code path.  Installs the ``repro-serve`` and
``repro-fleet`` console scripts (see :mod:`repro.server.cli` and
:mod:`repro.fleet.cli`).
"""

import os

from setuptools import find_packages, setup


def _version() -> str:
    namespace: dict = {}
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py"),
              encoding="utf-8") as handle:
        exec(handle.read(), namespace)
    return namespace["__version__"]


setup(
    name="repro",
    version=_version(),
    description=("Fast linear solvers via AI-tuned MCMC-based matrix "
                 "inversion — reproduction with a tuning service and "
                 "solve server"),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # scipy is bounded to the release line whose private ``gstrs`` entry
    # point and ``spsolve_triangular`` preparation repro.precond.base mirrors;
    # widening it is a deliberate change, checked by tests/test_precond.py.
    install_requires=["numpy", "scipy>=1.17,<1.18"],
    entry_points={
        "console_scripts": [
            "repro-serve=repro.server.cli:main",
            "repro-fleet=repro.fleet.cli:main",
        ],
    },
)
