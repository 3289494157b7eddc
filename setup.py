"""Package metadata for ``repro``.

The project has no ``pyproject.toml``; this file is its only build
configuration.  It works with the older setuptools that lacks the
``wheel`` package, where PEP 517 editable installs fail, so install in
development mode with::

    pip install --no-use-pep517 --no-build-isolation -e .

The version is read from ``src/repro/__init__.py`` so it is stated once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Distributed edge coloring in time quasi-polylogarithmic in Delta "
        "(Balliu, Kuhn, Olivetti, PODC 2020): solver, baselines and simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["networkx", "numpy"],
)
