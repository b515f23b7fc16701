"""Package declaration for the reproduction (``repro``).

Everything about the package is declared here, once: there is no
pyproject.toml or setup.cfg.  A plain ``setup.py`` is deliberate — the
offline build image lacks the ``wheel`` package that pip's PEP 517
editable path needs, so ``pip install -e .`` uses this file through
``setup.py develop`` there.  CI installs with
``python -m pip install -e ".[test]"``; without installing at all,
``PYTHONPATH=src`` runs everything (ROADMAP.md, tier-1 verify).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Simulator reproduction of 'Toward a Better Understanding "
                 "and Evaluation of Tree Structures on Flash SSDs'"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
