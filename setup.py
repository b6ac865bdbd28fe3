"""Packaging for the NDSEARCH (ISCA 2024) reproduction.

Metadata lives here (no ``pyproject.toml``) so minimal offline
installs work: ``pip install -e .`` where pip has the ``wheel``
package, ``python setup.py develop`` where it does not.  The ``src/``
layout means the package is *not* importable from a bare checkout
without installation; either installing or ``PYTHONPATH=src`` (what
the test/bench commands in ROADMAP.md use) makes ``import repro``
work.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ndsearch",
    version="1.4.0",
    description=(
        "From-scratch reproduction of NDSEARCH: near-data processing for "
        "graph-traversal approximate nearest neighbor search (ISCA 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve = repro.serving.__main__:main",
            # The static determinism / event-kernel checker; with no
            # paths it scans src, tests and benchmarks, so `repro-lint`
            # from the repo root just works.
            "repro-lint = repro.lint.__main__:main",
        ],
    },
)
