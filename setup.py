"""Packaging metadata for the TiLT reproduction.

The single source of truth for the version is ``repro.__version__``
(``src/repro/__init__.py``); it is read textually here so ``setup.py`` works
before the package's dependencies are installed.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.abspath(os.path.dirname(__file__))


def read(*parts: str) -> str:
    with open(os.path.join(HERE, *parts), encoding="utf-8") as fh:
        return fh.read()


def find_version() -> str:
    match = re.search(
        r'^__version__\s*=\s*["\']([^"\']+)["\']',
        read("src", "repro", "__init__.py"),
        re.MULTILINE,
    )
    if not match:
        raise RuntimeError("unable to find repro.__version__")
    return match.group(1)


setup(
    name="tilt-repro",
    version=find_version(),
    description=(
        "Python reproduction of TiLT (ASPLOS 2023): a time-centric IR, "
        "optimizer and parallel runtime for stream queries, with a "
        "continuous micro-batch streaming session layer"
    ),
    long_description=read("README.md"),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=["numpy>=1.20"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
