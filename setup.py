"""Setuptools shim for legacy (non-PEP 517) installs.

All metadata lives in ``pyproject.toml``; this file only lets the legacy
code paths find it: ``pip install -e . --no-build-isolation
--no-use-pep517`` (which pip allows only when ``wheel`` is installed) or,
where ``wheel`` is missing too, ``python setup.py develop``.
"""

from setuptools import setup

setup()
