"""Setup shim so that ``pip install -e .`` works without the ``wheel`` package.

The environment this reproduction targets has no network access and no
``wheel`` distribution, so PEP 660 editable installs (which build an editable
wheel) are unavailable; the legacy ``setup.py develop`` path used by
``pip install -e . --no-use-pep517`` works everywhere.  There is no
``pyproject.toml`` or ``setup.cfg`` and no metadata is declared here either:
the repo is run in place with ``PYTHONPATH=src`` (tests, examples and the
benchmark all do), and the test-only dependencies -- ``pytest`` and
``hypothesis`` -- are the ones CI installs by name.
"""

from setuptools import setup

setup()
