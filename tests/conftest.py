from __future__ import annotations

import os
from pathlib import Path

import pytest

import plesken_lab
from plesken_lab import build_group

CATALOG_SPECS = ("C2", "C3", "C6", "K4", "S3", "D4", "S4", "H3")
SMALL_CATALOG_SPECS = ("C2", "C3", "C6", "K4", "S3", "D4")  # orders <= 8

# a child Python imports the plesken_lab these tests import, with or without PYTHONPATH
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(plesken_lab.__file__).parents[1]))


@pytest.fixture(scope="session")
def catalog():
    return {spec: build_group(spec) for spec in CATALOG_SPECS}


@pytest.fixture(scope="session")
def small_catalog(catalog):
    return {spec: catalog[spec] for spec in SMALL_CATALOG_SPECS}
