"""Shared fixtures: small named functions and exhaustive enumerations."""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from pathlib import Path

import pytest

import ptfkit
from ptfkit import TruthTable, parse_table

XOR2 = parse_table("0110")
XNOR2 = parse_table("1001")
OR2 = parse_table("0111")
AND2 = parse_table("0001")
NAND2 = parse_table("1110")
CONST0_2 = parse_table("0000")
CONST1_2 = parse_table("1111")
XOR3 = parse_table("01101001")


def parity_table(n: int) -> TruthTable:
    bits = tuple(bin(i).count("1") & 1 for i in range(1 << n))
    return TruthTable(n, bits)


def all_tables(n: int):
    """Every n-variable function, in ascending table-code order."""
    for bits in itertools.product((0, 1), repeat=1 << n):
        yield TruthTable(n, bits)


def random_weight_map(rng, n: int, degree: int) -> dict:
    """Up to 2n seeded Fraction weights on monomials of degree 1..degree (maybe none)."""
    weights = {}
    for _ in range(rng.randint(0, 2 * n)):
        m = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, degree))))
        weights[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return weights


@pytest.fixture
def subprocess_env():
    """Build the environment for a child Python that must import this ptfkit.

    The child inherits ``os.environ`` with the directory holding the
    imported ``ptfkit`` package put first on ``PYTHONPATH``, as an absolute
    path, so it imports the code under test whatever the working directory
    and however the package reached ``sys.path``.
    """
    pkg_parent = str(Path(ptfkit.__file__).resolve().parent.parent)

    def make() -> dict[str, str]:
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_parent + os.pathsep + inherited if inherited else pkg_parent
        )
        return env

    return make
