"""Test-only helpers shared by several test modules."""

import csv

import numpy as np

from kaczmarz.errors import DimensionMismatchError


def projector_residual(ref, v):
    """||(I - A^+ A) v||: how far v sticks out of the row space of ref's matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (ref.n,):
        raise DimensionMismatchError(
            "vector must have length %d, got shape %r" % (ref.n, v.shape)
        )
    return float(np.linalg.norm(v - ref.row_basis @ (ref.row_basis.T @ v)))


def read_csv(path):
    """Read back a CSV written by mmio.write_csv, as a list of dicts of strings."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))
