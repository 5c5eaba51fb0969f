"""Seeded instance ensembles for benchmarks and statistical checks.

Three kinds:

* "sparse": entrywise Bernoulli(density) mask times standard normals,
  columns then scaled to unit norm (columns that drew empty stay zero).
* "dense": standard normal entries, columns scaled to unit norm.
* "illcond": U diag(sigma) V^T with orthonormal factors from QR of normal
  draws and the spectrum {1, t, t, ...} where t = cond_target**-0.5, so the
  measured ratio sigma_max^2/sigma_min^2 lands on cond_target. No column
  scaling here, since it would wreck the prescribed spectrum.

The right-hand side is standard normal when consistent=False; otherwise
b = A @ planted (+ noise_scale * normal noise), with planted a standard
normal pre-image. planted equals the min-norm solution only when A has full
column rank; rank-deficient callers should ask the oracle.

Identical specs produce bit-identical instances: every draw goes through one
numpy Generator seeded from spec.seed, in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, InvalidRangeError
from .matrices import DualSparseMatrix

SPARSE = "sparse"
DENSE = "dense"
ILLCOND = "illcond"
KINDS = (SPARSE, DENSE, ILLCOND)

_MAX_REDRAWS = 16


@dataclass
class InstanceSpec:
    kind: str
    m: int
    n: int
    density: float = 0.25
    cond_target: float = 1e6
    consistent: bool = False
    noise_scale: float = 0.0
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise InvalidRangeError("unknown instance kind %r" % (self.kind,))
        if self.m < 1 or self.n < 1:
            raise InvalidRangeError("instance shape must be positive")
        if not (0.0 < self.density <= 1.0):
            raise InvalidRangeError("density must lie in (0, 1]")
        if self.cond_target < 1.0:
            raise InvalidRangeError("cond_target must be >= 1")
        if self.noise_scale < 0.0:
            raise InvalidRangeError("noise_scale must be >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidRangeError("seed must fit in 64 bits")


def _unit_columns(dense):
    """Scale each column of `dense` to unit norm in place; all-zero columns stay zero."""
    norms = np.linalg.norm(dense, axis=0)
    dense /= np.where(norms > 0.0, norms, 1.0)
    return dense


def _draw_matrix(spec, rng):
    if spec.kind == SPARSE:
        for _ in range(_MAX_REDRAWS):
            mask = rng.random((spec.m, spec.n)) < spec.density
            vals = rng.standard_normal((spec.m, spec.n))
            if mask.any():
                vals[~mask] = 0.0
                return _unit_columns(vals)
        raise DegenerateDensityError(
            "sparse draw came up empty %d times (density %g on %dx%d)"
            % (_MAX_REDRAWS, spec.density, spec.m, spec.n)
        )
    if spec.kind == DENSE:
        return _unit_columns(rng.standard_normal((spec.m, spec.n)))
    # illcond
    r = min(spec.m, spec.n)
    u, _ = np.linalg.qr(rng.standard_normal((spec.m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((spec.n, r)))
    sigma = np.full(r, spec.cond_target**-0.5)
    sigma[0] = 1.0
    return (u * sigma) @ v.T


def generate(spec):
    """Materialize (A, b, planted). planted is None when consistent=False."""
    spec.validate()
    rng = np.random.default_rng(int(spec.seed))
    dense = _draw_matrix(spec, rng)
    if spec.consistent:
        planted = rng.standard_normal(spec.n)
        b = dense @ planted
        if spec.noise_scale > 0.0:
            b = b + spec.noise_scale * rng.standard_normal(spec.m)
    else:
        planted = None
        b = rng.standard_normal(spec.m)
    return DualSparseMatrix.from_dense(dense), b, planted
