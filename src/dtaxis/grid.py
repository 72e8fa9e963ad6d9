"""Uniform cell-centered grids on a box, with no-flux faces and discrete calculus.

The domain is the box prod_a [0, L_a] split into n_a uniform cells per axis.
Scalar fields live at cell centers as plain ``numpy`` arrays of shape
``grid.shape``.  Face data is one array per axis holding a value on every face
orthogonal to that axis (``n_a + 1`` entries along the axis); boundary faces
always carry the value 0, which is how the homogeneous Neumann (no-flux)
condition is encoded.

Two discrete identities make the rest of the package work and are relied on
everywhere:

* telescoping: ``integrate(div_faces(F)) == 0`` to rounding for any face data
  with zero boundary entries, and
* summation by parts: ``face_dot(1, face_gradient(f), face_gradient(g))``
  equals ``-integrate(f * laplacian_neumann(g))`` exactly, because every
  interior face carries the quadrature weight ``cell_volume``.
"""

from __future__ import annotations

import math

import numpy as np

# One ndarray per axis; entries live on faces orthogonal to that axis and the
# first/last slice along the axis (the wall faces) must stay zero.
FaceData = list[np.ndarray]


class Grid:
    """Structured uniform grid in 1, 2 or 3 dimensions."""

    __slots__ = ("dim", "cells", "lengths", "h", "shape", "size", "cell_volume",
                 "lo", "hi", "inner")

    def __init__(self, cells, lengths=None):
        if isinstance(cells, (int, np.integer)):
            cells = (int(cells),)
        self.cells = tuple(int(n) for n in cells)
        self.dim = len(self.cells)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {self.dim}")
        if any(n < 2 for n in self.cells):
            raise ValueError(f"need at least 2 cells per axis, got {self.cells}")
        if lengths is None:
            lengths = (1.0,) * self.dim
        if isinstance(lengths, (int, float, np.floating)):
            lengths = (float(lengths),) * self.dim
        self.lengths = tuple(float(L) for L in lengths)
        if len(self.lengths) != self.dim:
            raise ValueError("lengths and cells must have the same dimension")
        if any(not 0.0 < L < math.inf for L in self.lengths):
            raise ValueError(f"domain lengths must be positive and finite, got {self.lengths}")
        self.h = tuple(L / n for L, n in zip(self.lengths, self.cells))
        self.shape = self.cells
        self.size = math.prod(self.cells)
        self.cell_volume = math.prod(self.h)

        def along(a: int, sl: slice) -> tuple[slice, ...]:
            return tuple(sl if b == a else slice(None) for b in range(self.dim))
        # Per-axis index tuples.  lo/hi drop the last/first entry along the
        # axis: on a cell field they pick the two cells of every interior
        # face, on face data the two faces of every cell.  On face data inner
        # picks the interior faces.
        self.lo = [along(a, slice(0, -1)) for a in range(self.dim)]
        self.hi = [along(a, slice(1, None)) for a in range(self.dim)]
        self.inner = [along(a, slice(1, -1)) for a in range(self.dim)]

    def __repr__(self):
        return f"Grid(cells={self.cells}, lengths={self.lengths})"

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.cells == other.cells
            and self.lengths == other.lengths
        )

    def __hash__(self):
        return hash((self.cells, self.lengths))

    # -- geometry -----------------------------------------------------------

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.cells[axis]) + 0.5) * self.h[axis]

    def mesh(self):
        """Broadcastable cell-center coordinate arrays (one per axis)."""
        return np.meshgrid(*(self.centers(a) for a in range(self.dim)),
                           indexing="ij", sparse=True)

    def face_shape(self, axis: int) -> tuple[int, ...]:
        s = list(self.cells)
        s[axis] += 1
        return tuple(s)

    def zero_faces(self) -> FaceData:
        return [np.zeros(self.face_shape(a)) for a in range(self.dim)]

    # -- discrete calculus ---------------------------------------------------

    def integrate(self, f: np.ndarray) -> float:
        """Midpoint-rule integral over the box; exact on per-axis linears."""
        if not np.isfinite(f).all():
            raise ValueError("non-finite field")
        return float(np.sum(f)) * self.cell_volume

    def face_gradient(self, f: np.ndarray) -> FaceData:
        """Two-point difference across each interior face; wall faces stay 0."""
        out = []
        for a in range(self.dim):
            g = np.zeros(self.face_shape(a))
            g[self.inner[a]] = (f[self.hi[a]] - f[self.lo[a]]) / self.h[a]
            out.append(g)
        return out

    def div_faces(self, flux: FaceData) -> np.ndarray:
        """Discrete divergence of face fluxes; integrates to zero by telescoping."""
        out = (flux[0][self.hi[0]] - flux[0][self.lo[0]]) / self.h[0]
        for a in range(1, self.dim):
            out += (flux[a][self.hi[a]] - flux[a][self.lo[a]]) / self.h[a]
        return out

    def laplacian_neumann(self, f: np.ndarray) -> np.ndarray:
        """Five/seven-point Laplacian with zero-flux walls, div(grad f)."""
        return self.div_faces(self.face_gradient(f))

    def lp_norm(self, f: np.ndarray, p: float) -> float:
        """(integral of f^p)^(1/p).  f must be nonnegative when p is fractional."""
        if p <= 0.0:
            raise ValueError(f"lp_norm order must be positive, got {p}")
        if p != round(p) and bool((f < 0.0).any()):
            raise ValueError("fractional power of negative value")
        s = float(np.sum(f if p == 1.0 else f ** p)) * self.cell_volume
        if p == 1.0:
            return s
        if s < 0.0:
            raise ValueError("negative integral, no real lp_norm")
        return s ** (1.0 / p)

    # -- quadrature helpers shared by the scheme and the monitors ------------

    def face_dot(self, w: np.ndarray | None, ga: FaceData, gb: FaceData) -> float:
        """Face quadrature sum_axes sum_faces mean(w) * ga * gb * cell_volume.

        ``w`` is a cell field averaged arithmetically onto interior faces
        (``w=None`` means weight one).  Boundary faces carry zero gradients so
        they never contribute.  With weight one this realizes the discrete
        integration by parts against ``laplacian_neumann`` exactly.
        """
        tot = 0.0
        for a in range(self.dim):
            it = self.inner[a]
            prod = ga[a][it] * gb[a][it]
            if w is not None:
                prod = prod * (0.5 * (w[self.lo[a]] + w[self.hi[a]]))
            tot += float(np.sum(prod))
        return tot * self.cell_volume

    def cell_grad_sq(self, grads: FaceData) -> np.ndarray:
        """|grad f|^2 at cell centers by averaging squared face gradients."""
        out = np.zeros(self.shape)
        for a in range(self.dim):
            g2 = grads[a] ** 2
            out += 0.5 * (g2[self.lo[a]] + g2[self.hi[a]])
        return out
