"""Uniform cell-centered grids on a box, with no-flux faces and discrete calculus.

The domain is the box prod_a [0, L_a] split into n_a uniform cells per axis.
Scalar fields live at cell centers as plain ``numpy`` arrays of shape
``grid.shape``.  Face data is one array per axis holding a value on every face
orthogonal to that axis (``n_a + 1`` entries along the axis); boundary faces
always carry the value 0, which is how the homogeneous Neumann (no-flux)
condition is encoded.

Every integral over gradients in the package is one cell quadrature:
``integrate(w * cell_dot(ga, gb))``.  ``cell_dot`` gives each cell the mean of
``ga * gb`` over its two faces per axis, so this is the face sum of
``ga * gb`` weighted by ``(w_lo + w_hi) / 2``, regrouped by cells.  Two
discrete identities make the rest of the package work:

* telescoping: ``integrate(div_faces(F)) == 0`` to rounding for any face data
  with zero boundary entries, and
* summation by parts: ``integrate(cell_dot(face_gradient(f), face_gradient(g)))``
  equals ``-integrate(f * laplacian_neumann(g))`` to rounding, because every
  interior face carries the quadrature weight ``cell_volume``.
"""

from __future__ import annotations

import math

import numpy as np

# One ndarray per axis; entries live on faces orthogonal to that axis and the
# first/last slice along the axis (the wall faces) must stay zero.
FaceData = list[np.ndarray]

BLOCK_CELLS = 4096  # cells per stack of stepper blocks and inequality samples (see CHANGES.md)


class Grid:
    """Structured uniform grid in 1, 2 or 3 dimensions."""

    __slots__ = ("dim", "cells", "lengths", "h", "inv_h", "hmin2", "shape", "cell_volume",
                 "face_shapes", "lo", "hi", "inner")

    def __init__(self, cells, lengths=None):
        cells = np.atleast_1d(cells)  # one count, or one per axis
        for n in cells:
            if not float(n).is_integer():
                raise ValueError(f"cell counts must be integers, got {n}")
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
        self.inv_h = tuple(1.0 / h for h in self.h)  # kernels scale by it: exact on dyadic h
        self.hmin2 = min(h * h for h in self.h)
        self.shape = self.cells
        self.cell_volume = math.prod(self.h)
        # face data along axis a has one more entry than cells along a
        self.face_shapes = tuple(tuple(n + (b == a) for b, n in enumerate(self.cells))
                                 for a in range(self.dim))

        def along(a: int, sl: slice) -> tuple:
            return (Ellipsis, *(sl if b == a else slice(None) for b in range(self.dim)))
        # Per-axis index tuples.  lo/hi drop the last/first entry along the
        # axis: on a cell field they pick the two cells of every interior
        # face, on face data the two faces of every cell.  On face data inner
        # picks the interior faces.  Each also indexes a (k, *shape) stack.
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

    # -- discrete calculus ---------------------------------------------------

    def integrate(self, f: np.ndarray) -> float:
        """Midpoint-rule integral over the box, exact on per-axis linears: the one row of
        ``integrals``, so it refuses a non-finite sum and ignores f's memory layout.  A
        field whose shape is not the grid's is refused."""
        if f.shape != self.shape:
            raise ValueError(f"field of shape {f.shape} does not fit grid {self.shape}")
        return self.integrals(f[None])[0]

    def integrals(self, stack: np.ndarray) -> list[float]:
        """The integral of every row of a (k, *shape) stack, in any memory layout, by one
        reduction in C order; the check names the first row whose sum is not finite."""
        sums = stack.reshape(len(stack), math.prod(stack.shape[1:])).sum(axis=1).tolist()
        for i, s in enumerate(sums):
            if not math.isfinite(s):
                raise ValueError(f"non-finite field in row {i}")
        return [s * self.cell_volume for s in sums]

    def faces(self, lead: tuple[int, ...] = ()) -> FaceData:
        """Zero face data, with leading stack axes ``lead``; the one allocator of face arrays."""
        return [np.zeros(lead + s) for s in self.face_shapes]

    def face_gradient(self, f: np.ndarray, out: FaceData | None = None) -> FaceData:
        """Two-point difference across each interior face, row by row on a stack; walls stay 0.
        ``out``, face data with zero walls, receives it in place."""
        out = self.faces(f.shape[:-self.dim]) if out is None else out
        for a in range(self.dim):
            np.subtract(f[self.hi[a]], f[self.lo[a]], out=out[a][self.inner[a]])
            out[a] *= self.inv_h[a]  # whole and contiguous: the zero walls stay zero
        return out

    def div_faces(self, flux: FaceData, out: np.ndarray | None = None,
                  cell: np.ndarray | None = None) -> np.ndarray:
        """Discrete divergence of face fluxes; integrates to zero by telescoping.
        ``out`` receives it in place, and ``cell`` is scratch from 2D on."""
        out = np.subtract(flux[0][self.hi[0]], flux[0][self.lo[0]], out=out)
        out *= self.inv_h[0]
        for a in range(1, self.dim):
            d = np.subtract(flux[a][self.hi[a]], flux[a][self.lo[a]], out=cell)
            d *= self.inv_h[a]
            out += d
        return out

    def laplacian_neumann(self, f: np.ndarray) -> np.ndarray:
        """Five/seven-point Laplacian with zero-flux walls, div(grad f)."""
        return self.div_faces(self.face_gradient(f))

    def lp_norm(self, f: np.ndarray, p: float) -> float:
        """(integral of f^p)^(1/p).  f must be nonnegative when p is fractional."""
        return lp_root(self.integrate(lp_power(f, p)), p)

    def cell_dot(self, ga: FaceData, gb: FaceData, out: np.ndarray | None = None,
                 faces: FaceData | None = None, cell: np.ndarray | None = None) -> np.ndarray:
        """grad a . grad b at cell centers: per axis, ga * gb averaged over the cell's two
        faces.  ``out`` receives it in place; ``faces`` and ``cell`` are scratch.  The face
        pairs are summed over the axes and halved once, which is exact."""
        for a in range(self.dim):
            prod = np.multiply(ga[a], gb[a], faces[a] if faces else None)
            pair = np.add(prod[self.lo[a]], prod[self.hi[a]], cell if a else out)
            out = np.add(out, pair, out=out) if a else pair
        out *= 0.5
        return out


def _power(u: np.ndarray, a: float, out: np.ndarray | None = None) -> np.ndarray:
    """u ** a, bit for bit, written into and returned as ``out`` if given and else a new
    array: never u itself, so a caller may write into it at every exponent."""
    out = np.positive(u, out=out, dtype=float)
    out **= a  # the same scalar-power path as u ** a (a square root at a = 0.5)
    return out


def lp_power(f: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """The integrand f^p of ``Grid.lp_norm``, written into ``out`` if given."""
    if p <= 0.0:
        raise ValueError(f"lp_norm order must be positive, got {p}")
    if p != round(p) and bool((f < 0.0).any()):
        raise ValueError(f"fractional power of negative value at cell {first_cell(f < 0.0)}")
    return _power(f, p, out)


def lp_root(s: float, p: float) -> float:
    """The L^p norm from the integral s of f^p."""
    if p != 1.0 and s < 0.0:
        raise ValueError("negative integral, no real lp_norm")
    return s if p == 1.0 else s ** (1.0 / p)


def first_cell(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first true cell of a mask, in C order."""
    return tuple(int(i) for i in np.argwhere(mask)[0])
