"""Uniform cell-centered grids on a box, with no-flux faces and discrete calculus.

The domain is the box prod_a [0, L_a] split into n_a uniform cells per axis.
Scalar fields live at cell centers as plain ``numpy`` arrays of shape
``grid.shape``.  Face data is one flat buffer of n + s_0 entries per axis a, for n
cells of C-order strides s_a: entry s_a + j is the face above cell j, entry j the face
below it.  Walls carry 0, which encodes the homogeneous Neumann (no-flux) condition:
the first s_a entries, and the "wrap" entries above the last cell of each line along a.
So each stencil is one contiguous slice pair (the divergence is B[s_a:s_a+n] - B[:n]).

Every integral over gradients in the package is one cell quadrature:
``integrate(w * cell_dot(ga, gb))``.  ``cell_dot`` gives each cell the mean of
``ga * gb`` over its two faces per axis, so this is the face sum of
``ga * gb`` weighted by ``(w_lo + w_hi) / 2``, regrouped by cells.  Two
discrete identities make the rest of the package work:

* telescoping: ``integrate(div_faces(F)) == 0`` to rounding for any face data
  with zero walls, and
* summation by parts: ``integrate(cell_dot(face_gradient(f), face_gradient(g)))``
  equals ``-integrate(f * laplacian_neumann(g))`` to rounding, because every
  interior face carries the quadrature weight ``cell_volume``.
"""

from __future__ import annotations

import math

import numpy as np

# One flat (*lead, n + s_0) buffer per axis a: entry s_a + j is the face above cell j, entry
# j the face below it; the walls (the first s_a entries and the wrap entries) must stay zero.
FaceData = list[np.ndarray]

BLOCK_CELLS = 4096  # cells per stack of stepper blocks and inequality samples (see CHANGES.md)


class Grid:
    """Structured uniform grid in 1, 2 or 3 dimensions."""

    __slots__ = ("dim", "cells", "lengths", "h", "inv_h", "hmin2", "shape", "cell_volume",
                 "size", "strides", "face_shapes", "diff", "pair")

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
        if np.ndim(lengths) == 0:  # one length of any real type for every axis
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
        n = self.size = math.prod(self.cells)
        self.strides = tuple(math.prod(self.cells[a + 1:]) for a in range(self.dim))
        self.face_shapes = ((n + self.strides[0],),) * self.dim  # of each axis's face buffer
        # Per-axis index tuples into flat (*lead, n) cells and faces.  diff: the faces (and cells)
        # above the first n - s_a cells, then those cells; pair: the faces below and above a cell.
        self.diff = [((..., slice(s, n)), (..., slice(None, -s))) for s in self.strides]
        self.pair = [((..., slice(0, n)), (..., slice(s, s + n))) for s in self.strides]

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
        ``integrals``, so it refuses a field of another shape or with a non-finite sum."""
        return self.integrals(f[None])[0]

    def integrals(self, stack: np.ndarray) -> list[float]:
        """The integral of every row of a (k, *shape) stack, in any memory layout, by one
        reduction in C order; the check names the first row whose sum is not finite."""
        if stack.shape[1:] != self.shape:
            raise ValueError(f"field of shape {stack.shape[1:]} does not fit grid {self.shape}")
        return self.row_integrals(stack.reshape(len(stack), self.size))

    def row_integrals(self, rows: np.ndarray) -> list[float]:
        """``integrals`` of the (k, m) rows of cell values on any m of the grid's cells."""
        sums = rows.sum(axis=1).tolist()
        for i, s in enumerate(sums):
            if not math.isfinite(s):
                raise ValueError(f"non-finite field in row {i}")
        return [s * self.cell_volume for s in sums]

    def faces(self, lead: tuple[int, ...] = ()) -> FaceData:
        """Zero face data, with leading stack axes ``lead``; the one allocator of face arrays."""
        return [np.zeros(lead + s) for s in self.face_shapes]

    def flat(self, f: np.ndarray | None, written: bool = False) -> np.ndarray | None:
        """A (*lead, *shape) field as (*lead, n) cells; a ``written`` one as a view, not a copy."""
        if f is None:
            return None
        if f.shape[-self.dim:] != self.shape:
            raise ValueError(f"field of shape {f.shape} does not fit grid {self.shape}")
        if written and f.strides[-self.dim:] != tuple(f.itemsize * s for s in self.strides):
            raise ValueError(f"field of shape {f.shape} is not C-contiguous in its cells")
        return f.reshape(f.shape[:-self.dim] + (self.size,))

    def zero_wraps(self, faces: FaceData) -> FaceData:
        """faces, zeroing each axis a's wraps: the first s_a of each row of s_(a-1) but one."""
        for r, s, b in zip(self.strides, self.strides[1:], faces[1:]):
            b.reshape(b.shape[:-1] + (b.shape[-1] // r, r))[..., 1:, :s] = 0.0
        return faces

    def face_view(self, face: np.ndarray, a: int, below: bool = False) -> np.ndarray:
        """Axis a's face data as a (*lead, *shape) view: the face above each cell, or below."""
        return face[self.pair[a][not below]].reshape(face.shape[:-1] + self.shape)

    def face_gradient(self, f: np.ndarray, out: FaceData | None = None) -> FaceData:
        """Two-point difference across each interior face, row by row on a stack; walls stay 0.
        ``out``, face data with zero walls, receives it in place."""
        out = self.faces(f.shape[:-self.dim]) if out is None else out
        f = f if self.dim == 1 else self.flat(f)
        for a, (hi, lo) in enumerate(self.diff):
            np.subtract(f[hi], f[lo], out=out[a][hi])
            out[a] *= self.inv_h[a]  # whole and contiguous: zero walls stay zero, wraps go below
        return out if self.dim == 1 else self.zero_wraps(out)

    def div_faces(self, flux: FaceData, out: np.ndarray | None = None,
                  cell: np.ndarray | None = None) -> np.ndarray:
        """Discrete divergence of face fluxes; integrates to zero by telescoping.
        ``out`` receives it in place, and ``cell`` is scratch from 2D on."""
        res, cell = (out, cell) if self.dim == 1 else (self.flat(out, True), self.flat(cell, True))
        for a, (lo, hi) in enumerate(self.pair):
            d = np.subtract(flux[a][hi], flux[a][lo], out=cell if a else res)
            d *= self.inv_h[a]
            res = np.add(res, d, out=res) if a else d
        return res if self.dim == 1 else out if out is not None else res.reshape(
            res.shape[:-1] + self.shape)

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
        res, cell = (out, cell) if self.dim == 1 else (self.flat(out, True), self.flat(cell, True))
        for a, (lo, hi) in enumerate(self.pair):
            prod = np.multiply(ga[a], gb[a], faces[a] if faces else None)
            pair = np.add(prod[lo], prod[hi], cell if a else res)
            res = np.add(res, pair, out=res) if a else pair
        res *= 0.5
        return res if self.dim == 1 else out if out is not None else res.reshape(
            res.shape[:-1] + self.shape)


def _power(u: np.ndarray, a: float, out: np.ndarray | None = None) -> np.ndarray:
    """u ** a, bit for bit, written into and returned as ``out`` if given and else a new
    array: never u itself, so a caller may write into it at every exponent."""
    return np.power(u, a, out=out, dtype=float)  # one pass, as u ** a on numpy 2.4


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
