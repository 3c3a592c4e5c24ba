"""Uniform cell-centered grids and the flux-form spatial operators.

All operators enforce zero flux through every boundary face (mirror ghost
cells), work in flux form so that the discrete integral of their output
telescopes to zero, and vanish identically on constant fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GridShapeError(ValueError):
    """A field does not live on the domain it was combined with."""


class _Axis(NamedTuple):
    """Index tuples for one axis k of the stacked face layout, where entry
    ``[k][c]`` of a face array sits on the face between cell c and its upper
    neighbour c + e_k. The ``f_`` tuples index a stacked face array, the
    others a cell array."""

    hi: tuple        # cells 1 .. n-1 along k
    last: tuple      # the last cell layer along k
    f_lo: tuple      # faces [k][0 .. n-2]: the interior faces
    f_hi: tuple      # faces [k][1 .. n-1]
    f_last: tuple    # faces [k][n-1]: the upper wall
    f_first: tuple   # faces [k][0]


def _axis(dim: int, k: int) -> _Axis:
    def along(sl):
        return tuple(sl if j == k else slice(None) for j in range(dim))
    lo, hi, last, first = (along(sl) for sl in (slice(None, -1), slice(1, None),
                                                slice(-1, None), slice(None, 1)))
    return _Axis(hi, last, (k,) + lo, (k,) + hi, (k,) + last, (k,) + first)


def _upper_slices(vals: np.ndarray, axes: tuple[_Axis, ...]) -> np.ndarray:
    """Upper neighbour of every cell along each axis, stacked on a leading
    axis; on the upper wall the cell itself."""
    out = np.empty((len(axes),) + vals.shape, dtype=vals.dtype)
    for hi, last, f_lo, _, f_last, _ in axes:
        out[f_lo] = vals[hi]
        out[f_last] = vals[last]
    return out


# Up to this many cells the face stencil runs as fancy-index gathers from
# precomputed index tables: one numpy call per gather instead of a few slice
# copies per axis, which is what a step on a tiny grid pays for. Above it,
# the per-element cost of fancy indexing outweighs the calls it saves.
_GATHER_MAX_CELLS = 1024


class _Gather(NamedTuple):
    upper: np.ndarray   # (dim, *cells): flat cell index of each upper neighbour
    lower: np.ndarray   # flat face index of each face's lower neighbour
    wall: np.ndarray    # flat face indices of the upper walls


def _gather(axes: tuple[_Axis, ...], shape: tuple[int, ...]) -> _Gather:
    cells = np.arange(math.prod(shape)).reshape(shape)
    faces = np.arange(len(axes) * cells.size).reshape((len(axes),) + shape)
    lower = np.empty_like(faces)
    for _, _, f_lo, f_hi, f_last, f_first in axes:
        lower[f_hi] = faces[f_lo]
        lower[f_first] = faces[f_last]  # a zeroed upper-wall face: no flux in
    return _Gather(_upper_slices(cells, axes), lower.ravel(),
                   np.concatenate([faces[ax.f_last].ravel() for ax in axes]))


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box partitioned into uniform cells.

    ``lengths`` and ``cells`` are per-axis; spatial dimension is their
    common length and must be 1 or 2. Spacing is ``length / cells`` per
    axis. At least 3 cells per axis so every interior stencil exists.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if len(self.lengths) != len(self.cells):
            raise ValueError("lengths and cells must have one entry per axis")
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if any(n < 3 for n in self.cells):
            raise ValueError(f"every axis needs at least 3 cells, got {self.cells}")
        if any(not (L > 0.0) or not math.isfinite(L) for L in self.lengths):
            raise ValueError(f"every length must be positive and finite, got {self.lengths}")
        object.__setattr__(self, "_spacing",
                           tuple(L / n for L, n in zip(self.lengths, self.cells)))
        # stencil shared by every operator (see _Axis), and the spacings
        # shaped to broadcast over stacked face arrays
        object.__setattr__(self, "_axes", tuple(_axis(self.dim, k)
                                                for k in range(self.dim)))
        object.__setattr__(self, "_h", np.reshape(self._spacing,
                                                  (self.dim,) + (1,) * self.dim))
        object.__setattr__(self, "_gather", _gather(self._axes, self.cells)
                           if self.n_cells <= _GATHER_MAX_CELLS else None)
        object.__setattr__(self, "_eigen", None)  # see _eigenbasis

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return self._spacing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def measure(self) -> float:
        """Total measure of the box."""
        return float(np.prod(self.lengths))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, one per axis, each of grid shape."""
        axes = [self.centers(k) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """One scalar value per cell of a :class:`Domain` (row-major layout)."""

    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.domain.shape:
            raise GridShapeError(
                f"field shape {vals.shape} does not match domain cells {self.domain.shape}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "Field":
        return cls(np.full(domain.shape, float(value)), domain)

    @classmethod
    def _wrap(cls, values: np.ndarray, domain: Domain) -> "Field":
        """Construct without re-validating; callers guarantee the shape."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", domain)
        return self

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.domain)


def _check_on(f: Field, d: Domain) -> None:
    if f.domain != d:
        raise GridShapeError("field does not live on the given domain")


def _upper(vals: np.ndarray, d: Domain) -> np.ndarray:
    """Upper neighbour of every cell along each axis, stacked on a leading
    axis: ``out[k][c] = vals[c + e_k]``, and ``vals[c]`` itself on the upper
    wall, so every face difference vanishes there."""
    if d._gather is not None:
        return vals.reshape(-1)[d._gather.upper]
    return _upper_slices(vals, d._axes)


def _grad(vals: np.ndarray, d: Domain) -> np.ndarray:
    """Face gradient, stacked per axis: entry ``[k][c]`` is
    ``(vals[c + e_k] - vals[c]) / h_k`` on the face between c and c + e_k,
    zero on the upper wall."""
    return (_upper(vals, d) - vals) / d._h


def _face_velocity(v: np.ndarray, chi: float, d: Domain) -> np.ndarray:
    """Chemotactic face velocity chi * grad(v) (see :func:`_grad`)."""
    return chi * _grad(v, d)


def _upwind_flux(u: np.ndarray, u_up: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Donor-cell flux w * u: the density comes from the cell the velocity
    points away from; exactly zero where w is zero."""
    return w * np.where(w > 0.0, u, u_up)


def _divergence(flux: np.ndarray, d: Domain) -> np.ndarray:
    """Cell divergence of stacked face fluxes, ``flux[k][c]`` on the face
    between c and c + e_k: sum over axes of (flux_k[c] - flux_k[c - e_k]) / h_k.

    Both walls carry zero flux; the upper-wall entries of ``flux`` are zeroed
    in place, so callers pass a temporary.
    """
    if d._gather is not None:
        flat = flux.reshape(-1)
        flat[d._gather.wall] = 0.0
        div = (flat - flat[d._gather.lower]).reshape(flux.shape)
    else:
        div = np.empty_like(flux)
        for _, _, f_lo, f_hi, f_last, f_first in d._axes:
            flux[f_last] = 0.0
            div[f_first] = flux[f_first]
            np.subtract(flux[f_hi], flux[f_lo], out=div[f_hi])
    div /= d._h
    return np.add.reduce(div, axis=0)


def _laplacian(vals: np.ndarray, d: Domain) -> np.ndarray:
    return _divergence(_grad(vals, d), d)


def _eigenbasis(d: Domain) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis, the orthonormal DCT-II matrix C and the eigenvalues lam of
    -lap along it, ``(4/h^2) sin^2(pi m / 2n)``: ``_laplacian`` applies
    -C.T diag(lam) C along each axis. Built on first use, then cached on
    the domain (n^2 doubles per axis)."""
    if d._eigen is None:
        basis = []
        for n, h in zip(d.cells, d.spacing):
            m = np.arange(n)
            c = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(m, m + 0.5))
            c[0] /= np.sqrt(2.0)
            basis.append((c, 4.0 / h**2 * np.sin(np.pi / (2 * n) * m) ** 2))
        object.__setattr__(d, "_eigen", tuple(basis))
    return d._eigen


def laplacian_neumann(f: Field, d: Domain) -> Field:
    """Second-difference Laplacian with mirror ghost cells (zero-flux walls).

    Computed in flux form: interior face gradients, zero at boundary faces,
    then the per-cell flux difference. Constants map to exactly zero and the
    discrete integral of the result telescopes to zero.
    """
    _check_on(f, d)
    return Field._wrap(_laplacian(f.values, d), d)


def diffusive_divergence(u: Field, params, d: Domain) -> Field:
    """Flux-form divergence of phi(u) * grad(u) with zero boundary flux.

    The face diffusivity is phi evaluated at the arithmetic mean of the two
    adjacent cell values. ``params`` supplies the diffusivity family (see
    :func:`kellerscope.model.phi`).
    """
    from .model import _diffusive_flux  # local import: model builds on grid

    _check_on(u, d)
    if np.min(u.values) < 0.0:
        raise ValueError("diffusive_divergence requires a nonnegative density")
    flux = _diffusive_flux(u.values, _upper(u.values, d), params, d)
    return Field._wrap(_divergence(flux, d), d)


def chemotactic_divergence(u: Field, v: Field, chi: float, d: Domain) -> Field:
    """Flux-form divergence of chi * u * grad(v), donor-cell upwinding.

    The face velocity is chi times the two-point gradient of v; the advected
    density is taken from the cell the velocity points away from. A face with
    exactly zero velocity carries zero flux. Boundary faces carry zero flux.

    Note the orientation: this returns the divergence itself, so with v
    increasing to the right the first cell's entry is positive. The evolution
    equation subtracts this term, which is what moves mass up the v-gradient.
    """
    _check_on(u, d)
    _check_on(v, d)
    if not chi > 0.0:
        raise ValueError(f"chi must be positive, got {chi}")
    w = _face_velocity(v.values, chi, d)
    flux = _upwind_flux(u.values, _upper(u.values, d), w)
    return Field._wrap(_divergence(flux, d), d)


def integrate(f: Field, d: Domain) -> float:
    """Midpoint-rule integral: sum of cell values times cell volume."""
    _check_on(f, d)
    return float(np.sum(f.values)) * d.cell_volume
