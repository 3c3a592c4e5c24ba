"""Uniform cell-centered grids, the flux-form spatial operators and their
face reductions, the signal's Helmholtz solve, and cell integrals and norms.

All operators enforce zero flux through every boundary face (mirror ghost
cells), work in flux form so that the discrete integral of their output
telescopes to zero, and vanish identically on constant fields. Every
Laplacian, the Helmholtz solve's included, is one :func:`_stencil` pass;
the solve inverts exactly in the Laplacian's DCT-II eigenbasis, in any
dimension, folding the basis by its symmetry on long even axes. Face
arrays are scaled by the reciprocal spacings, stored once at face shape
(``Domain._rh``), so that no operator divides by a broadcast operand. The
density's fluxes live in :mod:`kellerscope.model`.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GridShapeError(ValueError):
    """A field does not live on the domain it was combined with."""


class HelmholtzError(RuntimeError):
    """Helmholtz solve failed to meet its residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


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


def _upper_slices(vals: np.ndarray, axes: tuple[_Axis, ...],
                  out: np.ndarray | None = None) -> np.ndarray:
    """Upper neighbour of every cell along each axis, stacked on a leading
    axis; on the upper wall the cell itself. Written into ``out`` when
    given."""
    if out is None:
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

    ``_rh`` holds 1/h_k at every face of axis k, in the stacked face shape
    ``(dim, *cells)``: the operators scale a face array by it in place,
    where a ``(dim, 1, ...)`` operand (``_h``) would send numpy's iterator
    through short inner loops, about four times the cost at 64^2. 1/h is
    exact for a power-of-two spacing, where the product has the quotient's
    bits; any other spacing may move a product by one rounding.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        # each message starts with the config key at fault (see config.build)
        if len(self.lengths) != len(self.cells):
            raise ValueError(f"lengths must have one entry per axis of cells, "
                             f"got {len(self.lengths)} for {len(self.cells)}")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not all(isinstance(n, numbers.Integral) and n >= 3 for n in self.cells):
            raise ValueError(f"cells must be integers >= 3, got {self.cells}")
        object.__setattr__(self, "cells", tuple(map(int, self.cells)))
        if any(not (L > 0.0) or not math.isfinite(L) for L in self.lengths):
            raise ValueError(f"lengths must be positive and finite, got {self.lengths}")
        object.__setattr__(self, "_spacing",
                           tuple(L / n for L, n in zip(self.lengths, self.cells)))
        # stencil shared by every operator (see _Axis), and the spacings
        # shaped to broadcast over stacked face arrays
        object.__setattr__(self, "_axes", tuple(_axis(self.dim, k)
                                                for k in range(self.dim)))
        object.__setattr__(self, "_h", np.reshape(self._spacing,
                                                  (self.dim,) + (1,) * self.dim))
        object.__setattr__(self, "_rh", np.broadcast_to(
            1.0 / self._h, (self.dim,) + self.cells).copy())
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
        return math.prod(self.cells)

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


# Each array helper below takes an ``out`` array (a stacked face array,
# see _Axis) and hands it to numpy, so a run's steps write into arrays they
# own (see stepper._Work); with ``out=None`` numpy allocates, which is what
# the public operators get. The gather path's fancy-index reads allocate
# either way: ``np.take(..., out=)`` is slower than them on grids that small.

def _upper(vals: np.ndarray, d: Domain, out: np.ndarray | None = None) -> np.ndarray:
    """Upper neighbour of every cell along each axis, stacked on a leading
    axis: ``out[k][c] = vals[c + e_k]``, and ``vals[c]`` itself on the upper
    wall, so every face difference vanishes there."""
    if d._gather is not None:
        return vals.reshape(-1)[d._gather.upper]
    return _upper_slices(vals, d._axes, out)


def _grad(vals: np.ndarray, d: Domain, out: np.ndarray | None = None) -> np.ndarray:
    """Face gradient, stacked per axis: entry ``[k][c]`` is
    ``(vals[c + e_k] - vals[c]) / h_k`` on the face between c and c + e_k,
    zero on the upper wall."""
    g = np.subtract(_upper(vals, d, out), vals, out)
    return np.multiply(g, d._rh, g)


def _upwind_flux(u: np.ndarray, u_up: np.ndarray, w: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Donor-cell flux w * u: the density comes from the cell the velocity
    points away from; exactly zero where w is zero. Computed as
    ``min(w, 0) * u_up + max(w, 0) * u``, with ``u`` repeated across the
    stacked faces, into ``out`` and over ``u_up``, which callers pass as a
    temporary."""
    flux = np.minimum(w, 0.0, out=out)
    flux *= u_up
    down = np.maximum(w, 0.0, out=u_up)
    down *= u
    flux += down
    return flux


def _divergence(flux: np.ndarray, d: Domain, out: np.ndarray | None = None) -> np.ndarray:
    """Cell divergence of stacked face fluxes, ``flux[k][c]`` on the face
    between c and c + e_k: sum over axes of (flux_k[c] - flux_k[c - e_k]) / h_k.

    Both walls carry zero flux; the upper-wall entries of ``flux`` are zeroed
    in place, so callers pass a temporary. The per-axis terms go into the
    face array ``out`` and are summed into ``out[0]``, which is returned.
    """
    if d._gather is not None:
        flat = flux.reshape(-1)
        flat[d._gather.wall] = 0.0
        div = np.subtract(flux, flat[d._gather.lower].reshape(flux.shape), out)
    else:
        div = np.empty_like(flux) if out is None else out
        for _, _, f_lo, f_hi, f_last, f_first in d._axes:
            flux[f_last] = 0.0
            div[f_first] = flux[f_first]
            np.subtract(flux[f_hi], flux[f_lo], out=div[f_hi])
    div *= d._rh
    total = div[0]
    for k in range(1, d.dim):   # the axes in order, as add.reduce sums them
        total += div[k]
    return total


def _stencil(v: np.ndarray, d: Domain, grad: np.ndarray | None = None,
             lap: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Face gradient and Laplacian of a field, the one pass every Laplacian
    takes, written into the face arrays ``grad`` and ``lap`` (the Laplacian
    is ``lap[0]``, see :func:`_divergence`). The gradient is already zero on
    the upper walls, so the divergence leaves it as it is (for finite
    ``v``)."""
    g = _grad(v, d, grad)
    return g, _divergence(g, d, lap)


def _face_max(g: np.ndarray, out: np.ndarray | None = None) -> list[float]:
    """Per-axis maxima of |g| for a stacked face array; |g| goes into
    ``out``."""
    return [_amax(a) for a in np.abs(g, out)]


def _amax(x: np.ndarray) -> float:
    """``x.max()`` as a float, found by index, which costs fewer numpy
    calls on small arrays. A NaN entry comes back as NaN, as from ``max``:
    ``argmax`` stops at the first NaN."""
    return x.item(x.argmax())


def _amin(x: np.ndarray) -> float:
    """``x.min()`` as a float, NaN for any NaN entry; see :func:`_amax`."""
    return x.item(x.argmin())


def _max_outflow(w: np.ndarray, d: Domain, out: np.ndarray) -> float:
    """Fastest rate at which the donor-cell flux drains a cell: the speeds
    out of each of its faces over h, summed, at the worst cell. Writes into
    the face array ``out`` and over the face velocities ``w``."""
    out = np.maximum(w, 0.0, out=out)
    w = np.minimum(w, 0.0, out=w)
    for _, _, f_lo, f_hi, _, _ in d._axes:
        # a negative speed on a cell's lower face drains the cell too
        out[f_hi] -= w[f_lo]
    out /= d._h
    total = out[0]
    for k in range(1, d.dim):   # the axes in order, as add.reduce sums them
        total += out[k]
    return _amax(total)


# In a box of dimension dim, an even axis of at least _FOLD_MIN_CELLS[dim]
# cells takes its DCT-II basis folded (see _Fold): half the flops of the
# dense product, for six more numpy calls per axis and direction. Timed
# with one OpenBLAS thread (best of 7, 2-core x86-64, numpy 2.4), the 2D
# inverse took longer folded at 64^2 (41 -> 65 us) and 96^2 (108 -> 137 us)
# and less from 104^2 on (184 -> 129 us; 322 -> 203 us at 128^2). In 1D,
# one matrix-vector product per transform, the crossover lay between 256
# cells (20 -> 22 us) and 320 (28 -> 26 us; 108 -> 47 us at 512).
_FOLD_MIN_CELLS = {1: 320, 2: 104}


class _Fold(NamedTuple):
    """The DCT-II basis C of an even axis of n cells, folded by the
    symmetry ``C[m, n-1-j] = (-1)^m C[m, j]``: the even and the odd rows of
    C over its first n/2 columns. A transform by it folds the axis into the
    sums and the differences of mirrored cells and multiplies each half by
    its block; its modes come out in [even | odd] order."""

    even: np.ndarray
    odd: np.ndarray


def _eigenbasis(d: Domain) -> tuple[tuple[np.ndarray | _Fold, ...], np.ndarray]:
    """The zero-flux Laplacian's eigenbasis, in any dimension.

    Returns, per axis k, the orthonormal DCT-II matrix C_k, whose row m is
    the mode of -lap along k with eigenvalue ``(4/h_k^2) sin^2(pi m / 2n_k)``
    (``_stencil``'s Laplacian is -C_k.T diag(those) C_k along each axis),
    as a :class:`_Fold` on an even axis of at least ``_FOLD_MIN_CELLS``
    cells for the box's dimension; and ``lam``, the eigenvalues of -lap on
    the whole grid, in the grid's shape: the sums of one per-axis
    eigenvalue per axis, with the modes of a folded axis in [even | odd]
    order. Built on first use, then cached on the domain: n^2 doubles per
    dense axis of n cells, half that per folded one, plus one per cell.
    """
    if d._eigen is None:
        bases, lam = [], 0.0
        for n, h in zip(d.cells, d.spacing):
            m = np.arange(n)
            c = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(m, m + 0.5))
            c[0] /= np.sqrt(2.0)
            ev = 4.0 / h**2 * np.sin(np.pi / (2 * n) * m) ** 2
            if n % 2 == 0 and n >= _FOLD_MIN_CELLS[d.dim]:
                c = _Fold(c[0::2, :n // 2].copy(), c[1::2, :n // 2].copy())
                ev = np.concatenate([ev[0::2], ev[1::2]])
            bases.append(c)
            lam = np.add.outer(lam, ev)
        object.__setattr__(d, "_eigen", (tuple(bases), lam))
    return d._eigen


class _SolveArrays(NamedTuple):
    """The arrays a Helmholtz solve writes into: the solution past its warm
    start with that solution's face gradient and face-shaped Laplacian (see
    :func:`_stencil`), the residual, ``s`` for |residual|, the inverse's
    eigenvalues and a folded axis's halves, and the inverse's ``2 * dim``
    products, each in its own shape, which alternate between a spare cell
    array and the residual's."""

    x: np.ndarray
    grad: np.ndarray
    lap: np.ndarray
    r: np.ndarray
    s: np.ndarray
    turns: tuple[np.ndarray, ...]


def _solve_arrays(d: Domain, pool: np.ndarray) -> _SolveArrays:
    """Fresh solution arrays whose scratch (residual, ``s`` and the spare)
    is the first three cells' worth of the flat array ``pool``, which a run
    shares with other scratch."""
    face, n = (d.dim,) + d.shape, d.n_cells
    r, s, spare = (pool[i * n:(i + 1) * n] for i in range(3))
    # each product's axes are rotated once more than its input's
    shapes = [d.shape[k + 1:] + d.shape[:k + 1] for k in range(d.dim)] * 2
    return _SolveArrays(np.empty(d.shape), np.empty(face), np.empty(face),
                        r.reshape(d.shape), s.reshape(d.shape),
                        tuple((r if j % 2 else spare).reshape(shape)
                              for j, shape in enumerate(shapes)))


def solve_helmholtz(rhs: Field, alpha: float, d: Domain,
                    tol: float = 1.0e-10, maxiter: int = 20_000,
                    x0: Field | None = None) -> Field:
    """Solve (alpha*I - lap) w = rhs with the zero-flux Laplacian.

    Residual-checked passes of the exact inverse (in the Laplacian's DCT-II
    eigenbasis, by one code path for every dimension), warm-started from
    ``x0`` when given (time steppers pass the previous signal), for at most
    ``maxiter`` passes. The result satisfies
    ||(alpha*I - lap) w - rhs||_inf <= tol * ||rhs||_inf. It is a fresh
    array; the inputs are left as they are.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_on(rhs, d)
    # near-overflow fields pass through here on the way to blow-up
    # detection; let the non-finite values propagate silently
    with np.errstate(over="ignore", invalid="ignore"):
        w, _, _ = _solve_helmholtz(rhs.values, _amax(np.abs(rhs.values)), alpha, d,
                                   tol, maxiter, None if x0 is None else x0.values.copy(),
                                   None, _solve_arrays(d, np.empty(3 * d.n_cells)))
    return Field(w, d)


def _solve_helmholtz(rhs: np.ndarray, scale: float, alpha: float, d: Domain,
                     tol: float, maxiter: int, x0: np.ndarray | None,
                     ops0: tuple[np.ndarray, np.ndarray] | None,
                     out: _SolveArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unvalidated core of :func:`solve_helmholtz`, which writes into
    ``out`` and nowhere else.

    ``scale`` is ``max|rhs|``, which a caller that knows ``rhs >= 0`` finds
    without the ``abs`` pass. Starts from ``x0`` (or ``rhs/alpha``, exact for
    constants) and checks the true residual against ``tol * scale``; until
    it is met, each pass adds the exact inverse applied to the residual,
    which removes all but the rounding. A warm start that already meets
    the target comes back as the same array. Raises :class:`HelmholtzError`
    when ``scale`` or the residual is non-finite, stops shrinking (the target
    lies below rounding level), or still misses the target after ``maxiter``
    passes.

    ``ops0`` is the known ``_stencil`` of ``x0``, which spares the warm
    start's residual its stencil pass. Returns the solution with its own
    ``_stencil``, the one the last residual check used.
    """
    if not math.isfinite(scale):
        # an infinite target would accept any start
        raise HelmholtzError("Helmholtz right-hand side is not finite", scale)
    if scale == 0.0:
        out.x.fill(0.0)
        return (out.x, *_stencil(out.x, d, out.grad, out.lap))
    x, ops = (np.divide(rhs, alpha, out.x), None) if x0 is None else (x0, ops0)
    last = math.inf
    for passes in itertools.count():
        g, lap = _stencil(x, d, out.grad, out.lap) if ops is None else ops
        r = np.multiply(x, alpha, out.r)
        r -= lap
        r = np.subtract(rhs, r, r)
        res = _amax(np.abs(r, out.s))
        if res <= tol * scale:
            return x, g, lap
        if not res < last or passes >= maxiter:  # also trips on a non-finite residual
            raise HelmholtzError(f"Helmholtz solve missed its residual target "
                                 f"after {passes} passes", res / scale)
        last = res
        x = np.add(x, _helmholtz_inverse(r, alpha, d, out.s, out.turns), out.x)
        ops = None


def _helmholtz_inverse(r: np.ndarray, alpha: float, d: Domain, s: np.ndarray,
                       turns: tuple[np.ndarray, ...]) -> np.ndarray:
    """(alpha*I - lap)^-1 r, exact up to rounding, in any dimension.

    Transforms into the Laplacian's eigenbasis (see :func:`_eigenbasis`),
    divides by the eigenvalues of alpha*I - lap and transforms back. Each
    transform multiplies by one basis per axis: rotating the axes
    cyclically brings each axis last in turn, and after ``dim`` rotations
    they are back in their own order. The products go into ``turns`` (see
    :class:`_SolveArrays`), the eigenvalues of alpha*I - lap into ``s``,
    which a folded axis also takes as the scratch of its halves. A folded
    axis (see :class:`_Fold`) carries its modes in [even | odd] order, as
    ``lam`` does, and the transform back mirrors them onto the cells.
    """
    bases, lam = _eigenbasis(d)
    cyc = (*range(1, d.dim), 0)
    for c, out in zip(bases, turns):
        if isinstance(c, _Fold):
            # the axis to transform is r's first; the halves go into s
            h = len(c.even)
            sums, diffs = s.reshape((2, h) + r.shape[1:])
            np.add(r[:h], r[:h - 1:-1], sums)
            np.subtract(r[:h], r[:h - 1:-1], diffs)
            np.matmul(sums.transpose(cyc), c.even.T, out[..., :h])
            np.matmul(diffs.transpose(cyc), c.odd.T, out[..., h:])
            r = out
        else:
            r = np.matmul(r.transpose(cyc), c.T, out)
    r = np.divide(r, np.add(lam, alpha, s), r)
    for c, out in zip(bases, turns[d.dim:]):
        if isinstance(c, _Fold):
            h = len(c.even)
            lo, hi = s.reshape((2,) + r.shape[1:] + (h,))
            np.matmul(r[:h].transpose(cyc), c.even, lo)
            np.matmul(r[h:].transpose(cyc), c.odd, hi)
            np.add(lo, hi, out[..., :h])
            np.subtract(lo, hi, out[..., :h - 1:-1])
            r = out
        else:
            r = np.matmul(r.transpose(cyc), c, out)
    return r


def laplacian_neumann(f: Field, d: Domain) -> Field:
    """Second-difference Laplacian with mirror ghost cells (zero-flux walls).

    Computed in flux form: interior face gradients, zero at boundary faces,
    then the per-cell flux difference. Constants map to exactly zero and the
    discrete integral of the result telescopes to zero.
    """
    _check_on(f, d)
    return Field._wrap(_stencil(f.values, d)[1], d)


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
    flux = _upwind_flux(u.values, _upper(u.values, d), chi * _grad(v.values, d))
    return Field._wrap(_divergence(flux, d), d)


def integrate(f: Field, d: Domain) -> float:
    """Midpoint-rule integral: sum of cell values times cell volume."""
    _check_on(f, d)
    return float(np.sum(f.values)) * d.cell_volume


def lgamma_norm(u: Field, gamma: float, d: Domain) -> float:
    """L^gamma norm, (integral of u**gamma) ** (1/gamma), for gamma >= 1.

    Entries within round-off of zero are clipped; genuinely negative data is
    rejected.
    """
    if not gamma >= 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    vals = u.values
    lo = float(np.min(vals))
    if lo < 0.0:
        scale = max(1.0, float(np.max(np.abs(vals))))
        if lo < -1.0e-12 * scale:
            raise ValueError("lgamma_norm requires a nonnegative field")
        vals = np.maximum(vals, 0.0)
    return float(integrate(Field(vals**gamma, d), d) ** (1.0 / gamma))
