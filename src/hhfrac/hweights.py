"""Weight functions h on (0, 1) and the sampled coordinate-convexity check.

A function f is h-convex on the coordinates of a rectangle when

    f(t*x + (1-t)*y, k*u + (1-k)*w)
        <= h(t)h(k) f(x, u) + h(k)h(1-t) f(y, u)
         + h(t)h(1-k) f(x, w) + h(1-t)h(1-k) f(y, w)

for all t, k in the unit interval and abscissas x, y / ordinates u, w in the
rectangle.  h(t) = t recovers plain coordinate convexity, h(t) = t^s the
s-convex case, h == 1 the P-functions, and h(t) = 1/t the Godunova-Levin
class.  The certifier samples the inequality on a product grid and reports a
pass as "no violation found", never as a proof.

The inequality is unchanged under (t, x, y) -> (1-t, y, x) and under
(k, u, w) -> (1-k, w, u), and the t grid is symmetric, so the certifier
evaluates only the pairs x <= y and u <= w and still covers every sampled
configuration; ``samples_checked`` counts the configurations covered.  On a
uniform grid t_j*x_i1 + (1-t_j)*x_i2 = a + (b-a)*m/(g-1)^2 at the integer
lattice coordinate m = j*i1 + (g-1-j)*i2, and few m are distinct, so f is
evaluated once per distinct m, at that lattice value, and the left sides are
gathered from that table; the ordinates k*u + (1-k)*w likewise.  So points
equal in exact arithmetic are one float, every sample lies in the rectangle,
and every grid abscissa is a combination abscissa (of the pair x = y).

Few configurations need comparing.  With v = k*u + (1-k)*w each deficit
splits exactly into the deficit in x of the section f(., v) plus h(t) and
h(1-t) times deficits in y of the sections f(x, .) at grid abscissas (the
partial-mapping form of coordinate convexity), so the sections bound each
row (t, abscissa pair) of deficits.  No bound above the tolerance is a pass;
otherwise only the rows whose bounds reach the worst deficit found are swept,
and the witness is the full sweep's.  One kernel forms every deficit, in
blocks of a fixed byte size, and the grid is at most :data:`MAX_GRID`, so
memory stays bounded.  The concave check is the convex check of -f.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, HHFracError
from .fracquad import Rectangle, _sample_2d
from .quadrature import _EPS

__all__ = [
    "HFamily",
    "HWeight",
    "h_eval",
    "table_pieces",
    "ConvexityCertificate",
    "check_coordinate_h_convex",
    "MAX_GRID",
    "inequality_deficit",
    "parse_hweight",
    "load_table",
]


class HFamily(enum.Enum):
    IDENTITY = "identity"
    POWER = "power"
    CONSTANT_ONE = "one"
    GODUNOVA_LEVIN = "gl"
    TABLE = "table"


@dataclass(frozen=True)
class HWeight:
    """A positive weight function on (0, 1).

    ``s`` is the exponent of the power family (0 < s <= 1); ``table`` holds
    (t, h) knots for piecewise-linear weights.
    """

    family: HFamily
    s: Optional[float] = None
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.family is HFamily.POWER:
            if self.s is None or not (0.0 < self.s <= 1.0):
                raise DomainError(f"power family needs s in (0, 1], got {self.s}")
        elif self.s is not None:
            raise DomainError(f"{self.family.value} family takes no exponent")
        if self.family is HFamily.TABLE:
            if not self.table or len(self.table) < 2:
                raise DomainError("table family needs at least two (t, h) points")
            ts = [p[0] for p in self.table]
            hs = [p[1] for p in self.table]
            if any(not (0.0 <= t <= 1.0) for t in ts) or ts != sorted(set(ts)):
                raise DomainError("table abscissas must be strictly increasing in [0, 1]")
            if any(not (math.isfinite(h) and h > 0.0) for h in hs):
                raise DomainError("table values must be finite and positive")
        elif self.table is not None:
            raise DomainError(f"{self.family.value} family takes no table")

    @classmethod
    def identity(cls) -> "HWeight":
        return cls(HFamily.IDENTITY)

    @classmethod
    def power(cls, s: float) -> "HWeight":
        return cls(HFamily.POWER, s=float(s))

    @classmethod
    def one(cls) -> "HWeight":
        return cls(HFamily.CONSTANT_ONE)

    @classmethod
    def godunova_levin(cls) -> "HWeight":
        return cls(HFamily.GODUNOVA_LEVIN)

    @classmethod
    def from_table(cls, points) -> "HWeight":
        return cls(HFamily.TABLE, table=tuple((float(t), float(h)) for t, h in points))

    @property
    def finite_at_endpoints(self) -> bool:
        """Whether h extends finitely to t in {0, 1}."""
        return self.family is not HFamily.GODUNOVA_LEVIN

    @property
    def moments_diverge(self) -> bool:
        """The Godunova-Levin weight makes every moment integral used by the
        inequality evaluators divergent (1/t is not integrable at 0)."""
        return self.family is HFamily.GODUNOVA_LEVIN

    @property
    def label(self) -> str:
        if self.family is HFamily.POWER:
            return f"power:{self.s!r}"
        if self.family is HFamily.TABLE:
            return f"table[{len(self.table)} points]"
        return self.family.value


def h_eval(h: HWeight, t):
    """Evaluate h(t) for t in (0, 1); scalars or numpy arrays.

    Endpoint arguments are accepted for families that are finite there
    (everything except Godunova-Levin); anything outside [0, 1] raises.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"h is only defined on (0, 1), got t={t!r}")
    at_end = (arr == 0.0) | (arr == 1.0)
    if np.any(at_end) and not h.finite_at_endpoints:
        raise DomainError(f"{h.label} is unbounded at t in {{0, 1}}")
    if h.family is HFamily.IDENTITY:
        out = arr
    elif h.family is HFamily.POWER:
        out = np.power(arr, h.s)
    elif h.family is HFamily.CONSTANT_ONE:
        out = np.ones_like(arr)
    elif h.family is HFamily.GODUNOVA_LEVIN:
        out = 1.0 / arr
    else:
        ts = np.array([p[0] for p in h.table])
        hs = np.array([p[1] for p in h.table])
        out = np.interp(arr, ts, hs)
    return float(out) if np.isscalar(t) else out


def table_pieces(h: HWeight) -> tuple[tuple[float, float, float, float], ...]:
    """Pieces (t0, t1, p, q) with h(t) = p + q t on [t0, t1], covering [0, 1].

    They extend the table exactly as :func:`h_eval` does: constant before the
    first knot and after the last, as ``np.interp`` holds its end values.
    """
    if h.family is not HFamily.TABLE:
        raise DomainError(f"{h.label} is not a table weight")
    (first_t, first_h), (last_t, last_h) = h.table[0], h.table[-1]
    pieces = []
    if first_t > 0.0:
        pieces.append((0.0, first_t, first_h, 0.0))
    for (t0, h0), (t1, h1) in zip(h.table, h.table[1:]):
        q = (h1 - h0) / (t1 - t0)
        pieces.append((t0, t1, h0 - q * t0, q))
    if last_t < 1.0:
        pieces.append((last_t, 1.0, last_h, 0.0))
    return tuple(pieces)


def load_table(path: str) -> HWeight:
    """Read a table weight from a text file of ``t h`` lines ('#' comments).

    Every failure, from an unreadable file to knots that are out of order,
    raises :class:`DomainError` naming the path (and the line, where there
    is one)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read h table {path}: {exc}") from exc
    points = []
    for number, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            t, h = map(float, line.replace(",", " ").split())
        except ValueError:
            raise DomainError(f"bad table line {number} in {path}: {line!r}") from None
        points.append((t, h))
    try:
        return HWeight.from_table(points)
    except DomainError as exc:
        raise DomainError(f"h table {path}: {exc}") from exc


def parse_hweight(text: str) -> HWeight:
    """Parse the CLI syntax: identity | power:<s> | one | gl | table:<path>."""
    if text == "identity":
        return HWeight.identity()
    if text == "one":
        return HWeight.one()
    if text == "gl":
        return HWeight.godunova_levin()
    if text.startswith("power:"):
        try:
            return HWeight.power(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise DomainError(f"bad power exponent in {text!r}") from exc
    if text.startswith("table:"):
        return load_table(text.split(":", 1)[1])
    raise DomainError(
        f"unknown h-weight {text!r}; expected identity, power:<s>, one, gl, table:<path>"
    )


# ---------------------------------------------------------------------------
# sampled certifier
# ---------------------------------------------------------------------------

#: Size bound of one float64 block of the certifier's sweep.  A few blocks
#: are alive at once (the table of left sides, the two block buffers, the two
#: gathered halves of the right side and the evaluator's temporaries), so
#: peak memory is a small multiple of it at any grid.  A chunk of the
#: sections' table holds 52 ordinates at grid 17 and 4 at grid 64.
_BLOCK_BYTES = 1 << 18

#: Largest ``grid`` the certifier accepts.  A few of its arrays hold
#: O(grid^3) values, 1-2 MB each at 64.  On 2 vCPUs a pass takes about 1.0 s
#: at 64; a bump fails in 0.2 s at 33 and 3.7 s at 64, where sweeping every
#: (t, pair) row took 0.8 s and 47 s.
MAX_GRID = 64


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of the sampled coordinate h-convexity check.

    ``witness`` is ``(t, k, (x, u), (y, w))`` at the worst violation, with
    x <= y and u <= w; the deficit there, re-evaluated independently of the
    vectorized sweep, is stored in ``witness_deficit``.  The sweep samples f
    at the lattice value of t*x + (1-t)*y (see the module docstring), which a
    recomputed t*x + (1-t)*y may miss by an ulp, so the two deficits may
    differ by the rounding of f there.  A pass only means no violation was
    found among the sampled configurations.
    """

    verdict: str  # "pass" | "fail"
    samples_checked: int
    worst_violation: float
    tol: float
    grid: int
    message: str
    witness: Optional[tuple[float, float, tuple[float, float], tuple[float, float]]] = None
    witness_deficit: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _check_direction(direction: str) -> None:
    if direction not in ("convex", "concave"):
        raise DomainError(f"direction must be 'convex' or 'concave', got {direction!r}")


def _check_tol(tol: float, name: str) -> None:
    """Finite and >= 0: a NaN or infinite tolerance would pass any violation."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {tol!r}")


def inequality_deficit(f, h: HWeight, t: float, k: float,
                       p1: tuple[float, float], p2: tuple[float, float],
                       direction: str = "convex") -> float:
    """Left side minus right side of the coordinate inequality at one sample.

    Positive values violate h-convexity (for ``direction="concave"`` the sign
    is flipped).  Scalar arithmetic throughout, independent of the sweep.
    """
    _check_direction(direction)
    x, u = p1
    y, w = p2
    lhs = float(f(t * x + (1.0 - t) * y, k * u + (1.0 - k) * w))
    ht, hk = h_eval(h, t), h_eval(h, k)
    hmt, hmk = h_eval(h, 1.0 - t), h_eval(h, 1.0 - k)
    rhs = (ht * hk * float(f(x, u)) + hk * hmt * float(f(y, u))
           + ht * hmk * float(f(x, w)) + hmt * hmk * float(f(y, w)))
    deficit = lhs - rhs
    return -deficit if direction == "concave" else deficit


def _tolerance(tol: Optional[float], max_abs_f: float) -> float:
    return 1e-10 * (1.0 + max_abs_f) if tol is None else tol


def _lattice(lo: float, hi: float, grid_pts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The combination points lo + (hi-lo)*m/(g-1)^2 at lattice coordinates
    ``m``; at a multiple of g-1 the grid point itself, bit for bit."""
    g1 = grid_pts.size - 1
    return np.where(m % g1 == 0, grid_pts[m // g1], lo + (hi - lo) * (m / g1**2))


def _deficits(table, rows, ht, hmt, P1, P2, work):
    """Blocks ``(j0, D)`` of D[j, p, c] = table[rows[j, p], c] - (ht[j] P1[p, c]
    + hmt[j] P2[p, c]), j from j0, in the two rows of ``work``.  Every deficit
    of the certifier is formed here, so the sections' d2 and the sweep agree
    element by element.  ``P1.size`` must fit a row of ``work``.
    """
    jc = min(ht.size, max(1, work.shape[1] // P1.size))
    for j0 in range(0, ht.size, jc):
        js = slice(j0, j0 + jc)
        shape = (len(ht[js]),) + P1.shape
        n = math.prod(shape)
        D = np.multiply(ht[js, None, None], P1, out=work[0, :n].reshape(shape))
        L = np.multiply(hmt[js, None, None], P2, out=work[1, :n].reshape(shape))
        D += L
        # L now takes the left sides; every index is in range, and mode
        # "raise" would buffer ``out`` on every call.
        table.take(rows[js], axis=0, out=L, mode="clip")
        yield j0, np.subtract(L, D, out=D)


def _row_bounds(f, F, gx, i1, i2, ux, uy, IX, ht, hmt, tol, work):
    """Upper bounds U[t, p] on the sweep's deficits of each row (t, abscissa
    pair p), over every k and ordinate pair, and the largest |f| sampled;
    None where f fails here or a bound is not finite, so the sweep decides.

    Write v = k*u + (1-k)*w.  For any h every sampled deficit splits exactly
    into d1(t, x, y; v) + h(t) d2(x; k, u, w) + h(1-t) d2(y; k, u, w), where
    d1 = f(t*x + (1-t)*y, v) - h(t) f(x, v) - h(1-t) f(y, v) is the deficit
    in x of the section f(., v), and d2 = f(x_i, v) - G the deficit in y of
    f(x_i, .) against the sweep's ordinate half G of the right side
    (Dragomir, Taiwanese J. Math. 5 (2001) 775-788).  As h >= 0, a row's
    deficits are at most U = max_v d1 + h(t) max d2(x) + h(1-t) max d2(y)
    plus a margin, with d1 and d2 from :func:`_deficits`.

    The margin covers rounding, with u = eps/2, S the largest |f| that
    enters, H = h(t) + h(1-t) and K = max_k h(k) + h(1-k) >= H (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Sec. 3.1).  The sweep
    and d2 share G bit for bit.  The first-order terms, in units of u*S, are:
    the sweep's h(t)G1 + h(1-t)G2 and its subtraction from the left side,
    1 + 3HK; the computed d1, 1 + 3H; the two d2 weighted, H(1 + K); the four
    operations of U, 4(1 + 2H + HK).  In all at most 8(1 + K)^2 u S; a factor
    8 on eps leaves room for second-order terms and for one rounding unit
    between two evaluations of f at the same point.

    A first walk takes the largest d1 of each t, which settles most passes,
    from T = f(ux, v) at the sweep's lattice abscissas and ordinates in
    chunks of ordinates within ``_BLOCK_BYTES``: T holds the sweep's left
    sides, so max |f| over F and T is the sweep's, and its rows ``gx`` give
    f(x_i, v).  A second takes each row's own, for the t whose bounds exceed
    the tolerance only, with f at their abscissas only.
    """
    g, npair, size = gx.size, i1.size, work.shape[1]
    Fx = np.empty((g, uy.size))  # Fx[i, v] = f(x_i, v)
    max_abs_f = float(np.abs(F).max())
    U, ts, cols, rows = np.empty(IX.shape), slice(None), slice(None), IX  # every t and abscissa
    for second in (False, True):
        # Equal chunks of ordinates; a chunk of T takes half the budget, as f's
        # evaluation holds a few temporaries of its size.
        nv = -(-uy.size // max(1, size // (2 * max(ux[cols].size, npair))))
        vc = -(-uy.size // nv)
        d1 = np.full((len(ht[ts]), npair if second else 1), -math.inf)  # the largest over v
        for v0 in range(0, uy.size, vc):
            vs = slice(v0, v0 + vc)
            try:
                T = _sample_2d(f, ux[cols], uy[vs])
            except HHFracError:  # the sweep evaluates f again and raises there
                return None
            if not second:
                max_abs_f = max(max_abs_f, -float(T.min()), float(T.max()))
                Fx[:, vs] = T[gx]
            for j0, D in _deficits(T, rows, ht[ts], hmt[ts], Fx[i1, vs], Fx[i2, vs], work):
                # v first, the max over v is elementwise: 1.7x-17x max(axis=-1)'s speed
                top = (np.moveaxis(D, -1, 0).copy().max(axis=0) if second
                       else D.max(axis=(1, 2))[:, None])
                np.maximum(d1[j0:j0 + len(D)], top, out=d1[j0:j0 + len(D)])
        if not second:
            # d2[k, q, i] = f(x_i, v_kq) - (h(k) F[i, u_q] + h(1-k) F[i, w_q])
            d2, Fv = np.full(g, -math.inf), Fx.T.copy()  # the largest over (k, q); Fv[v, i]
            qc = max(1, size // g)  # ordinate pairs per block
            for q0 in range(0, npair, qc):
                qs = slice(q0, q0 + qc)
                for _, D in _deficits(Fv, IX[:, qs], ht, hmt, F.T[i1[qs]], F.T[i2[qs]], work):
                    # one axis at a time is several times faster than (0, 1)
                    np.maximum(d2, D.max(axis=0).max(axis=0), out=d2)
            margin = 8.0 * _EPS * (1.0 + max_abs_f) * (1.0 + float((ht + hmt).max())) ** 2
        U[ts] = d1 + ht[ts, None] * d2[i1] + hmt[ts, None] * d2[i2] + margin
        ts = np.flatnonzero(U.max(axis=1) > _tolerance(tol, max_abs_f))
        if second or not ts.size:
            break
        cols = np.flatnonzero(np.bincount(IX[ts].ravel()))  # the distinct abscissas
        rows = np.searchsorted(cols, IX[ts])
    return (U, max_abs_f) if np.isfinite(U).all() else None


def check_coordinate_h_convex(
    f,
    h: HWeight,
    rect: Rectangle,
    grid: int = 17,
    tol: Optional[float] = None,
    direction: str = "convex",
) -> ConvexityCertificate:
    """Sample the coordinate h-convexity inequality over a product grid.

    ``grid`` points per axis cover [a, b], [c, d] (endpoints included) and
    the interior of (0, 1) for the convexity parameters t and k; t, k = 0, 1
    are spot-checked additionally for weight families finite there.  The
    default tolerance is ``1e-10 * (1 + max sampled |f|)``, pure rounding
    headroom; a given ``tol`` must be finite and >= 0.  Requires f >= 0 on
    the sampled grid when asserting h-convexity for a family other than the
    identity.  The concave check is the convex check of -f, which negation,
    being exact, makes the same bit for bit.

    Only abscissa pairs x <= y and ordinate pairs u <= w (by grid index) are
    evaluated: the inequality is unchanged under (t, x, y) -> (1-t, y, x) and
    (k, u, w) -> (1-k, w, u), and the t grid is symmetric, so these cover
    every configuration and the witness of a fail has that canonical order.
    ``samples_checked`` counts the configurations covered, ``len(t)^2 *
    grid^4``.

    First the sections bound every row (t, abscissa pair) of deficits
    (:func:`_row_bounds`), f evaluated at the distinct combination points,
    lattice points a + (b-a)*m/(grid-1)^2 with integer m (see the module
    docstring), 257 per axis at grid 17.  No bound above the tolerance is the
    full sweep's pass.  Otherwise the rows of the largest bound are swept,
    then the other rows whose bounds reach their worst deficit (ties
    included), f evaluated per k at their abscissas; the worst configuration,
    first in (t, k, pair, pair) order, is the full sweep's.  Where f fails in
    the sections, every row is swept, raising as the full sweep does.  Every
    deficit is formed by :func:`_deficits`, in blocks within ``_BLOCK_BYTES``.
    """
    if not 3 <= grid <= MAX_GRID:
        raise DomainError(f"grid must lie in [3, {MAX_GRID}], got {grid}")
    _check_direction(direction)
    if tol is not None:
        _check_tol(tol, "tol")
    g = int(grid)
    xg = np.linspace(rect.a, rect.b, g)
    yg = np.linspace(rect.c, rect.d, g)
    tj = np.arange(g)  # t index j of t_j = j/(g-1)
    if not h.finite_at_endpoints:
        tj = tj[1:-1]
    tg = tj / (g - 1)  # correctly rounded, as the lattice below is exact

    F = _sample_2d(f, xg, yg)
    checked = f  # the function whose convex inequality is sampled
    if direction == "concave":
        F, checked = np.negative(F), (lambda x, y: np.negative(f(x, y)))
    elif h.family is not HFamily.IDENTITY and F.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(F)), F.shape)
        raise DomainError(
            f"h-convexity requires f >= 0 on the rectangle; "
            f"f({float(xg[i])!r}, {float(yg[j])!r}) = {float(F[i, j])!r}"
        )

    ht = h_eval(h, tg)
    # h(1 - t_j) at the exact 1 - t_j = (g-1-j)/(g-1), which is t_{g-1-j}: the
    # indices are symmetric, so hmt[j] is h((g-1-j)/(g-1)) bit for bit.
    hmt = ht[::-1]

    i1, i2 = np.triu_indices(g)  # index pairs i1 <= i2, for both axes
    npair, nt = i1.size, tg.size
    # t_j*x_i1 + (1-t_j)*x_i2 = a + (b-a)*m/(g-1)^2 at the lattice coordinate
    # m = j*i1 + (g-1-j)*i2, and likewise for ordinates.  Few m are distinct,
    # so for each k, f fills a table over (distinct abscissa, ordinate pair),
    # and every left side is gathered from it: L[t, p, q] = table[IX[t, p], q].
    # Bincounts rank m 3x as fast as np.unique, whose plain form imports numpy.ma.
    m = tj[:, None] * i1 + (g - 1 - tj)[:, None] * i2
    seen = np.bincount(m.ravel()) > 0
    um, IX = np.flatnonzero(seen), np.cumsum(seen)[m] - 1
    ux, uy = _lattice(rect.a, rect.b, xg, um), _lattice(rect.c, rect.d, yg, um)
    samples = len(tg) ** 2 * g**4
    # Two block rows for the whole call, else each block would be faulted
    # in anew; a row holds at least one t of all pairs, at most every t.
    size = max(npair, min(_BLOCK_BYTES // 8, nt * npair * max(ux.size, npair)))
    work = np.empty((2, size))
    max_abs_f = float(np.abs(F).max())
    best = [-math.inf, None]  # the worst deficit and its (t, k, pair, pair)

    def sweep(live):
        """Compare every configuration of the rows (t, abscissa pair) in
        ``live``, f only at their abscissas; t with equal rows share blocks."""
        nonlocal max_abs_f
        if not live.any():
            return
        cols, groups = np.flatnonzero(np.bincount(IX[live])), {}
        for t in np.flatnonzero(live.any(axis=1)):
            groups.setdefault(live[t].tobytes(), []).append(t)
        groups = [(ts, ps, np.searchsorted(cols, IX[np.ix_(ts, ps)])) for ts, ps in
                  ((np.array(ts), np.flatnonzero(live[ts[0]])) for ts in groups.values())]
        # Equal chunks of a k's ordinate pairs, each table within the budget.
        nq = -(-npair // max(1, size // max(cols.size, npair)))
        qc = -(-npair // nq)
        for k in range(nt):
            # Ordinate half of the right side, shared by every t:
            # G[i, q] = h(k) F[i, u_q] + h(1-k) F[i, w_q].
            G = ht[k] * F[:, i1] + hmt[k] * F[:, i2]
            for q0 in range(0, npair, qc):
                qs = slice(q0, q0 + qc)
                Lk = _sample_2d(checked, ux[cols], uy[IX[k, qs]],
                                "function value at a combination point")
                max_abs_f = max(max_abs_f, -float(Lk.min()), float(Lk.max()))
                for ts, ps, rows in groups:
                    for t0, D in _deficits(Lk, rows, ht[ts], hmt[ts], G[i1[ps], qs],
                                           G[i2[ps], qs], work):
                        m = float(D.max())
                        # Ties go to the first configuration in (t, k, pair,
                        # pair) order, whatever the blocks and groups.
                        if best[1] is None or m >= best[0]:
                            it, ip, iq = np.unravel_index(int(np.argmax(D)), D.shape)
                            idx = (int(ts[t0 + it]), k, int(ps[ip]), q0 + int(iq))
                            if best[1] is None or m > best[0] or idx < best[1]:
                                best[:] = m, idx

    # The diagonal pairs put every grid abscissa on the lattice, at m = (g-1)*i.
    gx = np.searchsorted(um, (g - 1) * np.arange(g))
    bounds = _row_bounds(checked, F, gx, i1, i2, ux, uy, IX, ht, hmt, tol, work)
    if bounds is None:  # every row can hold the witness
        sweep(np.ones(IX.shape, dtype=bool))
    else:
        # Only rows above the tolerance that reach the top rows' worst deficit count.
        U, max_abs_f = bounds
        live = U > _tolerance(tol, max_abs_f)  # none live: a pass, no sweep
        if live.any():
            sweep(U == U.max())
            sweep(live & (U >= best[0]) & (U < U.max()))

    tol = _tolerance(tol, max_abs_f)
    worst, worst_idx = best
    if worst <= tol:
        return ConvexityCertificate(
            verdict="pass", samples_checked=samples, worst_violation=0.0, tol=tol, grid=g,
            message=(f"no violation found on {samples} sampled configurations "
                     f"(grid {g} per axis); sampled check only, not a proof"))
    it, ik, p, q = worst_idx
    witness = (float(tg[it]), float(tg[ik]),
               (float(xg[i1[p]]), float(yg[i1[q]])), (float(xg[i2[p]]), float(yg[i2[q]])))
    # The witness's deficit, recomputed in scalars from f itself.
    recheck = inequality_deficit(f, h, *witness, direction)
    return ConvexityCertificate(
        verdict="fail", samples_checked=samples, worst_violation=worst,
        tol=tol, grid=g,
        message=(f"coordinate inequality violated by {worst:.6e} (tol {tol:.3e}) at "
                 f"t={witness[0]!r}, k={witness[1]!r}, "
                 f"(x,u)={witness[2]!r}, (y,w)={witness[3]!r}"),
        witness=witness, witness_deficit=float(recheck),
    )
