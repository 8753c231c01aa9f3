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

Most passes are settled without comparing every configuration.  With
v = k*u + (1-k)*w each deficit splits exactly into the deficit in x of the
section f(., v) plus h(t) and h(1-t) times deficits in y of the sections
f(x, .) at grid abscissas (the partial-mapping form of coordinate convexity).
When the largest section deficits, combined, stay within the tolerance after
a rounding margin, the sweep could find no violation and the certificate is
its pass; otherwise the sweep of every configuration runs and locates the
witness.  Both run in blocks of a fixed byte size and the grid is at most
:data:`MAX_GRID`, so memory stays bounded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, HHFracError
from .fracquad import Rectangle, _sample_2d

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
#: peak memory is a small multiple of it at any grid.
_BLOCK_BYTES = 1 << 18

#: Largest ``grid`` the certifier accepts.  A few of its arrays hold
#: O(grid^3) values, about 1 MB each at 64.  Its time grows as grid^5 for a
#: pass the sections settle (about 0.5 s at 64 on 2 vCPUs) and as grid^6 for
#: the sweep.
MAX_GRID = 64

_EPS = float(np.finfo(float).eps)


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


def inequality_deficit(f, h: HWeight, t: float, k: float,
                       p1: tuple[float, float], p2: tuple[float, float],
                       direction: str = "convex") -> float:
    """Left side minus right side of the coordinate inequality at one sample.

    Positive values violate h-convexity (for ``direction="concave"`` the sign
    is flipped).  Scalar arithmetic throughout, independent of the sweep.
    """
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


def _pass_certificate(samples: int, tol: float, g: int) -> ConvexityCertificate:
    return ConvexityCertificate(
        verdict="pass", samples_checked=samples, worst_violation=0.0,
        tol=tol, grid=g,
        message=(f"no violation found on {samples} sampled configurations "
                 f"(grid {g} per axis); sampled check only, not a proof"),
    )


def _section_bound(d1: float, d2: float, hsum: float, scale: float) -> float:
    """Upper bound on every sampled deficit, as the sweep computes it, from
    the largest section deficits ``d1`` (in x) and ``d2`` (in y).

    ``d2`` enters clamped at 0: its weights h(t) and h(1-t) sum to at most
    ``hsum`` but vary with t, so ``hsum * d2`` under-bounds them when d2 < 0.

    The margin covers rounding, with u = eps/2 and S = ``scale`` the largest
    |f| that enters (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Sec. 3.1).  With H = ``hsum`` the first-order terms, in
    units of u*S, are: the sweep's h(t)G1 + h(1-t)G2 and its subtraction from
    the left side, 2H^2 + 1 + H^2; the computed d1, 3(1 + H); the computed
    d2 under weights summing to H, H(1 + H); ``hsum`` rounded, H(1 + H); and
    the three operations of the bound, 3(1 + H)^2.  In all at most
    11(1 + H)^2 u S = 5.5(1 + H)^2 eps S; the factor 8 leaves room for the
    second-order terms and for one rounding unit between two evaluations of
    f at the same point.
    """
    margin = 8.0 * _EPS * (1.0 + scale) * (1.0 + hsum) ** 2
    return d1 + hsum * max(d2, 0.0) + margin


def _lattice(lo: float, hi: float, grid_pts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The combination points lo + (hi-lo)*m/(g-1)^2 at lattice coordinates
    ``m``; at a multiple of g-1 the grid point itself, bit for bit."""
    g1 = grid_pts.size - 1
    return np.where(m % g1 == 0, grid_pts[m // g1], lo + (hi - lo) * (m / g1**2))


def _section_test(f, F, gx, i1, i2, ux, uy, IX, ht, hmt, tol, direction):
    """The tolerance of the pass the sweep would certify, if a bound settles
    it without the sweep; None when the bound cannot.

    Write v = k*u + (1-k)*w.  For any h every sampled deficit splits exactly
    into d1(t, x, y; v) + h(t) d2(x; k, u, w) + h(1-t) d2(y; k, u, w), where
    d1 = f(t*x + (1-t)*y, v) - h(t) f(x, v) - h(1-t) f(y, v) is the deficit
    in x of the section f(., v), and d2 = f(x_i, v) - G the deficit in y of
    f(x_i, .) against the sweep's ordinate half G of the right side.  As h >=
    0, every deficit is at most :func:`_section_bound` of the largest d1 and
    d2; the concave direction negates both (Dragomir, Taiwanese J. Math. 5
    (2001) 775-788, for the partial-mapping form of coordinate convexity).

    The sections are evaluated at the sweep's own lattice abscissas ``ux``
    and ordinates ``uy``, so the table T = f(ux, v) holds exactly the sweep's
    left sides and max |f| over F and T is the sweep's.  The grid abscissas
    are lattice points too, rows ``gx`` of T, so f(x_i, v) is read from T;
    where f fails in T the sweep decides, and fails there as well.
    The ordinates are walked in chunks within ``_BLOCK_BYTES``; a chunk takes
    its d2 first, and the walk stops as soon as the bound exceeds the
    tolerance, which only hands the case to the sweep.
    """
    g, npair, nt = gx.size, i1.size, ht.size
    IY = IX.ravel()  # the ordinates share the abscissas' lattice coordinates
    # (k, ordinate pair) configurations, flat index k*npair + q, grouped by v.
    by_v = np.argsort(IY, kind="stable")
    v_start = np.searchsorted(IY[by_v], np.arange(uy.size + 1))
    hsum = float((ht + hmt).max())
    concave = direction == "concave"

    size = max(1, _BLOCK_BYTES // 8)
    # Equal chunks of ordinates; a chunk of T takes half the budget, as f's
    # evaluation holds a few temporaries of its size.
    nv = -(-uy.size // max(1, size // (2 * max(ux.size, npair))))
    vc = -(-uy.size // nv)
    tc = min(nt, max(1, size // (npair * vc)))
    sc = max(1, size // g)  # configurations per d2 block
    buf_d, buf_l = np.empty((2, tc * npair * vc))

    max_abs_f = float(np.abs(F).max())
    d1 = d2 = -math.inf

    def exceeded(m):
        # NaN in m or in the bound lands here too.
        bound = _section_bound(d1, d2, hsum, max_abs_f)
        return not (math.isfinite(m) and bound <= _tolerance(tol, max_abs_f))

    for v0 in range(0, uy.size, vc):
        vs = uy[v0:v0 + vc]
        try:
            T = _sample_2d(f, ux, vs)
        except HHFracError:  # the sweep evaluates f again and raises there
            return None
        max_abs_f = max(max_abs_f, -float(T.min()), float(T.max()))
        Fx = T[gx]  # f(x_i, v)
        for s0 in range(v_start[v0], v_start[v0 + vs.size], sc):
            sel = by_v[s0:min(s0 + sc, v_start[v0 + vs.size])]
            ks, qs = np.divmod(sel, npair)
            # The sweep's G, element by element the same float operations.
            G = ht[ks] * F[:, i1[qs]] + hmt[ks] * F[:, i2[qs]]
            D = np.subtract(Fx[:, IY[sel] - v0], G, out=G)
            m = -float(D.min()) if concave else float(D.max())
            d2 = max(d2, m)
            if exceeded(m):
                return None

        A1, A2 = Fx[i1], Fx[i2]
        for t0 in range(0, nt, tc):
            ts = slice(t0, t0 + tc)
            shape = (len(ht[ts]),) + A1.shape
            n = math.prod(shape)
            D = np.multiply(ht[ts, None, None], A1, out=buf_d[:n].reshape(shape))
            L = np.multiply(hmt[ts, None, None], A2, out=buf_l[:n].reshape(shape))
            D += L
            T.take(IX[ts], axis=0, out=L, mode="clip")
            np.subtract(L, D, out=D)
            m = -float(D.min()) if concave else float(D.max())
            d1 = max(d1, m)
            if exceeded(m):
                return None
    return _tolerance(tol, max_abs_f)


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
    headroom.  Requires f >= 0 on the sampled grid when asserting h-convexity
    for a family other than the identity.

    Only abscissa pairs x <= y and ordinate pairs u <= w (by grid index) are
    evaluated: the inequality is unchanged under (t, x, y) -> (1-t, y, x) and
    (k, u, w) -> (1-k, w, u), and the t grid is symmetric, so these cover
    every configuration and the witness of a fail has that canonical order.
    ``samples_checked`` counts the configurations covered, ``len(t)^2 *
    grid^4``.

    A pass is settled first by the sections (:func:`_section_test`): f is
    evaluated on the distinct combination abscissas t*x + (1-t)*y times the
    distinct combination ordinates k*u + (1-k)*w, ``len(ux) * len(uy)``
    points.  Both are lattice points a + (b-a)*m/(grid-1)^2 with an integer m
    (see the module docstring): 257 of each at grid 17 and 401 at grid 21,
    instead of 2601 and 4851 (t, pair) combinations.  If the section bound
    stays within the tolerance the pass is returned as the sweep would give
    it: ``worst_violation`` 0.0, the same ``tol``, ``samples_checked`` and
    message.  Otherwise the sweep compares every configuration, evaluating f
    at ``len(t) * len(ux) * grid(grid+1)/2`` points, one table per k, and
    gathers each left side from it; its verdict, worst violation and witness
    are the certificate.
    Both work in blocks of at most ``_BLOCK_BYTES`` per array and ``grid``
    may not exceed :data:`MAX_GRID`, so memory stays bounded.
    """
    if not 3 <= grid <= MAX_GRID:
        raise DomainError(f"grid must lie in [3, {MAX_GRID}], got {grid}")
    if direction not in ("convex", "concave"):
        raise DomainError(f"direction must be 'convex' or 'concave', got {direction!r}")
    g = int(grid)
    xg = np.linspace(rect.a, rect.b, g)
    yg = np.linspace(rect.c, rect.d, g)
    tj = np.arange(g)  # t index j of t_j = j/(g-1)
    if not h.finite_at_endpoints:
        tj = tj[1:-1]
    tg = tj / (g - 1)  # correctly rounded, as the lattice below is exact

    F = _sample_2d(f, xg, yg)
    if direction == "convex" and h.family is not HFamily.IDENTITY and F.min() < 0.0:
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
    um, IX = np.unique(tj[:, None] * i1 + (g - 1 - tj)[:, None] * i2,
                       return_inverse=True)
    IX = IX.reshape(nt, npair)
    ux, uy = _lattice(rect.a, rect.b, xg, um), _lattice(rect.c, rect.d, yg, um)
    samples = len(tg) ** 2 * g**4
    # A pass that the section bound settles needs no sweep.  The diagonal
    # pairs put every grid abscissa on the lattice, at m = (g-1)*i.
    gx = np.searchsorted(um, (g - 1) * np.arange(g))
    settled_tol = _section_test(f, F, gx, i1, i2, ux, uy, IX, ht, hmt, tol, direction)
    if settled_tol is not None:
        return _pass_certificate(samples, settled_tol, g)
    # The table is split into nq equal chunks of ordinate pairs that fit the
    # budget; the blocks (t, abscissa pair, ordinate pair) of one k follow
    # that split and then split the abscissa pairs and t.
    size = max(1, _BLOCK_BYTES // 8)
    nq = -(-npair // max(1, size // ux.size))
    qc = -(-npair // nq)
    pc = min(npair, max(1, size // qc))
    tc = min(nt, max(1, size // (pc * qc)))

    # Two block buffers for the whole sweep: fresh block-sized arrays would
    # go back to the system after every block and be faulted in again.
    buf_d, buf_l = np.empty((2, tc * pc * qc))
    max_abs_f = float(np.abs(F).max())
    worst = -math.inf
    worst_idx = None
    for k in range(nt):
        # Ordinate half of the right side, shared by every t:
        # G[i, q] = h(k) F[i, u_q] + h(1-k) F[i, w_q].
        G = ht[k] * F[:, i1] + hmt[k] * F[:, i2]
        for q0 in range(0, npair, qc):
            qs = slice(q0, q0 + qc)
            Yq = uy[IX[k, qs]]
            Lk = _sample_2d(f, ux, Yq, "function value at a combination point")
            max_abs_f = max(max_abs_f, -float(Lk.min()), float(Lk.max()))
            for p0 in range(0, npair, pc):
                ps = slice(p0, p0 + pc)
                G1, G2 = G[i1[ps], qs], G[i2[ps], qs]
                for t0 in range(0, nt, tc):
                    ts = slice(t0, t0 + tc)
                    shape = (len(ht[ts]),) + G1.shape
                    n = math.prod(shape)
                    D = np.multiply(ht[ts, None, None], G1, out=buf_d[:n].reshape(shape))
                    L = np.multiply(hmt[ts, None, None], G2, out=buf_l[:n].reshape(shape))
                    D += L
                    # L now takes the left sides; every index is in range,
                    # and mode "raise" would buffer ``out`` on every call.
                    Lk.take(IX[ts, ps], axis=0, out=L, mode="clip")
                    if direction == "concave":
                        np.subtract(D, L, out=D)
                    else:
                        np.subtract(L, D, out=D)
                    m = float(D.max())
                    # Ties go to the first configuration in (t, k, pair,
                    # pair) order, so the witness does not depend on blocks;
                    # (t0, k, p0, q0) is the first of this block.
                    if (worst_idx is None or m > worst
                            or (m == worst and (t0, k, p0, q0) < worst_idx)):
                        it, ip, iq = np.unravel_index(int(np.argmax(D)), D.shape)
                        idx = (t0 + int(it), k, p0 + int(ip), q0 + int(iq))
                        if worst_idx is None or m > worst or idx < worst_idx:
                            worst, worst_idx = m, idx

    tol = _tolerance(tol, max_abs_f)
    if worst <= tol:
        return _pass_certificate(samples, tol, g)
    it, ik, p, q = worst_idx
    witness = (float(tg[it]), float(tg[ik]),
               (float(xg[i1[p]]), float(yg[i1[q]])), (float(xg[i2[p]]), float(yg[i2[q]])))
    recheck = inequality_deficit(f, h, witness[0], witness[1], witness[2], witness[3],
                                 direction)
    return ConvexityCertificate(
        verdict="fail", samples_checked=samples, worst_violation=worst,
        tol=tol, grid=g,
        message=(f"coordinate inequality violated by {worst:.6e} (tol {tol:.3e}) at "
                 f"t={witness[0]!r}, k={witness[1]!r}, "
                 f"(x,u)={witness[2]!r}, (y,w)={witness[3]!r}"),
        witness=witness, witness_deficit=float(recheck),
    )
