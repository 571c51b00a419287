"""Exact ramification-filtration calculus for finite Galois extensions.

Break data uses the shifted lower numbering throughout: the group at
parameter s is the classical group at s - 1, so a totally ramified
extension has its tame break at s = 1 and the transition function

    phi(t) = integral_0^t ds / [G(1) : G(s)]

has slope 1 on [0, 1].  For 0 < s <= 1 the index is taken to be 1; the
built-in families are totally ramified, where the conventions agree.

All arithmetic is over exact rationals; the transition functions are
piecewise linear with rational breakpoints and are inverted and
composed exactly, never sampled.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedPrime
from .gf import is_prime

__all__ = [
    "BreakData",
    "HerbrandFn",
    "phi_fn",
    "psi_fn",
    "mu",
    "tower_mu",
    "cyclotomic_breaks",
    "cyclotomic_relative_breaks",
    "kummer_tate_breaks",
]


@dataclass(frozen=True)
class BreakData:
    """Filtration of a finite Galois group by the shifted numbering.

    The group has the full total_order for s <= breaks[0].lambda and the
    listed order on each interval (lambda_j, lambda_{j+1}]; the last
    listed order persists beyond the last break.  A complete filtration
    ends with order 1.
    """

    total_order: int
    breaks: tuple  # ((lambda: Fraction, order: int), ...)

    def __post_init__(self):
        object.__setattr__(
            self, "breaks",
            tuple((Fraction(lam), int(order)) for lam, order in self.breaks),
        )
        if self.total_order < 1:
            raise ValueError("total_order must be >= 1")
        prev_lambda, prev_order = None, self.total_order
        for lam, order in self.breaks:
            if lam <= 0:
                raise ValueError("break parameters must be positive")
            if prev_lambda is not None and lam <= prev_lambda:
                raise ValueError("break parameters must strictly increase")
            if order >= prev_order:
                raise ValueError("orders must strictly decrease")
            if order < 1 or self.total_order % order:
                raise ValueError("orders must be positive divisors of the total")
            prev_lambda, prev_order = lam, order

    def order_at(self, s):
        """|G(s)| for s > 0."""
        s = Fraction(s)
        order = self.total_order
        for lam, o in self.breaks:
            if s > lam:
                order = o
            else:
                break
        return order

    def last_break(self):
        return self.breaks[-1][0] if self.breaks else None

    def to_text(self):
        parts = [f"order={self.total_order}"]
        for lam, o in self.breaks:
            parts.append(f"(lambda={lam.numerator}/{lam.denominator}, size={o})")
        return "; ".join(parts)

    @classmethod
    def parse(cls, text):
        chunks = [c.strip() for c in text.split(";") if c.strip()]
        if not chunks or not chunks[0].startswith("order="):
            raise ValueError("break data must start with 'order=<n>'")
        try:
            total = int(chunks[0][len("order="):])
        except ValueError:
            raise ValueError(f"{chunks[0]!r} must read order=<integer>") from None
        breaks = []
        for chunk in chunks[1:]:
            try:
                fields = dict(part.strip().split("=") for part in chunk.strip("()").split(","))
                breaks.append((Fraction(fields["lambda"]), int(fields["size"])))
            except (KeyError, ValueError, ZeroDivisionError):
                raise ValueError(f"break {chunk!r} must read (lambda=<rational>, "
                                 "size=<integer>)") from None
        return cls(total_order=total, breaks=tuple(breaks))


class HerbrandFn:
    """Increasing piecewise-linear function through (0, 0), exact.

    Stored canonically: breakpoints ((t, value), ...) starting at (0, 0)
    with strictly increasing t, no collinear interior points, and the
    slope past the last breakpoint.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        pts = [(Fraction(t), Fraction(v)) for t, v in breakpoints]
        if not pts or pts[0] != (0, 0):
            raise ValueError("must start at (0, 0)")
        final_slope = Fraction(final_slope)
        if final_slope <= 0:
            raise ValueError("slopes must be positive")
        # canonicalize: drop interior points that do not bend the graph
        slopes = []
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t1 <= t0 or v1 <= v0:
                raise ValueError("breakpoints must strictly increase")
            slopes.append(Fraction(v1 - v0, t1 - t0))
        slopes.append(final_slope)
        keep = [pts[0]]
        for idx in range(1, len(pts)):
            if slopes[idx] != slopes[idx - 1]:
                keep.append(pts[idx])
        self.breakpoints = tuple(keep)
        self.final_slope = final_slope

    @classmethod
    def identity(cls):
        return cls(((0, 0),), 1)

    def is_identity(self):
        return self.breakpoints == ((0, 0),) and self.final_slope == 1

    def evaluate(self, t):
        t = Fraction(t)
        if t < 0:
            raise ValueError("domain is t >= 0")
        pts = self.breakpoints
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                return v0 + (t - t0) * Fraction(v1 - v0, t1 - t0)
        t0, v0 = pts[-1]
        return v0 + (t - t0) * self.final_slope

    __call__ = evaluate

    def inverse(self):
        return HerbrandFn(
            tuple((v, t) for t, v in self.breakpoints),
            Fraction(1) / self.final_slope,
        )

    def compose(self, inner):
        """self o inner, exact: breakpoints wherever either function bends."""
        ts = {t for t, _ in inner.breakpoints}
        inner_inv = inner.inverse()
        for t, _ in self.breakpoints:
            ts.add(inner_inv.evaluate(t))
        ts = sorted(ts)
        pts = tuple((t, self.evaluate(inner.evaluate(t))) for t in ts)
        beyond = ts[-1] + 1
        rise = self.evaluate(inner.evaluate(beyond)) - pts[-1][1]
        return HerbrandFn(pts, Fraction(rise, beyond - ts[-1]))

    def _key(self):
        return (self.breakpoints, self.final_slope)

    def __eq__(self, other):
        if not isinstance(other, HerbrandFn):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_text(self):
        pts = " ".join(
            f"({t.numerator}/{t.denominator}, {v.numerator}/{v.denominator})"
            for t, v in self.breakpoints
        )
        return f"{pts}; final_slope={self.final_slope.numerator}/{self.final_slope.denominator}"

    def __repr__(self):
        return f"HerbrandFn({self.to_text()})"


def phi_fn(break_data):
    """The transition function of the filtration: slope 1 up to s = 1,
    then |G(s)| / |G(1)| on each break interval."""
    # one walk: the order before a break lambda > 1 holds on (t, lambda],
    # t the previous breakpoint, and the last order gives the final slope
    denom = order = break_data.order_at(1)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    for lam, after in break_data.breaks:
        if lam > 1:
            t, v = pts[-1]
            pts.append((lam, v + (lam - t) * Fraction(order, denom)))
        order = after
    return HerbrandFn(tuple(pts), Fraction(order, denom))


def psi_fn(fn):
    """Exact inverse transition function."""
    return fn.inverse()


def mu(break_data):
    """phi of the largest parameter with nontrivial group; 0 if none."""
    lam = break_data.last_break()
    if lam is None:
        return Fraction(0)
    return phi_fn(break_data).evaluate(lam)


def tower_mu(mu_fe, phi_fe, mu_lf):
    """mu of a tower L/F/E: max of mu(F/E) and phi_{F/E}(mu(L/F))."""
    return max(Fraction(mu_fe), phi_fe.evaluate(Fraction(mu_lf)))


def cyclotomic_breaks(p, n):
    """Filtration of the p^n-th cyclotomic extension of the base.

    Valuations v(g(zeta) - zeta) = p^(v_p(a-1)) for g: zeta -> zeta^a give
    breaks at 1, p, ..., p^(n-1) with orders p^(n-1), ..., 1; the tame
    break at 1 is vacuous for p = 2 and is omitted there.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = p ** (n - 1) * (p - 1)
    pairs = []
    prev = total
    for k in range(n):
        lam = Fraction(p**k)
        order = p ** (n - 1 - k)
        if order < prev:
            pairs.append((lam, order))
            prev = order
    return BreakData(total_order=total, breaks=tuple(pairs))


def cyclotomic_relative_breaks(p, n, m):
    """Filtration of the p^n-th over the p^m-th cyclotomic level, m >= 1."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    total = p ** (n - m)
    pairs = tuple((Fraction(p**k), p ** (n - 1 - k)) for k in range(m, n))
    return BreakData(total_order=total, breaks=pairs)


_KUMMER_TATE_TABLE = {
    # Splitting field of the p-torsion of the split multiplicative-reduction
    # curve: Q_p(zeta_p, p^(1/p)), order p(p-1).  Breaks from exact uniformizer
    # tracking: the tame part moves pi by valuation 1, the wild generator by
    # valuation p + 1 (pi = (zeta_p - 1) / p^(1/p)).
    2: (2, ((Fraction(3), 1),)),
    3: (6, ((Fraction(1), 3), (Fraction(4), 1))),
    5: (20, ((Fraction(1), 5), (Fraction(6), 1))),
    7: (42, ((Fraction(1), 7), (Fraction(8), 1))),
}


def kummer_tate_breaks(p):
    """Tabled filtration of Q_p(zeta_p, p^(1/p)) over Q_p, p in {2,3,5,7}."""
    if p not in _KUMMER_TATE_TABLE:
        raise UnsupportedPrime(
            f"no tabled break data for p = {p}; supported: "
            f"{sorted(_KUMMER_TATE_TABLE)}"
        )
    total, pairs = _KUMMER_TATE_TABLE[p]
    return BreakData(total_order=total, breaks=pairs)
