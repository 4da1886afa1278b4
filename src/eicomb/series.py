"""Series expansions of H and B over channel moments, with tail control.

Both kernels expand as f_Phi(x) = 1 - sum_{n>=1} a_{Phi,n} x^{2n} with
positive weights summing to 1:

    a_{H,n} = 1 / (2 ln(2) n (2n-1))        a_{B,n} = C(2n,n) / ((2n-1) 4^n)

Writing gamma_{a,n} = sum_i w_i (1-2*eps_i)^{2n} for the channel moments,

    1 - Phi(a^[d]) = sum_n a_{Phi,n} gamma_{a,n}^d
    Phi(rho(a))    = rho(1) - sum_n a_{Phi,n} rho(gamma_{a,n})

where a^[d] is the d-fold check convolution and Phi(rho(a)) abbreviates
sum_k c_k Phi(a^[k]) for a polynomial rho with rho(0) = 0.  Truncations
here carry rigorous tail bounds: the H tail uses the telescoping majorant
1/(n(2n-1)) <= 1/(2n(n-1)), and the B tail is exact because the weights
telescope against central binomial ratios, sum_{n>N} a_{B,n} = C(2N,N)/4^N.
A point with y = (1 - 2 eps)^2 close to 1 makes its moments decay at rate
y, so summing it term by term would take ~1/(1 - y) terms.  The engine
therefore reads a small lane (a polynomial of low degree on a channel with
few multiset points at that degree, as every sweep row is) exactly, as the
sum over the multiset product points of the point layer of
eicomb.convolution (Richardson & Urbanke, *Modern Coding Theory*, ch. 4),
with no series; every other lane keeps only its atoms exact (through
sum_n a_n = 1, so that e.g. BEC values come out exact) and sums the rest
term by term.

Each functional's weights and tail bounds live in one table (`_weights`),
from which coefficient, coefficient_tail and the blocked engine read.  The
engine evaluates several polynomials on one batch of channels in one pass,
forming each block's moments once for all of them: phi_of_polys_columns
takes the batch as settled rows (the area margins read both powers so), and
phi_of_poly_columns, one polynomial on a list of channels, serves the
sweeps and the scalar entries.  1 - Phi(a^[d]) itself needs no series:
complement_of_convolution_batch sums a convolution's few product points
exactly, as the "conv" reads of eicomb.convolution._read_values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channel import Channel
from .convolution import _channel_rows, _phi_of_poly_rows, _read_values, projected_power_support
from .functionals import Functional, _series_tag

LN2 = math.log(2.0)

# Adaptive truncation gives up after this many terms and reports the
# tail bound it actually achieved.
DEFAULT_TERM_CAP = 10**5

# Safety inflation on the B tail so that partial sum + tail >= 1 survives
# floating-point summation of the partial sums.
_B_TAIL_SLACK = 1e-9

# tag -> (a, tail, t): the tables and, for B, the last raw t_m they reach
_WEIGHTS: dict[Functional, tuple[np.ndarray, np.ndarray, float | None]] = {}
# A growing table computes this many new entries at a time.
_WEIGHT_CHUNK = 1 << 16


def _weights(tag: Functional, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, tail) with a[m] = a_{Phi,m} and tail[m] = coefficient_tail(tag, m)
    for 1 <= m <= n at least: read-only arrays, entry 0 unused (NaN), grown
    geometrically from 1024 entries, each growth filling the new entries
    in chunks.  B takes t_m = C(2m,m)/4^m from the recurrence
    t_m = t_{m-1} (2m-1) / (2m) in Python floats, continued from the last
    t_m of the table; then a_{B,m} = t_{m-1} / (2m) and the tail is
    t_m (1 + _B_TAIL_SLACK).
    """
    table = _WEIGHTS.get(tag)
    if table is None or table[0].size <= n:
        _series_tag(tag)
        old = table[0].size - 1 if table else 0
        size = max(1024, n, 2 * old)
        a, tail = np.empty(size + 1), np.empty(size + 1)
        a[: old + 1], tail[: old + 1] = table[:2] if table else (np.nan, np.nan)
        t_last = table[2] if table else 1.0
        for lo in range(old + 1, size + 1, _WEIGHT_CHUNK):
            hi = min(lo + _WEIGHT_CHUNK, size + 1)
            m = np.arange(lo, hi, dtype=float)
            if tag is Functional.H:
                a[lo:hi] = 1.0 / (2.0 * LN2 * m * (2.0 * m - 1.0))
                tail[lo:hi] = 1.0 / (4.0 * LN2 * m)
                continue
            t = np.fromiter(itertools.accumulate(
                range(lo, hi), lambda prev, k: prev * (2 * k - 1) / (2 * k), initial=t_last,
            ), dtype=float, count=hi - lo + 1)  # t_(lo-1) .. t_(hi-1)
            a[lo:hi] = t[:-1] / (2.0 * m)
            tail[lo:hi] = t[1:] * (1.0 + _B_TAIL_SLACK)
            t_last = float(t[-1])
        a.flags.writeable = tail.flags.writeable = False
        _WEIGHTS[tag] = table = (a, tail, t_last if tag is Functional.B else None)
    return table[0], table[1]


def coefficient(tag: Functional, n: int) -> float:
    """Series weight a_{Phi,n} for Phi in {H, B}; positive, sums to 1 over n."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"coefficient index must be >= 1, got {n!r}")
    return float(_weights(tag, n)[0][n])


def coefficient_tail(tag: Functional, n: int) -> float:
    """Rigorous upper bound on sum_{m>n} a_{Phi,m}; decreasing, -> 0.

    H uses the telescoping majorant 1/(4 ln(2) n); B uses the exact tail
    C(2n,n)/4^n (inflated by a hair against rounding of partial sums).
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"tail index must be >= 1, got {n!r}")
    return float(_weights(tag, n)[1][n])


def moment(a: Channel, n: int) -> float:
    """n-th moment sum_i w_i (1 - 2*eps_i)^(2n); decreasing in n."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"moment index must be >= 1, got {n!r}")
    x = 1.0 - 2.0 * a.eps
    return float(np.dot(a.w, x ** (2 * n)))


def moments(a: Channel, count: int) -> np.ndarray:
    """Moments 1..count as an array (decreasing, within [0, 1])."""
    count = operator.index(count)
    if count < 1:
        raise ValueError(f"moment count must be >= 1, got {count!r}")
    y = (1.0 - 2.0 * a.eps) ** 2
    powers = y[:, None] ** np.arange(1, count + 1)[None, :]
    return a.w @ powers


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial rho(X) = sum_{k>=1} c_k X^k with rho(0) = 0."""

    coeffs: tuple[float, ...]
    # Nonzero (exponent, coefficient) pairs, ascending exponent.
    terms: tuple[tuple[int, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        while c and c[-1] == 0.0:
            c = c[:-1]
        if not c:
            raise ValueError("polynomial must have degree >= 1")
        if not all(map(math.isfinite, c)):
            raise ValueError(f"polynomial coefficients must be finite, got {c!r}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "terms", tuple((k + 1, v) for k, v in enumerate(c) if v != 0.0))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, x: float) -> float:
        # terms added one by one from 0.0, in ascending exponent order, as
        # the batched evaluators add their columns (sum() compensates its
        # float additions from Python 3.12 on)
        out = 0.0
        for k, c in self.terms:
            out += c * x**k
        return float(out)

    def as_array(self) -> np.ndarray:
        """Ascending coefficient array including the zero constant term."""
        return np.array((0.0,) + self.coeffs)

    @classmethod
    def monomial(cls, d: int) -> "Polynomial":
        if d < 1:
            raise ValueError(f"monomial degree must be >= 1, got {d!r}")
        return cls((0.0,) * (d - 1) + (1.0,))

    def __str__(self) -> str:
        parts = []
        for k, c in self.terms:
            term = f"x^{k}" if k > 1 else "x"
            if c == 1.0:
                parts.append(f"+ {term}")
            elif c == -1.0:
                parts.append(f"- {term}")
            else:
                sign = "-" if c < 0 else "+"
                coef = f"{abs(c):g}"
                if float(coef) != abs(c):  # %g dropped digits: keep them all
                    coef = repr(abs(c))
                parts.append(f"{sign} {coef}*{term}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text


_TERM_RE = re.compile(r"^(?P<coef>[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)?)(?P<var>x)?(?:\^(?P<exp>\d+))?$")
# A term runs to the next + or - that is not the sign of an exponent.
_PIECE_RE = re.compile(r"[+-]?(?:(?<=[\d.]e)[+-]|[^+-])+")


def poly_from_string(text: str) -> Polynomial:
    """Parse `c*x^k` terms joined by +/-, e.g. ``x^5 - 0.75*x^6``.

    Constant terms are rejected so that rho(0) = 0 holds structurally.
    """
    compact = text.replace(" ", "").replace("*", "").lower()
    if not compact:
        raise ValueError("empty polynomial expression")
    pieces = _PIECE_RE.findall(compact)
    if "".join(pieces) != compact:
        raise ValueError(f"could not tokenize polynomial {text!r}")
    coeffs: dict[int, float] = {}
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group("exp") and not m.group("var")):
            raise ValueError(f"bad polynomial term {piece!r} in {text!r}")
        if not m.group("var"):
            raise ValueError(f"constant term {piece!r} not allowed (rho(0) must be 0)")
        coef_text = m.group("coef")
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        exp = int(m.group("exp") or 1)
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {piece!r}")
        coeffs[exp] = coeffs.get(exp, 0.0) + coef
    degree = max(coeffs)
    return Polynomial(tuple(coeffs.get(k, 0.0) for k in range(1, degree + 1)))


# Polynomials with integer coefficients, as ascending lists with a nonzero
# last entry ([] is the zero polynomial).  The hypothesis gates decide with
# them exactly: a float is a dyadic rational, so a float polynomial scales
# to integers without rounding.


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients (a positive factor)."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with |lc(b)|^k a = q b + r, k = max(deg a - deg b + 1, 0), deg r < deg b.

    The scale |lc(b)|^k is positive, so q and r keep the signs of the
    quotient and remainder over the rationals.
    """
    lead, scale = b[-1], abs(b[-1])
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        f = r[-1] if lead > 0 else -r[-1]
        r = [scale * c for c in r]
        q = [scale * c for c in q]
        q[i] = f
        for j, c in enumerate(b):
            r[i + j] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A greatest common divisor of a and b, up to a constant factor."""
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b up to a positive constant factor, for b dividing a."""
    return _primitive(_pseudo_divmod(a, b)[0])


def _product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _odd_part(p: list[int]) -> list[int]:
    """The product of p's distinct irreducible factors of odd multiplicity.

    These are exactly the factors at whose roots p changes sign.  With
    u_0 = p and u_{j+1} = gcd(u_j, u_j'), s_j = u_j / u_{j+1} is the product
    of the factors of multiplicity > j, so s_j / s_{j+1} collects those of
    multiplicity exactly j + 1.  Returned up to a constant factor.
    """
    u = [p]
    while len(u[-1]) > 1:
        u.append(_gcd(u[-1], _derivative(u[-1])))
    s = [_quotient(a, b) for a, b in zip(u, u[1:])] + [[1]]
    odd = [1]
    for j in range(0, len(s) - 1, 2):
        odd = _product(odd, _quotient(s[j], s[j + 1]))
    return odd


def _sign_at(p: list[int], x: float) -> int:
    """The exact sign of p at the float x."""
    n, d = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(p):  # acc = d^deg(p) * p(n/d) at the end
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """A Sturm sequence of the squarefree p, each entry up to a positive factor."""
    chain = [p, _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(chain: list[list[int]], x: float) -> int:
    """Sign changes along the Sturm sequence at x, zeros dropped."""
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


_GATE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_GATE_CACHE_SIZE)
def _nonneg_reach(rho: Polynomial, order: int) -> float:
    """The largest float t in [0, 1] with p = rho^(order) >= 0 on [0, t].

    Certified in exact integer arithmetic.  p = x^m p0 with p0(0) != 0 (a
    root at 0 is factored out first).  Past 0, p turns negative exactly at
    r*, the first root in (0, 1) of the odd part q of p0: a root of even
    multiplicity touches 0 without a sign change.  Sturm's theorem counts
    q's roots in (0, x) exactly at every float x, and the count grows
    with x, so bisection over floats ends at adjacent floats t < t' with
    r* in [t, t').  Returns -1.0 when p(0) < 0 and 1.0 when p >= 0 on
    all of [0, 1].
    """
    fracs = [c.as_integer_ratio() for c in rho.coeffs]
    denom = max(d for _, d in fracs)  # a power of 2 that every d divides
    p = [0] + [n * (denom // d) for n, d in fracs]
    for _ in range(order):
        p = _derivative(p)
    m = next((k for k, c in enumerate(p) if c), len(p))
    p0 = p[m:]
    if not p0:
        return 1.0
    if p0[0] < 0:
        return 0.0 if m else -1.0
    chain = _sturm_chain(_odd_part(p0))
    v0 = _variations(chain, 0.0)

    def roots_below(x: float) -> int:
        # Sturm counts roots in (0, x]; a root at x itself is not below it
        return v0 - _variations(chain, x) - (_sign_at(chain[0], x) == 0)

    if roots_below(1.0) == 0:
        return 1.0
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if roots_below(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _nonneg_on(rho: Polynomial, order: int, x_max: float) -> bool:
    if not 0.0 <= x_max <= 1.0:
        raise ValueError(f"interval end must lie in [0, 1], got {x_max!r}")
    return x_max <= _nonneg_reach(rho, order)


def poly_increasing_on(rho: Polynomial, x_max: float) -> bool:
    """True iff rho' >= 0 everywhere on [0, x_max], decided exactly.

    The first sign change r* of rho' in [0, 1] is found once per rho, in
    exact arithmetic, and cached as the largest float t <= r*; the next
    float above t already lies past r*, so no float x_max falls between
    them and the gate is the comparison x_max <= t.  Roots of even
    multiplicity (no sign change) and a root at an exact float are
    decided correctly; there is no tolerance and no undecided case.
    """
    return _nonneg_on(rho, 1, x_max)


def poly_convex_on(rho: Polynomial, x_max: float) -> bool:
    """True iff rho'' >= 0 everywhere on [0, x_max], decided exactly.

    Same certified rule as poly_increasing_on, applied to rho''.
    """
    return _nonneg_on(rho, 2, x_max)


@dataclass(frozen=True)
class SeriesValue:
    """A truncated-series value together with its rigorous tail bound.

    capped is True when the series stopped at its term cap with the bound
    still above the tolerance, so error_bound exceeds what was asked for.
    error_bound 0.0 after 0 terms is an exact read: a small lane read on
    the point layer, or a channel with no point strictly between the
    perfect and the useless one.
    """

    value: float
    error_bound: float
    terms: int
    capped: bool = False

    def __float__(self) -> float:
        return self.value


class SeriesColumns(NamedTuple):
    """The SeriesValue fields of a batch of rows, one array per field, in
    row order."""

    value: np.ndarray
    error_bound: np.ndarray
    terms: np.ndarray
    capped: np.ndarray


def _check_stop(tol: float, term_cap: int) -> int:
    """The term cap as an int, after checking both stop settings."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    term_cap = operator.index(term_cap)
    if term_cap < 1:
        raise ValueError(f"term cap must be >= 1, got {term_cap!r}")
    return term_cap


def _padded_batch(eps: np.ndarray, w: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(atoms, counts, ys, ws) of rows, row r the sizes[r] points (eps, w)
    after those of the rows before it: each row's mass at x = 1, and the
    number, y = x^2 and weights of its points in 0 < x < 1, in point order,
    left-aligned and zero-padded to the widest row (a zero weight times a
    zero power adds nothing to a moment)."""
    row = np.arange(sizes.size).repeat(sizes)
    x = 1.0 - 2.0 * eps
    atoms = np.zeros(sizes.size)
    at_one = x == 1.0
    np.add.at(atoms, row[at_one], w[at_one])
    active = (x > 0.0) & (x < 1.0)
    row, x = row[active], x[active]
    counts = np.bincount(row, minlength=sizes.size)
    col = np.arange(row.size) - (counts.cumsum() - counts)[row]
    ys = np.zeros((sizes.size, int(counts.max(initial=0))))
    ws = np.zeros_like(ys)
    ys[row, col] = x * x
    ws[row, col] = w[active]
    return atoms, counts, ys, ws


def phi_series(
    tag: Functional,
    a: Channel,
    power: int,
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
) -> SeriesValue:
    """Phi(a^[power]) within tol (or the reported bound): phi_of_poly_batch of X^power on [a]."""
    power = operator.index(power)
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    return phi_of_poly_batch(tag, Polynomial.monomial(power), [a], tol, term_cap)[0]


def phi_of_poly(
    tag: Functional,
    rho: Polynomial,
    a: Channel,
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
) -> SeriesValue:
    """Phi(rho(a)) = sum_k c_k Phi(a^[k]) within tol: phi_of_poly_batch on [a]."""
    return phi_of_poly_batch(tag, rho, [a], tol, term_cap)[0]


# Blocks of the batched evaluator start at this many terms and double up
# to the cap; a block's power table holds at most _BATCH_MAX_ENTRIES values.
_BATCH_FIRST_BLOCK = 8
_BATCH_MAX_BLOCK = 512
_BATCH_MAX_ENTRIES = 1 << 22

# A lane whose polynomial has degree at most _EXACT_MAX_DEGREE, on a row
# with at most _EXACT_MAX_SUPPORT multiset points at that degree
# (projected_power_support; C(11, 6) = 462 is 6 points at degree 6), is read
# exactly on the point layer.
_EXACT_MAX_DEGREE = 6
_EXACT_MAX_SUPPORT = 462


def _rho_columns(terms: Sequence[tuple[int, float]], g: np.ndarray) -> np.ndarray:
    """sum_k c_k g^k elementwise, terms added in ascending exponent order."""
    out = 0.0
    for k, c in terms:
        out = out + c * g**k
    return out


def _rho_at(terms: Sequence[tuple[int, float]], xs: list[float]) -> np.ndarray:
    """Polynomial.__call__ at each float of xs, bit for bit: each power by
    Python's float pow (numpy's power rounds differently on some hosts),
    and the terms added as _rho_columns adds them."""
    out = 0.0
    for k, c in terms:
        out = out + c * np.fromiter(map(pow, xs, itertools.repeat(k)), dtype=float, count=len(xs))
    return out


def phi_of_poly_batch(
    tag: Functional,
    rho: Polynomial,
    channels: Sequence[Channel],
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
) -> list[SeriesValue]:
    """Phi(rho(a)) for each channel a, in input order: phi_of_poly_columns
    as one SeriesValue per row."""
    cols = phi_of_poly_columns(tag, rho, channels, tol, term_cap)
    return [SeriesValue(*row) for row in zip(*(c.tolist() for c in cols))]


def phi_of_poly_columns(
    tag: Functional,
    rho: Polynomial,
    channels: Sequence[Channel],
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
) -> SeriesColumns:
    """Phi(rho(a)) for each channel a, in input order, from one blocked
    pass, as value, error bound, term and capped columns: the one-polynomial
    pass of _series_pass over the channels' rows."""
    tag = _series_tag(tag)
    term_cap = _check_stop(tol, term_cap)
    if not channels:
        return SeriesColumns(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp),
                             np.zeros(0, dtype=bool))
    return _series_pass(tag, (rho,), *_channel_rows(channels), tol, term_cap)[0]


def phi_of_polys_columns(
    tag: Functional,
    rhos: Sequence[Polynomial],
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    tol: float = 1e-10,
    term_cap: int = DEFAULT_TERM_CAP,
) -> list[SeriesColumns]:
    """Phi(rho(a)) for each rho of rhos and each settled row a of
    rows = (eps, w, off), row i at off[i]:off[i+1], from one blocked pass:
    one SeriesColumns per rho, each equal bit for bit to phi_of_poly_columns
    of that rho on the rows as channels."""
    tag = _series_tag(tag)
    term_cap = _check_stop(tol, term_cap)
    if not rhos:
        raise ValueError("need at least one polynomial")
    eps, w, off = rows
    return _series_pass(tag, tuple(rhos), eps, w, off[1:] - off[:-1], tol, term_cap)


# A lane is one polynomial on one row of a loop of the engine; lane
# r * width + p holds polynomial p of width at row r, so with one polynomial
# the lanes are the rows.


def _lanes(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Per-row arrays, one per polynomial, interleaved into lanes."""
    if len(rows) == 1:
        return rows[0]
    return np.stack(rows, axis=1).reshape((-1,) + rows[0].shape[1:])


def _lane_rho(terms: Sequence[Sequence[tuple[int, float]]]) -> Callable[[np.ndarray], np.ndarray]:
    """The map from the moments of each row to _rho_columns of each
    polynomial's terms in each lane."""
    if len(terms) == 1:
        return functools.partial(_rho_columns, terms[0])
    return lambda g: _lanes([_rho_columns(t, g) for t in terms])


def _abs_terms(rho: Polynomial) -> tuple[tuple[int, float], ...]:
    return tuple((k, abs(c)) for k, c in rho.terms)


def _series_pass(tag: Functional, rhos: tuple[Polynomial, ...], eps: np.ndarray, w: np.ndarray,
                 sizes: np.ndarray, tol: float, term_cap: int) -> list[SeriesColumns]:
    """The blocked engine: Phi(rho(a)) of every rho for every row a, row r
    the sizes[r] points (eps, w) after those of the rows before it.

    Each lane (one rho on one row) takes one of two routes, chosen from the
    rho's degree and the row's size alone.  A small lane, rho of degree at
    most _EXACT_MAX_DEGREE on a row with at most _EXACT_MAX_SUPPORT multiset
    points at that degree, is read exactly on the point layer
    (convolution._phi_of_poly_rows, bit for bit
    convolution.phi_of_poly_convolved_batch): error bound 0.0 after 0
    terms, so no point near the perfect channel, where the moments y^n
    decay at rate y, slows it down.  Every other lane sums the series with
    the atoms at x = 1 exact:

        Phi(rho(a)) = rho(1) - rho(atom) - sum_n a_n (rho(gamma_n) - rho(atom)),

    gamma_n = atom + sum w y^n over the row's points in 0 < x < 1 and
    rho(atom) evaluated as Polynomial.__call__ evaluates it (_rho_at).
    Truncation after N terms is bounded by
    coefficient_tail(N) * (rho_abs(gamma_{N+1}) - rho_abs(atom)), as
    gamma_n - atom does not increase with n.  The lane stops at the first N
    where its bound is <= tol, or at N = term_cap (capped if still above
    tol); a row with no point in 0 < x < 1 is rho(1) - rho(atom) after 0
    terms.

    Terms come in blocks of 8, doubling up to 512; the powers y^n continue
    by cumprod from the carried y^n and give the moments, both once per
    block for all rhos, and each lane's partial sums continue by cumsum from
    its carried accumulator.  A lane's results are written into its columns
    where it first stops (its later stops, and every step of a lane read
    exactly beside it, go to a spare slot), and a row leaves the loop once
    all of its lanes have stopped.  No step mixes rows or lanes (padding
    adds exact zeros to a moment), and a lane's operations do not depend on
    the block widths, so its result depends on neither the other rows and
    rhos nor the block schedule: phi_series and phi_of_poly, batches of one,
    give the same value bit for bit.
    """
    width, size = len(rhos), sizes.size
    atoms, counts, ys, ws = _padded_batch(eps, w, sizes)
    rho_atoms = [_rho_at(rho.terms, atoms.tolist()) for rho in rhos]
    # slot p * size + i holds polynomial p at row i, and one spare slot
    # follows; a row with no term to sum keeps these
    value = np.concatenate([rho(1.0) - r for rho, r in zip(rhos, rho_atoms)] + [np.zeros(1)])
    cols = (value, np.zeros(value.size), np.zeros(value.size, dtype=np.intp))
    exact = np.zeros(value.size, dtype=bool)
    for p, rho in enumerate(rhos):
        if rho.degree <= _EXACT_MAX_DEGREE:
            small = np.array([projected_power_support(m, rho.degree) <= _EXACT_MAX_SUPPORT
                              for m in sizes.tolist()], dtype=bool)
            if small.any():
                at = np.flatnonzero(small)
                mine = small.repeat(sizes)
                value[p * size + at] = _phi_of_poly_rows(tag, rho, eps[mine], w[mine], sizes[at])
                exact[p * size + at] = True
    index = np.flatnonzero((counts > 0) & ~exact[:-1].reshape(width, size).all(axis=0))
    if index.size:
        out = _lanes([index + p * size for p in range(width)])
        out[exact[out]] = value.size - 1
        rho_atom = _lanes([r[index] for r in rho_atoms])
        abs_terms = [_abs_terms(rho) for rho in rhos]
        signed = abs_terms != [rho.terms for rho in rhos]
        rho_abs_atom = _lanes([_rho_at(t, atoms[index].tolist()) for t in abs_terms]) if signed \
            else rho_atom
        _loop(tag, rhos, out, atoms[index], ys[index], ws[index], rho_atom, rho_abs_atom,
              cols, tol, term_cap)
    return _columns(cols, width, size, tol)


def _columns(cols: tuple[np.ndarray, ...], width: int, size: int, tol: float) -> list[SeriesColumns]:
    """The engine's slots as one SeriesColumns per polynomial."""
    value, error_bound, terms = (v[:-1].reshape(width, size) for v in cols)
    capped = ~(error_bound <= tol)  # before the clip: NaN is capped, a rounding below 0 is not
    error_bound[error_bound < 0.0] = 0.0  # max(b, 0.0): keeps NaN and -0.0
    return [SeriesColumns(*c) for c in zip(value, error_bound, terms, capped)]


def _loop(tag: Functional, rhos: Sequence[Polynomial], out: np.ndarray, atoms: np.ndarray,
          ys: np.ndarray, ws: np.ndarray, rho_atom: np.ndarray, rho_abs_atom: np.ndarray,
          cols: tuple[np.ndarray, ...], tol: float, term_cap: int) -> None:
    """The series loop of _series_pass over the lanes of rhos on some rows,
    lane i writing to slot out[i] of cols (value, error bound, terms), whose
    value slots hold rho(1) - rho(atom): gamma_n = atom + sum w y^n over
    (ys, ws), and the subtracted values are rho and rho_abs at the lane's
    atom."""
    value, error_bound, terms = cols
    spare = value.size - 1
    width = len(rhos)
    terms_of = [rho.terms for rho in rhos]
    abs_terms_of = [_abs_terms(rho) for rho in rhos]
    signed = abs_terms_of != terms_of
    rho_lanes, rho_abs_lanes = _lane_rho(terms_of), _lane_rho(abs_terms_of)
    n0, block = 1, _BATCH_FIRST_BLOCK
    acc = np.zeros(out.size)
    z = ys.copy()  # y^n0 for the block starting at term n0
    while out.size:
        count = max(1, min(block, term_cap - n0 + 1, _BATCH_MAX_ENTRIES // ys.size))
        powers = np.repeat(ys[:, :, None], count + 1, axis=2)
        powers[:, :, 0] = z
        np.cumprod(powers, axis=2, out=powers)  # y^n0 .. y^(n0+count)
        gamma = atoms[:, None] + np.einsum("rm,rmc->rc", ws, powers)
        rho_g = rho_lanes(gamma)
        rho_abs_g = rho_abs_lanes(gamma) if signed else rho_g
        a, tail = _weights(tag, n0 + count - 1)
        sums = np.empty((out.size, count + 1))
        sums[:, 0] = acc
        sums[:, 1:] = a[n0 : n0 + count] * (rho_g[:, :-1] - rho_atom[:, None])
        partial = np.cumsum(sums, axis=1)  # accumulator after terms n0-1 .. n0+count-1
        bound = tail[n0 : n0 + count] * (rho_abs_g[:, 1:] - rho_abs_atom[:, None])
        stop = bound <= tol
        if n0 + count > term_cap:  # the block's last term is the cap
            stop[:, -1] = True
        acc = partial[:, -1]
        z = powers[:, :, -1].copy()  # frees the table before the next block
        done = stop.any(axis=1)
        if done.any():
            lanes = np.flatnonzero(done)
            first = stop[lanes].argmax(axis=1)
            at = out[lanes]
            value[at] -= partial[lanes, first + 1]
            error_bound[at] = bound[lanes, first]
            terms[at] = n0 + first
            if lanes.size == out.size:
                break
            out[lanes] = spare  # a lane's later stops write to the spare slot
            rows_kept = lanes_kept = out != spare
            if width > 1:  # a row leaves with its last lane
                rows_kept = lanes_kept.reshape(-1, width).any(axis=1)
                lanes_kept = rows_kept.repeat(width)
            ys, ws, atoms, z = (v[rows_kept] for v in (ys, ws, atoms, z))
            rho_atom, rho_abs_atom, acc, out = (
                v[lanes_kept] for v in (rho_atom, rho_abs_atom, acc, out))
        n0 += count
        block = min(2 * block, _BATCH_MAX_BLOCK)


# ----------------------------------------------------------------------
# complements of convolutions, from their product points


def complement_of_convolution(tag: Functional, factors: Sequence[tuple[Channel, int]]) -> float:
    """1 - Phi of the convolution of each c^[d] of factors (c, d), exactly:
    complement_of_convolution_batch on one read."""
    return complement_of_convolution_batch([(tag, factors)])[0]


def complement_of_convolution_batch(
    reads: Sequence[tuple[Functional, Sequence[tuple[Channel, int]]]],
) -> list[float]:
    """complement_of_convolution of each read (tag, factors), in input
    order: the "conv" reads of convolution._read_values, exact sums over
    each read's product points, with its checks and errors.  A read's value
    does not depend on the batch, a read of one channel at degree 1 is
    functionals.complement bit for bit, and a read with no factor is the
    perfect channel (1.0)."""
    return _read_values([(tag, "conv", factors) for tag, factors in reads])
