"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients of a smooth function at a base point,
up to a fixed total order.  The coefficient attached to a multi-index a is
the normalized derivative  (d^a f)(p) / a!,  so polynomial identities hold
coefficientwise.  Jets form a commutative ring under truncated addition
and multiplication; jets with a nonzero value part are invertible.

Coefficients sit in a dense vector ordered degree-major and lexicographically
within each degree: a space builds that exponent table in numpy and finds a slot
by its key (``JetSpace.slot``).  A jet stores a prefix of it, at most through its
order; a slot past the prefix reads +0.0 (``fitted``).  Two modes: float64, and
exact rational (``fractions.Fraction`` in an object array).

Products are order- and sparsity-aware.  A space's table of coefficient
pairs is sorted stably by the degree of the slot they land in, so a product
cut at order d runs a prefix of it (built when first asked for), and every
slot sums its pairs in (i, j) order whichever prefix runs.  Where the prefix
is large and two one-point factors sparse, a product runs only the pairs of
their nonzero slots, in (i, j) order, finding each slot by its key; exact
products always do.

Plain numbers never become constant jets on the float paths: a float jet
plus or minus a number changes its value part only, and a float jet times
or divided by a number scales its coefficients, each bit-identical to the
constant-jet operation for finite data.  Powers, reciprocals, analytic
functions and compositions do not start from a constant-one jet either.

Float jet-jet arithmetic takes a direct path.  A jet records its mode
(``exact``) once, when it is made; when both operands of ``+``, ``-`` or
``*`` are float jets of the same space object, the operation goes straight
to its array operation on the coefficients, with no coercion and no
constant jet.  Those are the operations the general path would run on
such operands, so the results are bitwise the same.  Exact jets, mixed
modes, numbers and jets of different spaces take the general path, which
coerces a mixed pair to float and raises ``ShapeMismatchError`` across
spaces.

Batches.  ``coeffs`` has shape ``(..., L)``, L the slots stored: batch
axes first and the coefficient axis last, as numpy's generalized ufuncs lay
out a core dimension (vector-mode Taylor arithmetic, Griewank & Walther,
*Evaluating Derivatives*, ch. 13, who keep a degree-d jet through degree d);
one point has batch shape ().  A batch row is bit-identical to its point
alone: a batched product is one bincount over the slots ``mul_k + n * row``
(n slots a row), summing each slot's pairs in the one-point order, and
elementary functions take their value-part series per row in Python floats
(numpy's vectorized exp and power differ from libm's in the last bit).
``jet_solve``, the one elimination (``jet_det`` is its determinant), chooses
its pivots per row, and a failing check names its rows in ``error.rows``.
``jet_compose`` takes batch axes on both sides, broadcast: its monomial
table carries the inner batch axes, and each row sums its terms over it
strictly left to right, as it would alone.

Degree bounds.  One storage rule: ``Jet.degree`` is the degree of a jet's last
stored slot, read off the stored length (``JetSpace.degree_of``), so a jet of
degree d stores nothing past degree d.  The zero jet alone is marked, degree
-1: one value slot, a float one a view of its space's read-only zero row, and
the operations that keep it zero keep the mark (negation, finite scaling, cuts,
stacking, sums of zeros).  Constants store one slot and coordinates n + 1; a
product runs and stores the pairs through ``min(order, da + db)``; a sum stores
the longer operand's slots; a derivative gathers the stored slots' images.  A
zero factor or the derivative of a constant is the zero jet, ``jet_dot`` leaves
zero terms out, and ``jet_compose`` builds only the rows a nonzero outer
coefficient reads, cut so.  Signed zeros: only the value slot's sign shows; a
slot past the stored ones reads +0.0 and carries none.  No bit moves for finite
data: each skipped pair, row or term multiplies an exact zero, products hold no
-0.0, and each slot sums its kept terms in order from +0.0, as ``bincount``
does.  A skipped 0 * inf makes no NaN; other infs stay, and a number factor
that is inf or NaN scales every slot through the order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    ExactModeError,
    ShapeMismatchError,
    SingularBasisError,
)

_PIVOT_EPS = 1e-13
# A one-point float product runs only its factors' nonzero-slot pairs when its
# table has >= SPARSE_MIN_PAIRS pairs and SPARSE_RATIO nnz_a nnz_b is fewer.  A
# cold germs pass's products replayed warm (2-vCPU Xeon): sparse 25 us + 6.4 ns a
# candidate pair, dense 8 us + 4.5 ns a pair; this rule 9.45 ms, best 9.39, dense 21.3.
SPARSE_MIN_PAIRS = 4096
SPARSE_RATIO = 4


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


class JetSpace:
    """Shared index tables for jets in ``nvars`` variables up to ``order``.

    ``exponents`` holds one row per slot, degree-major and lexicographic
    within a degree, built one variable at a time from the last: each first
    exponent a0 followed by the rows of degree <= order - a0 of the table in
    one variable fewer (a prefix of it), stably sorted by degree.  Every
    slot is found by its key, which ascends with it: ``slot(alpha)``, the
    products, the parent pointers, the derivative maps and ``unit_slots``.

    ``mul_i``, ``mul_j`` and ``mul_k`` list every pair of slots (i, j) with
    deg_i + deg_j <= order and the slot k of their product, stably sorted
    by deg_k; ``mul_end[d]``, C(d + 2n, 2n), counts the pairs with deg_k <= d,
    and ``pairs(d)`` cuts the three tables at that count, built per cut.
    """

    def __init__(self, nvars, order):
        if nvars < 1:
            raise ShapeMismatchError("a jet space needs at least one variable")
        if order < 0:
            raise ShapeMismatchError("jet order must be non-negative")
        radix = order + 1
        if radix ** (nvars + 1) > np.iinfo(np.int64).max:
            raise ShapeMismatchError(f"jet space ({nvars}, {order}) is too large to index")
        self.nvars, self.order = nvars, order
        exponents = np.arange(radix, dtype=np.int64)[:, None]
        for k in range(2, nvars + 1):
            counts = [math.comb(order - a0 + k - 1, k - 1) for a0 in range(radix)]
            exponents = np.column_stack((np.repeat(np.arange(radix, dtype=np.int64), counts),
                                         np.concatenate([exponents[:c] for c in counts])))
            exponents = exponents[np.argsort(exponents.sum(axis=1), kind="stable")]
        self.exponents = exponents
        self.size = len(exponents)
        self.degrees = exponents.sum(axis=1)
        self.prefix = np.searchsorted(self.degrees, range(order + 2)).tolist()  # of degree < d
        self.degree_of = [-1] + self.degrees.tolist()  # of a prefix's last slot, by its length

        # Keys: the mixed-radix numbers with digits (deg, alpha_1, ..., alpha_n)
        # in radix order + 1.  They ascend with the index, and since no digit
        # exceeds order they add without carries: key(alpha + beta) =
        # key(alpha) + key(beta) whenever deg(alpha + beta) <= order.
        keys = self.degrees
        for v in range(nvars):
            keys = keys * radix + exponents[:, v]
        self.keys = keys
        unit_keys = np.array([radix**nvars + radix ** (nvars - 1 - v) for v in range(nvars)])
        self.unit_slots = np.searchsorted(keys, unit_keys)  # of each e_v (past the end at order 0)

        # Pairs (i, j) with deg_i + deg_j <= d: the monomials of degree <= d in 2 n variables.
        self.mul_end = [math.comb(d + 2 * nvars, 2 * nvars) for d in range(radix)]
        self._pairs = [None] * radix  # per cut, once built: its tables and a scratch row

        # Parent pointers: every index of degree >= 1 equals parent + e_var,
        # with var its first nonzero exponent.
        parent_var = np.argmax(exponents > 0, axis=1)
        parent_index = np.searchsorted(keys, keys - unit_keys[parent_var])
        # As lists, which jet_compose walks row by row; row 0 has no parent.
        self.parent_var, self.parent_index = parent_var.tolist(), [0] + parent_index[1:].tolist()
        self.parents = np.array(self.parent_index)  # jet_compose marks parent chains with it
        self.zero_row = np.zeros(1)  # every float zero jet's one slot
        self.zero_row.flags.writeable = False

        # Per-variable differentiation maps: dst <- (alpha_v+1) * src, over
        # the indices alpha of degree < order (alpha + e_v stays in the space).
        dst = np.arange(self.prefix[order])
        self.diff_maps = [
            (dst, np.searchsorted(keys, keys[dst] + unit_keys[v]), exponents[dst, v] + 1)
            for v in range(nvars)
        ]

    def slot(self, alpha):
        """The slot of exponent ``alpha``, one number or array per variable
        (``exponents.T`` finds every row), found by its key.  KeyError, as for
        a dict lookup, for an exponent outside the space."""
        key = sum(alpha) if len(alpha) == self.nvars else -1
        bad = (not 0 <= key <= self.order or min(alpha) < 0) if type(key) is int else (
            np.min(key) < 0 or np.max(key) > self.order or np.min(alpha) < 0)  # ints: plain Python
        if bad:
            raise KeyError(alpha if np.ndim(key) else tuple(alpha))
        for a in alpha:
            key = key * (self.order + 1) + a
        return np.searchsorted(self.keys, key)

    def pairs(self, cut):
        """The tables cut at ``mul_end[cut]`` and a scratch row as long, built when a
        dense product first asks: a build serves every lower cut (their tables are its
        prefixes) and takes in every cut below SPARSE_MIN_PAIRS pairs, which always run dense."""
        if self._pairs[cut] is None:
            through = max(cut, bisect_left(self.mul_end, SPARSE_MIN_PAIRS) - 1)
            prefix = np.asarray(self.prefix)
            block_d = np.repeat(np.arange(through + 1), prefix[1:through + 2])
            block_i = np.concatenate([np.arange(count) for count in prefix[1:through + 2]])
            j_degree = block_d - self.degrees[block_i]
            start, count = prefix[j_degree], prefix[j_degree + 1] - prefix[j_degree]
            ends = np.cumsum(count)
            mul_i = np.repeat(block_i, count)
            mul_j = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
            mul_k = np.searchsorted(self.keys, self.keys[mul_i] + self.keys[mul_j])
            tables = (mul_i, mul_j, mul_k, np.empty(len(mul_i)))
            self._pairs[:through + 1] = [tuple(t[:end] for t in tables)
                                       for end in self.mul_end[:through + 1]]
        return self._pairs[cut]

    mul_i, mul_j, mul_k = (property(lambda self, t=t: self.pairs(self.order)[t]) for t in range(3))

    # Derived on demand: the library looks slots up by ``slot``.
    indices = property(lambda self: list(map(tuple, self.exponents.tolist())))
    index_of = property(lambda self: {alpha: i for i, alpha in enumerate(self.indices)})

    def truncation_length(self, order=None):  # the slots of degree <= order
        return self.prefix[self.order + 1 if order is None else min(order, self.order) + 1]

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _as_value(x, exact):
    if not exact:
        return float(x)
    if isinstance(x, (Fraction, int, float)):
        return Fraction(x)
    raise ExactModeError(f"cannot coerce {type(x).__name__} to a rational")


def any_row(mask):
    """Whether ``mask`` holds on some batch row (or, for one point, at all)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def check(bad, error):
    """Raise ``error()`` naming the batch rows where ``bad`` holds, if any."""
    if any_row(bad):
        err = error()
        err.rows = np.flatnonzero(bad) if np.ndim(bad) else None
        raise err


def vanishes(value, bound, tol):
    """Where |value| is not above ``tol`` times ``bound``, per batch row: the one
    degeneracy test.  A NaN or an infinite value vanishes too, so nothing is
    decided or solved from a number out of range."""
    return ~((np.abs(value) > tol * bound) & np.isfinite(value))


def hadamard(rows):
    """The product of the row norms on the last axis, per batch row."""
    return np.prod(np.linalg.norm(rows, axis=-1), axis=-1)


def first_failing(values, bad):
    """The value at the first batch row where ``bad`` holds, as a float."""
    return float(np.asarray(values)[bad][0])


def _rows(coeffs, index):
    """``index`` on the last axis of ``coeffs`` (plain for one point: faster)."""
    return index if coeffs.ndim == 1 else (Ellipsis, index)


def _zeros(shape, exact):
    """Exact zeros: +0.0, or Fraction(0) in an object array."""
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def fitted(coeffs, length):
    """``coeffs`` cut (a view) or padded with exact zeros to ``length`` slots
    on the last axis: a jet's slots past those it stores read as zeros."""
    if coeffs.shape[-1] >= length:
        return coeffs[..., :length] if coeffs.shape[-1] > length else coeffs
    out = _zeros(coeffs.shape[:-1] + (length,), coeffs.dtype.hasobject)
    out[..., :coeffs.shape[-1]] = coeffs
    return out


def _paired(op, a, b):
    """``op`` on the coefficients of ``a`` and ``b`` through their lower order, the
    shorter padded with exact zeros: as if both stored every slot through it."""
    ac, bc, order = a.coeffs, b.coeffs, a.order if a.order <= b.order else b.order
    if a.order != b.order or ac.shape[-1] != bc.shape[-1]:
        length = min(max(ac.shape[-1], bc.shape[-1]), a.space.prefix[order + 1])
        ac, bc = fitted(ac, length), fitted(bc, length)
    return Jet(a.space, op(ac, bc), order, zero=a.degree < 0 and b.degree < 0)


def _inverse(value, exact):
    """1 / value, exact or float, per batch row; DomainError when a value vanishes."""
    # Absolute on purpose: this guards the float division against overflow
    # to inf, not a geometric verdict, so it does not scale with the data.
    small = value == 0 if exact else abs(value) < 1e-300
    check(small, lambda: DomainError("division by a jet with vanishing value part"))
    return Fraction(1) / value if exact else 1.0 / value


def _product(sp, a, b, order, length, exact):
    """The first ``length`` slots of the product, truncated at ``order``, of
    one-point rows of ``sp`` (Fractions if ``exact``): the pairs landing at
    degree <= order, or only those of nonzero slots (each skipped term is an
    exact zero), found in (i, j) order so each slot still sums i ascending."""
    pairs = sp.mul_end[order]
    if exact or pairs >= SPARSE_MIN_PAIRS:
        top = sp.prefix[order + 1]
        i, j = np.flatnonzero(a[:top] != 0), np.flatnonzero(b[:top] != 0)
        if exact or SPARSE_RATIO * len(i) * len(j) < pairs:
            ii, jj = np.nonzero(sp.degrees[i, None] + sp.degrees[j] <= order)
            i, j = i[ii], j[jj]
            k = np.searchsorted(sp.keys, sp.keys[i] + sp.keys[j])
            if not exact:  # (bincount of no pairs would be an int array)
                return np.bincount(k, a[i] * b[j], length) if len(k) else np.zeros(length)
            out = _zeros(length, True)
            np.add.at(out, k, a[i] * b[j])
            return out
    # One factor is gathered into the space's row: two pair-sized
    # temporaries of a large space sit at the heap top, which glibc trims
    # after large frees, so each product could fault them back in (67,700
    # faults in one e8 classification; 5,300 with one temporary).
    mul_i, mul_j, mul_k, row = sp.pairs(order)
    prod = fitted(a, sp.prefix[order + 1]).take(mul_i, None, row, "clip")
    prod *= fitted(b, sp.prefix[order + 1])[mul_j]
    return np.bincount(mul_k, weights=prod, minlength=length)


def _batch_product(sp, a, b, order, length, exact=False):
    """:func:`_product` of float rows with batch axes, broadcast: row r's
    pairs land in the flat slots mul_k + length * r, in the one-point order."""
    mul_i, mul_j, mul_k, _ = sp.pairs(order)
    prod = fitted(a, sp.prefix[order + 1])[..., mul_i] * fitted(b, sp.prefix[order + 1])[..., mul_j]
    rows = prod.size // len(mul_k)
    slots = (np.arange(0, rows * length, length)[:, None] + mul_k).ravel()
    out = np.bincount(slots, weights=prod.ravel(), minlength=rows * length)
    return out.reshape(prod.shape[:-1] + (length,))


class Jet:
    """A truncated Taylor expansion in a fixed :class:`JetSpace`.

    ``order`` is the order through which the coefficients are meaningful (derivatives
    lose one); ``coeffs`` has shape (..., L), batch axes first, with L at most
    truncation_length(order).  One storage rule: ``degree`` is the degree of the last
    stored slot, worked out from L, and every slot from L on reads +0.0 with no sign
    (:func:`fitted`); only the value slot's zero sign is kept.  ``zero=True`` marks the
    zero jet, degree -1, which stores its value slot alone (``Jet.zero``).
    """

    __slots__ = ("space", "order", "coeffs", "exact", "degree")
    __array_ufunc__ = None  # ndarray operands (one number a row) defer to the jet

    def __init__(self, space, coeffs, order=None, *, zero=False):
        self.space = space
        self.order = order = space.order if order is None or order > space.order else order
        length = space.prefix[order + 1]
        self.coeffs = coeffs if coeffs.shape[-1] <= length else coeffs[..., :length]
        self.exact = coeffs.dtype.hasobject
        self.degree = -1 if zero else space.degree_of[self.coeffs.shape[-1]]

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(space, value, order=None, exact=False, batch=()):
        """The constant ``value``, a number over ``batch`` or one per row: one slot."""
        shape = value.shape if isinstance(value, np.ndarray) else batch
        coeffs = _zeros(shape + (1,), exact)
        coeffs[_rows(coeffs, 0)] = _as_value(value, exact) if exact else value
        return Jet(space, coeffs, order)

    @staticmethod
    def zero(space, order=None, batch=(), exact=False):
        """The zero jet, one slot: a float one is its space's read-only zero row (a view: 3 us)."""
        row = _zeros((1,), True) if exact else space.zero_row
        return Jet(space, np.broadcast_to(row, batch + (1,)) if batch else row, order, zero=True)

    @staticmethod
    def variable(space, var, value, order=None, exact=False):
        jet = Jet.constant(space, value, order, exact)
        if jet.order >= 1:
            coeffs = fitted(jet.coeffs, space.nvars + 1)
            coeffs[..., space.unit_slots[var]] = Fraction(1) if exact else 1.0
            jet = Jet(space, coeffs, jet.order)
        return jet

    @staticmethod
    def coordinates(space, point, order=None, exact=False):
        """Coordinate jets at ``point``, or at each row of an (..., nvars) array."""
        point = np.moveaxis(point, -1, 0) if np.ndim(point) > 1 else point
        return [Jet.variable(space, v, point[v], order, exact) for v in range(space.nvars)]

    # -- basic accessors ----------------------------------------------

    @property
    def value(self):
        """The value part: a number, or an array with one per batch row."""
        coeffs = self.coeffs
        return coeffs[0] if coeffs.ndim == 1 else coeffs[..., 0]

    def coefficient(self, alpha):
        """The coefficient of exponent ``alpha``: an exact zero past the stored slots."""
        s, c = self.space.slot(alpha), self.coeffs
        return np.where(s < c.shape[-1], c.take(s, -1, mode="clip"), _zeros((), self.exact))[()]

    def to_float(self):
        if not self.exact:
            return self
        return Jet(self.space, self.coeffs.astype(float), self.order, zero=self.degree < 0)

    def truncated(self, order):
        """This jet cut at ``order``: a view of its coefficients."""
        return self if order >= self.order else Jet(self.space, self.coeffs, order,
                                                   zero=self.degree < 0)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ShapeMismatchError("jets live in different spaces")
            if self.exact and not other.exact:
                return self.to_float(), other
            if other.exact and not self.exact:
                return self, other.to_float()
            return self, other
        if isinstance(other, (int, float, Fraction)):
            return self, Jet.constant(self.space, other, self.order, self.exact)
        return self, NotImplemented

    def _scalar(self, other):
        """``other`` as a float when this is a float jet and ``other`` an int
        or a float (numpy float64 included, bool not), or an ndarray of one
        number per batch row; else None.  Such a number meets the jet
        directly instead of as a constant jet."""
        if self.exact:
            return None
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return float(other)
        return other if isinstance(other, np.ndarray) else None

    def __add__(self, other):
        a, b = self, other
        if type(b) is not Jet or b.space is not a.space or a.exact or b.exact:
            c = self._scalar(other)
            if c is not None:
                # A constant jet adds 0.0 to every slot but the value part;
                # the + 0.0 only turns -0.0 into 0.0, so it stops at the stored slots.
                out = self.coeffs + 0.0
                head = _rows(out, 0)
                out[head] = self.coeffs[head] + c
                return Jet(self.space, out, self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        return _paired(np.add, a, b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, other
        if type(b) is not Jet or b.space is not a.space or a.exact or b.exact:
            c = self._scalar(other)
            if c is not None:
                out = self.coeffs.copy()
                out[_rows(out, 0)] -= c
                return Jet(self.space, out, self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        return _paired(np.subtract, a, b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order, zero=self.degree < 0)

    def __mul__(self, other):
        a, b = self, other
        if type(b) is not Jet or b.space is not a.space or a.exact or b.exact:
            c = self._scalar(other)
            if c is not None:
                return self._scaled(c[..., None] if isinstance(c, np.ndarray) else c, self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        order = a.order if a.order <= b.order else b.order
        sp, ac, bc = a.space, a.coeffs, b.coeffs
        da, db = a.degree, b.degree
        if da < 0 or db < 0:  # a zero factor skips every pair, so 0 * inf makes no NaN
            axes = np.broadcast(ac[..., 0], bc[..., 0]).shape if ac.ndim + bc.ndim > 2 else ()
            return Jet.zero(sp, order, axes, a.exact)
        if da < 1 or db < 1:
            c, x = (a, b) if da <= db else (b, a)
            return x._scaled(c.coeffs[0] if c.coeffs.ndim == 1 else c.coeffs[..., :1], order)
        cut = da + db if da + db < order else order
        product = _batch_product if ac.ndim > 1 or bc.ndim > 1 else _product
        return Jet(sp, product(sp, ac, bc, cut, sp.prefix[cut + 1], a.exact), order)

    __rmul__ = __mul__

    def _scaled(self, c, order):
        """This jet cut at ``order`` times the number ``c`` (per batch row if an array), as a
        constant factor: x_k c + 0, +0.0 past the stored slots, NaN at zeros if c is inf or NaN."""
        x, finite = self.coeffs, self.exact or (
            np.isfinite(c).all() if isinstance(c, np.ndarray) else math.isfinite(c))
        end = self.space.prefix[order + 1]
        out = (x if finite and x.shape[-1] <= end else fitted(x, end)) * c
        return Jet(self.space, np.add(out, 0, out=out), order, zero=finite and self.degree < 0)

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            # The reciprocal of a constant jet is the constant 1 / c.
            return self * _inverse(_as_value(other, self.exact), self.exact)
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("jet powers take non-negative integer exponents")
        if exponent == 0:
            return Jet.constant(self.space, 1, self.order, self.exact, self.coeffs.shape[:-1])
        if exponent == 1:
            return self * 1  # free of -0.0, like every product
        # Square and multiply from the low bit.  The first factor taken
        # enters as it is: a product reads no slot past its order and no
        # zero's sign shows in its sums, so no multiplication by one.
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def reciprocal(self):
        # b = v (1 + u) with u nilpotent: 1/b = (1/v) sum (-u)^k.
        inv = _inverse(self.value, self.exact)
        u = self._nilpotent() * inv
        term = w = -u  # term * w is -(term * u) but for the signs of zeros, which acc never shows
        acc = term + 1
        # With u = 0 every further term is zero, which adds nothing.
        for _ in range(self.order - 1 if u.degree >= 0 else 0):
            term = term * w
            acc = acc + term
        return acc * inv

    def _nilpotent(self):
        """This jet less its value part: the zero jet for a constant."""
        if self.degree < 1:
            return Jet.zero(self.space, self.order, self.coeffs.shape[:-1], self.exact)
        u = self.coeffs.copy()
        u[_rows(u, 0)] = 0
        return Jet(self.space, u, self.order)

    # -- calculus ------------------------------------------------------

    def derivative(self, var):
        if self.order < 1:
            raise ShapeMismatchError("cannot differentiate an order-0 jet")
        sp, order, coeffs = self.space, self.order, self.coeffs
        _, src, fac = sp.diff_maps[var]
        top = self.degree if self.degree > 0 else 0
        end = sp.prefix[top] if coeffs.shape[-1] == sp.prefix[top + 1] else np.searchsorted(
            src, coeffs.shape[-1])  # src ascends: gather the stored slots' images only
        if not end:  # a constant
            return Jet.zero(sp, order - 1, coeffs.shape[:-1], self.exact)
        return Jet(sp, coeffs[_rows(coeffs, src[:end])] * fac[:end], order - 1)

    # -- analytic functions --------------------------------------------

    def _analytic(self, coefficient, what=None):
        """Compose with a univariate analytic germ whose k-th Taylor
        coefficient at a value v is ``coefficient(v, k)``, run on each row's
        value as a Python float (Horner over the nilpotent part).  DomainError,
        naming its rows: a coefficient that raises or is out of float range
        or, with ``what``, a value part <= 0."""
        v = self.value
        bad = what is not None and v <= 0
        check(bad, lambda: DomainError(f"{what} of non-positive value {first_failing(v, bad)}"))
        if self.exact:
            raise ExactModeError("elementary functions are not available in exact mode")
        batch = isinstance(v, np.ndarray)

        def series(x):
            try:
                return [coefficient(x, k) for k in range(self.order + 1)]
            except (ArithmeticError, ValueError):  # overflow, underflow to a divisor, math domain
                return [math.nan] * (self.order + 1)

        rows = [series(x) for x in (v.ravel().tolist() if batch else [float(v)])]
        bad = ~np.isfinite(rows).all(axis=-1).reshape(np.shape(v))
        check(bad, lambda: DomainError(
            f"Taylor coefficients out of float range at value {first_failing(v, bad)}"))
        taylor_coeffs = list(np.array(rows).T.reshape((-1,) + v.shape)) if batch else rows[0]
        if self.order == 0:  # no nilpotent part: Horner would return a number
            return Jet.constant(self.space, taylor_coeffs[0], 0)
        u = self._nilpotent()
        acc = taylor_coeffs[-1]
        for c in reversed(taylor_coeffs[:-1]):
            acc = acc * u + c
        return acc

    def sin(self):
        return self._analytic(lambda v, k: (
            math.sin(v), math.cos(v), -math.sin(v), -math.cos(v))[k % 4] / math.factorial(k))

    def cos(self):
        return self._analytic(lambda v, k: (
            math.cos(v), -math.sin(v), -math.cos(v), math.sin(v))[k % 4] / math.factorial(k))

    def exp(self):
        return self._analytic(lambda v, k: math.exp(v) / math.factorial(k))

    def log(self):
        return self._analytic(
            lambda v, k: (-1) ** (k - 1) / (k * v**k) if k else math.log(v), "log")

    def sqrt(self):
        return self.fractional_power(0.5)

    def fractional_power(self, exponent):
        c = [1.0]  # c_k = prod_{j < k} (exponent - j) / (j + 1)
        for k in range(self.order):
            c.append(c[-1] * ((exponent - k) / (k + 1)))
        return self._analytic(lambda v, k: c[k] * v ** (exponent - k), "fractional power")

    def __repr__(self):
        batch = f"batch={self.coeffs.shape[:-1]}, " if self.coeffs.ndim > 1 else ""
        slots = np.moveaxis(fitted(self.coeffs, 6), -1, 0)  # each slot's values over the batch
        head = ", ".join(f"{a}:{c}" for a, c in zip(self.space.indices[:6], slots))
        return f"Jet(order={self.order}, {batch}[{head}{', ...' if self.space.size > 6 else ''}])"


def jet_compose(outer, inner):
    """Taylor expansion of the composition outer(inner_1, ..., inner_m).

    ``inner`` is one jet per outer variable, sharing a space, batch shape
    and base points, their value parts at the outer base point.  ``outer``
    may carry batch axes too, broadcast against the inner ones, so outer
    jets that share an inner map compose in one call.  The result is
    truncated at the minimum of the participating orders.

    One table holds the monomials of the displacements u_i = inner_i -
    value_i that a nonzero outer coefficient reads, with their parents: a row
    each, then the inner batch axes, a column per inner slot through the
    order; a row is its parent's row times one u_i, cut at its bound (its
    exponents times the u_i's top degrees over the batch).  Each result slot
    sums outer coefficient times table entry over the rows read strictly left
    to right from 0.0, in chunks: bit-identical, for finite data, to adding
    the jets monomial_i * c_i one by one to a zero jet.
    """
    if len(inner) != outer.space.nvars:  # a space has at least one variable
        raise ShapeMismatchError(f"outer jet takes {outer.space.nvars} arguments, got {len(inner)}")
    sp, batch = inner[0].space, inner[0].coeffs.shape[:-1]
    if any(jet.space is not sp or jet.coeffs.shape[:-1] != batch for jet in inner):
        raise ShapeMismatchError("inner jets must share a space and a batch shape")
    order = min([outer.order] + [jet.order for jet in inner])
    exact = outer.exact and all(jet.exact for jet in inner)
    if not exact:
        outer, inner = outer.to_float(), [jet.to_float() for jet in inner]

    osp = outer.space
    limit, live = osp.truncation_length(order), sp.truncation_length(order)
    zero = Fraction(0) if exact else 0.0
    us = [np.array(fitted(jet.coeffs, live)) for jet in inner]
    for u in us:
        u[..., 0] = zero
    # Slots ascend in degree, so the last nonzero one has the top degree.
    seen = [u.reshape(-1, live).any(axis=0) if batch else u for u in us]
    tops = np.array([sp.degrees[nz[-1]] if len(nz := u.nonzero()[0]) else -1 for u in seen])
    # Row i's bound: alpha_i . tops cut at the order, -1 where alpha_i takes a zero u_v.
    exponents = osp.exponents[:limit]
    degrees = np.minimum(exponents @ tops, order)
    degrees[(exponents[:, tops < 0] > 0).any(axis=1)] = -1
    # The rows a term reads, and their parent chains, degree by degree down.
    coeffs = fitted(outer.coeffs, limit)
    reads = (coeffs != 0).reshape(-1, limit).any(axis=0) & (degrees >= 0)
    reads[0] = True  # always read: with a zero coefficient its term adds only zeros
    built = reads.copy()
    for d in range(order, 0, -1):
        lo, hi = osp.prefix[d], osp.prefix[d + 1]
        built[osp.parents[lo:hi][built[lo:hi]]] = True
    rows, at = np.flatnonzero(built), np.cumsum(built) - 1
    table = np.full((len(rows),) + batch + (live,), zero, dtype=object if exact else float)
    table[0, ..., 0] = 1
    product = _batch_product if batch else _product
    for r, i in enumerate(rows[1:], 1):
        u, parent = us[osp.parent_var[i]], osp.parent_index[i]
        table[r] = u if parent == 0 else product(sp, table[at[parent]], u, degrees[i], live, exact)
    # Two chunks of terms are alive at once, together no larger than the table.
    reads = np.flatnonzero(reads)
    step = max(1, len(rows) // max(2, 2 * outer.coeffs[..., 0].size))
    table = np.moveaxis(table, 0, -2) if batch else table
    acc = zero
    for start in range(0, len(reads), step):
        chunk = reads[start:start + step]
        terms = coeffs[..., chunk, None] * table[..., at[chunk], :]
        terms[..., 0, :] += acc
        acc = np.add.accumulate(terms, axis=-2, out=terms)[..., -1, :]
    top = int(degrees.max())  # past it every slot summed zeros from +0.0: +0.0
    return Jet(sp, acc[..., :sp.prefix[top + 1]].copy(), order)  # ``terms`` is a chunk long


def fixed_point(step, start, order, settled):
    """The fixed point of ``step`` through ``order``, and the increment of
    its last pass.  ``step(x, d)`` returns a jet of order d, exact through
    degree d where ``x`` is through d - 1; ``start`` is exact through
    ``settled``.  Pass k works at order settled + k, then a last pass at
    ``order`` gives the increment.  A product sums a slot over the same pairs
    at any order, so the result is bit-identical to full-order passes."""
    x = start
    for d in range(settled + 1, order + 1):
        x = step(x, d)
    last = step(x, order)
    return last, last - x


def stacked(jets):
    """Jets of one space as the batch rows of one jet, cut to their lowest order, padded."""
    order = min(j.order for j in jets)
    length = min(max(j.coeffs.shape[-1] for j in jets), jets[0].space.prefix[order + 1])
    return Jet(jets[0].space, np.stack([fitted(j.coeffs, length) for j in jets]), order,
               zero=all(j.degree < 0 for j in jets))


def unstacked(jet):
    """The rows of a jet with one batch axis, as one-point jets."""
    return [Jet(jet.space, row, jet.order, zero=jet.degree < 0) for row in jet.coeffs]


def jet_dot(a, b):
    """sum_k a_k * b_k over paired jets or numbers, summed left to right from
    the first product (no zero jet to start from), leaving out zero terms:
    adding one to a sum, which holds no -0.0, only masks it.  As in the padded
    sum, the lowest order of all terms cuts and their batch shapes broadcast."""
    acc = zero = None
    for x, y in zip(a, b):
        term = x * y
        if term.degree >= 0:
            acc = term if acc is None else acc + term
        elif zero is None or term.order < zero.order and term.coeffs.shape == zero.coeffs.shape:
            zero = term
        elif term.coeffs.shape != zero.coeffs.shape:
            zero = zero + term  # the zero jet of the lower order and the broadcast shape
    if acc is None or zero is None:
        return acc if zero is None else zero
    cut = zero.order < acc.order or zero.coeffs.shape[:-1] != acc.coeffs.shape[:-1]
    return acc + zero if cut else acc


def jet_hessian(jet, m):
    """Second partial derivatives at the base point in the first ``m``
    variables, as an m x m float array (from the normalized second
    coefficients: an off-diagonal one as it is, a diagonal one doubled)."""
    unit = np.eye(jet.space.nvars, dtype=np.int64)[:m]
    second = jet.coefficient(np.moveaxis(unit[:, None] + unit[None, :], -1, 0))  # of e_i + e_j
    return np.asarray(second, dtype=float) * (1.0 + np.eye(m))


def signed_columns(vectors):
    """``vectors`` with each column negated where its first entry of largest
    magnitude is negative: one sign for the eigenvectors ``eigh`` returns."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0, -vectors, vectors)


def vec_values(jets):
    """Value parts of a list of jets, or of nested lists, batch axes first."""
    values = np.array([vec_values(j) if isinstance(j, list) else j.value for j in jets],
                      dtype=float)
    leaf = jets[0]
    while isinstance(leaf, list):
        leaf = leaf[0]
    return np.moveaxis(values, 0, leaf.coeffs.ndim - 1) if leaf.coeffs.ndim > 1 else values


def partial_values(jets):
    """Values of the first partials D_i of each jet, as rows i, batch axes first:
    the degree-1 slots, bitwise ``jets[j].derivative(i).value`` (+0.0 for a constant)."""
    return np.stack([fitted(c.coeffs, c.space.nvars + 1)[..., c.space.unit_slots]
                     for c in jets], axis=-1)


def value_dot(a, b):
    """Row-wise a . b, each the 1-D ``a @ b`` of contiguous rows (strided BLAS dots pair terms)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _select(mask, a, b):
    """Per batch row, the jet ``a`` where ``mask`` holds and ``b`` elsewhere.
    A batch shares one order, the lower of the two, so a per-row choice is
    bit-identical to one point where the jets it chooses between share
    their order, as the entries of a frame's matrices do."""
    return _paired(lambda x, y: np.where(np.asarray(mask)[..., None], x, y), a, b)


def _at(values, index):
    """values[index] on the first axis, ``index`` an index or one per batch row."""
    if isinstance(index, np.ndarray):
        return np.take_along_axis(values, index[None], 0)[0]
    return values[index]


def _swap_rows(a, col, pivot, sign, scales):
    """Swap row ``col`` of the jet matrix ``a`` (and of ``scales``) with row
    ``pivot``, one index or one per batch row; ``sign`` negated per swap."""
    swap = pivot != col
    if not any_row(swap):
        return sign
    if not isinstance(pivot, np.ndarray):
        a[col], a[pivot] = a[pivot], a[col]
        scales[col], scales[pivot] = scales[pivot], scales[col]
        return -sign
    for r in range(col + 1, len(a)):
        take = pivot == r
        if take.any():
            a[col], a[r] = ([_select(take, y, x) for x, y in zip(a[col], a[r])],
                            [_select(take, x, y) for x, y in zip(a[col], a[r])])
            scales[[col, r]] = np.where(take, scales[[r, col]], scales[[col, r]])
    return np.where(swap, -sign, sign)


def jet_solve(matrix, rhs):
    """Solve A x = b over the jet ring (partial pivoting on value parts,
    ties to the lowest row, per batch row).

    ``rhs`` may be a vector (list of jets), a matrix (list of columns) or
    empty, for the determinant alone.  Returns (solution, determinant jet).
    Raises SingularBasisError when a pivot's value part vanishes against
    ``_PIVOT_EPS`` times the largest value part in its column of A and in
    its row of A, so a basis with badly scaled columns solves while a
    column at rounding level still raises.
    """
    m = len(matrix)
    vector = bool(rhs) and not isinstance(rhs[0], list)
    columns = [rhs] if vector else rhs
    a = [row[:] + [col[r] for col in columns] for r, row in enumerate(matrix)]
    values = np.abs([[entry.value for entry in row] for row in matrix])
    col_scales = values.max(axis=0)
    row_scales = values.max(axis=1)
    det = None
    sign = 1
    for col in range(m):
        column = np.abs([row[col].value for row in a[col:]])
        best = column.argmax(axis=0)
        pivot_row = col + best
        scale = np.maximum(col_scales[col], _at(row_scales, pivot_row))
        check(vanishes(_at(column, best), scale, _PIVOT_EPS),
              lambda: SingularBasisError("jet solve: singular value part"))
        sign = _swap_rows(a, col, pivot_row, sign, row_scales)
        pivot = a[col][col]
        det = pivot if det is None else det * pivot
        inv = pivot.reciprocal()
        # Columns up to the pivot's are eliminated and never read again.
        a[col][col + 1:] = [entry * inv for entry in a[col][col + 1:]]
        for r in range(m):
            if r == col:
                continue
            factor = a[r][col]
            live = factor.coeffs.any(axis=-1)
            if not any_row(live):
                continue
            new = [x - factor * y for x, y in zip(a[r][col + 1:], a[col][col + 1:])]
            a[r][col + 1:] = new if not isinstance(live, np.ndarray) or live.all() else [
                _select(live, y, x) for x, y in zip(a[r][col + 1:], new)]
    neg = sign == -1
    if any_row(neg):
        det = _select(neg, -det, det) if isinstance(neg, np.ndarray) else -det
    solution = [[a[r][m + k] for r in range(m)] for k in range(len(columns))]
    return (solution[0] if vector else solution), det


def jet_det(matrix):
    """Determinant of a square matrix of jets, per batch row: the one
    :func:`jet_solve` reads off its pivots, with its singularity check."""
    return jet_solve(matrix, [])[1]
