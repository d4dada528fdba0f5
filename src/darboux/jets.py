"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients of a smooth function at a base point,
up to a fixed total order.  The coefficient attached to a multi-index a is
the normalized derivative  (d^a f)(p) / a!,  so polynomial identities hold
coefficientwise.  Jets form a commutative ring under truncated addition
and multiplication; jets with a nonzero value part are invertible.

Coefficients are stored in a dense vector ordered degree-major and
lexicographically within each degree.  Two modes are supported: float64,
and exact rational (``fractions.Fraction`` in an object array) for
polynomial data.

Products are order-aware.  Each space keeps one table of coefficient pairs,
sorted by the degree of the slot they land in, so the pairs a product
truncated at order d needs form a prefix of the table, one prefix per
result order.  The sort is stable: within a degree the pairs keep their
(i, j) order, so every slot sums its pairs in the same order whichever
prefix runs, and a float product is bit-identical to one over the whole
table.

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

Batches.  ``coeffs`` has shape ``(..., size)``: batch axes first and the
coefficient axis last, as numpy's generalized ufuncs lay out a core
dimension (vector-mode Taylor arithmetic, Griewank & Walther, *Evaluating
Derivatives*, ch. 13); one point has batch shape ().  A batch row is
bit-identical to its point alone: a batched product is one bincount over
the slots ``mul_k + size * row``, summing each slot's pairs in the
one-point order, and elementary functions take their value-part series
per row in Python floats (numpy's vectorized exp and power differ from
libm's in the last bit).  ``jet_solve`` chooses its pivots per row, and a
failing check names its rows in ``error.rows``; ``jet_det`` takes one
point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    DomainError,
    ExactModeError,
    ShapeMismatchError,
    SingularBasisError,
)

_PIVOT_EPS = 1e-13


def _monomials(nvars, degree):
    """Exponent tuples of total degree ``degree``, lexicographically ascending."""
    if degree == 0:
        return [(0,) * nvars]
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for v in combo:
            alpha[v] += 1
        out.append(tuple(alpha))
    return sorted(set(out))


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


class JetSpace:
    """Shared index tables for jets in ``nvars`` variables up to ``order``.

    ``mul_i``, ``mul_j`` and ``mul_k`` list every pair of slots (i, j) with
    deg_i + deg_j <= order and the slot k of their product, stably sorted
    by deg_k; ``mul_end[d]`` counts the pairs with deg_k <= d, and
    ``mul_prefix[d]`` holds the three tables cut at that count.
    """

    def __init__(self, nvars, order):
        if nvars < 1:
            raise ShapeMismatchError("a jet space needs at least one variable")
        if order < 0:
            raise ShapeMismatchError("jet order must be non-negative")
        self.nvars = nvars
        self.order = order
        indices = []
        self.prefix = [0]  # prefix[d] = #indices with degree < d ... cumulative
        for d in range(order + 1):
            indices.extend(_monomials(nvars, d))
            self.prefix.append(len(indices))
        self.indices = indices
        self.size = len(indices)
        self.index_of = {alpha: i for i, alpha in enumerate(indices)}
        exponents = np.array(indices, dtype=np.int64)
        self.degrees = exponents.sum(axis=1)

        # Keys: the mixed-radix numbers with digits (deg, alpha_1, ..., alpha_n)
        # in radix order + 1.  They ascend with the index, and since no digit
        # exceeds order they add without carries: key(alpha + beta) =
        # key(alpha) + key(beta) whenever deg(alpha + beta) <= order.
        radix = order + 1
        if radix ** (nvars + 1) > np.iinfo(np.int64).max:
            raise ShapeMismatchError(f"jet space ({nvars}, {order}) is too large to index")
        keys = self.degrees
        for v in range(nvars):
            keys = keys * radix + exponents[:, v]
        unit_keys = np.array([radix**nvars + radix ** (nvars - 1 - v) for v in range(nvars)])

        # Multiplication table, ordered by target degree d and within it by
        # (i, j): for d = 0..order, for every i of degree <= d, j runs over
        # the indices of degree d - deg_i.  This is the stable sort by target
        # degree of the (i, j)-ordered table of all pairs, so every slot sums
        # its pairs in the same order whichever prefix [:mul_end[d]] runs.
        prefix = np.asarray(self.prefix)
        block_d = np.repeat(np.arange(radix), prefix[1:])
        block_i = np.concatenate([np.arange(count) for count in prefix[1:]])
        j_degree = block_d - self.degrees[block_i]
        start, count = prefix[j_degree], prefix[j_degree + 1] - prefix[j_degree]
        ends = np.cumsum(count)
        self.mul_i = np.repeat(block_i, count)
        self.mul_j = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
        self.mul_k = np.searchsorted(keys, keys[self.mul_i] + keys[self.mul_j])
        self.mul_end = ends[np.cumsum(prefix[1:]) - 1].tolist()
        self.mul_prefix = [
            (self.mul_i[:end], self.mul_j[:end], self.mul_k[:end]) for end in self.mul_end
        ]
        # Jet.__mul__ gathers the first factor of a float product into this
        # row, cut like mul_prefix.
        scratch = np.empty(len(self.mul_i))
        self.mul_rows = [scratch[:end] for end in self.mul_end]

        # Parent pointers: every index of degree >= 1 equals parent + e_var,
        # with var its first nonzero exponent.
        self.parent_var = np.zeros(self.size, dtype=np.int64)
        for v in reversed(range(nvars)):
            self.parent_var[exponents[:, v] > 0] = v
        self.parent_index = np.searchsorted(keys, keys - unit_keys[self.parent_var])
        self.parent_index[0] = 0

        # Per-variable differentiation maps: dst <- (alpha_v+1) * src, over
        # the indices alpha of degree < order (alpha + e_v stays in the space).
        dst = np.arange(self.prefix[order])
        self.diff_maps = [
            (dst, np.searchsorted(keys, keys[dst] + unit_keys[v]), exponents[dst, v] + 1)
            for v in range(nvars)
        ]

    def truncation_length(self, order):
        return self.prefix[min(order, self.order) + 1]

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _as_value(x, exact):
    if exact:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x)
        raise ExactModeError(f"cannot coerce {type(x).__name__} to a rational")
    return float(x)


def any_row(mask):
    """Whether ``mask`` holds on some batch row (or, for one point, at all)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def check(bad, error):
    """Raise ``error()`` naming the batch rows where ``bad`` holds, if any."""
    if any_row(bad):
        err = error()
        err.rows = np.flatnonzero(bad) if np.ndim(bad) else None
        raise err


def first_failing(values, bad):
    """The value at the first batch row where ``bad`` holds, as a float."""
    return float(np.asarray(values)[bad][0])


def _rows(coeffs, index):
    """``index`` on the last axis of ``coeffs`` (plain for one point: faster)."""
    return index if coeffs.ndim == 1 else (Ellipsis, index)


def _inverse(value, exact):
    """1 / value, exact or float, per batch row; DomainError when a value vanishes."""
    small = value == 0 if exact else abs(value) < 1e-300
    check(small, lambda: DomainError("division by a jet with vanishing value part"))
    return Fraction(1) / value if exact else 1.0 / value


class Jet:
    """A truncated Taylor expansion in a fixed :class:`JetSpace`.

    ``order`` is the order through which the coefficients are meaningful;
    it may be lower than the space order (derivatives lose one order).
    ``coeffs`` has shape (..., space.size), with any batch axes first.
    """

    __slots__ = ("space", "order", "coeffs", "exact")
    __array_ufunc__ = None  # ndarray operands (one number a row) defer to the jet

    def __init__(self, space, coeffs, order=None):
        self.space = space
        self.order = space.order if order is None or order > space.order else order
        self.coeffs = coeffs
        self.exact = coeffs.dtype.hasobject

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(space, value, order=None, exact=False, batch=()):
        """The constant ``value``, a number over ``batch`` or one per row."""
        if exact:
            coeffs = np.array([Fraction(0)] * space.size, dtype=object)
            coeffs[0] = _as_value(value, exact)
        else:
            shape = value.shape if isinstance(value, np.ndarray) else batch
            coeffs = np.zeros(shape + (space.size,))
            coeffs[_rows(coeffs, 0)] = value
        return Jet(space, coeffs, order)

    @staticmethod
    def variable(space, var, value, order=None, exact=False):
        jet = Jet.constant(space, value, order, exact)
        if jet.order >= 1:
            one = Fraction(1) if exact else 1.0
            jet.coeffs[..., space.index_of[tuple(int(k == var) for k in range(space.nvars))]] = one
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
        return self.coeffs[_rows(self.coeffs, self.space.index_of[tuple(alpha)])]

    def to_float(self):
        if not self.exact:
            return self
        return Jet(self.space, self.coeffs.astype(float), self.order)

    def truncated(self, order):
        if order >= self.order:
            return self
        out = self.coeffs.copy()
        out[..., self.space.truncation_length(order):] = 0
        return Jet(self.space, out, order)

    def _zero_like(self, order):
        if self.exact:
            return np.array([Fraction(0)] * self.space.size, dtype=object)
        return np.zeros(self.coeffs.shape)

    def _mask(self, coeffs, order):
        space = self.space
        if order < space.order:
            coeffs[..., space.prefix[order + 1]:] = 0
        return coeffs

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
                # the + 0.0 only turns -0.0 into 0.0.
                out = self.coeffs + 0.0
                head = _rows(out, 0)
                out[head] = self.coeffs[head] + c
                return Jet(self.space, self._mask(out, self.order), self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        order = a.order if a.order <= b.order else b.order
        return Jet(a.space, a._mask(a.coeffs + b.coeffs, order), order)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, other
        if type(b) is not Jet or b.space is not a.space or a.exact or b.exact:
            c = self._scalar(other)
            if c is not None:
                out = self.coeffs.copy()
                out[_rows(out, 0)] -= c
                return Jet(self.space, self._mask(out, self.order), self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        order = a.order if a.order <= b.order else b.order
        return Jet(a.space, a._mask(a.coeffs - b.coeffs, order), order)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order)

    def __mul__(self, other):
        a, b = self, other
        if type(b) is not Jet or b.space is not a.space or a.exact or b.exact:
            c = self._scalar(other)
            if c is not None:
                # In the constant-jet product every slot sums 0.0, its own
                # a_k * c and products with zeros; for finite data that is
                # a_k * c + 0.0, the + 0.0 only turning -0.0 into 0.0.
                out = self.coeffs * (c[..., None] if isinstance(c, np.ndarray) else c)
                out += 0.0
                return Jet(self.space, self._mask(out, self.order), self.order)
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
            if a.exact:
                return a._exact_product(b)
        order = a.order if a.order <= b.order else b.order
        sp = a.space
        # The table prefix holds exactly the pairs landing at degree <= order,
        # so nothing past the result order is written and no mask is needed.
        mul_i, mul_j, mul_k = sp.mul_prefix[order]
        ac, bc = a.coeffs, b.coeffs
        if ac.ndim > 1 or bc.ndim > 1:
            # Row r's pairs land in the flat slots mul_k + size * r.
            prod = ac[..., mul_i] * bc[..., mul_j]
            rows = prod.size // len(mul_k)
            slots = (np.arange(0, rows * sp.size, sp.size)[:, None] + mul_k).ravel()
            out = np.bincount(slots, weights=prod.ravel(), minlength=rows * sp.size)
            return Jet(sp, out.reshape(prod.shape[:-1] + (sp.size,)), order)
        # One factor is gathered into the space's row: two pair-sized
        # temporaries of a large space sit at the heap top, which glibc trims
        # after large frees, so each product could fault them back in (67,700
        # faults in one e8 classification; 5,300 with one temporary).
        prod = ac.take(mul_i, None, sp.mul_rows[order], "clip")
        prod *= bc[mul_j]
        return Jet(sp, np.bincount(mul_k, weights=prod, minlength=sp.size), order)

    def _exact_product(self, other):
        order = min(self.order, other.order)
        mul_i, mul_j, mul_k = self.space.mul_prefix[order]
        a, b = self.coeffs[mul_i], other.coeffs[mul_j]
        # Rational products are costly and polynomial data is sparse.
        live = (a != 0) & (b != 0)
        out = self._zero_like(order)
        np.add.at(out, mul_k[live], a[live] * b[live])
        return Jet(self.space, out, order)

    __rmul__ = __mul__

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
            return self * 1  # masked and free of -0.0, like every product
        # Square and multiply from the low bit.  The first factor taken
        # enters as it is: a product reads no slot past its order and no
        # zero's sign shows in its sums, so no multiplication by one.
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def reciprocal(self):
        # b = v (1 + u) with u nilpotent: 1/b = (1/v) sum (-u)^k.
        inv = _inverse(self.value, self.exact)
        u = Jet(self.space, self._mask(self.coeffs.copy(), self.order), self.order)
        u.coeffs[_rows(u.coeffs, 0)] = 0
        u = u * inv
        term = -u
        acc = term + 1
        for _ in range(self.order - 1):
            term = -(term * u)
            acc = acc + term
        return acc * inv

    # -- calculus ------------------------------------------------------

    def derivative(self, var):
        if self.order < 1:
            raise ShapeMismatchError("cannot differentiate an order-0 jet")
        dst, src, fac = self.space.diff_maps[var]
        out = self._zero_like(self.order - 1)
        if out.ndim > 1:
            dst, src = (Ellipsis, dst), (Ellipsis, src)
        out[dst] = self.coeffs[src] * fac
        return Jet(self.space, self._mask(out, self.order - 1), self.order - 1)

    def antiderivative(self, var):
        """Coefficientwise antiderivative with zero constant term."""
        if self.order >= self.space.order:
            raise ShapeMismatchError("no room for the antiderivative order")
        dst, src, fac = self.space.diff_maps[var]
        out = self._zero_like(self.order + 1)
        if out.ndim > 1:
            dst, src = (Ellipsis, dst), (Ellipsis, src)
        out[src] = self.coeffs[dst] / fac
        return Jet(self.space, self._mask(out, self.order + 1), self.order + 1)

    # -- analytic functions --------------------------------------------

    def _analytic(self, coefficient, what=None):
        """Compose with a univariate analytic germ whose k-th Taylor
        coefficient at a value v is ``coefficient(v, k)``, run on each row's
        value as a Python float (Horner over the nilpotent part).  With
        ``what``, a non-positive value part raises DomainError first."""
        v = self.value
        bad = what is not None and v <= 0
        check(bad, lambda: DomainError(f"{what} of non-positive value {first_failing(v, bad)}"))
        if self.exact:
            raise ExactModeError("elementary functions are not available in exact mode")
        if isinstance(v, np.ndarray):
            rows = [[coefficient(x, k) for k in range(self.order + 1)] for x in v.ravel().tolist()]
            taylor_coeffs = list(np.array(rows).T.reshape((-1,) + v.shape))
        else:
            taylor_coeffs = [coefficient(float(v), k) for k in range(self.order + 1)]
        if self.order == 0:  # no nilpotent part: Horner would return a number
            return Jet.constant(self.space, taylor_coeffs[0], 0)
        u = Jet(self.space, self.coeffs.copy(), self.order)
        u.coeffs[_rows(u.coeffs, 0)] = 0.0
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
        head = ", ".join(f"{a}:{c}" for a, c in zip(self.space.indices[:6], self.coeffs[:6]))
        return f"Jet(order={self.order}, [{head}{', ...' if self.space.size > 6 else ''}])"


def jet_compose(outer, inner):
    """Taylor expansion of the composition outer(inner_1, ..., inner_m).

    ``inner`` is one jet per outer variable; all inner jets share a space
    and base point, and their value parts must sit at the outer base point.
    The result is truncated at the minimum of the participating orders.
    """
    if len(inner) != outer.space.nvars:
        raise ShapeMismatchError(
            f"outer jet takes {outer.space.nvars} arguments, got {len(inner)}"
        )
    if not inner:
        raise ShapeMismatchError("composition needs at least one inner jet")
    sp = inner[0].space
    for jet in inner[1:]:
        if jet.space is not sp:
            raise ShapeMismatchError("inner jets live in different spaces")
    order = min([outer.order] + [jet.order for jet in inner])
    exact = outer.exact and all(jet.exact for jet in inner)
    work_outer = outer
    inners = list(inner)
    if not exact:
        work_outer = outer.to_float()
        inners = [jet.to_float() for jet in inners]

    # Nilpotent displacements u_i = inner_i - value_i.
    us = []
    for jet in inners:
        u = Jet(sp, jet._mask(jet.coeffs.copy(), order), order)
        u.coeffs[0] = 0
        us.append(u)

    osp = work_outer.space
    # Monomial products via parent pointers: one multiplication per index of
    # degree >= 2; a degree-1 monomial is its displacement itself.
    monos = [None]
    limit = osp.truncation_length(min(order, work_outer.order))
    for i in range(1, limit):
        u = us[osp.parent_var[i]]
        parent = osp.parent_index[i]
        monos.append(u if parent == 0 else monos[parent] * u)
    # 0 + c rather than the constant c, so a -0.0 value part reads 0.0.
    acc = Jet.constant(sp, 0, order, exact) + work_outer.coeffs[0]
    for i in range(1, limit):
        c = work_outer.coeffs[i]
        if c:
            acc = acc + monos[i] * c
    return acc


def jet_dot(a, b):
    """sum_k a_k * b_k over paired jets or numbers, summed left to right
    from the first product (no zero jet to start from)."""
    acc = None
    for x, y in zip(a, b):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


def jet_hessian(jet, m):
    """Second partial derivatives at the base point in the first ``m``
    variables, as an m x m float array (from the normalized second
    coefficients: an off-diagonal one as it is, a diagonal one doubled)."""
    nvars = jet.space.nvars
    H = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            alpha = [0] * nvars
            alpha[i] += 1
            alpha[j] += 1
            c = float(jet.coefficient(tuple(alpha)))
            H[i, j] = H[j, i] = c if i != j else 2 * c
    return H


def _cofactor_det(matrix):
    m = len(matrix)
    if m == 1:
        return matrix[0][0]
    if m == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    acc = None
    for j in range(m):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _cofactor_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def vec_values(jets):
    """Value parts of a list of jets, or of nested lists, batch axes first."""
    values = np.array([vec_values(j) if isinstance(j, list) else j.value for j in jets],
                      dtype=float)
    leaf = jets[0]
    while isinstance(leaf, list):
        leaf = leaf[0]
    return np.moveaxis(values, 0, leaf.coeffs.ndim - 1) if leaf.coeffs.ndim > 1 else values


def _select(mask, a, b):
    """Per batch row, the jet ``a`` where ``mask`` holds and ``b`` elsewhere.
    A batch shares one order, the lower of the two, so a per-row choice is
    bit-identical to one point where the jets it chooses between share
    their order, as the entries of a frame's matrices do."""
    coeffs = np.where(np.asarray(mask)[..., None], a.coeffs, b.coeffs)
    order = min(a.order, b.order)
    return Jet(a.space, a._mask(coeffs, order) if a.order != b.order else coeffs, order)


def _at(values, index):
    """values[index] on the first axis, ``index`` an index or one per batch row."""
    if isinstance(index, np.ndarray):
        return np.take_along_axis(values, index[None], 0)[0]
    return values[index]


def _swap_rows(a, scales, col, pivot, sign):
    """Swap row ``col`` of the jet matrix ``a`` and of ``scales`` with row
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


def jet_det(matrix):
    """Determinant of a square matrix of jets at one point.

    Gaussian elimination with full pivoting on value parts (the largest,
    ties to the lowest row, then column); when the remaining block has no
    usable pivot (all value parts nilpotent) it falls back to cofactor
    expansion, which stays division-free.
    """
    m = len(matrix)
    a = [row[:] for row in matrix]
    scale = max(abs(float(entry.value)) for row in a for entry in row) or 1.0
    det = None
    sign = 1
    for col in range(m - 1):
        sub = [[abs(float(a[r][c].value)) for c in range(col, m)] for r in range(col, m)]
        best = max((v, -r, -c) for r, row in enumerate(sub) for c, v in enumerate(row))
        pval, prow, pcol = best[0], col - best[1], col - best[2]
        if pval <= _PIVOT_EPS * scale:
            rest = [[a[r][c] for c in range(col, m)] for r in range(col, m)]
            if len(rest) > 4:
                raise SingularBasisError("jet determinant: no usable pivot in a large block")
            tail = _cofactor_det(rest)
            return tail * det * sign if det is not None else tail * sign
        if prow != col:
            a[col], a[prow] = a[prow], a[col]
            sign = -sign
        if pcol != col:
            for row in a:
                row[col], row[pcol] = row[pcol], row[col]
            sign = -sign
        pivot = a[col][col]
        det = pivot if det is None else det * pivot
        inv = pivot.reciprocal()
        for r in range(col + 1, m):
            factor = a[r][col] * inv
            for c in range(col + 1, m):
                a[r][c] = a[r][c] - factor * a[col][c]
    last = a[m - 1][m - 1]
    det = last if det is None else det * last
    return det * sign if sign == -1 else det


def jet_solve(matrix, rhs):
    """Solve A x = b over the jet ring (partial pivoting on value parts,
    ties to the lowest row, per batch row).

    ``rhs`` may be a vector (list of jets) or a matrix (list of columns).
    Returns (solution, determinant jet).  Raises SingularBasisError when a
    pivot's value part is not above ``_PIVOT_EPS`` times the largest value
    part in its column of A and in its row of A, so a basis with badly
    scaled columns solves while a column at rounding level still raises.
    """
    m = len(matrix)
    columns = rhs if isinstance(rhs[0], list) else [rhs]
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
        bad = _at(column, best) <= _PIVOT_EPS * scale
        check(bad, lambda: SingularBasisError("jet solve: singular value part"))
        sign = _swap_rows(a, row_scales, col, pivot_row, sign)
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
    if not isinstance(rhs[0], list):
        return solution[0], det
    return solution, det


def bracket(vectors):
    """Oriented volume bracket of n+2 ambient jet vectors.

    The orientation is pinned so that, for a graph hypersurface
    z = f(t, y), the tangency family expands as f - z + ...; concretely
    bracket(v_1, ..., v_k) = det of the matrix with columns
    (v_1, ..., v_{k-2}, v_k, v_{k-1}).
    """
    cols = list(vectors)
    cols[-1], cols[-2] = cols[-2], cols[-1]
    matrix = [[cols[c][r] for c in range(len(cols))] for r in range(len(cols[0]))]
    return jet_det(matrix)
