"""Exact sparse polynomial arithmetic over the rationals.

Multivariate polynomials are maps from exponent vectors to Fraction
coefficients; univariate ones are dense, lowest degree first, and a
restriction keeps its coefficients as primitive integers times one
positive rational.  Everything in this module is exact (no floats) and
pure (values are never mutated after construction; memo slots such as
the hash hold only what is derived from the value).

Conventions:
  * an m-variate polynomial lives in variables x1..xm; exponent vectors
    have length m;
  * the zero polynomial stores no terms and has degree -inf (a float
    sentinel, so that degree comparisons still behave);
  * canonical term order is graded lexicographic (total degree first,
    then exponents), which makes the text format byte-reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import DimensionMismatch, ParseError, ZeroPolynomialError

Exponents = Tuple[int, ...]
Scalar = Fraction  # every stored coefficient is a Fraction

NEG_INF = float("-inf")


def _frac(value) -> Fraction:
    """Coerce ints, Fractions, and exact strings; floats are rejected so
    inexactness cannot sneak into the ring."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return Fraction(value)


def as_point(coords: Sequence, num_vars: int) -> Tuple[Fraction, ...]:
    """Validate and coerce a coordinate sequence to exact rationals; a
    tuple of Fractions is returned as it is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        pt = coords
    else:
        pt = tuple(_frac(c) for c in coords)
    if len(pt) != num_vars:
        raise DimensionMismatch(
            f"point has {len(pt)} coordinates, expected {num_vars}")
    return pt


class Polynomial:
    """Immutable sparse polynomial in num_vars variables over Q."""

    __slots__ = ("num_vars", "_terms", "_hash", "_forms")

    def __init__(self, num_vars: int, terms: Mapping[Exponents, object] = ()):
        if num_vars < 1:
            raise DimensionMismatch("num_vars must be >= 1")
        clean: Dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise DimensionMismatch(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _frac(coeff)
            if c != 0:
                c = clean.get(exps, Fraction(0)) + c
                if c != 0:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        self.num_vars = num_vars
        self._terms = clean
        self._hash = None
        self._forms = None

    @classmethod
    def _from_clean(cls, num_vars: int,
                    terms: Dict[Exponents, Fraction]) -> "Polynomial":
        """The polynomial on a term dict that is already clean: keys are
        tuples of num_vars nonnegative ints, values nonzero Fractions.
        Nothing is checked, and the dict is kept, not copied."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p._terms = terms
        p._hash = None
        p._forms = None
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, value, num_vars: int) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: _frac(value)})

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "Polynomial":
        """The monomial x_index, with 1-based index as in x1..xm."""
        if not 1 <= index <= num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        exps = tuple(1 if i == index - 1 else 0 for i in range(num_vars))
        return cls(num_vars, {exps: Fraction(1)})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lex order (ascending), the canonical order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- ring operations --------------------------------------------------

    def _check_same_ring(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"mixed polynomial rings: {self.num_vars} vs {other.num_vars} variables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.num_vars)
        self._check_same_ring(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return Polynomial._from_clean(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(
            self.num_vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.num_vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _frac(other)
            return Polynomial(self.num_vars,
                              {e: c * v for e, v in self._terms.items()})
        self._check_same_ring(other)
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial._from_clean(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.num_vars)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.num_vars == other.num_vars
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_vars,
                               frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        if self.is_zero():
            return f"Polynomial({self.num_vars}, 0)"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.num_vars}, {' + '.join(parts)})"

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, read off the form table of
        the last base point x0 (built at the origin if there is none).

        With integer forms C_e over E and y = x - x0 = Y/D, the degree-k
        form is h_k(Y) / (E D^k), h_k(Y) = sum_{|e| = k} C_e Y^e, so
        p(x) = (sum_k h_k(Y) D^(d-k)) / (E D^d): one integer sum by
        Horner over k and one Fraction.
        """
        x = as_point(point, self.num_vars)
        if not self._terms:
            return Fraction(0)
        x0, den, forms = self._forms or self._build_forms(
            (Fraction(0),) * self.num_vars)
        y = [a - b for a, b in zip(x, x0)] if any(x0) else x
        dy = _lcm_denominators(y)
        ys = [c.numerator * (dy // c.denominator) for c in y]
        total = 0
        for form in forms:
            total = total * dy + sum(c * prod(map(pow, ys, exps))
                                     for exps, c in form)
        return Fraction(total, den * dy ** (len(forms) - 1))

    def partial_derivative(self, index: int) -> "Polynomial":
        """d/dx_index, with 1-based index."""
        if not 1 <= index <= self.num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        i = index - 1
        out = {}
        for exps, c in self._terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                out[key] = c * e
        return Polynomial._from_clean(self.num_vars, out)

    def shift(self, x0: Sequence) -> "Polynomial":
        """p(x + x0), exactly."""
        t = as_point(x0, self.num_vars)
        result: Dict[Exponents, Fraction] = {}
        for exps, c in self._terms.items():
            # expand prod_i (x_i + t_i)^e_i one variable at a time
            partial: Dict[Exponents, Fraction] = {(): c}
            for i, e in enumerate(exps):
                ti = t[i]
                nxt: Dict[Exponents, Fraction] = {}
                for k in range(e + 1):
                    coef = Fraction(comb(e, k)) * ti ** (e - k)
                    if coef == 0:
                        continue
                    for pexps, pc in partial.items():
                        key = pexps + (k,)
                        nxt[key] = nxt.get(key, Fraction(0)) + pc * coef
                partial = nxt
            for exps2, c2 in partial.items():
                s = result.get(exps2, Fraction(0)) + c2
                if s == 0:
                    result.pop(exps2, None)
                else:
                    result[exps2] = s
        return Polynomial._from_clean(self.num_vars, result)

    def restrict(self, x0: Sequence, v: Sequence) -> "UnivariatePolynomial":
        """The univariate restriction f(mu) = p(x0 + mu*v), exactly.

        deg f can drop below deg p; that happens exactly when the
        top-degree form of p vanishes at v.

        The coefficient of mu^k is the degree-k form of p(x0 + y) at v.
        Those forms are integers C_e over one denominator E, built by one
        shift per base point and kept for the next call at that point;
        a caller that passes the kept base point tuple back, as the scans
        do, skips its validation.  With v = V/D and n = deg f,
        f_k = N_k / (E D^k) for N_k = sum_{|e| = k} C_e V^e, so f is
        g / (E D^n) times the primitive integers N_k D^(n-k) / g, where g
        is their content.  f carries those integers; its Fraction
        coefficients are built only when they are read.
        """
        table = self._forms
        if table is None or x0 is not table[0]:
            x0 = as_point(x0, self.num_vars)
            if table is not None and table[0] == x0:
                # key the kept table by the caller's tuple
                table = self._forms = (x0,) + table[1:]
            else:
                table = None
        v = as_point(v, self.num_vars)
        dv = _lcm_denominators(v)
        ws = [c.numerator * (dv // c.denominator) for c in v]
        if not any(ws):
            raise DimensionMismatch("direction must have a nonzero entry")
        if not self._terms:
            return UnivariatePolynomial(())
        if table is None:
            table = self._build_forms(x0)
        _, den, forms = table
        nums = [sum(c * prod(map(pow, ws, exps)) for exps, c in form)
                for form in forms]
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return UnivariatePolynomial(())
        top = len(nums) - 1
        if dv != 1:
            power = 1
            for k in range(top, -1, -1):
                nums[k] *= power
                power *= dv
        g = gcd(*nums)
        if g != 1:
            nums = [c // g for c in nums]
        return UnivariatePolynomial._from_primitive(tuple(nums), g,
                                                    den * dv ** top)

    def _build_forms(self, x0: Tuple[Fraction, ...]):
        """Cache and return (x0, E, forms): forms[k] lists (e, C_e) with
        integers C_e such that the degree-k form of p(x0 + y) is
        sum C_e y^e / E, E > 0 as small as that allows.  p must not be
        zero.

        With p = sum_e c_e x^e / E0 for integers c_e and x0 = X / D,
        E0 D^n p(x0 + y) = sum_e c_e D^(n - |e|) prod_i (D y_i + X_i)^e_i
        for n = deg p: integers, expanded one variable at a time.  They
        and E0 D^n are then divided by their gcd, which gives shift's
        coefficients over the lcm of their denominators."""
        den = _lcm_denominators(self._terms.values())
        n = self.degree()
        forms = [[] for _ in range(n + 1)]
        if not any(x0):
            for exps, c in self._terms.items():
                forms[sum(exps)].append(
                    (exps, c.numerator * (den // c.denominator)))
            self._forms = (x0, den, forms)
            return self._forms
        dx = _lcm_denominators(x0)
        xs = [c.numerator * (dx // c.denominator) for c in x0]
        dpow = [dx ** k for k in range(n + 1)]
        total: Dict[Exponents, int] = {}
        for exps, c in self._terms.items():
            partial = {(): c.numerator * (den // c.denominator)
                       * dpow[n - sum(exps)]}
            for xi, e in zip(xs, exps):
                row = [(k, comb(e, k) * dpow[k] * xi ** (e - k))
                       for k in range(e + 1) if xi or k == e]
                partial = {pexps + (k,): pc * coef
                           for pexps, pc in partial.items()
                           for k, coef in row}
            for key, v in partial.items():
                total[key] = total.get(key, 0) + v
        g = gcd(den * dpow[n], *total.values())
        for exps, v in total.items():
            if v:
                forms[sum(exps)].append((exps, v // g))
        self._forms = (x0, den * dpow[n] // g, forms)
        return self._forms


def _lcm_denominators(values: Iterable[Fraction]) -> int:
    out = 1
    for c in values:
        out = lcm(out, c.denominator)
    return out


def _exact_sqrt(value: Fraction) -> Optional[Fraction]:
    """The square root of a nonnegative rational, or None when it is not
    a rational square."""
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        return None
    return Fraction(rn, rd)


class UnivariatePolynomial:
    """Immutable dense univariate polynomial over Q, lowest degree first:
    a restriction p(x0 + mu v), the input of realroots' root analysis,
    kept in _roots on first use.  *, divmod/%, monic, derivative and
    leading are the arithmetic of the tests' independent oracles.

    Root analysis reads primitive(): f = (a/b) c with c primitive
    integers and a, b > 0, so c has f's signs.  A polynomial built from
    Fractions works it out on first use; a restriction or a square-free
    factor is built from those integers (_from_primitive) and works out
    its Fraction coeffs only when they are read.
    """

    __slots__ = ("_coeffs", "_primitive", "_roots")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._primitive = None
        self._roots = None

    @classmethod
    def _from_primitive(cls, ints: Tuple[int, ...], a: int = 1,
                        b: int = 1) -> "UnivariatePolynomial":
        """(a/b) * ints, for primitive integers ints with a nonzero last
        entry and a, b > 0.  Nothing is checked."""
        f = object.__new__(cls)
        f._coeffs = None
        f._primitive = (ints, a, b)
        f._roots = None
        return f

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        if self._coeffs is None:
            ints, a, b = self._primitive
            self._coeffs = tuple([Fraction(c * a, b) for c in ints])
        return self._coeffs

    def primitive(self) -> Tuple[Tuple[int, ...], int, int]:
        """(c, a, b) with f = (a/b) c, c primitive integers (empty for
        zero) and a, b > 0."""
        if self._primitive is None:
            den = _lcm_denominators(self._coeffs)
            ints = [c.numerator * (den // c.denominator)
                    for c in self._coeffs]
            g = gcd(*ints) or 1
            self._primitive = (tuple([c // g for c in ints]), g, den)
        return self._primitive

    def is_zero(self) -> bool:
        return self.degree() == NEG_INF

    def degree(self):
        n = len(self._coeffs if self._primitive is None
                else self._primitive[0])
        return n - 1 if n else NEG_INF

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x) -> Fraction:
        x = _frac(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            [c * k for k, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            c = _frac(other)
            return UnivariatePolynomial([c * v for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UnivariatePolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UnivariatePolynomial"):
        """Exact field division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        q = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            q[i - dd] = f
            for j in range(dd + 1):
                rem[i - dd + j] -= f * div[j]
        return UnivariatePolynomial(q), UnivariatePolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return UnivariatePolynomial([c / lead for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, UnivariatePolynomial)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UnivariatePolynomial(0)"
        parts = [f"{c}*mu^{k}" if k else f"{c}"
                 for k, c in enumerate(self.coeffs) if c != 0]
        return f"UnivariatePolynomial({' + '.join(parts)})"


# -- text format ------------------------------------------------------------
#
# First line:            vars m
# Each further line:     NUM/DEN e1 e2 ... em      (or integer NUM)
# '#' starts a comment; blank lines are ignored.  A coefficient may be
# any one token that Fraction reads; lines with the same exponents add
# up.  Canonical output is graded-lex ordered with coefficients in
# lowest terms.


def format_rational(c: Fraction) -> str:
    """NUM/DEN in lowest terms, or NUM when DEN is 1: str(c)."""
    return str(c)


# the common tokens, read with int(); every other token is read by
# Fraction, which accepts what it accepts on the running Python
_INT_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token: str, line: int | None = None) -> Fraction:
    """The value of one token, as fractions.Fraction reads it."""
    try:
        m = _INT_RATIONAL.fullmatch(token)
        if m is None:
            return Fraction(token)
        num, den = m.groups()
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}: {exc}", line)


def format_polynomial(p: Polynomial) -> str:
    lines = [f"vars {p.num_vars}"]
    for exps, c in p.sorted_terms():
        lines.append(" ".join([format_rational(c)] + [str(e) for e in exps]))
    return "\n".join(lines) + "\n"


def parse_polynomial(text: str) -> Polynomial:
    num_vars = None
    terms: Dict[Exponents, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if num_vars is None:
            if fields[0] != "vars" or len(fields) != 2:
                raise ParseError("expected header 'vars m'", lineno)
            try:
                num_vars = int(fields[1])
            except ValueError:
                raise ParseError(f"bad variable count {fields[1]!r}", lineno)
            if num_vars < 1:
                raise ParseError("variable count must be positive", lineno)
            continue
        if len(fields) != num_vars + 1:
            raise ParseError(
                f"expected coefficient plus {num_vars} exponents, "
                f"got {len(fields)} fields", lineno)
        coeff = parse_rational(fields[0], lineno)
        try:
            exps = tuple(map(int, fields[1:]))
        except ValueError:
            raise ParseError("exponents must be integers", lineno)
        if min(exps) < 0:
            raise ParseError("exponents must be nonnegative", lineno)
        if exps in terms:
            terms[exps] += coeff
        else:
            terms[exps] = coeff
    if num_vars is None:
        raise ParseError("missing 'vars m' header")
    return Polynomial._from_clean(
        num_vars, {e: c for e, c in terms.items() if c})
