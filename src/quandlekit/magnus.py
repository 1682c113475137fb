"""Truncated Magnus expansion for free nilpotent groups.

Sending x_i to 1 + X_i embeds the free group into the power-series ring
on noncommuting X_1..X_n; truncating at degree c kills exactly the
(c+1)-st term of the lower central series, so equality in F_{n,c} is a
coefficient comparison.  The free c-nilpotent quandle on n letters is
the union of the conjugacy classes of the generators, handled here as
conjugate pairs (conjugator, conjugated letter).
"""

from .errors import InvalidRange, NotUnit

MAX_DEFAULT_C = 6
MAX_DEFAULT_N = 4


def _check_range(n, c, allow_large):
    if n < 1 or c < 1:
        raise InvalidRange("need n >= 1 and c >= 1")
    if not allow_large and (c > MAX_DEFAULT_C or n > MAX_DEFAULT_N):
        raise InvalidRange(
            f"n={n}, c={c} exceeds the default bounds "
            f"(n <= {MAX_DEFAULT_N}, c <= {MAX_DEFAULT_C}); pass allow_large=True"
        )


def poly_add(a, b):
    out = dict(a)
    for w, v in b.items():
        nv = out.get(w, 0) + v
        if nv:
            out[w] = nv
        elif w in out:
            del out[w]
    return out


def poly_scale(a, s):
    if s == 0:
        return {}
    return {w: s * v for w, v in a.items()}


def poly_mul(a, b, max_degree):
    out = {}
    for wa, va in a.items():
        if len(wa) > max_degree:
            continue
        room = max_degree - len(wa)
        for wb, vb in b.items():
            if len(wb) > room:
                continue
            w = wa + wb
            nv = out.get(w, 0) + va * vb
            if nv:
                out[w] = nv
            elif w in out:
                del out[w]
    return out


def poly_truncate(a, max_degree):
    return {w: v for w, v in a.items() if len(w) <= max_degree}


class TruncPoly:
    """Integer polynomial on noncommuting X_1..X_n, degree <= c."""

    def __init__(self, n, c, coeffs):
        self.n = n
        self.c = c
        self.coeffs = {w: v for w, v in coeffs.items() if v and len(w) <= c}

    @classmethod
    def one(cls, n, c):
        return cls(n, c, {(): 1})

    @classmethod
    def gen(cls, i, n, c):
        return cls(n, c, {(): 1, (i,): 1})

    def __eq__(self, other):
        return (
            isinstance(other, TruncPoly)
            and (self.n, self.c) == (other.n, other.c)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.c, tuple(sorted(self.coeffs.items()))))

    def coefficient(self, word):
        return self.coeffs.get(tuple(word), 0)

    def truncate(self, d):
        return TruncPoly(self.n, d, poly_truncate(self.coeffs, d))

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
        body = " + ".join(
            f"{v}*{'.'.join('X%d' % g for g in w) or '1'}" for w, v in terms
        )
        return f"<TruncPoly c={self.c}: {body or '0'}>"


def mul(a, b):
    if (a.n, a.c) != (b.n, b.c):
        raise ValueError("mixed truncation parameters")
    return TruncPoly(a.n, a.c, poly_mul(a.coeffs, b.coeffs, a.c))


def inv(a):
    """Group inverse via the Neumann series of (a - 1)."""
    if a.coeffs.get((), 0) != 1:
        raise NotUnit("constant term must be 1")
    u = dict(a.coeffs)
    del u[()]
    out = {(): 1}
    power = {(): 1}
    for _ in range(a.c):
        power = poly_scale(poly_mul(power, u, a.c), -1)
        if not power:
            break
        out = poly_add(out, power)
    return TruncPoly(a.n, a.c, out)


def gamma_weight(a):
    """Lowest degree of a nonconstant term; c+1 when the element is 1."""
    degrees = [len(w) for w in a.coeffs if w]
    return min(degrees) if degrees else a.c + 1


def embed_word(word, n, c, allow_large=False):
    """Magnus image of a free-group word (letters +-1..+-n), degree <= c."""
    _check_range(n, c, allow_large)
    out = TruncPoly.one(n, c)
    for letter in word:
        g = TruncPoly.gen(abs(letter), n, c)
        out = mul(out, g if letter > 0 else inv(g))
    return out


class FreeNilpQuandleElt:
    """Conjugate w x_i w^-1 inside the free c-nilpotent group.

    The cached polynomial lives one degree above the truncation; equality
    of quandle elements is equality of the degree-<=c truncations, which
    is exact because the Magnus kernel at degree c is Gamma_{c+1}.
    """

    def __init__(self, n, c, gen_index, conjugator_poly):
        self.n = n
        self.c = c
        self.gen_index = gen_index
        self.conjugator_poly = conjugator_poly
        g = TruncPoly.gen(gen_index, n, c + 1)
        self.element_poly = mul(mul(conjugator_poly, g), inv(conjugator_poly))

    def key(self):
        return self.element_poly.truncate(self.c)


def quandle_elt(w, i, n, c, allow_large=False):
    _check_range(n, c, allow_large)
    if not 1 <= i <= n:
        raise InvalidRange(f"generator index {i} out of range")
    conj = embed_word(w, n, c + 1, allow_large=True)
    return FreeNilpQuandleElt(n, c, i, conj)


def qd(a, b):
    """a |> b = (element of a) b (element of a)^-1."""
    if (a.n, a.c) != (b.n, b.c):
        raise ValueError("mixed parameters")
    conj = mul(a.element_poly, b.conjugator_poly)
    return FreeNilpQuandleElt(a.n, a.c, b.gen_index, conj)


def eq(a, b):
    return (a.n, a.c) == (b.n, b.c) and a.key() == b.key()

