"""Noncommutative polynomials over the 2n generators with straightening.

Generators are encoded as small ints in the canonical order

    y_1 < x_1 < y_2 < x_2 < ... < y_n < x_n

(y_i -> 2i-2, x_i -> 2i-1), a word is a tuple of codes, and a polynomial
maps words to scalars (QLaurent for generic q, Cyclotomic at a root of
unity).  A word is normal when its letters are nondecreasing in the
canonical order; straightening rewrites any descent

    x_i x_j -> q^-1 x_j x_i          (j < i)
    y_i y_j -> q    y_j y_i          (j < i)
    x_i y_j -> q^-1 y_j x_i          (j < i)
    y_i x_j -> q    x_j y_i          (j < i)
    x_i y_i -> y_i x_i + sum_{l<i} (1-q^-2) y_l x_l

until none remains.  Termination: the q-swaps keep the letter multiset and
strictly decrease inversions, while the x_i y_i rule strictly decreases
the multiset of letter indices; the lexicographic pair (index multiset,
inversions) therefore drops at every step.  Confluence is not assumed: it
is checked on all length-3 overlap ambiguities by
:func:`check_local_confluence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import CyclotomicField, QLaurent, root_of_unity


# ---------------------------------------------------------------------------
# generator codes
# ---------------------------------------------------------------------------

def xgen(i: int) -> int:
    return 2 * i - 1


def ygen(i: int) -> int:
    return 2 * i - 2


def gen_index(code: int) -> int:
    return code // 2 + 1


def is_x(code: int) -> bool:
    return code % 2 == 1


def gen_name(code: int) -> str:
    return f"{'x' if is_x(code) else 'y'}{gen_index(code)}"


def all_gens(n: int) -> list[int]:
    """All 2n generator codes, x's first then y's (report order)."""
    return [xgen(i) for i in range(1, n + 1)] + [ygen(i) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

class GenericQDomain:
    """Coefficients are Laurent polynomials in a generic q."""

    name = "generic-q"

    def __init__(self):
        self.one = QLaurent.const(1)
        self.zero = QLaurent()
        self.correction = self.one - QLaurent.q_pow(-2)

    def q_pow(self, e: int) -> QLaurent:
        return QLaurent.q_pow(e)

    def scalar(self, value) -> QLaurent:
        return QLaurent.const(value)

    def from_qlaurent(self, ql: QLaurent) -> QLaurent:
        return ql

    def divide(self, a, b):
        """a/b when exact, else None (Laurent polynomials form no field)."""
        return a.exact_div(b)


class RootOfUnityDomain:
    """Coefficients in Q(zeta_m) with q = zeta_m^k."""

    def __init__(self, m: int, k: int):
        self.m = m
        self.k = k % m
        self.field = CyclotomicField(m)
        self.q = root_of_unity(m, k)
        self.one = self.field.one()
        self.zero = self.field.zero()
        self.correction = self.one - self.q_pow(-2)
        self.name = f"zeta_{m}^{self.k}"

    def q_pow(self, e: int):
        return self.field.zeta_pow(self.k * e)

    def scalar(self, value):
        return self.field.scalar(value)

    def from_qlaurent(self, ql: QLaurent):
        return ql.substitute(self.m, self.k)

    def divide(self, a, b):
        if b.is_zero():
            return None
        return a * b.inv()


GENERIC_Q = GenericQDomain()

_ROOT_DOMAINS: dict[tuple[int, int], RootOfUnityDomain] = {}


def root_domain(m: int, k: int) -> RootOfUnityDomain:
    key = (m, k % m)
    if key not in _ROOT_DOMAINS:
        _ROOT_DOMAINS[key] = RootOfUnityDomain(m, k)
    return _ROOT_DOMAINS[key]


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

_NF_CACHE: dict[object, dict] = {}


def _rewrite_pair(u: int, v: int, dom) -> list[tuple[object, tuple[int, ...]]]:
    """One rule application to the descent u.v; returns (scalar, word) terms."""
    ux = is_x(u)
    if ux and not is_x(v) and gen_index(u) == gen_index(v):
        out = [(dom.one, (v, u))]
        for l in range(1, gen_index(u)):
            out.append((dom.correction, (ygen(l), xgen(l))))
        return out
    # q-swaps: moving an x left costs q^-1, moving a y left costs q
    return [(dom.q_pow(-1 if ux else 1), (v, u))]


def _first_descent(word: tuple[int, ...]) -> int:
    for idx in range(len(word) - 1):
        if word[idx] > word[idx + 1]:
            return idx
    return -1


def straighten_word(word: tuple[int, ...], dom) -> dict:
    """Normal form of a single word as a map word -> scalar (memoized)."""
    cache = _NF_CACHE.setdefault(dom, {})
    hit = cache.get(word)
    if hit is not None:
        return hit
    idx = _first_descent(word)
    if idx < 0:
        result = {word: dom.one}
    else:
        head, tail = word[:idx], word[idx + 2:]
        result = {}
        for coeff, repl in _rewrite_pair(word[idx], word[idx + 1], dom):
            for w, c in straighten_word(head + repl + tail, dom).items():
                acc = result.get(w)
                acc = coeff * c if acc is None else acc + coeff * c
                if acc.is_zero():
                    result.pop(w, None)
                else:
                    result[w] = acc
    cache[word] = result
    return result


class NCPoly:
    """Noncommutative polynomial: map from words to nonzero scalars."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain, terms=None):
        self.domain = domain
        self.terms = terms or {}

    @classmethod
    def one(cls, domain):
        return cls(domain, {(): domain.one})

    @classmethod
    def gen(cls, domain, code: int):
        return cls(domain, {(code,): domain.one})

    @classmethod
    def word(cls, domain, codes, coeff=None):
        return cls(domain, {tuple(codes): coeff if coeff is not None else domain.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_normal(self) -> bool:
        return all(_first_descent(w) < 0 for w in self.terms)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.domain is other.domain
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.domain), frozenset(self.terms.items())))

    def _check(self, other):
        if self.domain is not other.domain:
            raise ValueError("mixed coefficient domains")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(w, None)
            else:
                out[w] = acc
        return NCPoly(self.domain, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly(self.domain, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar):
        if scalar.is_zero():
            return NCPoly(self.domain)
        return NCPoly(self.domain, {w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            mono = "*".join(gen_name(c) for c in w) or "1"
            bits.append(f"({self.terms[w]})*{mono}")
        return " + ".join(bits)


def straighten(p: NCPoly) -> NCPoly:
    """Unique normal form; equal algebra elements have equal normal forms."""
    out: dict = {}
    for w, c in p.terms.items():
        for nw, nc in straighten_word(w, p.domain).items():
            acc = out.get(nw)
            acc = c * nc if acc is None else acc + c * nc
            if acc.is_zero():
                out.pop(nw, None)
            else:
                out[nw] = acc
    return NCPoly(p.domain, out)


def multiply(p: NCPoly, r: NCPoly) -> NCPoly:
    """Straightened product."""
    p._check(r)
    out: dict = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in r.terms.items():
            c12 = c1 * c2
            for nw, nc in straighten_word(w1 + w2, p.domain).items():
                acc = out.get(nw)
                acc = c12 * nc if acc is None else acc + c12 * nc
                if acc.is_zero():
                    out.pop(nw, None)
                else:
                    out[nw] = acc
    return NCPoly(p.domain, out)


def power(p: NCPoly, e: int) -> NCPoly:
    result = NCPoly.one(p.domain)
    for _ in range(e):
        result = multiply(result, p)
    return result


def omega(i: int, n: int, dom=GENERIC_Q) -> NCPoly:
    """The normal element sum_{l<=i} (1-q^-2) y_l x_l."""
    if not 1 <= i <= n:
        raise ValueError(f"omega index {i} out of range 1..{n}")
    return NCPoly(dom, {(ygen(l), xgen(l)): dom.correction for l in range(1, i + 1)})


def rewrite_rules(n: int, dom=GENERIC_Q) -> list[tuple[tuple[int, int], NCPoly]]:
    """The full rule table: every length-2 descent with its straightened
    right-hand side (one q-swap family per mixed pair, plus the additive
    x_i y_i rule)."""
    rules = []
    for u in sorted(all_gens(n), reverse=True):
        for v in sorted(all_gens(n)):
            if u > v:
                rhs = NCPoly(dom)
                for coeff, repl in _rewrite_pair(u, v, dom):
                    rhs = rhs + NCPoly.word(dom, repl, coeff)
                rules.append(((u, v), rhs))
    return rules


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def check_covariant(p: NCPoly, n: int) -> dict:
    """For each generator g, the scalar c with p*g = c*g*p, or None.

    The scalar is found by dividing matching coefficients of the two
    straightened products and checked against every term.
    """
    if p.is_zero():
        raise ValueError("zero element")
    p = straighten(p)
    dom = p.domain
    results = {}
    for g in all_gens(n):
        a = multiply(p, NCPoly.gen(dom, g))
        b = multiply(NCPoly.gen(dom, g), p)
        if set(a.terms) != set(b.terms):
            results[gen_name(g)] = None
            continue
        if not a.terms:
            results[gen_name(g)] = dom.one
            continue
        w = next(iter(a.terms))
        c = dom.divide(a.terms[w], b.terms[w])
        if c is None or not (a - b.scale(c)).is_zero():
            results[gen_name(g)] = None
        else:
            results[gen_name(g)] = c
    return results


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

@dataclass
class CheckItem:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self):
        d = {"name": self.name, "ok": self.ok}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append(CheckItem(name, ok, detail))

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [item.to_dict() for item in self.items],
        }


def _residual_item(report, name, residual):
    report.add(name, residual.is_zero(),
               "" if residual.is_zero() else f"residual {residual!r}")


def verify_remark_identities(n: int, dom=GENERIC_Q) -> CheckReport:
    """All quasicommutation identities of the normal elements omega_i:
    omega_i x_j = q^2 x_j omega_i and omega_i y_j = q^-2 y_j omega_i for
    i < j, plain commutation for j <= i, and omega_i omega_j = omega_j
    omega_i -- each by straightening the difference to zero.
    """
    report = CheckReport(f"omega quasicommutation identities (n={n}, {dom.name})")
    omegas = {i: omega(i, n, dom) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xj = NCPoly.gen(dom, xgen(j))
            yj = NCPoly.gen(dom, ygen(j))
            if i < j:
                res = multiply(omegas[i], xj) - multiply(xj, omegas[i]).scale(dom.q_pow(2))
                _residual_item(report, f"omega{i}*x{j} = q^2*x{j}*omega{i}", res)
                res = multiply(omegas[i], yj) - multiply(yj, omegas[i]).scale(dom.q_pow(-2))
                _residual_item(report, f"omega{i}*y{j} = q^-2*y{j}*omega{i}", res)
            else:
                res = multiply(omegas[i], xj) - multiply(xj, omegas[i])
                _residual_item(report, f"omega{i}*x{j} = x{j}*omega{i}", res)
                res = multiply(omegas[i], yj) - multiply(yj, omegas[i])
                _residual_item(report, f"omega{i}*y{j} = y{j}*omega{i}", res)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = multiply(omegas[i], omegas[j]) - multiply(omegas[j], omegas[i])
            _residual_item(report, f"omega{i}*omega{j} = omega{j}*omega{i}", res)
    return report


def verify_central_powers(n: int, m: int, k: int) -> CheckReport:
    """x_i^m and y_i^m commute with every generator at q = zeta_m^k."""
    dom = root_domain(m, k)
    report = CheckReport(f"centrality of m-th powers (n={n}, m={m}, k={k})")
    for i in range(1, n + 1):
        px = NCPoly.word(dom, (xgen(i),) * m)
        py = NCPoly.word(dom, (ygen(i),) * m)
        for g in all_gens(n):
            gp = NCPoly.gen(dom, g)
            rx = multiply(px, gp) - multiply(gp, px)
            ry = multiply(py, gp) - multiply(gp, py)
            ok = rx.is_zero() and ry.is_zero()
            report.add(f"[x{i}^{m}, {gen_name(g)}] = [y{i}^{m}, {gen_name(g)}] = 0",
                       ok, "" if ok else "nonzero commutator")
    return report


def check_local_confluence(n: int, dom=GENERIC_Q) -> CheckReport:
    """Resolve every length-3 overlap ambiguity both ways.

    Overlap words are g_a g_b g_c with both adjacent pairs rewritable,
    i.e. strictly decreasing in the canonical order.  Both one-step
    reducts are straightened fully and compared; by the diamond lemma
    agreement on all overlaps makes the normal form unique.
    """
    report = CheckReport(f"local confluence on length-3 overlaps (n={n})")
    codes = sorted(all_gens(n))
    for ia, a in enumerate(codes):
        for ib, b in enumerate(codes[:ia]):
            for c in codes[:ib]:
                left = NCPoly(dom)
                for coeff, repl in _rewrite_pair(a, b, dom):
                    left = left + NCPoly.word(dom, repl + (c,), coeff)
                right = NCPoly(dom)
                for coeff, repl in _rewrite_pair(b, c, dom):
                    right = right + NCPoly.word(dom, (a,) + repl, coeff)
                res = straighten(left) - straighten(right)
                word = "*".join(gen_name(g) for g in (a, b, c))
                report.add(f"overlap {word}", res.is_zero(),
                           "" if res.is_zero() else f"residual {res!r}")
    return report
