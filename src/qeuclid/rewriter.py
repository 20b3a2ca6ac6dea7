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

until none remains; :func:`q_exponent` states the q-swap exponents.
Termination: the q-swaps keep the letter multiset and strictly decrease
inversions, while the x_i y_i rule strictly decreases the multiset of
letter indices; the lexicographic pair (index multiset, inversions)
therefore drops at every step.  Confluence is not assumed: it is checked
on all length-3 overlap ambiguities by :func:`check_local_confluence`.

Decided overlaps.  Write c = 1 - q^-2, e = ``q_exponent`` and an
overlap as its letters in descending order.  Each is decided on its
rules once their premise holds, and straightened otherwise.

- Q-swaps.  An overlap a b g with three distinct indices, whose rules
  of a.b and b.g are each q^e times the swapped pair, has reducts that
  hold no pair x_i, y_i; both straighten by q-swaps alone to
  q^(e_ab + e_ag + e_bg) g b a.
- Sign pattern.  For a > b of different indices, e(a, b) = -1 when a
  is an x and +1 when a is a y.  So a letter g above y_l and x_l has
  E_l = e(g, y_l) + e(g, x_l) = +-2, the same for every l, and one
  below them has e(x_l, g) + e(y_l, g) = 0.
- g x_i y_i, g of index j > i.  The reduct q^e(g,x_i) x_i g y_i
  straightens to q^E_i (y_i x_i g + sum_(l<i) c y_l x_l g), the reduct
  g y_i x_i + sum_(l<i) c g y_l x_l to q^E_i y_i x_i g
  + sum_(l<i) c q^E_l y_l x_l g; they agree as E_l = E_i.
- x_i y_i g, g of index j < i.  The reducts y_i x_i g
  + sum_(l<i) c y_l x_l g and q^e(y_i,g) x_i g y_i have equal leading
  terms, and those with j < l < i cancel as
  e(x_l, g) + e(y_l, g) = 0 = e(x_i, g) + e(y_i, g).  Each l < j leaves
  c (1 - q^E_l) on y_l x_l g, which the l = j term removes: for
  g = x_j the x_j y_j rule in x_j y_j x_j gives -c^2 (E_l = -2), and
  for g = y_j, y_j passing y_l x_l in y_j x_j y_j gives c^2 q^2
  (E_l = 2).  Both sums vanish as c = 1 - q^-2.

The premise: each one-step rule of the overlap is the genuine one, a
q-swap the single term q^e times the swapped pair and x_i y_i exactly
y_i x_i + sum_(l<i) c y_l x_l, with c formed from q^-2; and for an
x_i y_i overlap, e has the sign pattern between g and each pair l <= i.
The reducts are then what :func:`straighten_word` makes of them, so a
decided overlap is the oracle's item; a failing premise straightens
exactly the overlaps it concerns.

One pass.  :func:`straighten_word` sorts a word by insertion, one run
of equal letters at a time; each step applies one rule to an adjacent
descent, so the result is a normal form reached by rewriting, unique by
the checked confluence.  A run b^c passing c' copies of a larger letter
a adds c c' ``q_exponent(a, b)`` to one exponent E.  Each of the c k
crossings of a y_i run and x_i^k swaps the pair (factor 1) and leaves,
for each l < i, (1 - q^-2) q^E times the word with y_l x_l in place of
the pair.  Where the (j+1)-th y_i crosses, y_l x_l stands right of
y_i^j x_i^(k-1-s) for s = 0 .. k-1; moving it left past them takes
q-swaps only (l < i), worth q^(ex (k-1-s) + ey j), where ex and ey sum
``q_exponent(x_i, g)`` and ``q_exponent(y_i, g)`` over g in y_l x_l.  So
the k words of one j are one word W_j = low y_l x_l y_i^j x_i^(k-1)
y_i^(c-1-j) high times (1 - q^-2) sum_(t<k) q^(ex t), and for k = 1
every W_j is one word, its sum taken over j with step ey.  Both sums
telescope to a difference of two powers of q; a word whose sum
vanishes is dropped, so x_i^m y_i = y_i x_i^m at q = zeta_m costs no
correction word.  Only the W_j recurse; their index multisets are
strictly smaller, so the recursion ends.

Identity suites by linearity.  Each residual is one dict, and
:func:`_accumulate` adds coeff * NF(word) into it in place, dropping
zero entries; no product or partial sum is formed as a polynomial.
Confluence straightens an overlap's two reducts into one signed
residual, and a central commutator vanishes when its two words have
equal normal forms (words of length m + 1, read once: not memoized).
The omega identities follow by bilinearity, with c = 1 - q^-2 and
Y_l = y_l x_l (:func:`verify_remark_identities`):
omega_i g - s g omega_i adds c (NF(Y_i g) - s NF(g Y_i)) to the residual
of i - 1, and [omega_i, omega_j] adds sum_(a<=i) c^2 [Y_a, Y_j] to that
of [omega_i, omega_(j-1)], the terms with both indices at most i
cancelling in pairs.  The suite makes 8 n^2 - 4 n straighten_word calls
where the whole products made about n^4 / 3.
"""

from __future__ import annotations

from itertools import groupby

from .scalars import QLaurent, root_of_unity


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


class RootOfUnityDomain:
    """Coefficients in Q(zeta_m) with q = zeta_m^k."""

    def __init__(self, m: int, k: int):
        self.m = m
        self.k = k % m
        self.q = root_of_unity(m, k)     # checks k before the field is built
        self.field = self.q.field
        self.one = self.field.one()
        self.zero = self.field.zero()
        self.correction = self.one - self.q_pow(-2)
        self.name = f"zeta_{m}^{self.k}"

    def q_pow(self, e: int):
        return self.field.zeta_pow(self.k * e)

    def scalar(self, value):
        return self.field.scalar(value)


GENERIC_Q = GenericQDomain()

_ROOT_DOMAINS: dict[tuple[int, int], RootOfUnityDomain] = {}


def root_domain(m: int, k: int) -> RootOfUnityDomain:
    if m < 3 or m % 2 == 0:          # before k % m, which fails on m = 0
        raise ValueError("m must be odd >= 3")
    key = (m, k % m)
    if key not in _ROOT_DOMAINS:
        _ROOT_DOMAINS[key] = RootOfUnityDomain(m, k)
    return _ROOT_DOMAINS[key]


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

_NF_CACHE: dict[object, dict] = {}


def q_exponent(a: int, b: int) -> int:
    """The e with a b = q^e b a in the leading term of the relation
    between generators a and b; 0 for a == b and for the additive pair
    x_i, y_i.  The one statement of the q-commutation pattern: the
    rewrite rules, the matrix relation check and the PI-degree matrix H
    read it.  On a descent (a after b in the canonical order), moving an
    x left costs q^-1 and moving a y left costs q: in closed form,
    s * (-1 if is_x(max(a, b)) else 1) with s = 1 for a > b, -1 for a < b."""
    if gen_index(a) == gen_index(b):
        return 0
    if a > b:
        return -1 if is_x(a) else 1
    return 1 if is_x(b) else -1


def _rewrite_pair(u: int, v: int, dom) -> list[tuple[object, tuple[int, ...]]]:
    """One rule application to the descent u.v; returns (scalar, word) terms."""
    if gen_index(u) == gen_index(v):
        out = [(dom.one, (v, u))]
        for l in range(1, gen_index(u)):
            out.append((dom.correction, (ygen(l), xgen(l))))
        return out
    return [(dom.q_pow(q_exponent(u, v)), (v, u))]


def _add_term(out: dict, w: tuple[int, ...], c) -> None:
    """out[w] += c, dropping the entry when the sum is zero."""
    acc = out.get(w)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        out.pop(w, None)
    else:
        out[w] = c


def _crossing_scalar(dom, e: int, step: int, count: int):
    """q^e (1 - q^-2) sum_(t<count) q^(step t), formed with no product.  A
    crossing's step is -2 or 2 (``q_exponent`` of x_i or y_i with each
    letter of y_l x_l, l < i), and then the sum telescopes to
    q^top - q^(top - 2 count), top its largest exponent."""
    if abs(step) != 2:
        raise ArithmeticError(f"crossing step {step} does not telescope")
    top = max(e, e + step * (count - 1))
    return dom.q_pow(top) - dom.q_pow(top - 2 * count)


def straighten_word(word: tuple[int, ...], dom, keep: bool = True) -> dict:
    """Normal form of a single word as a map word -> scalar, memoized
    unless ``keep`` is false (the words it recurses on always are)."""
    cache = _NF_CACHE.setdefault(dom, {})
    hit = cache.get(word)
    if hit is not None:
        return hit
    result: dict = {}
    counts: dict[int, int] = {}     # copies of each letter already placed
    e = end = 0
    for b, run in groupby(word):
        c = sum(1 for _ in run)
        k = 0
        for a, count in counts.items():
            if a > b:
                if gen_index(a) == gen_index(b):    # a = x_i, b = y_i
                    partner, k = a, count
                else:
                    e += c * count * q_exponent(a, b)
        if k:
            # the run has passed the letters above x_i^k and stands right of it
            low = tuple(sorted(a for a in word[:end] if a < partner))
            high = tuple(sorted(a for a in word[:end] if a > partner)) + word[end + c:]
            for l in range(1, gen_index(b)):
                repl = (ygen(l), xgen(l))
                ex = sum(q_exponent(partner, g) for g in repl)
                ey = sum(q_exponent(b, g) for g in repl)
                if k == 1:      # every j gives the one word W_j
                    crossings = [(_crossing_scalar(dom, e, ey, c), (b,) * (c - 1))]
                else:
                    crossings = [(_crossing_scalar(dom, e + ey * j, ex, k),
                                  (b,) * j + (partner,) * (k - 1) + (b,) * (c - 1 - j))
                                 for j in range(c)]
                for coeff, middle in crossings:
                    if coeff.is_zero():
                        continue
                    for w, nc in straighten_word(low + repl + middle + high, dom).items():
                        _add_term(result, w, coeff * nc)
        counts[b] = counts.get(b, 0) + c
        end += c
    # the correction words have smaller index multisets: this key is new
    result[tuple(sorted(word))] = dom.q_pow(e)
    if keep:
        cache[word] = result
    return result


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

class CheckItem:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail

    def to_dict(self):
        d = {"name": self.name, "ok": self.ok}
        if self.detail:
            d["detail"] = self.detail
        return d


class CheckReport:
    __slots__ = ("title", "items")

    def __init__(self, title: str):
        self.title = title
        self.items: list[CheckItem] = []

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


def _accumulate(residual: dict, coeff, word: tuple[int, ...], dom) -> None:
    """residual += coeff * NF(word), in place: the suites' one primitive."""
    for w, c in straighten_word(word, dom).items():
        _add_term(residual, w, coeff * c)


def _residual_item(report, name, residual: dict):
    text = " + ".join(f"({residual[w]})*{'*'.join(map(gen_name, w)) or '1'}"
                      for w in sorted(residual))
    report.add(name, not residual, text and f"residual {text}")


def verify_remark_identities(n: int, dom=GENERIC_Q) -> CheckReport:
    """All quasicommutation identities of the normal elements omega_i:
    omega_i x_j = q^2 x_j omega_i and omega_i y_j = q^-2 y_j omega_i for
    i < j, plain commutation for j <= i, and omega_i omega_j = omega_j
    omega_i -- each by straightening the difference to zero.

    By bilinearity (module docstring) the residual of omega_i g grows by
    two words per i, and is summed again from l = 1 at i = j, where s
    drops from q^(+-2) to 1; that of [omega_i, omega_j] grows by
    T(i, j) = sum_(a<=i) c^2 [Y_a, Y_j], and T by one term per i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = CheckReport(f"omega quasicommutation identities (n={n}, {dom.name})")
    c = dom.correction
    pairs = [(ygen(l), xgen(l)) for l in range(n + 1)]      # Y_l
    residuals = {g: {} for g in all_gens(n)}                 # of omega_i g, i rising
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for g, e in ((xgen(j), 2), (ygen(j), -2)):
                if i == j:              # s drops to 1: sum again from l = 1
                    residuals[g] = {}
                minus_sc = -(dom.q_pow(e) * c) if i < j else -c
                for l in range(1 if i == j else i, i + 1):
                    _accumulate(residuals[g], c, pairs[l] + (g,), dom)
                    _accumulate(residuals[g], minus_sc, (g,) + pairs[l], dom)
                name = gen_name(g)
                rhs = f"q^{e}*{name}" if i < j else name
                _residual_item(report, f"omega{i}*{name} = {rhs}*omega{i}", residuals[g])
    c2 = c * c
    T = [{} for _ in range(n + 1)]      # T[j] = sum_(a<=i) c^2 [Y_a, Y_j]
    for i in range(1, n + 1):
        res = {}                        # of [omega_i, omega_j], j rising
        for j in range(i + 1, n + 1):
            _accumulate(T[j], c2, pairs[i] + pairs[j], dom)
            _accumulate(T[j], -c2, pairs[j] + pairs[i], dom)
            for w, v in T[j].items():
                _add_term(res, w, v)
            _residual_item(report, f"omega{i}*omega{j} = omega{j}*omega{i}", res)
    return report


def verify_central_powers(n: int, m: int, k: int) -> CheckReport:
    """x_i^m and y_i^m commute with every generator at q = zeta_m^k: the
    residual NF(p g) - NF(g p) is zero exactly when the two normal forms,
    maps with no zero entry, are equal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = root_domain(m, k)
    report = CheckReport(f"centrality of m-th powers (n={n}, m={m}, k={k})")
    for i in range(1, n + 1):
        px, py = (xgen(i),) * m, (ygen(i),) * m
        for g in all_gens(n):
            ok = all(straighten_word(p + (g,), dom, keep=False)
                     == straighten_word((g,) + p, dom, keep=False)
                     for p in (px, py))
            report.add(f"[x{i}^{m}, {gen_name(g)}] = [y{i}^{m}, {gen_name(g)}] = 0",
                       ok, "" if ok else "nonzero commutator")
    return report


def check_local_confluence(n: int, dom=GENERIC_Q) -> CheckReport:
    """Resolve every length-3 overlap ambiguity both ways.

    Overlap words are g_a g_b g_c with both adjacent pairs rewritable,
    i.e. strictly decreasing in the canonical order.  Both one-step
    reducts are straightened fully into one signed residual; by the
    diamond lemma its vanishing on all overlaps makes the normal form
    unique.

    An overlap is decided on its rules instead once its premise holds
    (module docstring): the rule of each of its two pairs is the
    genuine one, checked once per pair, and for an overlap of a pair
    x_i, y_i with a letter g, ``q_exponent`` has the sign pattern
    between g and every pair l <= i, read once per letter along l.  An
    overlap whose premise fails is straightened, so a broken rule leaves
    its residual.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = CheckReport(f"local confluence on length-3 overlaps (n={n})")
    codes = sorted(all_gens(n))
    swaps = {(u, v) for iu, u in enumerate(codes) for v in codes[:iu]
             if gen_index(u) != gen_index(v)
             and _rewrite_pair(u, v, dom) == [(dom.q_pow(q_exponent(u, v)), (v, u))]}
    correction = dom.one - dom.q_pow(-2)    # not dom.correction: the rule is checked
    corrections, pairs = [], set()      # pairs: the i whose x_i y_i rule is genuine
    for i in range(1, n + 1):
        y, x = ygen(i), xgen(i)
        if _rewrite_pair(x, y, dom) == [(dom.one, (y, x))] + corrections:
            pairs.add(i)
        corrections.append((correction, (y, x)))
    decided = set()                     # the x_i y_i overlaps whose premise holds
    for g in codes:
        for i in range(1, n + 1):       # until g breaks the sign pattern
            y, x = ygen(i), xgen(i)
            if g > x:
                if not q_exponent(g, x) == q_exponent(g, y) == (-1 if is_x(g) else 1):
                    break
                if i in pairs and (g, x) in swaps:
                    decided.add((g, x, y))
            elif g < y:
                if not q_exponent(x, g) == -1 == -q_exponent(y, g):
                    break
                if i in pairs and (y, g) in swaps:
                    decided.add((x, y, g))
    names = {g: gen_name(g) for g in codes}
    for ia, a in enumerate(codes):
        for ib, b in enumerate(codes[:ia]):
            for c in codes[:ib]:
                name = f"overlap {names[a]}*{names[b]}*{names[c]}"
                if (a, b) in swaps and (b, c) in swaps or (a, b, c) in decided:
                    report.add(name, True)
                    continue
                res = {}
                for coeff, repl in _rewrite_pair(a, b, dom):
                    _accumulate(res, coeff, repl + (c,), dom)
                for coeff, repl in _rewrite_pair(b, c, dom):
                    _accumulate(res, -coeff, (a,) + repl, dom)
                _residual_item(report, name, res)
    return report
