"""Explicit simple modules at a root of unity: parameters and matrices.

A module instance is determined by (m, k, n), the eigenvalue of x_1 on
the seed vector, the central values of x_i^m (i >= 2) and y_i^m, and the
eigenvalues of the omega_i on the seed.  The basis is indexed by tuples
a = (a_2, ..., a_n) in (Z/mZ)^(n-1) and every generator acts by scale-
and-shift on that index lattice, so each generator matrix is monomial.

Case bookkeeping follows the zero pattern of the central values:
I = {i >= 2 : alpha_i = 0} (those basis directions are built with y_i
instead of x_i) and J = {i >= 2 : beta_i = 0}; ``ModuleParams.case`` is
I, II or III according to whether I, respectively I intersect J, is
empty.

Two consistency facts are enforced on the parameters because the action
formulas force them (both follow from commuting a generator past the
seed annihilators; the verification suite fails loudly if either is
violated):

* for i in I the seed omega-eigenvalue is pinned:
  lambda_i = q^(-2) * lambda_(i-1);
* for i not in I the central value of y_i^m is pinned:
  beta_i = alpha_i^(-1) * (1-q^(-2))^(-m) * (lambda_i^m - lambda_(i-1)^m);
  configured values there are reported, never consumed.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt

from .linalg import CycMatrix, ScalarTable
from .rewriter import all_gens, gen_index, gen_name, is_x, root_domain
from .scalars import (Cyclotomic, _unlimited_int_digits, encode_cyclotomic, euler_phi,
                      parse_cyclotomic)

DEFAULT_MAX_DIM = 512      # the most rows formed (GeneratorMatrices.mats)

# Bound on the bit length of every numerator and denominator of a consumed
# config scalar, so that a 1000-digit coordinate is refused before any
# check multiplies it.  The largest literal the parser accepts,
# "(1+q)^128*(1+q)^128", has coordinates of at most 254 bits.
MAX_SCALAR_BITS = 512

WORK_BUDGET = 2 ** 24      # the most steps check_work admits for a command


class ParamError(ValueError):
    """Invalid or inconsistent module parameters."""


class GuardError(RuntimeError):
    """A configured resource guard was exceeded."""


class ModuleParams:
    """One simple-module instance over Q(zeta_m) at q = zeta_m^k.

    alpha/beta are indexed 2..n, lam 1..n; use the *_i accessors.
    """

    def __init__(self, m, k, n, alpha1, alpha, beta, lam,
                 max_dim=DEFAULT_MAX_DIM):
        _check_shape(m, k, n)
        _check_lengths(n, alpha, beta, lam)
        self.m = m
        self.k = k % m
        self.n = n
        self.domain = root_domain(m, k)
        self.alpha1 = alpha1
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.lam = tuple(lam)
        self.max_dim = max_dim
        if any(v.is_zero() for v in self.lam):
            raise ParamError("torsion parameters")
        if alpha1.is_zero():
            raise ParamError("unsupported: x_1 not invertible on v")
        self.I_set = frozenset(i for i in range(2, n + 1)
                               if self.alpha_i(i).is_zero())
        self.J_set = frozenset(i for i in range(2, n + 1)
                               if self.beta_i(i).is_zero())
        qm2 = self.domain.q_pow(-2)
        for i in sorted(self.I_set):
            if self.lam_i(i) != qm2 * self.lam_i(i - 1):
                raise ParamError(
                    f"inconsistent lambda_{i}: for i in I the seed forces "
                    f"lambda_{i} = q^-2 * lambda_{i - 1}")
        # cached constants used by every action coefficient: 1 / (1 - q^-2)
        # in closed form, and 1 / (q^2 - 1) = q^-2 / (1 - q^-2) a rotation
        self.inv_correction = self.domain.field.inv_one_minus(-2 * self.k)
        self._inv_q2_minus_1 = qm2 * self.inv_correction
        # y_1 acts on every row by y1_coeff times a power of q
        self.y1_coeff = alpha1.inv() * self.lam_i(1) * self.inv_correction
        self._alpha_inv = tuple(None if v.is_zero() else v.inv()
                                for v in self.alpha)

    def alpha_i(self, i: int) -> Cyclotomic:
        return self.alpha[i - 2]

    def alpha_inv_i(self, i: int) -> Cyclotomic:
        """alpha_i^(-1) for i outside I, computed once per instance."""
        return self._alpha_inv[i - 2]

    def beta_i(self, i: int) -> Cyclotomic:
        return self.beta[i - 2]

    def lam_i(self, i: int) -> Cyclotomic:
        return self.lam[i - 1]

    @property
    def case(self) -> str:
        """Case I when I is empty, II when I and J are disjoint, else III."""
        if not self.I_set:
            return "I"
        return "III" if self.I_set & self.J_set else "II"

    def derived_beta(self, i: int) -> Cyclotomic:
        """The value y_i^m must take for i outside I (forced by the action)."""
        if i in self.I_set:
            raise ValueError(f"beta_{i} is a free parameter (i in I)")
        lam, correction = self._forced_powers
        return self.alpha_inv_i(i) * correction * (lam[i] - lam[i - 1])

    @cached_property
    def _forced_powers(self) -> tuple[dict, Cyclotomic]:
        """lambda_j^m for each j that a forced beta_i reads (j = i - 1, i)
        and (1 - q^-2)^-m, each raised once: at most n + 1 powers, where
        raising them per beta_i took 3(n - 1)."""
        read = {j for i in range(2, self.n + 1) if i not in self.I_set
                for j in (i - 1, i)}
        return ({j: self.lam_i(j) ** self.m for j in read},
                self.inv_correction ** self.m)

    @cached_property
    def rules(self) -> dict:
        """generator code -> GeneratorRule, the one statement of the
        action that both ``act`` and ``build_module`` read; each kappa
        entry is computed once per instance."""
        return {code: _generator_rule(code, self) for code in all_gens(self.n)}

    # -- wire form ----------------------------------------------------------

    def to_wire(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "alpha1": encode_cyclotomic(self.alpha1),
            "alpha": [encode_cyclotomic(v) for v in self.alpha],
            "beta": [encode_cyclotomic(v) for v in self.beta],
            "lambda": [encode_cyclotomic(v) for v in self.lam],
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ModuleParams":
        """Build from a parsed JSON config with field-precise errors."""
        for key in ("m", "k", "n", "alpha1", "alpha", "beta", "lambda"):
            if key not in cfg:
                raise ParamError(f"missing field {key!r}")
        m, k, n = cfg["m"], cfg["k"], cfg["n"]
        for key, v in (("m", m), ("k", k), ("n", n)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParamError(f"field {key!r} must be an integer")
        _check_shape(m, k, n)
        for key in ("alpha", "beta", "lambda"):
            if not isinstance(cfg[key], list):
                raise ParamError(f"field {key!r} must be an array")
        max_dim = cfg.get("max_dim", DEFAULT_MAX_DIM)
        if not isinstance(max_dim, int) or isinstance(max_dim, bool) or max_dim < 1:
            raise ParamError("field 'max_dim' must be a positive integer")
        check_work("module", n, m)      # before any scalar builds Q(zeta_m)
        _check_lengths(n, cfg["alpha"], cfg["beta"], cfg["lambda"])

        def scalar(key, value, bounded=True):
            try:
                value = parse_cyclotomic(value, m, k)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParamError(f"field {key!r}: {exc}") from exc
            bits = coordinate_bits(value)
            if bounded and bits > MAX_SCALAR_BITS:
                raise ParamError(f"field {key!r}: {bits}-bit coordinates exceed "
                                 f"the bound of {MAX_SCALAR_BITS} bits")
            return value

        alpha1 = scalar("alpha1", cfg["alpha1"])
        alpha = [scalar(f"alpha[{i}]", v) for i, v in enumerate(cfg["alpha"])]
        # beta_i outside I is forced, never consumed: any size round-trips
        beta = [scalar(f"beta[{i}]", v, bounded=alpha[i].is_zero())
                for i, v in enumerate(cfg["beta"])]
        lam = [scalar(f"lambda[{i}]", v) for i, v in enumerate(cfg["lambda"])]
        scalars = (alpha1, alpha, lam)
        check_work("module", n, m, scalars)     # before anything is inverted
        params = cls(m, k, n, alpha1, alpha, beta, lam, max_dim=max_dim)
        check_work("module", n, m, scalars, (params.y1_coeff, params._alpha_inv))
        return params


def _check_shape(m: int, k: int, n: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ParamError("m must be odd >= 3")
    if gcd(k, m) != 1:
        raise ParamError("q not primitive")
    if n < 2:
        raise ParamError("n must be >= 2")


def _check_lengths(n: int, alpha, beta, lam) -> None:
    if len(alpha) != n - 1 or len(beta) != n - 1:
        raise ParamError("alpha and beta must have entries for i = 2..n")
    if len(lam) != n:
        raise ParamError("lambda must have entries for i = 1..n")


def dimension(params: ModuleParams) -> int:
    return params.m ** (params.n - 1)


def check_dimension(m: int, n: int, max_dim: int) -> int:
    """m^(n-1), or GuardError past max_dim, the most rows formed."""
    dim = m ** (n - 1)
    if dim > max_dim:
        raise GuardError(f"dimension guard: m^(n-1) = {m}^{n - 1} rows "
                         f"exceed cap {max_dim}")
    return dim


def coordinate_bits(value: Cyclotomic) -> int:
    """The largest bit length of a numerator or the denominator of value."""
    return max(map(int.bit_length, value.nums + (value.den,)))


def check_work(what: str, n: int, m=None, scalars=None, inverses=None) -> int:
    """The steps estimated for ``what`` ("identities", "pi-degree", or
    "module" for build and verify) at (n, m), or GuardError past
    WORK_BUDGET; each named term is fitted to fresh-process time (the
    README's table).  A module is estimated on (n, m) before any scalar is
    parsed, on the ``scalars`` (alpha_1, alpha, lambda) before anything is
    inverted, and with the ``inverses`` (y1_coeff, alpha_i^-1), whose
    sizes no bound on the scalars predicts; phi(m) only once the other
    terms leave room, so a refused shape never builds Q(zeta_m)."""
    # generic suites: the omega identities' 8 n^2 - 4 n straightenings and
    # the C(2n, 3) confluence items, decided on their rules; the --json
    # report of those items, not steps, sets its boundary n = 54
    terms = ({"generic suites": 104 * n ** 3} if what == "identities"
             else {"elimination": 26 * n * n})
    if what == "identities" and m is not None:
        terms["central suite"] = 3 * n * n * (m + 48)
    if what == "pi-degree" and m is not None:   # h = m^(2n-2) in decimal, twice
        terms["report"] = ((2 * n - 2) * m.bit_length()) ** 2 // 80000
    if what == "module":
        terms["rule walk"] = n * n * m
    if m is not None and what != "pi-degree" and sum(terms.values()) <= WORK_BUDGET:
        phi = euler_phi(m)
        terms["field"] = 9 * (m - phi + 3) * phi
        if what == "module":
            terms.update(_module_terms(n, m, phi, scalars, inverses))
    work = sum(terms.values())
    if work > WORK_BUDGET:
        label = (f"the module of n = {n}, m = {m}" if what == "module"
                 else f"{what} --n {n}" + (f" --m {m}" if m else ""))
        with _unlimited_int_digits():      # 200 n^3 of a 1500-digit n, say
            named = ", ".join(f"{term} {steps}" for term, steps in terms.items())
            raise GuardError(f"work guard: {label} is estimated at {work} steps "
                             f"({named}), past {WORK_BUDGET}")
    return work


def _module_terms(n, m, phi, scalars, inverses) -> dict:
    """check_work's scalar terms: the norm inverses of alpha_1 and alpha_i;
    the m-th powers of alpha_1, y1_coeff, and, once each, the lambda_j and
    c = 1 / (1 - q^-2) (phi coordinates over m) that the forced beta_i read;
    the kappa tables of x_i in I and y_i outside I, y_i's multiplied out."""
    def size(value):        # (nonzero coordinates, coordinate bits)
        return sum(1 for v in value.nums if v), coordinate_bits(value)

    corr = (phi, m.bit_length() + 1)
    if scalars is None:
        return {"central powers": _power(phi, *corr, m)}
    (alpha1, alpha, lam), (y1, alpha_inv) = scalars, inverses or (None, None)
    wrap = sum(map(len, alpha1.field.wrap))         # its nonzero entries
    lam = [size(v) for v in lam]
    raised, tables, read = [size(alpha1), size(y1) if y1 else corr], 0, set()
    for i in range(2, n + 1):
        if alpha[i - 2]:                                    # i outside I
            read |= {i - 1, i - 2}
            start = coordinate_bits(alpha_inv[i - 2]) if alpha_inv else 0
            step = max(lam[i - 1][1], lam[i - 2][1]) + corr[1] + 1
            tables += _chain(m, phi, phi, start, step)
        else:   # L - q^2u L: m rotations, each folded through the wrap table
            tables += 2 * phi * (m + wrap) * (1 + lam[i - 2][1] // 256)
    raised += [lam[j] for j in read] + [corr] * bool(read)
    return {"inversions": sum(_chain(phi - 1, phi, nonzero, 0, bits)
                              for nonzero, bits in map(size, (alpha1, *alpha))),
            "central powers": sum(_power(phi, nonzero, bits, m)
                                  for nonzero, bits in raised),
            "kappa tables": tables}


def _chain(length: int, phi: int, nonzero: int, start: int, step: int) -> int:
    """Steps of ``length`` products in turn of a dense value of ``start``
    bits, growing by ``step``, by factors of ``nonzero`` coordinates of
    ``step`` bits: phi * nonzero products, each 1 + digit pairs / 125."""
    return (length * phi * nonzero
            * (7500 + (2 * start + length * step) * -(-step // 30)) // 7500)


def _power(phi: int, nonzero: int, bits: int, m: int) -> int:
    """Steps of the m-th power of a value of ``nonzero`` coordinates of
    ``bits`` bits: binary powering ends in phi^2 products (1 for a single
    coordinate) of m * bits bits, (m * bits / 1000)^(7/4) steps by Karatsuba."""
    pairs = phi * phi if nonzero > 1 else 1
    return phi + pairs * (2 + isqrt(isqrt((m * bits) ** 7 // 10 ** 21)))


# ---------------------------------------------------------------------------
# the action on basis vectors
# ---------------------------------------------------------------------------

class GeneratorRule:
    """How one generator acts on the index lattice, as data:

        e(a) . g = kappa[a_i] * q^<weight, a> * e(a + step at position pos)

    with index arithmetic mod m, and zero when kappa[a_i] is None.
    ``pos`` is the position i - 2 of the generator's own coordinate and
    ``kappa`` has m entries that depend on a_i only; they fold in the
    central value of the basis-building generator where a move crosses
    the wrap (its inverse when stepping down through zero) and the rows
    the generator kills.  x_1 and y_1 have a constant kappa and step 0.
    """
    __slots__ = ("pos", "kappa", "weight", "step")

    def __init__(self, pos: int, kappa: tuple, weight: tuple, step: int):
        self.pos = pos
        self.kappa = kappa
        self.weight = weight
        self.step = step


def _generator_rule(code: int, params: ModuleParams) -> GeneratorRule:
    m, n, dom = params.m, params.n, params.domain
    I = params.I_set
    i = gen_index(code)
    if i == 1:
        kappa = params.alpha1 if is_x(code) else params.y1_coeff
        weight = tuple(1 if j in I else -1 for j in range(2, n + 1))
        return GeneratorRule(0, (kappa,) * m, weight, 0)
    # every move weighs the coordinates below i by +1 (x) or -1 (y); a
    # lowering move also weighs those above i by 2 (in I) or -2
    lowering = is_x(code) == (i in I)
    sign = 1 if is_x(code) else -1
    weight = tuple(sign if j < i else 0 if j == i or not lowering
                   else 2 if j in I else -2 for j in range(2, n + 1))
    if not lowering:
        # raising along an x-built (y-built) direction; the wrap from m-1
        # to 0 multiplies by alpha_i (beta_i)
        top = params.alpha_i(i) if is_x(code) else params.beta_i(i)
        kappa = (dom.one,) * (m - 1) + (top,)
    elif is_x(code):
        # lowering along a y-built direction, L - q^2u L with
        # L = lambda_(i-1) / (q^2 - 1); kills the bottom rung
        low = params.lam_i(i - 1) * params._inv_q2_minus_1
        kappa = tuple(low - dom.q_pow(2 * ai) * low for ai in range(m))
    else:
        # lowering along an x-built direction, L_i - q^-2u L_(i-1) with
        # L_j = lambda_j / (1 - q^-2); the wrap through 0 multiplies by 1 / alpha_i
        low, high = (params.lam_i(j) * params.inv_correction for j in (i - 1, i))
        kappa = tuple(high - dom.q_pow(-2 * ai) * low for ai in range(m))
        kappa = (kappa[0] * params.alpha_inv_i(i),) + kappa[1:]
    kappa = tuple(None if v.is_zero() else v for v in kappa)
    return GeneratorRule(i - 2, kappa, weight, -1 if lowering else 1)


def act(a: tuple, code: int, params: ModuleParams):
    """Apply one generator to the basis vector e(a).

    Returns (coefficient, target index tuple), or (None, None) when the
    vector is annihilated; read off the generator's rule.
    """
    rule = params.rules[code]
    ai = a[rule.pos]
    kappa = rule.kappa[ai]
    if kappa is None:
        return None, None
    exp = sum(w * v for w, v in zip(rule.weight, a))
    target = a[:rule.pos] + ((ai + rule.step) % params.m,) + a[rule.pos + 1:]
    return kappa * params.domain.q_pow(exp), target


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------

class GeneratorMatrices:
    """The 2n monomial matrices of one module instance, right action on
    row vectors: e(a) . g = sum_b M_g[a][b] e(b), so words act as
    M_(gh) = M_g M_h.

    ``mats`` must hold exactly the 2n generators of ``params.n``, all of
    one dimension, which becomes ``dim``, and with one ScalarTable, which
    becomes ``table``; the checks rely on all three.  ``provenance`` is
    given by ``build_module`` alone, in place of ``mats``: generator code
    -> (GeneratorRule, kappa codes in ``table``) of the rules the module
    is made of, on which verify decides every check; ``mats`` is then
    formed from them on first read.  ``verify.tampered_copy``,
    ``verify.direct_sum`` and hand-built matrices leave it None, and
    verify then walks the rows.
    """

    def __init__(self, params: ModuleParams, mats=None, table=None, provenance=None):
        self.params = params
        self.provenance = provenance
        if provenance is not None:
            self.dim, self.table = dimension(params), table
            return
        names = {gen_name(g) for g in all_gens(params.n)}
        if set(mats) != names:
            raise ParamError(f"generators {sorted(mats)} are not the "
                             f"{len(names)} generators of n = {params.n}")
        dims = {mat.dim for mat in mats.values()}
        if len(dims) != 1:
            raise ParamError("generator matrices have mismatched dimensions")
        tables = {id(mat.table): mat.table for mat in mats.values()}
        if len(tables) != 1:
            raise ParamError("generator matrices do not share one scalar table")
        self.mats = mats
        (self.dim,) = dims
        (self.table,) = tables.values()

    @cached_property
    def mats(self) -> dict:
        """The matrices of the rules over all rows: each row's coefficient
        is its kappa code shifted by the integer exponent k * <weight, a>.

        Row r is the index a = (a_2, ..., a_n) with r = sum a_j m^(j-2),
        so a_2 varies fastest and row 0 is the seed.  GuardError, before
        any row is formed, past ``params.max_dim`` rows."""
        m, k, shift = self.params.m, self.params.k, self.table.shift
        dim = check_dimension(m, self.params.n, self.params.max_dim)
        mats = {}
        for code, (rule, kcodes) in self.provenance.items():
            stride = m ** rule.pos
            cols, codes = [None] * dim, [None] * dim
            for r, form in enumerate(_lattice_forms(rule.weight, m)):
                ai = r // stride % m
                kcode = kcodes[ai]
                if kcode is not None:
                    cols[r] = r + ((ai + rule.step) % m - ai) * stride
                    codes[r] = shift(kcode, k * form)
            mats[gen_name(code)] = CycMatrix(self.table, dim, cols, codes)
        return mats

    def mat(self, name_or_code) -> CycMatrix:
        if isinstance(name_or_code, int):
            name_or_code = gen_name(name_or_code)
        return self.mats[name_or_code]

    def to_wire(self) -> dict:
        """The matrix file that ``build`` writes: the parameters, the case
        and each generator's [row, col, value] entries."""
        gens = {}
        for name in sorted(self.mats):
            gens[name] = [[r, c, encode_cyclotomic(v)]
                          for r, c, v in self.mats[name].entries()]
        wire = self.params.to_wire()
        wire.update({
            "case": self.params.case,
            "dimension": self.dim,
            "generators": gens,
        })
        return wire


def build_module(params: ModuleParams) -> GeneratorMatrices:
    """The module of the generator rules, in one scalar table: each kappa
    entry is interned once, and no matrix is formed until one is read
    (``GeneratorMatrices.mats``)."""
    table = ScalarTable(params.domain.field)
    provenance = {code: (rule, [None if v is None else table.intern(v)
                                for v in rule.kappa])
                  for code, rule in params.rules.items()}
    return GeneratorMatrices(params, table=table, provenance=provenance)


def _lattice_forms(weight: tuple, m: int) -> list:
    """<weight, a> for every basis index a, in basis order."""
    forms = [0]
    for w in weight:
        forms = [f + w * v for v in range(m) for f in forms]
    return forms


# ---------------------------------------------------------------------------
# pseudo-random instances (case-shaped draws for tests and demos)
# ---------------------------------------------------------------------------

def _random_nonzero(field, rng) -> Cyclotomic:
    while True:
        value = field.element([rng.randint(-2, 2) for _ in range(field.degree)],
                              rng.randint(1, 3))
        if not value.is_zero():
            return value


def random_module_params(case: str, n: int, m: int, k: int,
                         seed=None, rng=None) -> ModuleParams:
    """Draw parameters with the zero pattern of the requested case.

    lambda_i for i in I and beta_i for i outside I are filled with their
    forced values so the instance verifies end to end.
    """
    if rng is None:
        import random   # not at module level: no CLI command draws parameters
        rng = random.Random(seed)
    if case not in ("I", "II", "III"):
        raise ValueError(f"unknown case {case!r}")
    dom = root_domain(m, k)
    field = dom.field
    if case == "I":
        I_set = set()
    else:
        size = rng.randint(1, n - 1)
        I_set = set(rng.sample(range(2, n + 1), size))
    if case == "III":
        nil_size = rng.randint(1, len(I_set))
        nilpotent = set(rng.sample(sorted(I_set), nil_size))
    else:
        nilpotent = set()

    alpha1 = _random_nonzero(field, rng)
    lam = [_random_nonzero(field, rng)]
    alpha, beta = [], []
    qm2 = dom.q_pow(-2)
    for i in range(2, n + 1):
        if i in I_set:
            lam.append(qm2 * lam[-1])
            alpha.append(field.zero())
            beta.append(field.zero() if i in nilpotent
                        else _random_nonzero(field, rng))
        else:
            lam.append(_random_nonzero(field, rng))
            alpha.append(_random_nonzero(field, rng))
            beta.append(field.zero())  # placeholder, replaced below
    params = ModuleParams(m, k, n, alpha1, alpha, beta, lam)
    # substitute the forced y_i^m values for i outside I
    beta = [params.derived_beta(i) if i not in I_set else params.beta_i(i)
            for i in range(2, n + 1)]
    return ModuleParams(m, k, n, alpha1, alpha, beta, lam)
