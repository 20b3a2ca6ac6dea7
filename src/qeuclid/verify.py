"""Exact verification of a built module: relations, omega structure,
central scalars, eigenvalue separation, commutant, and the PI-degree
dimension bound.

Soundness chain: empty relation failures means the matrices define a
representation of the algebra; commutant dimension 1 certifies absolute
irreducibility; dimension equal to the PI-degree makes it a maximal-
dimension simple module.  Each link is checked and reported separately.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property
from itertools import chain

from .linalg import CycMatrix
from .pidegree import DegreeReport, pi_degree
from .repmod import (
    GeneratorMatrices,
    GuardError,
    ModuleParams,
    dimension,
)
from .rewriter import all_gens, gen_name, q_exponent, xgen, ygen
from .scalars import encode_cyclotomic


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _add(table, row: dict, col: int, code: int) -> None:
    """Add code at col of the sparse row of codes, in place; a zero sum
    is dropped."""
    cur = row.get(col)
    total = code if cur is None else table.add(cur, code)
    if total is None:
        del row[col]
    else:
        row[col] = total


class OmegaCheck:
    __slots__ = ("index", "diagonal", "seed_eigenvalue", "seed_matches_lambda",
                 "all_entries_nonzero")

    def __init__(self, index, diagonal, seed_eigenvalue, seed_matches_lambda,
                 all_entries_nonzero):
        self.index = index
        self.diagonal = diagonal
        self.seed_eigenvalue = seed_eigenvalue
        self.seed_matches_lambda = seed_matches_lambda
        self.all_entries_nonzero = all_entries_nonzero

    @property
    def ok(self):
        return self.diagonal and self.seed_matches_lambda and self.all_entries_nonzero


class OmegaRows:
    """What one walk over omega_i = sum_(l<=i) (1-q^-2) y_l x_l yields.

    ``xy[i]`` is the monomial product x_i y_i where the walk composed it;
    ``additive[i]`` says whether x_i y_i = y_i x_i + omega_(i-1) holds;
    ``checks`` holds the OmegaCheck of omega_1, ..., omega_n; ``path``
    is "rules" or "dense", the walk that decided them, and with them
    every other check of the module.  On the rules path ``spectrum[r]``
    (r >= 2) holds the m codes E(u) of the eigenvalues of x_r y_r: E(a_r)
    times a power of q that reads a_(r+1), ..., a_n only.
    """
    __slots__ = ("xy", "additive", "checks", "path", "spectrum")

    def __init__(self, xy, additive, checks, path, spectrum=None):
        self.xy, self.additive, self.checks = xy, additive, checks
        self.path, self.spectrum = path, spectrum


def _shift(table, code, j):
    return None if code is None else table.shift(code, j)


def _sum(table, a, b):
    return b if a is None else a if b is None else table.add(a, b)


def _product(table, a, b, j):
    """The code of zeta^j times the product of codes a and b, None for 0."""
    return None if a is None or b is None else table.shift(table.mul(a, b), j)


def _rule_omegas(gm: GeneratorMatrices):
    """The omega walk on the rules of a built module, or None when a
    premise or an additive relation fails.

    Premises of the other checks on the rules, tested here so that a
    module takes one path for all of them: every generator steps its
    coordinate by +-1, or steps 0 with one kappa code for every u
    (central powers); and for r >= 2 x_r y_r has its eigenvalue codes
    E(u) = F(u) q^(W_p u) pairwise distinct, at most one of them zero,
    with p = r - 2 and W zero mod m below p (the spectrum).

    With x = x_i, y = y_i on one coordinate p and steps s_x + s_y = 0,
    x y and y x are diagonal with entries F(a_p) q^<W, a> and
    G(a_p) q^<W, a>, W = w_x + w_y.  omega_(i-1) is kept as m codes
    O(u) at u = a_p' times q^<W', a>.  Where delta = W' - W vanishes mod
    m off p' and p, relation i reads G(v) + A(v) = F(v) with
    A(v) = O(v) q^(delta_p v) when p' = p, and otherwise
    A(v) = A q^(delta_p v) for the one code A = O(u) q^(delta_p' u) of
    every u.  Then omega_i has the codes A(v) + (1-q^-2) G(v) on p, its
    seed entry at v = 0 and a zero exactly where one of them is zero:
    O(n m) code operations in place of O(n d) row sums.
    """
    params, table, rules = gm.params, gm.table, gm.provenance
    m, k, n = table.m, params.k, params.n
    if not all(rule.step in (-1, 1) or rule.step == 0 and len(set(kc)) == 1
               for rule, kc in rules.values()):
        return None
    correction = table.intern(params.domain.correction)
    checks, omega, spectrum = [], None, {}      # omega: (p', W', codes O)
    for i in range(1, n + 1):
        (rx, kx), (ry, ky) = rules[xgen(i)], rules[ygen(i)]
        p, sx, sy = rx.pos, rx.step, ry.step
        if ry.pos != p or sx + sy:
            return None
        f = [_product(table, kx[u], ky[(u + sx) % m], k * ry.weight[p] * sx)
             for u in range(m)]
        g = [_product(table, ky[u], kx[(u + sy) % m], k * rx.weight[p] * sy)
             for u in range(m)]
        weight = [a + b for a, b in zip(rx.weight, ry.weight)]
        if i > 1:
            spectrum[i] = [_shift(table, c, k * weight[p] * u) for u, c in enumerate(f)]
            if (p != i - 2 or any(w % m for w in weight[:p])
                    or len(set(spectrum[i])) < m):
                return None
        last, before, codes = omega or (p, weight, [None] * m)
        delta = [(a - b) * k % m for a, b in zip(before, weight)]
        if any(d and j not in (p, last) for j, d in enumerate(delta)):
            return None
        if last != p:
            moved = {_shift(table, c, delta[last] * u) for u, c in enumerate(codes)}
            if len(moved) != 1:
                return None
            codes = [moved.pop()] * m
        seeds = [_shift(table, c, delta[p] * v) for v, c in enumerate(codes)]
        if any(_sum(table, a, b) != c for a, b, c in zip(seeds, g, f)):
            return None
        codes = [_sum(table, a, _product(table, correction, b, 0))
                 for a, b in zip(seeds, g)]
        omega = (p, weight, codes)
        seed = params.domain.field.zero() if codes[0] is None else table.value(codes[0])
        checks.append(OmegaCheck(i, True, seed, seed == params.lam_i(i),
                                 None not in codes))
    return OmegaRows({}, dict.fromkeys(range(1, n + 1), True), checks, "rules",
                     spectrum)


def omega_rows(gm: GeneratorMatrices) -> OmegaRows:
    """Walk the omegas once.  A module that ``build_module`` made carries
    its rules (``gm.provenance``), and the walk runs on them
    (``_rule_omegas``) unless a premise or an additive relation fails.
    Otherwise it runs densely, in one live level of rows: ``rows[r]`` is
    row r of omega_(i-1) as a dict column -> code of a nonzero sum
    (``ScalarTable.add``), and omega_0 is zero.

    For i = 1..n each row is first checked against relation i on a copy,
    made only while the relation holds and where y_i x_i has an entry;
    then (1-q^-2) y_i x_i is added in place, giving omega_i.  omega_i
    must act diagonally with entry lambda_i on the seed row and no zero
    on the diagonal (torsionfreeness).  On the paper's modules its rows
    repeat at most m eigenvalues, so each distinct sum is added once.
    """
    if gm.provenance is not None:
        rule_walk = _rule_omegas(gm)
        if rule_walk is not None:
            return rule_walk
    params, table, mats = gm.params, gm.table, gm.mats    # rows within the cap
    correction = table.intern(params.domain.correction)
    mul = table.mul
    rows = [{} for _ in range(gm.dim)]
    xy, additive, checks = {}, {}, []
    for i in range(1, params.n + 1):
        y, x = mats[gen_name(ygen(i))], mats[gen_name(xgen(i))]
        xy[i], yx = x @ y, y @ x
        holds = diagonal = nonzero = True
        for r, (row, c, code, d, xcode) in enumerate(zip(
                rows, yx.cols, yx.codes, xy[i].cols, xy[i].codes)):
            if holds:
                total = row
                if c is not None:
                    total = dict(row)
                    _add(table, total, c, code)
                holds = (not total if d is None else len(total) == 1
                         and total.get(d) == xcode)
            if c is not None:
                _add(table, row, c, mul(correction, code))
            diagonal = diagonal and len(row) == (r in row)   # {} or {r: _}
            nonzero = nonzero and r in row
        additive[i] = holds
        seed = rows[0].get(0)
        seed = params.domain.field.zero() if seed is None else table.value(seed)
        checks.append(OmegaCheck(i, diagonal, seed, seed == params.lam_i(i),
                                 diagonal and nonzero))
    return OmegaRows(xy, additive, checks, "dense")


def _rule_walk(gm: GeneratorMatrices, omegas: OmegaRows | None):
    """The walk on gm's rules that decides a check, or None for the dense
    path: ``omegas`` when it ran on the rules, else with no walk given
    the rule walk of a built module."""
    if omegas is None:
        return None if gm.provenance is None else _rule_omegas(gm)
    return omegas if omegas.path == "rules" else None


def check_relations(gm: GeneratorMatrices, omegas: OmegaRows | None = None):
    """Residuals of all four defining relation families; returns failures.

    Every residual must be the exact zero matrix.  A q-commutation
    A B = q^e B A, with e = q_exponent(A, B), holds when the two composed
    maps are equal and, at each live row r with t = A(r) and u = B(r),
    c_A(r) c_B(t) = zeta^(ke) c_B(r) c_A(u).  Each generator's codes are
    split once into bases (``c - c % m``).  When the base pairs
    {b_A(r), b_B(t)} and {b_B(r), b_A(u)} are equal, both products are
    powers of zeta times the same nonzero product P of bases, and
    zeta^a P = zeta^b P exactly when a = b mod m: the bases cancel from
    the sum of the four codes, so the row is one integer congruence.  On
    the paper's modules a coefficient is a base that depends on the
    moved coordinate only, times a power of q, so every row takes this
    path.  Any other row compares the codes of its two products
    (``table.mul``, ``table.shift``), which are equal exactly when the
    products are.  Where the omega walk ran on the rules of a built
    module, the q-commutations are decided on the rules too
    (``_rules_commute``).  The additive relation
    x_i y_i = y_i x_i + omega_(i-1) is read off ``omegas.additive``,
    which the walk over the omega sums decides.
    """
    if omegas is None:
        omegas = omega_rows(gm)
    k, n, table = gm.params.k, gm.params.n, gm.table
    m = table.m
    # (A, B) for every q-commutation A B = q^e B A, in report order; the
    # n(2n - 1) pairs are walked, never listed
    pairs = chain(((g(i), g(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   for g in (ygen, xgen)),
                  ((xgen(i), ygen(j)) for i in range(1, n + 1)
                   for j in range(1, n + 1) if i != j))
    if omegas.path == "rules":
        # a generator reads its coordinate when it moves it or its kappa
        # table is not constant
        split = {code: (rule.pos, rule.step, [k * w for w in rule.weight], kc,
                        rule.step != 0 or len(set(kc)) > 1)
                 for code, (rule, kc) in gm.provenance.items()}
        commute = _rules_commute
    else:
        split = {}
        for code in all_gens(n):
            mat = gm.mat(code)
            split[code] = (mat.cols, mat.codes,
                           [None if c is None else c - c % m for c in mat.codes])
        commute = _q_commute
    failures = [_commutation_name(left, right) for left, right in pairs
                if not commute(table, split[left], split[right],
                               k * q_exponent(left, right))]
    failures += [f"x{i}*y{i} = y{i}*x{i} + sum_(l<{i})(1-q^-2)*y_l*x_l"
                 for i in range(1, n + 1) if not omegas.additive[i]]
    return failures


def _q_commute(table, a, b, j: int) -> bool:
    """Does A B = zeta^j B A hold?  ``a`` and ``b`` are (cols, codes,
    bases) of A and B; see check_relations."""
    acols, acodes, abases = a
    bcols, bcodes, bbases = b
    ab = [None if t is None else bcols[t] for t in acols]
    if ab != [None if u is None else acols[u] for u in bcols]:
        return False
    m = table.m
    for c, t, u, x, z, cr, dr in zip(ab, acols, bcols, abases, bbases,
                                     acodes, bcodes):
        if c is None:
            continue
        y, w = bbases[t], abases[u]
        if (x == w and y == z) or (x == z and y == w):
            if (cr + bcodes[t] - dr - acodes[u] - j) % m:
                return False
        elif table.mul(cr, bcodes[t]) != table.shift(table.mul(dr, acodes[u]), j):
            return False
    return True


def _rules_commute(table, a, b, j: int) -> bool:
    """Does A B = zeta^j B A hold on the rules of a built module?  ``a``
    and ``b`` are (p, s, k w, kappa codes, reads p) of A and B, q =
    zeta^k.  Both orders reach e(a + s_A e_pA + s_B e_pB).  When neither
    generator moves a coordinate the other reads, the kappa factors
    agree and the q-parts differ by zeta^(k w_B[p_A] s_A - k w_A[p_B] s_B
    - j) wherever both tables are nonzero.  Otherwise p_A = p_B = p, and
    the two sides are compared as codes at each u = a_p."""
    (p, sa, wa, ka, reads_a), (pb, sb, wb, kb, reads_b) = a, b
    m = table.m
    if p != pb or not (reads_a and reads_b):
        return ((wb[p] * sa - wa[pb] * sb - j) % m == 0
                or ka.count(None) == m or kb.count(None) == m)
    return all(_product(table, ka[u], kb[(u + sa) % m], wb[p] * sa)
               == _product(table, kb[u], ka[(u + sb) % m], wa[p] * sb + j)
               for u in range(m))


def _commutation_name(a: int, b: int) -> str:
    e = q_exponent(a, b)
    scalar = "q" if e == 1 else f"q^{e}"
    return f"{gen_name(a)}*{gen_name(b)} = {scalar}*{gen_name(b)}*{gen_name(a)}"


def check_omega_action(gm: GeneratorMatrices,
                       omegas: OmegaRows | None = None) -> list[OmegaCheck]:
    """The OmegaCheck of each omega_i, made by the walk in omega_rows."""
    if omegas is None:
        omegas = omega_rows(gm)
    return omegas.checks


class CentralCheck:
    __slots__ = ("generator", "is_scalar", "value", "expected", "matches")

    def __init__(self, generator, is_scalar, value, expected, matches):
        self.generator = generator
        self.is_scalar = is_scalar
        self.value = value          # Cyclotomic, or None when not scalar
        self.expected = expected
        self.matches = matches

    @property
    def ok(self):
        return self.is_scalar and self.matches


def expected_central_values(gm: GeneratorMatrices) -> dict:
    """What each m-th power must equal: alpha_1^m, y_1's forced value
    y1_coeff^m, the configured alpha_i and (on I) beta_i; elsewhere the
    action-forced values.  The two m-th powers are raised in the
    module's table, whose memo central_power of x_1 and y_1 reuses."""
    params, table = gm.params, gm.table

    def mth_power(value):
        return table.value(table.power(table.intern(value), params.m))

    expected = {"x1": mth_power(params.alpha1), "y1": mth_power(params.y1_coeff)}
    for i in range(2, params.n + 1):
        expected[f"x{i}"] = params.alpha_i(i)
        expected[f"y{i}"] = (params.beta_i(i) if i in params.I_set
                             else params.derived_beta(i))
    return expected


def central_power(mat: CycMatrix, m: int):
    """The scalar c with mat^m = c I, or None, read off the map of mat.

    On a permutation whose cycle lengths L divide m, mat^m is diagonal
    with entry P^(m/L) on each cycle of coefficient product P.  Any other
    map is singular, so mat^m can only be the scalar 0: every row must
    reach a zero row within m steps.  The products and powers are taken
    on codes, so each base is raised once per cycle length: a diagonal
    x_1 has the one base alpha_1 times the m powers of q.
    """
    cols = mat.cols
    if None in cols or len(set(cols)) < mat.dim:
        return mat.field.zero() if _dies_within(cols, m) else None
    table, codes = mat.table, mat.codes
    value = None
    seen = [False] * mat.dim
    for start in range(mat.dim):
        if seen[start]:
            continue
        seen[start] = True
        product, length, r = codes[start], 1, cols[start]
        while r != start:
            seen[r] = True
            product = table.mul(product, codes[r])
            length += 1
            r = cols[r]
        if m % length:
            return None
        power = table.power(product, m // length)
        if value is None:
            value = power
        elif power != value:
            return None
    return table.value(value)


def _dies_within(cols, m: int) -> bool:
    """Does every path r -> cols[r] -> ... reach a zero row (None) within
    m steps, that is, is the m-th power of the map nowhere defined?  The
    power is formed by repeated squaring."""
    def then(f, g):
        return [None if r is None else g[r] for r in f]

    power, square = list(range(len(cols))), cols
    while m:
        if m & 1:
            power = then(power, square)
        square, m = then(square, square), m >> 1
    return all(r is None for r in power)


def _rule_central_power(table, rule, kcodes, m: int):
    """central_power of a generator that steps its coordinate by +-1 or
    steps 0 with one kappa code (a premise of the rules path), read off
    its rule.  A step of +-1 is a permutation whose cycles run once
    through every u of its coordinate, and the q-part of a cycle's
    product, q^(m <w, a> + s w_p m(m-1)/2), is 1 for odd m: M^m is the
    product of the kappa entries, or 0 when one of them is.  Step 0
    gives (kappa q^<w, a>)^m = kappa^m."""
    if None in kcodes:
        return table.field.zero()
    if rule.step == 0:
        return table.value(table.power(kcodes[0], m))
    product = kcodes[0]
    for code in kcodes[1:]:
        product = table.mul(product, code)
    return table.value(product)


def check_central_scalars(gm: GeneratorMatrices,
                          omegas: OmegaRows | None = None) -> list[CentralCheck]:
    """The m-th power of every generator against its expected central
    value, on the rules of a built module (``_rule_central_power``) or
    read off each map (``central_power``)."""
    params = gm.params
    expected = expected_central_values(gm)
    rules = _rule_walk(gm, omegas) is not None
    out = []
    for code in all_gens(params.n):
        name = gen_name(code)
        if rules:
            value = _rule_central_power(gm.table, *gm.provenance[code], params.m)
        else:
            value = central_power(gm.mat(code), params.m)
        out.append(CentralCheck(name, value is not None, value, expected[name],
                                value is not None and value == expected[name]))
    return out


class JointSpectrum:
    """Diagonals of the products x_r y_r (r = 2..n) over every row.

    ``diagonals[r]`` lists the codes of the eigenvalues of x_r y_r in
    the module's table, None for a zero row, or is None where the
    product is not diagonal.  ``keys[i]`` is row i's tuple of those
    codes over the diagonal products only; equal codes are equal
    eigenvalues, so no value is materialized for them.  On the rules
    path both are None and ``rules[r]`` holds the m codes E(u) of
    ``OmegaRows.spectrum``.
    """

    def __init__(self, diagonals, keys, rules=None):
        self.diagonals, self.keys, self.rules = diagonals, keys, rules

    @cached_property
    def simple(self) -> bool:
        """Whether the keys are pairwise distinct: a simple joint
        spectrum, on which only a diagonal X commutes with every x_r y_r.
        The rules path takes it as a premise."""
        return self.rules is not None or len(set(self.keys)) == len(self.keys)


def joint_spectrum(gm: GeneratorMatrices,
                   omegas: OmegaRows | None = None) -> JointSpectrum:
    """The x_r y_r eigenvalues for the separation check and the
    commutant: on the rules of a built module their m codes per r, else
    the diagonals read off the products in ``omegas`` where its walk
    composed them, else composed here."""
    walk = _rule_walk(gm, omegas)
    if walk is not None:
        return JointSpectrum(None, None, walk.spectrum)
    diagonals = {}
    for r in range(2, gm.params.n + 1):
        xy = omegas.xy.get(r) if omegas is not None else None
        if xy is None:
            xy = gm.mat(xgen(r)) @ gm.mat(ygen(r))
        diagonals[r] = _diagonal(xy)
    columns = [diag for diag in diagonals.values() if diag is not None]
    keys = list(zip(*columns)) if columns else [()] * gm.dim
    return JointSpectrum(diagonals, keys)


def _diagonal(mat: CycMatrix):
    """The codes on the diagonal of mat, None for a zero row, or None
    when mat is not diagonal."""
    diag = []
    for i, (c, v) in enumerate(zip(mat.cols, mat.codes)):
        if c is None:
            diag.append(None)
        elif c == i:
            diag.append(v)
        else:
            return None
    return diag


def commutant_dimension(gm: GeneratorMatrices,
                        spectrum: JointSpectrum | None = None) -> int:
    """Dimension over Q(zeta_m) of {X : X M_g = M_g X for all generators}.

    X commutes with every diagonal x_r y_r, so X_ij = 0 unless rows i and
    j have equal eigenvalue keys.  For a monomial M whose row r holds c_r
    at column s(r), entry (r, s) of X M = M X reads

        sum over t with s(t) = s of  c_t X_rt  =  c_r X_(s(r), s)

    (the right side is 0 on a zero row r).  Premise, checked for each
    generator: M maps no two rows of one key class into one column.  Then
    an equation either reads X_rr = X_(s(r), s(r)) or holds off-diagonal
    unknowns X_ij (i != j) only, at most one on each side.  So the
    dimension is the number of connected components of the rows under
    the edges r - s(r) (``_components``) plus the free components of the
    off-diagonal unknowns in ``_GainForest``.  On a simple joint spectrum
    (every module of the paper has one) there are no off-diagonal
    unknowns, and no coefficient is read.

    GuardError (the commutant is undecided): the equal-key pairs exceed
    4 * max_dim, the unknowns of a direct sum of two modules at the row
    cap; or the premise fails.  A verified instance must return 1
    (only scalars commute), which is absolute irreducibility by the Schur
    criterion.
    """
    if spectrum is None:
        spectrum = joint_spectrum(gm)
    if spectrum.rules is not None:
        return _rule_components(gm)
    dim = _components(gm)
    if spectrum.simple:
        return dim
    keys, classes = spectrum.keys, {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    pairs = sum(len(rows) ** 2 for rows in classes.values())
    cap = 4 * gm.params.max_dim
    if pairs > cap:
        raise GuardError(
            f"commutant guard: {pairs} pairs of rows with equal eigenvalue "
            f"keys exceed 4 * max_dim = {cap}")
    node = {}
    for rows in classes.values():
        for i in rows:
            for j in rows:
                if i != j:
                    node[i, j] = len(node)
    forest = _GainForest(len(node), gm.table.value)
    for name, mat in gm.mats.items():
        cols, codes = mat.cols, mat.codes
        image = {}                      # key -> the columns its rows reach
        for key, rows in classes.items():
            hit = image[key] = set()
            for t in rows:
                if cols[t] in hit:
                    raise GuardError(
                        f"commutant undecided: {name} maps two rows of one "
                        f"eigenvalue class into column {cols[t]}")
                if cols[t] is not None:
                    hit.add(cols[t])
        # c_j X_ij = c_i X_(s(i), s(j)), and X_ij = 0 when the right side
        # is no unknown
        for (i, j), u in node.items():
            if cols[j] is not None:
                v = node.get((cols[i], cols[j]))
                if v is None:
                    forest.vanish(u)
                else:
                    forest.relate(u, codes[j], v, codes[i])
        # X_ab = 0 when row r maps to a and no row of r's class maps to b
        for r, a in enumerate(cols):
            if a is not None:
                for b in classes[keys[a]]:
                    if b != a and b not in image[keys[r]]:
                        forest.vanish(node[a, b])
    return dim + forest.free_components()


def _components(gm: GeneratorMatrices) -> int:
    """Connected components of the rows under the edges r - cols[r] of
    every generator, zero rows skipped: a union-find on integers with
    path halving."""
    parent = list(range(gm.dim))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    count = gm.dim
    for mat in gm.mats.values():
        for r, s in enumerate(mat.cols):
            if s is not None:
                a, b = find(r), find(s)
                if a != b:
                    parent[a] = b
                    count -= 1
    return count


def _rule_components(gm: GeneratorMatrices) -> int:
    """_components on the rules of a built module, whose generators step
    by +-1 or 0 (a premise of the rules path).  A generator at
    coordinate p with step s joins every row with a_p = u to its
    neighbour at u + s where kappa[u] is nonzero, whatever the other
    coordinates, so the row graph is the Cartesian product of one m-cycle
    per coordinate, and its components are the product of theirs: a
    cycle of m nodes with e < m of its edges has m - e components, with
    all of them one.  An edge that neither x_r nor y_r carries is a zero
    of E_r, so under the spectrum premise the count is 1; it is counted
    here, not assumed."""
    m, edges = gm.table.m, {}
    for rule, kcodes in gm.provenance.values():
        if rule.step:
            edges.setdefault(rule.pos, set()).update(
                (u + min(rule.step, 0)) % m for u, c in enumerate(kcodes)
                if c is not None)
    count = 1
    for p in range(gm.params.n - 1):
        e = len(edges.get(p, ()))
        count *= 1 if e == m else m - e
    return count


def _times(a, b):
    """a * b, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


class _GainForest:
    """The off-diagonal commutant unknowns X_ij (i != j, equal keys), where
    gains other than 1 occur (direct sums, conjugated sums).  Weighted
    union-find over unknowns: X_u = weight[u] * X_parent[u],
    a weight of None meaning 1, so gains of 1 cost no scalar product.
    Equations carry coefficient codes; ``value`` materializes one only
    when two codes differ or a weight must be multiplied, so a gain
    c_r / c_r of equal codes needs no value.  ``zero[root]`` marks a
    component whose unknowns must all vanish."""

    def __init__(self, size: int, value):
        self.parent = list(range(size))
        self.weight = [None] * size
        self.zero = [False] * size
        self.value = value

    def find(self, u):
        """(root, w) with X_u = w X_root; compresses the path."""
        parent, weight = self.parent, self.weight
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        w = None
        for p in reversed(path):
            w = weight[p] = _times(weight[p], w)
            parent[p] = u
        return u, w

    def vanish(self, u):
        """Impose X_u = 0."""
        self.zero[self.find(u)[0]] = True

    def relate(self, u, a, v, b):
        """Impose a X_u = b X_v for codes a, b."""
        ru, wu = self.find(u)
        rv, wv = self.find(v)
        if a == b and wu is None and wv is None:
            left = right = None                # gain 1, read off the codes
        else:                                  # left X_ru = right X_rv
            left = _times(self.value(a), wu)
            right = _times(self.value(b), wv)
        same = left is right or left == right
        if ru == rv:
            if not same:                       # a cycle whose gain is not 1
                self.zero[ru] = True
            return
        self.parent[ru] = rv
        self.weight[ru] = None if same else right / left
        self.zero[rv] = self.zero[rv] or self.zero[ru]

    def free_components(self) -> int:
        return sum(1 for u, p in enumerate(self.parent)
                   if p == u and not self.zero[u])


class SeparationCheck:
    __slots__ = ("position", "diagonal", "separated")

    def __init__(self, position, diagonal, separated):
        self.position, self.diagonal, self.separated = position, diagonal, separated

    @property
    def ok(self):
        return self.diagonal and self.separated


def check_eigen_separation(gm: GeneratorMatrices,
                           spectrum: JointSpectrum | None = None
                           ) -> list[SeparationCheck]:
    """For r = 2..n the operator x_r y_r is diagonal; basis rows that
    agree at every position above r but differ at r must have distinct
    eigenvalues (the separation that drives the linear-independence
    induction).

    Judged on every row of gm, without basis labels: the eigenvalues of
    x_s y_s for s = r..n must split the rows into classes of exactly
    m^(r-2) rows, the number of basis vectors sharing (a_r, ..., a_n).
    At r = 2 this says the joint spectrum is simple.

    On the rules path it holds by the premises of the rule walk: the
    eigenvalue of x_s y_s is E_s(a_s) times a power of q that reads
    a_(s+1), ..., a_n only, and E_s is injective, so from s = n down the
    eigenvalues of x_s y_s, ..., x_n y_n fix a_s, ..., a_n, and rows
    that share those share the eigenvalues (the paper's triangular
    induction).
    """
    params = gm.params
    if spectrum is None:
        spectrum = joint_spectrum(gm)
    if spectrum.rules is not None:
        return [SeparationCheck(r, True, True) for r in range(2, params.n + 1)]
    diagonals = spectrum.diagonals
    out = []
    for r in range(2, params.n + 1):
        diagonal = diagonals[r] is not None
        separated = True
        if diagonal:
            columns = [diagonals[s] for s in range(r, params.n + 1)
                       if diagonals[s] is not None]
            sizes = Counter(zip(*columns)).values()
            separated = all(size == params.m ** (r - 2) for size in sizes)
        out.append(SeparationCheck(r, diagonal, separated))
    return out


class DimensionBound:
    __slots__ = ("dimension", "pi_degree", "within_bound", "saturated",
                 "degree_report")

    def __init__(self, dimension: int, degree_report: DegreeReport):
        self.dimension = dimension
        self.pi_degree = degree = degree_report.degree
        self.within_bound = dimension <= degree
        self.saturated = dimension == degree
        self.degree_report = degree_report   # the PI-degree computation

    @property
    def ok(self):
        return self.within_bound and self.saturated


def check_dimension_bound(params: ModuleParams) -> DimensionBound:
    return DimensionBound(dimension(params), pi_degree(params.n, params.m))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

class VerificationReport:
    __slots__ = ("case", "dimension", "relation_failures", "path",
                 "omega", "central", "separation", "bound", "commutant_dim",
                 "commutant_skipped", "sections", "seconds")

    def __init__(self, case, dimension, relation_failures, path, omega,
                 central, separation, bound, commutant_dim, commutant_skipped,
                 seconds):
        self.case = case
        self.dimension = dimension
        self.relation_failures = relation_failures
        self.path = path                        # "rules" or "dense"
        self.omega = omega
        self.central = central
        self.separation = separation
        self.bound = bound
        self.commutant_dim = commutant_dim
        self.commutant_skipped = commutant_skipped
        self.sections = {
            "relations": not relation_failures,
            "omega_action": all(c.ok for c in omega),
            "central_scalars": all(c.ok for c in central),
            "eigen_separation": all(c.ok for c in separation),
            "dimension_bound": bound.ok,
            "commutant": commutant_dim in (None, 1),
        }
        # wall seconds per stage (omega, relations, central, separation,
        # bound, commutant); kept out of to_dict, which is deterministic
        self.seconds = seconds

    @property
    def ok(self) -> bool:
        return all(self.sections.values())

    def to_dict(self):
        def enc(v):
            return encode_cyclotomic(v) if v is not None else None

        return {
            "case": self.case,
            "dimension": self.dimension,
            "ok": self.ok,
            "sections": dict(self.sections),
            "relation_failures": list(self.relation_failures),
            "path": self.path,
            "omega": [{
                "i": c.index,
                "diagonal": c.diagonal,
                "seed_eigenvalue": enc(c.seed_eigenvalue),
                "seed_matches_lambda": c.seed_matches_lambda,
                "all_entries_nonzero": c.all_entries_nonzero,
            } for c in self.omega],
            "central_scalars": [{
                "generator": c.generator,
                "power": f"{c.generator}^m",
                "is_scalar": c.is_scalar,
                "value": enc(c.value),
                "expected": enc(c.expected),
                "matches": c.matches,
            } for c in self.central],
            "eigen_separation": [{
                "position": c.position,
                "diagonal": c.diagonal,
                "separated": c.separated,
            } for c in self.separation],
            "dimension_bound": {
                "dimension": self.bound.dimension,
                "pi_degree": self.bound.pi_degree,
                "within_bound": self.bound.within_bound,
                "saturated": self.bound.saturated,
            },
            "commutant_dim": self.commutant_dim,
            "commutant_skipped": self.commutant_skipped,
        }


def run_verification(gm: GeneratorMatrices,
                     commutant_cap=None) -> VerificationReport:
    """All checks on one module instance.

    One walk over the omega sums decides the additive relations and the
    omega checks; on the dense path it keeps the x_i y_i products for
    the joint spectrum.  The path it took ("rules" for a module that
    ``build_module`` made and whose rule premises hold, else "dense")
    decides every other check too and is reported as ``path``; the
    rules path forms no matrix.  The x_r y_r eigenvalues are shared by
    the separation check and the commutant.
    An instance whose commutant is undecided runs every other check; the
    commutant section is then reported as skipped rather than failed.

    ``commutant_cap`` is accepted and ignored (the benchmark passes it):
    ``gm.mats`` caps the rows, ``repmod.check_work`` the work, up front.

    The report's ``seconds`` holds the wall time of each stage; the walk
    over the omega sums, additive relations included, counts as omega,
    the joint spectrum as separation.
    """
    seconds = {}

    def timed(stage, check, *args):
        start = time.perf_counter()
        try:
            return check(*args)
        finally:
            seconds[stage] = (seconds.get(stage, 0.0)
                              + time.perf_counter() - start)

    omegas = timed("omega", omega_rows, gm)
    relation_failures = timed("relations", check_relations, gm, omegas)
    omega = timed("omega", check_omega_action, gm, omegas)
    central = timed("central", check_central_scalars, gm, omegas)
    spectrum = timed("separation", joint_spectrum, gm, omegas)
    separation = timed("separation", check_eigen_separation, gm, spectrum)
    bound = timed("bound", check_dimension_bound, gm.params)
    commutant, skipped = None, ""
    try:
        commutant = timed("commutant", commutant_dimension, gm, spectrum)
    except GuardError as exc:
        skipped = str(exc)
    return VerificationReport(gm.params.case, gm.dim, relation_failures,
                              omegas.path, omega, central, separation, bound,
                              commutant, skipped, seconds)


# ---------------------------------------------------------------------------
# negative-control constructions (used by the test harness)
# ---------------------------------------------------------------------------

def tampered_copy(gm: GeneratorMatrices, name: str, row: int, col: int):
    """Copy with one matrix entry multiplied by q (a wrong module)."""
    mats = {g: mat.copy() for g, mat in gm.mats.items()}
    mat = mats[name]
    if mat.cols[row] != col:
        raise ValueError(f"{name}[{row},{col}] is zero; tamper a nonzero entry")
    mat.codes[row] = gm.table.shift(mat.codes[row], gm.params.k)
    return GeneratorMatrices(gm.params, mats)


def direct_sum(gm: GeneratorMatrices):
    """Block-diagonal doubling; its commutant is 4-dimensional (2 x 2
    matrices over the commutant of a simple module)."""
    d = gm.dim
    mats = {}
    for name, mat in gm.mats.items():
        cols = mat.cols + [c if c is None else c + d for c in mat.cols]
        mats[name] = CycMatrix(mat.table, 2 * d, cols, mat.codes * 2)
    return GeneratorMatrices(gm.params, mats)
