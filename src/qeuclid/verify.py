"""Exact verification of a built module: relations, omega structure,
central scalars, eigenvalue separation, commutant, and the PI-degree
dimension bound.

Soundness chain: empty relation failures means the matrices define a
representation of the algebra; commutant dimension 1 certifies absolute
irreducibility; dimension equal to the PI-degree makes it a maximal-
dimension simple module.  Each link is checked and reported separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .linalg import CycMatrix, compose_row, nullspace_dimension
from .pidegree import pi_degree
from .repmod import GeneratorMatrices, GuardError, ModuleParams, dimension
from .rewriter import all_gens, gen_name, xgen, ygen
from .scalars import encode_cyclotomic

COMMUTANT_MAX_DIM = 27


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _plus(row: dict, col: int, value) -> dict:
    """A copy of the sparse row with value added at col, zeros dropped."""
    out = dict(row)
    cur = out.get(col)
    total = value if cur is None else cur + value
    if total.is_zero():
        del out[col]
    else:
        out[col] = total
    return out


def _scaled(s, mat: CycMatrix) -> CycMatrix:
    """s times mat, for a nonzero scalar s (the columns are shared)."""
    return CycMatrix(mat.field, mat.dim, mat.cols,
                     [None if v is None else s * v for v in mat.coeffs])


@dataclass
class OmegaRows:
    """Rows of y_i x_i and of omega_i = sum_(l<=i) (1-q^-2) y_l x_l.

    ``yx[i][r]`` is row r of y_i x_i as (column, coefficient) or
    (None, None); ``omega[i][r]`` is row r of omega_i as a dict column ->
    nonzero coefficient, summed exactly, and ``omega[0]`` is zero.
    """
    yx: dict
    omega: list


def omega_rows(gm: GeneratorMatrices) -> OmegaRows:
    """Compose each y_i x_i once; the running sums are the omegas and the
    residual terms of the additive relations."""
    if {mat.dim for mat in gm.mats.values()} != {gm.dim}:
        raise ValueError("generator matrices have mismatched dimensions")
    correction = gm.params.domain.correction
    yx = {}
    omega = [[{} for _ in range(gm.dim)]]
    for i in range(1, gm.params.n + 1):
        y, x = gm.mat(ygen(i)), gm.mat(xgen(i))
        yx[i] = [compose_row(y, x, r) for r in range(gm.dim)]
        omega.append([prev if c is None else _plus(prev, c, correction * v)
                      for prev, (c, v) in zip(omega[-1], yx[i])])
    return OmegaRows(yx, omega)


def check_relations(gm: GeneratorMatrices, params: ModuleParams | None = None,
                    omegas: OmegaRows | None = None):
    """Residuals of all four defining relation families; returns failures.

    Every residual must be the exact zero matrix.  A q-commutation
    A B = s B A holds row by row when both rows are zero or share their
    column and coefficient; s B is formed once per generator, and as s
    is a unit it keeps the zero rows of B.  The additive relation
    x_i y_i = y_i x_i + omega_(i-1) is compared with the exactly summed
    rows of ``omegas``.
    """
    params = params or gm.params
    if omegas is None:
        omegas = omega_rows(gm)
    dom = params.domain
    n = params.n
    x = {i: gm.mat(xgen(i)) for i in range(1, n + 1)}
    y = {i: gm.mat(ygen(i)) for i in range(1, n + 1)}
    qx = {i: _scaled(dom.q_pow(1), x[i]) for i in x}
    qy = {i: _scaled(dom.q_pow(-1), y[i]) for i in y}
    failures = []

    def q_commute(name, a, b, sb):
        for r in range(gm.dim):
            if compose_row(a, b, r) != compose_row(sb, a, r):
                failures.append(name)
                return

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            q_commute(f"y{i}*y{j} = q^-1*y{j}*y{i}", y[i], y[j], qy[j])
            q_commute(f"x{i}*x{j} = q*x{j}*x{i}", x[i], x[j], qx[j])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                q_commute(f"x{i}*y{j} = q^-1*y{j}*x{i}", x[i], y[j], qy[j])
    for i in range(1, n + 1):
        yx, before = omegas.yx[i], omegas.omega[i - 1]
        for r in range(gm.dim):
            c, v = yx[r]
            rhs = before[r] if c is None else _plus(before[r], c, v)
            c, v = compose_row(x[i], y[i], r)
            if ({} if c is None else {c: v}) != rhs:
                failures.append(
                    f"x{i}*y{i} = y{i}*x{i} + sum_(l<{i})(1-q^-2)*y_l*x_l")
                break
    return failures


@dataclass
class OmegaCheck:
    index: int
    diagonal: bool
    seed_eigenvalue: object
    seed_matches_lambda: bool
    all_entries_nonzero: bool

    @property
    def ok(self):
        return self.diagonal and self.seed_matches_lambda and self.all_entries_nonzero


def check_omega_action(gm: GeneratorMatrices,
                       params: ModuleParams | None = None,
                       omegas: OmegaRows | None = None) -> list[OmegaCheck]:
    """Each omega_i must act diagonally, with entry lambda_i on the seed
    row and no zero on the diagonal (torsionfreeness)."""
    params = params or gm.params
    if omegas is None:
        omegas = omega_rows(gm)
    out = []
    for i in range(1, params.n + 1):
        rows = omegas.omega[i]
        diagonal = all(row.keys() <= {r} for r, row in enumerate(rows))
        seed = rows[0].get(0, params.domain.field.zero())
        out.append(OmegaCheck(
            index=i,
            diagonal=diagonal,
            seed_eigenvalue=seed,
            seed_matches_lambda=(seed == params.lam_i(i)),
            all_entries_nonzero=diagonal and all(
                r in row for r, row in enumerate(rows)),
        ))
    return out


@dataclass
class CentralCheck:
    generator: str
    is_scalar: bool
    value: object          # Cyclotomic, or None when not scalar
    expected: object
    matches: bool

    @property
    def ok(self):
        return self.is_scalar and self.matches


def expected_central_values(params: ModuleParams) -> dict:
    """What each m-th power must equal: configured alpha_i and (on I)
    beta_i; elsewhere the action-forced values."""
    expected = {"x1": params.alpha1 ** params.m, "y1": params.derived_beta1()}
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
    reach a zero row within m steps.  Equal cycle products share one
    power: a diagonal x_1 has only m distinct entries alpha_1 q^e.
    """
    cols = mat.cols
    if None in cols or len(set(cols)) < mat.dim:
        return mat.field.zero() if _dies_within(cols, m) else None
    value = None
    powers = {}
    seen = [False] * mat.dim
    for start in range(mat.dim):
        if seen[start]:
            continue
        seen[start] = True
        product, length, r = mat.coeffs[start], 1, cols[start]
        while r != start:
            seen[r] = True
            product = product * mat.coeffs[r]
            length += 1
            r = cols[r]
        if m % length:
            return None
        power = powers.get((product, length))
        if power is None:
            power = powers[product, length] = product ** (m // length)
        if value is None:
            value = power
        elif power != value:
            return None
    return value


def _dies_within(cols, m: int) -> bool:
    """Does every path r -> cols[r] -> ... reach a zero row (None) within
    m steps?  steps[r] counts the steps row r survives."""
    steps = [None] * len(cols)
    for start in range(len(cols)):
        path, r = [], start
        while r is not None and steps[r] is None:
            steps[r] = -1                 # on the current path
            path.append(r)
            r = cols[r]
        if r is not None and steps[r] < 0:
            return False                  # a cycle survives forever
        k = -1 if r is None else steps[r]
        for p in reversed(path):
            k += 1
            if k >= m:
                return False
            steps[p] = k
    return True


def check_central_scalars(gm: GeneratorMatrices,
                          params: ModuleParams | None = None) -> list[CentralCheck]:
    params = params or gm.params
    expected = expected_central_values(params)
    out = []
    for code in all_gens(params.n):
        name = gen_name(code)
        value = central_power(gm.mat(code), params.m)
        out.append(CentralCheck(
            generator=name,
            is_scalar=value is not None,
            value=value,
            expected=expected[name],
            matches=value is not None and value == expected[name],
        ))
    return out


@dataclass
class JointSpectrum:
    """Diagonals of the products x_r y_r (r = 2..n) over every row.

    ``diagonals[r]`` lists the eigenvalues of x_r y_r, or is None where
    the product is missing or not diagonal.  ``keys[i]`` is row i's tuple
    of eigenvalues over the diagonal products only.
    """
    diagonals: dict
    keys: list

    @property
    def simple(self) -> bool:
        """No two rows share a key: the premise of the spectral commutant."""
        return len(set(self.keys)) == len(self.keys)

    @property
    def commutant_method(self) -> str:
        return "spectral" if self.simple else "restricted-elimination"


def joint_spectrum(gm: GeneratorMatrices) -> JointSpectrum:
    """Compose each x_r y_r once, row by row, for the separation check and
    the commutant."""
    diagonals = {}
    for r in range(2, gm.params.n + 1):
        x = gm.mats.get(gen_name(xgen(r)))
        y = gm.mats.get(gen_name(ygen(r)))
        diagonals[r] = (None if x is None or y is None
                        else _product_diagonal(x, y))
    columns = [diag for diag in diagonals.values() if diag is not None]
    keys = list(zip(*columns)) if columns else [()] * gm.dim
    return JointSpectrum(diagonals, keys)


def _product_diagonal(x: CycMatrix, y: CycMatrix):
    """The diagonal of x y, or None when x y is not diagonal."""
    zero = x.field.zero()
    diag = []
    for i in range(x.dim):
        c, v = compose_row(x, y, i)
        if c is None:
            diag.append(zero)
        elif c == i:
            diag.append(v)
        else:
            return None
    return diag


def commutant_dimension(gm: GeneratorMatrices, max_dim: int = COMMUTANT_MAX_DIM,
                        spectrum: JointSpectrum | None = None) -> int:
    """Dimension over Q(zeta_m) of {X : X M_g = M_g X for all generators}.

    X commutes with every diagonal x_r y_r, so X_ij (nu_j - nu_i) = 0:
    X vanishes between rows whose eigenvalue keys differ.  When the joint
    spectrum is simple X is diagonal, and a diagonal X commutes with M
    exactly when X_r = X_c on every nonzero entry (r, c) of M, so the
    dimension is the number of connected components of those edges.
    Otherwise the unknowns are the pairs of rows with equal keys, solved
    by exact elimination; more than max_dim^2 of them raise GuardError.

    A verified instance must return 1 (only scalars commute), which is
    absolute irreducibility by the Schur criterion.
    """
    if spectrum is None:
        spectrum = joint_spectrum(gm)
    if spectrum.simple:
        return _edge_components(gm)
    return _restricted_nullity(gm, spectrum.keys, max_dim)


def _edge_components(gm: GeneratorMatrices) -> int:
    """Union-find over the nonzero entries of all generators."""
    parent = list(range(gm.dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = gm.dim
    for mat in gm.mats.values():
        for r, c, _ in mat.entries():
            a, b = find(r), find(c)
            if a != b:
                parent[a] = b
                components -= 1
    return components


def _restricted_nullity(gm: GeneratorMatrices, keys, max_dim: int) -> int:
    """Nullity of the commutation equations in the unknowns X_ij with
    key_i == key_j; every other entry of X is zero."""
    classes: dict = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    unknowns = sum(len(rows) ** 2 for rows in classes.values())
    if unknowns > max_dim ** 2:
        raise GuardError(
            f"commutant guard: {unknowns} unknowns with equal eigenvalue keys "
            f"exceed cap {max_dim}^2; pass a larger max_dim to override")
    index = {}
    for rows in classes.values():
        for i in rows:
            for j in rows:
                index[i, j] = len(index)

    def equations():
        # (XM - MX)_rs = sum_t X_rt M_ts - sum_t M_rt X_ts
        for mat in gm.mats.values():
            column: dict = {}
            for r, c, v in mat.entries():
                column.setdefault(c, []).append((r, v))
            eqs: dict = {}
            for (i, j), k in index.items():
                s, v = mat.cols[j], mat.coeffs[j]
                if s is not None:
                    eq = eqs.setdefault((i, s), {})
                    eq[k] = eq[k] + v if k in eq else v
                for r, v in column.get(i, ()):
                    eq = eqs.setdefault((r, j), {})
                    eq[k] = eq[k] - v if k in eq else -v
            for eq in eqs.values():
                eq = {k: v for k, v in eq.items() if not v.is_zero()}
                if eq:
                    yield eq

    return nullspace_dimension(equations(), len(index))


@dataclass
class SeparationCheck:
    position: int
    diagonal: bool
    separated: bool

    @property
    def ok(self):
        return self.diagonal and self.separated


def check_eigen_separation(gm: GeneratorMatrices,
                           params: ModuleParams | None = None,
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
    """
    params = params or gm.params
    if spectrum is None:
        spectrum = joint_spectrum(gm)
    diagonals = spectrum.diagonals
    out = []
    for r in range(2, params.n + 1):
        diagonal = diagonals.get(r) is not None
        separated = True
        if diagonal:
            columns = [diagonals[s] for s in range(r, params.n + 1)
                       if diagonals.get(s) is not None]
            sizes = Counter(zip(*columns)).values()
            separated = all(size == params.m ** (r - 2) for size in sizes)
        out.append(SeparationCheck(position=r, diagonal=diagonal,
                                   separated=separated))
    return out


@dataclass
class DimensionBound:
    dimension: int
    pi_degree: int
    within_bound: bool
    saturated: bool

    @property
    def ok(self):
        return self.within_bound and self.saturated


def check_dimension_bound(params: ModuleParams) -> DimensionBound:
    d = dimension(params)
    deg = pi_degree(params.n, params.m).degree
    return DimensionBound(dimension=d, pi_degree=deg,
                          within_bound=d <= deg, saturated=d == deg)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    case: str
    dimension: int
    relation_failures: list[str]
    omega: list[OmegaCheck]
    central: list[CentralCheck]
    separation: list[SeparationCheck]
    bound: DimensionBound
    commutant_dim: int | None
    commutant_skipped: str = ""
    commutant_method: str = ""
    sections: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sections = {
            "relations": not self.relation_failures,
            "omega_action": all(c.ok for c in self.omega),
            "central_scalars": all(c.ok for c in self.central),
            "eigen_separation": all(c.ok for c in self.separation),
            "dimension_bound": self.bound.ok,
            "commutant": (self.commutant_dim == 1
                          if self.commutant_dim is not None else True),
        }

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
            "commutant_method": self.commutant_method,
        }


def run_verification(gm: GeneratorMatrices,
                     commutant_cap: int = COMMUTANT_MAX_DIM) -> VerificationReport:
    """All checks on a built (or imported) instance.

    The y_i x_i rows and their running sums are formed once and shared
    by the relations and the omega check; the x_r y_r diagonals likewise
    by the separation check and the commutant.  An instance whose
    restricted commutant system exceeds the guard runs every other check;
    the commutant section is then reported as skipped rather than failed.
    """
    params = gm.params
    omegas = omega_rows(gm)
    relation_failures = check_relations(gm, params, omegas)
    omega = check_omega_action(gm, params, omegas)
    central = check_central_scalars(gm, params)
    spectrum = joint_spectrum(gm)
    separation = check_eigen_separation(gm, params, spectrum)
    bound = check_dimension_bound(params)
    commutant, method, skipped = None, "", ""
    try:
        commutant = commutant_dimension(gm, max_dim=commutant_cap,
                                        spectrum=spectrum)
        method = spectrum.commutant_method
    except GuardError as exc:
        skipped = str(exc)
    return VerificationReport(
        case=gm.case.tag,
        dimension=gm.dim,
        relation_failures=relation_failures,
        omega=omega,
        central=central,
        separation=separation,
        bound=bound,
        commutant_dim=commutant,
        commutant_skipped=skipped,
        commutant_method=method,
    )


# ---------------------------------------------------------------------------
# negative-control constructions (used by the test harness)
# ---------------------------------------------------------------------------

def tampered_copy(gm: GeneratorMatrices, name: str, row: int, col: int):
    """Copy with one matrix entry multiplied by q (a wrong module)."""
    mats = {g: mat.copy() for g, mat in gm.mats.items()}
    mat = mats[name]
    value = mat.get(row, col)
    if value.is_zero():
        raise ValueError(f"{name}[{row},{col}] is zero; tamper a nonzero entry")
    mat.set(row, col, value * gm.params.domain.q)
    return GeneratorMatrices(gm.params, gm.case, mats)


def direct_sum(gm: GeneratorMatrices):
    """Block-diagonal doubling; its commutant is 4-dimensional (2 x 2
    matrices over the commutant of a simple module)."""
    d = gm.dim
    mats = {}
    for name, mat in gm.mats.items():
        cols = mat.cols + [c if c is None else c + d for c in mat.cols]
        mats[name] = CycMatrix(mat.field, 2 * d, cols, mat.coeffs * 2)
    doubled = GeneratorMatrices(gm.params, gm.case, mats)
    doubled.dim = 2 * d
    return doubled
