"""Seeded workload instances and their known answers.

Each instance carries the job the worker runs and the verdict expected
from how the instance was built, never from the program's own report.
Module configs are written in the documented config format by this
file, not by ``qeuclid.repmod.random_module_params``, so a change to the
program's random draws cannot change a workload.  The seed picks only
the scalar values; the shapes (n, m, case, k) are fixed per workload so
that every seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("irreducible-ladder", "large-module", "symbolic",
             "reducible-controls")

# Denominators of the free omega seed eigenvalues lambda_i, one distinct
# prime per free index.  Multiplying by a power of q is a unit of Z[q],
# so it keeps the exact denominator; distinct denominators therefore
# rule out lambda_i = q^j lambda_(i-1), the only way a random draw could
# make a y_i coefficient vanish and the module reducible.
_LAMBDA_DENS = (1, 5, 7, 11, 13, 17, 19, 23)


@dataclass(frozen=True)
class Shape:
    """A module family: n, m, which indices are y-built (I) and which of
    those are nilpotent (I intersect J).  q = zeta_m^1 throughout."""

    n: int
    m: int
    I: tuple = ()
    nilpotent: tuple = ()
    max_dim: int | None = None

    @property
    def dim(self) -> int:
        return self.m ** (self.n - 1)

    @property
    def case(self) -> str:
        if not self.I:
            return "I"
        return "III" if self.nilpotent else "II"


@dataclass
class Instance:
    """One verdict to reach: ``job`` tells the worker what to run and
    ``expect`` names the known answer the result is judged against."""

    name: str
    job: dict
    expect: dict
    config: dict | None = None
    digests: dict = field(default_factory=dict)


def _phi(m: int) -> int:
    result, rem, p = 1, m, 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if rem > 1:
        result *= rem - 1
    return result


def _signs(rng, count) -> list[int]:
    # Unit numerators with random signs keep the coefficient sizes, and so
    # the cost of a verdict, nearly the same from one seed to the next.
    return [rng.choice((-1, 1)) for _ in range(count)]


def _frac(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _coords(rng, phi: int, den: int) -> list[str]:
    """A nonzero element as zeta-basis coordinates +-1/den."""
    return [_frac(v, den) for v in _signs(rng, phi)]


def _q_expression(rng, phi: int, den: int) -> str:
    """A nonzero element sum_j +-q^j/den over j < phi(m), as a q-expression.

    The powers of a primitive q below phi(m) are a basis of Z[q], so the
    value is nonzero and its exact denominator is den."""
    terms = []
    for j, v in enumerate(_signs(rng, phi)):
        coeff = _frac(1, den)
        body = coeff if j == 0 else f"{coeff}*q^{j}"
        terms.append(("-" if v < 0 else "+" if j else "") + body)
    return "".join(terms)


def module_config(shape: Shape, rng: random.Random) -> dict:
    """A genuine instance of ``shape`` in the documented config format.

    lambda_i for i in I is written as the forced q^-2 * lambda_(i-1);
    beta_i for i outside I is the placeholder "0", since the verifier uses
    the forced value of y_i^m there.
    """
    phi = _phi(shape.m)
    alpha1 = _coords(rng, phi, 2)
    lam = [_q_expression(rng, phi, _LAMBDA_DENS[0])]
    alpha, beta = [], []
    free = 1
    for i in range(2, shape.n + 1):
        if i in shape.I:
            lam.append(f"q^-2*({lam[-1]})")
            alpha.append("0")
            beta.append("0" if i in shape.nilpotent else _coords(rng, phi, 3))
        else:
            lam.append(_q_expression(rng, phi, _LAMBDA_DENS[free]))
            free += 1
            alpha.append(_coords(rng, phi, 1))
            beta.append("0")
    cfg = {"m": shape.m, "k": 1, "n": shape.n, "alpha1": alpha1,
           "alpha": alpha, "beta": beta, "lambda": lam}
    if shape.max_dim is not None:
        cfg["max_dim"] = shape.max_dim
    return cfg


def _verify_cli(shape: Shape, rng, max_dim_flag: bool) -> Instance:
    argv = ["verify", "--config", "{config}", "--json", "--out", "{out}"]
    if max_dim_flag:
        argv += ["--max-dim", str(shape.dim)]
    return Instance(f"d{shape.dim}-n{shape.n}-m{shape.m}-case{shape.case}",
                    {"kind": "cli", "argv": argv},
                    {"kind": "genuine", "case": shape.case, "dimension": shape.dim},
                    config=module_config(shape, rng))


def _direct_sum(shape: Shape, rng) -> Instance:
    return Instance(f"direct-sum-d{2 * shape.dim}",
                    {"kind": "api", "transform": "direct_sum",
                     "commutant_cap": 2 * shape.dim},
                    {"kind": "direct_sum", "dimension": 2 * shape.dim},
                    config=module_config(shape, rng))


def _tampered(shape: Shape, rng) -> Instance:
    # x1 is diagonal with no zero entry, and every basis row is moved by
    # some x_j or y_j (j >= 2) whose relation with x1 compares this entry
    # against another one: scaling it by q must break a relation.
    row = rng.randrange(shape.dim)
    return Instance(f"tampered-d{shape.dim}",
                    {"kind": "api", "transform": "tamper", "tamper": ["x1", row, row]},
                    {"kind": "tampered"}, config=module_config(shape, rng))


def instances(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    """The instances of one workload pass, drawn from ``seed``.

    ``smoke`` swaps in tiny shapes of the same kinds, for the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "irreducible-ladder":
        shapes = [Shape(3, 3), Shape(2, 21), Shape(3, 5, I=(2,)),
                  Shape(4, 3, I=(2, 4), nilpotent=(4,)), Shape(3, 7)]
        if smoke:
            shapes = [Shape(3, 3), Shape(2, 5, I=(2,), nilpotent=(2,))]
        return [_verify_cli(s, rng, max_dim_flag=True) for s in shapes]
    if workload == "large-module":
        shapes = [Shape(6, 3, I=(3, 5), nilpotent=(5,), max_dim=729),
                  Shape(4, 7, I=(2,), max_dim=729), Shape(4, 9, max_dim=729)]
        if smoke:
            shapes = [Shape(5, 3, I=(3,), max_dim=729)]
        return [_verify_cli(s, rng, max_dim_flag=False) for s in shapes]
    if workload == "symbolic":
        identities = [(3, 61), (4, 31), (6, 9)]
        degrees = [(24, 3), (16, 99)]
        if smoke:
            identities, degrees = [(2, 5)], [(3, 3)]
        out = []
        for n, m in identities:
            argv = ["identities", "--n", str(n), "--m", str(m), "--json",
                    "--out", "{out}"]
            out.append(Instance(f"identities-n{n}-m{m}", {"kind": "cli", "argv": argv},
                                {"kind": "identities", "suites": 3}))
        for n, m in degrees:
            argv = ["pi-degree", "--n", str(n), "--m", str(m), "--json",
                    "--out", "{out}"]
            out.append(Instance(f"pi-degree-n{n}-m{m}", {"kind": "cli", "argv": argv},
                                {"kind": "pi_degree", "degree": m ** (n - 1),
                                 "h": m ** (2 * (n - 1))}))
        return out
    if workload == "reducible-controls":
        sums = [Shape(3, 3), Shape(3, 5, I=(3,))]
        tampered = [Shape(3, 7), Shape(6, 3, I=(4,))]
        if smoke:
            sums, tampered = [Shape(3, 3)], [Shape(3, 3, I=(2,))]
        return ([_direct_sum(s, rng) for s in sums]
                + [_tampered(s, rng) for s in tampered])
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(insts: list[Instance], directory: str) -> dict:
    """Write each config file and return the input record: the digest of
    every input and one digest over all of them, so two runs can show
    that they fed the program identical inputs."""
    os.makedirs(directory, exist_ok=True)
    record = []
    for inst in insts:
        if inst.config is not None:
            text = json.dumps(inst.config, indent=2, sort_keys=True) + "\n"
            path = os.path.join(directory, f"{inst.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            inst.job["config"] = path
            inst.digests["config"] = hashlib.sha256(text.encode()).hexdigest()
        job = {k: v for k, v in inst.job.items() if k != "config"}
        inst.digests["job"] = hashlib.sha256(
            json.dumps(job, sort_keys=True).encode()).hexdigest()
        record.append({"instance": inst.name, **inst.digests})
    total = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    return {"inputs": record, "digest": total.hexdigest()}


def verification(report: dict | None) -> dict | None:
    """The verification block of a ``verify --json`` report or of a
    ``VerificationReport.to_dict()``; None for other reports."""
    if report is None:
        return None
    if "sections" in report:
        return report
    return report.get("report", {}).get("verification")


def judge(inst: Instance, exit_code: int, report: dict | None) -> str:
    """Compare one result with the known answer; '' means correct,
    otherwise the reason it is wrong."""
    exp = inst.expect
    kind = exp["kind"]
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if report is None:
        return "no report written"
    ver = verification(report)
    if kind == "genuine":
        if not ver["ok"] or not all(ver["sections"].values()):
            return f"genuine module not verified: {ver['sections']}"
        if ver["case"] != exp["case"] or ver["dimension"] != exp["dimension"]:
            return f"case {ver['case']}, dimension {ver['dimension']}"
        if ver["dimension_bound"]["pi_degree"] != exp["dimension"]:
            return f"PI-degree {ver['dimension_bound']['pi_degree']}"
        if ver["commutant_dim"] not in (None, 1):
            return f"commutant {ver['commutant_dim']}, expected 1"
        return ""
    if kind == "tampered":
        if ver["sections"]["relations"] or not ver["relation_failures"]:
            return "tampered module passed the relations check"
        return "tampered module verified as ok" if ver["ok"] else ""
    if kind == "direct_sum":
        if ver["dimension"] != exp["dimension"]:
            return f"dimension {ver['dimension']}, expected {exp['dimension']}"
        if ver["commutant_dim"] != 4:
            return f"commutant {ver['commutant_dim']}, expected 4"
        return "direct sum verified as ok" if ver["ok"] else ""
    if kind == "identities":
        suites = report["report"]["suites"]
        if len(suites) != exp["suites"] or not all(s["ok"] for s in suites):
            return "identity suite failed"
        return ""
    if kind == "pi_degree":
        rep = report["report"]
        if rep["degree"] != exp["degree"] or rep["image_cardinality"] != exp["h"]:
            return f"degree {rep['degree']}, expected {exp['degree']}"
        return ""
    raise ValueError(f"unknown expectation {kind!r}")
