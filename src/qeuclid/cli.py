"""Command-line front end: USAGE lists its commands, flags and exit codes.

Reports are a human-readable summary or deterministic JSON (--json):
identical configs give byte-identical output apart from the isolated
"timing" field.
"""

from __future__ import annotations

import json
import os
import sys
import time
from math import gcd
from types import SimpleNamespace

from . import __version__
from .pidegree import pi_degree
from .repmod import (
    GuardError,
    ModuleParams,
    ParamError,
    build_module,
    check_work,
)
from .rewriter import (
    check_local_confluence,
    root_domain,
    verify_central_powers,
    verify_remark_identities,
)
from .scalars import _unlimited_int_digits
from .verify import run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_GUARD = 4

def parse_config(path: str, max_dim=None) -> ModuleParams:
    """Load and validate an instance config, with field-precise errors.

    A ``max_dim`` given here (the --max-dim flag) replaces the config's
    ``"max_dim"`` key and is validated by the same rule.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParamError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParamError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParamError("config must be a JSON object")
    if max_dim is not None:
        raw["max_dim"] = max_dim
    return ModuleParams.from_config(raw)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _check_out(out_path) -> None:
    """UsageError, before the command does any work, when out_path names
    a directory or its directory is missing or not writable; nothing is
    created.  _emit still turns a late OSError into the same error."""
    folder = os.path.dirname(out_path) or "."
    reason = ("Is a directory" if os.path.isdir(out_path)
              else "No such file or directory" if not os.path.isdir(folder)
              else "Permission denied" if not os.access(folder, os.W_OK)
              else None)
    if reason:
        raise UsageError(f"cannot write {out_path}: {reason}")


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _envelope(command: str, config_echo, report: dict, elapsed: float,
              stages=None) -> str:
    timing = {"seconds": round(elapsed, 6)}
    if stages:
        timing["stages"] = {name: round(s, 6) for name, s in stages.items()}
    doc = {
        "tool": "qeuclid",
        "version": __version__,
        "command": command,
        "config": config_echo,
        "report": report,
        "timing": timing,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _pf(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _render_degree(rep) -> str:
    lines = [
        f"PI-degree report: n={rep.n}, m={rep.m}",
        f"  image cardinality h : {rep.h}",
        f"  degree sqrt(h)      : {rep.degree}",
        f"  expected m^(n-1)    : {rep.expected}   {_pf(rep.matches_expected)}",
        f"  rank modulo m       : {rep.rank}",
        f"  kernel basis        : {rep.m} Z^{2 * rep.n}"
        + "".join(f" + Z {list(v)}" for v in rep.kernel),
    ]
    return "\n".join(lines) + "\n"


def _render_suites(reports) -> str:
    lines = []
    for rep in reports:
        good = sum(1 for item in rep.items if item.ok)
        lines.append(f"{rep.title}: {_pf(rep.ok)} ({good}/{len(rep.items)})")
        for item in rep.failures():
            lines.append(f"  FAIL {item.name}  {item.detail}")
    overall = all(rep.ok for rep in reports)
    lines.append(f"overall: {_pf(overall)}")
    return "\n".join(lines) + "\n"


def _render_verification(params, vrep, drep) -> str:
    lines = [
        f"module instance: case {params.case} (n={params.n}, m={params.m}, "
        f"k={params.k}), I={sorted(params.I_set)}, J={sorted(params.J_set)}",
        f"  dimension m^(n-1)   : {vrep.dimension}",
        f"  PI-degree           : {drep.degree} (expected {drep.expected})   "
        f"{_pf(drep.matches_expected)}",
        f"  relations           : {_pf(vrep.sections['relations'])}"
        + (f"  failures: {vrep.relation_failures}" if vrep.relation_failures else "")
        + f"  ({vrep.path} path)",
        f"  omega action        : {_pf(vrep.sections['omega_action'])}",
        f"  central scalars     : {_pf(vrep.sections['central_scalars'])}",
        f"  eigen separation    : {_pf(vrep.sections['eigen_separation'])}",
        f"  dimension bound     : {_pf(vrep.sections['dimension_bound'])}"
        f" (saturated: {vrep.bound.saturated})",
    ]
    if vrep.commutant_dim is None:
        lines.append(f"  commutant dim       : skipped ({vrep.commutant_skipped})")
    else:
        lines.append(f"  commutant dim       : {vrep.commutant_dim}   "
                     f"{_pf(vrep.commutant_dim == 1)}")
    lines.append(f"  overall             : {_pf(vrep.ok)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_pi_degree(args) -> int:
    check_work("pi-degree", args.n, args.m)
    t0 = time.perf_counter()
    rep = pi_degree(args.n, args.m)
    elapsed = time.perf_counter() - t0
    with _unlimited_int_digits():    # h = m^(2(n-1)) may have any number of digits
        if args.json:
            _emit(_envelope("pi-degree", {"n": args.n, "m": args.m},
                            rep.to_dict(), elapsed), args.out)
        else:
            _emit(_render_degree(rep), args.out)
    return EXIT_OK if rep.matches_expected else EXIT_VERIFY


def cmd_build(args) -> int:
    params = parse_config(args.config, args.max_dim)
    t0 = time.perf_counter()
    gm = build_module(params)
    wire = gm.to_wire()              # forms the matrices
    elapsed = time.perf_counter() - t0
    _emit(json.dumps(wire, sort_keys=True, indent=2) + "\n", args.out)
    if args.out and args.json:
        sys.stdout.write(_envelope(
            "build", params.to_wire(),
            {"case": params.case, "dimension": gm.dim, "out": args.out}, elapsed))
    elif args.out:
        sys.stdout.write(f"case {params.case} module (n={params.n}, m={params.m}, "
                         f"k={params.k}), dimension {gm.dim}; "
                         f"matrices written to {args.out}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    params = parse_config(args.config, args.max_dim)
    t1 = time.perf_counter()
    gm = build_module(params)
    t2 = time.perf_counter()
    vrep = run_verification(gm)
    drep = vrep.bound.degree_report
    elapsed = time.perf_counter() - t1
    if args.json:
        report = {"pi_degree": drep.to_dict(), "verification": vrep.to_dict()}
        stages = {"parse": t1 - t0, "build": t2 - t1, **vrep.seconds}
        _emit(_envelope("verify", params.to_wire(), report, elapsed, stages),
              args.out)
    else:
        _emit(_render_verification(params, vrep, drep), args.out)
    return EXIT_OK if vrep.ok else EXIT_VERIFY


def cmd_identities(args) -> int:
    m, k = args.m, args.k
    if args.n < 1:          # before the guard, which would factor m at n = 0
        raise ValueError("n must be >= 1")
    if m is not None and (m < 3 or m % 2 == 0 or gcd(k, m) != 1):
        root_domain(m, k)       # raises the config error, builds no field
    check_work("identities", args.n, m)     # before any suite runs
    t0 = time.perf_counter()
    reports = [verify_remark_identities(args.n), check_local_confluence(args.n)]
    if args.m is not None:
        reports.append(verify_central_powers(args.n, args.m, args.k))
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = {"suites": [rep.to_dict() for rep in reports]}
        _emit(_envelope("identities",
                        {"n": args.n, "m": args.m, "k": args.k},
                        payload, elapsed), args.out)
    else:
        _emit(_render_suites(reports), args.out)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_VERIFY


# command: (function, {flag: type of its value, None for a bare switch},
# required flags); a flag not given reads as None, or as its _DEFAULTS entry
_OUT = {"--json": None, "--out": str}
COMMANDS = {
    "pi-degree": (cmd_pi_degree, {"--n": int, "--m": int, **_OUT}, ("--n", "--m")),
    "identities": (cmd_identities, {"--n": int, "--m": int, "--k": int, **_OUT},
                   ("--n",)),
    "build": (cmd_build, {"--config": str, "--max-dim": int, **_OUT}, ("--config",)),
    "verify": (cmd_verify, {"--config": str, "--max-dim": int, **_OUT}, ("--config",)),
}
_DEFAULTS = {"--k": 1}

USAGE = """\
usage: qeuclid pi-degree  --n N --m M [--json] [--out FILE]
       qeuclid identities --n N [--m M] [--k K] [--json] [--out FILE]
       qeuclid build      --config FILE [--max-dim N] [--json] [--out FILE]
       qeuclid verify     --config FILE [--max-dim N] [--json] [--out FILE]
       qeuclid --version | -h | --help
Flags take --flag VALUE or --flag=VALUE and are never abbreviated.  Exit
codes: 0 pass, 2 config or usage error, 3 check failed, 4 guard exceeded.
"""


class UsageError(Exception):
    """An argv that names no command or misuses a flag."""


def _parse_argv(argv):
    """The function of argv's command and the args object it reads."""
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"unknown command {argv[0]!r}" if argv else "no command")
    func, flags, required = COMMANDS[argv[0]]
    values = {flag: _DEFAULTS.get(flag) for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags or eq and flags[flag] is None:
            raise UsageError(f"unknown argument {token!r} to {argv[0]}")
        kind = flags[flag]
        if kind and not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        try:
            values[flag] = kind(value) if kind else True
        except ValueError:
            raise UsageError(f"{flag} needs an integer, not {value!r}") from None
    for flag in required:
        if values[flag] is None:
            raise UsageError(f"{argv[0]} needs {flag}")
    return func, SimpleNamespace(**{flag[2:].replace("-", "_"): value
                                    for flag, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--version"]:
        print(__version__)
        return EXIT_OK
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return EXIT_OK
    try:
        func, args = _parse_argv(argv)
        if args.out:
            _check_out(args.out)
        return func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ZeroDivisionError) as exc:  # ParamError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
