"""Tracing of qeuclid's layer boundaries, from outside the program.

A :class:`Tracer` wraps the public functions and methods listed in
``TARGETS`` for the duration of one traced call and restores the
originals afterwards.  Coarse calls are kept as spans (name, start, end,
parent); hot calls (scalar operations, the per-row action, the memoized
straightening step) are only tallied.  Both kinds report their calls,
inclusive time and self time: a call's duration minus the part covered
by the traced calls inside it.  The tracer's own bookkeeping is charged
to no layer, so it shows up only as the tracing overhead.
"""

from __future__ import annotations

import importlib
import sys
import time

# (key, module, attribute, kind).  The key's prefix is the layer.
# kind: "span" records every call; "tally" only counts and times;
# "scalar" also tracks the largest coefficient bit length of the result.
TARGETS = (
    ("cli.main", "qeuclid.cli", "main", "span"),
    ("cli.parse_config", "qeuclid.cli", "parse_config", "span"),
    ("repmod.build_module", "qeuclid.repmod", "build_module", "span"),
    ("repmod.act", "qeuclid.repmod", "act", "tally"),
    ("verify.run_verification", "qeuclid.verify", "run_verification", "span"),
    ("verify.check_relations", "qeuclid.verify", "check_relations", "span"),
    ("verify.check_omega_action", "qeuclid.verify", "check_omega_action", "span"),
    ("verify.check_central_scalars", "qeuclid.verify", "check_central_scalars", "span"),
    ("verify.check_eigen_separation", "qeuclid.verify", "check_eigen_separation", "span"),
    ("verify.check_dimension_bound", "qeuclid.verify", "check_dimension_bound", "span"),
    ("verify.commutant_dimension", "qeuclid.verify", "commutant_dimension", "span"),
    ("linalg.nullspace_dimension", "qeuclid.linalg", "nullspace_dimension", "span"),
    ("linalg.matmul", "qeuclid.linalg", "CycMatrix.__matmul__", "span"),
    ("linalg.pow", "qeuclid.linalg", "CycMatrix.__pow__", "span"),
    ("scalars.mul", "qeuclid.scalars", "Cyclotomic.__mul__", "scalar"),
    ("scalars.mul", "qeuclid.scalars", "Cyclotomic.__rmul__", "scalar"),
    ("scalars.inv", "qeuclid.scalars", "Cyclotomic.inv", "scalar"),
    ("scalars.addsub", "qeuclid.scalars", "Cyclotomic.__add__", "scalar"),
    ("scalars.addsub", "qeuclid.scalars", "Cyclotomic.__radd__", "scalar"),
    ("scalars.addsub", "qeuclid.scalars", "Cyclotomic.__sub__", "scalar"),
    ("rewriter.verify_central_powers", "qeuclid.rewriter", "verify_central_powers", "span"),
    ("rewriter.verify_remark_identities", "qeuclid.rewriter", "verify_remark_identities", "span"),
    ("rewriter.check_local_confluence", "qeuclid.rewriter", "check_local_confluence", "span"),
    ("rewriter.straighten_word", "qeuclid.rewriter", "straighten_word", "tally"),
    ("pidegree.pi_degree", "qeuclid.pidegree", "pi_degree", "span"),
    ("pidegree.smith_normal_form", "qeuclid.pidegree", "smith_normal_form", "span"),
    ("pidegree.kernel_basis", "qeuclid.pidegree", "kernel_basis", "span"),
)

LAYERS = ("cli", "repmod", "verify", "linalg", "scalars", "rewriter", "pidegree")


def _resolve(module, attr: str):
    """(owner, name, original) for 'func' or 'Class.method'."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counts for one traced call.  Create, ``install``, run
    the call, ``restore``, then read ``summary()`` and ``export_spans()``."""

    def __init__(self):
        self.spans: list[list] = []       # [key, start, end, parent, self]
        self.stats: dict[str, list] = {}  # key -> [calls, seconds, self]
        self.unknowns = 0                 # columns handed to the nullspace solver
        self.max_bits = 0                 # largest coefficient in a scalar result
        self.absent: dict[str, str] = {}  # key -> why it could not be traced
        self._patches: list[tuple] = []   # (owner, name, original)
        self._child = [0.0]               # traced time inside each open call
        self._open: list[int] = []        # indices of the open spans
        self._depth: dict[str, int] = {}

    # -- installing and restoring ------------------------------------------

    def install(self):
        for key, modname, attr, kind in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner, name, original = _resolve(module, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent.setdefault(key, f"{modname}.{attr} not found: {exc!r}")
                continue
            wrapper = self._wrap(key, original, kind)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            # `from .x import f` copies the binding, so every qeuclid
            # module that holds this function gets the wrapper.
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "qeuclid" or modname2.startswith("qeuclid."):
                    for attr2, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr2, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple]:
        """(owner, name, original) of every attribute the tracer replaced."""
        return list(self._patches)

    # -- the wrappers --------------------------------------------------------

    def _wrap(self, key, fn, kind):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        self._depth.setdefault(key, 0)
        depth, child, spans, open_ = self._depth, self._child, self.spans, self._open
        perf = time.perf_counter
        record = kind == "span"
        scalar = kind == "scalar"
        count_unknowns = key == "linalg.nullspace_dimension"

        def traced(*args, **kwargs):
            t0 = perf()
            if record:
                idx = len(spans)
                spans.append([key, t0, 0.0, open_[-1] if open_ else None, 0.0])
                open_.append(idx)
            if count_unknowns:
                self.unknowns += args[1] if len(args) > 1 else kwargs["ncols"]
            level = depth[key]
            depth[key] = level + 1
            child.append(0.0)
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    inner = child.pop()
                    depth[key] = level
                    stats[0] += 1
                    if level == 0:   # recursion: count the outermost call once
                        stats[1] += t1 - t0
                    stats[2] += t1 - t0 - inner
                    if record:
                        span = spans[open_.pop()]
                        span[2], span[4] = t1, t1 - t0 - inner
                if scalar:
                    nums = getattr(result, "nums", None)
                    if nums is not None:
                        bits = max(max(map(int.bit_length, nums), default=0),
                                   result.den.bit_length())
                        if bits > self.max_bits:
                            self.max_bits = bits
                return result
            finally:
                # the whole call, bookkeeping included, is the caller's child
                child[-1] += perf() - t0

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-key calls, inclusive and self seconds; per-layer self
        seconds; the nullspace unknowns, the largest coefficient bit
        length, and every target that could not be traced."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, own) in self.stats.items():
            layer_self[key.split(".")[0]] += own
        return {
            "keys": {key: {"calls": c, "seconds": s, "self": own}
                     for key, (c, s, own) in self.stats.items()},
            "layer_self": layer_self,
            "unknowns": self.unknowns,
            "max_bits": self.max_bits,
            "absent": dict(self.absent),
        }

    def export_spans(self, origin: float) -> list[dict]:
        return [{"name": key, "start": start - origin, "end": end - origin,
                 "parent": parent, "self": own}
                for key, start, end, parent, own in self.spans]
