"""Per-layer tracing by wrapping rmsig's functions from outside.

`Tracer.install` replaces every public function of the traced layers
(plus the few private ones named in EXTRA) with a timing wrapper.  The
wrapper is put on every rmsig module attribute that holds the original,
so calls through `from .x import f` names are caught as well.  A function
that no longer exists is simply not wrapped; the metrics that need it
come out absent (None) instead of failing the run.

Calls are aggregated in memory, keyed by (root, span, parent span, tag):
`root` is the benchmark operation in progress ("sign", "verify",
"calibrate", "setup:<j>", ...), the parent is the innermost wrapped call
that made this one.  Each entry keeps the call count, the rows handed in
(decoder only), the inclusive time and the layer self time: inclusive
time minus the time spent in wrapped calls of other layers beneath it.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("gf2", "rmcode", "modcode", "decoder", "scheme", "analysis", "formats")
EXTRA = {"scheme": ("_syndrome_from_digest",)}
GF2_PRODUCTS = {"gf2.mat_mul", "gf2.mat_vec"}

_CALLS, _ROWS, _INCL, _SELF = range(4)


def _square_operand(args) -> bool:
    return any(
        isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]
        for a in args[:2]
    )


class Tracer:
    """Holds the current root operation and, once installed, the call table."""

    def __init__(self) -> None:
        self.root = "idle"
        self.table: dict[tuple, list] = defaultdict(lambda: [0, 0, 0, 0])
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def install(self) -> list[str]:
        """Wrap the traced layers' functions; return the names wrapped."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rmsig.{layer}")
            extra = EXTRA.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in extra)
                ):
                    originals[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rmsig" and not mod_name.startswith("rmsig."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))
        return sorted(w.__qualname__ for w in originals.values())

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, layer: str, full: str, fn):
        stack, table = self._stack, self.table
        count_rows = layer == "decoder"
        tag_shape = full in GF2_PRODUCTS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [full, layer, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[2] += frame[2] if parent[1] == layer else dur
                tag = "square" if tag_shape and _square_operand(args) else ""
                entry = table[(self.root, full, parent[0] if parent else None, tag)]
                entry[_CALLS] += 1
                if count_rows and len(args) > 1 and isinstance(args[1], np.ndarray):
                    entry[_ROWS] += args[1].shape[0] if args[1].ndim == 2 else 1
                entry[_INCL] += dur
                entry[_SELF] += dur - frame[2]

        wrapper.__qualname__ = full
        wrapper.__wrapped__ = fn
        return wrapper

    def total(self, root, name, *, parent=None, parent_layer=None, tag=None, field=_INCL):
        """Sum one field over table entries that match; None if none match."""
        names = {name} if isinstance(name, str) else name
        found = False
        acc = 0
        for (r, n, p, t), entry in self.table.items():
            if r != root or n not in names:
                continue
            if parent is not None and p != parent:
                continue
            if parent_layer is not None and (p is None or not p.startswith(parent_layer + ".")):
                continue
            if tag is not None and t != tag:
                continue
            found = True
            acc += entry[field]
        return acc if found else None

    def rows(self, root, name):
        return self.total(root, name, field=_ROWS)

    def layer_self(self, root, name):
        return self.total(root, name, field=_SELF)

    def rows_report(self) -> list[dict]:
        return [
            {"root": r, "span": n, "parent": p, "tag": t, "calls": e[_CALLS],
             "rows": e[_ROWS], "incl_ns": e[_INCL], "layer_self_ns": e[_SELF]}
            for (r, n, p, t), e in sorted(self.table.items(), key=lambda kv: -kv[1][_INCL])
        ]


def _div(num, den, scale=1.0):
    if num is None or not den:
        return None
    return num * scale / den


def _setup_median(tracer: Tracer, setups: int, names, scale: float):
    per = [tracer.total(f"setup:{j}", names) for j in range(setups)]
    if any(v is None for v in per):
        return None
    return statistics.median(per) * scale


def layer_metrics(tracer: Tracer, *, setups: int, signatures: int, trials_sum: int,
                  verifies: int, minflt_per_verify: float, syndromes: int,
                  s_inv_s: float, speed: float) -> dict[str, float | None]:
    """Derive the per-layer metrics listed in BENCHMARK.json from the call table.

    Times are multiplied by `speed`, the run's REF_NS / median reference
    time, so that they read at the same fixed host speed as the
    end-to-end metrics.
    """
    t = tracer
    trials = t.rows("sign", "decoder.punctured_coset_leaders")
    us = 1e-3 * speed  # ns -> us at the reference speed
    sec = 1e-9 * speed

    def setup(names):
        return _setup_median(t, setups, names, sec)

    products = GF2_PRODUCTS
    verify_product = t.total("verify", products, parent="scheme.verify")
    calib = t.total("calibrate", "analysis.calibrate")
    calib_decode = t.total("calibrate", "decoder.coset_leaders")
    overhead = None if calib is None or calib_decode is None else calib - calib_decode
    return {
        "scheme.sign_us_per_trial": _div(t.total("sign", "scheme.sign"), trials, us),
        "scheme.hash_us_per_trial": _div(
            t.total("sign", "scheme._syndrome_from_digest"), trials, us),
        "scheme.trials_evaluated_per_sig": _div(trials, signatures),
        "scheme.batch_useful_ratio": _div(trials_sum, trials),
        "scheme.verify_us": _div(t.total("verify", "scheme.verify"), verifies, us),
        "scheme.keygen_s": setup("scheme.keygen"),
        "scheme.s_inv_s": s_inv_s * speed,
        "gf2.sinv_us_per_trial": _div(
            t.total("sign", products, parent="scheme.sign", tag="square"), trials, us),
        "gf2.selfcheck_us_per_trial": _div(
            t.total("sign", products, parent_layer="decoder"), trials, us),
        "gf2.rblock_us_per_trial": _div(
            t.total("sign", products, parent="scheme.sign", tag=""), trials, us),
        "gf2.verify_product_us": _div(verify_product, verifies, us),
        "gf2.minflt_per_verify": minflt_per_verify,
        "gf2.rref_s": setup("gf2.rref"),
        "gf2.invert_s": setup("gf2.invert"),
        "decoder.punctured_us_per_trial": _div(
            t.layer_self("sign", "decoder.punctured_coset_leaders"), trials, us),
        "decoder.plain_us_per_syndrome": _div(
            t.layer_self("calibrate", "decoder.coset_leaders"), syndromes, us),
        "rmcode.build_s": setup({"rmcode.build", "rmcode.build_with_perm"}),
        "modcode.puncture_plan_s": setup("modcode.puncture_plan"),
        "modcode.align_s": setup("modcode.align_information_set"),
        "modcode.build_modified_s": setup("modcode.build_modified"),
        "formats.save_keys_s": setup({"formats.save_public_key", "formats.save_private_key"}),
        "formats.load_public_s": setup("formats.load_public_key"),
        "formats.load_private_s": setup("formats.load_private_key"),
        "analysis.overhead_us_per_syndrome": _div(overhead, syndromes, us),
    }
