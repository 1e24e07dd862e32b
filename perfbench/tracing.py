"""Spans around ellipoly's public functions, recorded from outside the library.

The library binds names with ``from .x import y``, so a function lives in
the namespace of every module that imports it; ``Tracer.install`` replaces
each of those bindings (and the entries of ``verification.CHECKS``) with a
wrapper, and ``uninstall`` puts the originals back.  Spans are timed on
the process CPU clock, as the benchmark's op times are; they stay in memory
and are written out once, when the run ends; self time is derived from
them afterwards.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

from ellipoly import quadrature, verification


def _nodes(args, kwargs):
    """Rule size of a build_rule call: n_radial * n_angular."""
    n_radial = args[1] if len(args) > 1 else kwargs.get("n_radial", quadrature.DEFAULT_N_RADIAL)
    n_angular = args[2] if len(args) > 2 else kwargs.get("n_angular", quadrature.DEFAULT_N_ANGULAR)
    return n_radial * n_angular


def _node_degrees(args, kwargs):
    """family_matrix(family, nmax, z): (nmax + 1) values at every point."""
    nmax = args[1] if len(args) > 1 else kwargs["nmax"]
    z = args[2] if len(args) > 2 else kwargs["z"]
    return (nmax + 1) * np.size(z)


def _reduction_macs(args, kwargs):
    """gram_matrix(family, measure, nmax, rule, n_radial, n_angular): the
    einsum reduction does nodes * (nmax + 1)^2 multiply-adds."""
    nmax = args[2] if len(args) > 2 else kwargs["nmax"]
    rule = args[3] if len(args) > 3 else kwargs.get("rule")
    if rule is not None:
        nodes = rule.nodes.size
    else:
        nodes = _nodes((None,) + tuple(args[4:6]), kwargs)
    return nodes * (nmax + 1) ** 2


def _recurrence_steps(args, kwargs):
    """gegenbauer_norm(alpha, p, n) runs the recurrence n steps."""
    return args[2] if len(args) > 2 else kwargs["n"]


# module.function -> (counts computed from the arguments, reports .nonfinite)
LAYERS = {
    "quadrature.build_rule": ({"nodes": _nodes}, False),
    "quadrature.moment": ({}, False),
    "polynomials.family_matrix": ({"node_degrees": _node_degrees}, False),
    "polynomials.gegenbauer_matrix": ({}, False),
    "polynomials.gegenbauer_norm": ({"recurrence_steps": _recurrence_steps}, True),
    "polynomials.recurrence_coeffs": ({}, True),
    "norms.gram_matrix": ({"reduction_macs": _reduction_macs}, False),
    "norms.closed_norm": ({}, True),
    "norms.log_monic_norm": ({}, True),
    "bergman.hessenberg": ({}, False),
    "bergman.christoffel_values": ({}, False),
    "bergman.orthonormal_values": ({}, False),
    "bergman.heine_check": ({}, False),
    "bergman.christoffel_entry_closed": ({}, True),
    "selberg.selberg_product": ({}, True),
    "selberg.selberg_closed": ({}, True),
    "limits.hermite_limit": ({}, False),
    "limits.disc_limit": ({}, False),
    "limits.realline_limit": ({}, False),
}

CHECK_NAMES = [fn.__name__.removeprefix("check_") for fn in verification.CHECKS]


def layer_metric_names():
    """(name, unit) of every per-layer metric the tracer reports, per op."""
    out = []
    for layer, (computed, scalar) in LAYERS.items():
        out += [(f"{layer}.calls", "count/op"), (f"{layer}.self_ms", "ms/op"),
                (f"{layer}.errors", "count/op")]
        if scalar:
            out.append((f"{layer}.nonfinite", "count/op"))
        out += [(f"{layer}.{key}", "count/op") for key in computed]
    out += [(f"verification.{name}.ms", "ms/op") for name in CHECK_NAMES]
    return out


def _finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        return math.isfinite(abs(value))
    return True


class Tracer:
    """Records one span per wrapped call: (op, name, start, end, parent)."""

    def __init__(self):
        self.spans = []           # (id, op, name, start_ns, end_ns, parent)
        self.stack = []           # open span ids
        self.flagged = set()      # open spans that saw a numpy fp warning
        self.op = -1
        self.counts = defaultdict(float)
        self._patched = []        # (namespace, key, original)

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, computed, scalar):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            counts = tracer.counts
            counts[name + ".calls"] += 1
            for key, count in computed.items():
                counts[f"{name}.{key}"] += count(args, kwargs)
            start = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            else:
                if scalar and not _finite(result):
                    tracer.flagged.add(sid)
                return result
            finally:
                end = time.process_time_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, tracer.op, name, start, end, parent)
                if sid in tracer.flagged:
                    tracer.flagged.discard(sid)
                    if scalar:
                        counts[name + ".nonfinite"] += 1
        return wrapper

    def fp_event(self, kind, flag):
        """numpy error callback: mark every open span, once per call."""
        self.flagged.update(self.stack)

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ellipoly" or key.startswith("ellipoly."))]
        for layer, (computed, scalar) in LAYERS.items():
            mod_name, fn_name = layer.split(".")
            original = getattr(sys.modules[f"ellipoly.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, original, computed, scalar)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(vars(m), key, wrapper)
        checks = verification.CHECKS
        for i, fn in enumerate(checks):
            label = "verification." + fn.__name__.removeprefix("check_")
            self._patch(checks, i, self._wrap(label, fn, {}, False))

    def _patch(self, namespace, key, value):
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # ------------------------------------------------------------ reporting

    def per_op_metrics(self, n_ops: int, scale: float) -> dict:
        """Every per-layer metric, averaged over the traced ops; times are
        multiplied by the host speed ``scale`` (hostspeed.py)."""
        child_ns = defaultdict(int)
        for sid, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for sid, _, name, start, end, _ in self.spans:
            self_ns[name] += end - start - child_ns[sid]
            total_ns[name] += end - start
        out = {}
        for name, unit in layer_metric_names():
            layer, key = name.rsplit(".", 1)
            if key == "self_ms":
                value = self_ns[layer] / 1e6 * scale
            elif key == "ms":
                value = total_ns[layer] / 1e6 * scale
            else:
                value = self.counts[name]
            out[name] = (value / n_ops, unit)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

