"""Per-op correctness gate.

An op fails when it raises, returns a non-finite value, misses its
tolerance against an independent reference (margin > 1) or cannot be
verified; a ``verify`` verdict other than the seed's and a CLI answer that
differs from the library's fail too.  Any failed op makes the run incorrect:
the op streams leave out the seed's known limit regions
(``oracles.known_limit``), where the library is known to fail.  Gates run
after the timed loop, so reference work is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass

import ellipoly as E

import battery
import oracles
import workloads


@dataclass(frozen=True)
class Outcome:
    failed: bool
    reason: str = ""
    margin: float | None = None


def _failure(op, out) -> Outcome | None:
    """The outcome of an op that raised or returned a non-finite value."""
    if isinstance(out, Exception):
        reason = type(out).__name__
    elif not oracles.finite(out):
        reason = "nonfinite"
    else:
        return None
    return Outcome(True, reason=reason)


def _checked(margin_fn) -> Outcome:
    try:
        margin = margin_fn()
    except oracles.Unverifiable:
        return Outcome(True, reason="unverifiable")
    if margin is not None and not margin <= 1.0:
        return Outcome(True, reason="tolerance", margin=margin)
    return Outcome(False, margin=margin)


def battery_outcome(op, out) -> Outcome:
    if isinstance(out, Exception):
        return Outcome(True, reason=type(out).__name__)
    if not all(battery.verdict_as_expected(r) for r in out):
        return Outcome(True, reason="verdict")
    return Outcome(False, margin=max(battery.battery_margins(out).values()))


def gram_outcome(op, out) -> Outcome:
    bad = _failure(op, out if isinstance(out, Exception) else
                   out.matrix if op.kind == "gram_matrix" else out.entries)
    if bad:
        return bad
    def closed_entry(l, n):
        return E.christoffel_entry_closed(E.ChristoffelBasis(op.alpha, op.params, op.v), l, n)
    return _checked(lambda: oracles.gram_margin(op, out, closed_entry))


def closed_outcome(op, out) -> Outcome:
    bad = _failure(op, out)
    if bad:
        return bad
    return _checked(lambda: oracles.closed_margin(op, out))


def cli_outcome(op, out) -> Outcome:
    if isinstance(out, Exception):
        return _failure(op, out)
    code, stdout, stderr = out
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(True, reason=f"exit {code}: {last[0].split(':')[0]}")
    try:
        data = oracles.parse_cli(stdout)["data"]
    except ValueError:
        return Outcome(True, reason="nonstrict json")
    value = oracles.cli_value(op, data)
    try:
        library = workloads.cli_library_value(op)
    except (ValueError, ArithmeticError):
        library = None
    if library is None or not oracles.same_value(value, library):
        return Outcome(True, reason="differs from library")
    return _checked(lambda: oracles.cli_margin(op, value))


GATES = {
    "verify_battery": battery_outcome,
    "gram_sweep": gram_outcome,
    "closed_forms": closed_outcome,
    "cli_cold": cli_outcome,
}
