"""Shared test fixtures and the acceptance-criteria summary block."""

import numpy as np
import pytest

from ellipoly import ChristoffelBasis, make_params, orthonormal_values

# test_acceptance.py registers one (passed, detail) entry per criterion here;
# the terminal-summary hook prints them as a block after the run so the
# pass/fail lines are visible without -s.
CRITERION_LINES = {}


def record_criterion(number, passed, detail):
    CRITERION_LINES[number] = (bool(passed), detail)


def pytest_configure(config):
    # The library reports overflow by a clear ValueError; a numpy
    # RuntimeWarning raised from its code fails the test that triggered it.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:ellipoly")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for k in sorted(CRITERION_LINES):
        passed, detail = CRITERION_LINES[k]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {k:2d}: {status} -- {detail}")


def kernel_quotient(basis, nmax, z):
    """Christoffel-Darboux oracle for christoffel_values, valid away from v:

        P(1)_N(z) = [kappa_{N+1}(z, vbar) p_{N+1}(v) - kappa_{N+1}(v, vbar) p_{N+1}(z)]
                    / [(v - z) sqrt(kappa_{N+1} kappa_{N+2})],

    with kappa_i(z, vbar) = sum_{j<i} p_j(z) conj(p_j(v)).  It loses about
    eps/|z - v| to cancellation near the charge, and z = v is a 0/0."""
    v = basis.v
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    pv = orthonormal_values(basis.alpha, basis.params, nmax + 1, v)
    kv = np.concatenate(([0.0], np.cumsum(np.abs(pv) ** 2)))
    Pz = orthonormal_values(basis.alpha, basis.params, nmax + 1, zz)
    Kz = np.cumsum(Pz * pv.conj()[:, None], axis=0)
    N = np.arange(nmax + 1)
    numer = Kz[N] * pv[N + 1][:, None] - kv[N + 1][:, None] * Pz[N + 1]
    return numer / ((v - zz)[None, :] * np.sqrt(kv[N + 1] * kv[N + 2])[:, None])


def einsum_hessenberg(basis, nmax, rule):
    """Reference for hessenberg's Arnoldi matrix: <z p_n, p_l> by an einsum
    over the basis values on the rule, the closed values for a
    GegenbauerBasis and the kernel quotient under the charged weight
    |v - z|^2 for a ChristoffelBasis."""
    w = rule.weights
    if isinstance(basis, ChristoffelBasis):
        w = w * np.abs(basis.v - rule.nodes) ** 2
        P = kernel_quotient(basis, nmax, rule.nodes)
    else:
        P = orthonormal_values(basis.alpha, basis.params, nmax, rule.nodes)
    return np.einsum("k,lk,nk->ln", w, P.conj(), rule.nodes[None, :] * P[:nmax])


@pytest.fixture(scope="session")
def p21():
    return make_params(2.0, 1.0)


@pytest.fixture(scope="session")
def complex_grid():
    """A small grid of interior points of p(2,1), off the axes."""
    x = np.linspace(-1.5, 1.5, 5)
    y = np.linspace(-0.7, 0.7, 4)
    return (x[:, None] + 1j * y[None, :]).ravel()
