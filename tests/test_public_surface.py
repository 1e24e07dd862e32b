"""The package's public surface: one public route per quantity."""

import importlib
import inspect

import ellipoly

LIBRARY_MODULES = ("geometry", "polynomials", "quadrature", "norms", "bergman",
                   "selberg", "limits", "verification")


def test_exports_are_the_union_of_the_library_modules_all():
    exported = {name for name, obj in vars(ellipoly).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    declared = set()
    for mod in LIBRARY_MODULES:
        declared.update(importlib.import_module(f"ellipoly.{mod}").__all__)
    assert exported == declared


def test_wrapper_routes_are_not_exported():
    for name in ("eval_gegenbauer", "christoffel_poly", "inner_product", "lp_norm"):
        assert not hasattr(ellipoly, name), name
    for name in ("gegenbauer_norm", "moment", "gegenbauer_matrix", "family_matrix"):
        assert hasattr(ellipoly, name), name
