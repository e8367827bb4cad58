"""Modules loaded on first use rather than at import.

A registered module is put in sys.modules at once, but its code runs
only when one of its attributes is first read. numpy and mpmath are
registered here, and the package registers its own submodules, so a
command runs only the modules whose names it reads: verify-d4 runs sic4
and tower, galois runs galois and tower, and units adds minpoly and
polynomials to verify-d4's; none runs either library. numpy is read
by the search and the numeric helpers. mpmath is read only by
--precision extended and embed(..., dps=...): a default-precision
embed that the double bound does not certify falls back to an exact
integer sum, with an integer-checked bound, not to mpmath.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module `name`, executed on its first attribute access.

    A module that is not installed raises ModuleNotFoundError here, not
    an AttributeError later; one already imported is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
mpmath = lazy_import("mpmath")
