"""The package's one NumPy handle: ``from ._numpy import np``.

NumPy is found when this module is imported, so a missing NumPy still fails
at import with ``ModuleNotFoundError``, but it is executed only on the first
attribute access.  Only the exact side imports it: the kernel walks
(``kernel``) and the sampler (``dynamics``).  The certified half, the
diagnostics of ``ratiobound`` included, is scalar Python and never pays for
it; ``cli`` imports this module so that a missing NumPy fails at its import.
"""

import importlib.util
import sys


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
