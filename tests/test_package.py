import inspect

import gsp_lab
from gsp_lab import detector, errors, functions, identities, moments, quadrature, sampler


def test_public_names_are_the_modules_exports():
    modules = (errors, functions, quadrature, moments, identities, sampler, detector)
    exported = set().union(*(m.__all__ for m in modules))
    public = {
        name for name, value in vars(gsp_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exported
