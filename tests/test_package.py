import inspect

import popuc as pp


def test_all_matches_the_package():
    # every export resolves, once, and every public name bound in the package
    # (its submodules aside) is exported
    namespace = {}
    exec("from popuc import *", namespace)
    assert len(set(pp.__all__)) == len(pp.__all__)
    assert all(namespace[name] is getattr(pp, name) for name in pp.__all__)
    public = {name for name, value in vars(pp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(pp.__all__)
