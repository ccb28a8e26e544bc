"""The package namespace: every public name resolves, and only those."""

import dirac1d


def test_every_public_name_resolves():
    missing = [name for name in dirac1d.__all__ if not hasattr(dirac1d, name)]
    assert missing == []
    assert len(set(dirac1d.__all__)) == len(dirac1d.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from dirac1d import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dirac1d.__all__)
