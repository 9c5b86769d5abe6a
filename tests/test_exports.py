"""Public surface: every name in ``subsketch.__all__`` exists, once."""

import subsketch


def test_star_import_and_unique_exports():
    namespace = {}
    exec("from subsketch import *", namespace)  # a stale name raises AttributeError
    assert len(subsketch.__all__) == len(set(subsketch.__all__))
    assert set(subsketch.__all__) <= set(namespace)
