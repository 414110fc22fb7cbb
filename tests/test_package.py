"""The package's public surface: every exported name resolves."""

import citebias


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in citebias.__all__ if not hasattr(citebias, name)] == []
    assert len(set(citebias.__all__)) == len(citebias.__all__)
    namespace: dict = {}
    exec("from citebias import *", namespace)
    assert set(citebias.__all__) <= namespace.keys()
