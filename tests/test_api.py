import rise


def test_every_exported_name_resolves():
    missing = [name for name in rise.__all__ if not hasattr(rise, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(rise.__all__) == len(set(rise.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from rise import *", namespace)
    assert set(rise.__all__) <= set(namespace)
