"""The package's export list names only what the package defines."""

import emoverify


def test_every_exported_name_resolves():
    assert [name for name in emoverify.__all__ if not hasattr(emoverify, name)] == []
