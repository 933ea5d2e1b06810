"""The package's public surface: `__all__` names exactly the public
names that `densctl` binds, so a name deleted from a module but left in
`__all__` fails here."""

import types

import densctl


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from densctl import *", namespace)
    assert set(densctl.__all__) <= set(namespace)


def test_all_lists_each_public_binding_once():
    assert len(densctl.__all__) == len(set(densctl.__all__))
    public = {name for name, value in vars(densctl).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(densctl.__all__) == public
