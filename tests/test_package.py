import inspect

import mmdtube


def test_every_public_name_is_exported():
    public = {name for name, value in vars(mmdtube).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - set(mmdtube.__all__) == set()
    assert set(mmdtube.__all__) <= public
