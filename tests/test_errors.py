import inspect
import pickle

import pytest

from walkup import errors

_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, Exception)]


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    # a batch worker's failure reaches the parent pickled
    exc = cls(7, "t must increase") if cls is errors.SchemaError else cls("no usable frame")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    if cls is errors.SchemaError:
        assert str(back) == "line 7: t must increase"
        assert (back.line, back.reason) == (7, "t must increase")
