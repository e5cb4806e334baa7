import sys

sys.setrecursionlimit(200_000)

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(*names)` wraps each named `gctt.eval` function wherever
    a gctt module names it, and returns a dict of its calls by name, which
    grows as they are made."""
    import gctt.eval as E

    def counted(calls, name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            fn = getattr(E, name)
            wrapper = counted(calls, name, fn)
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("gctt") and \
                        getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install
