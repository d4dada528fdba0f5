"""Records: construction, equality, hashing, freezing and repr, against the
dataclass behaviour they keep."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import darboux
from darboux.envelope import Mesh
from darboux.expr import Add, Const, Sub, Var
from darboux.scenes import load_bundled
from darboux.singular import Germ, SingularityClass
from darboux.transon import TransonReport

X, Y, HALF = Var("x"), Var("y"), Const(Fraction(1, 2))


def _raises(error, call):
    try:
        call()
    except error:
        return True
    return False


def _mesh():
    return Mesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.intp), np.zeros(0),
                np.zeros(0, dtype=bool), (0,))


def _report():
    return TransonReport([0.0], [0.1], [], [], 0.0, [], "coincide")


def _twin_repr(record):
    """The repr a dataclass with the same name, fields and values gives."""
    twin = dataclasses.make_dataclass(type(record).__name__, type(record)._fields)
    return repr(twin(*(getattr(record, name) for name in type(record)._fields)))


def _assign(record, name):
    setattr(record, name, None)


def _unpickled(record):
    """The record through pickle after its first hash; string hashes differ
    between processes, so the cached hash must not travel with it."""
    hash(record)
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("check", [
    pytest.param(lambda: Add(X, Y) != Sub(X, Y), id="class decides equality"),
    pytest.param(lambda: Add(X, Y) == Add(Var("x"), Var("y"))
                 and hash(Add(X, Y)) == hash(Add(Var("x"), Var("y"))), id="equal fields"),
    pytest.param(lambda: Add(X, Y) != Add(Y, X), id="field order"),
    pytest.param(lambda: Add(X, HALF) == Add(X, Const(Fraction(2, 4))), id="field values"),
    pytest.param(lambda: len({Add(X, Y), Add(X, Y), Sub(X, Y)}) == 2, id="set of nodes"),
    pytest.param(lambda: _raises(AttributeError, lambda: _assign(HALF, "value")),
                 id="frozen node"),
    pytest.param(lambda: _raises(AttributeError, lambda: _assign(load_bundled("a2"), "n")),
                 id="frozen scene"),
    pytest.param(lambda: _raises(AttributeError, lambda: delattr(X, "name")), id="frozen delete"),
    pytest.param(lambda: _unpickled(load_bundled("e6")).__dict__.get("_cached_hash") is None
                 and _unpickled(load_bundled("e6")) == load_bundled("e6"), id="pickle drops hash"),
    pytest.param(lambda: _raises(TypeError, lambda: hash(_mesh())), id="mesh unhashable"),
    pytest.param(lambda: _raises(TypeError, lambda: hash(_report())), id="report unhashable"),
    pytest.param(lambda: _report().diagnostics is not _report().diagnostics
                 and _mesh().diagnostics == [], id="own default list"),
    pytest.param(lambda: _raises(TypeError, lambda: Add(X)), id="missing argument"),
    pytest.param(lambda: _raises(TypeError, lambda: Add(X, Y, Y)), id="extra argument"),
    pytest.param(lambda: _raises(TypeError, lambda: Add(X, Y, right=Y)), id="repeated argument"),
    pytest.param(lambda: _raises(TypeError, lambda: Var(nam="x")), id="unknown keyword"),
    pytest.param(lambda: _raises(TypeError, lambda: Germ(1)), id="missing without default"),
    pytest.param(lambda: Germ(nvars=2, order=3, jet=None) == Germ(2, 3, None, None, (), ()),
                 id="keywords and defaults"),
    pytest.param(lambda: _raises(ValueError, lambda: SingularityClass("D", corank=1)),
                 id="post init"),
    pytest.param(lambda: repr(Add(X, HALF))
                 == "Add(left=Var(name='x'), right=Const(value=Fraction(1, 2)))", id="repr"),
    pytest.param(lambda: "number" not in repr(HALF) and HALF.number == 0.5, id="number out"),
    pytest.param(lambda: all(repr(r) == _twin_repr(r) for r in (
        SingularityClass("A", k=2, detail={"u": 1}), Germ(1, 2, X), _report())),
                 id="dataclass repr"),
])
def test_record_semantics(check):
    assert check()


def test_import_builds_no_dataclass():
    """Records generate no code at import, so darboux never loads
    dataclasses; numpy does not load it either, so the check is live."""
    script = ("import sys, json\nimport numpy\nbefore = 'dataclasses' in sys.modules\n"
              "import darboux\nprint(json.dumps([before, 'dataclasses' in sys.modules]))\n")
    src = str(Path(darboux.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env)
    before, after = json.loads(result.stdout)
    if before:
        pytest.skip("this numpy imports dataclasses with numpy itself")
    assert not after
