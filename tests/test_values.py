"""The value classes of the package: what importing it loads, and the
equality, hashing, repr, immutability, copy and pickle of every class."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from permcross import (
    CheckResult,
    QPoly,
    YQPoly,
    ZSeries,
    adjudicate_cor43,
    check_lemma,
    class_spec,
    dist,
    insertion_sets,
    stat_bundle,
)
from permcross.checks import Check
from permcross.distributions import crs_profile
from permcross.perm import Permutation

SRC = Path(__file__).resolve().parents[1] / "src"

#: One value of each of the 14 value classes, with the repr that a frozen
#: dataclass of the same fields gives for a sample of them.
VALUES = {
    "Permutation": (Permutation((2, 1, 3)), "Permutation(word=(2, 1, 3))"),
    "StatBundle": (
        stat_bundle((2, 1, 3)),
        "StatBundle(crs=0, nes=0, ut=0, lt=0, exc=1, des=1, inv=1, maxdrop=1)",
    ),
    "ClassSpec": (
        class_spec(4, avoid=[(3, 2, 1)], one_at=2),
        "ClassSpec(n=4, forbidden=((3, 2, 1),), constraint=('one_at', 2))",
    ),
    "QPoly": (QPoly((1, 2, 0)), "QPoly(coeffs=(1, 2))"),
    "YQPoly": (
        YQPoly(((1, 0, 3), (0, 1, 2), (1, 0, -3), (0, 0, 1))),
        "YQPoly(terms=((0, 0, 1), (0, 1, 2)))",
    ),
    "ZSeries": (
        ZSeries(QPoly, (QPoly.one(), QPoly.var())),
        "ZSeries(ring=<class 'permcross.polynomials.QPoly'>, "
        "coeffs=(QPoly(coeffs=(1,)), QPoly(coeffs=(0, 1))))",
    ),
    "DistributionReport": (
        dist(class_spec(3), "crs"),
        "DistributionReport(spec=ClassSpec(n=3, forbidden=(), constraint=None), "
        "statistics=('crs',), poly=QPoly(coeffs=(5, 1)), cardinality=6)",
    ),
    "CrsProfile": (crs_profile(3), None),
    "ResidualReport": (
        check_lemma("lem-2.4", (2, 1, 3), image="rc"),
        "ResidualReport(lemma='lem-2.4', word=(2, 1, 3), params=(('image', 'rc'),), "
        "lhs=0, rhs=0, passed=True)",
    ),
    "InsertionSets": (
        insertion_sets((3, 1, 4, 2), 3),
        "InsertionSets(a=frozenset({1}), b=frozenset(), c=frozenset(), j=3)",
    ),
    "Cor43Row": (adjudicate_cor43(2).rows[1], None),
    "Cor43Report": (
        adjudicate_cor43(1),
        "Cor43Report(n_max=1, rows=(Cor43Row(n=1, k=1, size=1, increments=(0,), "
        "statement=0, proof=-1, statement_ok=True, proof_ok=False),), winner='statement')",
    ),
    "Check": (
        Check("x", "describe", 3, len, 1),
        "Check(check_id='x', description='describe', default_bound=3, "
        "run=<built-in function len>, min_bound=1, reads=('S_n(T)',), reach=0)",
    ),
    "CheckResult": (
        CheckResult("x", "n<=1", "pass", (), 0.5),
        "CheckResult(check_id='x', bound='n<=1', status='pass', witnesses=(), runtime=0.5)",
    ),
}


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, permcross, permcross.checks, permcross.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    value, text = VALUES[name]
    cls = type(value)
    assert cls.__name__ == name and not hasattr(value, "__dict__")
    fields = tuple(getattr(value, slot) for slot in cls.__slots__)
    rebuilt = cls(*fields)
    assert rebuilt == value and not rebuilt != value and rebuilt is not value
    assert hash(rebuilt) == hash(value) == hash(fields)  # as a frozen dataclass hashes
    assert value.__eq__(fields) is NotImplemented and value != fields
    others = [v for other, (v, _) in VALUES.items() if other != name]
    assert all(value.__eq__(v) is NotImplemented and value != v for v in others)
    shown = ", ".join(f"{slot}={field!r}" for slot, field in zip(cls.__slots__, fields))
    assert repr(value) == f"{name}({shown})"
    if text is not None:
        assert repr(value) == text
    for slot in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, slot, None)
        with pytest.raises(AttributeError):
            delattr(value, slot)
    assert tuple(getattr(value, slot) for slot in cls.__slots__) == fields
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_a_changed_field_breaks_equality():
    spec = class_spec(4, avoid=[(3, 2, 1)])
    assert spec != class_spec(5, avoid=[(3, 2, 1)]) and spec != class_spec(4, avoid=[(3, 1, 2)])
    assert spec != class_spec(4, avoid=[(3, 2, 1)], one_at=1)
    assert QPoly((1, 2)) != QPoly((1, 3)) and YQPoly.y() != YQPoly.q()
    assert len({QPoly((1, 2, 0)), QPoly((1, 2)), QPoly((1,))}) == 2
