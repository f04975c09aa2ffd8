"""The result records against ``dataclasses``.

Every class decorated with ``algebra._record`` is rebuilt as a
``dataclasses.dataclass`` twin from the same annotations, defaults,
``__post_init__`` and ``frozen`` flag.  On records taken from the corpus
checks and from fuzz-shaped families, a record and its twin must agree on
construction (positional and keyword), ``==`` and ``!=`` (also against
other record classes), ``hash``, ``repr``, the ``TypeError`` of a bad call
and the ``AttributeError`` of assigning to a frozen record.
"""

import ast
import dataclasses
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from equising import (
    ConstantMapError,
    NonPolynomialChartError,
    NoUnitChartError,
    Parametrization,
    SeriesT,
    blowup_singular_locus,
    check_factorization,
    equivalence_crosscheck,
    load_curve,
    load_equations,
    load_family,
    nash_modification,
    parse_poly,
    rolle_for_curve,
    rolle_for_map,
    series_reversion,
    strong_equisingularity_check,
    verify_implicit_equations,
)
from equising.limits import Verdict, _SweepState
from conftest import corpus_path, random_binomial_family, random_monomial_family

SRC = Path(__file__).resolve().parent.parent / "src" / "equising"
CORPUS_FAMILIES = ["family-345", "family-352", "family-467", "family-589", "tangent-arc"]


def _trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _declared_records() -> dict[str, tuple[str, bool]]:
    """Class name -> (module, frozen) for every ``@_record`` class, read
    from the source."""
    out = {}
    for name, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if (call.func if call else dec).id != "_record":
                    continue
                frozen = all(kw.value.value for kw in (call.keywords if call else ())
                             if kw.arg == "frozen")
                out[node.name] = (f"equising.{name.removesuffix('.py')}", frozen)
    return out


DECLARED = _declared_records()
RECORDS = {name: getattr(importlib.import_module(module), name)
           for name, (module, _) in DECLARED.items()}


def _twin(cls: type) -> type:
    own = vars(cls)
    fields = list(own["__annotations__"])
    namespace = {"__annotations__": dict(own["__annotations__"]),
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    namespace.update({f: own[f] for f in fields if f in own})
    if "__post_init__" in own:
        namespace["__post_init__"] = own["__post_init__"]
    frozen = DECLARED[cls.__name__][1]
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, (), namespace))


TWINS = {name: _twin(cls) for name, cls in RECORDS.items()}


def _collect(obj, out: dict[str, list]) -> None:
    name = type(obj).__name__
    if RECORDS.get(name) is type(obj):
        out[name].append(obj)
        for value in obj._values:
            _collect(value, out)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            _collect(value, out)


def _results(fam: Parametrization):
    yield fam
    yield equivalence_crosscheck(fam)
    yield strong_equisingularity_check(fam)
    for modify in (blowup_singular_locus, nash_modification):
        try:
            mod = modify(fam)
        except (NoUnitChartError, NonPolynomialChartError):
            continue
        yield mod
        yield check_factorization(fam, mod.family)
    try:
        yield rolle_for_map(fam, parse_poly(" - ".join(fam.ambient[1:3]), fam.ambient))
    except ConstantMapError:
        pass


@pytest.fixture(scope="module")
def instances() -> dict[str, list]:
    out = {name: [] for name in RECORDS}
    sources = []
    for name in CORPUS_FAMILIES:
        fam = load_family(corpus_path(f"{name}.json"))
        sources += _results(fam)
        sources.append(equivalence_crosscheck(fam, basepoint=1))
    fam = load_family(corpus_path("family-345.json"))
    sources.append(verify_implicit_equations(
        fam, load_equations(corpus_path("family-345.eqs.json"), fam)))
    _, curve = load_curve(corpus_path("cusp-curve.json"))
    sources.append(rolle_for_curve(curve, [Fraction(-1), 1]))
    rng = random.Random(24)
    for _ in range(6):
        sources += _results(random_monomial_family(rng))
        sources.append(equivalence_crosscheck(random_binomial_family(rng)))
    u = SeriesT.from_poly(parse_poly("1 + 2*t - 3/2*t^3", ("t",)), 6)
    s = SeriesT.from_poly(parse_poly("t - 5*t^2 + 1/3*t^4", ("t",)), 5)
    sources += [u, series_reversion(u, 2), u.compose(s), series_reversion(u, 3).compose(s)]
    for result in sources:
        _collect(result, out)
    witness = out["ArcWitness"][0]
    out["_SweepState"] += [_SweepState([]), _SweepState(["no root"], Verdict.INCONCLUSIVE),
                           _SweepState([], Verdict.REFUTED, witness)]
    return out


def _call(fn, *args, **kwargs):
    """The outcome of a call: its result, or the type and text of its error."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, AttributeError) as exc:
        return (AttributeError if isinstance(exc, AttributeError) else TypeError,
                str(exc))


def test_every_record_comes_from_the_decorator():
    imports = [(name, [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module]) for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [name for name, modules in imports if "dataclasses" in modules] == []
    assert len(RECORDS) == 18
    assert [name for name, (_, frozen) in DECLARED.items() if not frozen] == ["_SweepState"]


def test_corpus_and_fuzz_build_every_record(instances):
    assert [name for name, found in instances.items() if not found] == []


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_record_matches_dataclass_twin(name, instances):
    cls, twin = RECORDS[name], TWINS[name]
    fields = list(vars(cls)["__annotations__"])
    required = [f for f in fields if f not in vars(cls)]
    frozen = DECLARED[name][1]
    others = [found[0] for other, found in instances.items() if other != name]
    seen = instances[name][:25]
    for x in seen:
        args = x._values
        kwargs = dict(zip(fields, args))
        rec, rec_kw, tw = cls(*args), cls(**kwargs), twin(*args)
        assert rec == rec_kw == x and not rec != x
        assert repr(rec) == repr(rec_kw) == repr(tw) == repr(twin(**kwargs))
        if frozen:
            assert hash(rec) == hash(x) == hash(tw)
        else:
            assert _call(hash, rec) == _call(hash, tw) == (TypeError, f"unhashable type: '{name}'")
        for y in seen:
            ty = twin(*y._values)
            assert (rec == y, rec != y) == (tw == ty, tw != ty)
        for y in others:
            ty = TWINS[type(y).__name__](*y._values)
            assert rec.__eq__(y) is tw.__eq__(ty) is NotImplemented
            assert (rec == y, rec != y) == (tw == ty, tw != ty) == (False, True)
        assert (rec == tw, rec != tw) == (False, True)
        # a subclass instance is another class too
        sub, twin_sub = type("Sub", (cls,), {})(*args), type("Sub", (twin,), {})(*args)
        assert (rec == sub, sub != rec) == (tw == twin_sub, twin_sub != tw) == (False, True)
        # the errors of bad calls, message included
        if required:
            missing = args[:len(required) - 1]
            assert _call(cls, *missing) == _call(twin, *missing)
            assert _call(cls, *missing)[0] is TypeError
        assert _call(cls, *args, None) == _call(twin, *args, None)
        assert _call(cls, *args, unexpected=1) == _call(twin, *args, unexpected=1)
        assert _call(cls, *args[1:], **{fields[0]: args[0]}) == \
            _call(twin, *args[1:], **{fields[0]: args[0]})
        for f in fields:
            value = getattr(rec, f)
            if frozen:
                assert _call(setattr, rec, f, value) == _call(setattr, tw, f, value)
                assert _call(delattr, rec, f) == _call(delattr, tw, f)
                assert _call(setattr, rec, "extra", 1) == _call(setattr, tw, "extra", 1)
                assert _call(setattr, rec, f, value)[0] is AttributeError
            else:
                setattr(rec, f, value)
                setattr(tw, f, value)
        assert repr(rec) == repr(tw)


def test_post_init_refusals_match_the_twin():
    bad = ((Fraction(2), None), (Fraction(1), None))
    for make in (RECORDS["Arc"], TWINS["Arc"]):
        with pytest.raises(ValueError, match="increasing"):
            make(bad)
    for make in (RECORDS["SeriesT"], TWINS["SeriesT"]):
        with pytest.raises(ValueError, match="length"):
            make((), 1)


def test_parametrization_equality_ignores_the_recentering_cache():
    fam = load_family(corpus_path("family-345.json"))
    fresh = Parametrization(fam.entries, fam.ambient, fam.name)
    fam.centered(1)
    assert fam._last_center is not None and fresh._last_center is None
    assert fam == fresh and hash(fam) == hash(fresh) and repr(fam) == repr(fresh)
    assert "_last_center" not in repr(fam)
