"""Frozen value records (``artifact._record``): every record class keeps the
dataclass semantics the package relies on."""

import dataclasses
import importlib
import pkgutil

import pytest

import artifact
from artifact import _record
from artifact.cli import parse_config
from artifact.criteria import HOLDS, UNIQUE_GIBBS, CriteriaReport, Verdict
from artifact.fseq import Word
from artifact.intervals import Interval
from artifact.kernel import KernelResult, _markov
from artifact.potential import CouplingLaw, PairPotential, SeriesValue
from artifact.ratiobound import DecayEnvelope
from artifact.rows import GVariationBound, RnSeries, _tail_table

# every module of the package; __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(artifact.__path__) if m.name != "__main__")

LAW = CouplingLaw.power_law(2.0)
P = PairPotential(LAW, 0.3, 12)
NN = PairPotential(CouplingLaw.finite_table([1.0]), 1.0)
I = Interval(1.0, 2.0)
# records holding arrays: they compare and hash by identity
IDENTITY_RECORDS = ("MarkovConditional",)
VERDICT = Verdict("berbee", HOLDS, I, "certificate", UNIQUE_GIBBS)
RN = RnSeries(3, I, False, "certificate", 7)

# one instance of every record class, built the way the package builds it
SAMPLES = {
    "RunConfig": lambda: parse_config({"potential": {"kind": "zero", "beta": 1.0}}),
    "Verdict": lambda: VERDICT,
    "CriteriaReport": lambda: CriteriaReport((VERDICT,), {"alpha": 0.5}),
    "Word": lambda: Word(-1, (1, 1, -1)),
    "Interval": lambda: I,
    "KernelResult": lambda: KernelResult(0.25, (0, 3)),
    "MarkovConditional": lambda: _markov.__wrapped__(NN),
    "CouplingLaw": lambda: LAW,
    "PairPotential": lambda: P,
    "SeriesValue": lambda: SeriesValue(I, False, "certificate"),
    "RnSeries": lambda: RN,
    "GVariationBound": lambda: GVariationBound(3, RN, I),
    "DecayEnvelope": lambda: DecayEnvelope(1.0, 2.0, 1, "derivation"),
}


def record_classes():
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"artifact.{name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "__match_args__" in vars(obj):
                found[obj.__qualname__] = obj
    return found


def values(obj):
    return tuple(getattr(obj, n) for n in type(obj).__match_args__)


def test_every_record_class_has_a_sample():
    assert sorted(record_classes()) == sorted(SAMPLES)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_semantics(name):
    cls = record_classes()[name]
    obj = SAMPLES[name]()
    fields = cls.__match_args__
    assert type(obj) is cls and fields

    # equal fields, positionally or by keyword: equal objects with equal hashes,
    # except that records holding arrays compare and hash by identity
    for twin in (cls(*values(obj)), cls(**dict(zip(fields, values(obj))))):
        if name in IDENTITY_RECORDS:
            assert twin != obj and not (twin == obj) and obj == obj
            assert hash(twin) == object.__hash__(twin) and hash(obj) == object.__hash__(obj)
        else:
            assert twin == obj and not (twin != obj) and twin is not obj
            assert hash_or_error(twin) == hash_or_error(obj)

    # the same semantics as a frozen dataclass over the same fields
    ref_cls = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    ref = ref_cls(*values(obj))
    if name not in IDENTITY_RECORDS:
        assert hash_or_error(obj) == hash_or_error(ref)
    if cls.__repr__.__module__ == _record.__name__:  # Interval writes its own
        assert repr(obj) == repr(ref)

    # another class with the same field values is unequal
    other = _record.record(type("Other", (), {"__annotations__": dict.fromkeys(fields, object)}))
    assert other(*values(obj)) != obj and obj != other(*values(obj))
    assert obj != ref and ref != obj
    assert obj != values(obj)

    # frozen: assignment and deletion raise AttributeError
    for attr in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    with pytest.raises(_record.FrozenInstanceError, match="cannot assign to field"):
        setattr(obj, fields[0], None)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((3, I, False, "c", 7, 8), {}),  # too many positional arguments
        ((3, I, False), {}),  # certificate missing
        ((3, I, False, "c"), {"window": 4}),  # window given twice
        ((3, I, False, "c"), {"bogus": 1}),  # not a field
        ((3, I, False), {"bogus": 1}),  # as many arguments as fields, one of them unknown
    ],
)
def test_record_init_checks_its_arguments(args, kwargs):
    with pytest.raises(TypeError, match=r"RnSeries\(\) takes each of window, enclosure, divergent, certificate"):
        RnSeries(*args, **kwargs)


def test_record_init_fills_defaults_and_runs_the_checks():
    assert RnSeries(3, I, False, "c").terms_used == 0
    assert RnSeries(certificate="c", divergent=False, enclosure=I, window=3) == RnSeries(3, I, False, "c", 0)
    with pytest.raises(ValueError, match="letters must be spins"):
        Word(0, (1, 0))
    with pytest.raises(TypeError):
        Interval(1.0)
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        PairPotential(LAW, -1.0)


def test_criteria_report_gets_a_fresh_dict_of_knobs():
    a, b = CriteriaReport(()), CriteriaReport(())
    assert a.knobs == {} and a.knobs is not b.knobs
    assert CriteriaReport((), knobs={"alpha": 0.5}).knobs == {"alpha": 0.5}


def test_equal_markov_conditionals_are_distinct():
    # separately built arrays: value equality would have to ask an array for a truth value
    a, b = (_markov.__wrapped__(NN) for _ in range(2))
    assert a != b and not (a == b) and a == a
    assert hash(a) != hash(b) and len({a, b}) == 2


def test_equal_potentials_share_one_tail_table():
    _tail_table.cache_clear()
    p, q = PairPotential(CouplingLaw.power_law(3.0), 0.5), PairPotential(CouplingLaw.power_law(3.0), 0.5)
    assert p is not q and p == q and hash(p) == hash(q)
    assert _tail_table(p, 8) is _tail_table(q, 8)
    info = _tail_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert _tail_table(PairPotential(CouplingLaw.power_law(3.0), 0.25), 8) is not _tail_table(p, 8)
