"""The records built per necklace, per site and per edge (`CircularWord`,
`RuleApplication`, `RewriteEdge`) keep the semantics of frozen dataclasses:
field order, `replace`, eq and hash, repr, pickling and deep copies, no
instance dict, and `FrozenInstanceError` on any assignment or deletion."""

import copy
import dataclasses
import pickle

import pytest

from circparikh import Alphabet, CircularWord, canonicalize, find_ce2, rewrite_closure
from circparikh.rewriting import RewriteEdge, RuleApplication

ABC = Alphabet("abc")
WORD = canonicalize(ABC, "abacca")
APPLICATION = find_ce2(canonicalize(ABC, "cbabbcba"))[0]
EDGE = rewrite_closure(WORD).edges[0]

ABC_REPR = "alphabet=Alphabet('a,b,c')"
WORD_REPR = f"CircularWord({ABC_REPR}, canonical='aabacc')"
TARGET_REPR = f"CircularWord({ABC_REPR}, canonical='aacabc')"
# (record built by the library, its type, its fields in order, its repr)
RECORDS = [
    (WORD, CircularWord, ["alphabet", "canonical"], WORD_REPR),
    (
        APPLICATION,
        RuleApplication,
        ["rule", "rotation", "x_len", "y_len", "alpha", "condition_lhs", "condition_rhs", "result"],
        "RuleApplication(rule='CE2', rotation=4, x_len=2, y_len=2, alpha='c', "
        f"condition_lhs=6, condition_rhs=6, result=CircularWord({ABC_REPR}, canonical='abcabcbb'))",
    ),
    (
        EDGE,
        RewriteEdge,
        ["source", "target", "application"],
        f"RewriteEdge(source={WORD_REPR}, target={TARGET_REPR}, application=RuleApplication("
        "rule='CE1', rotation=1, x_len=2, y_len=0, alpha=None, condition_lhs=0, "
        f"condition_rhs=0, result={TARGET_REPR}))",
    ),
]
IDS = [kind.__name__ for _, kind, _, _ in RECORDS]
records = pytest.mark.parametrize("record, kind, names, text", RECORDS, ids=IDS)


def values(record):
    return [getattr(record, field.name) for field in dataclasses.fields(record)]


@records
def test_fields_keep_their_order(record, kind, names, text):
    assert type(record) is kind and dataclasses.is_dataclass(kind)
    assert [field.name for field in dataclasses.fields(kind)] == names


@records
def test_equal_and_hashed_as_built_by_the_constructor(record, kind, names, text):
    for rebuilt in (kind(*values(record)), kind(**dict(zip(names, values(record))))):
        assert rebuilt == record and hash(rebuilt) == hash(record)
        assert values(rebuilt) == values(record)
    changed = kind(*values(record)[:-1], "other")
    assert changed != record and getattr(changed, names[-1]) == "other"


@records
def test_replace_changes_one_field(record, kind, names, text):
    assert dataclasses.replace(record) == record
    first = values(record)[0]
    for name in names:
        changed = dataclasses.replace(record, **{name: first})
        assert type(changed) is kind
        assert values(changed) == [first if n == name else getattr(record, n) for n in names]


@records
def test_repr_names_every_field(record, kind, names, text):
    assert repr(record) == text


@records
def test_pickle_and_deepcopy_round_trip(record, kind, names, text):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is kind and copied == record and hash(copied) == hash(record)
        assert repr(copied) == text


@records
def test_no_instance_dict(record, kind, names, text):
    assert not hasattr(record, "__dict__")


@records
def test_every_assignment_and_deletion_is_frozen(record, kind, names, text):
    before = values(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unknown = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, names[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.unknown
    assert values(record) == before
