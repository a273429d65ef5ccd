import pickle

import pytest

from tagmt import errors

# one instance per class, built the way the code raises it
EXAMPLES = [
    errors.TagmtError("base"),
    errors.ConfigError("[translator] layers: expected int"),
    errors.DataError("bad data"),
    errors.MalformedLine(4, "bad"),
    errors.EmptyText(7, "target"),
    errors.LengthMismatch(3, 5),
    errors.UnknownImage("img9", record_index=2),
    errors.UnknownLabel("zebra", line_number=11),
    errors.InvalidConfidence(1.5),
    errors.SeparatorCollision("##", "a ## b"),
    errors.EmptyCorpus(),
    errors.MissingBaseline("toy-disambiguation"),
    errors.TrainingError("stopped"),
    errors.Divergence(12, float("inf")),
    errors.ArchitectureMismatch("layers", 2, 3),
]


def _all_subclasses(cls):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _all_subclasses(sub)
    return found


def test_examples_cover_every_error_class():
    assert {type(err) for err in EXAMPLES} == _all_subclasses(errors.TagmtError)


@pytest.mark.parametrize("err", EXAMPLES, ids=lambda err: type(err).__name__)
def test_pickle_round_trip(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
