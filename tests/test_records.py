"""The per-box and per-frame records are frozen dataclasses with slots.

None holds an instance ``__dict__``, and each keeps its value semantics
through ``pickle``, ``copy.deepcopy`` and ``dataclasses.replace``: same
type, equal fields, equal hash (or unhashable on both sides).
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from sctrack import kalman
from sctrack.frames import FrameBoxes
from sctrack.geometry import BoundingBox, Detection
from sctrack.tracker import FrameResult, TrackOutput

BOX = BoundingBox(1.5, -2.0, 0.5, 40.0)
RECORDS = [
    BOX,
    Detection(BOX, 0.75),
    TrackOutput(3, BOX, 0.9),
    FrameResult(4, FrameBoxes.of([3, 8], [BOX, BoundingBox(0, 0, 1, 1)], [0.9, 0.5])),
    kalman.initiate(BOX),
]
CLONES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


def fields(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def hash_or_unhashable(record):
    try:
        return hash(record)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestSlottedRecord:
    def test_has_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))

    def test_refuses_assignment(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, 0)
        # the frozen __setattr__ of a slotted dataclass raises TypeError for
        # a name that is no field (CPython 3.10-3.13), where an unslotted
        # one raises FrozenInstanceError
        with pytest.raises((TypeError, AttributeError)):
            record.extra = 0
        assert not hasattr(record, "extra")

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_round_trip_keeps_value_and_hash(self, record, clone):
        twin = clone(record)
        assert type(twin) is type(record)
        if isinstance(record, kalman.KalmanState):  # array fields, whose == is elementwise
            assert all(map(np.array_equal, fields(twin), fields(record)))
        else:
            assert twin == record
        assert hash_or_unhashable(twin) == hash_or_unhashable(record)


def test_value_records_hash_by_value():
    for record in RECORDS[:3]:
        assert hash(record) == hash(dataclasses.replace(record))


def test_replace_validates_like_the_constructor():
    assert dataclasses.replace(BOX, h=2.0) == BoundingBox(1.5, -2.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="box requires a > 0 and h > 0, got a=0.5, h=-1.0"):
        dataclasses.replace(BOX, h=-1.0)
    with pytest.raises(ValueError, match=r"score must lie in \[0, 1\]"):
        dataclasses.replace(RECORDS[1], score=1.5)
    with pytest.raises(ValueError, match=r"KalmanState.mean must have shape \(8,\)"):
        dataclasses.replace(RECORDS[4], mean=np.zeros(4))
