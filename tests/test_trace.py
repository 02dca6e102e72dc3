import dataclasses
import math
import pickle

import pytest

from abctrans.trace import ProcessEvent, Trace

NAN = math.nan

FIELDS = (0.0, 200.0, "fixate_source", 1, None, "TT3", 2.25, 4.0, 1.05, ("policy_switch",))


@pytest.fixture
def event():
    return ProcessEvent(*FIELDS)


class TestProcessEventTimes:
    @pytest.mark.parametrize("t_start, t_end", [(NAN, 1.0), (0.0, NAN), (NAN, NAN)])
    def test_nan_time_is_rejected(self, t_start, t_end):
        with pytest.raises(ValueError, match="end at or after its start"):
            ProcessEvent(t_start, t_end, "pause")

    def test_end_before_start_is_rejected(self):
        with pytest.raises(ValueError, match="end at or after its start"):
            ProcessEvent(1.0, 0.5, "pause")

    def test_zero_duration_is_allowed(self):
        assert ProcessEvent(5.0, 5.0, "pause").t_end == 5.0

    def test_nan_event_cannot_hide_an_overlap(self):
        # Before NaN times were rejected, the NaN event reset the ordering
        # check, so the overlap of the first and third events went unseen.
        with pytest.raises(ValueError):
            Trace(events=(
                ProcessEvent(0.0, 1.0, "pause"),
                ProcessEvent(NAN, NAN, "pause"),
                ProcessEvent(0.5, 0.7, "pause"),
            ))

    def test_overlap_is_rejected(self):
        with pytest.raises(ValueError, match="ordered and non-overlapping"):
            Trace(events=(ProcessEvent(0.0, 1.0, "pause"), ProcessEvent(0.5, 0.7, "pause")))


class TestProcessEventContract:
    def test_assignment_raises(self, event):
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.t_start = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.annotations = ()

    def test_equal_fields_are_equal_and_hash_equally(self, event):
        twin = ProcessEvent(*FIELDS)
        assert twin is not event
        assert twin == event and hash(twin) == hash(event)
        assert ProcessEvent(*FIELDS[:-1], ("revision",)) != event

    def test_repr(self, event):
        assert repr(event) == (
            "ProcessEvent(t_start=0.0, t_end=200.0, kind='fixate_source', chunk_id=1,"
            " slot=None, cue='TT3', belief_entropy=2.25, gamma=4.0, zeta=1.05,"
            " annotations=('policy_switch',))"
        )
        assert repr(ProcessEvent(5.0, 5.0, "pause")) == (
            "ProcessEvent(t_start=5.0, t_end=5.0, kind='pause', chunk_id=None, slot=None,"
            " cue=None, belief_entropy=None, gamma=None, zeta=None, annotations=())"
        )

    def test_replace_and_fields(self, event):
        moved = dataclasses.replace(event, slot=3)
        assert moved.slot == 3 and moved.t_start == event.t_start
        with pytest.raises(ValueError, match="end at or after its start"):
            dataclasses.replace(event, t_end=NAN)
        assert [f.name for f in dataclasses.fields(ProcessEvent)] == [
            "t_start", "t_end", "kind", "chunk_id", "slot", "cue",
            "belief_entropy", "gamma", "zeta", "annotations",
        ]
        assert dataclasses.astuple(event) == FIELDS

    def test_pickle_round_trips(self, event):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(event, protocol))
            assert back == event and repr(back) == repr(event)

    def test_positional_and_keyword_construction_agree(self, event):
        names = [f.name for f in dataclasses.fields(ProcessEvent)]
        by_keyword = ProcessEvent(**dict(zip(names, FIELDS)))
        assert by_keyword == event and repr(by_keyword) == repr(event)
        assert ProcessEvent(0.0, 1.0, "pause") == ProcessEvent(t_start=0.0, t_end=1.0, kind="pause")
