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


LOG = (
    b"time_ms\tevent_kind\tchunk_or_slot\n"
    b"0\tfixate_source\t1\n250\ttype\t1@1\n400\tfixate_target\t@1\n1600.5\tdelete\t1\n1700\tpause\t\n"
)
CONTEXT = ("complete", "final_target", "seed", "strategy", "latent", "prior_entropy")


def ingested_trace():
    from abctrans.analysis import ingest_tsv

    return ingest_tsv(LOG)


def simulated_trace(models):
    from abctrans.agent import head_starter_config, run_episode

    return run_episode(head_starter_config(), models, latent="TT3", seed=0)


@pytest.fixture(params=["ingested", "simulated"])
def trace(request, models):
    return ingested_trace() if request.param == "ingested" else simulated_trace(models)


class TestTraceContract:
    """What a Trace promises whichever way it was made: from a log or from an episode."""

    def test_keyword_construction(self, trace):
        rebuilt = Trace(events=trace.events, **{name: getattr(trace, name) for name in CONTEXT})
        assert rebuilt == trace and repr(rebuilt) == repr(trace)
        assert Trace(events=()) == Trace(events=[], complete=True, final_target="", seed=None,
                                         strategy="", latent=None, prior_entropy=None)

    def test_ingested_repr(self):
        text = repr(ingested_trace())
        assert text.startswith(
            "Trace(events=(ProcessEvent(t_start=0.0, t_end=250.0, kind='fixate_source',"
            " chunk_id=1, slot=None, cue=None, belief_entropy=None, gamma=None, zeta=None,"
            " annotations=()), ProcessEvent(t_start=250.0, t_end=400.0, kind='type',"
        )
        assert text.endswith(
            "ProcessEvent(t_start=1700.0, t_end=1700.0, kind='pause', chunk_id=None, slot=None,"
            " cue=None, belief_entropy=None, gamma=None, zeta=None, annotations=())),"
            " complete=True, final_target='', seed=None, strategy='ingested', latent=None,"
            " prior_entropy=None)"
        )

    def test_repr_lists_events_then_context(self, trace):
        context = ", ".join(f"{name}={getattr(trace, name)!r}" for name in CONTEXT)
        assert repr(trace) == f"Trace(events={trace.events!r}, {context})"

    def test_equal_traces_are_equal_and_hash_equally(self, trace, models):
        twin = ingested_trace() if trace.strategy == "ingested" else simulated_trace(models)
        assert twin is not trace
        assert twin == trace and hash(twin) == hash(trace)
        assert len({trace, twin}) == 1
        kw = {name: getattr(trace, name) for name in CONTEXT}
        assert Trace(events=trace.events[:-1], **kw) != trace
        assert Trace(events=trace.events, **dict(kw, seed=99)) != trace
        assert trace != trace.events and trace.__eq__(trace.events) is NotImplemented

    def test_pickle_round_trips(self, trace):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(trace, protocol))
            assert back == trace and repr(back) == repr(trace) and hash(back) == hash(trace)
            assert back.events == trace.events

    def test_assignment_raises(self, trace):
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.complete = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.events = ()

    def test_derived_properties(self, trace):
        if trace.strategy == "ingested":
            assert trace.total_time_ms == 1700.0
            assert not trace.has_belief_fields
        else:
            assert trace.total_time_ms == 6200.0
            assert trace.has_belief_fields
        assert trace.stop_reason == "complete"
        kw = {name: getattr(trace, name) for name in CONTEXT}
        assert Trace(events=trace.events, **dict(kw, complete=False)).stop_reason == "max_steps"
        empty = Trace(events=())
        assert empty.total_time_ms == 0.0 and not empty.has_belief_fields

    def test_overlapping_events_are_rejected(self, trace):
        end = trace.events[-1].t_end
        with pytest.raises(ValueError, match="ordered and non-overlapping"):
            Trace(events=(*trace.events, ProcessEvent(end - 0.5, end + 1.0, "pause")))
        # a start within 1e-9 ms before the last end is no overlap
        touching = ProcessEvent(end - 1e-10, end + 1.0, "pause")
        assert Trace(events=(*trace.events, touching)).events[-1] == touching

    def test_events_is_one_tuple(self, trace):
        events = trace.events
        assert isinstance(events, tuple) and all(isinstance(e, ProcessEvent) for e in events)
        assert trace.events is events


class TestFromColumns:
    def test_equals_the_trace_of_the_same_events(self, trace):
        from abctrans.trace import event_columns

        context = {name: getattr(trace, name) for name in CONTEXT}
        built = Trace.from_columns(event_columns(trace.events), **context)
        assert built == trace and hash(built) == hash(trace) and repr(built) == repr(trace)
        assert built.columns == trace.columns == event_columns(trace.events)

    def test_event_columns_follow_the_field_order(self, event):
        from abctrans.trace import EventColumns, event_columns

        assert EventColumns._fields == tuple(f.name for f in dataclasses.fields(ProcessEvent))
        assert event_columns([event, event]) == tuple((v, v) for v in FIELDS)

    def test_missing_trailing_columns_take_their_defaults(self):
        trace = Trace.from_columns(([0.0, 1.0], [1.0, 1.0], ["pause", "type"], [None, 2]))
        assert trace.events == (
            ProcessEvent(0.0, 1.0, "pause"), ProcessEvent(1.0, 1.0, "type", chunk_id=2)
        )
        assert trace.columns.annotations == ((), ()) and trace.columns.gamma == (None, None)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0.0, 1.0], [1.0], ["pause", "pause"]), "one entry per event"),
            (([0.0], [NAN], ["pause"]), "end at or after its start"),
            (([1.0], [0.5], ["pause"]), "end at or after its start"),
            (([0.0, 0.5], [1.0, 2.0], ["pause", "pause"]), "ordered and non-overlapping"),
        ],
    )
    def test_bad_columns_are_rejected(self, columns, message):
        with pytest.raises(ValueError, match=message):
            Trace.from_columns(columns)
