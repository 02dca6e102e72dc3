import random
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from abctrans import environment as env
from abctrans.agent import head_starter_config, large_context_planner_config, run_episode
from abctrans.analysis import (
    AnalysisError,
    IngestError,
    Segment,
    TSV_COLUMNS,
    export_progression,
    group_policies,
    ingest_tsv,
    segment_ohrf,
    summarize,
    typing_drops,
)
from abctrans.inference import PreferenceVector, shannon_entropy
from abctrans.task import ReadingEvidenceModel
from abctrans.trace import ProcessEvent, Trace
from perfbench.workloads import generate_log


def make_events(specs):
    """specs: list of (kind, chunk, slot); events get contiguous 100ms stamps."""
    events = []
    t = 0.0
    for kind, chunk, slot in specs:
        events.append(
            ProcessEvent(t_start=t, t_end=t + 100.0, kind=kind, chunk_id=chunk, slot=slot)
        )
        t += 100.0
    return Trace(events=tuple(events), strategy="crafted")


REVISING_SESSION = [
    (env.FIXATE_SOURCE, 1, None),
    (env.TYPE, 1, 1),
    (env.FIXATE_SOURCE, 2, None),
    (env.TYPE, 2, 2),
    (env.FIXATE_SOURCE, 3, None),
    (env.TYPE, 3, 3),
    (env.FIXATE_SOURCE, 4, None),
    (env.TYPE, 4, 4),
    (env.DELETE, None, 4),
    (env.FIXATE_SOURCE, 1, None),
    (env.TYPE, 5, 5),
    (env.DELETE, None, 5),
]

HESITANT_SESSION = [
    (env.FIXATE_SOURCE, 1, None),
    (env.TYPE, 1, 1),
    (env.FIXATE_SOURCE, 2, None),
    (env.TYPE, 2, 2),
    (env.PAUSE, None, None),
    (env.TYPE, 3, 3),
    (env.FIXATE_SOURCE, 3, None),
    (env.TYPE, 4, 4),
]


class TestSegmentOhrf:
    def test_empty_trace(self):
        assert segment_ohrf(Trace(events=())) == []

    def test_only_source_fixations_is_one_orientation(self):
        tr = make_events([(env.FIXATE_SOURCE, c, None) for c in (1, 2, 3)])
        segs = segment_ohrf(tr)
        assert [s.state for s in segs] == ["O"]
        assert segs[0].events == (0, 1, 2)

    def test_fixations_then_typing_is_o_then_f(self):
        tr = make_events(
            [(env.FIXATE_SOURCE, 1, None), (env.FIXATE_SOURCE, 2, None)]
            + [(env.TYPE, c, s) for s, c in enumerate((1, 2, 3), start=1)]
        )
        assert [s.state for s in segment_ohrf(tr)] == ["O", "F"]

    def test_delete_and_retype_are_revision(self):
        tr = make_events(
            [
                (env.TYPE, 1, 1),
                (env.DELETE, None, 1),
                (env.TYPE, 2, 1),
                (env.TYPE, 3, 2),
            ]
        )
        assert [s.state for s in segment_ohrf(tr)] == ["F", "R", "F"]
        # the retype into the deleted slot belongs to the R run
        segs = segment_ohrf(tr)
        assert segs[1].events == (1, 2)

    def test_pause_is_hesitation(self):
        tr = make_events([(env.TYPE, 1, 1), (env.PAUSE, None, None), (env.TYPE, 2, 2)])
        assert [s.state for s in segment_ohrf(tr)] == ["F", "H", "F"]

    def test_target_fixation_joins_adjacent_revision(self):
        tr = make_events(
            [(env.TYPE, 1, 1), (env.FIXATE_TARGET, None, 1), (env.DELETE, None, 1)]
        )
        assert [s.state for s in segment_ohrf(tr)] == ["F", "R"]

    def test_target_fixation_in_long_gap_is_hesitation(self):
        events = (
            ProcessEvent(0.0, 120.0, env.TYPE, chunk_id=1, slot=1),
            ProcessEvent(300.0, 500.0, env.FIXATE_TARGET, slot=1),
            ProcessEvent(1700.0, 1820.0, env.TYPE, chunk_id=2, slot=2),
        )
        tr = Trace(events=events)
        assert [s.state for s in segment_ohrf(tr)] == ["F", "H", "F"]

    def test_target_fixation_in_short_gap_is_flow(self):
        events = (
            ProcessEvent(0.0, 120.0, env.TYPE, chunk_id=1, slot=1),
            ProcessEvent(150.0, 350.0, env.FIXATE_TARGET, slot=1),
            ProcessEvent(400.0, 520.0, env.TYPE, chunk_id=2, slot=2),
        )
        tr = Trace(events=events)
        assert [s.state for s in segment_ohrf(tr)] == ["F"]

    def test_threshold_is_configurable(self):
        events = (
            ProcessEvent(0.0, 120.0, env.TYPE, chunk_id=1, slot=1),
            ProcessEvent(150.0, 350.0, env.FIXATE_TARGET, slot=1),
            ProcessEvent(400.0, 520.0, env.TYPE, chunk_id=2, slot=2),
        )
        tr = Trace(events=events)
        assert [s.state for s in segment_ohrf(tr, theta_pause_ms=200.0)] == ["F", "H", "F"]

    @pytest.mark.parametrize("theta", [float("nan"), -5.0])
    def test_threshold_must_be_a_non_negative_number(self, theta):
        # read, type, a target fixation in a 2.6 s gap, type: the default
        # threshold makes the fixation hesitation
        events = (
            ProcessEvent(0.0, 200.0, env.FIXATE_SOURCE, chunk_id=1),
            ProcessEvent(200.0, 320.0, env.TYPE, chunk_id=1, slot=1),
            ProcessEvent(400.0, 600.0, env.FIXATE_TARGET, slot=1),
            ProcessEvent(3200.0, 3320.0, env.TYPE, chunk_id=2, slot=2),
        )
        tr = Trace(events=events)
        assert [s.state for s in segment_ohrf(tr)] == ["O", "F", "H", "F"]
        with pytest.raises(ValueError, match="theta_pause_ms"):
            segment_ohrf(tr, theta_pause_ms=theta)

    @pytest.mark.parametrize("run", [1, 2, 50])
    def test_target_fixations_after_a_delete_are_all_revision(self, run):
        tr = make_events(
            [(env.TYPE, 1, 1), (env.DELETE, None, 1)]
            + [(env.FIXATE_TARGET, None, 1)] * run
            + [(env.TYPE, 2, 2)]
        )
        assert [(s.state, s.events) for s in segment_ohrf(tr)] == [
            ("F", (0,)), ("R", tuple(range(1, run + 2))), ("F", (run + 2,)),
        ]

    @pytest.mark.parametrize("run", [1, 2, 50])
    def test_target_fixations_before_a_pause_are_all_hesitation(self, run):
        tr = make_events(
            [(env.TYPE, 1, 1)]
            + [(env.FIXATE_TARGET, None, 1)] * run
            + [(env.PAUSE, None, None), (env.TYPE, 2, 2)]
        )
        assert [(s.state, s.events) for s in segment_ohrf(tr)] == [
            ("F", (0,)), ("H", tuple(range(1, run + 2))), ("F", (run + 2,)),
        ]

    @pytest.mark.parametrize("run", [1, 2, 40])
    def test_target_fixations_in_a_short_gap_between_typings_are_all_flow(self, run):
        # 20 ms glances: even the first, 40 of them from the next keystroke,
        # sits in a gap under the 1 s threshold
        events = [ProcessEvent(0.0, 100.0, env.TYPE, chunk_id=1, slot=1)]
        events += [
            ProcessEvent(100.0 + 20.0 * j, 120.0 + 20.0 * j, env.FIXATE_TARGET, slot=1)
            for j in range(run)
        ]
        t = 100.0 + 20.0 * run
        events.append(ProcessEvent(t, t + 100.0, env.TYPE, chunk_id=2, slot=2))
        segs = segment_ohrf(Trace(events=tuple(events)))
        assert [(s.state, s.events) for s in segs] == [("F", tuple(range(run + 2)))]

    def test_a_run_of_target_fixations_segments_in_linear_time(self):
        # 8,000 consecutive target fixations against 8,000 events that
        # alternate fixations with typing, best of three each, interleaved
        n = 8000
        run = make_events([(env.FIXATE_TARGET, None, 1)] * n)
        mixed = make_events(
            [(env.FIXATE_TARGET, None, 1) if i % 2 else (env.TYPE, i, i) for i in range(n)]
        )
        best = {id(run): float("inf"), id(mixed): float("inf")}
        for _ in range(3):
            for trace in (run, mixed):
                start = time.perf_counter()
                segment_ohrf(trace)
                best[id(trace)] = min(best[id(trace)], time.perf_counter() - start)
        assert best[id(run)] <= 3.0 * best[id(mixed)]

    def test_segments_partition_events(self, models):
        cfg = large_context_planner_config()
        for seed in range(5):
            tr = run_episode(cfg, models, latent="TT5", seed=seed)
            segs = segment_ohrf(tr)
            covered = [i for s in segs for i in s.events]
            assert covered == list(range(len(tr.events)))

    def test_seeded_revision_episode_contains_r(self, space):
        models95 = ReadingEvidenceModel.with_defaults(space, content=0.95)
        cfg = head_starter_config(
            prefs=PreferenceVector(
                progress_bonus=1.0, inconsistency_penalty=-1.5, unread_cost=2.0,
            )
        )
        tr = run_episode(
            cfg, models95, latent="TT5", seed=3,
            cue_script=("TT0", "TT5", "TT5", "TT5"), max_steps=40,
        )
        assert "R" in {s.state for s in segment_ohrf(tr)}


class TestGroupPolicies:
    def test_clean_cycles_then_revising_cycles(self):
        segs = segment_ohrf(make_events(REVISING_SESSION))
        assert [s.state for s in segs] == ["O", "F", "O", "F", "O", "F", "O", "F", "R", "O", "F", "R"]
        labels = [c.label for c in group_policies(segs)]
        assert labels == ["OF", "OF", "OF", "OFR", "OFR"]

    def test_hesitation_mid_cycle(self):
        segs = segment_ohrf(make_events(HESITANT_SESSION))
        assert [s.state for s in segs] == ["O", "F", "O", "F", "H", "F", "O", "F"]
        labels = [c.label for c in group_policies(segs)]
        assert labels == ["OF", "OFHF", "OF"]

    def test_single_orientation(self):
        segs = segment_ohrf(make_events([(env.FIXATE_SOURCE, 1, None)]))
        assert [c.label for c in group_policies(segs)] == ["O"]

    def test_leading_non_orientation_gets_implicit_o(self):
        segs = segment_ohrf(make_events([(env.TYPE, 1, 1), (env.FIXATE_SOURCE, 2, None)]))
        cycles = group_policies(segs)
        assert cycles[0].implicit_orientation
        assert cycles[0].label == "OF"
        assert cycles[1].label == "O"

    def test_cycles_partition_segments(self, models):
        cfg = head_starter_config()
        for seed in range(5):
            tr = run_episode(cfg, models, latent="TT3", seed=seed)
            segs = segment_ohrf(tr)
            cycles = group_policies(segs)
            covered = [i for c in cycles for i in c.segments]
            assert covered == list(range(len(segs)))
            for c in cycles:
                assert c.label.startswith("O")

    def test_deterministic_labels(self):
        a = group_policies(segment_ohrf(make_events(REVISING_SESSION)))
        b = group_policies(segment_ohrf(make_events(REVISING_SESSION)))
        assert [c.label for c in a] == [c.label for c in b]


def entropies(trace):
    """The prior entropy, then the belief entropy after each event."""
    return [trace.prior_entropy] + [e.belief_entropy for e in trace.events]


class TestEntropyTrajectory:
    def test_noiseless_planner_is_non_increasing_to_zero(self, space):
        exact = ReadingEvidenceModel.with_defaults(space, content=1.0)
        tr = run_episode(large_context_planner_config(), exact, latent="TT3", seed=0)
        values = entropies(tr)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1]) <= 1e-12

    def test_uninformative_reads_keep_it_flat(self, space):
        # every read through a flat channel leaves entropy where it was
        flat = ReadingEvidenceModel.with_defaults(space, content=0.5)
        for cfg in (large_context_planner_config(), head_starter_config()):
            tr = run_episode(cfg, flat, latent="TT3", seed=0)
            values = entropies(tr)
            reads = [i for i, e in enumerate(tr.events) if e.kind == env.FIXATE_SOURCE]
            assert len(reads) == 4
            for i in reads:
                assert abs(values[i + 1] - values[i]) <= 1e-12

    def test_head_starter_largest_drop_lands_on_high_information_chunk(self, space):
        models70 = ReadingEvidenceModel.with_defaults(space, content=0.7)
        cfg = head_starter_config(
            prefs=PreferenceVector(
                progress_bonus=1.2, inconsistency_penalty=-1.0, unread_cost=0.3,
            )
        )
        tr = run_episode(cfg, models70, latent="TT5", seed=5, cue_script=("TT5",))
        values = entropies(tr)
        drops = [a - b for a, b in zip(values, values[1:])]
        drop = max(drops)
        event = tr.events[drops.index(drop)]
        assert event.kind == env.TYPE
        assert event.chunk_id in (2, 4)
        assert drop > 1.0
        assert (event.chunk_id, drop) in typing_drops(tr)

    def test_first_typing_drop_without_prior_starts_from_its_own_entropy(self):
        # a hand-built trace without a prior entropy: the first placement
        # has no earlier entropy to drop from, so its drop is zero
        tr = Trace(
            events=(
                ProcessEvent(0, 100, env.TYPE, chunk_id=1, slot=1,
                             belief_entropy=1.0, gamma=1.0, zeta=1.0),
                ProcessEvent(100, 200, env.TYPE, chunk_id=2, slot=2,
                             belief_entropy=0.25, gamma=1.0, zeta=1.0),
            ),
        )
        assert typing_drops(tr) == [(1, 0.0), (2, 0.75)]


class TestSummarize:
    def test_empty_trace_is_all_zero(self):
        tr = Trace(events=())
        s = summarize(tr, [], [])
        assert s.first_keystroke_latency_ms == 0.0
        assert s.total_time_ms == 0.0
        assert s.revision_count == 0
        assert all(n == 0 for _, n in s.state_counts)

    def test_planner_waits_longer_before_typing(self, models):
        hs, pl = head_starter_config(), large_context_planner_config()
        for seed in range(10):
            a = run_episode(hs, models, latent="TT3", seed=seed)
            b = run_episode(pl, models, latent="TT3", seed=seed)
            sa = summarize(a, segment_ohrf(a), group_policies(segment_ohrf(a)))
            sb = summarize(b, segment_ohrf(b), group_policies(segment_ohrf(b)))
            assert sa.first_keystroke_latency_ms < sb.first_keystroke_latency_ms

    def test_head_starter_revises_at_least_as_much(self, models):
        hs, pl = head_starter_config(), large_context_planner_config()
        rev_a, rev_b = [], []
        for seed in range(30):
            a = run_episode(hs, models, latent="TT5", seed=seed)
            b = run_episode(pl, models, latent="TT5", seed=seed)
            rev_a.append(sum(1 for e in a.events if e.kind == env.DELETE))
            rev_b.append(sum(1 for e in b.events if e.kind == env.DELETE))
        assert sum(rev_a) / len(rev_a) >= sum(rev_b) / len(rev_b)


class TestExportAndIngest:
    def run_and_analyze(self, models, seed=2):
        tr = run_episode(large_context_planner_config(), models, latent="TT5", seed=seed)
        segs = segment_ohrf(tr)
        cycles = group_policies(segs)
        return tr, segs, cycles

    def test_tsv_row_count_and_header(self, models):
        tr, segs, cycles = self.run_and_analyze(models)
        data = export_progression(tr, segs, cycles, "tsv")
        lines = data.decode("utf-8").strip().split("\n")
        assert lines[0] == "\t".join(TSV_COLUMNS)
        assert len(lines) == len(tr.events) + 1

    def test_unknown_format_rejected(self, models):
        tr, segs, cycles = self.run_and_analyze(models)
        with pytest.raises(AnalysisError):
            export_progression(tr, segs, cycles, "csv")

    def test_svg_is_well_formed_with_one_band_per_segment(self, models):
        tr, segs, cycles = self.run_and_analyze(models)
        data = export_progression(tr, segs, cycles, "svg")
        root = ET.fromstring(data.decode("utf-8"))
        assert root.tag.endswith("svg")
        bands = [el for el in root.iter() if el.get("class") == "segment"]
        assert len(bands) == len(segs)

    def test_incremental_typist_types_before_finishing_reading(self, space):
        # minimal lookahead: the first typed row appears above the last
        # source-fixation row in the exported table
        models95 = ReadingEvidenceModel.with_defaults(space, content=0.95)
        cfg = head_starter_config(
            prefs=PreferenceVector(
                progress_bonus=1.0, inconsistency_penalty=-1.5, unread_cost=2.0,
            )
        )
        tr = run_episode(
            cfg, models95, latent="TT5", seed=3,
            cue_script=("TT0", "TT5", "TT5", "TT5"), max_steps=40,
        )
        segs = segment_ohrf(tr)
        data = export_progression(tr, segs, group_policies(segs), "tsv")
        kinds = [line.split("\t")[1] for line in data.decode().strip().split("\n")[1:]]
        assert kinds.index(env.TYPE) < max(
            i for i, k in enumerate(kinds) if k == env.FIXATE_SOURCE
        )

    def test_round_trip_preserves_events_and_segmentation(self, models):
        tr, segs, cycles = self.run_and_analyze(models)
        data = export_progression(tr, segs, cycles, "tsv")
        back = ingest_tsv(data)
        assert len(back.events) == len(tr.events)
        for original, parsed in zip(tr.events, back.events):
            assert parsed.kind == original.kind
            assert parsed.chunk_id == original.chunk_id
            assert parsed.slot == original.slot
        segs2 = segment_ohrf(back)
        assert [s.state for s in segs2] == [s.state for s in segs]
        assert [s.events for s in segs2] == [s.events for s in segs]
        assert [c.label for c in group_policies(segs2)] == [c.label for c in cycles]

    def test_cycle_index_column_follows_the_cycles(self):
        trace = make_events(REVISING_SESSION)
        segs = segment_ohrf(trace)
        tsv = export_progression(trace, segs, group_policies(segs), "tsv").decode()
        col = TSV_COLUMNS.index("cycle_index")
        got = [line.split("\t")[col] for line in tsv.splitlines()[1:]]
        assert got == ["0", "0", "1", "1", "2", "2", "3", "3", "3", "4", "4", "4"]

    def test_header_only_file_is_empty_trace(self):
        data = ("\t".join(TSV_COLUMNS) + "\n").encode()
        assert len(ingest_tsv(data).events) == 0

    def test_missing_column_reports_row(self):
        data = b"time_ms\tevent_kind\nfoo\tbar\n"
        with pytest.raises(IngestError, match="row 1"):
            ingest_tsv(data)

    def test_unparseable_time_reports_row(self):
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\t".join(["abc", "type", "1@1", "F", "0", "", ""])
            + "\n"
        ).encode()
        with pytest.raises(IngestError, match="row 2"):
            ingest_tsv(data)

    def test_bytes_that_are_not_utf8_report_their_row(self):
        # rows count the non-blank lines, the header as row 1
        rows = [("0", env.FIXATE_SOURCE, "1"), ("200", env.TYPE, "1@1")]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        bad = data.replace(b"1@1", b"1@\xe9")
        offset = data.index(b"1@1") + 2
        with pytest.raises(IngestError, match=f"row 3: byte {offset} is not UTF-8"):
            ingest_tsv(bad)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_byte_after_a_byte_order_mark_reports_its_file_offset(self, newline):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("200", env.TYPE, "1@1")]
        lines = ["\t".join(TSV_COLUMNS), ""]
        lines += ["\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows]
        data = ("\ufeff" + newline.join(lines) + newline).encode()
        offset = data.index(b"1@1") + 2
        with pytest.raises(IngestError, match=f"row 3: byte {offset} is not UTF-8"):
            ingest_tsv(data.replace(b"1@1", b"1@\xe9"))

    @pytest.mark.parametrize(
        "bom, newline", [("\ufeff", "\n"), ("", "\r\n"), ("\ufeff", "\r\n")],
        ids=["bom", "crlf", "bom-crlf"],
    )
    def test_crlf_and_bom_logs_ingest_as_the_plain_log(self, bom, newline):
        # the mark would join the first header cell, and the \r the last
        rows = [
            ("0", env.FIXATE_SOURCE, "1"), ("200", env.TYPE, "1@1"),
            ("400", env.FIXATE_TARGET, "@1"), ("500", env.DELETE, "1"),
            ("700", env.PAUSE, ""), ("1900", env.TYPE, "2@1"),
        ]
        lines = ["time_ms\tevent_kind\tchunk_or_slot", ""] + ["\t".join(row) for row in rows]
        plain = ingest_tsv(("\n".join(lines) + "\n").encode())
        saved = ingest_tsv((bom + newline.join(lines) + newline).encode())
        assert saved == plain
        assert [(e.kind, e.chunk_id, e.slot) for e in saved.events][-2:] == [
            (env.PAUSE, None, None), (env.TYPE, 2, 1),
        ]

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_time_reports_row(self, time):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("200", env.TYPE, "1@1"), (time, env.PAUSE, "")]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        with pytest.raises(IngestError, match="row 4: time must be finite"):
            ingest_tsv(data)

    @pytest.mark.parametrize("target", ["3", "@2", "3@", ""])
    def test_type_target_without_chunk_and_slot_reports_row(self, target):
        rows = [("0", env.FIXATE_SOURCE, "1"), ("200", env.TYPE, target)]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        with pytest.raises(IngestError, match="row 3: type target must be <chunk>@<slot>"):
            ingest_tsv(data)

    @pytest.mark.parametrize(
        "kind, target",
        [
            (env.FIXATE_SOURCE, "1@2"),
            (env.FIXATE_SOURCE, "@2"),
            (env.FIXATE_SOURCE, ""),
            (env.DELETE, "3@2"),
            (env.FIXATE_TARGET, "3@2"),
            (env.DELETE, ""),
            (env.PAUSE, "5"),
            (env.CONSULT, "@1"),
        ],
    )
    def test_target_outside_its_kinds_form_reports_row(self, kind, target):
        # each kind takes one form: <chunk>, <chunk>@<slot>, @<slot> or a
        # bare <slot>, or nothing; the rest would not survive an export
        rows = [("0", env.FIXATE_SOURCE, "1"), ("200", kind, target)]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        with pytest.raises(IngestError, match=f"row 3: {kind} target must be"):
            ingest_tsv(data)

    def test_ingest_export_ingest_keeps_kinds_and_targets(self):
        rows = [
            ("0", env.FIXATE_SOURCE, "1"),
            ("200", env.CONSULT, ""),
            ("900", env.TYPE, "1@1"),
            ("1000", env.FIXATE_TARGET, "@1"),
            ("1100", env.FIXATE_TARGET, "2"),
            ("1300", env.PAUSE, ""),
            ("2300", env.DELETE, "1"),
            ("2400", env.DELETE, "@2"),
            ("2500", env.TYPE, "3@1"),
        ]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        first = ingest_tsv(data)
        segs = segment_ohrf(first)
        again = ingest_tsv(export_progression(first, segs, group_policies(segs), "tsv"))
        targets = [(e.kind, e.chunk_id, e.slot) for e in first.events]
        assert {kind for kind, _, _ in targets} == {
            env.FIXATE_SOURCE, env.FIXATE_TARGET, env.TYPE, env.DELETE, env.PAUSE, env.CONSULT,
        }
        assert targets == [
            (env.FIXATE_SOURCE, 1, None), (env.CONSULT, None, None), (env.TYPE, 1, 1),
            (env.FIXATE_TARGET, None, 1), (env.FIXATE_TARGET, None, 2), (env.PAUSE, None, None),
            (env.DELETE, None, 1), (env.DELETE, None, 2), (env.TYPE, 3, 1),
        ]
        assert [(e.kind, e.chunk_id, e.slot) for e in again.events] == targets

    def test_custom_column_map(self):
        data = "t\tk\twhat\n0\tfixate_source\t1\n100\ttype\t1@1\n".encode()
        tr = ingest_tsv(data, {"time": "t", "kind": "k", "target": "what"})
        assert [e.kind for e in tr.events] == [env.FIXATE_SOURCE, env.TYPE]

    def test_ingested_consult_segments_as_orientation(self):
        rows = [
            ("0", env.CONSULT, ""),
            ("900", env.TYPE, "1@1"),
            ("1000", env.FIXATE_SOURCE, "2"),
            ("1200", env.CONSULT, ""),
            ("2500", env.TYPE, "2@2"),
        ]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        segs = segment_ohrf(ingest_tsv(data))
        assert [(s.state, s.events) for s in segs] == [
            ("O", (0,)), ("F", (1,)), ("O", (2, 3)), ("F", (4,)),
        ]
        assert [c.label for c in group_policies(segs)] == ["OF", "OF"]

    def test_hand_written_log_with_deletion_yields_revision(self):
        rows = [
            ("0", env.FIXATE_SOURCE, "1"),
            ("200", env.TYPE, "1@1"),
            ("400", env.TYPE, "2@2"),
            ("600", env.FIXATE_TARGET, "@1"),
            ("700", env.DELETE, "@1"),
            ("900", env.TYPE, "3@1"),
        ]
        data = (
            "\t".join(TSV_COLUMNS)
            + "\n"
            + "\n".join("\t".join([t, k, tgt, "", "0", "", ""]) for t, k, tgt in rows)
            + "\n"
        ).encode()
        tr = ingest_tsv(data)
        states = [s.state for s in segment_ohrf(tr)]
        assert "R" in states

    def test_typing_drop_helper_requires_belief_fields(self):
        tr = make_events([(env.TYPE, 1, 1)])
        with pytest.raises(AnalysisError):
            typing_drops(tr)

    def test_unknown_column_map_key_is_rejected_by_name(self):
        # "tiem" fell back to the default map
        data = "time_ms\tevent_kind\tchunk_or_slot\n0\tpause\t\n".encode()
        with pytest.raises(ValueError, match="unknown column map key 'tiem'") as err:
            ingest_tsv(data, {"tiem": "x"})
        assert not isinstance(err.value, IngestError)

    def test_two_roles_naming_one_column_fail_at_the_header(self):
        # this failed at row 2 as "unparseable time 'pause'"
        data = "time_ms\tevent_kind\tchunk_or_slot\n0\tpause\t\n".encode()
        with pytest.raises(IngestError, match="^row 1: time and kind both name column 'event_kind'$"):
            ingest_tsv(data, {"time": "event_kind"})
        with pytest.raises(IngestError, match="^row 1: kind and target both name column 'x'$"):
            ingest_tsv(b"", {"kind": "x", "target": "x"})


class TestColumnarAnalysis:
    """Ingested logs stay columns: analysis builds ProcessEvents only when a caller reads events."""

    def test_analysis_of_an_ingested_log_builds_no_events(self, event_builds):
        data, _ = generate_log(random.Random(3), 400)
        trace = ingest_tsv(data)
        segs = segment_ohrf(trace)
        cycles = group_policies(segs)
        summarize(trace, segs, cycles)
        for fmt in ("tsv", "svg"):
            export_progression(trace, segs, cycles, fmt)
        assert event_builds == [0]
        assert len(trace.events) == 400 and event_builds == [400]
        assert trace.events is trace.events and event_builds == [400]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([env.FIXATE_SOURCE, env.FIXATE_TARGET, env.TYPE,
                                 env.DELETE, env.PAUSE, env.CONSULT]),
                st.integers(0, 40), st.integers(0, 40), st.integers(0, 3000),
                st.sampled_from([0.0, 0.25, 0.5]),
            ),
            max_size=40,
        )
    )
    def test_lazy_events_equal_eagerly_built_ones(self, rows):
        lines, want, t = ["time_ms\tevent_kind\tchunk_or_slot"], [], 0.0
        for kind, chunk, slot, gap, frac in rows:
            t += gap + frac  # quarters add up exactly
            cell = {env.FIXATE_SOURCE: f"{chunk}", env.TYPE: f"{chunk}@{slot}",
                    env.FIXATE_TARGET: f"@{slot}", env.DELETE: f"{slot}"}.get(kind, "")
            lines.append(f"{t}\t{kind}\t{cell}")
            want.append((t, kind,
                         chunk if kind in (env.FIXATE_SOURCE, env.TYPE) else None,
                         slot if kind in (env.TYPE, env.FIXATE_TARGET, env.DELETE) else None))
        trace = ingest_tsv(("\n".join(lines) + "\n").encode())
        ends = [w[0] for w in want[1:]] + [w[0] for w in want[-1:]]
        eager = tuple(
            ProcessEvent(t, t_end, kind, chunk, slot)
            for (t, kind, chunk, slot), t_end in zip(want, ends)
        )
        assert trace.events == eager
        assert trace == Trace(events=eager, strategy="ingested")
        assert repr(trace) == repr(Trace(events=eager, strategy="ingested"))
