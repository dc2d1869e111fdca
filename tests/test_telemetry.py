import csv
import dataclasses
import io
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import frame_of, readings_of
from linewatch.errors import ConfigurationError
from linewatch.hydraulics import GridState
from linewatch.network import InstrumentPlacement, PipelineModel
from linewatch.telemetry import (
    GOOD,
    MISSING,
    SUSPECT,
    NoiseSpec,
    PlausibilityLimits,
    TelemetryFrame,
    TelemetryLog,
    instrument_nodes,
    noiseless_reading,
    plausibility_filter,
    sample,
)


@pytest.fixture
def pipe():
    return PipelineModel(length=1000.0, diameter=0.3, friction_factor=0.02)


@pytest.fixture
def state():
    x = np.linspace(0.0, 1000.0, 11)
    return GridState(t=50.0, x=x, P=np.linspace(9e5, 8e5, 11), V=np.full(11, 1.2),
                     T=np.full(11, 300.0), rho=np.full(11, 1000.0))


def poll(state, instruments, noise, t, pipe):
    return sample(dataclasses.replace(state, t=t), instruments, noise, pipeline=pipe,
                  nodes=instrument_nodes(state.x, instruments))


def remembered(*frames):
    """The filter's memory after ``frames``, each filtered with no limits,
    so it is remembered with the quality it was given."""
    memory = {}
    for frame in frames:
        plausibility_filter(frame, memory, {}, {})
    return memory


class TestSample:
    def test_noiseless_passthrough(self, pipe, state):
        instruments = [
            InstrumentPlacement("f", "flow", 0.0),
            InstrumentPlacement("p", "pressure", 500.0),
            InstrumentPlacement("t", "temperature", 1000.0),
        ]
        frame = poll(state, instruments, NoiseSpec(1), 50.0, pipe)
        assert frame.reading("f")[0] == pytest.approx(1000.0 * 1.2 * pipe.area, rel=1e-12)
        assert frame.reading("p")[0] == pytest.approx(8.5e5, rel=1e-12)
        assert frame.reading("t")[0] == 300.0
        assert all(q == GOOD for q in frame.qualities)

    def test_bias_is_exact_offset(self, pipe, state):
        inst = [InstrumentPlacement("p", "pressure", 0.0, bias=1000.0)]
        frame = poll(state, inst, NoiseSpec(1), 50.0, pipe)
        assert frame.reading("p")[0] == pytest.approx(9e5 + 1000.0, rel=1e-12)

    def test_dropout_fraction_binomial(self, pipe, state):
        inst = [InstrumentPlacement("p", "pressure", 0.0, dropout_prob=0.5)]
        noise = NoiseSpec(1234)
        missing = sum(
            poll(state, inst, noise, float(k), pipe).reading("p")[1] == MISSING
            for k in range(10000)
        )
        assert abs(missing / 10000 - 0.5) < 0.02

    def test_determinism_bit_identical(self, pipe, state):
        inst = [
            InstrumentPlacement("p", "pressure", 0.0, noise_sigma=500.0, dropout_prob=0.1),
            InstrumentPlacement("f", "flow", 1000.0, noise_sigma=0.3),
        ]
        def run(seed):
            noise = NoiseSpec(seed)
            return [poll(state, inst, noise, float(k), pipe) for k in range(200)]
        a, b = run(99), run(99)
        assert a == b

    def test_noise_clipped_at_six_sigma(self, pipe, state):
        inst = [InstrumentPlacement("p", "pressure", 0.0, noise_sigma=100.0)]
        noise = NoiseSpec(5)
        vals = [poll(state, inst, noise, float(k), pipe).reading("p")[0]
                for k in range(5000)]
        assert max(abs(v - 9e5) for v in vals) <= 600.0 + 1e-9

    def test_readings_are_truth_plus_bias_plus_clipped_noise(self, pipe, state):
        inst = [
            InstrumentPlacement("f", "flow", 300.0, noise_sigma=0.37, bias=-0.05, dropout_prob=0.1),
            InstrumentPlacement("p", "pressure", 700.0, noise_sigma=2100.0, bias=350.0),
            InstrumentPlacement("t", "temperature", 1000.0, noise_sigma=0.11),
        ]
        nodes = instrument_nodes(state.x, inst)
        truths = [state.rho[3] * state.V[3] * pipe.area, state.P[7], state.T[10]]
        noise, replay = NoiseSpec(314), NoiseSpec(314)
        for k in range(300):
            frame = sample(dataclasses.replace(state, t=float(k)), inst, noise, pipeline=pipe,
                           nodes=nodes)
            for i, truth in zip(inst, truths):
                u, z = replay.draw()
                value, quality = frame.reading(i.id)
                if u < i.dropout_prob:
                    assert (value, quality) == (None, MISSING)
                    continue
                expected = float(truth + i.bias + np.clip(z, -6, 6) * i.noise_sigma)
                assert type(value) is float
                assert value == expected

    @pytest.mark.parametrize("z", [-9.5, -6.0, -5.999, -0.0, 0.0, 1.25, 6.0, 6.001, 40.0])
    def test_noise_clip_matches_numpy(self, pipe, state, z):
        class Scripted:
            def draw(self):
                return 1.0, z

        inst = [InstrumentPlacement("p", "pressure", 0.0, noise_sigma=123.4, bias=5.0)]
        frame = poll(state, inst, Scripted(), 0.0, pipe)
        expected = float(state.P[0] + 5.0 + np.clip(z, -6, 6) * 123.4)
        assert frame.reading("p")[0] == expected

    def test_noiseless_reading_is_what_a_noiseless_instrument_reads(self, pipe, state):
        inst = [InstrumentPlacement("f", "flow", 300.0),
                InstrumentPlacement("p", "pressure", 700.0),
                InstrumentPlacement("t", "temperature", 1000.0)]
        nodes = instrument_nodes(state.x, inst)
        frame = sample(state, inst, NoiseSpec(3), pipeline=pipe, nodes=nodes)
        truths = [noiseless_reading(state, i.kind, k, pipe) for i, k in zip(inst, nodes)]
        assert truths == [state.rho[3] * state.V[3] * pipe.area, state.P[7], state.T[10]]
        assert list(frame.values) == [float(v) for v in truths]

    def test_nodes_follow_instrument_order(self, state):
        inst = [InstrumentPlacement("p", "pressure", 500.0),
                InstrumentPlacement("f", "flow", 0.0),
                InstrumentPlacement("t", "temperature", 1000.0)]
        assert instrument_nodes(state.x, inst) == (5, 0, 10)

    def test_off_node_instrument_rejected(self, state):
        inst = [InstrumentPlacement("p", "pressure", 537.0)]
        with pytest.raises(ConfigurationError, match="p at 537.0 m is not on a grid node"):
            instrument_nodes(state.x, inst)


class TestFrame:
    def test_unknown_id_raises_key_error(self):
        frame = frame_of(0.0, ("p", 5e5, GOOD), ("f", 70.0, GOOD))
        assert frame.reading("f") == (70.0, GOOD)
        with pytest.raises(KeyError):
            frame.reading("t")

    def test_first_reading_of_a_repeated_id_wins(self):
        frame = frame_of(0.0, ("p", 1.0, GOOD), ("p", 2.0, SUSPECT))
        assert frame.reading("p") == (1.0, GOOD)

    def test_frame_without_the_instrument_leaves_its_memory(self):
        kinds = {"p": "pressure"}
        history = [frame_of(0.0, ("p", 5.0e5, GOOD)), frame_of(5.0, ("q", 1.0, GOOD))]
        assert remembered(*history)["p"] == remembered(history[0])["p"]
        rate = {"pressure": PlausibilityLimits(max_rate=1000.0)}
        # The rate is taken from the poll at t = 0: 900 Pa/s passes, 1100 Pa/s does not.
        out = plausibility_filter(frame_of(10.0, ("p", 5.09e5, GOOD)), remembered(*history),
                                  rate, kinds)
        assert out.reading("p")[1] == GOOD
        out = plausibility_filter(frame_of(10.0, ("p", 5.11e5, GOOD)), remembered(*history),
                                  rate, kinds)
        assert out.reading("p")[1] == SUSPECT


def _reference_filter(frame, memory, limits, kinds):
    """plausibility_filter written one (id, value, quality) reading at a
    time: the reference the column form must re-flag exactly as.  A
    reading is good when its quality is good and it has a value."""
    out = []
    for iid, value, quality in readings_of(frame):
        last_good, run_value, run = memory.get(iid, (None, None, 0))
        lim = limits.get(kinds.get(iid))
        if quality == GOOD and value is not None and lim is not None:
            suspect = not lim.min_value <= value <= lim.max_value
            if not suspect and last_good is not None and math.isfinite(lim.max_rate):
                t_prev, v_prev = last_good
                dt = frame.poll_time - t_prev
                suspect = dt > 0 and abs(value - v_prev) / dt > lim.max_rate
            if not suspect and lim.flatline_polls is not None:
                suspect = (run if value == run_value else 0) + 1 >= lim.flatline_polls
            if suspect:
                quality = SUSPECT
        if quality == GOOD and value is not None:
            last_good = (frame.poll_time, value)
        if value is None:
            run_value, run = None, 0
        elif value == run_value:
            run += 1
        else:
            run_value, run = value, 1
        memory[iid] = (last_good, run_value, run)
        out.append((iid, value, quality))
    return out


# Ids csv quotes or doubles, with repeats; values json and csv write in
# their own ways, None among them; and every quality.
_IDS = st.lists(st.text(st.sampled_from('ab,"\r\n \u00e9'), max_size=3), min_size=1, max_size=3)
_VALUES = st.none() | st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0))
_QUALITY = st.sampled_from((GOOD, SUSPECT, MISSING))


@st.composite
def _reading_frames(draw):
    """Frames built from their readings: a few polls over one list of ids,
    which may repeat an id."""
    ids = draw(_IDS)
    return [frame_of(5.0 * k, *[(i, draw(_VALUES), draw(_QUALITY)) for i in ids])
            for k in range(draw(st.integers(1, 4)))]


@st.composite
def _sampled_frames(draw):
    """Frames from sample and plausibility_filter, with the readings the
    reference filter makes of the same samples: instruments that may share
    an id, drop out and be re-flagged by every rule."""
    ids = draw(_IDS)
    instruments = [InstrumentPlacement(i, kind, 0.0, noise_sigma=draw(st.sampled_from((0.0, 5.0))),
                                       dropout_prob=draw(st.sampled_from((0.0, 0.5))))
                   for i, kind in zip(ids, draw(st.lists(
                       st.sampled_from(InstrumentPlacement.KINDS),
                       min_size=len(ids), max_size=len(ids))))]
    limits = {kind: PlausibilityLimits(min_value=draw(st.sampled_from((-np.inf, 100.0))),
                                       max_rate=draw(st.sampled_from((np.inf, 0.5))),
                                       flatline_polls=draw(st.sampled_from((None, 2))))
              for kind in draw(st.sets(st.sampled_from(InstrumentPlacement.KINDS)))}
    kinds = {inst.id: inst.kind for inst in instruments}
    x = np.linspace(0.0, 1000.0, 11)
    state = GridState(t=0.0, x=x, P=np.full(11, 9e5), V=np.full(11, 1.2),
                      T=np.full(11, 300.0), rho=np.full(11, 1000.0))
    pipe = PipelineModel(length=1000.0, diameter=0.3, friction_factor=0.02)
    noise, memory, reference = NoiseSpec(draw(st.integers(0, 99))), {}, {}
    frames, expected = [], []
    for k in range(draw(st.integers(1, 6))):
        frame = sample(dataclasses.replace(state, t=5.0 * k), instruments, noise, pipeline=pipe,
                       nodes=[0] * len(instruments))
        expected.append(_reference_filter(frame, reference, limits, kinds))
        frames.append(plausibility_filter(frame, memory, limits, kinds))
    return frames, expected


def _key(reading):
    """An (id, value, quality) reading, its value by its repr, so NaN
    equals NaN and -0.0 differs from 0.0."""
    iid, value, quality = reading
    return iid, repr(value), quality


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([["poll_time", "instrument", "value", "quality"], *rows])
    return buf.getvalue()


class TestFrameColumns:
    """A frame is its poll's columns, and reads as its list of (id, value,
    quality) readings would: each id's first reading, equality, pickling,
    and the log's good values, rows and csv bytes."""

    @staticmethod
    def check(frames):
        log = TelemetryLog()
        for frame in frames:
            readings = readings_of(frame)
            copy = pickle.loads(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))
            rebuilt = frame_of(frame.poll_time, *readings)
            for f in (frame, copy, rebuilt):
                assert type(f) is TelemetryFrame
                assert [_key(r) for r in readings_of(f)] == [_key(r) for r in readings]
                assert f.poll_time == frame.poll_time
                for iid, _, _ in readings:
                    first = next(r for r in readings if r[0] == iid)
                    assert _key((iid, *f.reading(iid))) == _key(first)
                with pytest.raises(KeyError):
                    f.reading("no such id")
            # equal as the lists of readings are: NaN is equal only to itself
            assert rebuilt == frame and hash(rebuilt) == hash(frame)
            assert (copy == frame) == (readings == readings_of(copy))
            assert (copy == frame) == all(value == value for _, value, _ in readings)
            assert frame != frame_of(frame.poll_time + 1.0, *readings)
            log.append(copy)
            # the log's good value of an id is its first reading's, when
            # that has a value and its quality is good
            k = len(log) - 1
            for iid, _, _ in readings:
                _, value, quality = next(r for r in readings if r[0] == iid)
                good = value if quality == GOOD and value is not None else None
                assert repr(log.good_value(k, iid)) == repr(good)
            with pytest.raises(KeyError):
                log.good_value(k, "no such id")
        for k in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log.good_value(k, log.ids[0])
        rows = [(f.poll_time, *r) for f in frames for r in readings_of(f)]
        assert [tuple(map(repr, row)) for row in log.rows()] == [tuple(map(repr, row))
                                                                 for row in rows]
        assert "".join(log.csv_pieces(2)) == _csv(rows)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(frames=_reading_frames())
    def test_frames_from_readings(self, frames):
        self.check(frames)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(sampled=_sampled_frames())
    def test_frames_from_sample_and_filter(self, sampled):
        frames, expected = sampled
        assert [readings_of(f) for f in frames] == expected
        self.check(frames)

    def test_a_batch_pickles_each_id_once(self, pipe, state):
        instruments = [InstrumentPlacement(i, "pressure", 0.0, noise_sigma=1.0, dropout_prob=0.3)
                       for i in ("p_first", "p_second")]
        noise, memory = NoiseSpec(3), {}
        limits, kinds = {"pressure": PlausibilityLimits(max_rate=0.1)}, dict.fromkeys(
            ("p_first", "p_second"), "pressure")
        frames = [plausibility_filter(poll(state, instruments, noise, 5.0 * k, pipe), memory,
                                      limits, kinds) for k in range(16)]
        assert {q for f in frames for q in f.qualities} == {GOOD, SUSPECT, MISSING}
        blob = pickle.dumps(frames, protocol=pickle.HIGHEST_PROTOCOL)
        assert blob.count(b"p_first") == blob.count(b"p_second") == 1
        assert all(blob.count(q.encode()) == 1 for q in (GOOD, SUSPECT, MISSING))
        assert pickle.loads(blob) == frames


class TestTelemetryLog:
    @pytest.mark.parametrize("later, message", [
        ((("b", 20.0, GOOD), ("c", 30.0, GOOD)),
         "the frame at t=5.0 s reads 'b' where the log reads 'a'"),
        ((("a", 20.0, GOOD), ("c", 30.0, GOOD)),
         "the frame at t=5.0 s reads 'c' where the log reads 'b'"),
        ((("b", 20.0, GOOD), ("a", 30.0, GOOD)),
         "the frame at t=5.0 s reads 'b' where the log reads 'a'"),
        ((("a", 20.0, GOOD),), "a frame of 1 readings for 2 instruments"),
    ], ids=["shifted", "second_renamed", "swapped", "short"])
    def test_a_frame_of_other_instruments_is_refused(self, later, message):
        log = TelemetryLog()
        log.append(frame_of(0.0, ("a", 1.0, GOOD), ("b", 2.0, GOOD)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            log.append(frame_of(5.0, *later))
        # a refused frame leaves nothing behind
        assert len(log) == 1
        assert list(log.rows()) == [(0.0, "a", 1.0, GOOD), (0.0, "b", 2.0, GOOD)]

    def test_good_value_reads_a_polls_first_good_reading(self):
        log = TelemetryLog()
        with pytest.raises(KeyError):
            log.good_value(0, "a")   # no instrument before the first frame
        log.append(frame_of(0.0, ("a", 1.0, GOOD), ("b", 2.0, SUSPECT), ("a", 3.0, MISSING)))
        log.append(frame_of(5.0, ("a", None, GOOD), ("b", 4.0, GOOD), ("a", 5.0, GOOD)))
        assert [log.good_value(k, i) for k in (0, 1) for i in ("a", "b")] == [
            1.0, None, None, 4.0]
        # a negative poll counts from the end, as a list index does
        assert [log.good_value(k, "b") for k in (-2, -1)] == [None, 4.0]
        with pytest.raises(KeyError):
            log.good_value(0, "c")
        for k in (2, -3):
            with pytest.raises(IndexError):
                log.good_value(k, "a")


class TestPlausibilityFilter:
    KINDS = {"p": "pressure"}

    def check(self, frame, limits, *history):
        """(value, quality) of ``frame``'s reading of p after ``history``."""
        return plausibility_filter(frame, remembered(*history), limits, self.KINDS).reading("p")

    def test_inside_limits_stays_good(self):
        limits = {"pressure": PlausibilityLimits(min_value=0.0, max_value=1e6)}
        assert self.check(frame_of(0.0, ("p", 5e5, GOOD)), limits)[1] == GOOD

    def test_out_of_range_suspect(self):
        limits = {"pressure": PlausibilityLimits(min_value=0.0)}
        out = self.check(frame_of(0.0, ("p", -5e5, GOOD)), limits)
        assert out[1] == SUSPECT
        assert out[0] == -5e5  # value untouched

    def test_rate_of_change_rule(self):
        limits = {"pressure": PlausibilityLimits(max_rate=1000.0)}
        history = [frame_of(0.0, ("p", 5.0e5, GOOD))]
        jumped = frame_of(5.0, ("p", 5.0e5 + 5e4, GOOD))   # 10x the allowed rate
        assert self.check(jumped, limits, *history)[1] == SUSPECT
        gentle = frame_of(5.0, ("p", 5.0e5 + 4000.0, GOOD))
        assert self.check(gentle, limits, *history)[1] == GOOD

    def test_rate_rule_uses_last_good(self):
        limits = {"pressure": PlausibilityLimits(max_rate=1000.0)}
        history = [
            frame_of(0.0, ("p", 5.0e5, GOOD)),
            frame_of(5.0, ("p", None, MISSING)),
        ]
        # 9000 Pa over 10 s from the last *good* reading: within the limit
        assert self.check(frame_of(10.0, ("p", 5.09e5, GOOD)), limits, *history)[1] == GOOD

    def test_rate_rule_uses_last_good_however_old(self):
        # Good at t = 0, then missing for 70 polls: the next reading is held
        # to max_rate times the 355 s since the last good one.
        limits = {"pressure": PlausibilityLimits(max_rate=1000.0)}
        history = [frame_of(0.0, ("p", 5.0e5, GOOD))]
        history += [frame_of(5.0 * k, ("p", None, MISSING)) for k in range(1, 71)]
        assert self.check(frame_of(355.0, ("p", 5.0e5 + 3.56e5, GOOD)), limits,
                          *history)[1] == SUSPECT
        assert self.check(frame_of(355.0, ("p", 5.0e5 + 3.54e5, GOOD)), limits,
                          *history)[1] == GOOD

    def test_rate_rule_skips_suspect_readings(self):
        limits = {"pressure": PlausibilityLimits(min_value=0.0, max_rate=1000.0)}
        memory = remembered(frame_of(0.0, ("p", 5.0e5, GOOD)))
        plausibility_filter(frame_of(5.0, ("p", -1.0, GOOD)), memory, limits, self.KINDS)
        out = plausibility_filter(frame_of(10.0, ("p", 5.09e5, GOOD)), memory, limits, self.KINDS)
        assert out.reading("p")[1] == GOOD

    def test_flatline_rule(self):
        limits = {"pressure": PlausibilityLimits(flatline_polls=3)}
        history = [frame_of(0.0, ("p", 7e5, GOOD)), frame_of(5.0, ("p", 7e5, GOOD))]
        assert self.check(frame_of(10.0, ("p", 7e5, GOOD)), limits, *history)[1] == SUSPECT
        wiggle = frame_of(10.0, ("p", 7e5 + 1.0, GOOD))
        assert self.check(wiggle, limits, *history)[1] == GOOD

    def test_flatline_run_counts_suspect_readings_and_breaks_at_missing(self):
        limits = {"pressure": PlausibilityLimits(flatline_polls=3)}
        suspect = [frame_of(0.0, ("p", 7e5, SUSPECT)), frame_of(5.0, ("p", 7e5, GOOD))]
        assert self.check(frame_of(10.0, ("p", 7e5, GOOD)), limits, *suspect)[1] == SUSPECT
        gap = [frame_of(0.0, ("p", 7e5, GOOD)), frame_of(5.0, ("p", None, MISSING))]
        pair = {"pressure": PlausibilityLimits(flatline_polls=2)}
        assert self.check(frame_of(10.0, ("p", 7e5, GOOD)), pair, *gap)[1] == GOOD

    def test_flatline_disabled_by_default(self):
        limits = {"pressure": PlausibilityLimits()}
        history = [frame_of(float(k), ("p", 7e5, GOOD)) for k in range(20)]
        assert self.check(frame_of(20.0, ("p", 7e5, GOOD)), limits, *history)[1] == GOOD

    def test_missing_passes_through(self):
        limits = {"pressure": PlausibilityLimits(min_value=0.0)}
        assert self.check(frame_of(0.0, ("p", None, MISSING)), limits)[1] == MISSING

    def test_a_good_reading_without_a_value_is_not_good(self):
        # Good is one rule: quality good and a value.  The log's good_value
        # reads no value, the filter passes the reading unflagged, and the
        # rate rule keeps t = 0 as the last good reading: 900 Pa/s passes,
        # 1100 does not.
        empty = frame_of(5.0, ("p", None, GOOD))
        log = TelemetryLog()
        log.append(empty)
        assert log.good_value(0, "p") is None
        limits = {"pressure": PlausibilityLimits(min_value=0.0, max_rate=1000.0,
                                                 flatline_polls=2)}
        history = [frame_of(0.0, ("p", 5.0e5, GOOD))]
        assert self.check(empty, limits, *history) == (None, GOOD)
        history.append(empty)
        assert self.check(frame_of(10.0, ("p", 5.09e5, GOOD)), limits, *history)[1] == GOOD
        assert self.check(frame_of(10.0, ("p", 5.11e5, GOOD)), limits, *history)[1] == SUSPECT

    def test_values_never_altered(self):
        limits = {"pressure": PlausibilityLimits(min_value=0.0, max_value=1.0,
                                                 max_rate=0.001, flatline_polls=2)}
        history = [frame_of(0.0, ("p", 42.0, GOOD))]
        assert self.check(frame_of(1.0, ("p", 42.0, GOOD)), limits, *history)[0] == 42.0

    def test_unlimited_kind_passes(self):
        assert self.check(frame_of(0.0, ("p", -1e9, GOOD)), {})[1] == GOOD
