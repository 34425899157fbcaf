import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import window_ending_at
from rulnet import ClusteringError, ContractError, IntegrityError, ParseError, RulnetError
from rulnet import data as D
from rulnet.cli import _write_json as write_json
from rulnet.synthetic import generate_dataset


def make_row(unit, cycle, rng=None, fill=0.5):
    values = [unit, cycle] + [fill] * 24 if rng is None else \
        [unit, cycle] + list(np.round(rng.uniform(-5, 5, 24), 4))
    return " ".join(str(v) for v in values)


@pytest.fixture
def text_file(tmp_path):
    """A function that writes its text to one file under ``tmp_path`` and
    returns the path; the readers take a path, not a stream."""
    path = tmp_path / "input.txt"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return path

    return write


class TestParseCmapss:
    def test_minimal_two_line_file(self, text_file):
        text = make_row(1, 1) + "\n" + make_row(1, 2) + "\n"
        trajs = D.parse_cmapss(text_file(text))
        assert len(trajs) == 1
        assert trajs[0].unit_id == 1
        assert len(trajs[0]) == 2
        assert trajs[0].channels.shape == (2, 24)

    def test_trailing_whitespace_tolerated(self, text_file):
        text = make_row(1, 1) + "   \n\n" + make_row(1, 2) + "  \n"
        assert len(D.parse_cmapss(text_file(text))[0]) == 2

    def test_wrong_column_count_reports_line(self, text_file):
        text = make_row(1, 1) + "\n1 2 3\n"
        path = text_file(text)
        with pytest.raises(ParseError) as err:
            D.parse_cmapss(path)
        assert str(err.value) == f"{path}: line 2: expected 26 columns, found 3"
        assert err.value.line == 2

    def test_non_numeric_field(self, text_file):
        bad = make_row(1, 1).replace("0.5", "abc", 1)
        with pytest.raises(ParseError):
            D.parse_cmapss(text_file(bad + "\n"))

    def test_non_monotone_cycles(self, text_file):
        text = make_row(1, 1) + "\n" + make_row(1, 3) + "\n"
        path = text_file(text)
        with pytest.raises(IntegrityError, match=re.escape(f"{path}: unit 1: cycles must")):
            D.parse_cmapss(path)

    def test_cycles_must_start_at_one(self, text_file):
        with pytest.raises(IntegrityError):
            D.parse_cmapss(text_file(make_row(1, 2) + "\n"))

    def test_units_in_first_appearance_order(self, text_file):
        text = "\n".join([make_row(2, 1), make_row(2, 2), make_row(1, 1)]) + "\n"
        trajs = D.parse_cmapss(text_file(text))
        assert [t.unit_id for t in trajs] == [2, 1]

    def test_round_trip(self, tmp_path, synth1):
        path = tmp_path / "round.txt"
        D.write_cmapss(synth1["train"], path)
        again = D.parse_cmapss(path)
        assert len(again) == len(synth1["train"])
        for a, b in zip(again, synth1["train"]):
            assert a.unit_id == b.unit_id
            np.testing.assert_array_equal(a.channels, b.channels)

    @pytest.mark.parametrize(
        "reading", ["nan", "NaN", "-nan", "inf", "+inf", "-Inf", "INFINITY", "-infinity", "1e400"]
    )
    def test_non_finite_reading_rejected(self, text_file, reading):
        fields = make_row(1, 2).split()
        fields[7] = reading
        text = make_row(1, 1) + "\n" + " ".join(fields) + "\n"
        with pytest.raises(ParseError, match="non-finite reading") as err:
            D.parse_cmapss(text_file(text))
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["# unit cycle settings sensors", "1 2" + " 0.5" * 23 + " #"])
    def test_comment_line_rejected(self, text_file, line):
        with pytest.raises(ParseError) as err:
            D.parse_cmapss(text_file(make_row(1, 1) + "\n" + line + "\n"))
        assert err.value.line == 2

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(make_row(1, 1).replace("0.5", "0.5\xb0", 1).encode("latin-1") + b"\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            D.parse_cmapss(path)

    def test_empty_input_has_no_units(self, text_file):
        path = text_file("\n  \n")
        with pytest.raises(IntegrityError) as err:
            D.parse_cmapss(path)
        assert str(err.value) == f"{path}: no units"

    @pytest.mark.parametrize("reader", [D.parse_cmapss, D.parse_rul_truth])
    def test_readers_take_a_path_not_a_stream(self, reader):
        with pytest.raises(TypeError):
            reader(io.StringIO(make_row(1, 1) + "\n"))

    @given(data=st.data())
    # Each example rewrites the fixture's one file, so sharing it is safe.
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_parser(self, text_file, data):
        lengths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="lengths")
        # A random interleaving of the units' rows; each unit's cycles stay in order.
        order = data.draw(st.permutations([u for u, n in enumerate(lengths, 1) for _ in range(n)]))
        reading = st.floats(allow_nan=False, allow_infinity=False)
        style = st.sampled_from([repr, "{:.6e}".format, "{:+.17g}".format, "{:E}".format])
        sep = st.sampled_from([" ", "\t", "  ", " \t "])
        whole = st.sampled_from(["{}", "+{}", "{}.0", "{}e0"])
        lines, cycle = [], dict.fromkeys(range(1, len(lengths) + 1), 0)
        for unit in order:
            cycle[unit] += 1
            fields = [data.draw(whole).format(unit), data.draw(whole).format(cycle[unit])]
            fields += [data.draw(style)(data.draw(reading)) for _ in range(24)]
            text = fields[0]
            for f in fields[1:]:
                text += data.draw(sep) + f
            lines.append(text + data.draw(st.sampled_from(["", " ", "\t"])))
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", "   ", "\t"])))
        text = "\n".join(lines) + "\n"
        parsed = D.parse_cmapss(text_file(text))
        expected = reference_parse_cmapss(text)
        assert [t.unit_id for t in parsed] == list(expected)
        for traj, rows in zip(parsed, expected.values()):
            assert traj.channels.tobytes() == np.array(rows)[:, 2:].tobytes()


def reference_parse_cmapss(text):
    """Row-at-a-time float() parser: unit id -> rows, in first-occurrence order."""
    rows_by_unit = {}
    for line in text.splitlines():
        parts = line.split()
        if parts:
            values = [float(p) for p in parts]
            rows_by_unit.setdefault(int(values[0]), []).append(values)
    return rows_by_unit


class TestParseTruth:
    def test_single_zero(self, text_file):
        assert D.parse_rul_truth(text_file("0\n")) == [0]

    def test_values_in_order(self, text_file):
        assert D.parse_rul_truth(text_file("112\n98\n20\n")) == [112, 98, 20]

    def test_negative_rejected(self, text_file):
        with pytest.raises(ParseError):
            D.parse_rul_truth(text_file("-3\n"))

    def test_non_integer_rejected(self, text_file):
        with pytest.raises(ParseError):
            D.parse_rul_truth(text_file("12.5\n"))

    @pytest.mark.parametrize("text", ["1e400", "inf", "-inf"])
    def test_overflowing_value_rejected(self, text_file, text):
        with pytest.raises(ParseError, match=f"line 2: expected an integer RUL, got '{text}'"):
            D.parse_rul_truth(text_file(f"7\n{text}\n"))

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"12\n\xb07\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            D.parse_rul_truth(path)

    def test_count_mismatch_with_test_set(self, synth1):
        with pytest.raises(IntegrityError):
            D.pair_test_truth(synth1["test"], [])


class TestClusterConditions:
    def test_recovers_synthetic_centers(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10], [7, 7, 7], [-5, 5, 0]], dtype=float)
        rows = np.vstack([c + rng.normal(0, 0.01, size=(40, 3)) for c in centers])
        traj = D.RawTrajectory(unit_id=1, channels=np.hstack([rows, np.zeros((len(rows), 21))]))
        cm = D.cluster_conditions([traj], k=6, seed=1)
        # Brute-force oracle: each generated point's nearest true center.
        found = sorted(tuple(np.round(c, 1)) for c in cm.centroids)
        expected = []
        for c in centers:
            members = rows[np.linalg.norm(rows - c, axis=1) < 5]
            expected.append(tuple(np.round(members.mean(axis=0), 1)))
        assert found == sorted(expected)

    def test_k1_equals_global_stats(self, synth1):
        cm = D.cluster_conditions(synth1["train"], k=1, seed=0)
        channels = np.vstack([t.channels for t in synth1["train"]])
        np.testing.assert_allclose(cm.means[0], channels.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(cm.stds[0], channels.std(axis=0), atol=1e-12)
        np.testing.assert_allclose(cm.centroids[0], channels[:, :3].mean(axis=0), atol=1e-9)

    def test_deterministic_under_seed(self, synth6):
        cm1 = D.cluster_conditions(synth6["train"], k=6, seed=3)
        cm2 = D.cluster_conditions(synth6["train"], k=6, seed=3)
        assert np.array_equal(cm1.centroids, cm2.centroids)
        assert np.array_equal(cm1.means, cm2.means)

    def test_six_tight_separated_clusters(self, synth6):
        cm = D.cluster_conditions(synth6["train"], k=6, seed=0)
        settings = np.vstack([t.settings for t in synth6["train"]])
        assignment = cm.assign(settings)
        assert np.all(np.bincount(assignment, minlength=6) > 0)
        span = np.linalg.norm(settings.max(axis=0) - settings.min(axis=0))
        dist = np.linalg.norm(settings - cm.centroids[assignment], axis=1)
        assert dist.max() <= 1e-3 * span

    def test_too_few_distinct_points(self):
        traj = D.RawTrajectory(unit_id=1, channels=np.zeros((50, 24)))
        with pytest.raises(ClusteringError, match="fewer than 2 distinct setting points"):
            D.cluster_conditions([traj], k=2, seed=0)

    @pytest.mark.parametrize("k, trajectories, message", [
        (0, [D.RawTrajectory(unit_id=1, channels=np.zeros((5, 24)))], "cluster count must be >= 1"),
        (1, [], "no setting rows"),
        (1, [D.RawTrajectory(unit_id=1, channels=np.zeros((0, 24)))], "no setting rows"),
    ], ids=["k-0", "no-trajectories", "no-rows"])
    def test_nothing_to_cluster_rejected(self, k, trajectories, message):
        with pytest.raises(ContractError, match=message):
            D.cluster_conditions(trajectories, k=k, seed=0)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "column, values, kind",
        [
            (9, (1e308, 1e308), "mean"),  # the sum overflows
            (9, (1e200, -1e200), "std"),  # the mean is finite, the squares overflow
            (0, (1e308, 1e308), "setting"),
        ],
    )
    def test_overflowing_statistics_rejected(self, k, column, values, kind):
        rng = np.random.default_rng(0)
        channels = np.hstack([rng.integers(0, 2, (40, 3)) * 10.0, rng.standard_normal((40, 21))])
        channels[5, column], channels[6, column] = values
        traj = D.RawTrajectory(unit_id=1, channels=channels)
        with warnings.catch_warnings(), pytest.raises(ClusteringError) as err:
            warnings.simplefilter("error", RuntimeWarning)  # the overflow shows only as the error
            D.cluster_conditions([traj], k=k, seed=0)
        if kind != "setting" or k == 1:
            assert re.search(rf"condition \d, channel {column}: ", str(err.value))

    def test_assignment_tie_breaks_to_lowest_index(self):
        cm = D.ConditionModel(
            centroids=np.array([[0.0, 0, 0], [2.0, 0, 0]]),
            means=np.zeros((2, 24)),
            stds=np.ones((2, 24)),
        )
        assert cm.assign(np.array([[1.0, 0, 0]]))[0] == 0  # equidistant

    def test_squared_distances_match_the_row_sum_bits(self):
        # Columns of scale 1e-3 to 1e6 and centroids near and far, so that
        # the order of the additions shows in the last bits.
        rng = np.random.default_rng(11)
        points = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-3, 7, size=(5000, 3))
        for centroid in (*points[:4], rng.standard_normal(3) * [1e-3, 1.0, 1e6]):
            expected = ((points - centroid) ** 2).sum(axis=1)
            assert D._squared_distances(points, centroid).tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            D._squared_distances(points, np.zeros(2))

    def test_text_round_trip(self, tmp_path, synth6):
        cm = D.cluster_conditions(synth6["train"], k=6, seed=0)
        path = tmp_path / "cm.txt"
        write_json(cm.to_dict(), path)
        loaded = D.ConditionModel.load_text(path)
        np.testing.assert_array_equal(loaded.centroids, cm.centroids)
        np.testing.assert_array_equal(loaded.means, cm.means)
        np.testing.assert_array_equal(loaded.stds, cm.stds)
        np.testing.assert_array_equal(loaded.constant_mask, cm.constant_mask)


class TestNormalize:
    def test_constant_channel_maps_to_zero(self, synth1):
        cm = D.cluster_conditions(synth1["train"], k=1, seed=0)
        normed = D.normalize(synth1["train"][0], cm)
        constant_cols = np.where(cm.constant_mask[0])[0]
        assert len(constant_cols) >= 2
        for col in constant_cols:
            np.testing.assert_array_equal(normed.channels[:, col], 0.0)

    def test_channel_equal_to_mean_maps_to_zero(self):
        settings = np.tile([1.0, 2.0, 3.0], (10, 1))
        sensors = np.arange(210, dtype=float).reshape(10, 21)
        traj = D.RawTrajectory(unit_id=1, channels=np.hstack([settings, sensors]))
        cm = D.cluster_conditions([traj], k=1, seed=0)
        sensors_at_mean = np.tile(sensors.mean(axis=0), (10, 1))
        at_mean = D.RawTrajectory(unit_id=1, channels=np.hstack([settings, sensors_at_mean]))
        normed = D.normalize(at_mean, cm)
        np.testing.assert_allclose(normed.sensors, 0.0, atol=1e-12)

    def test_k1_is_global_zscore(self, synth1):
        cm = D.cluster_conditions(synth1["train"], k=1, seed=0)
        traj = synth1["train"][0]
        normed = D.normalize(traj, cm)
        chans = traj.channels
        sigma = cm.stds[0].copy()
        mask = cm.constant_mask[0]
        sigma[mask] = 1.0
        expected = (chans - cm.means[0]) / sigma
        expected[:, mask] = 0.0
        np.testing.assert_allclose(normed.channels, expected, atol=1e-12)

    def test_fit_then_normalize_gives_unit_stats(self, synth6):
        cm = D.cluster_conditions(synth6["train"], k=6, seed=0)
        normed = np.vstack([D.normalize(t, cm).channels for t in synth6["train"]])
        assignment = cm.assign(np.vstack([t.settings for t in synth6["train"]]))
        for j in range(6):
            rows = normed[assignment == j]
            for i in range(24):
                if cm.constant_mask[j, i]:
                    continue
                assert abs(rows[:, i].mean()) < 1e-5
                assert abs(rows[:, i].std() - 1.0) < 1e-3

    def test_per_condition_normalization_recovers_trend(self, synth6):
        """Linear-drift fit: conditional z-scores expose the degradation
        trend that global z-scores leave buried in regime noise."""
        train = synth6["train"]
        cm6 = D.cluster_conditions(train, k=6, seed=0)
        cm1 = D.cluster_conditions(train, k=1, seed=0)

        def mean_r2(channels):
            t = np.arange(channels.shape[0], dtype=np.float64)
            a = np.vstack([t, np.ones_like(t)]).T
            scores = []
            for col in range(3, channels.shape[1]):
                y = channels[:, col]
                if y.std() < 1e-12:
                    continue
                coef, *_ = np.linalg.lstsq(a, y, rcond=None)
                resid = y - a @ coef
                scores.append(1.0 - (resid**2).sum() / ((y - y.mean()) ** 2).sum())
            return float(np.mean(scores))

        traj = train[0]
        r2_conditional = mean_r2(D.normalize(traj, cm6).channels)
        r2_global = mean_r2(D.normalize(traj, cm1).channels)
        assert r2_conditional > r2_global + 0.2


class TestPiecewiseRul:
    def test_capped(self):
        assert D.piecewise_rul(300, 100, 125) == 125

    def test_linear_region(self):
        assert D.piecewise_rul(300, 250, 125) == 50

    def test_end_of_life(self):
        assert D.piecewise_rul(300, 300, 125) == 0

    def test_cycle_beyond_end_rejected(self):
        with pytest.raises(ContractError):
            D.piecewise_rul(300, 301, 125)

    @given(total=st.integers(1, 500), r_max=st.integers(1, 200), t=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_always_bounded(self, total, r_max, t):
        if t > total:
            return
        value = D.piecewise_rul(total, t, r_max)
        assert 0 <= value <= r_max


def brute_force_window_count(total, window):
    """Enumerate every end position a stride-1 window can occupy."""
    if window > total:
        return 1
    return sum(1 for end in range(window, total + 1))


class TestWindowSplit:
    @staticmethod
    def _traj(total):
        rng = np.random.default_rng(total)
        return D.RawTrajectory(
            unit_id=1,
            channels=np.hstack([rng.standard_normal((total, 3)), rng.standard_normal((total, 21))]),
        )

    def test_spec_count_192_30(self):
        samples = D.window_split(self._traj(192), 30, 125)
        assert len(samples) == 163

    def test_boundary_equal_lengths(self):
        assert len(D.window_split(self._traj(30), 30, 125)) == 1

    def test_short_sequence_forward_fill(self):
        traj = self._traj(20)
        samples = D.window_split(traj, 30, 125)
        assert len(samples) == 1
        matrix = samples[0].matrix
        first_real = matrix[:, 10]
        for col in range(10):
            np.testing.assert_array_equal(matrix[:, col], first_real)
        np.testing.assert_allclose(matrix[:, 10:], traj.channels.T.astype(np.float32))

    @given(total=st.integers(1, 300), window=st.integers(1, 60), r_max=st.integers(50, 150))
    @settings(max_examples=50, deadline=None)
    def test_count_matches_formula_and_enumerator(self, total, window, r_max):
        samples = D.window_split(self._traj(total), window, r_max)
        assert len(samples) == D.expected_sample_count(total, window)
        assert len(samples) == brute_force_window_count(total, window)

    @given(total=st.integers(2, 300), window=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_labels_non_increasing_and_capped(self, total, window):
        samples = D.window_split(self._traj(total), window, 125)
        labels = [s.label for s in samples]
        assert all(a >= b for a, b in zip(labels, labels[1:]))
        assert all(0 <= l <= 125 for l in labels)
        assert samples[-1].label == 0.0

    def test_window_columns_are_consecutive_cycles(self):
        traj = self._traj(40)
        samples = D.window_split(traj, 5, 125)
        chosen = samples[10]
        end = chosen.end_cycle
        np.testing.assert_allclose(
            chosen.matrix,
            traj.channels[end - 5 : end].T.astype(np.float32),
        )

    @pytest.mark.parametrize("total", [45, 30, 20], ids=["longer", "equal", "shorter"])
    def test_matrices_are_read_only_views_of_one_buffer(self, total):
        traj = self._traj(total)
        samples = D.window_split(traj, 30, 125)
        assert np.shares_memory(samples[0].matrix, samples[-1].matrix)
        for s in samples:
            assert not s.matrix.flags.writeable
            assert s.matrix.tobytes() == D.windows_ending_at(traj.channels, [s.end_cycle], 30)[0].tobytes()

    def test_empty_window_or_trajectory_is_contract_error(self):
        with pytest.raises(ContractError):
            D.window_split(self._traj(5), 0, 125)
        with pytest.raises(ContractError):
            D.window_split(D.RawTrajectory(unit_id=1, channels=np.zeros((0, 24))), 5, 125)
        # The rule's own functions check the counts too.
        for total, window in ((0, 30), (5, 0)):
            with pytest.raises(ContractError, match=f"got {window} and {total}$"):
                D.expected_sample_count(total, window)
        with pytest.raises(ContractError):
            D.window_ends(0, 30)

    @given(total=st.integers(1, 120), window=st.integers(1, 40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_windows_match_slice_and_pad_reference(self, total, window, data):
        channels = self._traj(total).channels
        ends = D.window_ends(total, window)
        assert ends.tolist() == (list(range(window, total + 1)) if window <= total else [total])
        cycles = data.draw(st.lists(st.integers(1, total), max_size=10))
        for chosen in (ends, np.array(cycles, dtype=np.int64)):
            built = D.windows_ending_at(channels, chosen, window)
            assert built.shape == (len(chosen), 24, window) and built.dtype == np.float32
            assert built.flags.c_contiguous
            for matrix, end in zip(built, chosen.tolist()):
                assert matrix.tobytes() == window_ending_at(channels, end, window).tobytes()
        for end in (0, -1, total + 1):
            with pytest.raises(ContractError, match=f"^cycle {end} outside 1..{total}$"):
                D.windows_ending_at(channels, [total, end], window)
        none = D.windows_ending_at(channels, [], window)
        assert none.shape == (0, 24, window) and none.dtype == np.float32
        for ends, dtype in (([2.0], "float64"), ([True], "bool"), ([total, True], "bool"),
                            (np.array([1], np.float32), "float32")):
            with pytest.raises(ContractError, match=f"^cycle ends must be integers, got {dtype}$"):
                D.windows_ending_at(channels, ends, window)

    def test_saving_no_windows_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="no samples"):
            D.save_windows([], tmp_path / "w.txt")
        # The trajectory writer checks every window and label before it opens the file.
        good, empty = self._traj(5), D.RawTrajectory(unit_id=2, channels=np.zeros((0, 24)))
        for trajectories, window, r_max in (([], 3, 125), ([good], 0, 125), ([good, empty], 3, 125),
                                            ([good], 3, 0.0)):
            with pytest.raises(ContractError):
                D.write_windows(trajectories, window, r_max, tmp_path / "w.txt")
        assert not (tmp_path / "w.txt").exists()

    def test_windows_file_round_trip(self, tmp_path):
        samples = D.window_split(self._traj(45), 8, 125)
        path = tmp_path / "w.txt"
        D.save_windows(samples, path)
        loaded = D.load_windows(path)
        assert len(loaded) == len(samples)
        for a, b in zip(loaded, samples):
            assert (a.unit_id, a.end_cycle, a.label) == (b.unit_id, b.end_cycle, b.label)
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestWindowArrays:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_stacked_window_split(self, data):
        window = data.draw(st.integers(1, 35), label="window")
        r_max = data.draw(st.sampled_from([125.0, 3.0]), label="r_max")
        units = data.draw(st.lists(st.integers(1, 500), min_size=1, max_size=4, unique=True))
        if len(units) > 1:
            units = data.draw(st.permutations(units).filter(lambda u: u != sorted(u)), label="units")
        rng = np.random.default_rng(len(units))
        trajs = [
            D.RawTrajectory(unit_id=u, channels=rng.standard_normal((data.draw(st.integers(1, 60)), 24)))
            for u in units
        ]
        built = D.window_arrays(trajs, window, r_max)
        stacked = D.windows_to_arrays([s for t in trajs for s in D.window_split(t, window, r_max)])
        assert isinstance(built, D.Windows) and isinstance(stacked, D.Windows)
        assert stacked.rows.tolist() == list(range(len(stacked.y)))
        assert (built.rows.dtype, built.rows.shape) == (stacked.rows.dtype, stacked.rows.shape)
        for name, a, b in (("x", built.x[built.rows], stacked.x), ("y", built.y, stacked.y),
                           ("units", built.units, stacked.units)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert built.units[0] == units[0] and built.units[-1] == units[-1]

    def test_labels_use_the_scalar_rule(self):
        traj = TestWindowSplit._traj(40)
        w = D.window_arrays([traj], 5, 17.5)
        assert w.y.tolist() == [np.float32(D.piecewise_rul(40, e, 17.5)) for e in D.window_ends(40, 5).tolist()]

    def test_builds_no_array_of_every_window(self):
        # 20 units of 209 cycles: 3600 windows of 24 x 30.  The view's
        # buffer holds 20 x 238 padded rows, about 1/23 of the windows.
        rng = np.random.default_rng(0)
        trajs = [D.RawTrajectory(unit_id=u, channels=rng.standard_normal((209, 24))) for u in range(1, 21)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            w = D.window_arrays(trajs, 30, 125.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        windows_nbytes = len(w.y) * 24 * 30 * 4
        assert len(w.y) == 3600
        assert peak - start < windows_nbytes / 4, (peak - start) / windows_nbytes
        assert not w.x.flags.writeable

    def test_empty_window_or_trajectory_is_contract_error(self):
        with pytest.raises(ContractError):
            D.window_arrays([TestWindowSplit._traj(5)], 0, 125)
        with pytest.raises(ContractError):
            D.window_arrays([D.RawTrajectory(unit_id=1, channels=np.zeros((0, 24)))], 5, 125)
        with pytest.raises(ContractError):
            D.window_arrays([TestWindowSplit._traj(5)], 3, 0.0)
        with pytest.raises(ContractError):
            D.window_arrays([TestWindowSplit._traj(5)], 3, float("nan"))
        with pytest.raises(ContractError):
            D.window_arrays([], 3, 125)


def reference_save_windows(samples, path):
    """The writer that formats every cell of every window."""
    if not samples:
        raise ContractError("no samples to save")
    f, t = samples[0].matrix.shape
    with open(path, "w", encoding="utf-8") as out:
        out.write("windows v1\n")
        out.write(f"features {f} window {t} count {len(samples)}\n")
        for s in samples:
            head = f"{s.unit_id} {s.end_cycle} {s.label:.9g}"
            body = " ".join(f"{v:.9g}" for v in s.matrix.reshape(-1))
            out.write(head + " " + body + "\n")


# Cells that a comparison by value gets wrong (0.0 == -0.0 print apart,
# NaN != NaN), NaNs with other signs and payloads, infinities, a
# subnormal and float32 max.
SPECIAL_CELLS = [0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 1e-40, 3.4028235e38] + [
    float(np.uint32(b).view(np.float32)) for b in (0x7FC00000, 0xFFC00000, 0x7FC00001)
]


# The units of trajectory_lists are at most 8 cycles long, so only a cap
# below 7 binds; a float32 label of 2.3 would print as 2.29999995.
R_MAX_VALUES = [125.0, 3.0, 2.3]


@st.composite
def trajectory_lists(draw):
    """A window of 1-5 cycles and back-to-back units of 1-8 cycles, so
    that units shorter than, as long as and longer than the window are
    common, with cells from SPECIAL_CELLS and float32 values."""
    window = draw(st.integers(1, 5))
    n_sensors = draw(st.integers(0, 2))
    # The signed-zero palette makes neighbours that are equal in value but
    # not in bits common.
    cell = draw(st.sampled_from([
        st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(width=32)),
        st.sampled_from([0.0, -0.0]),
    ]))
    trajectories = []
    for unit in range(1, draw(st.integers(1, 3)) + 1):
        length = draw(st.integers(1, 8))
        cells = np.array(
            draw(st.lists(cell, min_size=length * (3 + n_sensors), max_size=length * (3 + n_sensors)))
        ).reshape(length, 3 + n_sensors)
        trajectories.append(D.RawTrajectory(unit_id=unit, channels=cells))
    return window, trajectories


@st.composite
def window_lists(draw):
    """Samples of :func:`trajectory_lists`, each unit with its own r_max,
    with neighbours dropped or reordered so that not every window
    continues the one before it."""
    window, trajectories = draw(trajectory_lists())
    samples = []
    for traj in trajectories:
        samples += D.window_split(traj, window, draw(st.sampled_from(R_MAX_VALUES)))
    keep = draw(st.lists(st.booleans(), min_size=len(samples), max_size=len(samples)))
    samples = [s for s, k in zip(samples, keep) if k] or samples[:1]
    if draw(st.booleans()):
        samples = draw(st.permutations(samples))
    return samples


class TestWindowsFileText:
    @given(samples=window_lists())
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_matches_reference_writer(self, tmp_path, samples):
        D.save_windows(samples, tmp_path / "fast.txt")
        reference_save_windows(samples, tmp_path / "reference.txt")
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()

    @given(trajectories=trajectory_lists(), r_max=st.sampled_from(R_MAX_VALUES))
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_trajectory_writer_matches_reference_writer(self, tmp_path, trajectories, r_max):
        window, trajectories = trajectories
        D.write_windows(trajectories, window, r_max, tmp_path / "fast.txt")
        samples = [s for t in trajectories for s in D.window_split(t, window, r_max)]
        reference_save_windows(samples, tmp_path / "reference.txt")
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()

    def test_long_runs_match_reference_writer(self, tmp_path):
        # Window 30 over units of 29 and 30 cycles (one window each), 31 (a
        # run of two) and 70 (a run of 41, broken twice by cells equal in
        # value but not in bits).  Channel 2 is all zeros and unit 4 holds a
        # NaN at cycle 40, so windows 10 to 39 of that unit contain it.
        # The trajectory writer gets the units as they are.
        rng = np.random.default_rng(7)
        trajectories = []
        for unit, length in enumerate([29, 30, 31, 70], start=1):
            channels = rng.standard_normal((length, 6)).astype(np.float32).astype(np.float64)
            channels[:, 2] = 0.0
            if length == 70:
                channels[39, 5] = np.nan
            trajectories.append(D.RawTrajectory(unit, channels))
        samples = [s for t in trajectories for s in D.window_split(t, 30, 125.0)]
        D.write_windows(trajectories, 30, 125.0, tmp_path / "trajectories.txt")
        reference_save_windows(samples, tmp_path / "trajectories-reference.txt")
        written = (tmp_path / "trajectories.txt").read_bytes()
        assert written == (tmp_path / "trajectories-reference.txt").read_bytes()
        unit4 = samples[4:]
        assert len(unit4) == 41

        def set_cell(sample, index, value):  # on a copy: the matrices are read-only views
            sample.matrix = sample.matrix.copy()
            sample.matrix[index] = value

        set_cell(unit4[8], (2, 15), -0.0)
        nan_col = 39 - (unit4[25].end_cycle - 30)
        assert np.isnan(unit4[25].matrix[5, nan_col])
        set_cell(unit4[25], (5, nan_col), np.uint32(0x7FC00001).view(np.float32))
        for k in (8, 9, 25, 26):
            now, before = unit4[k].matrix[:, :-1], unit4[k - 1].matrix[:, 1:]
            assert np.array_equal(now, before, equal_nan=True)
            assert now.tobytes() != before.tobytes()
        for order, name in ((samples, "forward"), (samples[::-1], "reversed")):
            D.save_windows(order, tmp_path / f"{name}.txt")
            reference_save_windows(order, tmp_path / f"{name}-reference.txt")
            written = (tmp_path / f"{name}.txt").read_bytes()
            assert written == (tmp_path / f"{name}-reference.txt").read_bytes()
            assert written.count(b"\n") == 2 + len(samples)

    @staticmethod
    def _every_truncation(path):
        """Yield the file cut at every byte before its end (after every
        line and inside every line)."""
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            yield cut

    def test_truncated_windows_file_is_rulnet_error(self, tmp_path):
        traj = TestWindowSplit._traj(5)
        path = tmp_path / "w.txt"
        D.save_windows(D.window_split(traj, 2, 125), path)
        for cut in self._every_truncation(path):
            with pytest.raises(RulnetError):
                D.load_windows(path)

    def test_truncated_condition_model_is_rulnet_error(self, tmp_path, synth6):
        path = tmp_path / "cm.txt"
        write_json(D.cluster_conditions(synth6["train"], k=2, seed=0).to_dict(), path)
        for cut in self._every_truncation(path):
            with pytest.raises(RulnetError) as err:
                D.ConditionModel.load_text(path)
            assert str(path) in str(err.value)

    def test_corrupt_text_artifacts_name_the_path(self, tmp_path, synth1):
        cm_path = tmp_path / "cm.json"
        write_json(D.cluster_conditions(synth1["train"], k=1, seed=0).to_dict(), cm_path)
        win_path = tmp_path / "w.txt"
        D.save_windows(D.window_split(TestWindowSplit._traj(4), 2, 125), win_path)
        first_value = r"(\[\s*\[\s*)[^,\s]+"  # the first number of the first array
        corruptions = {
            cm_path: [(first_value, r"\1NaN"), (first_value, r'\1"1.5"'),
                      (r'("means": \[)\s*\[[^\]]*\]', r"\1"),  # the only row of means
                      # Read, it would make every channel count as constant.
                      (r'("stds": \[\s*\[\s*)[^,\s]+', r"\1-1.0"),
                      (r"^\{", '{\n  "k": 1,')],
            win_path: [("count 3", "count x"), ("window 2", "window 0"), (r"\n1 3 \S+", "\n1 3 abc")],
        }
        for path, edits in corruptions.items():
            loader = D.load_windows if path == win_path else D.ConditionModel.load_text
            good = path.read_text()
            for pattern, replacement in edits:
                bad = re.sub(pattern, replacement, good, count=1, flags=re.M)
                assert bad != good
                path.write_text(bad)
                with pytest.raises(ParseError, match=re.escape(str(path))):
                    loader(path)
            path.write_bytes(good.encode().replace(b"\n", b"\n\xff", 3))  # not UTF-8
            with pytest.raises(ParseError, match=re.escape(str(path))):
                loader(path)


class TestSyntheticGenerator:
    def test_counts_and_format(self, tmp_path):
        ds = generate_dataset(tmp_path, name="X", n_train=7, n_test=4, n_conditions=2, seed=1)
        assert len(D.parse_cmapss(ds.train_path)) == 7
        test = D.parse_cmapss(ds.test_path)
        truth = D.parse_rul_truth(ds.truth_path)
        assert len(test) == 4 and len(truth) == 4

    def test_deterministic(self, tmp_path):
        a = generate_dataset(tmp_path / "a", name="X", n_train=3, n_test=2, seed=9)
        b = generate_dataset(tmp_path / "b", name="X", n_train=3, n_test=2, seed=9)
        assert a.train_path.read_text() == b.train_path.read_text()
        assert a.truth_path.read_text() == b.truth_path.read_text()
