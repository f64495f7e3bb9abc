import numpy as np
import pytest

from dcan.metrics import METRIC_NAMES, EvalReport, confusion, metrics


def metrics_oracle(cm):
    """Direct formula evaluation, independent of the metrics() code path."""
    counts = np.asarray(cm, dtype=float)
    c = counts.shape[0]
    total = counts.sum()
    acc = np.trace(counts) / total
    precisions, recalls, f1s = [], [], []
    for k in range(c):
        col = counts[:, k].sum()
        row = counts[k, :].sum()
        p = counts[k, k] / col if col > 0 else 0.0
        r = counts[k, k] / row if row > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    p_e = sum(counts[k, :].sum() * counts[:, k].sum() for k in range(c)) / total ** 2
    kappa = 0.0 if p_e == 1.0 else (acc - p_e) / (1 - p_e)
    return acc, np.mean(precisions), np.mean(recalls), np.mean(f1s), kappa


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion([0, 1, 1, 0], [0, 1, 1, 0], 2)
        np.testing.assert_array_equal(cm, [[2, 0], [0, 2]])

    def test_all_predicted_zero(self):
        cm = confusion([0, 1, 1], [0, 0, 0], 2)
        np.testing.assert_array_equal(cm, [[1, 0], [2, 0]])

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 100)
        preds = rng.integers(0, 3, 100)
        cm = confusion(labels, preds, 3)
        tally = np.zeros((3, 3), dtype=int)
        for t, p in zip(labels, preds):
            tally[t, p] += 1
        np.testing.assert_array_equal(cm, tally)
        assert cm.dtype == np.int64

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 2], [0, 1], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)


class TestMetrics:
    def test_diagonal_perfect(self):
        m = metrics(np.diag([5, 7, 3]))
        assert m.accuracy == 1.0 and m.kappa == pytest.approx(1.0)
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0

    def test_chance_agreement(self):
        m = metrics(np.array([[25, 25], [25, 25]]))
        assert m.accuracy == pytest.approx(0.5)
        assert m.kappa == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        m = metrics(np.array([[45, 5], [10, 40]]))
        assert m.accuracy == pytest.approx(0.85)
        assert m.kappa == pytest.approx(0.70)
        oracle = metrics_oracle([[45, 5], [10, 40]])
        for got, want in zip(m.as_row(), oracle):
            assert got == pytest.approx(want, abs=1e-12)

    def test_thousand_random_matrices_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            c = int(rng.integers(2, 5))
            counts = rng.integers(0, 30, (c, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            m = metrics(counts)
            for got, want in zip(m.as_row(), metrics_oracle(counts)):
                assert abs(got - want) <= 1e-12

    def test_kappa_zero_when_rows_proportional_to_marginals(self):
        # rows proportional to column marginals => observed = expected agreement
        outer = np.outer([30, 70], [40, 60]) / 100.0
        m = metrics(outer)
        assert abs(m.kappa) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 2), dtype=int))

    def test_degenerate_warns(self):
        with pytest.warns(UserWarning):
            metrics(np.array([[3, 0], [1, 0]]))


class TestEvalReport:
    def test_csv_layout_and_summary(self):
        report = EvalReport()
        report.folds.append(metrics(np.diag([5, 5])))
        report.folds.append(metrics(np.array([[4, 1], [1, 4]])))
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "fold,accuracy,precision,recall,f1,kappa"
        assert len(lines) == 4
        assert lines[-1] == "mean±std," + report.summary()
        cells = report.summary().split(",")
        assert len(cells) == len(METRIC_NAMES)
        assert cells[0] == "0.900000±0.141421"  # accuracy over folds 1.0 and 0.8
        assert report.mean("accuracy") == pytest.approx((1.0 + 0.8) / 2)
        expected_std = np.std([1.0, 0.8], ddof=1)
        assert report.std("accuracy") == pytest.approx(expected_std)
