"""CWR* head: reload/reset semantics and the count-weighted consolidation."""

import numpy as np
import pytest

from binreplay import cwr
from binreplay.cwr import CWRError


def feature(vals):
    return np.asarray(vals, dtype=np.float64)


class TestBeginExperience:
    def test_first_experience_tw_zero(self):
        head = cwr.init(3, 4)
        cwr.begin_experience(head, [0, 1])
        assert np.all(head.tw == 0)

    def test_seen_classes_reload_cw(self):
        head = cwr.init(2, 3)
        head.cw[1] = [0.5, -0.5, 0.25]
        head.seen = {1}
        cwr.begin_experience(head, [1, 2])
        assert head.tw[1].tolist() == [0.5, -0.5, 0.25]
        assert np.all(head.tw[2] == 0)

    def test_empty_classes_rejected(self):
        with pytest.raises(CWRError):
            cwr.begin_experience(cwr.init(2, 3), [])

    def test_out_of_range_class_rejected(self):
        with pytest.raises(CWRError):
            cwr.begin_experience(cwr.init(2, 3), [3])


class TestRecordTraining:
    def test_counts_per_class(self):
        head = cwr.init(2, 3)
        cwr.begin_experience(head, [0, 2])
        cwr.record_training(head, [2, 0, 2])
        assert head.cur_counts.tolist() == [1, 0, 2]
        assert head.trained_now == {0, 2}

    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected(self, label):
        head = cwr.init(2, 3)
        cwr.begin_experience(head, [0, 1, 2])
        with pytest.raises(CWRError, match="outside"):
            cwr.record_training(head, [0, label])
        assert head.cur_counts.tolist() == [0, 0, 0]
        assert head.trained_now == set()


class TestConsolidate:
    def test_first_experience_is_mean_shift(self):
        # past = 0 forces w_past = 0: cw_j = tw_j - mean(tw)
        head = cwr.init(2, 2)
        cwr.begin_experience(head, [0, 1])
        head.tw[0] = [1.0, 2.0, 0.5]
        head.tw[1] = [3.0, 0.0, 1.5]
        cwr.record_training(head, [0, 0, 1])
        cwr.consolidate(head)
        mean = np.array([2.0, 1.0, 1.0])
        np.testing.assert_allclose(head.cw[0], [1.0, 2.0, 0.5] - mean, atol=1e-7)
        np.testing.assert_allclose(head.cw[1], [3.0, 0.0, 1.5] - mean, atol=1e-7)
        assert head.past_counts.tolist() == [2, 1]

    def test_equal_counts_average(self):
        # past == cur gives w_past = 1: cw = (cw + tw - mean) / 2
        head = cwr.init(1, 1)
        head.cw[0] = [4.0, 2.0]
        head.past_counts[0] = 5
        head.seen = {0}
        cwr.begin_experience(head, [0])
        head.tw[0] = [1.0, 1.0]
        cwr.record_training(head, [0] * 5)
        cwr.consolidate(head)
        # mean over the single trained row equals tw itself, so the shifted
        # contribution is zero: cw = (cw * 1 + 0) / 2
        np.testing.assert_allclose(head.cw[0], [2.0, 1.0], atol=1e-7)

    def test_two_experience_hand_table(self):
        # worked example, arithmetic done by hand:
        # exp A trains classes {0, 1} from scratch, exp B trains {1, 2}
        head = cwr.init(1, 3)
        cwr.begin_experience(head, [0, 1])
        head.tw[0] = [2.0, 0.0]
        head.tw[1] = [0.0, 2.0]
        cwr.record_training(head, [0, 1, 1, 1])
        cwr.consolidate(head)
        # mean = [1, 1]; cw0 = [1, -1], cw1 = [-1, 1]; past = [1, 3, 0]
        np.testing.assert_allclose(head.cw[0], [1.0, -1.0], atol=1e-7)
        np.testing.assert_allclose(head.cw[1], [-1.0, 1.0], atol=1e-7)

        cwr.begin_experience(head, [1, 2])
        assert head.tw[1].tolist() == [-1.0, 1.0]  # reloaded
        head.tw[1] = [1.0, 3.0]
        head.tw[2] = [3.0, 1.0]
        cwr.record_training(head, [1, 1, 1, 2])
        cwr.consolidate(head)
        # mean = [2, 2]
        # class 1: w_past = sqrt(3/3) = 1 -> ([-1,1] + [-1,1]) / 2 = [-1, 1]
        # class 2: w_past = 0 -> [1, -1]
        np.testing.assert_allclose(head.cw[1], [-1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(head.cw[2], [1.0, -1.0], atol=1e-6)
        np.testing.assert_allclose(head.cw[0], [1.0, -1.0], atol=1e-6)  # untouched
        assert head.past_counts.tolist() == [1, 6, 1]

    def test_sqrt_ratio_weighting(self):
        head = cwr.init(1, 1)
        head.cw[0] = [8.0, 0.0]
        head.past_counts[0] = 16
        head.seen = {0}
        cwr.begin_experience(head, [0])
        head.tw[0] = [0.0, 0.0]
        cwr.record_training(head, [0])  # cur = 1 -> w_past = 4
        cwr.consolidate(head)
        np.testing.assert_allclose(head.cw[0], [8.0 * 4 / 5, 0.0], atol=1e-6)

    def test_untrained_rows_isolated(self):
        head = cwr.init(2, 4)
        head.cw[3] = [9.0, 9.0, 9.0]
        cwr.begin_experience(head, [0])
        head.tw[0] = [1.0, 0.0, 0.0]
        cwr.record_training(head, [0])
        cwr.consolidate(head)
        assert head.cw[3].tolist() == [9.0, 9.0, 9.0]

    def test_constant_shift_invariance_on_fresh_classes(self):
        # adding the same constant to every trained tw row leaves prediction
        # differences unchanged when all rows share w_past = 0
        rng = np.random.default_rng(0)
        tw = rng.normal(size=(3, 4))
        heads = []
        for shift in (0.0, 7.5):
            head = cwr.init(3, 3)
            cwr.begin_experience(head, [0, 1, 2])
            head.tw[:] = tw + shift
            cwr.record_training(head, [0, 1, 2])
            cwr.consolidate(head)
            heads.append(head)
        x = rng.normal(size=(5, 3))
        a = cwr.predict(heads[0], x)
        b = cwr.predict(heads[1], x)
        np.testing.assert_allclose(np.argmax(a, axis=1), np.argmax(b, axis=1))

    def test_no_training_recorded(self):
        head = cwr.init(2, 2)
        cwr.begin_experience(head, [0])
        with pytest.raises(CWRError):
            cwr.consolidate(head)


class TestPredictAndTrain:
    def test_predict_reads_cw_only(self):
        head = cwr.init(2, 2)
        head.cw[0] = [1.0, 0.0, 0.0]
        head.tw[0] = [-100.0, -100.0, -100.0]
        out = cwr.predict(head, feature([[2.0, 3.0]]))
        assert out[0, 0] == pytest.approx(2.0)

    def test_train_logits_read_tw(self):
        head = cwr.init(2, 2)
        head.tw[1] = [1.0, 1.0, 0.5]
        out = cwr.train_logits(head, feature([[2.0, 3.0]]))
        assert out[0, 1] == pytest.approx(5.5)

    def test_bias_column(self):
        head = cwr.init(2, 1)
        head.cw[0] = [0.0, 0.0, 4.0]
        assert cwr.predict(head, feature([[0.0, 0.0]]))[0, 0] == pytest.approx(4.0)

    def test_feature_dim_validation(self):
        with pytest.raises(CWRError):
            cwr.predict(cwr.init(3, 2), feature([[1.0, 2.0]]))

    def test_head_gradient_matches_manual(self, rng):
        head = cwr.init(3, 2)
        head.tw = rng.normal(size=(2, 4))
        x = rng.normal(size=(5, 3))
        gl = rng.normal(size=(5, 2))
        tw_before = head.tw.copy()
        gf = cwr.apply_head_gradient(head, x, gl, learning_rate=0.1)
        np.testing.assert_allclose(gf, gl @ tw_before[:, :-1], atol=1e-12)
        np.testing.assert_allclose(head.tw[:, :-1], tw_before[:, :-1] - 0.1 * gl.T @ x, atol=1e-12)
        np.testing.assert_allclose(head.tw[:, -1], tw_before[:, -1] - 0.1 * gl.sum(axis=0), atol=1e-12)

    def test_invalid_dims_rejected(self):
        with pytest.raises(CWRError):
            cwr.init(0, 2)
