import io
import math

import numpy as np
import pytest

from setrecon import analysis as an
from setrecon.netsim import sample_placement_tree
from setrecon.partition import fair_probs, round_optimal_probs, schedule_from_strings
from test_netsim import _tree_counts


def psr_expected_recoveries_fair(delta_max: int, mbar: int, c: int) -> np.ndarray:
    """Specialized fair-partitioning form of the recovery-call recursion,
    a cross-check of the general evaluator."""
    lg = np.array([math.lgamma(k + 1) for k in range(delta_max + 1)])
    n_bar = np.ones(delta_max + 1)
    log_cm1 = math.log(c - 1) if c > 2 else 0.0
    log_c = math.log(c)
    for d in range(mbar + 1, delta_max + 1):
        i = np.arange(d, dtype=float)
        base = lg[d] - lg[:d] - lg[d:0:-1]
        w = np.exp(base + (d - i) * log_cm1 + (1 - d) * log_c)
        denom = 1.0 - c ** (1 - d)
        n_bar[d] = (1.0 + float(w @ n_bar[:d])) / denom
    return n_bar


def full_sum_tables(delta_max: int, mbar: int, schedule) -> np.ndarray:
    """(n_bar, t_bar, u_bar) with every binomial term i < d of each row
    summed, a reference for the windowed general evaluator.  Its exponents
    are grouped as the evaluator's, since lgamma's rounding at d in the
    thousands would otherwise move the weights by a relative ~1e-13."""
    probs = schedule.as_floats()
    c = len(probs)
    lg = np.array([math.lgamma(k + 1) for k in range(delta_max + 1)])
    x = np.ones((delta_max + 1, 3))
    k = np.arange(mbar + 1)
    for d in range(mbar + 1, delta_max + 1):
        i = np.arange(d, dtype=float)
        base = lg[d] - lg[:d] - lg[d:0:-1]
        s = sum(np.exp(base + i * (math.log(p) - math.log1p(-p)) + d * math.log1p(-p)) @ x[:d]
                for p in probs)
        corr = sum(np.exp(lg[d] - lg[k] - lg[d - k] + k * math.log1p(-f) + (d - k) * math.log(f)).sum()
                   for f in np.cumsum(probs)[: c - 2])
        denom = 1.0 - sum(p**d for p in probs)
        x[d] = (1 + s[0]) / denom, (s[1] - corr) / denom, (s[2] + c - 1 - 2 * corr) / denom
    return x.T


def test_base_case_and_spot_values():
    t = an.expectation_tables(10, 2, fair_probs(2))
    assert np.all(t.n_bar[:3] == 1) and np.all(t.t_bar[:3] == 1) and np.all(t.u_bar[:3] == 1)
    assert t.n_bar[3] == pytest.approx(11 / 3, rel=1e-12)
    assert t.t_bar[3] == pytest.approx(7 / 3, rel=1e-12)
    assert t.u_bar[3] == pytest.approx(11 / 3, rel=1e-12)


@pytest.mark.parametrize("c", [2, 3, 4])
@pytest.mark.parametrize("delta_max, mbar", [(10, 25), (10, 10), (0, 1)])
def test_all_base_case_when_mbar_covers_delta_max(delta_max, mbar, c):
    # every d <= mbar fits one sketch, so no row is past the base case
    t = an.expectation_tables(delta_max, mbar, fair_probs(c))
    for arr in (t.n_bar, t.t_bar, t.u_bar):
        assert arr.shape == (delta_max + 1,) and np.all(arr == 1)


def test_fair_specialization_matches_general():
    for c in (2, 3, 4):
        general = an.expectation_tables(300, 3, fair_probs(c)).n_bar
        fair = psr_expected_recoveries_fair(300, 3, c)
        assert np.max(np.abs(general - fair) / fair) < 1e-12


@pytest.mark.parametrize("schedule", [
    fair_probs(2), fair_probs(3), fair_probs(8), round_optimal_probs(4), round_optimal_probs(8),
    schedule_from_strings(["0.15", "0.85"]), schedule_from_strings(["0.01", "0.99"]),
    schedule_from_strings(["0.15", "0.1", "0.25", "0.2", "0.3"]),
], ids=["fair2", "fair3", "fair8", "ro4", "ro8", "15-85", "1-99", "five-way"])
def test_window_matches_full_sum(schedule):
    # the window drops binomial mass below 2 exp(-50) per child and row
    t = an.expectation_tables(3000, 25, schedule)
    ref = full_sum_tables(3000, 25, schedule)
    for got, want in zip((t.n_bar, t.t_bar, t.u_bar), ref):
        assert np.max(np.abs(got - want) / want) <= 1e-13


def test_exact_matches_float():
    sched = round_optimal_probs(3)
    exact = an.exact_expectation_tables(40, 2, sched)
    t = an.expectation_tables(40, 2, sched)
    for x_arr, f_arr in zip(exact, (t.n_bar, t.t_bar, t.u_bar)):
        for d in range(41):
            assert f_arr[d] == pytest.approx(float(x_arr[d]), rel=1e-12)


def test_exact_matches_float_mid_scale():
    # the window leaves out binomial mass below 2 exp(-50) per child and
    # row, so what remains is log-space rounding, far below rel 1e-11
    for sched, mbar, dmax in ((fair_probs(2), 25, 120), (round_optimal_probs(3), 6, 80)):
        exact = an.exact_expectation_tables(dmax, mbar, sched)
        t = an.expectation_tables(dmax, mbar, sched)
        for x_arr, f_arr in zip(exact, (t.n_bar, t.t_bar, t.u_bar)):
            for d in range(dmax + 1):
                assert f_arr[d] == pytest.approx(float(x_arr[d]), rel=1e-11)


def test_enumeration_oracle_small():
    sched = fair_probs(2)
    enum = an.enumerate_tree_expectations(6, 1, sched)
    exact = an.exact_expectation_tables(6, 1, sched)
    assert enum[0] == exact[0] and enum[1] == exact[1] and enum[2] == exact[2]


def test_h_index_examples():
    assert an.h_index((7, 2, 1), 2, 3, 10) == 2
    assert an.h_index((9, 1, 0), 2, 3, 10) == 1
    assert an.h_index((3, 3, 4), 2, 3, 10) == 3
    with pytest.raises(ValueError):
        an.h_index((3, 3), 2, 3, 10)
    with pytest.raises(ValueError):
        an.h_index((3, 3, 5), 2, 3, 10)
    with pytest.raises(ValueError):
        an.h_index((-1, 8, 3), 2, 3, 10)


def test_psr_recovery_bound():
    assert an.psr_recovery_bound(100, 24, 2) == pytest.approx(96 * math.e, rel=1e-12)
    for c in (2, 3, 4):
        n_bar = an.expectation_tables(500, 10, fair_probs(c)).n_bar
        d = np.arange(11, 501)
        assert np.all(n_bar[11:] <= an.psr_recovery_bound(d, 10, c))


def _sample_counts(delta, mbar, schedule, rng):
    """(n, t, u, depth) of one tree from the single-tree sampler."""
    tree = sample_placement_tree(delta, mbar, schedule, rng)
    return _tree_counts(tree, mbar, schedule.c)


def test_mc_tree_sample_base_case():
    rng = np.random.default_rng(0)
    assert _sample_counts(3, 5, fair_probs(2), rng) == (1, 1, 1, 0)


def test_mc_tree_sample_c2_identity():
    rng = np.random.default_rng(1)
    sched = fair_probs(2)
    for _ in range(500):
        n, t, u, _ = _sample_counts(40, 3, sched, rng)
        assert n == u
        assert t <= u


def test_mc_batch_c2_identity_and_dominance():
    rng = np.random.default_rng(2)
    draws = an.mc_sample_batch(60, 4, fair_probs(2), 2000, rng)
    assert np.array_equal(draws["n"], draws["u"])
    assert np.all(draws["t"] <= draws["u"])


def test_samplers_refuse_negative_delta_and_mbar_below_one():
    # a negative delta was sampled as one leaf; mbar 0 split forever
    rng = np.random.default_rng(0)
    for delta, mbar in ((-3, 4), (3, 0)):
        with pytest.raises(ValueError, match=f"got {delta} and {mbar}"):
            an.mc_sample_batch(delta, mbar, fair_probs(2), 10, rng)
        with pytest.raises(ValueError, match=f"got {delta} and {mbar}"):
            sample_placement_tree(delta, mbar, fair_probs(2), rng)


def test_mc_batch_matches_single_sampler():
    sched = round_optimal_probs(3)
    rng1 = np.random.default_rng(3)
    singles = np.array([_sample_counts(40, 4, sched, rng1) for _ in range(4000)])
    rng2 = np.random.default_rng(4)
    batch = an.mc_sample_batch(40, 4, sched, 4000, rng2)
    for i, key in enumerate(("n", "t", "u", "depth")):
        a, b = singles[:, i].astype(float), batch[key]
        se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
        assert abs(a.mean() - b.mean()) < 4 * se, key


def test_mc_batch_matches_recursion():
    sched = round_optimal_probs(3)
    tables = an.expectation_tables(60, 4, sched)
    rng = np.random.default_rng(5)
    draws = an.mc_sample_batch(60, 4, sched, 5000, rng)
    for key, table in (("n", tables.n_bar), ("t", tables.t_bar), ("u", tables.u_bar)):
        arr = draws[key]
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        assert abs(arr.mean() - table[60]) < 4 * se, key


def _csv_rows(delta_max, mbar, gamma, bits):
    buf = io.StringIO()
    an.write_metrics_csv(buf, delta_max, mbar, gamma, bits, fair_probs(2))
    header, *lines = buf.getvalue().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def test_redundancy_and_normalized_complexity():
    # redundancy = sketches * wire cost / (d * bits); normalized complexity
    # = recoveries * mbar / d; the rows start at d = 1, where both are defined
    rows = _csv_rows(30, 25, 1, 64)
    assert rows[0]["delta"] == 1
    at25 = rows[24]
    assert at25["delta"] == 25 and at25["n_bar"] == 1
    assert at25["redundancy_psr"] == pytest.approx(1.09625, abs=1e-12)
    assert at25["redundancy_epsr"] == pytest.approx(1.09625, abs=1e-12)
    assert at25["norm_complexity_psr"] == pytest.approx(1.0)
    at10 = rows[9]
    assert at10["norm_complexity_psr"] == pytest.approx(2.5)  # 1 * 25 / 10
    at3 = _csv_rows(3, 2, 1, 8)[2]  # N_3 = U_3 = 11/3, T_3 = 7/3 at mbar 2
    assert at3["norm_complexity_psr"] == pytest.approx(22 / 9, rel=1e-11)
    assert at3["norm_complexity_epsr"] == pytest.approx(22 / 9, rel=1e-11)
    assert at3["redundancy_epsr"] == pytest.approx(7 / 3 * 35 / 24, rel=1e-11)


def test_depth_slope_near_lambda():
    # mean sampled depth grows like lam * log(delta/mbar) with lam = 1/log 2
    sched = fair_probs(2)
    mbar = 10
    deltas = (100, 1000, 10_000)
    rng = np.random.default_rng(6)
    means = []
    for delta in deltas:
        draws = an.mc_sample_batch(delta, mbar, sched, 2000, rng)
        means.append(float(draws["depth"].mean()))
    xs = [math.log(d / mbar) for d in deltas]
    slope = np.polyfit(xs, means, 1)[0]
    lam = 1 / math.log(2)
    assert abs(slope - lam) / lam < 0.25, (slope, lam)


def test_csv_output():
    buf = io.StringIO()
    an.write_metrics_csv(buf, 30, 25, 1, 64, fair_probs(2))
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(an.CSV_COLUMNS)
    assert len(lines) == 31
    row25 = lines[25].split(",")
    assert row25[0] == "25" and row25[1] == "1"
    # redundancy at delta=25 equals cost/(25*64)
    assert row25[4] == "1.09625"
    # deterministic formatting
    buf2 = io.StringIO()
    an.write_metrics_csv(buf2, 30, 25, 1, 64, fair_probs(2))
    assert buf.getvalue() == buf2.getvalue()


def test_tables_are_readonly_and_cached():
    t1 = an.expectation_tables(20, 2, fair_probs(2))
    t2 = an.expectation_tables(20, 2, fair_probs(2))
    assert t1 is t2
    with pytest.raises(ValueError):
        t1.n_bar[0] = 5.0
