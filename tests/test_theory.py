import math
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exact_posterior_rtbs_success,
    exact_rtbs_success,
    frac_posterior_rmtp,
    frac_rates,
    frac_rmtp,
    limit_rtbs_beats_rmtp,
)
from reflect_lab import theory
from reflect_lab.theory import (
    PosteriorParams,
    SimplifiedParams,
    crossover_scan,
    curve_table,
    epsilon_fixed_point,
    expected_solution_length,
    log_rho_rmtp,
    log_rho_rtbs,
    posterior_sufficient_condition,
    rate_table,
    rho_nonreflective,
    rho_rmtp,
    rho_rtbs,
    rmtp_improves,
    rtbs_asymptotically_beats_rmtp,
    rtbs_table,
    sigma_stability_band,
)

REF_FRAC = (Fraction(4, 5), Fraction(3, 10), Fraction(1, 5), Fraction(4, 5))
ALT_FRAC = (Fraction(3, 5), Fraction(1, 4), Fraction(1, 10), Fraction(1, 2))

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
inner_probs = st.floats(min_value=0.01, max_value=0.99)


def param_tuple() -> st.SearchStrategy[SimplifiedParams]:
    return st.builds(SimplifiedParams, inner_probs, inner_probs, inner_probs, inner_probs)


# --- branch rates ---


def test_branch_rates_reference_point(ref_params):
    assert ref_params.alpha == pytest.approx(0.4, abs=1e-15)
    assert ref_params.beta == pytest.approx(0.56, abs=1e-15)
    assert ref_params.gamma == pytest.approx(0.04, abs=1e-15)


@given(param_tuple())
def test_branch_rates_form_a_distribution(params):
    assert params.alpha >= 0 and params.beta >= 0 and params.gamma >= 0
    assert params.alpha + params.beta + params.gamma == pytest.approx(1.0, abs=1e-12)


@given(param_tuple())
def test_branch_rates_match_exact_rationals(params):
    mu = Fraction(params.mu)
    em = Fraction(params.e_minus)
    ep = Fraction(params.e_plus)
    a, b, g = frac_rates(mu, em, ep)
    assert params.alpha == pytest.approx(float(a), abs=1e-15)
    assert params.beta == pytest.approx(float(b), abs=1e-15)
    assert params.gamma == pytest.approx(float(g), abs=1e-15)


@given(st.builds(SimplifiedParams, probs, probs, probs, probs))
def test_a_point_states_the_rates_of_its_one_entry_table(params):
    table = PosteriorParams.constant(params)
    assert params.alpha == table.alpha[0]
    assert params.beta == table.beta[0]
    assert params.gamma == table.gamma[0]


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        SimplifiedParams(1.2, 0.1, 0.1, 0.5)
    with pytest.raises(ValueError):
        SimplifiedParams(0.5, -0.1, 0.1, 0.5)


_REFUSALS = {
    "rho_nonreflective-n": (lambda p: rho_nonreflective(p, -1), "n must be >= 0"),
    "rho_rmtp-n": (lambda p: rho_rmtp(p, -1), "n must be >= 0"),
    "rho_rtbs-n": (lambda p: rho_rtbs(p, 2, -1), "n must be >= 0"),
    "beats-m": (lambda p: rtbs_asymptotically_beats_rmtp(p, 0), "m must be >= 1"),
    "solution-length-n": (lambda p: expected_solution_length(p, -1), "n must be >= 0"),
    "fixed-point-m": (lambda p: epsilon_fixed_point(0.5, 0), "m must be >= 1"),
    "empty-table": (lambda p: PosteriorParams((), (), (), 0.5), "non-empty"),
    "rtbs_table-m": (lambda p: rtbs_table(p, 0, 3), "m must be >= 1"),
    "rtbs_table-n_max": (lambda p: rtbs_table(p, 2, -1), "n_max must be >= 0"),
    "sufficient-mu-1": (
        lambda p: posterior_sufficient_condition(PosteriorParams((1.0,), (0.1,), (0.1,), 0.5)),
        "mu_1 must be < 1",
    ),
}


@pytest.mark.parametrize("name", _REFUSALS)
def test_theory_refuses_arguments_out_of_range(ref_params, name):
    call, message = _REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call(ref_params)


@pytest.mark.parametrize("curve", ["rmtp", "rtbs"])
def test_log_curves_refuse_a_negative_scale(ref_params, curve):
    # The refusal of rho_rmtp and rho_rtbs, whose logs these are.
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        log_rho_rmtp(ref_params, -1) if curve == "rmtp" else log_rho_rtbs(ref_params, 2, -1)


def test_log_rho_rtbs_is_minus_infinity_when_a_scale_cannot_advance():
    # mu = 0: beta = 0, so no scale ever advances on track.
    assert log_rho_rtbs(SimplifiedParams(0.0, 0.3, 0.2, 0.8), 2, 3) == -math.inf


@pytest.mark.parametrize("curve", ["rmtp", "rtbs"])
def test_log_curves_are_minus_infinity_at_a_zero_rate_without_a_warning(curve):
    # mu = 0: beta = 0, so rmtp's advance rate and every rtbs sigma are zero.
    # Each curve catches the zero before it takes a log, where math.log
    # would raise and numpy would warn.
    zero = SimplifiedParams(0.0, 0.3, 0.2, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = log_rho_rmtp(zero, 3) if curve == "rmtp" else log_rho_rtbs(zero, 2, 3)
    assert value == -math.inf


# --- plain chain and retry-in-place ---


def test_rho_nonreflective_is_power_of_mu(ref_params):
    assert rho_nonreflective(ref_params, 0) == 1.0
    assert rho_nonreflective(ref_params, 7) == pytest.approx(0.8**7, rel=1e-15)


def test_rho_rmtp_frozen_values(ref_params, alt_params):
    # exact rationals: (14/15)**5 and (45/49)**5
    assert rho_rmtp(ref_params, 5) == pytest.approx(0.708245596707819, rel=1e-14)
    assert rho_rmtp(ref_params, 12) == pytest.approx(0.4369596344452393, rel=1e-14)
    assert rho_rmtp(alt_params, 5) == pytest.approx(0.6532541369668816, rel=1e-14)


@given(param_tuple(), st.integers(min_value=0, max_value=40))
def test_rho_rmtp_matches_exact_rationals(params, n):
    oracle = frac_rmtp(
        Fraction(params.mu), Fraction(params.e_minus), Fraction(params.e_plus), n
    )
    assert rho_rmtp(params, n) == pytest.approx(float(oracle), rel=1e-12, abs=1e-300)


@given(inner_probs, inner_probs, inner_probs, st.integers(min_value=1, max_value=30))
def test_error_budget_boundary_recovers_plain_chain(mu, e_minus, f, n):
    # When the two error rates sum to one, retrying changes nothing.
    params = SimplifiedParams(mu, e_minus, 1.0 - e_minus, f)
    assert rho_rmtp(params, n) == pytest.approx(mu**n, rel=1e-12)


def test_rho_rmtp_warns_when_chain_cannot_advance():
    stuck = SimplifiedParams(mu=1.0, e_minus=1.0, e_plus=0.0, f=0.5)
    with pytest.warns(RuntimeWarning):
        assert rho_rmtp(stuck, 3) == 0.0


def test_rho_rmtp_warns_for_a_table_only_when_no_attempt_can_advance():
    # A first attempt that rejects everything is retried at rates that
    # derail: the chain advances, off track, and the curve is zero.
    later = PosteriorParams(mu=(1.0, 0.5), e_minus=(1.0, 1.0), e_plus=(0.0, 0.5), f=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rho_rmtp(later, 3) == 0.0
    stuck = PosteriorParams(mu=(1.0, 1.0), e_minus=(1.0, 1.0), e_plus=(0.0, 0.0), f=0.5)
    with pytest.warns(RuntimeWarning, match="alpha = 1"):
        assert rho_rmtp(stuck, 3) == 0.0


def test_rmtp_divides_by_the_acceptance_rate_not_one_minus_alpha():
    # alpha = 1 - 1e-17 rounds to one, but every accepted step is on track.
    rare = SimplifiedParams(mu=1e-17, e_minus=0.0, e_plus=0.0, f=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rho_rmtp(rare, 5) == 1.0
    assert log_rho_rmtp(rare, 5) == 0.0


def test_log_rho_rmtp_consistent(ref_params):
    assert log_rho_rmtp(ref_params, 9) == pytest.approx(math.log(rho_rmtp(ref_params, 9)), rel=1e-12)
    assert log_rho_rmtp(ref_params, 0) == 0.0


# --- backtracking recursion ---


def test_rtbs_table_frozen_values(ref_params):
    # Exact rationals for the first three scales at the reference point.
    t2 = rtbs_table(ref_params, 2, 3)
    assert list(t2.delta[1:4, 0]) == pytest.approx([0.4, 0.5152, 0.5830887424], rel=1e-14)
    assert list(t2.epsilon[1:4]) == pytest.approx([0.8, 0.928, 0.9722368], rel=1e-14)
    assert list(t2.sigma[1:4]) == pytest.approx(
        [0.784, 0.848512, 0.886529695744], rel=1e-14
    )
    assert rho_rtbs(ref_params, 2, 3) == pytest.approx(0.5897491707929842, rel=1e-13)
    assert list(t2.rho) == [rho_rtbs(ref_params, 2, k) for k in range(4)]

    t4 = rtbs_table(ref_params, 4, 3)
    assert t4.delta[3, 0] == pytest.approx(0.44347168564758915, rel=1e-14)
    assert list(t4.sigma[1:4]) == pytest.approx(
        [0.90944, 0.9498421920451788, 0.9673188716348063], rel=1e-14
    )
    assert rho_rtbs(ref_params, 4, 3) == pytest.approx(0.8355937243152822, rel=1e-13)
    assert list(t4.rho) == [rho_rtbs(ref_params, 4, k) for k in range(4)]


def test_rtbs_frozen_values_second_point(alt_params):
    assert rho_rtbs(alt_params, 2, 3) == pytest.approx(0.3847917345943904, rel=1e-13)
    assert rho_rtbs(alt_params, 4, 3) == pytest.approx(0.701713858008061, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(param_tuple(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_rtbs_matches_exact_search_semantics(params, m, n):
    # The product of per-scale advance probabilities must equal a direct
    # exact-arithmetic recursion on the capped search itself.
    oracle = exact_rtbs_success(
        Fraction(params.mu),
        Fraction(params.e_minus),
        Fraction(params.e_plus),
        Fraction(params.f),
        m,
        n,
    )
    assert rho_rtbs(params, m, n) == pytest.approx(float(oracle), rel=1e-10, abs=1e-14)


def test_width_one_collapses_to_single_try_chain(ref_params):
    # With one attempt per node, only a run of first-try accepted advances
    # survives, so the curve is beta**n.
    beta = ref_params.beta
    for n in (1, 4, 9):
        assert rho_rtbs(ref_params, 1, n) == pytest.approx(beta**n, rel=1e-12)


@given(param_tuple(), st.integers(min_value=1, max_value=8))
def test_recursion_values_are_probabilities_and_monotone(params, m):
    table = rtbs_table(params, m, 12)
    # Constant rates are the one-entry table: delta has a single column.
    assert table.delta.shape == (13, 1)
    delta = table.delta[:, 0]
    for values in (delta, table.epsilon, table.sigma):
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
    # Deeper subtrees only get harder, so both failure rates grow with scale.
    for t in range(1, 12):
        assert delta[t + 1] >= delta[t] - 1e-12
        assert table.epsilon[t + 1] >= table.epsilon[t] - 1e-12


def test_large_width_approaches_retry_in_place(ref_params):
    assert rho_rtbs(ref_params, 4096, 10) == pytest.approx(rho_rmtp(ref_params, 10), rel=1e-6)


def test_log_rho_rtbs_consistent(ref_params):
    assert log_rho_rtbs(ref_params, 4, 8) == pytest.approx(
        math.log(rho_rtbs(ref_params, 4, 8)), rel=1e-12
    )


# --- comparison predicates ---


def test_rmtp_improves_threshold():
    assert rmtp_improves(SimplifiedParams(0.7, 0.3, 0.2, 0.5))
    assert rmtp_improves(SimplifiedParams(0.7, 0.6, 0.4, 0.5))  # exactly one
    assert not rmtp_improves(SimplifiedParams(0.7, 0.7, 0.4, 0.5))


def test_rmtp_improves_exactly_when_the_exact_curve_is_no_lower():
    """On every rate triple of tenths and n = 1..5, retry-in-place's exact
    success is at least the plain chain's mu**n where the predicate says so,
    and equal to it exactly on e- + e+ = 1 or mu in {0, 1}.  Points with
    alpha = 1 accept no proposal, so retry-in-place has no success rate."""
    tenths = [Fraction(i, 10) for i in range(11)]
    checked = 0
    for mu, em, ep in product(tenths, repeat=3):
        if frac_rates(mu, em, ep)[0] == 1:
            continue
        improves = rmtp_improves(SimplifiedParams(float(mu), float(em), float(ep), 0.5))
        for n in range(1, 6):
            exact, plain = frac_rmtp(mu, em, ep, n), mu**n
            assert (exact == plain) == (em + ep == 1 or mu in (0, 1)), (mu, em, ep, n)
            if 0 < mu < 1:
                assert improves == (exact >= plain), (mu, em, ep, n)
            checked += 1
    assert checked == 5 * (11**3 - 31)  # 31 triples have alpha = 1


def test_rtbs_beats_rmtp_predicate(ref_params):
    # alpha = 0.4: needs f > 0.4 and m > 1/0.6.
    assert rtbs_asymptotically_beats_rmtp(ref_params, 2)
    assert rtbs_asymptotically_beats_rmtp(ref_params, 4)
    assert not rtbs_asymptotically_beats_rmtp(ref_params, 1)
    weak_reject = SimplifiedParams(0.8, 0.3, 0.2, 0.3)  # f < alpha
    assert not rtbs_asymptotically_beats_rmtp(weak_reject, 8)


def test_rtbs_beats_rmtp_predicate_at_an_integer_retry_count():
    # alpha = 1/2 exactly, so the mean retry count 1/(1 - alpha) is 2 and a
    # width of exactly 2 does not beat retry-in-place; the curves agree.
    params = SimplifiedParams(0.5, 0.5, 0.5, 0.9)
    assert params.alpha == 0.5
    assert not rtbs_asymptotically_beats_rmtp(params, 2)
    assert rtbs_asymptotically_beats_rmtp(params, 3)
    for n in (10, 100, 1000):
        assert 0.0 < rho_rtbs(params, 2, n) <= rho_rmtp(params, n)
        assert rho_rtbs(params, 3, n) > rho_rmtp(params, n)


def test_rtbs_beats_rmtp_predicate_is_false_at_every_tie():
    # At f = alpha backtracking never overtakes; in floats alpha can round
    # below f, as at (0.1, 0.1, 0.9, 0.1), where alpha is 0.09999999999999998.
    tenths = [Fraction(i, 10) for i in range(10)]
    ties = 0
    for mu, f in product(tenths[1:], repeat=2):
        for em, ep in product(tenths, repeat=2):
            if frac_rates(mu, em, ep)[0] != f:
                continue
            params = SimplifiedParams(float(mu), float(em), float(ep), float(f))
            for m in (1, 2, 3, 4, 6):
                assert not rtbs_asymptotically_beats_rmtp(params, m), (params, m)
            ties += 1
    assert ties > 100
    tie = SimplifiedParams(0.1, 0.1, 0.9, 0.1)
    assert tie.alpha < tie.f
    for n in (10, 100):
        assert rho_rtbs(tie, 2, n) < rho_rmtp(tie, n)


def test_rtbs_beats_rmtp_predicate_needs_both_advance_and_derail():
    # gamma = 0 (e+ = 0 or mu = 1): retry never derails, so rho_rmtp = 1 at
    # every n and no capped width catches it.  beta = 0: both curves are 0.
    tenths = [i / 10 for i in range(10)]
    for mu, f in product(tenths[1:], repeat=2):
        for em, m in product(tenths, (1, 2, 3, 4, 6)):
            params = SimplifiedParams(mu, em, 0.0, f)
            assert not rtbs_asymptotically_beats_rmtp(params, m), (params, m)
    for rates, m in [
        ((0.3, 0.2, 0.0, 0.8), 6),
        ((1.0, 0.3, 0.2, 0.8), 4),
        ((0.5, 1.0, 0.5, 0.9), 6),
        ((0.0, 0.3, 0.5, 0.9), 4),
    ]:
        params = SimplifiedParams(*rates)
        assert not rtbs_asymptotically_beats_rmtp(params, m), rates
        for n in (10, 200):
            assert rho_rtbs(params, m, n) <= rho_rmtp(params, n)
    assert rho_rmtp(SimplifiedParams(0.3, 0.2, 0.0, 0.8), 200) == 1.0


def test_rtbs_beats_rmtp_predicate_matches_the_limit_sign():
    # Every tenths-grid pair within 0.01 of f = alpha or of m (1 - alpha) = 1,
    # so every tie and every width-boundary pair, against the sign of
    # sigma* - beta / (beta + gamma) at 50 digits.
    tenths = [Fraction(i, 10) for i in range(10)]
    checked = beats = 0
    for mu, f in product(tenths[1:], repeat=2):
        for em, ep in product(tenths, repeat=2):
            alpha = frac_rates(mu, em, ep)[0]
            params = SimplifiedParams(float(mu), float(em), float(ep), float(f))
            for m in (1, 2, 3, 4, 6):
                if abs(f - alpha) > Fraction(1, 100) and abs(m * (1 - alpha) - 1) > Fraction(1, 100):
                    continue
                want = limit_rtbs_beats_rmtp(mu, em, ep, f, m)
                assert rtbs_asymptotically_beats_rmtp(params, m) == want, (params, m)
                checked += 1
                beats += want
    assert (checked, beats) == (1574, 112)


def test_no_width_overtakes_retry_at_scale_one():
    # At n = 1 an accepted step ends the episode, so backtracking is retry
    # capped at m attempts: beta (1 + alpha + ... + alpha^(m-1)), below
    # retry's beta / (1 - alpha) whenever alpha and beta are positive.  f
    # does not enter, so the (mu, e-, e+) grid covers every f.
    tenths = [Fraction(repr(i / 10)) for i in range(1, 10)]
    for mu, em, ep in product(tenths, repeat=3):
        alpha, beta, _ = frac_rates(mu, em, ep)
        for m in (1, 2, 4, 16, 64):
            assert beta * (1 - alpha**m) / (1 - alpha) < frac_rmtp(mu, em, ep, 1)
    # The capped retry is the search's own success at n = 1, whatever f is.
    alpha, beta, _ = frac_rates(*REF_FRAC[:3])
    for m, f in product((1, 2, 4), (Fraction(1, 10), REF_FRAC[3])):
        capped = beta * (1 - alpha**m) / (1 - alpha)
        assert exact_rtbs_success(*REF_FRAC[:3], f, m, 1) == capped


def test_crossover_scan_never_reports_scale_one():
    # In floats the width-64 curve can edge past retry at n = 1 (by 1.1e-16
    # at (0.9, 0.1, 0.5, 0.5)); the exact inequality above says it cannot.
    tenths = [i / 10 for i in range(1, 10)]
    for rates in product(tenths, repeat=4):
        assert crossover_scan(SimplifiedParams(*rates), 64, 2) != 1, rates
    assert crossover_scan(SimplifiedParams(0.9, 0.1, 0.5, 0.5), 64, 2) == 2


def test_predicate_agrees_with_deep_curves(ref_params):
    # The asymptotic claim should be visible in the curves themselves.
    n = 300
    assert log_rho_rtbs(ref_params, 4, n) > log_rho_rmtp(ref_params, n)
    assert log_rho_rtbs(ref_params, 1, n) < log_rho_rmtp(ref_params, n)


# --- solution length, stability band, fixed point ---


def test_expected_solution_length_reference(ref_params):
    assert expected_solution_length(ref_params, 20) == pytest.approx(100.0 / 3.0, rel=1e-12)


def test_expected_solution_length_rejects_stuck_chain():
    with pytest.raises(ValueError):
        expected_solution_length(SimplifiedParams(1.0, 1.0, 0.0, 0.5), 5)


def test_stability_band_reference(ref_params):
    lo, hi = sigma_stability_band(ref_params)
    assert lo == pytest.approx(25.0 / 14.0, rel=1e-14)
    assert hi == pytest.approx(5.0, rel=1e-14)


def test_stability_band_unbounded_when_rejection_certain():
    lo, hi = sigma_stability_band(SimplifiedParams(0.9, 0.1, 0.1, 1.0))
    assert math.isinf(hi) and lo > 0


def test_stability_band_error_cases():
    with pytest.raises(ValueError):
        sigma_stability_band(SimplifiedParams(0.0, 0.3, 0.2, 0.8))  # beta = 0
    with pytest.raises(ValueError):
        sigma_stability_band(SimplifiedParams(0.9, 0.9, 0.2, 0.1))  # empty band


def test_stability_band_widths_converge_and_others_do_not(ref_params):
    # Strictly inside the band sigma reaches one geometrically fast; at
    # width one it stays at beta forever.
    for m in (2, 3, 4):
        table = rtbs_table(ref_params, m, 500)
        assert abs(table.sigma[500] - 1.0) < 1e-6
    table = rtbs_table(ref_params, 1, 500)
    assert table.sigma[500] == pytest.approx(0.56, abs=1e-12)


def test_band_edge_width_converges_only_algebraically(ref_params):
    # At these parameters width 5 sits exactly on the band's upper edge
    # (f equals (m-1)/m), where the derailed-state recursion has a tangent
    # fixed point at one.  sigma still converges to one, but like c/n with
    # c around 0.18, so the gap at n = 500 is a few 1e-4, not 1e-6.  Pinned
    # here so the behavior is a documented fact rather than a surprise.
    table = rtbs_table(ref_params, 5, 1000)
    gap_500 = 1.0 - table.sigma[500]
    gap_1000 = 1.0 - table.sigma[1000]
    assert 3.0e-4 < gap_500 < 4.5e-4
    assert gap_1000 < gap_500  # still converging
    assert gap_500 / gap_1000 == pytest.approx(2.0, rel=0.15)  # ~ c/n decay


def test_epsilon_fixed_point_reference_values():
    # f = 1/2, m = 4: smallest root of x**3 + x**2 + x - 1 after removing x = 1.
    assert epsilon_fixed_point(0.5, 4) == pytest.approx(0.5436890126920764, abs=1e-10)
    assert epsilon_fixed_point(0.0, 3) == 0.0
    assert epsilon_fixed_point(0.5, 1) == 1.0
    assert epsilon_fixed_point(0.75, 4) == 1.0  # at the threshold (m-1)/m
    assert epsilon_fixed_point(0.9, 4) == 1.0


@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=2, max_value=12))
def test_epsilon_fixed_point_is_a_root(f, m):
    x = epsilon_fixed_point(f, m)
    assert 0.0 <= x <= 1.0
    assert abs(f + (1 - f) * x**m - x) < 1e-10


@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=2, max_value=12))
def test_epsilon_recursion_converges_to_fixed_point(f, m):
    x = epsilon_fixed_point(f, m)
    e = 0.0
    for _ in range(4000):
        e = f + (1 - f) * e**m
    assert e <= x + 1e-6


# --- attempt-indexed rates ---


def test_the_per_attempt_names_are_the_curves_themselves():
    assert theory.posterior_rho_rmtp is theory.rho_rmtp
    assert theory.posterior_rtbs_table is theory.rtbs_table


@given(param_tuple(), st.integers(min_value=0, max_value=12), st.integers(1, 5))
def test_every_curve_prices_constant_rates_as_their_one_entry_table(params, n, m):
    table = rate_table(params)
    assert table == PosteriorParams.constant(params) and rate_table(table) is table
    assert rho_nonreflective(table, n) == rho_nonreflective(params, n) == params.mu**n
    assert rho_rmtp(table, n) == rho_rmtp(params, n)
    assert log_rho_rmtp(table, n) == log_rho_rmtp(params, n)
    assert rho_rtbs(table, m, n) == rho_rtbs(params, m, n)
    assert log_rho_rtbs(table, m, n) == log_rho_rtbs(params, m, n)
    # The curve is the product of the advance factors, in scale order.
    rtbs = rtbs_table(table, m, n)
    assert all(rtbs.rho[t] == math.prod(rtbs.sigma[1 : t + 1]) for t in range(n + 1))


def test_the_log_curves_of_a_table_are_the_logs_of_its_curves():
    table = PosteriorParams(
        mu=(0.9, 0.6, 0.4), e_minus=(0.1, 0.1, 0.2), e_plus=(0.05, 0.1, 0.1), f=0.7
    )
    for n in (1, 6):
        assert rho_nonreflective(table, n) == 0.9**n
        assert log_rho_rmtp(table, n) == pytest.approx(math.log(rho_rmtp(table, n)), rel=1e-12)
        for m in (1, 2, 4):
            assert log_rho_rtbs(table, m, n) == pytest.approx(
                math.log(rho_rtbs(table, m, n)), rel=1e-12
            )


@pytest.mark.parametrize(
    "mu, e_minus, e_plus",
    [
        ((0.9, 0.7, 0.5), (0.1, 0.1, 0.1), (0.05, 0.05, 0.05)),  # decaying
        ((0.8,), (0.3,), (0.2,)),  # one entry
        ((0.9, 1e-7), (0.1, 0.0), (0.0, 0.0)),  # tail alpha = 1 - 1e-7
    ],
)
def test_posterior_rmtp_sums_the_retry_series_exactly(mu, e_minus, e_plus):
    pparams = PosteriorParams(mu=mu, e_minus=e_minus, e_plus=e_plus, f=0.5)
    exact = [[Fraction(v) for v in seq] for seq in (mu, e_minus, e_plus)]
    for n in (1, 7):
        oracle = frac_posterior_rmtp(*exact, n)
        assert rho_rmtp(pparams, n) == pytest.approx(float(oracle), rel=1e-12)


@pytest.mark.parametrize(
    "mu, e_minus, e_plus",
    [
        ((0.8,), (0.3,), (0.2,)),  # one entry
        ((0.9, 0.6), (0.1, 0.2), (0.05, 0.1)),
        ((0.9, 0.7, 0.5), (0.1, 0.2, 0.3), (0.05, 0.1, 0.2)),
    ],
    ids=["L1", "L2", "L3"],
)
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_posterior_rtbs_matches_exact_search_semantics(mu, e_minus, e_plus, m):
    # m = 1 and 2 cut a longer table short; m = 5 runs past every table, so
    # its last m - L + 1 attempts share the final entry.
    pparams = PosteriorParams(mu=mu, e_minus=e_minus, e_plus=e_plus, f=0.6)
    exact = [[Fraction(v) for v in seq] for seq in (mu, e_minus, e_plus)]
    rho = rtbs_table(pparams, m, 5).rho
    for n in range(6):
        oracle = exact_posterior_rtbs_success(*exact, Fraction(0.6), m, n)
        assert rho[n] == pytest.approx(float(oracle), rel=1e-12)


def test_posterior_tail_extension():
    # Attempts past the table reuse its last entry, so spelling the tail
    # out entry by entry prices the same curves.
    p = PosteriorParams(mu=(0.9, 0.5), e_minus=(0.1, 0.1), e_plus=(0.05, 0.05), f=0.7)
    spelled = PosteriorParams(
        mu=(0.9,) + (0.5,) * 4, e_minus=(0.1,) * 5, e_plus=(0.05,) * 5, f=0.7
    )
    for n in (1, 6):
        assert rho_rmtp(p, n) == pytest.approx(rho_rmtp(spelled, n), rel=1e-12)
        assert rho_rtbs(p, 5, n) == pytest.approx(rho_rtbs(spelled, 5, n), rel=1e-12)


def test_posterior_rejects_rates_that_improve_with_attempts():
    with pytest.raises(ValueError):
        PosteriorParams(mu=(0.4, 0.9), e_minus=(0.1, 0.1), e_plus=(0.1, 0.1), f=0.5)


def test_posterior_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        PosteriorParams(mu=(0.5, 0.4), e_minus=(0.1,), e_plus=(0.1, 0.1), f=0.5)


def test_posterior_sufficient_condition_cases():
    decaying = PosteriorParams(
        mu=(0.8, 0.4), e_minus=(0.05, 0.05), e_plus=(0.02, 0.02), f=0.7
    )
    # k = 0.5, so 0.05 / (0.5 * 0.2) + 0.02 = 0.52 < 1.
    assert posterior_sufficient_condition(decaying)
    noisy = PosteriorParams(mu=(0.8,), e_minus=(0.3,), e_plus=(0.2,), f=0.8)
    # 0.3 / 0.2 + 0.2 = 1.7.
    assert not posterior_sufficient_condition(noisy)


def test_posterior_sufficient_condition_is_sufficient_on_every_small_table():
    """Every admissible table with mu_1 < 1, one or two entries on quarters
    or three on halves, that passes the condition has an exact advance rate
    (retry-in-place success at n = 1) of at least mu_1."""
    quarters = [Fraction(i, 4) for i in range(5)]
    halves = [Fraction(i, 2) for i in range(3)]
    tables = passed = 0
    for length, grid in ((1, quarters), (2, quarters), (3, halves)):
        for entries in product(product(grid, repeat=3), repeat=length):
            mu, em, ep = zip(*entries)
            if mu[0] == 1:
                continue
            try:
                pparams = PosteriorParams(
                    tuple(map(float, mu)), tuple(map(float, em)), tuple(map(float, ep)), 0.5
                )
            except ValueError:  # advance rates rise or derail rates fall
                continue
            tables += 1
            if posterior_sufficient_condition(pparams):
                passed += 1
                assert frac_posterior_rmtp(mu, em, ep, 1) >= mu[0], entries
    assert (tables, passed) == (5665, 655)


# --- CSV rendering ---


def test_curve_table_layout(ref_params):
    text = curve_table(ref_params, (1, 4), 3)
    lines = text.strip().split("\n")
    assert lines[0] == "n,rho,rho_rmtp,rho_rtbs_m1,rho_rtbs_m4"
    assert len(lines) == 5  # header plus n = 0..3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(float(v) == 1.0 for v in first[1:])
    row3 = lines[4].split(",")
    assert float(row3[4]) == pytest.approx(rho_rtbs(ref_params, 4, 3), rel=1e-15)
    # repr round-trip keeps full precision
    assert float(row3[2]) == rho_rmtp(ref_params, 3)
