import pytest

from eoflex.errors import (
    CommonRowsExceedArray,
    DivisorConditionViolated,
    KTooSmall,
    NonPositiveTau,
    PNotOdd,
)
from eoflex.params import Regime, validate_params


def test_table_example_instance():
    prm = validate_params(2, 5, 3)
    assert prm.t == 2
    assert prm.regime is Regime.TAU_GE
    assert prm.n_c == 4
    assert prm.rows == 8
    assert prm.ring == 10


def test_divisor_condition_violated_reports_divisor():
    with pytest.raises(DivisorConditionViolated) as exc:
        validate_params(1, 9, 4)
    assert exc.value.divisor == 3


def test_p_nine_admitted_for_small_k():
    # divisors of 9 are {3, 9}, both > k-1 = 2
    prm = validate_params(3, 9, 3)
    assert prm.t == 2
    assert prm.regime is Regime.TAU_GE
    assert prm.n_c == 4
    assert prm.rows == 24


def test_nonpositive_tau():
    with pytest.raises(NonPositiveTau):
        validate_params(0, 5, 3)


def test_k_too_small():
    with pytest.raises(KTooSmall):
        validate_params(1, 5, 1)


@pytest.mark.parametrize("p", [4, 2, 0, -3, 1])
def test_p_not_odd_or_too_small(p):
    with pytest.raises(PNotOdd):
        validate_params(1, p, 3)


def test_p_itself_must_exceed_k_minus_1():
    with pytest.raises(DivisorConditionViolated) as exc:
        validate_params(1, 3, 5)
    assert exc.value.divisor == 3


def test_fifteen_rejected_for_k4():
    with pytest.raises(DivisorConditionViolated) as exc:
        validate_params(1, 15, 4)
    assert exc.value.divisor == 3


@pytest.mark.parametrize(
    "triple,expected",
    [((2, 5, 3), 4), ((1, 5, 3), 2), ((4, 5, 3), 4)],
)
def test_common_row_threshold(triple, expected):
    assert validate_params(*triple).n_c == expected


@pytest.mark.parametrize("p,k", [(5, 3), (7, 4), (7, 5), (9, 3), (11, 7), (3, 2)])
def test_tau1_reduction_threshold(p, k):
    prm = validate_params(1, p, k)
    assert prm.t == 1
    assert prm.n_c == 2 * (k // 2)


def test_threshold_divisible_by_t_and_fits():
    count = 0
    for p in (3, 5, 7, 9, 11, 13):
        for k in range(2, p + 1):
            for tau in range(1, 7):
                try:
                    prm = validate_params(tau, p, k)
                except (DivisorConditionViolated, CommonRowsExceedArray):
                    continue
                count += 1
                assert prm.n_c % prm.t == 0
                assert prm.n_c <= prm.rows
                assert prm.t == min(prm.k - 1, prm.tau) >= 1
    assert count > 50


def test_validation_is_total():
    # Every integer triple either validates or raises one ParameterError.
    from eoflex.errors import ParameterError

    for tau in range(-1, 4):
        for p in range(-1, 12):
            for k in range(-1, 8):
                try:
                    prm = validate_params(tau, p, k)
                except ParameterError:
                    continue
                assert prm.rows == tau * (p - 1)
