import math

import pytest
from hypothesis import given, strategies as st

from msgate import cli, magnus, resint
from msgate.params import MAX_ORDER, RULES, GateParams, beat_note, validate
from msgate.pulses import rectangular, sin_squared

FLAT = rectangular()


def rules(params, pulse=FLAT):
    """The rules validate reports for ``params`` under ``pulse``, in report order."""
    return [v.rule for v in validate(params, pulse)]


def test_baseline_parameters_are_valid(base_params):
    assert validate(base_params, FLAT) == ()


def test_k_equals_2l_rejected():
    assert "K=2L" in rules(GateParams(eta=0.18, K=28, L=14))


@pytest.mark.parametrize("K", [4, 10, 28, 50])
def test_k_equals_2l_rejected_for_any_k(K):
    assert "K=2L" in rules(GateParams(eta=0.18, K=K, L=K // 2))


def test_generalized_exclusion_small_k():
    # 1*K = 2*L fires at (j=1, l=2) for K=2, L=1
    hits = [v for v in validate(GateParams(eta=0.18, K=2, L=1, k_max=2, m_max=3), FLAT) if v.rule == "jK=lL"]
    assert any(v.detail == "j=1, l=2" for v in hits)


def test_ordering_rule():
    assert "K>L>=1" in rules(GateParams(eta=0.18, K=5, L=7))
    assert "K>L>=1" in rules(GateParams(eta=0.18, K=5, L=0))


def test_field_range_rules():
    assert "eta range" in rules(GateParams(eta=1.5, K=28, L=25))
    assert "eta range" in rules(GateParams(eta=0.0, K=28, L=25))
    assert "n_dim guard" in rules(GateParams(eta=0.2, K=28, L=25, n_dim=4, m_max=3))
    assert "k_max range" in rules(GateParams(eta=0.2, K=28, L=25, k_max=6))


def test_nan_gate_fields_rejected():
    assert "nbar sign" in rules(GateParams(eta=0.2, K=28, L=25, nbar=math.nan))
    assert "omega_T sign" in rules(GateParams(eta=0.2, K=28, L=25, omega_T=math.nan))


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_gate_fields_rejected(value):
    assert "nbar sign" in rules(GateParams(eta=0.2, K=28, L=25, nbar=value))
    assert "omega_T sign" in rules(GateParams(eta=0.2, K=28, L=25, omega_T=value))
    assert "eta range" in rules(GateParams(eta=value, K=28, L=25))


def test_rules_lists_every_reported_rule():
    bad = [GateParams(eta=0.2, K=28.5, L=25), GateParams(eta=0.2, K=5, L=7),
           GateParams(eta=1.5, K=28, L=14, n_dim=1, k_max=6, m_max=0, omega_T=-1, nbar=-1),
           GateParams(eta=0.2, K=2, L=1, k_max=2)]
    seen = {rule for p in bad for rule in rules(p)}
    seen |= set(rules(GateParams(eta=0.18, K=26, L=25), sin_squared()))
    assert seen == set(RULES)


def test_beat_note_examples(base_params):
    assert beat_note(0, 1, -1, base_params) == 3
    assert beat_note(0, 0, 1, base_params) == 25
    assert beat_note(-1, -1, 1, base_params) == -4


def test_beat_note_rejects_bad_mu(base_params):
    with pytest.raises(ValueError):
        beat_note(0, 1, 2, base_params)


@given(M=st.integers(-5, 5), m=st.integers(-4, 4), mu=st.sampled_from([-1, 1]),
       K=st.integers(2, 60), L=st.integers(1, 59))
def test_beat_note_pair_antisymmetry(M, m, mu, K, L):
    p = GateParams(eta=0.1, K=K, L=L)
    assert beat_note(M, m, mu, p) + beat_note(-M, -m, -mu, p) == 0


def test_pulse_aware_validation_flags_zero_beat_note():
    # K - L = 1 with a first-harmonic pulse puts M=-1, m=1, mu=-1 on resonance
    p = GateParams(eta=0.18, K=26, L=25)
    assert validate(p, FLAT) == ()
    assert "N=0" in rules(p, sin_squared())


def test_generalized_exclusion_matches_the_pair_loop():
    # the direct j = l L / K against the j, l double loop it replaced, with every other
    # rule in place: the same details in the same order, L = 0, K = 0 and negative
    # values included; K = L = 0 matches every pair
    for k_max in range(2, 6):
        for m_max in range(-1, 5):
            for K in range(-4, 31):
                for L in range(-4, 31):
                    violations = validate(GateParams(eta=0.18, K=K, L=L, k_max=k_max, m_max=m_max), FLAT)
                    pairs = [f"j={j}, l={l}" for j in range(1, k_max * m_max + 1)
                             for l in range(1, k_max + 1) if j * K == l * L]
                    assert [v.detail for v in violations if v.rule == "jK=lL"] == pairs, (K, L, k_max, m_max)
                    order = [RULES.index(v.rule) for v in violations]
                    assert order == sorted(order)


@pytest.mark.parametrize("K, L", [(28, 25), (28, 0), (5, 0), (28, 14), (10, 5), (25, 25), (7, 7),
                                  (25, 20), (28, 21), (20, 25), (3, 6), (2, 1)])
@pytest.mark.parametrize("k_max, m_max", [(2, 1), (4, 3), (5, 3)])
def test_custom_flat_pulse_is_the_flat_pulse(K, L, k_max, m_max):
    # a custom 0:1:0 pulse has the flat pulse's only harmonic, M = 0: there m K +- L = 0
    # needs |m| K = L; the grid holds L = 0, K = 2L, K = L, L > K and jK = lL points
    p = GateParams(eta=0.18, K=K, L=L, k_max=k_max, m_max=m_max)
    custom = cli.CONFIG_KEYS["pulse_coeffs"]("0:1:0")
    assert validate(p, custom) == validate(p, FLAT)
    assert ("N=0" in rules(p, custom)) == any(m * K == L for m in range(m_max + 1))


def test_every_order_bound_is_max_order(base_params):
    # the Dyson terms, the Magnus orders, the resonance integral and the validated order
    # stop at MAX_ORDER alike, and the propagator names stay inside it
    top = MAX_ORDER + 1
    with pytest.raises(ValueError, match=rf"^order k={top} outside \[1, {MAX_ORDER}\]$"):
        magnus.dyson_term(top, base_params, FLAT)
    with pytest.raises(ValueError, match=rf"^up_to={top} outside \[2, {MAX_ORDER}\]$"):
        magnus.magnus_terms(base_params, FLAT, top)
    with pytest.raises(ValueError, match=rf"^orders above {MAX_ORDER} are out of scope$"):
        resint.resonance_integral([1] * top)
    assert [(v.rule, v.detail) for v in validate(base_params.replace(k_max=top), FLAT)] == [
        ("k_max range", f"k_max={top} not in [2, {MAX_ORDER}]")]
    assert "k_max range" not in rules(base_params.replace(k_max=MAX_ORDER))
    assert resint.resonance_integral([1] * MAX_ORDER) is not None
    names = [name for name in cli.PROPAGATOR_NAMES if name != "Unum"]
    assert names and all(2 <= int(name[1:]) <= MAX_ORDER for name in names)
