import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st

from msgate import budget, fidelity, hilbert, magnus, resint
from msgate.params import GateParams, beat_note, validate
from msgate.pulses import PulseShape, rectangular, sin_squared
from oracles import (JX2, JZ2, SIGMA_Z, SKEW, csc_map, fock_offdiagonal_max, form_factor, full_space_transfer,
                     guard_band_indices, guard_block, is_resonant, sparse_drive_step, unitarity_defect)

XX, YY = JX2 - np.eye(4) / 2, hilbert.JY2 - np.eye(4) / 2  # sigma_a (x) sigma_a / 2


def test_first_order_vanishes(base_params, rect):
    Z1 = 1j * magnus.dyson_term(1, base_params.replace(omega_T=29.93), rect)
    assert np.abs(Z1).max() < 1e-14


def test_first_order_vanishes_sin2(base_params, sin2):
    Z1 = 1j * magnus.dyson_term(1, base_params.replace(omega_T=48.44), sin2)
    assert np.abs(Z1).max() < 1e-14


def test_dyson_zero_drive(base_params, rect):
    p = base_params.replace(omega_T=0.0)
    assert np.abs(magnus.dyson_term(3, p, rect)).max() == 0.0


def test_dyson_rejects_bad_order(base_params, rect):
    with pytest.raises(ValueError):
        magnus.dyson_term(0, base_params, rect)
    with pytest.raises(ValueError):
        magnus.dyson_term(6, base_params, rect)
    with pytest.raises(ValueError, match="unknown method 'x'"):
        magnus.dyson_term(2, base_params, rect, method="x")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_transfer_matches_tuple_enumeration(base_params, rect, k):
    p = base_params.replace(omega_T=1.0)
    via_transfer = magnus.dyson_term(k, p, rect, method="transfer")
    if k == 3:  # the route holds one chain of k products, not one per tuple prefix
        tracemalloc.start()
    try:
        via_tuples = magnus.dyson_term(k, p, rect, method="tuples")
        peak = tracemalloc.get_traced_memory()[1]  # 0 when not tracing
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    scale = np.abs(via_transfer).max()
    assert np.abs(via_transfer - via_tuples).max() < 1e-12 * scale


def test_z2_gate_coefficient(params_omega2, magnus_terms_omega2):
    # leading order: -omega_T^2 * K * eta^2 / (pi (K^2 - L^2)); the assembled
    # value carries the (1 - eta^2)-type corrections of the full form factor
    p = params_omega2
    got = magnus.level_coeff(magnus_terms_omega2[2], p.n_dim, 0, 0, YY).real
    lead = -p.omega_T ** 2 * p.K * p.eta ** 2 / (np.pi * (p.K ** 2 - p.L ** 2))
    assert 0.9 < got / lead < 1.0
    assert got < 0


def test_z2_matches_laguerre_form_factors(params_omega2, magnus_terms_omega2):
    p = params_omega2
    Z2 = magnus_terms_omega2[2]
    for n in range(p.n_dim - p.m_max):
        dy = form_factor(p, n, "odd")
        dx = form_factor(p, n, "even")
        got_y = magnus.level_coeff(Z2, p.n_dim, n, n, YY).real
        got_x = magnus.level_coeff(Z2, p.n_dim, n, n, XX).real
        assert got_y == pytest.approx(dy, rel=1e-6)
        assert got_x == pytest.approx(dx, rel=1e-6)


def test_level_coeff_matches_the_pauli_trace(params_omega2, magnus_terms_omega2):
    # oracle: the coefficient of J_a^2 = (1 + sigma_a (x) sigma_a)/2 in the composite
    # slice <n|Z|n> is trace((sigma_a (x) sigma_a)^H B) / 2
    p = params_omega2
    for Z in magnus_terms_omega2.values():
        composite = hilbert.embed(Z, p.n_dim, 0.0)
        tol = 8 * np.finfo(float).eps * np.abs(composite).max()
        for sigma, Ja2 in ((hilbert.SIGMA_X, JX2), (hilbert.SIGMA_Y, hilbert.JY2), (SIGMA_Z, JZ2)):
            P = np.kron(sigma, sigma)
            for n in range(p.n_dim):
                want = np.trace(P.conj().T @ composite[n::p.n_dim, n::p.n_dim]) / 2
                assert abs(magnus.level_coeff(Z, p.n_dim, n, n, Ja2 - np.eye(4) / 2) - want) <= tol


def test_form_factor_rejects_beat_note_on_resonance(base_params):
    # at K = 28, L = 25: M + m K + mu L = 3 - 28 + 25 = 0 (and its mirror -3 + 28 - 25)
    pulse = PulseShape.from_dict("wide", {0: 0.5, 3: 0.25, -3: 0.25})
    assert validate(base_params, pulse)
    with pytest.raises(ValueError, match="N=0 at M=3, m=-1, mu=1"):
        form_factor(base_params, 0, "odd", pulse)


def test_z2_fock_diagonal(params_omega2, magnus_terms_omega2):
    off = fock_offdiagonal_max(magnus_terms_omega2[2], params_omega2)
    assert off < 1e-12 * np.abs(hilbert.embed(magnus_terms_omega2[2], params_omega2.n_dim, 0.0)).max()


def test_magnus_terms_hermitian(params_omega2, rect):
    for pulse in (rect, sin_squared(), SKEW):
        for k, Z in magnus.magnus_terms(params_omega2, pulse, up_to=5).items():
            gb = guard_block(hilbert.embed(Z, params_omega2.n_dim, 0.0), params_omega2)
            assert hilbert.hermiticity_defect(gb) < 1e-10, f"Z{k} of {pulse.name}"


def test_z4_vanishes_without_coupling(rect):
    # with eta = 0 the Hamiltonian commutes with itself at all times, so
    # every order beyond the (vanishing) first must cancel
    p = GateParams(eta=0.0, K=28, L=25, omega_T=1.0)
    terms = {k: hilbert.embed(Z, p.n_dim, 0.0) for k, Z in magnus.magnus_terms(p, rect, up_to=4).items()}
    assert np.abs(terms[2]).max() < 1e-14
    assert np.abs(terms[4]).max() < 1e-12


def test_two_photon_selection(base_params):
    # every resonant second-order pair has m1 = -m2 and mu1 = -mu2
    p = base_params
    labels = [(m, mu) for m in range(-p.m_max, p.m_max + 1) for mu in (-1, 1)]
    for (m1, mu1), (m2, mu2) in itertools.product(labels, labels):
        Ns = (beat_note(0, m1, mu1, p), beat_note(0, m2, mu2, p))
        if is_resonant(Ns):
            assert m1 == -m2 and mu1 == -mu2


def test_two_photon_selection_sin2(base_params):
    p = base_params
    labels = [(M, m, mu) for M in (-1, 0, 1)
              for m in range(-p.m_max, p.m_max + 1) for mu in (-1, 1)]
    for (M1, m1, mu1), (M2, m2, mu2) in itertools.product(labels, labels):
        Ns = (beat_note(M1, m1, mu1, p), beat_note(M2, m2, mu2, p))
        if is_resonant(Ns):
            assert M1 == -M2 and m1 == -m2 and mu1 == -mu2


def test_fifth_order_smaller_than_fourth(base_params, rect):
    p = base_params.replace(omega_T=budget.omega_ld(base_params))
    terms = magnus.magnus_terms(p, rect, up_to=5)
    n4, n5 = (np.linalg.norm(guard_block(hilbert.embed(terms[k], p.n_dim, 0.0), p), 2)
              for k in (4, 5))
    assert n5 < n4


def test_leading_error_rows_at_small_eta(rect):
    """At eta -> 0 the per-level Jy^2/Jx^2 coefficients reduce to the budget
    rows.  eta is small enough that the analytic eta^2 residue is ~1e-6; the
    Jx^2 signal is then O(eta^4) ~ 4e-15 absolute, so its tolerance is set
    by the assembly's floating-point floor, not by the expansion."""
    eta = 1e-3
    p = GateParams(eta=eta, K=28, L=25, omega_T=1.0)
    Z2 = magnus.magnus_terms(p, rect, up_to=2)[2]
    for n in (0, 1):
        dy = magnus.level_coeff(Z2, p.n_dim, n, n, YY).real
        dx = magnus.level_coeff(Z2, p.n_dim, n, n, XX).real
        generic = {row.label: row.generic for row in budget.table_rows(p, n)}
        gate, lamb_dicke, sideband = generic["Gate"], generic["Z2_m1"], generic["Z2_m2"]
        assert (dy - gate) / lamb_dicke == pytest.approx(1.0, rel=5e-6)
        assert dx / sideband == pytest.approx(1.0, rel=2e-4)


def test_propagator_zero_drive(base_params, rect):
    U = magnus.propagators_upto(base_params.replace(omega_T=0.0), rect, max_order=4)[4]
    assert np.allclose(hilbert.embed(U, base_params.n_dim, 1.0), np.eye(4 * base_params.n_dim))


def test_propagator_rejects_bad_order(base_params, rect):
    with pytest.raises(ValueError):
        magnus.propagators_upto(base_params, rect, max_order=1)


def test_propagators_unitary(params_omega2, rect):
    props = magnus.propagators_upto(params_omega2, rect, max_order=4)
    idx = guard_band_indices(params_omega2)
    for n, blocks in props.items():
        U = hilbert.embed(blocks, params_omega2.n_dim, 1.0)
        G = (U.conj().T @ U - np.eye(4 * params_omega2.n_dim))[np.ix_(idx, idx)]
        assert np.abs(G).max() < 1e-8, f"U{n}"


def test_block_propagators_match_full_space_exponential(params_omega2, rect):
    # one expm of the composite generator leaves rounding noise (up to 1.2e-17 here) on
    # the 128 entries that no block and no singlet reaches; in block form they are 0
    p = params_omega2
    terms = magnus.magnus_terms(p, rect, up_to=5)
    singlets = np.kron(np.array([[0], [1], [-1], [0]]) / np.sqrt(2), np.eye(p.n_dim))
    rows = [np.abs(Q).sum(axis=1) for Q in hilbert.symmetry_blocks(p.n_dim)]
    reach = sum(np.outer(r, r) for r in rows) + np.abs(singlets) @ np.abs(singlets).T
    assert (reach == 0).sum() == 128
    for n, blocks in magnus.propagators_upto(p, rect, max_order=5).items():
        full = scipy.linalg.expm(-1j * sum(hilbert.embed(terms[k], p.n_dim, 0.0) for k in range(2, n + 1)))
        U = hilbert.embed(blocks, p.n_dim, 1.0)
        assert np.abs(U - full).max() <= 1e-13, f"U{n}"
        assert np.all(U[reach == 0] == 0), f"U{n}"


def test_fifth_order_propagator_changes_little(params_omega2, rect, weights):
    props = magnus.propagators_upto(params_omega2, rect, max_order=5)
    i4 = 1 - fidelity.average_fidelity(props[4], weights)
    i5 = 1 - fidelity.average_fidelity(props[5], weights)
    assert abs(i5 - i4) < 1e-4


def test_dyson_cache_reuse(base_params, rect, monkeypatch):
    magnus._transfer_dyson.cache_clear()
    a = magnus.dyson_hat_terms(base_params, rect, 4)
    b = magnus.dyson_hat_terms(base_params, rect, 4)
    assert a is b
    # one Hamiltonian build per miss and none per hit; omega_T and nbar do not miss
    builds = []
    build = hilbert.hamiltonian_terms
    monkeypatch.setattr(hilbert, "hamiltonian_terms",
                        lambda *args: builds.append(args) or build(*args))
    assert magnus.dyson_hat_terms(base_params.replace(omega_T=30.0, nbar=0.5), rect, 4) is a
    assert builds == []
    # the cache is bounded: as many other assemblies as it holds evict the first
    size = magnus._transfer_dyson.cache_info().maxsize
    for i in range(size):
        magnus.dyson_hat_terms(base_params.replace(eta=0.01 * (i + 1)), rect, 2)
    assert len(builds) == size
    assert magnus._transfer_dyson.cache_info().currsize == size
    again = magnus.dyson_hat_terms(base_params, rect, 4)
    assert again is not a and len(builds) == size + 1
    assert all(np.array_equal(x, y) for X, Y in zip(again, a) for x, y in zip(X, Y))


def test_cached_values_are_read_only(base_params, rect):
    # each cache hands the same arrays to every later caller: a write into one would move
    # every later result read from it
    p = base_params
    cached = {
        "_transfer_dyson": [X for P in magnus.dyson_hat_terms(base_params, rect, 3) for X in P],
        "_plan": [a for order in magnus._plan(p.K, *_taps(p, rect), p.n_dim, p.m_max, 3)
                  for part in order for a in (part if isinstance(part, tuple) else (part,))
                  if isinstance(a, np.ndarray)],
        "_sideband_moves": list(magnus._sideband_moves(base_params.n_dim, base_params.m_max)[1:]),
        "spin constants": [hilbert.JX, hilbert.JY, hilbert.JPLUS, hilbert.JMINUS, hilbert.JY2],
        "block_basis": [a for block in hilbert.block_basis(base_params.n_dim) for a in block],
        "sideband_operators": [hilbert.sideband_operators(base_params.eta, base_params.n_dim, base_params.m_max)],
        "_targets": [a for block in fidelity._targets(base_params.n_dim) for a in block],
    }
    assert isinstance(magnus.dyson_hat_terms(base_params, rect, 3), tuple)
    for name, arrays in cached.items():
        assert arrays, name
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
    Z = magnus.magnus_terms(base_params.replace(omega_T=30.0), rect, 3)
    assert Z[2][0].flags.writeable  # the orders are new arrays, which a caller may write


@pytest.mark.parametrize("up_to", [2, 3, 4, 5])
@pytest.mark.parametrize("pulse", [rectangular(), sin_squared(), SKEW], ids=["rect", "sin2", "skew"])
def test_orders_and_propagators_sum_as_numpy_reductions(base_params, pulse, up_to):
    # Z_k and the running sums of U_n, bit for bit (zero sign bits included), as the
    # np.sum over the list of cross products and the np.cumsum over the stacked orders add them
    p = base_params.replace(omega_T=31.7)
    Z, U = magnus.magnus_terms(p, pulse, up_to), magnus.propagators_upto(p, pulse, up_to)
    for b, p_hat in enumerate(zip(*magnus.dyson_hat_terms(p, pulse, up_to))):
        P = [None] + [(p.omega_T ** (i + 1)) * X for i, X in enumerate(p_hat)]
        want = [1j * (P[k] - 0.5 * np.sum([P[a] @ P[k - a] for a in range(2, k - 1)], axis=0))
                for k in range(2, up_to + 1)]
        assert [Z[k][b].tobytes() for k in Z] == [X.tobytes() for X in want]
        sums = hilbert.matrix_exp(-1j * np.cumsum(np.stack(want), axis=0))
        assert [U[n][b].tobytes() for n in U] == [X.tobytes() for X in sums]


def _taps(p, pulse):
    """The drive taps of ``hilbert.drive_taps`` as the Dyson cache and the plan key them."""
    taps, tap_c = hilbert.drive_taps(p, pulse)
    return tuple(taps.tolist()), tuple(tap_c.tolist())


def test_dyson_cache_is_keyed_by_the_taps(base_params, rect, clear_transfer):
    # a custom 0:1:0 pulse has the flat pulse's taps, so it reads the same entry, and a
    # five-point omega sweep of either misses once
    custom = PulseShape.from_dict("custom", {0: 1.0})
    clear_transfer()
    first = magnus.dyson_hat_terms(base_params, rect, 4)
    assert magnus.dyson_hat_terms(base_params, custom, 4) is first
    for w in np.linspace(20.0, 40.0, 5):
        assert magnus.dyson_hat_terms(base_params.replace(omega_T=w), custom, 4) is first
    info = magnus._transfer_dyson.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 6, 1)
    assert magnus._plan.cache_info().misses == 1


def test_plan_does_not_depend_on_the_first_eta(base_params, sin2, clear_transfer):
    # at eta = 0 every m != 0 operator vanishes; the plan built there must keep their entries
    p = base_params
    key = (p.K, *_taps(p, sin2), p.n_dim, p.m_max, 5)
    clear_transfer()
    magnus._transfer_dyson(0.0, *key)
    reused = magnus._transfer_dyson(0.18, *key)
    clear_transfer()
    cold = magnus._transfer_dyson(0.18, *key)
    for P, Q in zip(reused, cold):
        for x, y in zip(P, Q):
            assert np.abs(x - y).max() <= 1e-15 * np.abs(y).max()


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def test_second_eta_builds_no_plan(base_params, sin2, monkeypatch, clear_transfer):
    clear_transfer()
    magnus.dyson_hat_terms(base_params, sin2, 5)
    calls = []
    _count_calls(monkeypatch, magnus, "_antiderivative", calls)
    _count_calls(monkeypatch, hilbert, "hamiltonian_terms", calls)
    for eta in (0.1, 0.2, 0.1):  # two misses and one hit of the Dyson cache
        magnus.dyson_hat_terms(base_params.replace(eta=eta), sin2, 5)
    assert calls == ["hamiltonian_terms"] * 2


def test_orders_3_then_4_match_a_cold_order_4_plan(base_params, rect, clear_transfer):
    # dyson_term(3) then dyson_term(4) at one K, as the cross-check asks for them, give the
    # terms of a plan built cold at order 4
    p = base_params.replace(omega_T=1.0)
    clear_transfer()
    low, high = magnus.dyson_term(3, p, rect), magnus.dyson_term(4, p, rect)
    clear_transfer()
    assert np.array_equal(magnus.dyson_term(4, p, rect), high)
    assert np.abs(magnus.dyson_term(3, p, rect) - low).max() <= 1e-15 * np.abs(low).max()


@pytest.mark.parametrize("up_to", range(2, 6))
@pytest.mark.parametrize("pulse", [rectangular(), sin_squared(), SKEW], ids=["rect", "sin2", "skew"])
def test_top_order_is_minimal(base_params, pulse, up_to):
    # int_0^1 e^{i 2 pi nu tau} dtau = 0 at every integer nu != 0: the top order keeps only
    # its pairs of nonzero weight, and the order below builds only the entries they read
    p = base_params
    plan = magnus._plan(p.K, *_taps(p, pulse), p.n_dim, p.m_max, up_to)
    (_, cols, _, _), weights = plan[-1]
    n_in = plan[-2][-1][-1]  # the entries that the order below builds
    assert np.all(weights != 0)
    assert np.all(np.diff(cols) >= 0) and np.all(np.bincount(cols, minlength=n_in) > 0)


@pytest.mark.parametrize("pulse,up_to", [(sin_squared(), 5), (rectangular(), 4)], ids=["sin2-5", "rect-4"])
def test_every_plan_entry_reaches_a_read_weight(base_params, pulse, up_to):
    # the keep rule as an invariant: walking down from the top order, every input entry is
    # read by some kept pair, and every entry of y by R or by S onto a kept entry
    p = base_params
    plan = magnus._plan(p.K, *_taps(p, pulse), p.n_dim, p.m_max, up_to)
    (_, cols, _, _), weights = plan[-1]
    assert np.all(weights != 0)
    reached = np.zeros(plan[-2][2][3], dtype=bool)
    reached[cols] = True
    for order in range(up_to - 1, 0, -1):
        (rows, cols, _, n), (_, r_cols, _, _), (s_rows, s_cols, _, _) = plan[order - 1]
        assert reached.all(), order
        assert np.array_equal(np.unique(s_rows), np.arange(len(reached))), order
        y = np.zeros(n, dtype=bool)
        y[r_cols] = True
        y[s_cols] = True
        assert y.all() and np.array_equal(np.unique(rows), np.arange(n)), order
        if order > 1:
            reached = np.zeros(plan[order - 2][2][3], dtype=bool)
            reached[cols] = True


def test_sin2_order_5_plan_and_one_pass_stay_small(base_params, sin2, clear_transfer):
    # the traced peak of building the plan (3.8 MB held) and one warm pass over it, with the
    # sideband moves and operators warm: 5.75 MB here, where a plan built without the keep
    # rule and with intp dense ranks peaked at 7.6 MB
    p = base_params
    key = (p.K, *_taps(p, sin2), p.n_dim, p.m_max, 5)
    magnus._sideband_moves(p.n_dim, p.m_max)
    hilbert.hamiltonian_terms(p.eta, p.n_dim, p.m_max)
    clear_transfer()
    tracemalloc.start()
    try:
        magnus._transfer_dyson(p.eta, *key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.2e6


def test_first_order_is_an_empty_top_order(base_params):
    p = base_params.replace(omega_T=29.93)
    for pulse in (rectangular(), sin_squared(), SKEW):
        (_, _, where, _), _ = magnus._plan(p.K, *_taps(p, pulse), p.n_dim, p.m_max, 1)[-1]
        assert len(where) == 0
        assert not magnus.dyson_term(1, p, pulse).any()


def _rounding_check(pulse):
    """Bit-equal for a pulse with real taps; with complex taps numpy's complex product may
    fuse its multiply-add where the sparse kernel does not, so each sum may move in its
    last bit."""
    if pulse is SKEW:
        return lambda got, want: np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    return np.array_equal


def test_matvec_rounds_the_same_at_every_map_size():
    # a complex product is not bitwise commutative, and numpy computes data * x[cols] as
    # x[cols] * data once the gather reaches 16,384 entries (temporary elision): a fully
    # complex map of 20,000 entries must round as its two halves by row, each below that
    rng = np.random.default_rng(5)
    n, n_cols, size = 400, 300, 20_000
    rows, cols = rng.integers(0, n, size), rng.integers(0, n_cols, size)
    data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
    low = rows < n // 2
    assert max(np.count_nonzero(low), np.count_nonzero(~low)) < 16_384
    halves = [magnus._matvec(x, rows[on] - shift, cols[on], data[on], n // 2)
              for on, shift in ((low, 0), (~low, n // 2))]
    assert np.array_equal(magnus._matvec(x, rows, cols, data, n), np.concatenate(halves))


@pytest.mark.parametrize("K,L", [(28, 25), (31, 20)])
@pytest.mark.parametrize("pulse", [rectangular(), sin_squared(), SKEW], ids=["rect", "sin2", "skew"])
def test_transfer_products_round_as_the_sparse_products(base_params, pulse, K, L):
    # each product of the warm pass adds in entry order, which is the order of the CSC
    # matvec of the same entries; each product is fed the pass's own input, so one
    # product's rounding is checked at a time
    p = base_params.replace(K=K, L=L)
    same = _rounding_check(pulse)
    ops = hilbert.hamiltonian_terms(p.eta, p.n_dim, p.m_max)
    values = np.concatenate([X.ravel() for X in ops])
    for up_to in range(1, 6):
        x = np.ones(sum(X.shape[-1] for X in ops), dtype=complex)
        for order, ((rows, cols, where, n), *maps) in enumerate(magnus._plan(K, *_taps(p, pulse), p.n_dim,
                                                                            p.m_max, up_to), 1):
            data = maps[0] * values[where] if order == up_to else values[where]
            y = magnus._matvec(x, rows, cols, data, n)
            assert same(y, csc_map(rows, cols, data, n, len(x)) @ x), (up_to, order)
            if order < up_to:
                for M in maps:
                    assert same(magnus._matvec(y, *M), csc_map(*M, len(y)) @ y), (up_to, order)
                x = magnus._matvec(y, *maps[1])


@pytest.mark.parametrize("K,L", [(28, 25), (31, 20)])
@pytest.mark.parametrize("pulse", [rectangular(), sin_squared(), SKEW], ids=["rect", "sin2", "skew"])
def test_drive_step_rounds_as_the_sparse_product(base_params, pulse, K, L):
    # the cold plan: parts in the canonical CSC order, its column sums as the CSC sum and
    # the drive step as the CSR product, its exact-zero sums dropped, over the four drive
    # steps of an order-5 plan
    p = base_params.replace(K=K, L=L)
    taps, tap_c = hilbert.drive_taps(p, pulse)
    by_note = np.argsort(taps, kind="stable")
    taps, tap_c = taps[by_note], tap_c[by_note]
    keys = np.zeros(1, dtype=np.int64)
    for order in range(1, 5):
        _, _, tinv, next_keys, parts, weights = magnus._key_step(keys, K, p.m_max, taps, tap_c)
        ptr, rows, coef = parts
        shape = (len(next_keys), len(ptr) - 1)  # a column per drive key
        cols = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        canonical = scipy.sparse.csc_array((coef[::-1], (rows[::-1], cols[::-1])), shape=shape)
        assert np.array_equal(canonical.indptr, ptr) and np.array_equal(canonical.indices, rows)
        assert np.array_equal(canonical.data, coef)
        assert np.array_equal(weights, tap_c @ canonical.sum(axis=0)[tinv])
        got = magnus._drive_step(parts, tinv, tap_c, len(next_keys))
        for a, b in zip(got, sparse_drive_step(parts, tinv, tap_c, len(next_keys))):
            assert np.array_equal(a, b), order
        assert np.all(got[2] != 0)
        keys = next_keys


@pytest.mark.parametrize("n_dim", range(2, 15))
def test_sideband_terms_are_partial_permutations_in_the_blocks(n_dim):
    # A_m raises the Fock level by exactly m, so in the blocks each J_m (x) A_m has at most
    # one nonzero per row and per column: a plan entry has at most one pair per sideband
    top = min(5, n_dim)
    for m, A in zip(range(-top, top + 1), hilbert.sideband_operators(0.3, n_dim, top)):
        for X in hilbert.to_blocks(hilbert.collective_spin(m), A):
            assert (X != 0).sum(axis=0).max(initial=0) <= 1 and (X != 0).sum(axis=1).max(initial=0) <= 1, m
    for m_max in range(min(5, n_dim) + 1):
        size, move_ptr, _, move_m, _, _ = magnus._sideband_moves(n_dim, m_max)
        for q in range(size):
            moves = move_m[move_ptr[q]:move_ptr[q + 1]]
            assert len(set(moves)) == len(moves), (m_max, q)


def test_antiderivative_map_matches_the_exact_engine():
    # column i of the map is the antiderivative from 0 of the unit term tau^p e^{i 2 pi nu tau}
    # of key i, which the exact engine gives as rationals over (i pi)^g
    rng = np.random.default_rng(11)
    keys = np.union1d(rng.integers(-60, 61, 300) * magnus._POWERS + rng.integers(0, 6, 300), np.arange(6))
    new_keys, (ptr, rows, coef) = magnus._antiderivative(keys)
    cols = np.repeat(np.arange(len(keys)), np.diff(ptr))
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)  # no column holds a key twice
    got = np.zeros((len(new_keys), len(keys)), dtype=complex)
    got[rows, cols] = coef
    for i, key in enumerate(keys):
        nu, p = divmod(int(key), magnus._POWERS)
        want = {}
        unit_term = resint.OscSum({(p, nu, 0): 1})
        for (power, freq, g), r in resint.integrate_product([(unit_term, [(0, 1)])], [0])[0].terms.items():
            k = freq * magnus._POWERS + power
            want[k] = want.get(k, 0) + complex(resint.OscSum({(0, 0, g): r.numerator}, r.denominator))
        assert set(new_keys[got[:, i] != 0]) == set(want), key
        rows = np.searchsorted(new_keys, list(want))
        exact = np.array(list(want.values()))
        assert np.abs(got[rows, i] - exact).max() <= 1e-14 * np.abs(exact).max(), key


@pytest.mark.parametrize("shape", ["rect", "sin2", "skew"])
@pytest.mark.parametrize("eta,K,L,n_dim,m_max", [
    (0.05, 28, 25, 8, 3), (0.3, 28, 25, 7, 3),   # narrow gap K - L = 3
    (0.05, 31, 20, 6, 2), (0.3, 31, 20, 7, 2),   # wide gap K - L = 11
    (0.18, 29, 22, 5, 3),                        # odd n_dim: blocks of 7 and 8
])
def test_blocked_transfer_matches_full_space_reference(shape, eta, K, L, n_dim, m_max):
    pulse = {"rect": rectangular(), "sin2": sin_squared(), "skew": SKEW}[shape]
    p = GateParams(eta=eta, K=K, L=L, n_dim=n_dim, m_max=m_max)
    assert validate(p, pulse) == ()
    got = [hilbert.embed(P, n_dim, 0.0) for P in magnus.dyson_hat_terms(p, pulse, 5)]
    want = full_space_transfer(p, pulse, 5)
    singlets = np.kron(np.array([[0], [1], [-1], [0]]) / np.sqrt(2), np.eye(n_dim))
    for k in range(2, 6):
        scale = np.abs(want[k - 1]).max()
        assert np.abs(got[k - 1] - want[k - 1]).max() <= 1e-13 * scale, f"P{k}"
        assert np.abs(got[k - 1] @ singlets).max() <= 1e-14 * scale, f"P{k}"
        assert np.abs(singlets.T @ got[k - 1]).max() <= 1e-14 * scale, f"P{k}"


@settings(max_examples=5, deadline=None)
@given(eta=st.floats(0.05, 0.3),
       K_gap=st.integers(12, 40).flatmap(lambda K: st.tuples(st.just(K), st.integers(2, K - 2))),
       shape=st.sampled_from(["rect", "sin2", "skew"]))
def test_transfer_matches_tuples_over_gate_points(eta, K_gap, shape):
    # a wide gap K - L makes the tuple sum cancel
    K, gap = K_gap
    pulse = {"rect": rectangular(), "sin2": sin_squared(), "skew": SKEW}[shape]
    p = GateParams(eta=eta, K=K, L=K - gap, omega_T=1.0)
    assume(not validate(p, pulse))
    for k in (2, 3):
        via_transfer = magnus.dyson_term(k, p, pulse, method="transfer")
        via_tuples = magnus.dyson_term(k, p, pulse, method="tuples")
        assert np.abs(via_transfer - via_tuples).max() < 1e-12 * np.abs(via_transfer).max()


@pytest.mark.parametrize("k", [2, 3])
def test_tuple_route_keeps_digits_at_a_wide_gap(k):
    # sin2 at K - L = 33: at order 3 the tuple sum cancels by ~9e6, which a float
    # running sum turned into 1.8e-10 of max|P_3|
    p = GateParams(eta=0.1, K=40, L=7, n_dim=8, m_max=3, omega_T=1.0)
    via_transfer = magnus.dyson_term(k, p, sin_squared(), method="transfer")
    via_tuples = magnus.dyson_term(k, p, sin_squared(), method="tuples")
    assert np.abs(via_transfer - via_tuples).max() < 1e-12 * np.abs(via_transfer).max()


CROSSCHECK_POINT = GateParams(eta=0.18, K=33, L=30, nbar=0.02, n_dim=8, m_max=3, k_max=4)
FIG4A_POINT = GateParams(eta=0.18, K=28, L=25, nbar=0.02, n_dim=8, m_max=3, k_max=4, omega_T=50.0)


@pytest.mark.parametrize("k,shape,p", [
    (5, "rect", CROSSCHECK_POINT.replace(omega_T=budget.omega_2(CROSSCHECK_POINT))),
    (4, "sin2", CROSSCHECK_POINT.replace(omega_T=budget.omega_2(CROSSCHECK_POINT))),
    (5, "rect", FIG4A_POINT),
    (4, "sin2", FIG4A_POINT),
    (4, "skew", GateParams(eta=0.18, K=31, L=20, omega_T=1.0)),
    (5, "sin2", FIG4A_POINT),
    (5, "skew", GateParams(eta=0.18, K=31, L=20, m_max=2, omega_T=1.0)),
], ids=["crosscheck-rect-P5", "crosscheck-sin2-P4", "fig4a-rect-P5", "fig4a-sin2-P4", "skew-P4", "fig4a-sin2-P5",
        "skew-P5"])
def test_sequence_route_reaches_the_high_orders(k, shape, p):
    pulse = {"rect": rectangular(), "sin2": sin_squared(), "skew": SKEW}[shape]
    assert validate(p, pulse) == ()
    via_transfer = magnus.dyson_term(k, p, pulse, method="transfer")
    via_tuples = magnus.dyson_term(k, p, pulse, method="tuples")
    assert np.abs(via_transfer - via_tuples).max() < 1e-12 * np.abs(via_transfer).max()


@settings(max_examples=10, deadline=None)
@given(eta=st.floats(0.05, 0.3), K=st.integers(12, 40), gap=st.integers(2, 6),
       drive=st.floats(0.5, 1.5), shaped=st.booleans())
def test_truncated_propagators_unitary(eta, K, gap, drive, shaped):
    pulse = sin_squared() if shaped else rectangular()
    p = GateParams(eta=eta, K=K, L=K - gap)
    assume(not validate(p, pulse))
    props = magnus.propagators_upto(p.replace(omega_T=drive * budget.omega_2(p)), pulse, 5)
    assert sorted(props) == [2, 3, 4, 5]
    for n, U in props.items():
        assert unitarity_defect(hilbert.embed(U, p.n_dim, 1.0)) <= 1e-12, f"U{n}"
