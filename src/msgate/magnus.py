"""Dyson terms, effective-Hamiltonian orders Z_2..Z_5 and truncated propagators.

The k-th Dyson term is assembled as

    P_k = (-i)^k (Omega*T)^k  sum over label tuples  [prod_j c_{M_j}]
          * I(N_1, ..., N_k) * Op(1) Op(2) ... Op(k),

where Op(j) = J_{m_j} (x) A_{m_j}, N_1 rides the outermost (latest) time and
its operator stands leftmost.  With every first-order beat note a nonzero
integer the first order vanishes and the effective-Hamiltonian orders follow
from the Dyson ones by one rule, Z_k = i(P_k - sum_{a=2}^{k-2} P_a P_{k-a} / 2):
Z_2 = i P_2, Z_3 = i P_3, Z_4 = i(P_4 - P_2^2/2), Z_5 = i(P_5 - (P_2 P_3 + P_3 P_2)/2).

Two assembly routes are provided.  The default ("transfer") performs the
nested integration once with matrix-valued coefficients of the terms
tau^p * e^{i 2 pi nu tau}: one matrix stack per exchange/parity block over
sorted integer keys, moved each order by linear maps.  Its cost grows with the
number of distinct partial beat-note sums instead of the raw tuple count (which
exceeds 1e8 at order 5 for a three-harmonic pulse).  Only the operator values
J_m (x) A_m depend on eta, and in the blocks each is a partial permutation (A_m
raises the Fock level by exactly m), so the stacks are ~10% filled.  The pass
therefore keeps, per (K, drive taps, n_dim, m_max, order), a plan of the
structurally nonzero stack entries and of the maps between them as numpy entry
lists, built in one loop, and each eta costs three products per order: a gather
and one ``np.add.at`` each, which adds in the entry order of a CSC product.
The top order is only read out at tau = 1, where int_0^1 e^{i 2 pi nu tau} dtau
vanishes at every integer nu != 0: the plan keeps its pairs of nonzero weight
and builds only the entries they read (for sin^2 at order 5, 17,586 of 97,500
pairs on 7,248 of 28,976 entries), and each readout only its nonzero weights.
The exact "tuples" route is ``resint.sequence_dyson``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from . import hilbert, resint
from .params import MAX_ORDER, GateParams
from .pulses import PulseShape


# The transfer pass keys tau^p e^{i 2 pi nu tau} as nu * _POWERS + p, p <= MAX_ORDER < _POWERS.
_POWERS = 8


def dyson_hat_terms(params: GateParams, pulse: PulseShape, up_to: int) -> tuple[tuple, ...]:
    """P_k / (Omega*T)^k for k = 1..up_to in block form (``hilbert.embed``), from one
    transfer pass; the last 8 are cached, as read-only arrays, keyed by what they depend on
    (not omega_T, nbar or k_max): the pulse and L by the taps of ``hilbert.drive_taps``."""
    taps, tap_c = hilbert.drive_taps(params, pulse)
    return _transfer_dyson(params.eta, params.K, tuple(taps.tolist()), tuple(tap_c.tolist()),
                           params.n_dim, params.m_max, up_to)


@lru_cache(maxsize=8)
def _transfer_dyson(eta, K, taps, tap_c, n_dim, m_max, up_to) -> tuple[tuple, ...]:
    """The transfer pass inside the blocks of ``hilbert.symmetry_blocks``: every
    term operator commutes with both symmetries and annihilates the exchange
    singlets, so each P_k is the pair (P_+, P_-) and 0 on the singlets.

    Only the operator values J_m (x) A_m depend on eta.  Everything else is the
    cached ``_plan`` of (K, taps, n_dim, m_max, up_to), so the state is one
    vector x over the plan's entries of both block stacks and each lower order costs
    three products (``_matvec``): y = A(ops) x, P_k = (-i)^k R y and x = S y.  The top
    order is read out from x in one product.  The flat P_k of all orders are scaled by
    their (-i)^k and split into the blocks once: each block is one read-only stack over
    the orders, and each P_k pair is a view of those two stacks.
    """
    plan = _plan(K, taps, tap_c, n_dim, m_max, up_to)
    ops = hilbert.hamiltonian_terms(eta, n_dim, m_max)
    values = np.concatenate([X.ravel() for X in ops])
    x = np.ones(sum(X.shape[-1] for X in ops), dtype=complex)  # the identity on key 0
    flat = []
    for order, ((rows, cols, where, n), *maps) in enumerate(plan, 1):
        if order == up_to:
            (weights,) = maps
            flat.append(_matvec(x, rows, cols, weights * values[where], n))
        else:
            y = _matvec(x, rows, cols, values[where], n)
            R, S = maps
            flat.append(_matvec(y, *R))
            x = _matvec(y, *S)
    P = np.array([(-1j) ** k for k in range(1, up_to + 1)])[:, None] * np.array(flat)
    blocks = np.split(P, np.cumsum([X.shape[-1] ** 2 for X in ops])[:-1], axis=1)
    return tuple(zip(*hilbert.read_only(*(part.reshape(up_to, *X.shape[1:]) for part, X in zip(blocks, ops)))))


def _matvec(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """M x for the map M onto n rows with the entries (rows, cols, data), added in entry
    order: a map's entries run column by column, so each sum rounds as in a CSC product."""
    y = np.zeros(n, dtype=complex)
    # data times x in that order at every size: a complex product is not bitwise commutative
    products = x[cols]
    np.add.at(y, rows, np.multiply(data, products, out=products))
    return y


def _pointers(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


def _ragged(ptr: np.ndarray, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ptr[s]..ptr[s + 1] - 1 of every s in sel, in a row, and the owner of
    each, the index in sel of the row it belongs to."""
    counts = ptr[sel + 1] - ptr[sel]
    owner = np.repeat(np.arange(len(sel)), counts)
    return np.arange(len(owner)) + (ptr[sel] - np.cumsum(counts) + counts)[owner], owner


def _key_step(keys: np.ndarray, K: int, m_max: int, taps: np.ndarray, tap_c: np.ndarray) -> tuple:
    """An order on the keys alone: op_m moves key nu to nu + m K (sideband), tap g on by N_g
    (drive), and the antiderivative (``_antiderivative``) onto the next keys.  Returns the
    sideband keys with the index sinv[m, key] of each, the index tinv[g, sideband key] of
    each drive key, the next keys, the parts map and per sideband key its weight (the
    antiderivative at tau = 1 of the driven term)."""
    skeys, sinv = np.unique(keys + _POWERS * K * np.arange(-m_max, m_max + 1)[:, None], return_inverse=True)
    sinv = sinv.reshape(2 * m_max + 1, -1)
    ikeys, tinv = np.unique(skeys + _POWERS * taps[:, None], return_inverse=True)
    tinv = tinv.reshape(len(taps), -1)
    next_keys, parts = _antiderivative(ikeys)
    # a term's antiderivative at tau = 1 is its column sum in parts: exactly 0 unless
    # p > 0 or nu = 0, as int_0^1 e^{i 2 pi nu tau} dtau = 0 at every integer nu != 0
    ptr, _, coef = parts  # every column is nonempty; reduceat sums it as a CSC column sum does
    return skeys, sinv, tinv, next_keys, parts, tap_c @ np.add.reduceat(coef, ptr[:-1])[tinv]


def _index(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes (each below size) in order and the position of every code
    among them, from a dense marker array instead of a sort; the dense ranks are int32,
    as there are fewer codes than 2^31, and the positions intp, as every gather reads them."""
    mark = np.zeros(size, dtype=bool)
    mark[codes] = True
    distinct = np.flatnonzero(mark)
    del mark
    rank = np.empty(size, dtype=np.int32)
    rank[distinct] = np.arange(len(distinct), dtype=np.int32)
    return distinct, rank[codes].astype(np.intp)


@lru_cache(maxsize=1)
def _plan(K, taps, tap_c, n_dim, m_max, up_to) -> tuple:
    """What the transfer pass does at every eta, from structure alone, as read-only arrays.
    Only the last plan is kept (3.8 MB for sin^2 at order 5, n_dim 8, m_max 3: 123,140 map
    entries): a sweep varies eta or omega_T at one key, or K without coming back to a key.

    The stacks of both blocks are one vector over entries (key, q), q as in
    ``_sideband_moves``: an order numbers its keys by a sort (``_key_step``) and its entries
    by their dense codes key * size + q (``_index``).  Each map is its entries (rows, cols,
    data) and its number of rows, ordered by column, for ``_matvec``.  An order's pairs are
    (input entry, sideband m) with a structurally nonzero J_m (x) A_m on the entry's row, as
    the map (rows, cols, where, n) whose ``where`` reads each pair's operator value from the
    flat op stacks.  A lower order is (pairs, R, S), the rows of the pairs the entries of y
    and R, S the maps from y onto P_k and onto the next entries; the top order is (pairs,
    weights), the rows of its pairs their output q and weights the antiderivative at tau = 1
    of their keys.  Only what is not exactly zero is kept, by one rule: R holds the nonzero
    weights, the top order the pairs of nonzero weight, and every lower order only the
    entries from which some such weight is reached (``_keep``).  Forward prunings save
    building what that rule drops: the top order's zero-weight pairs, and in the order below
    it the next keys that no sideband moves onto a nonzero weight of the top order and the
    pairs onto sideband keys that then reach nothing."""
    return _keep(_orders(K, taps, tap_c, n_dim, m_max, up_to))


def _orders(K, taps, tap_c, n_dim, m_max, up_to) -> list:
    """The orders of ``_plan``, built forward, before ``_keep``; each order's pair side is
    dropped before its S side is built."""
    # the keys of order up_to reach |nu| <= up_to (max|N_g| + m_max K), and all must be int64
    reach = up_to * (max(map(abs, taps)) + m_max * K)
    if (reach + 1) * _POWERS > np.iinfo(np.int64).max:
        raise ValueError(f"beat-note sums up to {reach} at order {up_to} do not fit the int64 "
                         f"keys nu * {_POWERS} + p of the transfer pass")
    # by beat note, so that the drive of a sideband key sums in the order of the keys
    by_note = np.argsort(taps, kind="stable")
    taps, tap_c = np.array(taps)[by_note], np.array(tap_c)[by_note]
    size, move_ptr, move_q, move_m, move_where, identity = _sideband_moves(n_dim, m_max)
    key, q = 0 * identity, identity
    stage, orders = _key_step(np.zeros(1, dtype=np.int64), K, m_max, taps, tap_c), []
    for order in range(1, up_to + 1):
        skeys, sinv, tinv, next_keys, parts, weights = stage
        pos, cols = _ragged(move_ptr, q)
        s = sinv.ravel()[move_m[pos] * sinv.shape[1] + key[cols]]
        if order == up_to:
            read = np.flatnonzero((weights != 0)[s])  # only the pairs of nonzero weight
            pos = pos[read]
            orders.append((_entries(move_q[pos], cols[read], move_where[pos], size), *hilbert.read_only(weights[s[read]])))
            return orders
        ptr, new_key, data = _drive_step(parts, tinv, tap_c, len(next_keys))
        stage = _key_step(next_keys, K, m_max, taps, tap_c)
        if order == up_to - 1:
            # drop the next keys that no sideband moves onto a nonzero weight, and then the
            # pairs onto a sideband key of zero weight that moves onto none of the rest
            _, next_sinv, *_, next_weights = stage
            on = (next_weights[next_sinv] != 0).any(axis=0)[new_key]
            ptr, new_key, data = _pointers(on)[ptr], new_key[on], data[on]
            on = np.flatnonzero(((weights != 0) | (ptr[1:] > ptr[:-1]))[s])
            pos, s, cols = pos[on], s[on], cols[on]
        # the entries of y and the pairs onto them, then the maps R and S from y onto P_k
        # and onto the next entries; the pair side is dropped before the S side is built,
        # and the S side before the next order
        codes, rows = _index(s * size + move_q[pos], len(skeys) * size)
        pairs = _entries(rows, cols, move_where[pos], len(codes))
        del pos, s, cols, rows
        skey, q = np.divmod(codes, size)
        read = np.flatnonzero(weights[skey] != 0)
        R = _entries(q[read], read, weights[skey][read], size)
        pos, owner = _ragged(ptr, skey)
        codes, rows = _index(new_key[pos] * size + q[owner], len(next_keys) * size)
        orders.append((pairs, R, _entries(rows, owner, data[pos], len(codes))))
        key, q = np.divmod(codes, size)
        del pos, owner, codes, rows, skey


def _keep(orders: list) -> tuple:
    """The plan with only the entries from which some read weight is reached, by one pass
    from the top order down: the entries of y that R or the kept S reads, the pairs onto
    them, the input entries that those pairs read and the rows of the order below's S
    onto those.  Each order is pruned in place, so its unpruned and pruned maps are never
    both held.  Every map keeps its entries in their order and each renumbering keeps the
    order of what it numbers, so every sum that is read adds the same products in the same
    order; the input of order 1, the identity, is never renumbered."""
    for k in range(len(orders) - 1, -1, -1):
        (rows, cols, where, n), *maps = orders[k]
        orders[k] = None
        if k < len(orders) - 1:
            R, (s_rows, s_cols, s_data, _) = maps
            on = need[s_rows]
            s_rows = _ranks(need)[s_rows[on]]
            s_cols = s_cols[on]
            s_data = s_data[on]
            live = _marks(n, R[1], s_cols)
            at = _ranks(live)
            R, s_cols = _entries(R[0], at[R[1]], *R[2:]), at[s_cols]
            on = live[rows]
            rows = at[rows[on]]
            cols = cols[on]
            where = where[on]
            n = int(np.count_nonzero(live))
            maps = R, _entries(s_rows, s_cols, s_data, int(np.count_nonzero(need)))
        if k:
            need = _marks(orders[k - 1][2][3], cols)
            cols = _ranks(need)[cols]
        orders[k] = (_entries(rows, cols, where, n), *maps)
    return tuple(orders)


def _marks(n: int, *used: np.ndarray) -> np.ndarray:
    """Which of n entries some array of ``used`` names."""
    mark = np.zeros(n, dtype=bool)
    for u in used:
        mark[u] = True
    return mark


def _ranks(mark: np.ndarray) -> np.ndarray:
    """The new number of each marked entry, when only the marked ones are counted, in order."""
    return np.cumsum(mark) - 1


def _entries(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, n: int) -> tuple:
    """A map of the plan, which every later caller shares: its entry lists read-only."""
    return (*hilbert.read_only(rows, cols, data), n)


def _drive_step(parts: tuple, tinv: np.ndarray, tap_c: np.ndarray, n_keys: int) -> tuple:
    """Row s of S^T = drive^T parts^T, the new keys that sideband key s moves to: the sum
    over the taps g of c_g times column tinv[g, s] of parts, as row pointers, then keys and
    values.  The sums add in (s, g, entry) order, as a CSR product does, and an exactly
    zero sum is dropped, as there; a row holds each new key once, so its order is not read."""
    ptr, rows, coef = parts
    pos, owner = _ragged(ptr, tinv.T.ravel())
    s, g = np.divmod(owner, len(tap_c))
    codes, at = np.unique(s * n_keys + rows[pos], return_inverse=True)
    sums = np.zeros(len(codes), dtype=complex)
    np.add.at(sums, at, tap_c[g] * coef[pos])
    kept = sums != 0
    s, new_key = np.divmod(codes[kept], n_keys)
    return _pointers(np.bincount(s, minlength=tinv.shape[1])), new_key, sums[kept]


@lru_cache(maxsize=8)
def _sideband_moves(n_dim: int, m_max: int) -> tuple:
    """Where J_m (x) A_m moves each entry q = (block, row, column) of the block stacks:
    the number of q, the moves out of each q (pointers, then target q, index of m and
    ``where`` in the flat op stacks) and the q of the identity, as read-only arrays.  The
    pattern comes from ``hilbert.to_blocks`` of J_m and of the band of Fock levels that A_m
    raises by m, never from operator values, so an eta at which some A_m vanishes drops no
    entry."""
    ms = range(-m_max, m_max + 1)
    pattern = hilbert.to_blocks(np.stack([hilbert.collective_spin(m) for m in ms]),
                                np.stack([np.eye(n_dim, k=-m) for m in ms]))
    # entry (row src, column c) of a block moves to (dst, c) under m, weighted by op_m[dst, src]
    moves, identity, size, flat = [], [], 0, 0
    for P in pattern:
        d = P.shape[-1]
        m, dst, src = np.nonzero(P)
        moves.append([a.ravel() for a in (size + src[:, None] * d + np.arange(d),
                                          size + dst[:, None] * d + np.arange(d),
                                          np.repeat(m, d), np.repeat(flat + (m * d + dst) * d + src, d))])
        identity.append(size + np.arange(d) * (d + 1))
        size, flat = size + d * d, flat + P.size
    src, dst, m, where = (np.concatenate(part).astype(np.intp) for part in zip(*moves))
    by_src = np.argsort(src, kind="stable")
    return (size, *hilbert.read_only(_pointers(np.bincount(src, minlength=size)), dst[by_src], m[by_src],
                                     where[by_src], np.concatenate(identity)))


def _antiderivative(keys: np.ndarray) -> tuple:
    """Integration by parts from 0 of sum_i X_i tau^p_i e^{i 2 pi nu_i tau} as a linear
    map of the X_i: the new keys and the map from the keys onto them, as column pointers,
    rows and coefficients, each column by row.  The s = 0 boundary is an entry on key 0
    like any other, no column holds a key twice (nu P + j for j <= p, and key 0 once),
    and each column sums to its term's antiderivative at tau = 1 (every phase is 1)."""
    nu, p = np.divmod(keys, _POWERS)
    flat = np.flatnonzero(nu == 0)
    entries = [(keys[flat] + 1, flat, 1.0 / (p[flat] + 1))]  # (new key, column, coefficient)
    for power in range(int(p.max()) + 1):
        at = np.flatnonzero((nu != 0) & (p == power))
        for j, q, a in resint.parts_table(power):
            entries.append((nu[at] * _POWERS + j, at, a / (2j * np.pi * nu[at]) ** q))
        entries.append((0 * at, at, -entries[-1][2]))  # s = 0: minus the last (j = 0) term on key 0
    dst, src, coef = (np.concatenate(part) for part in zip(*entries))
    new_keys, rows = np.unique(dst, return_inverse=True)
    by_column = np.lexsort((rows, src))
    return new_keys, (_pointers(np.bincount(src, minlength=len(keys))), rows[by_column], coef[by_column])


def dyson_term(k: int, params: GateParams, pulse: PulseShape, method: str = "transfer") -> np.ndarray:
    """k-th Dyson term P_k, including the (-i)^k and (Omega*T)^k factors."""
    if not 1 <= k <= MAX_ORDER:
        raise ValueError(f"order k={k} outside [1, {MAX_ORDER}]")
    if method == "transfer":
        p_hat = dyson_hat_terms(params, pulse, k)[k - 1]
    elif method == "tuples":
        p_hat = resint.sequence_dyson(params, pulse, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return (params.omega_T ** k) * hilbert.embed(p_hat, params.n_dim, 0.0)


def magnus_terms(params: GateParams, pulse: PulseShape, up_to: int) -> dict[int, tuple]:
    """Effective-Hamiltonian orders {k: (Z_+, Z_-)} for k = 2..up_to in block form."""
    if not 2 <= up_to <= MAX_ORDER:
        raise ValueError(f"up_to={up_to} outside [2, {MAX_ORDER}]")
    w = params.omega_T
    per_block = []
    for p_hat in zip(*dyson_hat_terms(params, pulse, up_to)):
        P = [None] + [(w ** (i + 1)) * X for i, X in enumerate(p_hat)]
        # the log of the Dyson series through MAX_ORDER = 5 (its cubic term P_2^3 / 3 enters at 6),
        # its cross products summed left to right; Z_k = i P_k where there are none
        cross = {k: [P[a] @ P[k - a] for a in range(2, k - 1)] for k in range(2, up_to + 1)}
        per_block.append({k: 1j * (P[k] - 0.5 * reduce(np.add, c)) if c else 1j * P[k] for k, c in cross.items()})
    return {k: tuple(Z[k] for Z in per_block) for k in per_block[0]}


def propagators_upto(params: GateParams, pulse: PulseShape, max_order: int) -> dict[int, tuple]:
    """Truncated propagators {n: (U_+, U_-)} in block form, U_n = exp(-i sum_{k=2}^n Z_k)
    for n = 2..max_order, from a single assembly (the cached P-hat_k, so an omega costs
    only the products of ``magnus_terms``) and one exponential per block, taken of the
    stack of its running sums over the orders, added in order as ``np.cumsum`` adds them."""
    Z = magnus_terms(params, pulse, max_order)
    U = [hilbert.matrix_exp(-1j * np.stack(list(accumulate(Zb)))) for Zb in zip(*Z.values())]
    return {n: tuple(Ub[i] for Ub in U) for i, n in enumerate(Z)}


# ---------------------------------------------------------------------------
# The Fock-level coefficients of an order.
# ---------------------------------------------------------------------------

def level_coeff(Z: tuple, n_dim: int, row: int, col: int, qubit_op: np.ndarray) -> complex:
    """Projection (Frobenius) of the <row| . |col> qubit block of the block form Z onto
    qubit_op; the J_a^2 coefficient is the one of J_a^2 - 1/2 = sigma_a (x) sigma_a / 2."""
    return complex(np.vdot(qubit_op, hilbert.level_block(Z, n_dim, row, col)) / np.vdot(qubit_op, qubit_op))
