"""Straight-line scalar re-evaluation of the consumption math.

Deliberately naive: plain float loops over transmitters and receivers
with the formulas written out once, independent of the vectorized engine
it cross-checks.
"""

import math


def _path_gain(alpha, d0, d):
    return 1.0 if d <= d0 else (d / d0) ** -alpha


def _antenna_gain(antenna, frm, to):
    if antenna.kind == "omni":
        return 1.0
    dx, dy = to[0] - frm[0], to[1] - frm[1]
    if dx == 0.0 and dy == 0.0:
        return antenna.main_gain
    bearing = math.atan2(dy, dx)
    delta = abs((bearing - antenna.boresight + math.pi) % (2.0 * math.pi) - math.pi)
    return antenna.main_gain if delta <= 0.5 * antenna.beamwidth else antenna.back_gain


def _pair_gain(alpha, d0, src_pos, src_ant, dst_pos, dst_ant):
    d = math.hypot(dst_pos[0] - src_pos[0], dst_pos[1] - src_pos[1])
    g = _path_gain(alpha, d0, d)
    if d == 0.0:
        if src_ant.kind != "omni":
            g *= src_ant.main_gain
        if dst_ant.kind != "omni":
            g *= dst_ant.main_gain
        return g
    g *= _antenna_gain(src_ant, src_pos, dst_pos)
    g *= _antenna_gain(dst_ant, dst_pos, src_pos)
    return g


def evaluate_cell(sys, cell):
    """All cell-level quantities at the cell's sample point, as dicts."""
    tau, nu = cell.time_index, cell.band_index
    point = cell.sample_point
    model = sys.model_for_band(nu)
    alpha, d0 = model.alpha, model.reference_distance
    params = sys.params

    pos = dict(sys.effective_positions)

    # occupancy
    tx_occ = {}
    total = sys.params.noise_for_band(nu)
    for (chi_b, nu_b), w in sys.noise_cell_overrides.items():
        if chi_b == cell.region_index and nu_b == nu:
            total = w
    for _, _, tx in sys.iter_transmitters():
        if not tx.is_active(tau, nu):
            tx_occ[tx.id] = 0.0
            continue
        p = pos[tx.id]
        d = math.hypot(point[0] - p[0], point[1] - p[1])
        g = _path_gain(alpha, d0, d)
        if tx.antenna.kind != "omni":
            g *= tx.antenna.main_gain if d == 0.0 else _antenna_gain(tx.antenna, p, point)
        tx_occ[tx.id] = tx.tx_power * g
        total += tx_occ[tx.id]
    omega = total

    # per-receiver opportunity and liability
    rx_opp = {}
    rx_liab = {}
    raw = None
    for net, link, rx in sys.iter_receivers():
        if not rx.is_active(tau, nu):
            continue
        serving = link.transmitter
        if serving is None:
            margin = rx.explicit_margin
        else:
            received = serving.tx_power * _pair_gain(alpha, d0, pos[serving.id], serving.antenna, pos[rx.id], rx.antenna)
            margin = received / rx.beta - sys.noise_at(pos[rx.id], nu)  # the noise of the receiver's own cell
        interference = 0.0
        for net2, link2, tx2 in sys.iter_transmitters():
            if not tx2.is_active(tau, nu):
                continue
            if serving is not None and tx2.id == serving.id:
                continue
            if net2.orthogonal and net2.id == net.id and link2.id != link.id:
                continue
            interference += tx2.tx_power * _pair_gain(alpha, d0, pos[tx2.id], tx2.antenna, pos[rx.id], rx.antenna)
        p = pos[rx.id]
        d = math.hypot(point[0] - p[0], point[1] - p[1])
        g = _path_gain(alpha, d0, d)
        if rx.antenna.kind != "omni":
            g *= rx.antenna.main_gain if d == 0.0 else _antenna_gain(rx.antenna, p, point)
        opp = (margin - interference) / g
        rx_opp[rx.id] = opp
        rx_liab[rx.id] = min(max(params.p_cmax - (omega + opp), 0.0), params.p_cmax)
        raw = opp if raw is None else min(raw, opp)

    headroom = params.p_max - omega
    raw = headroom if raw is None else min(raw, headroom)
    gamma = min(max(raw, 0.0), max(params.p_cmax - omega, 0.0))
    phi = params.p_cmax - omega - gamma
    return {
        "occupancy": omega,
        "raw_opportunity": raw,
        "opportunity": gamma,
        "liability": phi,
        "tx_occupancy": tx_occ,
        "rx_liability": rx_liab,
        "rx_opportunity": rx_opp,
    }
