"""Shared scenario builders for the test suite."""

import math

import numpy as np

from muse import (
    Band,
    GridSpec,
    PropagationModel,
    Receiver,
    RFLink,
    RFNetwork,
    RFSystem,
    SystemParams,
    Transmitter,
    db_to_linear,
    dbm_to_watts,
)

def assert_same_text(actual: str, expected: str):
    """Fail unless the two texts are equal, naming the first line that differs.

    A bare ``assert actual == expected`` on long texts makes pytest build a
    full diff on failure, seconds per call, and hypothesis repeats it at
    every shrink step; this fails as strictly, in milliseconds."""
    if actual == expected:
        return
    a, b = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    got, want = (lines[k] if k < len(lines) else "<end of text>" for lines in (a, b))
    raise AssertionError(f"texts differ at line {k + 1}: got {got!r}, expected {want!r}")


REGION_W = 4300.0
REGION_H = 3700.0
NOISE_DBM = -106.0
PROBE = (2250.0, 1800.0)


def reference_params() -> SystemParams:
    return SystemParams(
        p_max=dbm_to_watts(30.0),
        p_min=dbm_to_watts(-200.0),
        ambient_noise=dbm_to_watts(NOISE_DBM),
    )


def reference_grid(hex_side: float = 100.0, **kwargs) -> GridSpec:
    return GridSpec(region_width=REGION_W, region_height=REGION_H, hex_side=hex_side, **kwargs)


def single_link_system(
    ptx_dbm: float,
    rx_pos: tuple[float, float],
    tx_pos: tuple[float, float] = (1000.0, 2000.0),
    beta_db: float = 3.0,
    hex_side: float = 100.0,
) -> RFSystem:
    """One omni link on the reference region (probe-point scenarios)."""
    tx = Transmitter(id="tx-1", position=tx_pos, tx_power=dbm_to_watts(ptx_dbm))
    rx = Receiver(id="rx-1", position=rx_pos, beta=db_to_linear(beta_db))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(hex_side),
        networks=(RFNetwork(id="net-1", links=(RFLink(id="link-1", transmitters=(tx,), receivers=(rx,)),)),),
    )


def probe_scenario(which: str) -> RFSystem:
    """The three probe-point scenarios: low power, high power, far receiver."""
    if which == "low":
        return single_link_system(-24.0, (1000.0, 2100.0))
    if which == "high":
        return single_link_system(6.0, (1000.0, 2100.0))
    if which == "far":
        return single_link_system(6.0, (1000.0, 2500.0))
    raise ValueError(which)


def region_link_system(worst_case: bool = False, hex_side: float = 100.0) -> RFSystem:
    """Region-scale link: receiver at (1200, 1200) requiring 6 dB and
    experiencing 33 dB SINR from its serving transmitter."""
    tx_pos = (1000.0, 2000.0)
    rx_pos = (1200.0, 1200.0)
    d = math.hypot(rx_pos[0] - tx_pos[0], rx_pos[1] - tx_pos[1])
    ptx_dbm = (NOISE_DBM + 33.0) + 35.0 * math.log10(d)
    tx = Transmitter(id="tx-1", position=tx_pos, tx_power=dbm_to_watts(ptx_dbm))
    rx = Receiver(id="rx-1", position=rx_pos, beta=db_to_linear(6.0))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(hex_side, worst_case_placement=worst_case),
        networks=(RFNetwork(id="net-1", links=(RFLink(id="link-1", transmitters=(tx,), receivers=(rx,)),)),),
    )


def four_pair_system(hex_side: float = 230.0) -> RFSystem:
    """Four interfering links spread over the reference region."""
    pairs = [
        ((900.0, 2800.0), (1400.0, 3100.0), 28.0, 6.0),
        ((3300.0, 2900.0), (2900.0, 2500.0), 26.0, 3.0),
        ((1300.0, 900.0), (1900.0, 1100.0), 27.0, 6.0),
        ((3400.0, 1000.0), (3000.0, 700.0), 25.0, 3.0),
    ]
    links = []
    for k, (tx_pos, rx_pos, p_dbm, b_db) in enumerate(pairs):
        tx = Transmitter(id=f"tx-{k}", position=tx_pos, tx_power=dbm_to_watts(p_dbm))
        rx = Receiver(id=f"rx-{k}", position=rx_pos, beta=db_to_linear(b_db))
        links.append(RFLink(id=f"pair-{k}", transmitters=(tx,), receivers=(rx,)))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(hex_side),
        networks=(RFNetwork(id="field", links=tuple(links)),),
    )


def empty_system(hex_side: float = 100.0) -> RFSystem:
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=reference_grid(hex_side),
        networks=(),
    )


def small_grid(hex_side: float = 100.0, horizon: int = 1, n_bands: int = 1, **kwargs) -> GridSpec:
    """690 x 590 m region: exactly 25 hexagons at side 100."""
    bands = tuple(Band(600e6 + 10e6 * k, 6e6) for k in range(n_bands))
    return GridSpec(
        region_width=690.0, region_height=590.0, hex_side=hex_side, horizon=horizon, bands=bands, **kwargs
    )


def random_system(
    rng: np.random.Generator,
    spec: GridSpec | None = None,
    max_links: int = 5,
    max_rx_per_link: int = 2,
    sector_fraction: float = 0.25,
) -> RFSystem:
    """Random valid scenario on the given grid."""
    if spec is None:
        spec = reference_grid()
    links = []
    for k in range(int(rng.integers(1, max_links + 1))):
        has_tx = rng.random() < 0.85
        txs = ()
        if has_tx:
            txs = (
                Transmitter(
                    id=f"t{k}",
                    position=_random_pos(rng, spec),
                    tx_power=dbm_to_watts(float(rng.uniform(-30.0, 30.0))),
                    antenna=_random_antenna(rng, sector_fraction),
                ),
            )
        n_rx = int(rng.integers(0, max_rx_per_link + 1)) if has_tx else int(rng.integers(1, max_rx_per_link + 1))
        rxs = tuple(
            Receiver(
                id=f"r{k}-{m}",
                position=_random_pos(rng, spec),
                beta=db_to_linear(float(rng.uniform(0.0, 15.0))),
                antenna=_random_antenna(rng, sector_fraction),
                explicit_margin=None if has_tx else dbm_to_watts(float(rng.uniform(-110.0, -60.0))),
            )
            for m in range(n_rx)
        )
        links.append(RFLink(id=f"l{k}", transmitters=txs, receivers=rxs))
    return RFSystem(
        params=reference_params(),
        propagation=PropagationModel(alpha=3.5),
        grid_spec=spec,
        networks=(RFNetwork(id="net", links=tuple(links)),),
    )


def _random_pos(rng, spec):
    return (float(rng.uniform(0.0, spec.region_width)), float(rng.uniform(0.0, spec.region_height)))


def _random_antenna(rng, sector_fraction):
    from muse import OMNI, AntennaPattern

    if rng.random() >= sector_fraction:
        return OMNI
    main = float(rng.uniform(1.0, 8.0))
    return AntennaPattern(
        kind="sector",
        boresight=float(rng.uniform(-math.pi, math.pi)),
        beamwidth=float(rng.uniform(0.3, 2.5)),
        main_gain=main,
        back_gain=float(rng.uniform(0.05, 1.0)) * main,
    )


def add_random_transmitter(sys: RFSystem, rng: np.random.Generator) -> RFSystem:
    """Append a fresh transmit-only link (new network keeps ids unique)."""
    import dataclasses

    spec = sys.grid_spec
    tx = Transmitter(
        id=f"added-t{rng.integers(1 << 30)}",
        position=_random_pos(rng, spec),
        tx_power=dbm_to_watts(float(rng.uniform(-30.0, 30.0))),
    )
    extra = RFNetwork(id=f"added-net-{tx.id}", links=(RFLink(id=f"added-l-{tx.id}", transmitters=(tx,)),))
    return dataclasses.replace(sys, networks=sys.networks + (extra,))


def add_random_receiver(sys: RFSystem, rng: np.random.Generator) -> RFSystem:
    """Append a fresh receive-only link with an explicit margin."""
    import dataclasses

    spec = sys.grid_spec
    rx = Receiver(
        id=f"added-r{rng.integers(1 << 30)}",
        position=_random_pos(rng, spec),
        beta=db_to_linear(float(rng.uniform(0.0, 15.0))),
        explicit_margin=dbm_to_watts(float(rng.uniform(-110.0, -60.0))),
    )
    extra = RFNetwork(id=f"added-net-{rx.id}", links=(RFLink(id=f"added-l-{rx.id}", receivers=(rx,)),))
    return dataclasses.replace(sys, networks=sys.networks + (extra,))
