"""Scoring spectrum recovery against sensing errors.

A field of four links is sensed by an imperfect pipeline: each
transmitter can be missed, its position and power are jittered, and
spurious low-power detections appear.  Comparing the estimated
opportunity map against the ground truth splits the space three ways:

* recovered  opportunity the estimate correctly exposes,
* lost       true opportunity the estimate hides (forgone reuse),
* incursed   claimed opportunity that does not exist (interference risk).
"""

from pathlib import Path

import numpy as np

from muse import (
    SensingErrorModel,
    compare_maps,
    dbm_to_watts,
    load_scenario,
    opportunity_map,
    simulate_recovery,
    total_spectrum_space,
)

HERE = Path(__file__).parent
system = load_scenario(HERE / "scenarios" / "four_pair_field.yaml")
truth = opportunity_map(system)
total = total_spectrum_space(system.grid_spec, system.params)
print(f"true available spectrum: {truth.total:.1f} of {total:.0f} W*m^2 ({100 * truth.total / total:.1f} %)\n")

model = SensingErrorModel(
    p_missed_detection=0.1,
    false_positive_rate=3.0,
    geolocation_sigma=40.0,
    power_error_sigma_db=2.0,
    false_positive_power=dbm_to_watts(-10.0),
    rng_seed=8,
)

print(f"{'seed':>5} {'recovered %':>12} {'lost %':>8} {'incursed %':>11}")
for seed in range(8, 14):
    estimated = simulate_recovery(system, SensingErrorModel(
        p_missed_detection=model.p_missed_detection,
        false_positive_rate=model.false_positive_rate,
        geolocation_sigma=model.geolocation_sigma,
        power_error_sigma_db=model.power_error_sigma_db,
        false_positive_power=model.false_positive_power,
        rng_seed=seed,
    ))
    rep = compare_maps(truth, estimated)
    print(
        f"{seed:>5} {100 * rep.recovered_available / total:>12.2f} "
        f"{100 * rep.lost_available / total:>8.2f} {100 * rep.potentially_incursed / total:>11.2f}"
    )

estimated = simulate_recovery(system, model)
rep = compare_maps(truth, estimated)
worst_loss = int(np.argmax(np.maximum(0.0, -rep.theta).sum(axis=(1, 2))))
worst_incursion = int(np.argmax(np.maximum(0.0, rep.theta).sum(axis=(1, 2))))
print(f"\nseed {model.rng_seed}: the largest loss sits in cell {worst_loss} "
      f"at {tuple(round(c) for c in truth.grid.cell(worst_loss).centroid)},")
print(f"the largest incursion in cell {worst_incursion} "
      f"at {tuple(round(c) for c in truth.grid.cell(worst_incursion).centroid)}.")
print("\nA perfect pipeline recovers everything: zero lost, zero incursed;")
print("its per-cell error map is identically zero (see the acceptance suite).")
