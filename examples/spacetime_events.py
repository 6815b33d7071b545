#!/usr/bin/env python
"""Space-time event detection with d-dimensional DBSCAN.

The paper notes its partitioning "can be extended to an arbitrary
dimension" (§3.1.2).  This example uses the repository's d-dimensional
DBSCAN (`dbscan_nd.py` beside it) on synthetic *3-D* data: geolocated
tweets with a time axis, where an "event" is a burst of activity compact
in both space and time — the kind of analysis (flu outbreaks, rainfall
nowcasting) the paper's §4.1 motivates.

    python examples/spacetime_events.py
"""

from __future__ import annotations

import numpy as np

from dbscan_nd import dbscan_nd
from repro.points import NOISE

RNG = np.random.default_rng(2012)

# Synthetic events: (lon, lat, hour, n_tweets, spatial_sigma, time_sigma)
EVENTS = [
    ("stadium-game", -87.63, 41.86, 20.0, 400, 0.02, 1.0),
    ("festival", -118.24, 34.05, 14.0, 300, 0.05, 3.0),
    ("storm-front", -95.37, 29.76, 6.0, 250, 0.15, 2.0),
    ("morning-commute", -74.0, 40.71, 8.0, 350, 0.08, 0.7),
]


def generate() -> tuple[np.ndarray, list[str]]:
    rows = []
    for name, lon, lat, hour, n, s_sigma, t_sigma in EVENTS:
        pts = np.column_stack(
            [
                RNG.normal(lon, s_sigma, n),
                RNG.normal(lat, s_sigma, n),
                RNG.normal(hour, t_sigma, n),
            ]
        )
        rows.append(pts)
    # background chatter: uniform over the US and the day
    bg = np.column_stack(
        [
            RNG.uniform(-125, -66, 600),
            RNG.uniform(24, 50, 600),
            RNG.uniform(0, 24, 600),
        ]
    )
    rows.append(bg)
    return np.concatenate(rows), [e[0] for e in EVENTS]


def main() -> None:
    coords, names = generate()
    # Scale hours so one "eps" unit means ~0.1 degrees OR ~1 hour: divide
    # the time axis by 10 (0.1 deg <-> 1 h equivalence).
    scaled = coords.copy()
    scaled[:, 2] /= 10.0

    res = dbscan_nd(scaled, eps=0.12, minpts=10)
    print(f"{len(coords):,} tweets -> {res.n_clusters} space-time events, "
          f"{res.n_noise:,} background")

    print(f"\n{'event':<18}{'tweets':>7}  {'lon':>8} {'lat':>7} {'hour':>6}  duration")
    for lab in np.unique(res.labels[res.labels != NOISE]):
        members = coords[res.labels == lab]
        lon, lat, hour = members.mean(axis=0)
        dur = members[:, 2].max() - members[:, 2].min()
        # label with the nearest injected event
        d = [
            (abs(lon - e[1]) + abs(lat - e[2]) + abs(hour - e[3]) / 10, e[0])
            for e in EVENTS
        ]
        name = min(d)[1] if min(d)[0] < 2 else "unexpected"
        print(
            f"{name:<18}{len(members):>7,}  {lon:>8.2f} {lat:>7.2f} {hour:>6.1f}  "
            f"{dur:.1f}h"
        )

    assert res.n_clusters == len(EVENTS), "each injected event should be found"
    print("\nall injected events recovered; background rejected as noise")


if __name__ == "__main__":
    main()
