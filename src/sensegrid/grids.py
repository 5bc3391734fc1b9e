"""Threshold clustering of same-type sensors and coordinator election.

Two same-type sensors belong to the same grid when they are chained by
pairwise distances strictly below the threshold (connected components of
the sub-threshold graph). Each grid elects its medoid as coordinator
unless an override pins a specific member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, OverrideError
from .topology import (
    SensorNode, SensorType, _require_override, _require_positive, _require_type, distance,
)

MEDOID = "medoid"
OVERRIDDEN = "overridden"
_TOO_FAR = "sensors: positions too far apart; their distances overflow a float"


@dataclass(frozen=True)
class Grid:
    """A type-homogeneous cluster: members are distinct ids in sorted order,
    grid_id is the first of them, and the coordinator is one of them."""

    grid_id: str
    sensor_type: SensorType
    members: tuple[str, ...]
    coordinator: str
    election: str = MEDOID

    def __post_init__(self) -> None:
        _require_type(self.grid_id, str, "grid.grid_id", ConfigError)
        prefix = f"grid {self.grid_id}: "
        _require_type(self.sensor_type, SensorType, prefix + "sensor_type", ConfigError)
        _require_type(self.members, tuple, prefix + "members", ConfigError)
        if not self.members:
            raise ConfigError("grid members must be non-empty")
        if not all(isinstance(m, str) for m in self.members):
            raise ConfigError(prefix + "members: expected strs")
        if self.members != tuple(sorted(set(self.members))):
            raise ConfigError(prefix + "members: expected distinct ids in sorted order")
        if self.grid_id != self.members[0]:
            raise ConfigError(prefix + f"grid_id: expected its first member {self.members[0]!r}")
        _require_type(self.coordinator, str, prefix + "coordinator", ConfigError)
        if self.coordinator not in self.members:
            raise ConfigError(prefix + f"coordinator {self.coordinator!r} is not a member")
        if self.election not in (MEDOID, OVERRIDDEN):
            raise ConfigError(prefix + f"election: expected {MEDOID!r} or {OVERRIDDEN!r}")


@dataclass(frozen=True)
class GridSet:
    grids: tuple[Grid, ...]
    _grid_by_member: dict[str, Grid] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        _require_type(self.grids, tuple, "grid_set.grids", ConfigError)
        for i, grid in enumerate(self.grids):
            if not isinstance(grid, Grid):
                kind = type(grid).__name__
                raise ConfigError(f"grid_set.grids[{i}]: expected a Grid, got {kind}")
            for member in grid.members:
                if member in self._grid_by_member:
                    raise ConfigError(f"node {member!r} appears in more than one grid")
                self._grid_by_member[member] = grid

    def grid_for(self, node_id: str) -> Grid:
        try:
            return self._grid_by_member[node_id]
        except KeyError:
            raise ConfigError(f"node {node_id!r} is not covered by this grid set") from None

    def coordinator_of(self, node_id: str) -> str:
        return self.grid_for(node_id).coordinator


def form_grids(
    sensors: list[SensorNode] | tuple[SensorNode, ...],
    threshold: float,
    overrides: dict[SensorType, str] | None = None,
) -> GridSet:
    """Partition sensors into grids and elect a coordinator for each.

    Edges join same-type pairs with distance strictly below the threshold;
    grids are the connected components, so chained neighbours merge even
    when their direct distance exceeds the threshold. A sensor with no
    qualifying neighbour forms a singleton grid. Output is canonical:
    grids ordered by lowest member id, members sorted.

    Candidate pairs come from a sweep over each type's sensors in x order,
    so no N x N distance matrix is built.
    """
    _require_positive(threshold, "threshold")
    if not isinstance(sensors, (list, tuple)):
        raise ConfigError(f"sensors: expected a list or tuple, got {type(sensors).__name__}")
    if overrides is not None:
        _require_type(overrides, dict, "overrides", ConfigError)
        for sensor_type, node_id in overrides.items():
            _require_type(sensor_type, SensorType, "overrides key", ConfigError)
            _require_type(node_id, str, f"overrides.{sensor_type.value}", ConfigError)

    by_type: dict[SensorType, list[int]] = {}
    for i, sensor in enumerate(sensors):
        _require_type(sensor, SensorNode, f"sensors[{i}]", ConfigError)
        by_type.setdefault(sensor.sensor_type, []).append(i)
    by_id = {s.node_id: s for s in sensors}
    overrides = overrides or {}
    for sensor_type, node_id in overrides.items():
        _require_override(sensor_type, node_id, by_id, "overrides")
    # union-find with path halving; which root a union keeps never shows
    parent = list(range(len(sensors)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for indices in by_type.values():
        indices.sort(key=lambda i: sensors[i].position.x)
        positions = [sensors[i].position for i in indices]
        for a, p in enumerate(positions):
            for b in range(a + 1, len(positions)):
                q = positions[b]
                dx = q.x - p.x
                # distance() >= sqrt(fl(dx*dx)), even when the squares underflow,
                # and dx only grows along the sweep: no later sensor can join.
                # Rounded addition of non-negative terms is monotone, and so is
                # sqrt, so distance() >= sqrt(fl(dy*dy)) as well: a y gap alone
                # can rule this pair out. Either guard squares its gap first, so
                # a gap whose square no float holds still raises; a pair ruled
                # out leaves its z gap unsquared, as a pair past dx always has.
                try:
                    if math.sqrt(dx * dx) >= threshold:
                        break
                    dy = q.y - p.y
                    if math.sqrt(dy * dy) >= threshold:
                        continue
                    if distance(p, q) < threshold:
                        parent[root(indices[a])] = root(indices[b])
                except (OverflowError, ConfigError):  # a gap whose square no float holds
                    raise ConfigError(_TOO_FAR) from None

    components: dict[int, list[SensorNode]] = {}
    for i, sensor in enumerate(sensors):
        components.setdefault(root(i), []).append(sensor)

    grids = []
    for group in components.values():
        members = tuple(sorted(s.node_id for s in group))
        sensor_type = group[0].sensor_type
        override = overrides.get(sensor_type)
        if override is not None and override not in members:
            override = None  # pins a different grid of this type
        coordinator = elect_coordinator_ids(members, by_id, override=override)
        grids.append(
            Grid(
                grid_id=members[0],
                sensor_type=sensor_type,
                members=members,
                coordinator=coordinator,
                election=OVERRIDDEN if override is not None else MEDOID,
            )
        )
    grids.sort(key=lambda g: g.grid_id)
    return GridSet(tuple(grids))


def elect_coordinator_ids(
    members: tuple[str, ...],
    sensors_by_id: dict[str, SensorNode],
    override: str | None = None,
) -> str:
    """Pick the medoid of a member set: the node minimizing the sum of
    distances to all other members, ties broken by smallest id.

    An override wins outright but must name a member.
    """
    _require_type(members, tuple, "members", ConfigError)
    _require_type(sensors_by_id, dict, "sensors_by_id", ConfigError)
    if not members:
        raise ConfigError("cannot elect a coordinator from an empty member set")
    for i, m in enumerate(members):
        if not isinstance(m, str):
            raise ConfigError(f"members[{i}]: expected a str, got {type(m).__name__}")
        if m not in sensors_by_id:
            raise ConfigError(f"grid member {m!r} missing from the sensor index")
        node = sensors_by_id[m]
        if not isinstance(node, SensorNode):
            kind = type(node).__name__
            raise ConfigError(f"sensors_by_id[{m!r}]: expected a SensorNode, got {kind}")
    if override is not None:
        if override not in members:
            raise OverrideError(
                f"override {override!r} is not a member of grid {min(members)!r}"
            )
        return override
    ordered = sorted(members)
    best_id = None
    best_sum = float("inf")
    for candidate in ordered:
        total = 0.0
        for other in ordered:
            total += distance(
                sensors_by_id[candidate].position, sensors_by_id[other].position
            )
        if total < best_sum:
            best_sum = total
            best_id = candidate
    if best_id is None:  # every sum overflowed, so none is below inf
        raise ConfigError(_TOO_FAR)
    return best_id
