"""Shared builders for the replication test suite."""

from __future__ import annotations

import random

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.tree import MovingObjectTree
from repro.geometry.kinematics import MovingPoint
from repro.replication import start_follower

CONFIG = TreeConfig(page_size=1024, buffer_pages=32)


def make_primary(directory, config=CONFIG):
    """A durable primary tree rooted at ``directory``."""
    return MovingObjectTree.create_durable(
        str(directory), config, SimulationClock()
    )


def drive(tree, n, *, seed=0, start_oid=0, lifetime=500.0):
    """Insert ``n`` moving points, advancing the clock one tick per op."""
    rng = random.Random(seed)
    for i in range(n):
        tree.clock.advance_to(tree.clock.time + 1.0)
        now = tree.clock.time
        point = MovingPoint(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            now,
            now + lifetime,
        )
        tree.insert(start_oid + i, point)


def make_pair(base, *, injector=None, registry=None):
    """Primary + bootstrapped replica + channel, rooted under ``base``."""
    tree = make_primary(base / "primary")
    channel, replica, _maintainer = start_follower(
        tree.disk, str(base / "replica"), injector=injector, registry=registry
    )
    return tree, channel.shipper, replica, channel


def catch_up(channel, replica):
    """Poll, apply and acknowledge until the replica is current."""
    while True:
        batches = channel.poll()
        if not batches:
            return
        replica.apply(batches)
        channel.ack(replica.applied_op_seq)
