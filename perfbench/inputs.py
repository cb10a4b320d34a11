"""Seeded inputs: instance payloads and the churn mutation stream.

Everything here runs before a workload's clock starts.  Instances use
the Table 7 defaults of :class:`repro.datagen.synthetic.SyntheticConfig`
(mean capacity 50, ``f_b = 2``, ``cr = 0.25``); only the sizes and the
generator seed vary.  Per-op seeds are hashed from ``(workload, run
seed, op index)``, so one run seed always yields the same op sequence.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Tuple

#: Sizes ``(|V|, |U|)`` per workload.
COLD_DIMS = (60, 1000)
SMALL_DIMS = (12, 60)
CHURN_DIMS = (60, 1000)
#: The churn workload's registered instance is one fixed dataset; the
#: run seed draws only the mutation stream applied to it, so runs with
#: different seeds differ in what churns, not in the base instance.
CHURN_BASE_SEED = 20150531
#: Generator seed of the untimed warm-up instance of each set-up; fixed,
#: so set-up time does not vary with the run seed's instances.
WARMUP_SEED = 20150601
#: User-level mutations per ``POST /mutate`` batch.
CHURN_BATCH = 5
#: Cumulative kind thresholds; the same mix as ``CHURN_MIX`` in
#: ``benchmarks/record_bench.py``.
CHURN_MIX = (
    ("utility_change", 0.65),
    ("budget_change", 0.80),
    ("add_user", 0.90),
    ("drop_user", 1.00),
)


def op_seed(workload: str, seed: int, index: int) -> int:
    """Generator seed of op ``index`` of a run with ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_instance(dims: Tuple[int, int], gen_seed: int):
    """A fresh synthetic instance (the benchmark's own copy)."""
    from repro.datagen.synthetic import SyntheticConfig, generate_instance

    return generate_instance(
        SyntheticConfig(num_events=dims[0], num_users=dims[1], seed=gen_seed)
    )


def encode_instance(instance) -> bytes:
    """The ``repro.io`` JSON wire form of an instance."""
    from repro.io import instance_to_dict

    return json.dumps(instance_to_dict(instance)).encode()


def _churn_mutation(rng: random.Random, instance):
    from repro.core.deltas import AddUser, BudgetChange, DropUser, UtilityChange

    draw = rng.random()
    kind = next(name for name, ceiling in CHURN_MIX if draw < ceiling)
    if kind == "utility_change":
        event_id = rng.randrange(instance.num_events)
        user_id = rng.randrange(instance.num_users)
        value = 0.0 if rng.random() < 0.2 else round(rng.random(), 6)
        return UtilityChange(event_id, user_id, value)
    if kind == "budget_change":
        user_id = rng.randrange(instance.num_users)
        budget = round(instance.users[user_id].budget * rng.uniform(0.9, 1.1), 3)
        return BudgetChange(user_id, budget)
    if kind == "add_user":
        location = (round(rng.uniform(0, 100), 3), round(rng.uniform(0, 100), 3))
        utilities = [
            0.0 if rng.random() < 0.3 else round(rng.random(), 6)
            for _ in range(instance.num_events)
        ]
        return AddUser(location, round(rng.uniform(5, 40), 3), utilities)
    return DropUser(rng.randrange(instance.num_users))


def churn_batches(base_payload: bytes, seed: int, count: int) -> List[list]:
    """``count`` batches of wire-form mutations, valid in sequence.

    Each mutation is drawn against (and applied to) a private decoded
    copy of the base instance, so ids and budgets always refer to the
    state the server will hold when the batch arrives.
    """
    from repro.core.deltas import apply_mutation
    from repro.io import instance_from_dict, mutation_to_dict

    instance = instance_from_dict(json.loads(base_payload))
    rng = random.Random(op_seed("serve_churn", seed, 0))
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(CHURN_BATCH):
            mutation = _churn_mutation(rng, instance)
            apply_mutation(instance, mutation)
            batch.append(mutation_to_dict(mutation))
        batches.append(batch)
    return batches
