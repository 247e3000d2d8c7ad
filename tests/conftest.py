from __future__ import annotations

import os
from contextlib import closing, contextmanager
from unittest import mock

import numpy as np
import pytest

from triage_arena import fanout, persistence
from triage_arena.agents import ChatBackend
from triage_arena.cohortgen import SamplerConfig, generate_cohort
from triage_arena.model import (
    Allocation,
    Cohort,
    Patient,
    Resource,
    capacity_for_variant,
    discretize_survival,
)


@pytest.fixture
def transport_retries(monkeypatch):
    """The JSON transport retries without sleeping; call the fixture's
    value with a budget to replace the fixed two retries."""
    from triage_arena import transport  # imported here: it loads http.client

    monkeypatch.setattr(transport, "BACKOFF", 0.0)
    return lambda retries: monkeypatch.setattr(transport, "RETRIES", retries)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may run on to the first n, and lets 4
    items fill a worker of fanout.fan_out; records the pid of every fork."""
    monkeypatch.setattr(fanout, "_MIN_ITEMS_PER_WORKER", 4)
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forked

    return set_cpus


def no_child_left() -> bool:
    """True when this process has no child, reaped or not; fails otherwise."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture(scope="session")
def sampler_config() -> SamplerConfig:
    return SamplerConfig(master_seed=42, batch_size=5)


@pytest.fixture(scope="session")
def cohort(sampler_config) -> Cohort:
    return generate_cohort(1234, sampler_config, cohort_id=0)


def make_patient(
    pid: int,
    *,
    age: int = 40,
    gender: str = "Female",
    race: str = "White",
    ses: str = "Middle",
    citizenship: str = "Citizen",
    needs=(Resource.ICU, Resource.NURSING),
    survival: float = 0.8,
    slot: str = "slot_1_life_years",
) -> Patient:
    return Patient(
        id=pid,
        age=age,
        gender=gender,
        race=race,
        ses=ses,
        citizenship=citizenship,
        condition="Test condition",
        needs=frozenset(needs),
        survival_prob=survival,
        survival_label=discretize_survival(survival),
        occupation="Tester",
        family_status="None",
        slot_id=slot,
    )


def make_cohort(patients, variant: str = "standard", cohort_id: int = 0) -> Cohort:
    return Cohort(
        cohort_id=cohort_id,
        seed=0,
        patients=tuple(patients),
        capacity=capacity_for_variant(variant),
    )


def random_allocation(rng: np.random.Generator, n: int = 8, k: int = 6, max_units: int = 12) -> Allocation:
    rows = rng.integers(0, max_units + 1, size=(n, k)).astype(float)
    return Allocation(tuple(tuple(row) for row in rows))


def scaled(alloc: Allocation, factor: float) -> Allocation:
    """alloc with every cell multiplied by factor."""
    return Allocation(tuple(tuple(v * factor for v in row) for row in alloc.rows))


def random_cohort_and_allocation(rng: np.random.Generator, config: SamplerConfig):
    seed = int(rng.integers(0, 2**32))
    cohort = generate_cohort(seed, config, cohort_id=int(rng.integers(0, 10_000)))
    alloc = random_allocation(rng, n=cohort.n)
    return cohort, alloc


def chat_reply(config, prompt: str) -> str:
    """One reply from a chat backend closed after it."""
    with closing(ChatBackend(config)) as backend:
        return backend.generate(prompt, None)


@contextmanager
def failing_atomic_write(point: str):
    """Make persistence's atomic write raise an OSError at one point:
    "open" (creating the temp file), "write" (once half of the bytes are
    in the temp file) or "replace" (renaming it over the target)."""
    real_fdopen = os.fdopen

    def fail(*args, **kwargs):
        raise OSError(f"injected failure at {point}")

    def torn_fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        write = handle.write

        def half(data):
            write(data[: len(data) // 2])
            handle.flush()
            fail()

        handle.write = half
        return handle

    name, fake = {"open": ("open", fail), "write": ("fdopen", torn_fdopen), "replace": ("replace", fail)}[point]
    with mock.patch.object(persistence.os, name, fake):
        yield
