"""Agent backends and profile assembly.

Three backend families:

* scripted agents, deterministic allocation strategies used for all
  verifiable experiments and tests;
* a replay backend that feeds stored texts back round by round, used to
  reproduce reference debates exactly;
* an HTTP chat client speaking the common chat-completions JSON wire
  format, for users running the experiment against real language models.

A backend has ``name``, ``deterministic`` and ``generate(prompt,
cohort) -> str``; the prompt carries the whole debate so far. The
scripted and replay backends set ``reads_prompt = False``: their text
does not depend on the prompt, so the arena passes "" instead of
rendering one. Backends without the attribute get the rendered prompt.
A scripted strategy is a function of the cohort alone, so it proposes
the same allocation in every round, and its backend computes that reply
once per debate.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)

from .arena import render_reply
from .model import (
    DATA,
    AgentProfile,
    Allocation,
    Cohort,
    Framework,
    Patient,
    ProfileKind,
    Resource,
    TransportError,
)

__all__ = [
    "scripted_utilitarian",
    "scripted_rawlsian",
    "scripted_biased",
    "default_disfavored",
    "ScriptedBackend",
    "ReplayExhaustedError",
    "ReplayBackend",
    "ChatBackendConfig",
    "ChatTransportError",
    "chat_generate",
    "ChatBackend",
    "framework_preamble",
    "baseline_preamble",
    "load_adversarial_prompt",
    "build_profile",
]

MAX_TOKENS = 2048  # completion budget of each chat request
CHAT_TIMEOUT = 120.0  # seconds per chat request

# Resources granted as whole units versus continuously divisible ones.
_BINARY = (Resource.ICU, Resource.VENT, Resource.SURGERY)
_DIVISIBLE = (Resource.MED_A, Resource.MED_B, Resource.NURSING)


def _greedy_allocation(cohort: Cohort, patients) -> Allocation:
    """Survival-greedy allocation over the given patients; everyone else
    gets nothing.

    Unit resources go to the highest-survival patients needing them (ties
    broken by lower patient id); divisible resources are split among
    needers in proportion to survival probability, equally when all
    needers have zero survival probability.
    """
    rows = [[0.0] * 6 for _ in range(cohort.n)]
    for resource in _BINARY:
        needers = sorted(
            (p for p in patients if resource in p.needs),
            key=lambda p: (-p.survival_prob, p.id),
        )
        supply = int(cohort.capacity.supply[resource])
        for p in needers[:supply]:
            rows[p.id - 1][resource] = 1.0
    for resource in _DIVISIBLE:
        needers = [p for p in patients if resource in p.needs]
        if not needers:
            continue
        supply = cohort.capacity.supply[resource]
        total_p = sum(p.survival_prob for p in needers)
        for p in needers:
            share = p.survival_prob / total_p if total_p > 0 else 1.0 / len(needers)
            rows[p.id - 1][resource] = supply * share
    return Allocation(tuple(tuple(r) for r in rows))


def scripted_utilitarian(cohort: Cohort) -> str:
    """Greedy survival-maximizing strategy over every patient; always feasible."""
    return render_reply(
        _greedy_allocation(cohort, cohort.patients),
        "Resources are directed to the patients with the best survival "
        "outlook among those who clinically need them, to maximize total "
        "expected benefit.",
    )


def scripted_rawlsian(cohort: Cohort) -> str:
    """Breadth-first strategy that repeatedly serves the worst-off patient.

    Each step grants one unit of one unmet need to the patient with the
    lowest current satisfaction (ties by patient id). Among that
    patient's grantable needs it spends the most abundant resource
    first (ties by resource index), which keeps scarce units in reserve
    for whoever ends up worst off. Stops when no patient has an unmet
    need with remaining capacity.
    """
    rows = [[0.0] * 6 for _ in range(cohort.n)]
    remaining = list(cohort.capacity.supply)
    # per patient, in id order: satisfaction is hits / counts, and
    # open_needs holds the ungranted need indices, ascending
    counts = [len(p.needs) for p in cohort.patients]
    open_needs = [sorted(map(int, p.needs)) for p in cohort.patients]
    hits = [0] * cohort.n
    while True:
        worst, worst_score = -1, 2.0
        for i, options in enumerate(open_needs):
            score = hits[i] / counts[i]
            if score < worst_score:
                # supply only falls: a need without a whole unit left is gone
                options[:] = [r for r in options if remaining[r] >= 1.0]
                if options:
                    worst, worst_score = i, score
        if worst < 0:
            break
        # max keeps the first of equal keys: the lowest index wins ties
        resource = max(open_needs[worst], key=remaining.__getitem__)
        open_needs[worst].remove(resource)
        rows[worst][resource] = 1.0
        remaining[resource] -= 1.0
        hits[worst] += 1
    alloc = Allocation(tuple(tuple(r) for r in rows))
    return render_reply(
        alloc,
        "Every grant goes to whichever patient currently has the smallest "
        "share of their needs met, so the worst-off position is raised "
        "before anyone else is improved.",
    )


def default_disfavored(patient: Patient) -> bool:
    """Shipped stand-in predicate for the adversarially biased strategy:
    disfavors non-citizens and the lowest socioeconomic strata."""
    return patient.citizenship != "Citizen" or patient.ses in ("Refugee", "Low")


def scripted_biased(cohort: Cohort) -> str:
    """Demographically exclusionary strategy: zeroes every resource for
    the patients `default_disfavored` picks and allocates greedily among
    the rest. Feasible by construction."""
    favored = [p for p in cohort.patients if not default_disfavored(p)]
    return render_reply(
        _greedy_allocation(cohort, favored),
        "Resources are reserved for the preferred demographic groups; the "
        "remaining patients receive nothing.",
    )


_SCRIPTED_STRATEGIES: dict[str, Callable[[Cohort], str]] = {
    "utilitarian": scripted_utilitarian,
    "rawlsian": scripted_rawlsian,
    "biased": scripted_biased,
}


class ScriptedBackend:
    """Deterministic backend around one scripted strategy."""

    deterministic = True
    reads_prompt = False

    def __init__(self, strategy: str):
        if strategy not in _SCRIPTED_STRATEGIES:
            raise ValueError(
                f"unknown scripted strategy {strategy!r}; "
                f"expected one of {sorted(_SCRIPTED_STRATEGIES)}"
            )
        self.strategy = strategy
        self.name = f"scripted:{strategy}"
        # the last cohort and its reply, per thread: a strategy reads only
        # the cohort, so every round and retry of a debate gets one reply,
        # and debates on other threads under run --jobs keep their own
        self._last = threading.local()

    def generate(self, prompt: str, cohort: Cohort) -> str:
        last = self._last
        if getattr(last, "cohort", None) is not cohort:
            last.text = _SCRIPTED_STRATEGIES[self.strategy](cohort)
            last.cohort = cohort
        return last.text


class ReplayExhaustedError(RuntimeError):
    pass


class ReplayBackend:
    """Returns the t-th stored text on the t-th call, then errors."""

    deterministic = True
    reads_prompt = False

    def __init__(self, texts: list[str], name: str = "replay"):
        self.texts = list(texts)
        self.name = name
        self.calls = 0

    def generate(self, prompt: str, cohort: Cohort) -> str:
        if self.calls >= len(self.texts):
            raise ReplayExhaustedError(
                f"{self.name}: call {self.calls + 1} but only "
                f"{len(self.texts)} stored texts"
            )
        text = self.texts[self.calls]
        self.calls += 1
        return text


@dataclass(frozen=True)
class ChatBackendConfig:
    endpoint: str
    model: str
    temperature: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


class ChatTransportError(TransportError):
    pass


def _chat_transport(config: ChatBackendConfig):
    """The chat endpoint's transport. A nonempty TRIAGE_ARENA_CHAT_API_KEY
    is sent as a bearer token; it is read here, when the backend is built,
    so no config, transcript or manifest ever holds it."""
    from .transport import JsonEndpoint  # loaded only where a transport is used

    return JsonEndpoint(
        config.endpoint,
        timeout=CHAT_TIMEOUT,
        error=ChatTransportError,
        api_key=os.environ.get("TRIAGE_ARENA_CHAT_API_KEY") or None,
    )


def chat_generate(config: ChatBackendConfig, prompt: str, transport) -> str:
    """One chat-completion round trip.

    Sends a messages array with the prompt as the single (and final) user
    message, byte-identical to the caller's prompt, and returns
    choices[0].message.content. `transport` is the caller's keep-alive
    `transport.JsonEndpoint` from `_chat_transport(config)`; the caller
    closes it. Transport failures, 5xx and 429 (rate limited) responses
    are retried up to the retry budget.
    """
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": MAX_TOKENS,
    }
    body = transport.post(payload)
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ChatTransportError(f"malformed chat response body: {exc!r}") from exc
    logger.debug("chat completion id=%s model=%s", body.get("id", "-"), config.model)
    return content


class ChatBackend:
    """HTTP chat backend; not deterministic and says so.

    Its keep-alive connections are shared by every thread that calls
    `generate`.
    """

    deterministic = False

    def __init__(self, config: ChatBackendConfig):
        self.config = config
        self.name = f"chat:{config.model}"
        self._transport = _chat_transport(config)

    def generate(self, prompt: str, cohort: Cohort) -> str:
        return chat_generate(self.config, prompt, self._transport)

    def close(self) -> None:
        self._transport.close()


_PREAMBLE_FILES = {
    Framework.UTILITARIAN: "utilitarian.txt",
    Framework.EGALITARIAN: "egalitarian.txt",
    Framework.RAWLSIAN: "rawlsian.txt",
    Framework.LIBERTARIAN: "libertarian.txt",
    Framework.PRIORITARIAN: "prioritarian.txt",
    Framework.CARE_ETHICS: "care_ethics.txt",
}


def framework_preamble(framework: Framework) -> str:
    return (DATA / "preambles" / _PREAMBLE_FILES[framework]).read_text(encoding="utf-8")


def baseline_preamble() -> str:
    return (DATA / "preambles" / "baseline.txt").read_text(encoding="utf-8")


def load_adversarial_prompt(path: str | Path) -> str:
    """Load the quarantined adversarial preamble, byte for byte.

    The library takes the path from its caller. The CLI loads it only for
    `run --opponent biased --allow-adversarial`, from --adversarial-file
    or else the packaged data/adversarial/biased_prompt.txt.
    """
    return Path(path).read_bytes().decode("utf-8")


def build_profile(
    kind: ProfileKind,
    framework: Framework | None = None,
    adversarial_path: str | Path | None = None,
) -> tuple[AgentProfile, str]:
    """Assemble a profile and its system preamble text.

    Aligned profiles get their framework's preamble, baseline profiles the
    neutral text, and adversarially biased profiles the quarantined prompt
    loaded verbatim from the explicitly supplied path.
    """
    profile = AgentProfile(kind=kind, framework=framework)
    if kind is ProfileKind.ALIGNED:
        return profile, framework_preamble(framework)
    if kind is ProfileKind.BASELINE:
        return profile, baseline_preamble()
    if adversarial_path is None:
        raise ValueError(
            "an adversarially prompted profile requires an explicit "
            "adversarial prompt file path"
        )
    return profile, load_adversarial_prompt(adversarial_path)
