from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triage_arena import agents
from triage_arena.agents import (
    ChatBackend,
    ChatBackendConfig,
    ChatTransportError,
    ReplayBackend,
    ReplayExhaustedError,
    ScriptedBackend,
    build_profile,
    baseline_preamble,
    default_disfavored,
    framework_preamble,
    scripted_biased,
    scripted_rawlsian,
    scripted_utilitarian,
)
from triage_arena.arena import parse_allocation, render_reply
from triage_arena.cohortgen import SamplerConfig, generate_cohort
from triage_arena.metrics import cnss, cnss_vector, rmg
from triage_arena.model import (
    Allocation,
    Framework,
    ProfileKind,
    Resource,
    validate_allocation,
)

from conftest import chat_reply, make_cohort, make_patient

def reference_scripted_rawlsian(cohort) -> str:
    """The strategy as first written: it rebuilds every patient's grantable
    needs at every step. Kept as the oracle for the incremental version."""
    n = cohort.n
    rows = [[0.0] * 6 for _ in range(n)]
    remaining = list(cohort.capacity.supply)

    def grantable(p):
        # Resource.ICU is the zero member, so never truth-test the result
        options = [
            r
            for r in sorted(p.needs)
            if rows[p.id - 1][r.value] == 0 and remaining[r.value] >= 1.0
        ]
        if not options:
            return None
        return max(options, key=lambda r: (remaining[r.value], -r.value))

    while True:
        candidates = [
            (cnss(p, rows[p.id - 1]), p.id, p)
            for p in cohort.patients
            if grantable(p) is not None
        ]
        if not candidates:
            break
        _, _, patient = min(candidates, key=lambda t: (t[0], t[1]))
        resource = grantable(patient)
        rows[patient.id - 1][resource.value] = 1.0
        remaining[resource.value] -= 1.0
    alloc = Allocation(tuple(tuple(r) for r in rows))
    return render_reply(
        alloc,
        "Every grant goes to whichever patient currently has the smallest "
        "share of their needs met, so the worst-off position is raised "
        "before anyone else is improved.",
    )


def parse_strategy_output(text: str, cohort):
    alloc, warnings = parse_allocation(text, n=cohort.n)
    return alloc, warnings


class TestScriptedUtilitarian:
    def test_degenerate_cohort_single_survivor_takes_all_needs(self):
        patients = [
            make_patient(1, survival=1.0, needs=(Resource.ICU, Resource.MED_A, Resource.NURSING)),
            make_patient(2, age=50, survival=0.0, needs=(Resource.ICU, Resource.MED_A)),
            make_patient(3, age=60, survival=0.0, needs=(Resource.NURSING,)),
        ]
        cohort = make_cohort(patients)
        alloc, _ = parse_strategy_output(scripted_utilitarian(cohort), cohort)
        vec = cnss_vector(cohort, alloc)
        assert vec.values[0] == 1.0

    def test_always_feasible_over_1000_cohorts(self, sampler_config):
        tight = SamplerConfig(
            master_seed=7, batch_size=1, capacity_variant="tight",
            slots=sampler_config.slots,
        )
        rng = np.random.Generator(np.random.Philox(53))
        for _ in range(1000):
            cohort = generate_cohort(int(rng.integers(2**32)), tight)
            alloc, warnings = parse_strategy_output(scripted_utilitarian(cohort), cohort)
            assert warnings == []
            assert validate_allocation(alloc, cohort.capacity).feasible

    def test_binary_tie_breaks_by_lower_patient_id(self):
        patients = [
            make_patient(1, survival=0.8, needs=(Resource.VENT,)),
            make_patient(2, age=50, survival=0.8, needs=(Resource.VENT,)),
            make_patient(3, age=60, survival=0.8, needs=(Resource.VENT,)),
        ]
        cohort = make_cohort(patients, variant="tight")  # one ventilator
        alloc, _ = parse_strategy_output(scripted_utilitarian(cohort), cohort)
        assert alloc.rows[0][Resource.VENT.value] == 1.0
        assert alloc.rows[1][Resource.VENT.value] == 0.0


class TestScriptedBiased:
    def test_predicate_matching_nobody_reduces_to_utilitarian(self, cohort, monkeypatch):
        monkeypatch.setattr(agents, "default_disfavored", lambda p: False)
        text = scripted_biased(cohort)
        assert parse_allocation(text, cohort.n)[0] == parse_allocation(
            scripted_utilitarian(cohort), cohort.n
        )[0]

    def test_predicate_matching_everybody_gives_zero_allocation(self, cohort, monkeypatch):
        monkeypatch.setattr(agents, "default_disfavored", lambda p: True)
        alloc, _ = parse_strategy_output(scripted_biased(cohort), cohort)
        assert all(v == 0 for row in alloc.rows for v in row)

    def test_rmg_zero_whenever_someone_is_disfavored(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(59))
        for _ in range(50):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            disfavored = [p for p in cohort.patients if default_disfavored(p)]
            assert disfavored, "default slots always include a non-citizen"
            alloc, _ = parse_strategy_output(scripted_biased(cohort), cohort)
            assert rmg(cnss_vector(cohort, alloc)) == 0.0


class TestScriptedRawlsian:
    def test_ample_capacity_serves_everyone_fully(self):
        # binary demand fits within standard supply, so everyone reaches 1.0
        patients = [
            make_patient(1, needs=(Resource.ICU, Resource.VENT, Resource.NURSING)),
            make_patient(2, age=50, needs=(Resource.ICU, Resource.MED_A)),
            make_patient(3, age=60, needs=(Resource.SURGERY, Resource.MED_B, Resource.NURSING)),
        ]
        cohort = make_cohort(patients)
        alloc, _ = parse_strategy_output(scripted_rawlsian(cohort), cohort)
        vec = cnss_vector(cohort, alloc)
        assert rmg(vec) == 1.0

    def test_dominates_biased_on_minimum_guarantee(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(61))
        for _ in range(50):
            cohort = generate_cohort(int(rng.integers(2**32)), sampler_config)
            rawls, _ = parse_strategy_output(scripted_rawlsian(cohort), cohort)
            biased, _ = parse_strategy_output(scripted_biased(cohort), cohort)
            assert rmg(cnss_vector(cohort, rawls)) >= rmg(cnss_vector(cohort, biased))

    def test_beats_utilitarian_rmg_on_most_tight_cohorts(self, sampler_config):
        # regression guard on the strategy pair, not a claim from any source
        tight = SamplerConfig(
            master_seed=5, batch_size=1, capacity_variant="tight",
            slots=sampler_config.slots,
        )
        rng = np.random.Generator(np.random.Philox(67))
        wins = 0
        total = 1000
        for _ in range(total):
            cohort = generate_cohort(int(rng.integers(2**32)), tight)
            rawls, _ = parse_strategy_output(scripted_rawlsian(cohort), cohort)
            util, _ = parse_strategy_output(scripted_utilitarian(cohort), cohort)
            if rmg(cnss_vector(cohort, rawls)) >= rmg(cnss_vector(cohort, util)):
                wins += 1
        assert wins / total >= 0.9

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        variant=st.sampled_from(["standard", "tight", "abundant"]),
    )
    def test_matches_the_reference_on_generated_cohorts(self, seed, variant):
        cohort = generate_cohort(seed, SamplerConfig(batch_size=1, capacity_variant=variant))
        assert scripted_rawlsian(cohort) == reference_scripted_rawlsian(cohort)

    def test_ties_go_to_the_lower_patient_id_then_the_lower_resource_index(self):
        # tight supply: ICU 2, Surgery 2. Everyone starts at CNSS 0, so
        # patient 1 goes first and picks ICU over the equally abundant
        # Surgery; patient 2 then takes the last ICU unit, and patient 3,
        # with nothing grantable left, gets nothing.
        patients = [
            make_patient(1, needs=(Resource.ICU, Resource.SURGERY)),
            make_patient(2, age=50, needs=(Resource.ICU,)),
            make_patient(3, age=60, needs=(Resource.ICU,)),
        ]
        cohort = make_cohort(patients, variant="tight")
        text = scripted_rawlsian(cohort)
        assert text == reference_scripted_rawlsian(cohort)
        alloc, _ = parse_strategy_output(text, cohort)
        assert alloc.rows == (
            (1.0, 0.0, 0.0, 0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        )

    def test_always_feasible(self, sampler_config):
        rng = np.random.Generator(np.random.Philox(71))
        for variant in ("standard", "tight", "abundant"):
            config = SamplerConfig(
                master_seed=11, batch_size=1, capacity_variant=variant,
                slots=sampler_config.slots,
            )
            for _ in range(100):
                cohort = generate_cohort(int(rng.integers(2**32)), config)
                alloc, warnings = parse_strategy_output(scripted_rawlsian(cohort), cohort)
                assert warnings == []
                assert validate_allocation(alloc, cohort.capacity).feasible


class TestScriptedBackendContract:
    def test_outputs_parse_cleanly_with_zero_warnings(self, cohort):
        for strategy in ("utilitarian", "rawlsian", "biased"):
            backend = ScriptedBackend(strategy)
            text = backend.generate("ignored", cohort)
            _, warnings = parse_allocation(text, cohort.n)
            assert warnings == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown scripted strategy"):
            ScriptedBackend("leximin")

    def test_pure_function_of_inputs(self, cohort):
        a = scripted_rawlsian(cohort)
        b = scripted_rawlsian(cohort)
        assert a == b


class TestReplay:
    def test_returns_texts_in_order_then_errors(self):
        backend = ReplayBackend(["one", "two", "three"])
        cohort = None
        assert [backend.generate("", cohort) for _ in range(3)] == ["one", "two", "three"]
        with pytest.raises(ReplayExhaustedError):
            backend.generate("", cohort)


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    calls = 0
    captured = []
    headers_seen = []

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        cls.captured.append(payload)
        cls.headers_seen.append(self.headers.items())
        if cls.calls <= cls.fail_times:
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "FIXED BODY"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.fail_times = 0
    _ChatHandler.fail_status = 500
    _ChatHandler.calls = 0
    _ChatHandler.captured = []
    _ChatHandler.headers_seen = []
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestChatClient:
    def test_echoes_fixed_body(self, chat_server):
        config = ChatBackendConfig(endpoint=chat_server, model="test-model")
        assert chat_reply(config, "hello") == "FIXED BODY"

    def test_500_three_times_with_budget_two_surfaces_error(self, chat_server, transport_retries):
        _ChatHandler.fail_times = 3
        transport_retries(2)
        config = ChatBackendConfig(endpoint=chat_server, model="m")
        with pytest.raises(ChatTransportError):
            chat_reply(config, "hello")
        assert _ChatHandler.calls == 3

    def test_429_is_retried_like_a_server_error(self, chat_server, transport_retries):
        _ChatHandler.fail_times = 1
        _ChatHandler.fail_status = 429
        transport_retries(2)
        config = ChatBackendConfig(endpoint=chat_server, model="m")
        assert chat_reply(config, "hello") == "FIXED BODY"
        assert _ChatHandler.calls == 2

    def test_other_4xx_is_not_retried(self, chat_server, transport_retries):
        _ChatHandler.fail_times = 1
        _ChatHandler.fail_status = 400
        transport_retries(2)
        config = ChatBackendConfig(endpoint=chat_server, model="m")
        with pytest.raises(ChatTransportError, match="HTTP 400"):
            chat_reply(config, "hello")
        assert _ChatHandler.calls == 1

    def test_prompt_appears_exactly_once_as_final_user_message(self, chat_server):
        config = ChatBackendConfig(endpoint=chat_server, model="m")
        prompt = "allocate wisely éø"
        chat_reply(config, prompt)
        payload = _ChatHandler.captured[-1]
        user_messages = [m for m in payload["messages"] if m["role"] == "user"]
        assert len(user_messages) == 1
        assert payload["messages"][-1]["content"] == prompt
        assert json.dumps(payload).count(json.dumps(prompt)[1:-1]) == 1

    def test_api_key_variable_is_sent_as_a_bearer_token(self, chat_server, monkeypatch):
        monkeypatch.setenv("TRIAGE_ARENA_CHAT_API_KEY", "sk-test-1234")
        config = ChatBackendConfig(endpoint=chat_server, model="m")
        assert chat_reply(config, "hello") == "FIXED BODY"
        assert ("Authorization", "Bearer sk-test-1234") in _ChatHandler.headers_seen[-1]
        assert "sk-test-1234" not in repr(config)

    @pytest.mark.parametrize("value", [None, ""])
    def test_no_authorization_header_without_a_key(self, chat_server, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("TRIAGE_ARENA_CHAT_API_KEY", raising=False)
        else:
            monkeypatch.setenv("TRIAGE_ARENA_CHAT_API_KEY", value)
        chat_reply(ChatBackendConfig(endpoint=chat_server, model="m"), "hello")
        # the request a keyless endpoint always got, header for header
        names = [name for name, _ in _ChatHandler.headers_seen[-1]]
        assert names == ["Host", "Accept-Encoding", "Content-Length", "Content-Type", "User-Agent"]

    @pytest.mark.parametrize("key", ["sk bad", "sk-bad\r\nX-Injected: 1", "sk-é"])
    def test_malformed_api_key_rejected_without_echoing_it(self, chat_server, monkeypatch, key):
        monkeypatch.setenv("TRIAGE_ARENA_CHAT_API_KEY", key)
        with pytest.raises(ValueError, match="API key must be printable ASCII") as excinfo:
            ChatBackend(ChatBackendConfig(endpoint=chat_server, model="m"))
        assert "sk" not in str(excinfo.value)
        assert _ChatHandler.calls == 0

    def test_bad_url_rejected_at_config_time(self):
        config = ChatBackendConfig(endpoint="ftp://nope", model="m")
        with pytest.raises(ValueError, match=r"endpoint must be an http\(s\) URL, got 'ftp://nope'"):
            ChatBackend(config)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatBackendConfig(endpoint="http://x", model="m", temperature=-1)


class TestProfiles:
    def test_baseline_preamble_names_no_framework(self):
        _, system = build_profile(ProfileKind.BASELINE)
        for fw in Framework:
            assert fw.value not in system
        assert system == baseline_preamble()

    def test_adversarial_preamble_is_byte_identical_to_file(self):
        path = resources.files("triage_arena").joinpath("data/adversarial/biased_prompt.txt")
        profile, system = build_profile(ProfileKind.BIASED, adversarial_path=str(path))
        assert system.encode("utf-8") == path.read_bytes()
        assert profile.kind is ProfileKind.BIASED

    def test_adversarial_requires_explicit_path(self):
        with pytest.raises(ValueError, match="explicit"):
            build_profile(ProfileKind.BIASED)

    def test_aligned_with_retrieval_sets_flag(self):
        # an aligned profile retrieves through the framework it names
        profile, system = build_profile(ProfileKind.ALIGNED, Framework.RAWLSIAN)
        assert profile.framework is Framework.RAWLSIAN
        assert system == framework_preamble(Framework.RAWLSIAN)

    def test_every_framework_has_a_preamble(self):
        for fw in Framework:
            assert len(framework_preamble(fw)) > 100
