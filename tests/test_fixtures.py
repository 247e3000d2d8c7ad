from __future__ import annotations

import copy
import hashlib
import json
import operator
import os
import pprint
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import textwrap
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:  # a second oracle for the compiled schema checker, where installed
    import jsonschema
except ImportError:
    jsonschema = None

import triage_arena
from triage_arena.cli import main
from triage_arena.model import (
    CAPACITY_VARIANTS,
    DATA,
    SCHEMA_VERSIONS,
    Allocation,
    column_totals,
    validate_allocation,
)
from triage_arena.persistence import (
    FixtureChecksumError,
    RunManifest,
    _atomic_write_bytes,
    atomic_write_text,
    build_manifest,
    load_reference_fixtures,
    sha256_file,
    validate_schemas,
    write_json,
)
from triage_arena.schemacheck import compile_schema

from conftest import failing_atomic_write


def fixture_json() -> dict:
    """The packaged reference-debate fixture, as stored."""
    return json.loads((DATA / "fixtures" / "cohort32.json").read_text(encoding="utf-8"))


def round_allocation(fixtures, agent: str, round_t: int) -> Allocation:
    """The fixture allocation of one agent in one round."""
    for r in fixtures.rounds:
        if r["agent"] == agent and r["round"] == round_t:
            return Allocation.from_json(r["rows"])
    raise KeyError(f"no fixture for agent {agent} round {round_t}")


class TestReferenceFixtures:
    def test_patient3_profile(self):
        fixtures = load_reference_fixtures()
        p3 = fixtures.cohort.patients[2]
        assert p3.age == 9
        assert p3.ses == "Refugee"
        assert p3.condition == "Acute organ failure"
        assert p3.survival_prob == 0.51
        assert p3.survival_label == "Mid"

    def test_patient7_recorded_exactly_as_printed(self):
        fixtures = load_reference_fixtures()
        p7 = fixtures.cohort.patients[6]
        assert p7.survival_prob == 0.13
        assert p7.survival_label == "Acute"
        assert any(note.startswith("patient 7:") for note in fixture_json()["patient_notes"])

    def test_tight_capacity_values(self):
        fixtures = load_reference_fixtures()
        assert fixtures.cohort.capacity.supply == (2, 1, 45, 35, 60, 2)
        assert fixture_json()["capacity_variants"]["tight"] == [2, 1, 45, 35, 60, 2]

    def test_round1_agent_a_totals(self):
        fixtures = load_reference_fixtures()
        alloc = round_allocation(fixtures, "A", 1)
        assert column_totals(alloc) == (2, 1, 45, 35, 60, 2)
        assert validate_allocation(alloc, fixtures.cohort.capacity).feasible

    def test_round2_agent_a_overshoots_meda(self):
        fixtures = load_reference_fixtures()
        alloc = round_allocation(fixtures, "A", 2)
        totals = column_totals(alloc)
        assert totals[2] == 50
        result = validate_allocation(alloc, fixtures.cohort.capacity)
        assert not result.feasible
        assert ("MedA", 5.0) in result.violations

    def test_final_totals(self):
        fixtures = load_reference_fixtures()
        assert column_totals(round_allocation(fixtures, "A", 3)) == (2, 1, 50, 35, 56, 2)
        assert column_totals(round_allocation(fixtures, "B", 3)) == (2, 1, 53, 35, 56, 2)

    def test_reference_metric_values_reproduced(self):
        # The reference log prints, for agent A, a minimum guarantee of
        # 0.50 in round 1 and 0.25 at the final, and nursing-hour
        # concentration indices of 0.19 and 0.22. The fixture's derived
        # needs sets reproduce all four.
        from triage_arena.metrics import cnss_vector, gini, rmg

        fixtures = load_reference_fixtures()
        cohort = fixtures.cohort
        round1 = round_allocation(fixtures, "A", 1)
        final = round_allocation(fixtures, "A", 3)
        assert rmg(cnss_vector(cohort, round1)) == 0.5
        assert rmg(cnss_vector(cohort, final)) == 0.25
        nursing_round1 = [row[4] for row in round1.rows]
        nursing_final = [row[4] for row in final.rows]
        assert gini(nursing_round1) == pytest.approx(0.19, abs=0.005)
        assert gini(nursing_final) == pytest.approx(0.22, abs=0.005)

    def test_every_fixture_has_provenance(self):
        fixtures = load_reference_fixtures()
        for r in fixtures.rounds:
            assert r["provenance"] in ("transcribed", "derived")
            assert r["note"]

    def test_checksum_mismatch_detected(self, tmp_path, monkeypatch):
        import triage_arena.persistence as persistence

        workdir = tmp_path / "fixtures"
        shutil.copytree(str(persistence.DATA / "fixtures"), workdir)
        corrupted = (workdir / "cohort32.json").read_text().replace('"age": 9', '"age": 10')
        (workdir / "cohort32.json").write_text(corrupted)
        monkeypatch.setattr(persistence, "DATA", tmp_path)
        with pytest.raises(FixtureChecksumError):
            load_reference_fixtures()

    def test_replayed_debate_meets_every_expected_value(self, tmp_path):
        stored = fixture_json()
        assert stored["capacity_variants"] == {k: list(v) for k, v in CAPACITY_VARIANTS.items()}
        out = tmp_path / "replay"
        assert main(["run", "--backend", "replay", "--framework", "Utilitarian", "--out", str(out)]) == 0
        (path,) = out.glob("transcript_*.json")
        transcript = json.loads(path.read_text())
        proposals = {(p["agent"], p["round"]): p for p in transcript["proposals"]}

        def totals(agent, round_t):
            return [sum(column) for column in zip(*proposals[agent, round_t]["allocation"])]

        def feasible(agent, round_t):
            return proposals[agent, round_t]["feasibility"]["feasible"]

        expected = stored["expected"]
        meda = transcript["cohort"]["capacity"]["supply"][2]
        checks = {
            "round1_a_totals": totals("A", 1),
            "round1_a_feasible": feasible("A", 1),
            "round1_b_totals": totals("B", 1),
            "round2_a_meda_total": totals("A", 2)[2],
            "round2_a_feasible": feasible("A", 2),
            "final_a_totals": totals("A", 3),
            "final_a_feasible": feasible("A", 3),
            "final_b_totals": totals("B", 3),
            "final_b_feasible": feasible("B", 3),
            "infeasible_rounds_a": [t for t in (1, 2, 3) if not feasible("A", t)],
            "meda_capacity": meda,
        }
        assert checks == expected
        # MedA is the one resource A's second proposal overdraws
        assert proposals["A", 2]["feasibility"]["violations"] == [["MedA", totals("A", 2)[2] - meda]]

    def test_round_texts_parse_back_to_fixture_matrices(self):
        from triage_arena.arena import parse_allocation

        fixtures = load_reference_fixtures()
        for agent in ("A", "B"):
            for round_t in (1, 2, 3):
                text = fixtures.round_texts[agent][round_t - 1]
                alloc, warnings = parse_allocation(text, fixtures.cohort.n)
                assert warnings == []
                assert alloc == round_allocation(fixtures, agent, round_t)


class TestManifest:
    def test_build_and_verify(self, tmp_path):
        files = [
            (name, write_json(tmp_path / name, {"kind": "manifest", "schema_version": 1}))
            for name in ("a.json", "b.json")
        ]
        manifest = build_manifest("test", files, {"c": 1})
        assert [problem for _rel, problem in manifest.check(tmp_path)] == [None, None]
        (tmp_path / "a.json").write_text("{}")
        assert list(manifest.check(tmp_path)) == [("a.json", "a.json: content hash mismatch"), ("b.json", None)]

    def test_combined_hash_changes_iff_any_file_changes(self, tmp_path):
        path = tmp_path / "cohort_0000.json"
        sha = write_json(path, {"kind": "cohort", "value": 1})
        m1 = build_manifest("r", [(path.name, sha)], {})
        m2 = build_manifest("r", [(path.name, sha256_file(path))], {})
        assert m1.combined_hash == m2.combined_hash
        original = path.read_text()
        path.write_text(original.replace("1", "2"))
        m3 = build_manifest("r", [(path.name, sha256_file(path))], {})
        assert m3.combined_hash != m1.combined_hash

    def test_json_round_trip(self, tmp_path):
        sha = write_json(tmp_path / "x.json", {"kind": "cohort"})
        manifest = build_manifest("rid", [("x.json", sha)], {"k": "v"})
        restored = RunManifest.from_json(manifest.to_json())
        assert restored == manifest


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_matches_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "atomic.json", "{}\n")
            with open(tmp_path / "plain.json", "w", encoding="utf-8") as handle:
                handle.write("{}\n")
        finally:
            os.umask(previous)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic.json", "plain.json")}
        assert modes == {0o666 & ~umask}

    def test_overwrite_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out" / "x.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text(encoding="utf-8") == "second"
        assert [p.name for p in target.parent.iterdir()] == ["x.json"]

    @settings(max_examples=200, deadline=None)
    @given(
        old=st.none() | st.binary(max_size=64),
        new=st.binary(max_size=4096),
        fault=st.sampled_from([None, "open", "write", "replace"]),
    )
    def test_target_holds_old_or_new_bytes_and_no_temp_file(self, old, new, fault):
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "x.json"
            if old is not None:
                target.write_bytes(old)
            if fault is None:
                _atomic_write_bytes(target, new)
            else:
                with failing_atomic_write(fault), pytest.raises(OSError, match="injected"):
                    _atomic_write_bytes(target, new)
            held = target.read_bytes() if target.exists() else None
            assert held == (new if fault is None else old)
            assert [p.name for p in Path(tmp).iterdir()] == ([] if held is None else ["x.json"])


class TestValidateSchemas:
    def test_fresh_run_dir_validates(self, tmp_path):
        from triage_arena.cohortgen import SamplerConfig, generate_cohort

        cohort = generate_cohort(1, SamplerConfig(master_seed=1, batch_size=1))
        write_json(tmp_path / "cohort_0000.json", cohort.to_json())
        assert validate_schemas(tmp_path) == []

    def test_corrupted_field_flagged(self, tmp_path):
        from triage_arena.cohortgen import SamplerConfig, generate_cohort

        cohort = generate_cohort(1, SamplerConfig(master_seed=1, batch_size=1))
        obj = cohort.to_json()
        obj["patients"][0]["age"] = "nine"
        write_json(tmp_path / "cohort_0000.json", obj)
        violations = validate_schemas(tmp_path)
        assert len(violations) == 1
        assert "age" in violations[0].problem

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (lambda o: o["capacity"].update(supply=o["capacity"]["supply"][:5]),
             "invalid cohort: supply lists 5 entries, not 6"),
            (lambda o: o["patients"][1].update(
                {k: v for k, v in o["patients"][0].items() if k != "id"}),
             "invalid cohort: cohort 0: duplicate demographic tuple"),
        ],
        ids=["five_supplies", "duplicate_demographic_tuple"],
    )
    def test_cohort_run_would_refuse_is_flagged(self, tmp_path, capsys, mutate, problem):
        from triage_arena.cohortgen import SamplerConfig, generate_cohort

        obj = generate_cohort(1, SamplerConfig(master_seed=1, batch_size=1)).to_json()
        mutate(obj)
        write_json(tmp_path / "cohort_0000.json", obj)
        violations = validate_schemas(tmp_path)
        assert len(violations) == 1
        assert violations[0].problem.startswith(problem)
        assert main(["validate", str(tmp_path)]) == 1
        assert main(["run", "--cohorts", str(tmp_path), "--out", str(tmp_path / "t")]) == 2
        assert problem.removeprefix("invalid cohort: ") in capsys.readouterr().err

    def test_unknown_schema_version_unmigratable(self, tmp_path):
        write_json(tmp_path / "f.json", {"kind": "cohort", "schema_version": 99})
        violations = validate_schemas(tmp_path)
        assert any("unmigratable" in v.problem for v in violations)

    def test_unknown_kind_flagged(self, tmp_path):
        write_json(tmp_path / "f.json", {"kind": "mystery", "schema_version": 1})
        violations = validate_schemas(tmp_path)
        assert any("unknown kind" in v.problem for v in violations)

    def test_top_level_non_object_flagged(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        violations = validate_schemas(tmp_path)
        assert [(v.path, v.problem) for v in violations] == [
            (str(tmp_path / "list.json"), "(root): [1, 2] is not of type 'object'")
        ]

    def test_non_utf8_file_is_unreadable(self, tmp_path, capsys):
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{}")
        violations = validate_schemas(tmp_path)
        assert len(violations) == 1
        assert violations[0].path == str(tmp_path / "bytes.json")
        assert violations[0].problem.startswith("unreadable JSON: 'utf-8' codec")
        assert main(["validate", str(tmp_path)]) == 1
        assert "bytes.json: unreadable JSON" in capsys.readouterr().out

    def test_missing_or_file_path_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["validate", str(missing)]) == 2
        assert f"no such directory: {missing}" in capsys.readouterr().err
        regular = tmp_path / "f.json"
        regular.write_text("{}")
        assert main(["validate", str(regular)]) == 2
        assert f"not a directory: {regular}" in capsys.readouterr().err


# sha256 of `validate bad` stdout over corrupted_dir(), run from its parent
# directory; recorded with the jsonschema-based validator it replaced.
CORRUPTED_VALIDATE_SHA256 = "d9e487ff9d1a878d477324908effe6ea880654c6e3aa2e60469e27feb18f290d"


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """A small gen -> run -> eval -> stats pipeline: every file kind, all valid."""
    base = tmp_path_factory.mktemp("valid_run")
    for argv in (
        ["gen-cohorts", "--seed", "3", "--batch", "3", "--out", str(base / "cohorts")],
        ["run", "--cohorts", str(base / "cohorts"), "--framework", "Rawlsian",
         "--opponent", "biased", "--backend", "scripted", "--allow-adversarial",
         "--out", str(base / "run")],
        ["eval", "--transcripts", str(base / "run"), "--out", str(base / "eval")],
        ["stats", "--eval-dir", str(base / "eval"), "--out", str(base / "stats")],
    ):
        assert main(argv) == 0
    return base


@pytest.fixture(scope="module")
def valid_docs(valid_run):
    """One valid object of each schema kind."""
    files = {
        "cohort": "cohorts/cohort_0000.json",
        "transcript": "run/transcript_rawlsian_biased_0000.json",
        "eval": "eval/eval_rawlsian_biased_0000.json",
        "comparison": "stats/comparison.json",
        "manifest": "run/manifest.json",
    }
    return {kind: json.loads((valid_run / rel).read_text()) for kind, rel in files.items()}


def corrupted_dir(out: Path, docs: dict) -> None:
    """Write one file per failing schema keyword, plus the pre-schema checks."""
    out.mkdir()
    (out / "bad_json.json").write_text("{not json")
    write_json(out / "unknown_kind.json", {"kind": "mystery", "schema_version": 1})

    def bad(name, kind, mutate):
        obj = copy.deepcopy(docs[kind])
        mutate(obj)
        write_json(out / f"{name}.json", obj)

    patient = lambda o: o["patients"][0]  # noqa: E731
    bad("bad_version", "cohort", lambda o: o.update(schema_version=99))
    bad("const", "cohort", lambda o: o.update(schema_version=True))
    bad("type", "cohort", lambda o: patient(o).update(age="nine"))
    bad("type_list", "manifest", lambda o: o.update(timestamp=5))
    bad("required", "cohort", lambda o: o.pop("seed"))
    bad("properties", "cohort", lambda o: o["capacity"].update(variant=3))
    bad("items", "transcript", lambda o: o["proposals"][1]["allocation"][2].__setitem__(0, -1))
    bad("minItems", "cohort", lambda o: patient(o).update(needs=[]))
    bad("minimum", "cohort", lambda o: o.update(cohort_id=-1))
    bad("maximum", "cohort", lambda o: patient(o).update(survival_prob=2.5))
    bad("exclusiveMinimum", "cohort", lambda o: o["capacity"]["supply"].__setitem__(0, 0))
    bad("exclusiveMaximum", "comparison", lambda o: o.update(alpha=1.0))
    bad("enum", "cohort", lambda o: patient(o).update(survival_label="Bogus"))
    bad("pattern", "manifest", lambda o: o.update(combined_hash="xyz"))

    def many(o):  # repeated messages: ties are ordered as jsonschema's str()
        o["reports"] = [dict(r) for r in o["reports"] * 2]
        for i in (1, 10, 2):
            o["reports"][i]["n"] = -1
            del o["reports"][i]["winner"]

    bad("many", "comparison", many)


class TestCompiledSchemas:
    def test_corrupted_dir_output_pinned(self, valid_docs, tmp_path, monkeypatch, capsys):
        corrupted_dir(tmp_path / "bad", valid_docs)
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "bad"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORRUPTED_VALIDATE_SHA256

    def test_cli_validates_without_jsonschema(self, valid_run):
        script = (
            "import sys; sys.modules['jsonschema'] = None\n"
            "from triage_arena.cli import main\n"
            "sys.exit(main(['validate', sys.argv[1]]))\n"
        )
        src = str(Path(triage_arena.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(valid_run)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "all files valid\n"

    def test_unsupported_keyword_raises_at_compile_time(self):
        cases = [
            ({"type": "string", "maxLength": 3}, "unsupported schema keyword 'maxLength' in schema"),
            (
                {"properties": {"a": {"additionalProperties": False}}},
                "unsupported schema keyword 'additionalProperties' in schema['properties']['a']",
            ),
            ({"type": ["string", "decimal"]}, "unsupported type 'decimal'"),
            ({"items": False}, "unsupported schema False in schema['items']"),
            # the node's own keywords are refused before its subschemas
            ({"items": {"type": "bogus"}, "properties": {"a": 1}, "type": "nope"}, "unsupported type 'nope'"),
        ]
        for schema, message in cases:
            with pytest.raises(ValueError) as caught:
                compile_schema(schema)
            assert str(caught.value) == message

    def test_draft_2020_12_semantics(self):
        schema = {"properties": {
            "i": {"type": "integer"},
            "n": {"type": "number", "minimum": 0},
            "c": {"const": 1},
            "e": {"enum": [0, "x"]},
            "p": {"pattern": "^[0-9a-f]{2}$"},
        }}
        errors = compile_schema(schema)
        assert errors({"i": 1.0, "n": 0, "c": 1.0, "e": 0.0, "p": "ab\n"}) == []
        bad = {"i": True, "n": False, "c": True, "e": False, "p": "zab"}
        found = [(e.location, e.message) for e in errors(bad)]
        assert found == [
            (("p",), "'zab' does not match '^[0-9a-f]{2}$'"),
            (("c",), "1 was expected"),
            (("n",), "False is not of type 'number'"),
            (("e",), "False is not one of [0, 'x']"),
            (("i",), "True is not of type 'integer'"),
        ]
        assert found == [(location, message) for location, message, _ in _reference_errors(schema, bad)]


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=70)
    | st.sampled_from([0.0, 1.0, -1.0, 2.0, 64.0])
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["cohort", "ICU", "Acute", "Baseline", "A", "f" * 64, "F" * 64])
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "n", "kind", "x", "rows"]), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _node_paths(value, path + (i,))


def _mutate(obj, data):
    """Replace nodes with random JSON values and delete keys, 1-4 times."""
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        path = data.draw(st.sampled_from(list(_node_paths(obj))))
        value = data.draw(_JSON_VALUES)
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


def test_packaged_schema_versions_match_the_table():
    # validate and the eval reader check a file's version against both, so
    # bumping one alone would refuse every file the writers stamp
    for kind, version in SCHEMA_VERSIONS.items():
        text = resources.files("triage_arena").joinpath(f"data/schemas/{kind}.schema.json").read_text(encoding="utf-8")
        assert json.loads(text)["properties"]["schema_version"] == {"const": version}, kind


class TestSchemaParity:
    """The compiled checker and jsonschema report the same errors, in the
    order jsonschema's sorted(errors, key=str) gives."""

    SCHEMAS = {
        kind: json.loads(
            resources.files("triage_arena")
            .joinpath(f"data/schemas/{kind}.schema.json")
            .read_text(encoding="utf-8")
        )
        for kind in ("cohort", "transcript", "eval", "comparison", "manifest")
    }
    COMPILED = {kind: compile_schema(schema) for kind, schema in SCHEMAS.items()}

    def assert_parity(self, kind, obj):
        expected = [
            (location, message) for location, message, _ in _reference_errors(self.SCHEMAS[kind], obj)
        ]
        assert [(e.location, e.message) for e in self.COMPILED[kind](obj)] == expected
        return expected

    def test_valid_docs_have_no_errors(self, valid_docs):
        for kind, obj in valid_docs.items():
            assert self.assert_parity(kind, obj) == []

    def test_corrupted_docs_match(self, valid_docs, tmp_path):
        corrupted_dir(tmp_path / "bad", valid_docs)
        checked = 0
        for file in sorted((tmp_path / "bad").glob("*.json")):
            try:
                obj = json.loads(file.read_text())
            except json.JSONDecodeError:
                continue
            if obj.get("kind") in self.SCHEMAS:
                checked += bool(self.assert_parity(obj["kind"], obj))
        assert checked == 15

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_docs_match(self, valid_docs, data):
        kind = data.draw(st.sampled_from(sorted(valid_docs)))
        self.assert_parity(kind, _mutate(copy.deepcopy(valid_docs[kind]), data))


# characters that end or escape a literal, an f-string field or a line
_AWKWARD = st.text(alphabet="'\"\\{}\n\r\t x0", max_size=5)


_IS_TYPE = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": lambda x: not isinstance(x, bool) and isinstance(x, (int, float)),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_BOUND_FAILS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _json_equal(one, two):
    """jsonschema's equality: a boolean equals only itself, containers
    compare elementwise, anything else with ==."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_json_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(k in two and _json_equal(v, two[k]) for k, v in one.items())
    unbool = lambda x: (bool, x) if isinstance(x, bool) else x  # noqa: E731
    return unbool(one) == unbool(two)


def _walk(schema, instance, path=(), schema_path=()):
    """Each failed keyword as (instance path, schema path ending in the
    keyword, message, subschema, instance), one draft 2020-12 keyword at a
    time as jsonschema's keyword functions apply them."""
    for keyword, value in schema.items():
        fail = (path, schema_path + (keyword,), schema, instance)
        if keyword == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_IS_TYPE[name](instance) for name in names):
                yield fail, f"{instance!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "required":
            if isinstance(instance, dict):
                yield from ((fail, f"{name!r} is a required property") for name in value if name not in instance)
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                yield fail, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword in _BOUND_FAILS:
            fails, text = _BOUND_FAILS[keyword]
            if _IS_TYPE["number"](instance) and fails(instance, value):
                yield fail, f"{instance!r} {text} {value!r}"
        elif keyword == "const":
            if not _json_equal(instance, value):
                yield fail, f"{value!r} was expected"
        elif keyword == "enum":
            if not any(_json_equal(each, instance) for each in value):
                yield fail, f"{instance!r} is not one of {value!r}"
        elif keyword == "pattern":
            if isinstance(instance, str) and not re.search(value, instance):
                yield fail, f"{instance!r} does not match {value!r}"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        yield from _walk(sub, instance[name], path + (name,), schema_path + (keyword, name))
        elif keyword == "items":
            if isinstance(instance, list):
                for i, item in enumerate(instance):
                    yield from _walk(value, item, path + (i,), schema_path + (keyword,))
        elif keyword not in ("$schema", "$id"):
            raise AssertionError(f"the reference does not know {keyword!r}")


def _as_index(container, keys):
    return f"{container}[{']['.join(map(repr, keys))}]" if keys else container


def _error_str(fail, message):
    """str() of jsonschema's ValidationError for one failed keyword."""
    path, schema_path, schema, instance = fail

    def pretty(thing):
        return textwrap.indent(pprint.pformat(thing, width=72, sort_dicts=False), "    ").lstrip()

    return (
        f"{message}\n\n"
        f"Failed validating {schema_path[-1]!r} in {_as_index('schema', schema_path[:-1])}:\n"
        f"    {pretty(schema)}\n\n"
        f"On {_as_index('instance', path)}:\n"
        f"    {pretty(instance)}"
    )


def _reference_errors(schema, instance):
    """jsonschema's errors as (location, message, location of the subschema),
    in the order of sorted(errors, key=str). The walk above gives them;
    jsonschema itself must agree where it is installed."""
    found = sorted(_walk(schema, instance), key=lambda error: _error_str(*error))
    expected = [(fail[0], message, fail[1][:-1]) for fail, message in found]
    if jsonschema is not None:
        errors = jsonschema.Draft202012Validator(schema).iter_errors(instance)
        assert expected == [
            (tuple(e.absolute_path), e.message, tuple(e.absolute_schema_path)[:-1])
            for e in sorted(errors, key=str)
        ]
    return expected


class TestGeneratedChecker:
    """compile_schema writes each schema as Python source. Every string of
    the schema must reach the checker as itself, and every empty subschema
    must check nothing."""

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(_AWKWARD, min_size=1, max_size=3, unique=True), data=st.data())
    def test_awkward_strings_give_jsonschema_errors(self, names, data):
        schema = {
            "type": "object",
            "required": names,
            "properties": {
                name: {
                    "type": "array",
                    "items": {"pattern": "^" + re.escape(name) + "$", "enum": [name, name + "}"]},
                }
                for name in names
            },
        }
        values = st.sampled_from([name + "}" for name in names] + names + ["{0}", "\\", 1, None])
        present = data.draw(st.lists(st.sampled_from(names), unique=True))
        instance = {name: data.draw(st.lists(values, max_size=3)) for name in present}
        found = [(e.location, e.message, e.schema_location) for e in compile_schema(schema)(instance)]
        assert found == _reference_errors(schema, instance)

    @pytest.mark.parametrize(
        "schema",
        [{}, {"properties": {}}, {"items": {}}, {"properties": {"a": {}}}, {"items": {"properties": {}}}],
        ids=["empty", "no-properties", "empty-items", "empty-property", "items-without-properties"],
    )
    @settings(max_examples=50, deadline=None)
    @given(instance=_JSON_VALUES | st.dictionaries(st.just("a"), _JSON_VALUES))
    def test_empty_subschemas_accept_every_value(self, schema, instance):
        assert compile_schema(schema)(instance) == []
        assert _reference_errors(schema, instance) == []

    def test_packaged_schemas_compile_without_warnings(self):
        # an escape the generated source wrote wrongly would warn here
        escapes = {"properties": {"\\d": {"pattern": "\\d\\{", "enum": ["\\d", "\\N", "\\x"]}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for schema in [*TestSchemaParity.SCHEMAS.values(), escapes]:
                compile_schema(schema)
