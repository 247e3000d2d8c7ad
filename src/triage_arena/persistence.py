"""File layout, schema validation, and golden fixtures.

All persisted JSON uses the canonical encoding from the model module and
carries a kind plus schema_version. Runs are file based: one JSON per
cohort, per transcript, per eval bundle, plus a manifest whose combined
hash covers the content hashes of every referenced file.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .arena import agent_label, render_reply
from .fanout import fan_out
from .model import DATA, SCHEMA_VERSIONS, AgentProfile, Allocation, Cohort, ProfileKind, canonical_json
from .schemacheck import compile_schema

__all__ = [
    "sha256_bytes",
    "sha256_file",
    "atomic_write_text",
    "write_json",
    "RunManifest",
    "build_manifest",
    "SchemaViolation",
    "validate_schemas",
    "ReferenceFixtures",
    "load_reference_fixtures",
    "FixtureChecksumError",
]

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


# Numbers the temp files of this process. With the pid it makes a name no live
# writer uses; O_EXCL skips a file a dead process left behind.
_tmp_serial = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 via a temp file in the same directory plus rename.

    The file gets mode 0o666 less the umask, as open() would give it.
    """
    _atomic_write_bytes(path, text.encode("utf-8"))


def _atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f"{path.name}.{os.getpid()}.{next(_tmp_serial)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> str:
    """Write obj's canonical JSON atomically; the sha256 of the bytes written."""
    data = canonical_json(obj).encode("utf-8")
    _atomic_write_bytes(path, data)
    return sha256_bytes(data)


@dataclass(frozen=True)
class RunManifest:
    run_id: str
    config: dict
    files: tuple[tuple[str, str], ...]  # (relative path, sha256)
    combined_hash: str
    timestamp: str | None = None  # null for fully deterministic runs

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSIONS["manifest"],
            "kind": "manifest",
            "run_id": self.run_id,
            "config": self.config,
            "files": [{"path": p, "sha256": h} for p, h in self.files],
            "combined_hash": self.combined_hash,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunManifest":
        return cls(
            run_id=obj["run_id"],
            config=obj["config"],
            files=tuple((f["path"], f["sha256"]) for f in obj["files"]),
            combined_hash=obj["combined_hash"],
            timestamp=obj.get("timestamp"),
        )

    def check(self, base_dir: str | Path):
        """Read each listed file once, in manifest order, and yield
        (relative path, its problem or None when its bytes match).

        An IO error other than a missing file is raised.
        """
        base = Path(base_dir)
        for rel, expected in self.files:
            target = base / rel
            try:
                data = target.read_bytes()
            except OSError:
                if target.exists():
                    raise
                yield rel, f"{rel}: missing"
                continue
            yield rel, None if sha256_bytes(data) == expected else f"{rel}: content hash mismatch"

    def verify(self, base_dir: str | Path) -> list[str]:
        """Return a list of problems; empty when every file matches."""
        return [problem for _rel, problem in self.check(base_dir) if problem]


def build_manifest(
    run_id: str,
    files,
    config: dict,
    timestamp: str | None = None,
) -> RunManifest:
    """The manifest of files given as (relative path, sha256) pairs, which
    the callers know from the bytes they wrote or read."""
    entries = sorted(files)
    combined = sha256_bytes("".join(h for _, h in entries).encode("ascii"))
    return RunManifest(
        run_id=run_id,
        config=config,
        files=tuple(entries),
        combined_hash=combined,
        timestamp=timestamp,
    )


@functools.cache
def _schema_errors(kind: str):
    """The compiled checker for one packaged schema, built once per process."""
    text = (DATA / "schemas" / f"{kind}.schema.json").read_text(encoding="utf-8")
    return compile_schema(json.loads(text))


def read_eval_record(obj):
    """obj, unchanged, if stats, report and validate read it as an eval
    record: of kind eval and the current schema_version, valid under the
    eval schema, and, if its debate completed, with the finals of A and
    of the opponent its opponent_kind names. Else a ValueError saying why."""
    version = SCHEMA_VERSIONS["eval"]
    if not isinstance(obj, dict) or (obj.get("kind"), obj.get("schema_version")) != ("eval", version):
        raise ValueError(f"not an eval record of schema_version {version}")
    if errors := _schema_errors("eval")(obj):
        raise ValueError(str(errors[0]))
    # the one rule a schema cannot state, labelled as run labels its agents
    opponent = agent_label(AgentProfile(ProfileKind(obj["opponent_kind"])))
    if obj["completed"] and set(obj["finals"]) != {"A", opponent}:
        raise ValueError(f"finals: {sorted(obj['finals'])} are not those of A and {opponent}")
    return obj


# what the commands read a file of each kind with, after its schema
_READERS = {"cohort": Cohort.from_json, "eval": read_eval_record}


@dataclass(frozen=True)
class SchemaViolation:
    path: str
    problem: str


def validate_schemas(directory: str | Path) -> list[SchemaViolation]:
    """Validate every JSON file in a run directory against its schema.

    Files identify themselves through their kind and schema_version
    fields; unknown kinds or versions are flagged as unmigratable. A
    cohort or eval file that passes its schema is also read as its
    commands read it (_READERS), so a supply of other than six entries,
    or the finals of other agents, is a violation too; transcripts and
    manifests are checked against their schema alone. The files are
    checked in one process per usable CPU (see fanout.fan_out), and the
    violations are the one-process check's, in file order. Raises
    ValueError when directory is missing or is not a directory.
    """
    root = Path(directory)
    if not root.is_dir():
        reason = "not a directory" if root.exists() else "no such directory"
        raise ValueError(f"{reason}: {directory}")
    # a share's violations are its child's report, and a clean share has none
    return fan_out(_violations, sorted(root.rglob("*.json")))


def _violations(files: list[Path]) -> list[SchemaViolation]:
    """The violations of files, in order."""
    violations = []
    for file in files:
        rel = str(file)
        try:
            obj = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            violations.append(SchemaViolation(rel, f"unreadable JSON: {exc}"))
            continue
        if not isinstance(obj, dict):
            violations.append(SchemaViolation(rel, f"(root): {obj!r} is not of type 'object'"))
            continue
        kind = obj.get("kind")
        version = obj.get("schema_version")
        if kind not in SCHEMA_VERSIONS:
            violations.append(SchemaViolation(rel, f"unknown kind {kind!r}"))
            continue
        if version != SCHEMA_VERSIONS[kind]:
            violations.append(
                SchemaViolation(rel, f"unmigratable schema_version {version!r}")
            )
            continue
        errors = _schema_errors(kind)(obj)
        violations.extend(SchemaViolation(rel, str(error)) for error in errors)
        if kind in _READERS and not errors:
            try:
                _READERS[kind](obj)
            except ValueError as exc:
                violations.append(SchemaViolation(rel, f"invalid {kind}: {exc}"))
    return violations


class FixtureChecksumError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReferenceFixtures:
    cohort: Cohort
    # the six stored round dicts (agent, round, rows, justification,
    # provenance, note). provenance "transcribed" marks values copied
    # verbatim from the reference debate log; "derived" marks values
    # reconstructed to match published totals or computed by a recorded
    # procedure.
    rounds: tuple[dict, ...]
    capacity_variants: dict
    round_texts: dict  # agent label -> list of rendered texts, one per round
    expected: dict  # named expected values used by replay checks


def load_reference_fixtures() -> ReferenceFixtures:
    """Load the reference-debate fixtures, verifying recorded checksums."""
    data_root = DATA / "fixtures"
    checksums = json.loads((data_root / "checksums.json").read_text(encoding="utf-8"))
    for filename, expected in checksums.items():
        actual = sha256_bytes((data_root / filename).read_bytes())
        if actual != expected:
            raise FixtureChecksumError(
                f"fixture {filename} checksum {actual} != recorded {expected}"
            )
    obj = json.loads((data_root / "cohort32.json").read_text(encoding="utf-8"))
    cohort = Cohort.from_json(obj["cohort"])
    round_texts: dict[str, list[str]] = {}
    for r in obj["rounds"]:
        text = render_reply(Allocation.from_json(r["rows"]), r.get("justification", ""))
        round_texts.setdefault(r["agent"], []).append(text)
    return ReferenceFixtures(
        cohort=cohort,
        rounds=tuple(obj["rounds"]),
        capacity_variants=obj["capacity_variants"],
        round_texts=round_texts,
        expected=obj["expected"],
    )
