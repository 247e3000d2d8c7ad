"""eval and validate over forked processes (fanout.fan_out) give the
one-process outputs and messages, and leave no child behind. The index
build's use of the same helper is tested in test_retrieval.TestWorkers."""

from __future__ import annotations

import json
import os
import shutil
import threading
import time

import pytest

from triage_arena import cli, fanout, persistence
from triage_arena.cli import main
from triage_arena.fanout import _MIN_ITEMS_PER_WORKER as MIN_ITEMS_PER_WORKER  # before any fixture patches it

from conftest import no_child_left

N_TRANSCRIPTS = 13  # with the manifest, 14 files to validate: shares of 4+ for 3 workers
DAMAGED = {2: "truncated", 5: "unknown kind", 9: "not JSON", 12: "no proposals"}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fanout")
    assert main(["gen-cohorts", "--seed", "5", "--batch", str(N_TRANSCRIPTS), "--out", str(base / "c")]) == 0
    assert main([
        "run", "--cohorts", str(base / "c"), "--framework", "Rawlsian", "--opponent", "biased",
        "--allow-adversarial", "--out", str(base / "run"),
    ]) == 0
    return base / "run"


@pytest.fixture
def damaged(run_dir, tmp_path, cpus):
    """A copy of the run whose transcripts in DAMAGED are damaged in
    several shares, and the eval records of the intact run."""
    transcripts, evals = tmp_path / "t", tmp_path / "e"
    shutil.copytree(run_dir, transcripts)
    cpus(1)
    assert main(["eval", "--transcripts", str(transcripts), "--out", str(evals)]) == 0
    files = sorted(transcripts.glob("transcript_*.json"))
    files[2].write_bytes(files[2].read_bytes()[:100])
    files[9].write_text("{not json")
    obj = json.loads(files[5].read_text())
    obj["kind"] = "transcripts"
    files[5].write_text(json.dumps(obj))
    obj = json.loads(files[12].read_text())
    del obj["proposals"]
    files[12].write_text(json.dumps(obj))
    return transcripts, evals


def eval_outputs(damaged, tmp_path, capsys):
    """eval over the damaged run into a fresh copy of the intact run's
    records: exit code, stdout, stderr and every record's bytes."""
    transcripts, evals = damaged
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
    shutil.copytree(evals, out)
    code = main(["eval", "--transcripts", str(transcripts), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def validate_outputs(damaged, tmp_path, capsys):
    code = main(["validate", str(damaged[0])])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = {"eval": eval_outputs, "validate": validate_outputs}
# a function each command calls per file in every process, and its module
PER_FILE = {"eval": (cli, "transcript_from_json"), "validate": (persistence, "_schema_errors")}


def one_process(command, damaged, tmp_path, capsys, cpus):
    forked = cpus(1)
    want = COMMANDS[command](damaged, tmp_path, capsys)
    assert forked == []
    return want


def test_one_process_outputs(damaged, tmp_path, capsys, cpus):
    code, out, err, records = one_process("eval", damaged, tmp_path, capsys, cpus)
    names = sorted(f.name for f in damaged[0].glob("transcript_*.json"))
    assert code == 1
    assert out == f"evaluated {N_TRANSCRIPTS - 3} transcripts, 3 corrupt, 0 stale removed\n"
    corrupt = [line.split(":")[1].strip() for line in err.splitlines()]
    assert corrupt == [names[2], names[9], names[12]]
    # the earlier records of the corrupt transcripts are gone
    assert sorted(records) == [cli._eval_name(n) for i, n in enumerate(names) if i not in (2, 9, 12)]
    code, out, err = one_process("validate", damaged, tmp_path, capsys, cpus)
    assert code == 1
    files = [line.split(":")[0] for line in out.splitlines()]
    assert [os.path.basename(f) for f in dict.fromkeys(files)] == [names[i] for i in DAMAGED]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("command", COMMANDS)
def test_same_outputs_as_one_process(damaged, tmp_path, capsys, cpus, command, n_cpus):
    want = one_process(command, damaged, tmp_path, capsys, cpus)
    forked = cpus(n_cpus)
    assert COMMANDS[command](damaged, tmp_path, capsys) == want
    assert len(forked) == n_cpus - 1
    assert no_child_left()


@pytest.mark.parametrize("fault", ["fork-fails", "child-raises", "second-thread"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_fault_gives_the_same_outputs(damaged, tmp_path, capsys, cpus, monkeypatch, command, fault):
    want = one_process(command, damaged, tmp_path, capsys, cpus)
    forked = cpus(3)
    if fault == "fork-fails":
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    elif fault == "child-raises":
        module, name = PER_FILE[command]
        me, real = os.getpid(), getattr(module, name)

        def in_caller_only(*args):
            if os.getpid() != me:
                raise SystemExit("child down")  # escapes eval's per-file except Exception
            return real(*args)

        monkeypatch.setattr(module, name, in_caller_only)
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
    try:
        got = COMMANDS[command](damaged, tmp_path, capsys)
    finally:
        if fault == "second-thread":
            release.set()
            thread.join(timeout=30)
    assert got == want
    assert len(forked) == (2 if fault == "child-raises" else 0)
    assert no_child_left()


@pytest.mark.parametrize("command", COMMANDS)
def test_interrupt_in_the_caller_kills_and_reaps_every_child(damaged, tmp_path, capsys, cpus, monkeypatch, command):
    forked = cpus(3)
    module, name = PER_FILE[command]
    me = os.getpid()

    def hang_in_children(*args):
        if os.getpid() != me:
            time.sleep(20)  # then the child fails
            raise SystemExit("child hung")
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, hang_in_children)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        COMMANDS[command](damaged, tmp_path, capsys)
    assert time.monotonic() - start < 10  # the children were killed, not awaited
    assert len(forked) == 2
    assert no_child_left()


CHAT_RAG_BATCH = 100  # perfbench's chat-rag run: 100 transcripts to evaluate


@pytest.fixture(scope="module")
def hundred(tmp_path_factory):
    """A run of CHAT_RAG_BATCH debates, one transcript truncated in the
    second half, which a child reads on 2 CPUs."""
    base = tmp_path_factory.mktemp("hundred")
    assert main(["gen-cohorts", "--seed", "5", "--batch", str(CHAT_RAG_BATCH), "--out", str(base / "c")]) == 0
    assert main(["run", "--cohorts", str(base / "c"), "--out", str(base / "run")]) == 0
    victim = sorted((base / "run").glob("transcript_*.json"))[75]
    victim.write_bytes(victim.read_bytes()[:200])
    return base / "run"


@pytest.mark.parametrize("command", COMMANDS)
def test_a_chat_rag_sized_batch_forks_one_child_on_two_cpus(hundred, tmp_path, capsys, cpus, monkeypatch, command):
    forked = cpus(1)
    # the fixed smallest share, not the cpus fixture's 4 items
    monkeypatch.setattr(fanout, "_MIN_ITEMS_PER_WORKER", MIN_ITEMS_PER_WORKER)
    outputs = []
    for n_cpus in (1, 2):
        cpus(n_cpus)
        out = tmp_path / f"e{n_cpus}"
        code = main(["eval", "--transcripts", str(hundred), "--out", str(out)] if command == "eval" else ["validate", str(hundred)])
        captured = capsys.readouterr()
        records = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if command == "eval" else None
        outputs.append((code, captured.out, captured.err, records))
        assert len(forked) == n_cpus - 1
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1
    if command == "eval":
        assert outputs[0][1] == f"evaluated {CHAT_RAG_BATCH - 1} transcripts, 1 corrupt, 0 stale removed\n"
        assert len(outputs[0][3]) == CHAT_RAG_BATCH - 1
    assert no_child_left()
