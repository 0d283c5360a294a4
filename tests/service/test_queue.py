"""The queue state machine: admission, priority, journal recovery."""

import json
import os

import pytest

from repro.service.jobs import JobSpec
from repro.service.jobs import JobArtifact
from repro.service.queue import (
    ArtifactLostError,
    JobJournal,
    JobQueue,
    QueueFullError,
    UnknownJobError,
)


@pytest.fixture
def journal(tmp_path):
    return JobJournal(str(tmp_path / "journal"))


def fig_spec(seed, priority=0):
    return JobSpec.from_dict({"kind": "figure", "scenario": "fig7",
                              "samples": 60, "seed": seed,
                              "priority": priority})


class TestAdmission:
    def test_idempotent_by_job_id(self, journal):
        queue = JobQueue(journal, capacity=4)
        spec = fig_spec(1)
        first, created = queue.submit(spec, "job-a")
        again, created2 = queue.submit(spec, "job-a")
        assert created and not created2
        assert again is first
        assert queue.live_count() == 1

    def test_capacity_rejects_with_queue_full(self, journal):
        queue = JobQueue(journal, capacity=2)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        with pytest.raises(QueueFullError, match="2/2"):
            queue.submit(fig_spec(3), "c")
        # Known ids still dedupe fine at capacity.
        _, created = queue.submit(fig_spec(1), "a")
        assert not created

    def test_finished_jobs_free_their_slot(self, journal):
        queue = JobQueue(journal, capacity=1)
        queue.submit(fig_spec(1), "a")
        queue.pop()
        queue.finish("a", JobArtifact(artifact="{}\n", report="ok"))
        record, created = queue.submit(fig_spec(2), "b")
        assert created and record.state == "queued"

    def test_refused_push_registers_nothing(self, journal):
        """A spec the heap cannot order leaves no ghost queued job
        (the dispatch loop would wait on it forever)."""
        from dataclasses import replace

        queue = JobQueue(journal, capacity=4)
        queue.submit(fig_spec(1), "job-a")
        bad = replace(fig_spec(2), priority="high")  # bypasses from_dict
        with pytest.raises(TypeError):
            queue.submit(bad, "job-b")
        assert [r.job_id for r in queue.records()] == ["job-a"]
        assert queue.pop().job_id == "job-a"
        assert not queue.has_queued()
        assert queue.pop() is None

    def test_unknown_job_raises(self, journal):
        with pytest.raises(UnknownJobError):
            JobQueue(journal).get("nope")


class TestOrdering:
    def test_priority_major_fifo_minor(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1, priority=0), "low-1")
        queue.submit(fig_spec(2, priority=5), "high")
        queue.submit(fig_spec(3, priority=0), "low-2")
        order = [queue.pop().job_id for _ in range(3)]
        assert order == ["high", "low-1", "low-2"]
        assert queue.pop() is None

    def test_has_queued_until_pop_drains_stale_entries(self, journal):
        queue = JobQueue(journal, capacity=4)
        queue.submit(fig_spec(1), "job-a")
        queue.cancel("job-a")
        assert queue.has_queued()  # a stale heap entry remains...
        assert queue.pop() is None
        assert not queue.has_queued()  # ...until pop discards it

    def test_cancelled_jobs_are_skipped(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        queue.cancel("a")
        assert queue.pop().job_id == "b"
        assert queue.pop() is None
        assert queue.get("a").state == "cancelled"


class TestStateMachine:
    def test_fail_and_finish_paths(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "a")
        queue.submit(fig_spec(2), "b")
        queue.pop(), queue.pop()
        done = queue.finish("a", JobArtifact(artifact="{}\n",
                                             report="ok"))
        failed = queue.fail("b", "worker exploded")
        assert done.finished and done.state == "done"
        assert failed.finished and failed.error == "worker exploded"
        stats = queue.stats()
        assert stats["by_state"]["done"] == 1
        assert stats["by_state"]["failed"] == 1
        assert stats["live"] == 0

    def test_requeue_marks_resume(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "a")
        record = queue.pop()
        queue.requeue("a")
        assert record.state == "queued"
        assert record.resumes == 1
        assert queue.pop() is record


class TestJournal:
    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        root = str(tmp_path / "journal")
        journal = JobJournal(root)
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "queued-job")
        queue.submit(fig_spec(2), "running-job")
        queue.submit(fig_spec(3), "done-job")
        # Drive running-job and done-job out of the queued state.
        popped = {queue.pop().job_id, queue.pop().job_id,
                  queue.pop().job_id}
        assert popped == {"queued-job", "running-job", "done-job"}
        queue.requeue("queued-job")
        queue.finish("done-job", JobArtifact(
            artifact='{"x": 1}\n', report="done", stats={"n": 1}))

        # A fresh queue on the same journal: the kill-and-restart.
        fresh = JobQueue(JobJournal(root), capacity=8)
        requeued = fresh.recover()
        assert {r.job_id for r in requeued} == {"queued-job",
                                               "running-job"}
        assert fresh.get("running-job").state == "queued"
        assert fresh.get("running-job").resumes == 1
        done = fresh.get("done-job")
        assert done.state == "done"
        assert done.stats == {"n": 1}
        assert fresh.artifact("done-job").artifact == '{"x": 1}\n'
        assert fresh.artifact("done-job").report == "done"
        # Recovery preserves dispatch order and new seqs continue on.
        record, created = fresh.submit(fig_spec(9), "new-job")
        assert created
        assert record.seq > done.seq

    def test_corrupt_journal_entry_is_skipped(self, tmp_path):
        root = str(tmp_path / "journal")
        journal = JobJournal(root)
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "good")
        with open(os.path.join(root, "bad.json"), "w") as fh:
            fh.write("{torn")
        fresh = JobQueue(JobJournal(root), capacity=8)
        fresh.recover()
        assert [r.job_id for r in fresh.records()] == ["good"]

    def test_journal_files_are_valid_json(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        queue = JobQueue(journal, capacity=8)
        record, _ = queue.submit(fig_spec(1), "a")
        with open(journal.path_for("a")) as fh:
            data = json.load(fh)
        assert data["state"] == "queued"
        assert data["spec"]["kind"] == "figure"
        # No tmp files linger after the atomic replace.
        assert [n for n in os.listdir(journal.root)
                if n.endswith(".tmp")] == []


class TestArtifactStorage:
    def finished(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "a")
        queue.pop()
        queue.finish("a", JobArtifact(artifact='{"x": 1}\n',
                                      report="ok", stats={"n": 1}))
        return queue

    def test_record_keeps_only_stats(self, journal):
        record = self.finished(journal).get("a")
        assert record.stats == {"n": 1}
        assert record.status()["stats"] == {"n": 1}
        assert not hasattr(record, "artifact")
        assert "artifact" not in record.to_dict()

    def test_artifact_is_read_back_from_the_journal(self, journal):
        queue = self.finished(journal)
        artifact = queue.artifact("a")
        assert artifact.artifact == '{"x": 1}\n'
        assert artifact.report == "ok"
        assert artifact.stats == {"n": 1}

    @pytest.mark.parametrize("damage", ["missing", "torn", "no-artifact"])
    def test_lost_artifact_is_a_typed_error(self, journal, damage):
        queue = self.finished(journal)
        path = journal.path_for("a")
        if damage == "missing":
            os.remove(path)
        elif damage == "torn":
            with open(path, "w") as fh:
                fh.write('{"artifact": {"artif')
        else:
            with open(path) as fh:
                data = json.load(fh)
            del data["artifact"]
            with open(path, "w") as fh:
                json.dump(data, fh)
        with pytest.raises(ArtifactLostError):
            queue.artifact("a")

    def test_unfinished_job_has_no_artifact(self, journal):
        queue = JobQueue(journal, capacity=8)
        queue.submit(fig_spec(1), "a")
        with pytest.raises(ArtifactLostError, match="queued"):
            queue.artifact("a")
        with pytest.raises(UnknownJobError):
            queue.artifact("nope")
