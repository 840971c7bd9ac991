"""TTL garbage collection of terminal service job directories.

``gc_job_dirs`` is the safety-critical half of ``service gc`` /
``--job-ttl``: it may only ever remove a job directory whose
``job.json`` records a *terminal* state (done / cancelled / failed) and
is older than the TTL.  Running jobs, directories without a readable
``job.json`` (a kill landed before the first persist — the recovery
path's "nothing leased" case), and young terminal jobs must all survive
every sweep.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.service import (
    JOB_FILE_NAME,
    CampaignService,
    gc_job_dirs,
)


def make_job_dir(
    root: Path, name: str, state=None, age: float = 1000.0
) -> Path:
    job_dir = root / "jobs" / name
    job_dir.mkdir(parents=True)
    (job_dir / "store").mkdir()
    if state is not None:
        job_file = job_dir / JOB_FILE_NAME
        job_file.write_text(json.dumps({"job_id": name, "state": state}))
        stamp = time.time() - age
        os.utime(job_file, (stamp, stamp))
    return job_dir


class TestGcJobDirs:
    def test_removes_only_old_terminal_jobs(self, tmp_path):
        make_job_dir(tmp_path, "job-1", "done")
        make_job_dir(tmp_path, "job-2", "running")
        make_job_dir(tmp_path, "job-3", "cancelled", age=1.0)
        make_job_dir(tmp_path, "job-4")  # no job.json: never touched
        make_job_dir(tmp_path, "job-5", "failed")
        removed = gc_job_dirs(tmp_path, ttl=100.0)
        assert removed == ["job-1", "job-5"]
        survivors = sorted(p.name for p in (tmp_path / "jobs").iterdir())
        assert survivors == ["job-2", "job-3", "job-4"]

    def test_zero_ttl_prunes_every_terminal_job(self, tmp_path):
        make_job_dir(tmp_path, "job-1", "done", age=0.5)
        make_job_dir(tmp_path, "job-2", "running", age=0.5)
        assert gc_job_dirs(tmp_path, ttl=0.0) == ["job-1"]

    def test_explicit_now_makes_the_sweep_deterministic(self, tmp_path):
        job_file = make_job_dir(tmp_path, "job-1", "done") / JOB_FILE_NAME
        mtime = job_file.stat().st_mtime
        assert gc_job_dirs(tmp_path, ttl=10.0, now=mtime + 5.0) == []
        assert gc_job_dirs(tmp_path, ttl=10.0, now=mtime + 15.0) == ["job-1"]

    def test_unreadable_job_file_is_kept(self, tmp_path):
        job_dir = make_job_dir(tmp_path, "job-1")
        (job_dir / JOB_FILE_NAME).write_text("{not json")
        assert gc_job_dirs(tmp_path, ttl=0.0) == []
        assert job_dir.exists()

    def test_missing_root_is_a_noop(self, tmp_path):
        assert gc_job_dirs(tmp_path / "nowhere", ttl=0.0) == []

    def test_negative_ttl_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            gc_job_dirs(tmp_path, ttl=-1.0)


class TestServiceTtl:
    def test_negative_job_ttl_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            CampaignService(tmp_path, job_ttl=-5.0)

    def test_gc_now_unregisters_removed_jobs(self, tmp_path):
        """A swept job disappears from the in-memory tables too (the
        periodic sweep path), without the service ever binding."""
        make_job_dir(tmp_path, "job-1", "done")
        make_job_dir(tmp_path, "job-2", "running")
        service = CampaignService(tmp_path, job_ttl=100.0)
        # simulate the recovered registrations gc_now must prune
        from repro.experiments.service import ServiceJob

        for name, state in (("job-1", "done"), ("job-2", "running")):
            job = ServiceJob(
                job_id=name, tenant="default", priority=0,
                seq=int(name.split("-")[1]), status=state,
            )
            service._core.add_job(job, now=0.0)
        assert service.gc_now() == ["job-1"]
        assert [snap["job_id"] for snap in service.jobs()] == ["job-2"]

    def test_gc_now_without_ttl_is_a_noop(self, tmp_path):
        make_job_dir(tmp_path, "job-1", "done")
        service = CampaignService(tmp_path)
        assert service.gc_now() == []
        assert (tmp_path / "jobs" / "job-1").exists()
