import threading

import pytest

from ginisim import lanes


@pytest.fixture
def chunks_only_on(monkeypatch):
    """only(who): let only the main thread, or only the lane workers, claim a job's
    items from then on; return the set of threads that ran one."""

    def only(who):
        claim, ran = lanes.Lanes.claim, set()

        def claim_if(job):
            if (threading.current_thread() is threading.main_thread()) == (who == "main"):
                work, job.work = job.work, lambda item: (ran.add(threading.current_thread()),
                                                         work(item))
                claim(job)

        monkeypatch.setattr(lanes.Lanes, "claim", claim_if)
        return ran

    return only
