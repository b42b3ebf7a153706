"""The campaign store's lease protocol as a hypothesis state machine.

Random interleavings of acquire, heartbeat, steal, complete, fail,
release, reclaim and requeue by three competing launchers run against
one :class:`CampaignStore` on a deterministic clock, beside a small
model of who holds each lease.  After every step the store must agree
with the model, and:

* a lease has at most one owner: the job's ``lease_owner`` is the one
  launcher the model says holds it;
* a token completes at most once;
* a launcher whose lease was stolen or reclaimed (or that never held
  it) gets :class:`LeaseLostError` from every owner-guarded call, while
  the claimer, now the holder of the RESTARTING job, may still
  complete it or fail it (a retried failure within budget requeues it);
* ``attempts`` never decreases, except that a release by the lease
  holder hands back the one attempt its own acquire spent.

The example stream is seeded from ``REPRO_FAULT_SEED`` (the
``fault_seed`` fixture), so the CI fault matrix replays the run under
other seeds.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    invariant,
    precondition,
    rule,
)

from repro.core.campaign import CampaignSpec, CampaignStore
from repro.core.campaign.launcher import (
    TOKEN_PARAMETER,
    TOTAL_PARAMETER,
    Launcher,
    open_sink,
)
from repro.core.knowledge import Knowledge
from repro.util.errors import CampaignError, LeaseLostError

OWNERS = ("A", "B", "C")
JOBS = 3
MAX_ATTEMPTS = 3

owners = st.sampled_from(OWNERS)
guarded_ops = st.sampled_from(("heartbeat", "complete", "fail", "release"))
leases = st.sampled_from((1.0, 4.0))


@dataclass
class ModelJob:
    state: str = "READY"
    holder: str | None = None
    expires: float | None = None
    attempts: int = 0
    completions: int = 0


class CampaignLeaseMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = CampaignStore(":memory:")
        spec = CampaignSpec(
            name="leases", benchmark="noop",
            parameters={"idx": ",".join(str(i) for i in range(JOBS))},
            fixed={"duration_ms": "0"}, max_attempts=MAX_ATTEMPTS,
        )
        self.cid = self.store.submit(spec, "sqlite://:memory:")
        self.ids = [job.job_id for job in self.store.jobs(self.cid)]
        self.model = {job_id: ModelJob() for job_id in self.ids}
        self.now = 0.0
        self.attempts_seen = {job_id: 0 for job_id in self.ids}
        self.released: int | None = None  # job a holder released this step
        self.lost: dict[int, set[str]] = {job_id: set() for job_id in self.ids}

    def teardown(self) -> None:
        self.store.close()

    # -- launcher operations -------------------------------------------
    @rule(owner=owners, lease=leases)
    def acquire(self, owner, lease):
        job = self.store.acquire(self.cid, owner, self.now, lease)
        ready = [i for i in self.ids if self.model[i].state == "READY"]
        if not ready:
            assert job is None
            return
        assert job is not None and job.job_id == ready[0]
        model = self.model[job.job_id]
        model.state, model.holder = "RUNNING", owner
        model.expires = self.now + lease
        model.attempts += 1

    @rule(dt=st.sampled_from((0.5, 2.0, 5.0)))
    def tick(self, dt):
        self.now += dt

    @rule(thief=owners, dt=st.sampled_from((0.0, 2.0, 5.0)))
    def steal(self, thief, dt):
        # An idle thief polls after some time has passed, so expired
        # leases are there to steal in most runs.
        self.now += dt
        job = self.store.steal(self.cid, thief, self.now)
        expired = sorted(
            (m.expires, i) for i, m in self.model.items()
            if m.state == "RUNNING" and m.expires < self.now
        )
        if not expired:
            assert job is None
            return
        assert job is not None and job.job_id == expired[0][1]
        model = self.model[job.job_id]
        self.lost[job.job_id].add(model.holder)
        model.state, model.holder = "RESTARTING", thief

    @precondition(lambda self: any(m.holder for m in self.model.values()))
    @rule(data=st.data(), op=guarded_ops, lease=leases, retryable=st.booleans())
    def holder_calls(self, data, op, lease, retryable):
        """The lease holder heartbeats, completes, fails or releases."""
        held = [i for i in self.ids if self.model[i].holder is not None]
        job_id = data.draw(st.sampled_from(held), label="job")
        self._guarded(op, job_id, self.model[job_id].holder, lease, retryable)

    @rule(data=st.data(), op=guarded_ops, lease=leases, retryable=st.booleans())
    def stranger_calls(self, data, op, lease, retryable):
        """Anyone else — a launcher that lost the lease first — makes
        the same calls; each is refused with LeaseLostError."""
        job_id = data.draw(st.sampled_from(self.ids), label="job")
        model = self.model[job_id]
        others = [o for o in OWNERS if o != model.holder]
        others.sort(key=lambda o: o not in self.lost[job_id])
        owner = data.draw(st.sampled_from(others), label="owner")
        assert not self._guarded(op, job_id, owner, lease, retryable)

    def _guarded(self, op, job_id, owner, lease, retryable) -> bool:
        """Run one owner-guarded call; the model says whether it passes
        or is refused with :class:`LeaseLostError`.  Returns ``ok``."""
        model = self.model[job_id]
        holds = model.holder == owner
        requeue = op == "fail" and retryable and model.attempts < MAX_ATTEMPTS
        if op in ("heartbeat", "release"):
            # A heartbeat renews a running lease, and a release passes
            # through RESTARTING: both must start from RUNNING.
            ok = holds and model.state == "RUNNING"
        else:
            # The holder of a stolen or reclaimed (RESTARTING) job may
            # complete it, fail it, or requeue it by a retried failure.
            ok = holds and model.state in ("RUNNING", "RESTARTING")
        calls = {
            "heartbeat": lambda: self.store.heartbeat(
                job_id, self.now, lease, owner=owner
            ),
            "complete": lambda: self.store.complete(job_id, [], owner=owner),
            "fail": lambda: self.store.fail(
                job_id, "boom", retryable=retryable, owner=owner
            ),
            "release": lambda: self.store.release(job_id, owner),
        }
        if not ok:
            with pytest.raises(LeaseLostError):
                calls[op]()
            return False
        calls[op]()
        if op == "heartbeat":
            model.expires = self.now + lease
            return True
        if op == "complete":
            model.state = "DONE"
            model.completions += 1
        elif op == "fail":
            model.state = "READY" if requeue else "FAILED"
        else:  # release
            model.state = "READY"
            model.attempts -= 1
            self.released = job_id
        model.holder = model.expires = None
        return True

    # -- dead-launcher recovery: the same claim, for every expired lease --
    @rule(claimer=owners, force=st.booleans())
    def reclaim(self, claimer, force):
        # --resume forces recovery by claiming at now = inf.
        now = math.inf if force else self.now
        reclaimed = [j.job_id for j in self.store.reclaim(self.cid, claimer, now)]
        expected = [
            i for _, i in sorted(
                (m.expires, i) for i, m in self.model.items()
                if m.state == "RUNNING" and m.expires < now
            )
        ]
        assert reclaimed == expected
        for job_id in expected:
            model = self.model[job_id]
            self.lost[job_id].add(model.holder)
            model.state, model.holder = "RESTARTING", claimer

    @rule(data=st.data())
    def requeue(self, data):
        job_id = data.draw(st.sampled_from(self.ids), label="job")
        model = self.model[job_id]
        if model.state != "RESTARTING":
            with pytest.raises(CampaignError):
                self.store.requeue(job_id)
            return
        self.store.requeue(job_id)
        model.state, model.holder, model.expires = "READY", None, None

    # -- invariants -----------------------------------------------------
    @invariant()
    def store_matches_model(self):
        for job in self.store.jobs(self.cid):
            model = self.model[job.job_id]
            assert job.state == model.state
            assert job.lease_owner == model.holder  # at most one owner
            assert job.attempts == model.attempts
            if model.state == "RUNNING":
                assert job.lease_expires_at == model.expires

    @invariant()
    def tokens_complete_at_most_once(self):
        for job_id, model in self.model.items():
            assert model.completions <= 1
            assert (model.state == "DONE") == (model.completions == 1)

    @invariant()
    def attempts_never_decrease(self):
        for job in self.store.jobs(self.cid):
            seen = self.attempts_seen[job.job_id]
            if job.job_id == self.released:
                assert job.attempts == seen - 1
            else:
                assert job.attempts >= seen
            self.attempts_seen[job.job_id] = job.attempts
        self.released = None


def test_campaign_store_lease_protocol(fault_seed):
    run = get_state_machine_test(
        CampaignLeaseMachine,
        settings=settings(
            max_examples=100, stateful_step_count=40, deadline=None,
            database=None, suppress_health_check=list(HealthCheck),
        ),
    )
    seed(fault_seed)(run)()


def test_release_by_a_stale_owner_is_refused():
    """A launcher whose lease was stolen and re-acquired by another must
    not hand the job back: that would drop the new holder's lease and
    refund an attempt it really spent."""
    store = CampaignStore(":memory:")
    spec = CampaignSpec(
        name="stale", benchmark="noop", parameters={"idx": "0"},
        fixed={"duration_ms": "0"},
    )
    cid = store.submit(spec, "sqlite://:memory:")
    job = store.acquire(cid, "A", now=0.0, lease_s=1.0)
    assert store.steal(cid, "B", now=2.0).job_id == job.job_id
    store.requeue(job.job_id)
    assert store.acquire(cid, "B", now=2.0, lease_s=10.0).job_id == job.job_id
    with pytest.raises(LeaseLostError):
        store.release(job.job_id, "A")
    held = store.job(job.job_id)
    assert (held.state, held.lease_owner, held.attempts) == ("RUNNING", "B", 2)
    store.close()


def _stolen_job(max_attempts):
    """A one-job campaign whose job "A" acquired and "B" then stole."""
    store = CampaignStore(":memory:")
    spec = CampaignSpec(
        name="stolen", benchmark="noop", parameters={"idx": "0"},
        fixed={"duration_ms": "0"}, max_attempts=max_attempts,
    )
    cid = store.submit(spec, "sqlite://:memory:")
    job = store.acquire(cid, "A", now=0.0, lease_s=1.0)
    stolen = store.steal(cid, "B", now=2.0)
    assert (stolen.job_id, stolen.state, stolen.lease_owner) == (
        job.job_id, "RESTARTING", "B"
    )
    return store, job.job_id


def test_retried_failure_by_the_thief_requeues_a_stolen_job():
    """The holder of a RESTARTING job fails it as retryable: within the
    retry budget the job goes back to READY, lease cleared, instead of
    a LeaseLostError from a RUNNING -> RESTARTING step it cannot take."""
    store, job_id = _stolen_job(max_attempts=3)
    with pytest.raises(LeaseLostError):
        store.fail(job_id, "boom", retryable=True, owner="A")  # the victim
    requeued = store.fail(job_id, "boom", retryable=True, owner="B")
    assert (requeued.state, requeued.lease_owner, requeued.lease_expires_at) == (
        "READY", None, None
    )
    assert (requeued.attempts, requeued.error) == (1, "boom")
    store.close()


def test_retried_failure_of_a_stolen_job_past_its_budget_fails_it():
    store, job_id = _stolen_job(max_attempts=1)
    failed = store.fail(job_id, "boom", retryable=True, owner="B")
    assert (failed.state, failed.lease_owner, failed.error) == ("FAILED", None, "boom")
    store.close()


@pytest.mark.parametrize("committed", [True, False], ids=["adopt", "requeue"])
def test_reclaim_locks_out_the_former_holder(tmp_path, committed):
    """A's lease expires and B reclaims the job: A's owner-guarded
    complete and fail are refused like its heartbeat, and B still
    resolves the job by its token (adopt if A's rows committed, requeue
    if not)."""
    store = CampaignStore(tmp_path / "campaigns.db")
    spec = CampaignSpec(
        name="reclaimed", benchmark="noop", parameters={"idx": "0"},
        fixed={"duration_ms": "0"},
    )
    cid = store.submit(spec, str(tmp_path / "knowledge.db"))
    job = store.acquire(cid, "A", now=0.0, lease_s=1.0)
    [reclaimed] = store.reclaim(cid, "B", now=2.0)
    assert (reclaimed.job_id, reclaimed.state, reclaimed.lease_owner) == (
        job.job_id, "RESTARTING", "B"
    )
    with pytest.raises(LeaseLostError):
        store.heartbeat(job.job_id, 2.0, 1.0, owner="A")
    with pytest.raises(LeaseLostError):
        store.complete(job.job_id, [1], owner="A")
    for retryable in (True, False):
        with pytest.raises(LeaseLostError):
            store.fail(job.job_id, "boom", retryable=retryable, owner="A")
    assert store.job(job.job_id).state == "RESTARTING"

    launcher = Launcher(store, cid, workspace=tmp_path / "ws", name="B")
    launcher._sink = open_sink(str(tmp_path / "knowledge.db"))
    try:
        if committed:  # A persisted its rows before its lease ran out
            [row_id] = launcher._sink.save_tagged(
                [Knowledge(benchmark="noop", command="noop", parameters={
                    TOKEN_PARAMETER: job.token, TOTAL_PARAMETER: 1,
                })],
                [],
            )
            assert launcher.resolve(reclaimed) == "adopted"
            done = store.job(job.job_id)
            assert (done.state, done.knowledge_ids) == ("DONE", (row_id,))
        else:
            assert launcher.resolve(reclaimed) == "requeued"
            assert store.job(job.job_id).state == "READY"
    finally:
        launcher._sink.close()
        store.close()
