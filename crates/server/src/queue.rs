//! The in-memory job table, priority queue and event fan-out.

use crate::frame::write_frame;
use crate::lock;
use crate::protocol::{Event, JobSpec, JobState, JobSummary, Priority, ServerMsg};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use strober::CancelToken;

/// A connection's serialized write half, shared between the request
/// handler (responses) and worker threads (events for followed jobs).
/// The first write failure marks the writer dead; later sends are
/// silently dropped — a follower that hung up must not fail the job.
pub(crate) struct ConnWriter {
    w: Mutex<Box<dyn Write + Send>>,
    alive: AtomicBool,
}

impl std::fmt::Debug for ConnWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnWriter")
            .field("alive", &self.alive.load(Ordering::Relaxed))
            .finish()
    }
}

impl ConnWriter {
    pub(crate) fn new(w: Box<dyn Write + Send>) -> Self {
        ConnWriter {
            w: Mutex::new(w),
            alive: AtomicBool::new(true),
        }
    }

    /// Whether the connection has not yet failed a write. Streaming
    /// loops (watch subscriptions) poll this to stop ticking once the
    /// client hangs up.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Sends one message, best-effort.
    pub(crate) fn send(&self, msg: &ServerMsg) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut w = lock(&self.w);
        if write_frame(&mut *w, msg).is_err() {
            self.alive.store(false, Ordering::Relaxed);
        }
    }
}

/// Where a job is in its lifecycle, with the timing the summaries need.
#[derive(Debug)]
pub(crate) enum JobPhase {
    Queued,
    Running { started: Instant },
    Done { waited: Duration },
    Failed { waited: Duration },
    Cancelled { waited: Duration },
}

/// One submitted job.
#[derive(Debug)]
pub(crate) struct JobEntry {
    pub id: u64,
    pub spec: JobSpec,
    pub priority: Priority,
    pub client: String,
    pub submitted: Instant,
    pub cancel: CancelToken,
    pub phase: Mutex<JobPhase>,
    subscribers: Mutex<Vec<Arc<ConnWriter>>>,
}

impl JobEntry {
    pub(crate) fn new(id: u64, spec: JobSpec, priority: Priority, client: String) -> Self {
        JobEntry {
            id,
            spec,
            priority,
            client,
            submitted: Instant::now(),
            cancel: CancelToken::new(),
            phase: Mutex::new(JobPhase::Queued),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    /// Registers a follower connection for this job's events.
    pub(crate) fn subscribe(&self, w: Arc<ConnWriter>) {
        lock(&self.subscribers).push(w);
    }

    /// Fans an event out to every follower.
    pub(crate) fn publish(&self, event: Event) {
        let subs = lock(&self.subscribers);
        let msg = ServerMsg::Event(event);
        for sub in subs.iter() {
            sub.send(&msg);
        }
    }

    /// The job's current state.
    pub(crate) fn state(&self) -> JobState {
        match *lock(&self.phase) {
            JobPhase::Queued => JobState::Queued,
            JobPhase::Running { .. } => JobState::Running,
            JobPhase::Done { .. } => JobState::Done,
            JobPhase::Failed { .. } => JobState::Failed,
            JobPhase::Cancelled { .. } => JobState::Cancelled,
        }
    }

    /// Milliseconds spent queued: still counting while queued, frozen at
    /// the dequeue (or cancellation) instant afterwards.
    pub(crate) fn queue_wait_ms(&self) -> f64 {
        self.waited().as_secs_f64() * 1e3
    }

    /// Time spent queued, frozen per-phase as [`JobEntry::queue_wait_ms`].
    pub(crate) fn waited(&self) -> Duration {
        match *lock(&self.phase) {
            JobPhase::Queued => self.submitted.elapsed(),
            JobPhase::Running { started } => started.duration_since(self.submitted),
            JobPhase::Done { waited }
            | JobPhase::Failed { waited }
            | JobPhase::Cancelled { waited } => waited,
        }
    }

    /// The wire summary of this job.
    pub(crate) fn summary(&self) -> JobSummary {
        JobSummary {
            id: self.id,
            kind: self.spec.kind().to_owned(),
            state: self.state(),
            priority: self.priority,
            client: self.client.clone(),
            queue_wait_ms: self.queue_wait_ms(),
        }
    }
}

/// The registry of every job the server has seen, by id.
#[derive(Debug, Default)]
pub(crate) struct JobTable {
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
}

impl JobTable {
    pub(crate) fn insert(&self, job: Arc<JobEntry>) {
        lock(&self.jobs).insert(job.id, job);
    }

    pub(crate) fn get(&self, id: u64) -> Option<Arc<JobEntry>> {
        lock(&self.jobs).get(&id).cloned()
    }

    pub(crate) fn summaries(&self) -> Vec<JobSummary> {
        lock(&self.jobs).values().map(|j| j.summary()).collect()
    }

    /// Every job currently queued or running.
    pub(crate) fn open_jobs(&self) -> Vec<Arc<JobEntry>> {
        lock(&self.jobs)
            .values()
            .filter(|j| matches!(j.state(), JobState::Queued | JobState::Running))
            .cloned()
            .collect()
    }
}

#[derive(Debug, Default)]
struct ReadyQueue {
    /// `(priority rank, submission sequence, job id)`, kept sorted so
    /// the front is always the next job to run.
    ready: Vec<(u8, u64, u64)>,
    /// Monotonic submission counter (FIFO order within a class).
    seq: u64,
    /// `false` once the queue is closed: workers drain and exit.
    open: bool,
}

/// The priority queue feeding the worker pool. Depth is mirrored to the
/// `strober.server.queue_depth` gauge on every transition.
#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<ReadyQueue>,
    cv: Condvar,
}

impl JobQueue {
    pub(crate) fn new() -> Self {
        JobQueue {
            inner: Mutex::new(ReadyQueue {
                ready: Vec::new(),
                seq: 0,
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    fn gauge(inner: &ReadyQueue) {
        strober_probe::gauge_set("strober.server.queue_depth", inner.ready.len() as f64);
    }

    /// Enqueues a job id. Returns `false` if the queue is closed.
    pub(crate) fn push(&self, id: u64, priority: Priority) -> bool {
        let mut inner = lock(&self.inner);
        if !inner.open {
            return false;
        }
        let seq = inner.seq;
        inner.seq += 1;
        let key = (priority.rank(), seq, id);
        let at = inner.ready.partition_point(|e| *e < key);
        inner.ready.insert(at, key);
        Self::gauge(&inner);
        self.cv.notify_one();
        true
    }

    /// Blocks for the next job id; `None` once the queue is closed and
    /// empty.
    pub(crate) fn pop(&self) -> Option<u64> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(&(_, _, id)) = inner.ready.first() {
                inner.ready.remove(0);
                Self::gauge(&inner);
                return Some(id);
            }
            if !inner.open {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes a queued job (cancellation). Returns whether it was
    /// still queued.
    pub(crate) fn remove(&self, id: u64) -> bool {
        let mut inner = lock(&self.inner);
        let before = inner.ready.len();
        inner.ready.retain(|&(_, _, jid)| jid != id);
        let removed = inner.ready.len() != before;
        if removed {
            Self::gauge(&inner);
        }
        removed
    }

    /// Closes the queue. With `drain` the ready jobs stay and workers
    /// finish them; without, the queue is emptied and the abandoned ids
    /// are returned so the caller can mark them cancelled.
    pub(crate) fn close(&self, drain: bool) -> Vec<u64> {
        let mut inner = lock(&self.inner);
        inner.open = false;
        let abandoned = if drain {
            Vec::new()
        } else {
            let out = inner.ready.iter().map(|&(_, _, id)| id).collect();
            inner.ready.clear();
            out
        };
        Self::gauge(&inner);
        self.cv.notify_all();
        abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EstimateSpec;

    fn entry(id: u64) -> Arc<JobEntry> {
        Arc::new(JobEntry::new(
            id,
            JobSpec::Estimate(EstimateSpec::default()),
            Priority::Normal,
            "test".to_owned(),
        ))
    }

    #[test]
    fn queue_orders_by_priority_then_submission() {
        let q = JobQueue::new();
        assert!(q.push(1, Priority::Low));
        assert!(q.push(2, Priority::Normal));
        assert!(q.push(3, Priority::High));
        assert!(q.push(4, Priority::Normal));
        q.close(true);
        assert_eq!(
            [q.pop(), q.pop(), q.pop(), q.pop(), q.pop()],
            [Some(3), Some(2), Some(4), Some(1), None]
        );
    }

    #[test]
    fn cancelling_a_queued_job_removes_it() {
        let q = JobQueue::new();
        q.push(7, Priority::Normal);
        q.push(8, Priority::Normal);
        assert!(q.remove(7));
        assert!(!q.remove(7), "second cancel finds nothing");
        q.close(true);
        assert_eq!([q.pop(), q.pop()], [Some(8), None]);
    }

    #[test]
    fn closing_without_drain_abandons_queued_jobs() {
        let q = JobQueue::new();
        q.push(1, Priority::Low);
        q.push(2, Priority::High);
        assert_eq!(q.close(false), vec![2, 1]);
        assert_eq!(q.pop(), None);
        assert!(!q.push(3, Priority::Normal), "closed queue rejects work");
    }

    #[test]
    fn job_table_tracks_state_and_wait() {
        let table = JobTable::default();
        table.insert(entry(1));
        table.insert(entry(2));
        let job = table.get(1).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        *job.phase.lock().unwrap() = JobPhase::Running {
            started: Instant::now(),
        };
        assert_eq!(job.state(), JobState::Running);
        let summaries = table.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].id, 1);
        assert_eq!(summaries[0].state, JobState::Running);
        assert_eq!(table.open_jobs().len(), 2);
        assert!(table.get(9).is_none());
    }
}
