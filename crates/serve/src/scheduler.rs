//! Server-side batch scheduling and admission control.
//!
//! The paper's accelerator sustains throughput by keeping its search
//! arrays *saturated but never oversubscribed*: queries are batched onto
//! a fixed amount of device parallelism. The host-side serving layer
//! needs the same discipline — `hdoms serve` answers each connection on
//! its own thread, and without a shared scheduler N concurrent clients
//! would each run their batch with full worker parallelism,
//! oversubscribing the CPU N-fold exactly where a production system
//! needs predictable latency most.
//!
//! [`Scheduler`] is that discipline. It owns a fixed budget of
//! **worker tokens** (sized to the machine) and a bounded queue of
//! waiting batches, and it hands out [`WorkPermit`]s that grant a batch
//! an explicit worker budget:
//!
//! * **bounded in-flight work** — the sum of granted budgets never
//!   exceeds `workers`; a batch that cannot be granted at least one
//!   token waits in the queue;
//! * **fair dequeue** — waiting batches are queued *per client* and
//!   granted round-robin across clients, so one greedy connection
//!   streaming batches back-to-back cannot starve an interactive one;
//! * **priority tiers** — every batch carries a [`Tier`]: `interactive`
//!   traffic is queued separately from `batch` traffic and granted with
//!   a weighted round-robin (`interactive_weight` interactive grants
//!   per batch grant while both tiers wait), so interactive p99 stays
//!   low while bulk traffic still saturates the worker budget;
//! * **adaptive budgets** — a lone batch is granted every free token
//!   (full parallelism, the pre-scheduler behaviour); under contention
//!   the free tokens are split evenly across waiting batches, down to
//!   one each;
//! * **admission control** — each tier bounds its own queue
//!   (`queue_depth` for batch, `interactive_queue_depth` for
//!   interactive); submissions beyond the bound are rejected
//!   immediately with [`ScheduleError::Busy`] (the wire's structured
//!   `busy` error) instead of queueing without bound;
//! * **soft deadlines** — a batch still queued `deadline_ms` after
//!   submission gives up and reports [`ScheduleError::Deadline`]; work
//!   the client has stopped waiting for is shed instead of executed.
//!
//! The scheduler is *passive*: it spawns no threads. The submitting
//! (connection) thread blocks in [`Scheduler::admit`] until granted,
//! then executes its own batch with the granted budget (the engine's
//! entry points take that budget — `Session::submit(spectra, workers)`
//! spreads the batch over exactly that many workers). Dropping the
//! permit returns the tokens and wakes the queue. This keeps batch
//! execution on the thread that owns the connection state (sessions,
//! leases) while still bounding total parallelism; see
//! `docs/SCHEDULER.md` for the queueing model and tuning guide.
//!
//! ```
//! use hdoms_serve::scheduler::{Scheduler, SchedulerConfig, Tier};
//!
//! let scheduler = Scheduler::new(SchedulerConfig {
//!     workers: 4,
//!     queue_depth: 16,
//!     deadline_ms: 0, // no deadline
//!     ..SchedulerConfig::default()
//! });
//! // Client 1 at the batch tier, nothing queued: a lone batch gets the
//! // full budget, and dropping the permit returns the tokens.
//! let permit = scheduler.admit(1, Tier::Batch).unwrap();
//! assert_eq!(permit.workers(), 4);
//! drop(permit);
//! assert_eq!(scheduler.stats().completed, 1);
//! ```

use hdoms_obs::metrics::Registry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound on waiting batches (matches the TCP front end's
/// connection cap: every connection can have at most one batch waiting).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default interactive-to-batch grant ratio while both tiers wait.
pub const DEFAULT_INTERACTIVE_WEIGHT: usize = 4;

/// A request priority class. Interactive traffic (a person waiting on a
/// search box) is queued separately from bulk batch traffic (a reprocess
/// job streaming thousands of spectra) and granted workers with a
/// weighted round-robin, so a batch backlog cannot sit in front of an
/// interactive query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Latency-sensitive traffic; dequeued preferentially
    /// (`interactive_weight` grants per batch grant under contention).
    Interactive = 0,
    /// Throughput traffic — the default for requests that do not say.
    #[default]
    Batch = 1,
}

/// How many tiers exist (sizes the per-tier state arrays).
pub(crate) const TIER_COUNT: usize = 2;

impl Tier {
    /// The wire name (`"interactive"` / `"batch"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Interactive => "interactive",
            Tier::Batch => "batch",
        }
    }

    /// Parse a wire/CLI tier name.
    ///
    /// # Errors
    ///
    /// Describes the unknown name and lists the accepted ones.
    pub fn parse(raw: &str) -> Result<Tier, String> {
        match raw {
            "interactive" => Ok(Tier::Interactive),
            "batch" => Ok(Tier::Batch),
            other => Err(format!(
                "unknown tier {other:?} (expected \"interactive\" or \"batch\")"
            )),
        }
    }

    /// Both tiers, in state-array order.
    pub const ALL: [Tier; TIER_COUNT] = [Tier::Interactive, Tier::Batch];
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler sizing knobs (the `hdoms serve --workers / --queue-depth /
/// --deadline-ms / --interactive-weight / --interactive-queue-depth`
/// flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Total worker tokens — the most search parallelism in flight at
    /// once, across every concurrent batch. Size it to the machine.
    pub workers: usize,
    /// Most **batch-tier** submissions allowed to wait in the queue;
    /// submissions beyond it are rejected with the structured `busy`
    /// error. `0` disables queueing entirely (a batch is admitted
    /// immediately or rejected).
    pub queue_depth: usize,
    /// Soft per-batch queue deadline in milliseconds; a batch still
    /// waiting after this long is shed with the structured `deadline`
    /// error. `0` disables deadlines (wait indefinitely).
    pub deadline_ms: u64,
    /// Interactive grants per batch grant while both tiers have
    /// waiters (clamped to at least 1). Higher values protect
    /// interactive latency harder under a batch backlog.
    pub interactive_weight: usize,
    /// Most **interactive-tier** submissions allowed to wait; the
    /// interactive queue is bounded separately so a batch backlog
    /// cannot consume the interactive admission budget.
    pub interactive_queue_depth: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: hdoms_hdc::parallel::default_threads(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            deadline_ms: 0,
            interactive_weight: DEFAULT_INTERACTIVE_WEIGHT,
            interactive_queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

impl SchedulerConfig {
    /// The queue bound for `tier`.
    pub(crate) fn depth_for(&self, tier: Tier) -> usize {
        match tier {
            Tier::Interactive => self.interactive_queue_depth,
            Tier::Batch => self.queue_depth,
        }
    }
}

/// Why a batch was not admitted. Both cases map onto structured wire
/// errors (`{"type":"error","code":"busy"|"deadline",...}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The submitting tier's queue already holds its bound of waiting
    /// batches; the submission was rejected without queueing.
    Busy {
        /// Batches of the submitting tier waiting at rejection time.
        queued: usize,
        /// The submitting tier's configured queue bound.
        queue_depth: usize,
    },
    /// The batch waited past the configured soft deadline and was shed
    /// before execution.
    Deadline {
        /// How long the batch waited before giving up, milliseconds.
        waited_ms: u64,
        /// The configured deadline.
        deadline_ms: u64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Busy {
                queued,
                queue_depth,
            } => write!(
                f,
                "server busy: {queued} batches queued (queue depth {queue_depth}); retry later"
            ),
            ScheduleError::Deadline {
                waited_ms,
                deadline_ms,
            } => write!(
                f,
                "queue deadline exceeded: waited {waited_ms} ms (deadline {deadline_ms} ms)"
            ),
        }
    }
}

/// One tier's slice of a [`SchedulerStats`] snapshot. Taken under the
/// same lock acquisition as every other field, so cross-tier sums are
/// never torn (a reader can never see tier A's `completed` from before
/// a grant and tier B's `queued` from after it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierStats {
    /// Batches of this tier waiting in the queue right now.
    pub queued: usize,
    /// Batches of this tier executing right now.
    pub in_flight: usize,
    /// Batches of this tier admitted (granted a budget) so far.
    pub admitted: u64,
    /// Admitted batches of this tier whose permit has been returned.
    pub completed: u64,
    /// Submissions of this tier rejected at admission (`busy`).
    pub rejected_busy: u64,
    /// Batches of this tier shed after waiting past their deadline.
    pub shed_deadline: u64,
    /// Total queue wait across this tier's admitted and shed batches,
    /// milliseconds.
    pub total_wait_ms: f64,
}

/// A point-in-time snapshot of the scheduler, plus its lifetime
/// counters (the `server.stats` verb reports these). The aggregate
/// fields equal the sum of the per-tier slices in [`tiers`](Self::tiers)
/// — both are filled from one lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerStats {
    /// Configured worker-token budget.
    pub workers: usize,
    /// Configured batch-tier queue bound.
    pub queue_depth: usize,
    /// Configured soft deadline (0 = none).
    pub deadline_ms: u64,
    /// Configured interactive-to-batch grant ratio.
    pub interactive_weight: usize,
    /// Configured interactive-tier queue bound.
    pub interactive_queue_depth: usize,
    /// Batches waiting in the queue right now (all tiers).
    pub queued: usize,
    /// Batches executing right now (each holds ≥ 1 token).
    pub in_flight: usize,
    /// Worker tokens granted right now (always ≤ `workers`).
    pub workers_busy: usize,
    /// Most tokens ever granted at once (always ≤ `workers` — the
    /// bounded-in-flight invariant, asserted by tests).
    pub peak_workers_busy: usize,
    /// Batches admitted (granted a budget) so far, all tiers.
    pub admitted: u64,
    /// Admitted batches whose permit has been returned, all tiers.
    pub completed: u64,
    /// Submissions rejected at admission (`busy`), all tiers.
    pub rejected_busy: u64,
    /// Batches shed after waiting past their deadline, all tiers.
    pub shed_deadline: u64,
    /// Total queue wait across admitted **and shed** batches,
    /// milliseconds. Shed batches waited too — dropping their queue
    /// time would understate tail wait exactly when admission pressure
    /// makes it interesting.
    pub total_wait_ms: f64,
    /// The per-tier slices (indexed by `Tier as usize`), from the same
    /// lock acquisition as the aggregates above.
    pub tiers: [TierStats; TIER_COUNT],
}

impl SchedulerStats {
    /// The slice for `tier`.
    pub fn tier(&self, tier: Tier) -> &TierStats {
        &self.tiers[tier as usize]
    }
}

hdoms_obs::metrics::series! {
    /// The aggregate series the scheduler exports. The per-tier
    /// [`TierStats`] under the state lock stay the store —
    /// [`SchedulerStats`] promises a per-tier snapshot from one lock
    /// acquisition — and every decision moves both in
    /// [`Scheduler::count`], nowhere else.
    struct SchedSeries {
        queue_wait_ms: Histogram = "hdoms_queue_wait_ms", "Scheduler queue wait per batch, admitted and deadline-shed alike";
        admitted: Counter = "hdoms_sched_admitted_total", "Batches granted a worker budget";
        completed: Counter = "hdoms_sched_completed_total", "Admitted batches whose permit was returned";
        rejected_busy: Counter = "hdoms_sched_rejected_busy_total", "Submissions rejected at admission with the busy error";
        shed_deadline: Counter = "hdoms_sched_shed_deadline_total", "Batches shed after waiting past the soft deadline";
        workers_busy: Gauge = "hdoms_workers_busy", "Worker tokens granted right now";
    }
}

/// What became of one submission (queue wait in milliseconds where the
/// batch queued at all).
enum Decision {
    Admitted(f64),
    Shed(f64),
    RejectedBusy,
    Completed,
}

/// One tier's waiting queue: per-client FIFOs granted round-robin.
#[derive(Default)]
struct TierQueue {
    /// Per-client FIFO of waiting ticket ids.
    pending: HashMap<u64, VecDeque<u64>>,
    /// Round-robin order over clients with waiting tickets.
    clients: VecDeque<u64>,
}

struct State {
    /// Free worker tokens (of the configured `workers`).
    available: usize,
    /// Ticket id → granted budget (`None` while waiting; granted
    /// tickets stay here until picked up by their submitter).
    tickets: HashMap<u64, Option<usize>>,
    /// Per-tier waiting queues (indexed by `Tier as usize`).
    queues: [TierQueue; TIER_COUNT],
    /// Interactive grants remaining before a batch grant is owed
    /// (consumed only while both tiers have waiters).
    interactive_credit: usize,
    peak_busy: usize,
    next_ticket: u64,
    /// Per-tier queue lengths and lifetime counters (indexed by
    /// `Tier as usize`) — the store [`Scheduler::stats`] copies out.
    tiers: [TierStats; TIER_COUNT],
}

impl State {
    fn total_queued(&self) -> usize {
        self.tiers.iter().map(|t| t.queued).sum()
    }
}

/// The shared batch scheduler: a fixed worker-token budget, a bounded
/// per-client-fair queue per tier, weighted tier round-robin, soft
/// deadlines, and admission control. See the [module docs](self) for
/// the model.
pub struct Scheduler {
    config: SchedulerConfig,
    state: Mutex<State>,
    granted: Condvar,
    series: SchedSeries,
}

impl Scheduler {
    /// A scheduler over `config.workers` worker tokens (at least one),
    /// recording into a registry of its own.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        Scheduler::with_metrics(config, &Registry::new())
    }

    /// A scheduler whose series are registered in `registry`: the
    /// `hdoms_queue_wait_ms` histogram (admitted and shed batches
    /// alike), the `hdoms_sched_*_total` counters, and the
    /// `hdoms_workers_busy` gauge. The registry is the export path;
    /// [`Scheduler::stats`] reads the per-tier store either way.
    pub fn with_metrics(config: SchedulerConfig, registry: &Registry) -> Scheduler {
        let workers = config.workers.max(1);
        let interactive_weight = config.interactive_weight.max(1);
        Scheduler {
            config: SchedulerConfig {
                workers,
                interactive_weight,
                ..config
            },
            series: SchedSeries::register(registry),
            state: Mutex::new(State {
                available: workers,
                tickets: HashMap::new(),
                queues: Default::default(),
                interactive_credit: interactive_weight,
                peak_busy: 0,
                next_ticket: 1,
                tiers: Default::default(),
            }),
            granted: Condvar::new(),
        }
    }

    /// The one site a decision is counted: the tier's slice of the
    /// store (which [`Scheduler::stats`] snapshots under the lock the
    /// caller holds) and the aggregate series move together.
    fn count(&self, state: &mut State, tier: Tier, decision: Decision) {
        let stats = &mut state.tiers[tier as usize];
        let (count, total, wait_ms) = match decision {
            Decision::Admitted(ms) => (&mut stats.admitted, &self.series.admitted, Some(ms)),
            Decision::Shed(ms) => (
                &mut stats.shed_deadline,
                &self.series.shed_deadline,
                Some(ms),
            ),
            Decision::RejectedBusy => (&mut stats.rejected_busy, &self.series.rejected_busy, None),
            Decision::Completed => (&mut stats.completed, &self.series.completed, None),
        };
        *count += 1;
        total.inc();
        if let Some(wait_ms) = wait_ms {
            stats.total_wait_ms += wait_ms;
            self.series.queue_wait_ms.record_ms(wait_ms);
        }
        let busy = self.config.workers - state.available;
        self.series.workers_busy.set(busy as i64);
    }

    /// Ask for a worker budget on behalf of `client` at `tier`,
    /// blocking until the queue grants one. Returns a [`WorkPermit`]
    /// whose [`workers()`](WorkPermit::workers) budget the caller must
    /// respect while executing its batch; dropping the permit returns
    /// the tokens.
    ///
    /// Batches from the same client are granted in submission order;
    /// across clients within a tier, grants rotate round-robin; across
    /// tiers, interactive is granted `interactive_weight` times per
    /// batch grant while both tiers wait.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Busy`] when the tier's queue bound is already
    /// full (immediate, without queueing); [`ScheduleError::Deadline`]
    /// when the batch waited past the configured soft deadline.
    pub fn admit(&self, client: u64, tier: Tier) -> Result<WorkPermit<'_>, ScheduleError> {
        let enqueued = Instant::now();
        let deadline = (self.config.deadline_ms > 0)
            .then(|| enqueued + Duration::from_millis(self.config.deadline_ms));

        let mut state = self.state.lock().expect("scheduler state lock");
        // Admission control: when the tier's queue is full, reject
        // instead of queueing — unless the batch would not queue at all
        // (tokens free and nobody ahead of it anywhere).
        let immediate = state.total_queued() == 0 && state.available > 0;
        let depth = self.config.depth_for(tier);
        let queued = state.tiers[tier as usize].queued;
        if queued >= depth && !immediate {
            self.count(&mut state, tier, Decision::RejectedBusy);
            return Err(ScheduleError::Busy {
                queued,
                queue_depth: depth,
            });
        }
        let queued_behind = state.total_queued();

        // Enqueue a ticket under this client and let the grant loop run
        // (it may grant this very ticket synchronously).
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.tickets.insert(ticket, None);
        let queue = &mut state.queues[tier as usize];
        let fifo = queue.pending.entry(client).or_default();
        fifo.push_back(ticket);
        if fifo.len() == 1 {
            queue.clients.push_back(client);
        }
        state.tiers[tier as usize].queued += 1;
        if self.grant_ready(&mut state) {
            // Another waiter may have been granted alongside us.
            self.granted.notify_all();
        }

        loop {
            if let Some(budget) = *state
                .tickets
                .get(&ticket)
                .expect("own ticket stays registered")
            {
                state.tickets.remove(&ticket);
                let wait_ms = enqueued.elapsed().as_secs_f64() * 1e3;
                self.count(&mut state, tier, Decision::Admitted(wait_ms));
                return Ok(WorkPermit {
                    scheduler: self,
                    budget,
                    tier,
                    wait_ms,
                    queued_behind,
                });
            }
            match deadline {
                None => {
                    state = self.granted.wait(state).expect("scheduler state lock");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        // Shed: still waiting past the soft deadline.
                        // The shed batch waited too — count its queue
                        // time, or tail wait under admission pressure
                        // would be understated exactly when it matters.
                        let waited_ms = enqueued.elapsed().as_secs_f64() * 1e3;
                        Self::abandon(&mut state, ticket, client, tier);
                        self.count(&mut state, tier, Decision::Shed(waited_ms));
                        return Err(ScheduleError::Deadline {
                            waited_ms: waited_ms as u64,
                            deadline_ms: self.config.deadline_ms,
                        });
                    }
                    let (next, _) = self
                        .granted
                        .wait_timeout(state, deadline - now)
                        .expect("scheduler state lock");
                    state = next;
                }
            }
        }
    }

    /// Pick the tier to grant from next. Only one tier waiting: that
    /// one (no credit is consumed — there is no contention to
    /// arbitrate). Both waiting: interactive while credit remains, then
    /// one batch grant and the credit refills.
    fn pick_tier(&self, state: &mut State) -> Option<Tier> {
        let interactive = state.tiers[Tier::Interactive as usize].queued > 0;
        let batch = state.tiers[Tier::Batch as usize].queued > 0;
        match (interactive, batch) {
            (false, false) => None,
            (true, false) => Some(Tier::Interactive),
            (false, true) => Some(Tier::Batch),
            (true, true) => {
                if state.interactive_credit > 0 {
                    state.interactive_credit -= 1;
                    Some(Tier::Interactive)
                } else {
                    state.interactive_credit = self.config.interactive_weight;
                    Some(Tier::Batch)
                }
            }
        }
    }

    /// Grant free tokens to waiting tickets: weighted round-robin
    /// across tiers, round-robin across clients within a tier. Each
    /// grant takes an even share of what is free (at least one token,
    /// everything when the queues are about to drain). Returns whether
    /// anything was granted (callers then wake the waiters).
    fn grant_ready(&self, state: &mut State) -> bool {
        let mut granted_any = false;
        while state.available > 0 {
            let Some(tier) = self.pick_tier(state) else {
                break;
            };
            let queue = &mut state.queues[tier as usize];
            let client = queue
                .clients
                .pop_front()
                .expect("queued > 0 implies a client in rotation");
            let fifo = queue
                .pending
                .get_mut(&client)
                .expect("rotating client has a fifo");
            let ticket = fifo.pop_front().expect("rotating client has a ticket");
            if fifo.is_empty() {
                queue.pending.remove(&client);
            } else {
                queue.clients.push_back(client);
            }
            state.tiers[tier as usize].queued -= 1;
            // Even share over everyone still waiting (plus this batch),
            // clamped to [1, available]: a lone batch takes everything,
            // a storm degrades to one token each.
            let share = state.available / (state.total_queued() + 1);
            let budget = share.clamp(1, state.available);
            state.available -= budget;
            state.tiers[tier as usize].in_flight += 1;
            state.peak_busy = state.peak_busy.max(self.config.workers - state.available);
            granted_any = true;
            *state
                .tickets
                .get_mut(&ticket)
                .expect("waiting ticket is registered") = Some(budget);
        }
        granted_any
    }

    /// Remove a still-waiting ticket (deadline shed).
    fn abandon(state: &mut State, ticket: u64, client: u64, tier: Tier) {
        state.tickets.remove(&ticket);
        let queue = &mut state.queues[tier as usize];
        if let Some(fifo) = queue.pending.get_mut(&client) {
            fifo.retain(|&t| t != ticket);
            if fifo.is_empty() {
                queue.pending.remove(&client);
                queue.clients.retain(|&c| c != client);
            }
        }
        state.tiers[tier as usize].queued -= 1;
    }

    fn release(&self, budget: usize, tier: Tier) {
        let mut state = self.state.lock().expect("scheduler state lock");
        state.available += budget;
        state.tiers[tier as usize].in_flight -= 1;
        let _ = self.grant_ready(&mut state);
        self.count(&mut state, tier, Decision::Completed);
        drop(state);
        self.granted.notify_all();
    }

    /// Snapshot the queues and the lifetime counters — per-tier and
    /// aggregate alike, all from **one** lock acquisition, so a reader
    /// can never observe tier counters torn against each other.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.state.lock().expect("scheduler state lock");
        let tiers = state.tiers;
        SchedulerStats {
            workers: self.config.workers,
            queue_depth: self.config.queue_depth,
            deadline_ms: self.config.deadline_ms,
            interactive_weight: self.config.interactive_weight,
            interactive_queue_depth: self.config.interactive_queue_depth,
            queued: tiers.iter().map(|t| t.queued).sum(),
            in_flight: tiers.iter().map(|t| t.in_flight).sum(),
            workers_busy: self.config.workers - state.available,
            peak_workers_busy: state.peak_busy,
            admitted: tiers.iter().map(|t| t.admitted).sum(),
            completed: tiers.iter().map(|t| t.completed).sum(),
            rejected_busy: tiers.iter().map(|t| t.rejected_busy).sum(),
            shed_deadline: tiers.iter().map(|t| t.shed_deadline).sum(),
            total_wait_ms: tiers.iter().map(|t| t.total_wait_ms).sum(),
            tiers,
        }
    }
}

/// Permission to execute one batch with an explicit worker budget.
/// Returned by [`Scheduler::admit`]; dropping it returns the tokens and
/// wakes the queue (this runs in `Drop`, so a panicking batch still
/// frees its workers).
pub struct WorkPermit<'a> {
    scheduler: &'a Scheduler,
    budget: usize,
    tier: Tier,
    wait_ms: f64,
    queued_behind: usize,
}

impl WorkPermit<'_> {
    /// The granted worker budget — the batch must not use more
    /// parallelism than this.
    pub fn workers(&self) -> usize {
        self.budget
    }

    /// How long the batch waited in the queue, milliseconds.
    pub(crate) fn wait_ms(&self) -> f64 {
        self.wait_ms
    }

    /// Batches that were already waiting when this one was submitted
    /// (the queue depth ahead of it at submission time, all tiers).
    pub(crate) fn queued_behind(&self) -> usize {
        self.queued_behind
    }
}

impl Drop for WorkPermit<'_> {
    fn drop(&mut self) {
        self.scheduler.release(self.budget, self.tier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    fn config(workers: usize, queue_depth: usize, deadline_ms: u64) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            queue_depth,
            deadline_ms,
            // Tests that exercise tiering set these explicitly.
            interactive_queue_depth: queue_depth,
            ..SchedulerConfig::default()
        }
    }

    /// Block until the scheduler reports `n` queued batches.
    fn wait_for_queued(scheduler: &Scheduler, n: usize) {
        for _ in 0..2000 {
            if scheduler.stats().queued == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("queue never reached {n} (at {})", scheduler.stats().queued);
    }

    #[test]
    fn lone_batch_gets_the_full_budget() {
        let scheduler = Scheduler::new(config(8, 4, 0));
        let permit = scheduler.admit(1, Tier::Batch).unwrap();
        assert_eq!(permit.workers(), 8);
        assert_eq!(permit.queued_behind(), 0);
        assert_eq!(permit.tier, Tier::Batch);
        let stats = scheduler.stats();
        assert_eq!(stats.workers_busy, 8);
        assert_eq!(stats.in_flight, 1);
        drop(permit);
        let stats = scheduler.stats();
        assert_eq!(stats.workers_busy, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn contended_budgets_split_down_to_one_token() {
        let scheduler = Arc::new(Scheduler::new(config(4, 64, 0)));
        // Occupy everything, then storm it: every follower should run
        // with budget 1 once the queue is longer than the free tokens.
        let blocker = scheduler.admit(0, Tier::Batch).unwrap();
        let busy = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for client in 1..=16u64 {
                let scheduler = Arc::clone(&scheduler);
                let busy = Arc::clone(&busy);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    for _ in 0..4 {
                        let permit = scheduler.admit(client, Tier::Batch).unwrap();
                        let now =
                            busy.fetch_add(permit.workers(), Ordering::SeqCst) + permit.workers();
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        busy.fetch_sub(permit.workers(), Ordering::SeqCst);
                    }
                });
            }
            wait_for_queued(&scheduler, 16);
            drop(blocker);
        });
        // The bounded-in-flight invariant, measured *inside* the jobs:
        // the sum of granted budgets never exceeded the 4 workers.
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "in-flight exceeded budget"
        );
        let stats = scheduler.stats();
        assert!(stats.peak_workers_busy <= 4);
        assert_eq!(stats.completed, 16 * 4 + 1);
        assert_eq!(stats.workers_busy, 0);
    }

    #[test]
    fn round_robin_alternates_between_greedy_clients() {
        let scheduler = Arc::new(Scheduler::new(config(1, 64, 0)));
        // Hold the only token so both clients queue up fully, then
        // release and watch the grant order.
        let blocker = scheduler.admit(99, Tier::Batch).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(8));
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let client = i % 2; // 4 tickets each for clients 0 and 1
                let scheduler = Arc::clone(&scheduler);
                let order = Arc::clone(&order);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let permit = scheduler.admit(client, Tier::Batch).unwrap();
                    order.lock().unwrap().push(client);
                    drop(permit);
                });
            }
            wait_for_queued(&scheduler, 8);
            drop(blocker);
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 8);
        // Strict alternation: with one token, grants are serialized, and
        // round-robin never serves the same client twice in a row while
        // the other still waits.
        for pair in order.windows(2) {
            assert_ne!(pair[0], pair[1], "grant order {order:?} starves a client");
        }
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let scheduler = Scheduler::new(config(1, 2, 0));
        let _running = scheduler.admit(0, Tier::Batch).unwrap();
        let scheduler = &scheduler;
        std::thread::scope(|scope| {
            // Two waiters fill the queue...
            for client in [1u64, 2] {
                scope.spawn(move || {
                    let _ = scheduler.admit(client, Tier::Batch).unwrap();
                });
            }
            wait_for_queued(scheduler, 2);
            // ...the third submission is rejected immediately.
            match scheduler.admit(3, Tier::Batch) {
                Err(ScheduleError::Busy {
                    queued,
                    queue_depth,
                }) => {
                    assert_eq!(queued, 2);
                    assert_eq!(queue_depth, 2);
                }
                Err(other) => panic!("expected busy, got {other:?}"),
                Ok(_) => panic!("expected busy, got a permit"),
            }
            assert_eq!(scheduler.stats().rejected_busy, 1);
            drop(_running);
        });
    }

    #[test]
    fn zero_queue_depth_admits_or_rejects_immediately() {
        let scheduler = Scheduler::new(config(2, 0, 0));
        let permit = scheduler.admit(1, Tier::Batch).unwrap(); // free tokens: admitted
        match scheduler.admit(2, Tier::Batch) {
            Err(ScheduleError::Busy { queue_depth: 0, .. }) => {}
            Err(other) => panic!("expected busy, got {other:?}"),
            Ok(_) => panic!("expected busy, got a permit"),
        }
        drop(permit);
        assert!(scheduler.admit(2, Tier::Batch).is_ok());
    }

    #[test]
    fn deadline_sheds_a_stuck_batch() {
        let scheduler = Scheduler::new(config(1, 8, 25));
        let running = scheduler.admit(0, Tier::Batch).unwrap();
        let start = Instant::now();
        match scheduler.admit(1, Tier::Batch) {
            Err(ScheduleError::Deadline {
                waited_ms,
                deadline_ms,
            }) => {
                assert_eq!(deadline_ms, 25);
                assert!(waited_ms >= 25);
            }
            Err(other) => panic!("expected deadline, got {other:?}"),
            Ok(_) => panic!("expected deadline, got a permit"),
        }
        assert!(start.elapsed() >= Duration::from_millis(25));
        let stats = scheduler.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.queued, 0, "shed ticket left the queue");
        // Satellite fix: the shed batch's queue time lands in the wait
        // total — without it, tail wait under shedding looks rosy.
        assert!(
            stats.total_wait_ms >= 25.0,
            "shed wait missing from total_wait_ms ({})",
            stats.total_wait_ms
        );
        drop(running);
        // The pool is intact: the next batch is granted normally.
        assert_eq!(scheduler.admit(1, Tier::Batch).unwrap().workers(), 1);
    }

    #[test]
    fn wait_time_is_accounted() {
        let scheduler = Scheduler::new(config(1, 8, 0));
        let running = scheduler.admit(0, Tier::Batch).unwrap();
        let scheduler = &scheduler;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                scheduler
                    .admit(1, Tier::Batch)
                    .map(|p| p.wait_ms())
                    .unwrap()
            });
            wait_for_queued(scheduler, 1);
            std::thread::sleep(Duration::from_millis(10));
            drop(running);
            let waited = handle.join().unwrap();
            assert!(waited >= 5.0, "waited only {waited} ms");
        });
        assert!(scheduler.stats().total_wait_ms >= 5.0);
    }

    #[test]
    fn instrumented_scheduler_mirrors_its_counters_into_the_registry() {
        let registry = Registry::new();
        let scheduler = Scheduler::new(config(1, 8, 25));
        let instrumented = Scheduler::with_metrics(config(1, 0, 25), &registry);
        drop(scheduler); // plain scheduler registers nothing
        let permit = instrumented.admit(1, Tier::Batch).unwrap();
        match instrumented.admit(2, Tier::Batch) {
            Err(ScheduleError::Busy { .. }) => {}
            Err(other) => panic!("expected busy, got {other:?}"),
            Ok(_) => panic!("expected busy, got a permit"),
        }
        drop(permit);
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("counter {name} not registered"))
        };
        assert_eq!(counter("hdoms_sched_admitted_total"), 1);
        assert_eq!(counter("hdoms_sched_completed_total"), 1);
        assert_eq!(counter("hdoms_sched_rejected_busy_total"), 1);
        assert_eq!(counter("hdoms_sched_shed_deadline_total"), 0);
        let (_, wait) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "hdoms_queue_wait_ms")
            .expect("wait histogram registered");
        assert_eq!(wait.count(), 1, "one admitted batch recorded");
        let (_, busy_now) = snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == "hdoms_workers_busy")
            .expect("busy gauge registered");
        assert_eq!(*busy_now, 0, "permit returned its token");
    }

    #[test]
    fn shed_waits_reach_the_registry_histogram() {
        let registry = Registry::new();
        let scheduler = Scheduler::with_metrics(config(1, 8, 25), &registry);
        let running = scheduler.admit(0, Tier::Batch).unwrap();
        match scheduler.admit(1, Tier::Batch) {
            Err(ScheduleError::Deadline { .. }) => {}
            Err(other) => panic!("expected deadline, got {other:?}"),
            Ok(_) => panic!("expected deadline, got a permit"),
        }
        drop(running);
        let snapshot = registry.snapshot();
        let (_, wait) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "hdoms_queue_wait_ms")
            .expect("wait histogram registered");
        // Two samples: the instantly-admitted blocker and the shed
        // batch; the shed one waited ≥ the 25 ms deadline.
        assert_eq!(wait.count(), 2);
        assert!(wait.sum_ms() >= 25.0, "sum {}", wait.sum_ms());
    }

    #[test]
    fn interactive_jumps_a_batch_backlog() {
        // One token, held. Four batch waiters pile up, then one
        // interactive waiter arrives last. With the interactive credit
        // fresh, the first grant after release must go to the
        // interactive ticket despite four batch tickets ahead of it in
        // arrival order.
        let scheduler = Arc::new(Scheduler::new(config(1, 64, 0)));
        let blocker = scheduler.admit(0, Tier::Batch).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for client in 1..=4u64 {
                let scheduler = Arc::clone(&scheduler);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let permit = scheduler.admit(client, Tier::Batch).unwrap();
                    order.lock().unwrap().push(Tier::Batch);
                    drop(permit);
                });
            }
            wait_for_queued(&scheduler, 4);
            let late = {
                let scheduler = Arc::clone(&scheduler);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let permit = scheduler.admit(9, Tier::Interactive).unwrap();
                    order.lock().unwrap().push(Tier::Interactive);
                    drop(permit);
                })
            };
            wait_for_queued(&scheduler, 5);
            drop(blocker);
            late.join().unwrap();
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 5);
        assert_eq!(
            order[0],
            Tier::Interactive,
            "interactive ticket did not jump the batch backlog: {order:?}"
        );
    }

    #[test]
    fn tier_queue_depths_bound_independently() {
        // Batch queue holds 2; interactive queue holds 1. Filling the
        // batch queue must not consume interactive admission, and vice
        // versa — each tier rejects against its own bound.
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 2,
            deadline_ms: 0,
            interactive_weight: 4,
            interactive_queue_depth: 1,
        });
        let _running = scheduler.admit(0, Tier::Batch).unwrap();
        let scheduler = &scheduler;
        std::thread::scope(|scope| {
            for client in [1u64, 2] {
                scope.spawn(move || {
                    let _ = scheduler.admit(client, Tier::Batch).unwrap();
                });
            }
            wait_for_queued(scheduler, 2);
            // Batch bound reached; batch rejects against depth 2...
            match scheduler.admit(3, Tier::Batch) {
                Err(ScheduleError::Busy {
                    queued: 2,
                    queue_depth: 2,
                }) => {}
                Err(other) => panic!("expected batch-busy, got {other:?}"),
                Ok(_) => panic!("expected batch-busy, got a permit"),
            }
            // ...while interactive still admits into its own queue.
            scope.spawn(move || {
                let _ = scheduler.admit(4, Tier::Interactive).unwrap();
            });
            wait_for_queued(scheduler, 3);
            // Interactive bound (1) now reached too.
            match scheduler.admit(5, Tier::Interactive) {
                Err(ScheduleError::Busy {
                    queued: 1,
                    queue_depth: 1,
                }) => {}
                Err(other) => panic!("expected interactive-busy, got {other:?}"),
                Ok(_) => panic!("expected interactive-busy, got a permit"),
            }
            let stats = scheduler.stats();
            assert_eq!(stats.tier(Tier::Batch).rejected_busy, 1);
            assert_eq!(stats.tier(Tier::Interactive).rejected_busy, 1);
            drop(_running);
        });
    }

    #[test]
    fn tier_stats_sum_to_the_aggregates() {
        let scheduler = Scheduler::new(config(2, 8, 0));
        drop(scheduler.admit(1, Tier::Interactive).unwrap());
        drop(scheduler.admit(1, Tier::Batch).unwrap());
        drop(scheduler.admit(2, Tier::Interactive).unwrap());
        let stats = scheduler.stats();
        assert_eq!(stats.tier(Tier::Interactive).admitted, 2);
        assert_eq!(stats.tier(Tier::Batch).admitted, 1);
        assert_eq!(stats.tier(Tier::Interactive).completed, 2);
        assert_eq!(stats.tier(Tier::Batch).completed, 1);
        // The aggregates are derived from the same snapshot.
        assert_eq!(
            stats.admitted,
            stats.tiers.iter().map(|t| t.admitted).sum::<u64>()
        );
        assert_eq!(
            stats.completed,
            stats.tiers.iter().map(|t| t.completed).sum::<u64>()
        );
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn weighted_round_robin_lets_batch_through() {
        // Weight 2: under sustained two-tier contention the grant
        // pattern must cede every third token to batch — interactive
        // preference must not become batch starvation.
        let scheduler = Arc::new(Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 64,
            deadline_ms: 0,
            interactive_weight: 2,
            interactive_queue_depth: 64,
        }));
        let blocker = scheduler.admit(0, Tier::Batch).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for i in 0..6u64 {
                let scheduler = Arc::clone(&scheduler);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let permit = scheduler.admit(10 + i, Tier::Interactive).unwrap();
                    order.lock().unwrap().push(Tier::Interactive);
                    // Hold briefly so the release-time grant sees both
                    // tiers still queued.
                    std::thread::sleep(Duration::from_millis(2));
                    drop(permit);
                });
            }
            for i in 0..3u64 {
                let scheduler = Arc::clone(&scheduler);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let permit = scheduler.admit(20 + i, Tier::Batch).unwrap();
                    order.lock().unwrap().push(Tier::Batch);
                    std::thread::sleep(Duration::from_millis(2));
                    drop(permit);
                });
            }
            wait_for_queued(&scheduler, 9);
            drop(blocker);
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 9);
        // Batch grants are interleaved, not banished to the tail: the
        // first batch grant appears within the first weight+1 grants.
        let first_batch = order
            .iter()
            .position(|&t| t == Tier::Batch)
            .expect("batch tickets were granted");
        assert!(
            first_batch <= 2,
            "batch starved until position {first_batch}: {order:?}"
        );
    }

    #[test]
    fn tier_names_roundtrip() {
        for tier in Tier::ALL {
            assert_eq!(Tier::parse(tier.name()), Ok(tier));
        }
        assert!(Tier::parse("gold").is_err());
        assert_eq!(Tier::default(), Tier::Batch);
        assert_eq!(Tier::Interactive.to_string(), "interactive");
    }
}
