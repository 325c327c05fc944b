//! Sharded multi-master federation.
//!
//! The paper scales its single master by federating N of them: each
//! master owns a disjoint worker shard and runs the unmodified
//! allocation protocol over it; masters exchange eventually-consistent
//! load summaries on a gossip schedule and *spill* jobs across shards
//! when the local shard is saturated. This module implements that tier
//! as a deterministic **routing pre-pass** above the per-shard
//! runtimes:
//!
//! 1. every external arrival is pre-assigned a federation-wide,
//!    shard-qualified id ([`JobId::in_shard`]) and a routing decision
//!    (keep local, or hand off to the least-loaded viewed peer);
//! 2. each shard then executes its arrival stream on an *unmodified*
//!    single-master runtime — simulation or real threads — with the
//!    federation identity carried on [`JobSpec::origin`], so a spilled
//!    job enters the target shard's log as a `SpillIn` under its
//!    home-qualified id. The shards share no state, so sim shards run
//!    side by side, one lane per available core with the caller's
//!    thread among them, and the outputs come back in shard order
//!    whatever the interleaving. Threaded shards run in turn: each
//!    already runs N + 1 real threads on a scaled wall clock, so
//!    running several at once would change their timing, not only
//!    their speed;
//! 3. the home shard's log is augmented with the hand-off record
//!    (`Submitted` + `SpillOut`, derived from the spill records, the
//!    one record of each hand-off), and all shard logs are merged into
//!    one federation-wide [`SchedLog`] with shard-qualified worker ids
//!    ([`WorkerId::in_shard`]) for the cross-shard oracle. Every shard
//!    log is non-decreasing in time (debug-asserted), so the merge is
//!    one k-way pass over the shard logs' heads: earliest first, ties
//!    to the lower shard index, then `SchedLog::push`'s commuting-event
//!    rule within the instant. The makespan is read in the same pass.
//!
//! The routing tier is deliberately *estimate-based and lossy* (views
//! refresh on a gossip period and individual exchanges drop with a
//! seeded probability) — the correctness claim is not that routing is
//! optimal but that the **hand-off is exactly-once**: every `SpillOut`
//! in a home log is matched by exactly one `SpillIn` in the target
//! log, and every job completes exactly once, in exactly one shard, no
//! matter how stale the load views were. Two [`ProtocolMutation`]s,
//! armed on the engine template, reintroduce the canonical ways to get
//! that wrong (`DoubleSpill`: the forwarder keeps the job; `LostSpill`:
//! the receiver drops it) so the oracle's detection of both is
//! testable.

use crossbid_simcore::{SeedSequence, SimTime};
use parking_lot::Mutex;

use crate::engine::{EngineConfig, RunOutput};
use crate::faults::{Faults, MembershipAction};
use crate::job::{Arrival, FedIdentity, JobId, JobSpec, ShardId, WorkerId};
use crate::mutation::{self, ProtocolMutation};
use crate::scheduler::Allocator;
use crate::spec::RunSpec;
use crate::trace::{SchedEvent, SchedEventKind, SchedLog};
use crate::worker::WorkerSpec;
use crate::workflow::Workflow;

/// One shard of the federation: a master plus its disjoint worker
/// pool, with its own fault plan (worker crashes, lossy links, master
/// failover, elastic membership — every axis the single-master
/// runtimes support).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard's worker pool (at least one).
    pub workers: Vec<WorkerSpec>,
    /// The shard's fault aggregate, including its
    /// [`MembershipPlan`](crate::faults::MembershipPlan).
    pub faults: Faults,
}

impl ShardSpec {
    /// A fault-free shard over `workers`.
    pub fn new(workers: Vec<WorkerSpec>) -> Self {
        ShardSpec {
            workers,
            faults: Faults::new(),
        }
    }

    /// Attach a fault aggregate.
    pub fn faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }
}

/// Which single-master runtime executes each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FedRuntimeKind {
    /// The deterministic discrete-event engine.
    #[default]
    Sim,
    /// Real threads with scaled virtual time.
    Threaded,
}

/// Everything needed to run a federation scenario.
#[derive(Debug, Clone)]
pub struct FederationSpec {
    /// The shards (at least one; spilling needs at least two).
    pub shards: Vec<ShardSpec>,
    /// Spill when the estimated local completion horizon — decayed
    /// backlog plus this job, divided by active workers — exceeds this
    /// many virtual seconds. `f64::INFINITY` disables spilling (the
    /// single-master baseline), except from a shard with zero active
    /// workers, which must always forward.
    pub spill_threshold_secs: f64,
    /// Gossip period in virtual seconds (finite, positive): each tick,
    /// every master refreshes its view of every peer's backlog.
    pub gossip_period_secs: f64,
    /// Seeded probability, in `[0, 1]`, that one pairwise gossip
    /// exchange is lost (the view stays stale for that pair until the
    /// next tick).
    pub gossip_loss: f64,
    /// Virtual delay of a cross-shard hand-off. Must be positive so
    /// the target shard's `SpillIn` is strictly later than the home
    /// shard's `SpillOut` in the merged log (on the threaded runtime,
    /// size it well above the timing jitter of one intake).
    pub spill_latency_secs: f64,
    /// Root seed for the per-shard runtimes.
    pub seed: u64,
    /// Seed of the gossip-loss draw stream (the *net* axis of a
    /// replay tuple, independent of the run seed).
    pub net_seed: u64,
    /// Threaded runtime: real seconds per virtual second.
    pub time_scale: f64,
    /// Threaded runtime: contest window in virtual seconds.
    pub contest_window_secs: f64,
    /// Engine template applied to every shard (the per-shard
    /// [`EngineConfig::shard`] and fault fields are overridden). Its
    /// [`mutation`](EngineConfig::mutation) arms every shard, and the
    /// router reads `DoubleSpill` and `LostSpill` off it, applied to
    /// the run's **first** hand-off (a run that never spills leaves
    /// them inert).
    pub engine: EngineConfig,
    /// Which runtime executes the shards.
    pub runtime: FedRuntimeKind,
    /// Threaded runtime, test-only: seeded delivery-order perturbation
    /// at every shard master's intake (the *chaos* axis of a replay
    /// tuple). The sim runtime ignores it.
    pub chaos: Option<crate::threaded::ChaosConfig>,
}

impl FederationSpec {
    /// A federation over `shards` with the default routing parameters:
    /// 30 s spill threshold, 5 s gossip period, lossless gossip, 0.5 s
    /// hand-off latency, sim runtime, no mutation.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        FederationSpec {
            shards,
            spill_threshold_secs: 30.0,
            gossip_period_secs: 5.0,
            gossip_loss: 0.0,
            spill_latency_secs: 0.5,
            seed: 0,
            net_seed: 0,
            time_scale: 1e-3,
            contest_window_secs: 1.0,
            engine: EngineConfig::default(),
            runtime: FedRuntimeKind::Sim,
            chaos: None,
        }
    }
}

/// An external arrival addressed to its home shard's master.
#[derive(Debug, Clone)]
pub struct FedArrival {
    /// Virtual arrival instant at the home master.
    pub at: SimTime,
    /// The shard the job was submitted to.
    pub home: ShardId,
    /// What arrives.
    pub spec: JobSpec,
}

/// One recorded cross-shard hand-off decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillRecord {
    /// Federation-wide id of the forwarded job.
    pub job: JobId,
    /// Home shard (forwarder).
    pub from: ShardId,
    /// Target shard (receiver).
    pub to: ShardId,
    /// Virtual instant of the decision.
    pub at: SimTime,
}

/// The result of one federation run.
#[derive(Debug)]
pub struct FederationOutput {
    /// Per-shard run outputs. Shard `i`'s scheduler log is already
    /// augmented with its hand-off records (`Submitted` + `SpillOut`
    /// for each job it forwarded); worker and job ids are shard-local.
    pub shards: Vec<RunOutput>,
    /// The federation-wide union log: every shard's events with
    /// shard-qualified worker ids, time-ordered. Check with
    /// `OracleOptions { federated: true, workers: None, .. }`.
    pub merged: SchedLog,
    /// Every hand-off the router decided, in decision order.
    pub spills: Vec<SpillRecord>,
    /// Virtual instant of the last completion in the merged log.
    pub makespan_secs: f64,
    /// Completions summed over shards (counts the duplicate under
    /// [`ProtocolMutation::DoubleSpill`]).
    pub jobs_completed: u64,
}

/// Routing-time load account of one shard: virtual seconds of
/// estimated work admitted minus work drained (active workers each
/// retire one second of work per second).
struct ShardLoad {
    backlog: f64,
    last: f64,
}

impl ShardLoad {
    fn decayed(&self, active: usize, t: f64) -> f64 {
        (self.backlog - (t - self.last).max(0.0) * active as f64).max(0.0)
    }

    fn touch(&mut self, active: usize, t: f64) {
        self.backlog = self.decayed(active, t);
        self.last = self.last.max(t);
    }
}

/// Workers of `shard` in the roster at virtual time `t` under its
/// membership plan: non-deferred workers, plus fired joins, minus
/// fired drains/removals. (Worker *crashes* are invisible to the
/// router — peers learn of them only through the load they fail to
/// drain, like the paper's gossiped summaries.)
fn active_workers(shard: &ShardSpec, t: f64) -> usize {
    let plan = &shard.faults.membership;
    let deferred = plan
        .events()
        .iter()
        .filter(|e| e.action == MembershipAction::Join)
        .count();
    let mut n = shard.workers.len() as i64 - deferred as i64;
    for e in plan.events() {
        if e.at.as_secs_f64() <= t {
            match e.action {
                MembershipAction::Join => n += 1,
                MembershipAction::Drain | MembershipAction::Remove => n -= 1,
            }
        }
    }
    n.max(0) as usize
}

/// Mean cost estimate of running `spec` on one of `workers`: fetch the
/// resource cold, scan the work bytes, pay the CPU component. An
/// overestimate (it ignores caching) — routing only needs relative
/// load, not placement-grade precision.
fn job_cost(workers: &[WorkerSpec], spec: &JobSpec) -> f64 {
    if workers.is_empty() {
        return 0.0;
    }
    let total: f64 = workers
        .iter()
        .map(|w| {
            let fetch = spec
                .resource
                .map_or(0.0, |r| w.net.time_for(r.bytes).as_secs_f64());
            let scan = w.rw.time_for(spec.work_bytes).as_secs_f64();
            fetch + scan + spec.cpu_secs * w.cpu_factor
        })
        .sum();
    total / workers.len() as f64
}

/// The routing pre-pass output: per-shard arrival streams and the spill
/// records, the one record of each hand-off.
struct RoutedPlan {
    arrivals: Vec<Vec<Arrival>>,
    spills: Vec<SpillRecord>,
}

fn route(spec: &FederationSpec, mut arrivals: Vec<FedArrival>) -> RoutedPlan {
    let n = spec.shards.len();
    let mut loads: Vec<ShardLoad> = (0..n)
        .map(|_| ShardLoad {
            backlog: 0.0,
            last: 0.0,
        })
        .collect();
    // view[h][p] = (peer p's backlog as last gossiped to h, at).
    let mut view: Vec<Vec<(f64, f64)>> = vec![vec![(0.0, 0.0); n]; n];
    let mut gossip_rng = SeedSequence::new(spec.net_seed).stream(0xFED);
    let mut next_tick: u64 = 1;
    let mut next_seq: Vec<u64> = vec![0; n];
    let mut out = RoutedPlan {
        arrivals: vec![Vec::new(); n],
        spills: Vec::new(),
    };
    let mutation = spec.engine.mutation;
    let mut mutation_armed = !mutation.is_none();

    // Stable time order; the per-home sequence numbers (and therefore
    // the federation-wide ids) are a pure function of the input.
    arrivals.sort_by_key(|a| a.at);
    for a in arrivals {
        let t = a.at.as_secs_f64();
        let h = a.home.0 as usize;
        assert!(h < n, "arrival addressed to shard {h} of {n}");

        // Fire every gossip tick up to t. The draw order (tick, then
        // viewer, then peer) is fixed, so one `net_seed` replays the
        // exact staleness pattern regardless of the workload.
        while next_tick as f64 * spec.gossip_period_secs <= t {
            let tick_t = next_tick as f64 * spec.gossip_period_secs;
            for (viewer, row) in view.iter_mut().enumerate() {
                for peer in 0..n {
                    if peer == viewer {
                        continue;
                    }
                    let lost = gossip_rng.chance(spec.gossip_loss);
                    if !lost {
                        let active = active_workers(&spec.shards[peer], tick_t);
                        row[peer] = (loads[peer].decayed(active, tick_t), tick_t);
                    }
                }
            }
            next_tick += 1;
        }

        let id = JobId::in_shard(a.home, next_seq[h]);
        next_seq[h] += 1;

        let active_h = active_workers(&spec.shards[h], t);
        let cost_h = job_cost(&spec.shards[h].workers, &a.spec);
        loads[h].touch(active_h, t);
        let est_local = if active_h == 0 {
            f64::INFINITY
        } else {
            (loads[h].backlog + cost_h) / active_h as f64
        };

        // Consider spilling only past the threshold (or when the home
        // shard has no one to run the job at all).
        // (estimate, peer, the job's cost there, its active workers).
        let mut target: Option<(f64, usize, f64, usize)> = None;
        if est_local > spec.spill_threshold_secs || active_h == 0 {
            for (p, &(seen, seen_at)) in view[h].iter().enumerate() {
                if p == h {
                    continue;
                }
                let active_p = active_workers(&spec.shards[p], t);
                if active_p == 0 {
                    continue;
                }
                let est_backlog = (seen - (t - seen_at) * active_p as f64).max(0.0);
                let cost_p = job_cost(&spec.shards[p].workers, &a.spec);
                let est = (est_backlog + cost_p) / active_p as f64;
                if est < est_local && est < target.map_or(f64::INFINITY, |(best, ..)| best) {
                    target = Some((est, p, cost_p, active_p));
                }
            }
        }

        match target {
            None => {
                // Keep local (also the active_h == 0 dead end: the job
                // queues at home until a join revives the shard).
                out.arrivals[h].push(Arrival {
                    at: a.at,
                    spec: a.spec.with_origin(FedIdentity {
                        id,
                        spilled_from: None,
                    }),
                });
                loads[h].backlog += cost_h;
            }
            Some((_, p, cost_p, active_p)) => {
                let mutate = std::mem::take(&mut mutation_armed);
                out.spills.push(SpillRecord {
                    job: id,
                    from: a.home,
                    to: ShardId(p as u16),
                    at: a.at,
                });
                let deliver = !(mutate && mutation == ProtocolMutation::LostSpill);
                let keep_home = mutate && mutation == ProtocolMutation::DoubleSpill;
                if keep_home {
                    out.arrivals[h].push(Arrival {
                        at: a.at,
                        spec: a.spec.clone().with_origin(FedIdentity {
                            id,
                            spilled_from: None,
                        }),
                    });
                    loads[h].backlog += cost_h;
                }
                if deliver {
                    loads[p].touch(active_p, t);
                    loads[p].backlog += cost_p;
                    out.arrivals[p].push(Arrival {
                        at: a.at
                            + crossbid_simcore::SimDuration::from_secs_f64(spec.spill_latency_secs),
                        spec: a.spec.with_origin(FedIdentity {
                            id,
                            spilled_from: Some(a.home),
                        }),
                    });
                }
            }
        }
    }
    out
}

/// Merge shard `home`'s runtime log with its record of every job it
/// forwarded, read off `spills`, into one time-ordered [`SchedLog`]; a
/// shard that forwarded nothing gets its log back untouched.
///
/// Each hand-off adds a `Submitted` + `SpillOut` pair at the decision
/// instant. Under [`ProtocolMutation::DoubleSpill`] the home runtime
/// ran the run's first hand-off itself and wrote its own `Submitted`,
/// so that job adds only the (now false) `SpillOut`. `spills` is in
/// decision order, so both inputs are time-sorted; runtime events win
/// ties, so that `SpillOut` lands after the runtime's `Submitted` at
/// the same instant.
fn augment(
    log: SchedLog,
    home: ShardId,
    spills: &[SpillRecord],
    mutation: ProtocolMutation,
) -> SchedLog {
    let forwarded = spills.iter().filter(|s| s.from == home).count();
    if forwarded == 0 {
        return log;
    }
    let home_ran_first = mutation == ProtocolMutation::DoubleSpill;
    let mut hand_offs = spills
        .iter()
        .enumerate()
        .filter(|(_, s)| s.from == home)
        .flat_map(|(i, s)| {
            let kinds = [
                SchedEventKind::Submitted,
                SchedEventKind::SpillOut { to_shard: s.to },
            ];
            let skip = usize::from(i == 0 && home_ran_first);
            kinds.into_iter().skip(skip).map(|kind| SchedEvent {
                at: s.at,
                worker: None,
                job: Some(s.job),
                kind,
            })
        })
        .peekable();
    let mut merged = SchedLog::with_capacity(log.len() + 2 * forwarded);
    for ev in log.events() {
        while let Some(s) = hand_offs.next_if(|s| s.at < ev.at) {
            merged.push(s);
        }
        merged.push(ev);
    }
    hand_offs.for_each(|s| merged.push(s));
    merged.shrink_to_fit();
    merged
}

/// Union of every shard's (augmented) log with shard-qualified worker
/// ids, time-ordered into one federation-wide [`SchedLog`], and the
/// instant of its last completion.
///
/// Every shard log is non-decreasing in `at`, so the union is a k-way
/// merge of the shard logs' heads in `(at, shard)` order: ties go to
/// the lower shard index, and `push` applies its usual
/// commuting-event tiebreak within the instant.
fn merge_federation_log(logs: &[&SchedLog]) -> (SchedLog, f64) {
    assert!(
        logs.iter().all(|l| l.is_time_sorted()),
        "every shard log handed to the merge must be time-sorted"
    );
    let mut merged = SchedLog::with_capacity(logs.iter().map(|l| l.len()).sum());
    let mut makespan_secs: f64 = 0.0;
    let mut heads: Vec<_> = logs.iter().map(|l| l.events().peekable()).collect();
    while let Some((_, s)) = heads
        .iter_mut()
        .enumerate()
        .filter_map(|(s, head)| Some((head.peek()?.at, s)))
        .min()
    {
        let mut q = heads[s].next().expect("the head just peeked");
        q.worker = q.worker.map(|w| WorkerId::in_shard(ShardId(s as u16), w.0));
        if matches!(q.kind, SchedEventKind::Completed) {
            makespan_secs = makespan_secs.max(q.at.as_secs_f64());
        }
        merged.push(q);
    }
    (merged, makespan_secs)
}

/// Run a federation scenario end to end: route, execute every shard on
/// its own single-master runtime, augment the home logs with the
/// hand-off records, and merge the union log.
///
/// `make_workflow` builds each shard's workflow (task logic is not
/// `Clone`, so every master needs its own instance — they must be
/// structurally identical or spilled jobs would change meaning across
/// shards).
///
/// # Panics
/// If the spec has no shards, a shard has no workers, the spill latency
/// is not positive, the gossip period is not finite and positive, the
/// gossip loss lies outside `[0, 1]`, an arrival addresses a shard
/// outside the spec, the engine template arms a mutation in a build
/// without the `protocol-mutation` feature, or (threaded runtime) the
/// allocator is neither bidding nor baseline. A panic inside a shard's
/// run surfaces with its own payload.
pub fn run_federation(
    spec: &FederationSpec,
    arrivals: Vec<FedArrival>,
    allocator: &dyn Allocator,
    make_workflow: impl FnMut(ShardId) -> Workflow,
) -> FederationOutput {
    // A threaded shard already runs N + 1 real threads on a scaled wall
    // clock: running threaded shards at once would change their timing,
    // not only their speed, so they run in turn.
    let lanes = match spec.runtime {
        FedRuntimeKind::Sim => std::thread::available_parallelism().map_or(1, |n| n.get()),
        FedRuntimeKind::Threaded => 1,
    };
    run_in_lanes(spec, arrivals, allocator, make_workflow, lanes)
}

/// [`run_federation`] with the shards run in at most `lanes` lanes.
pub(crate) fn run_in_lanes(
    spec: &FederationSpec,
    arrivals: Vec<FedArrival>,
    allocator: &dyn Allocator,
    make_workflow: impl FnMut(ShardId) -> Workflow,
    lanes: usize,
) -> FederationOutput {
    mutation::assert_armable(spec.engine.mutation);
    assert!(
        !spec.shards.is_empty(),
        "a federation needs at least one shard"
    );
    assert!(
        spec.spill_latency_secs > 0.0,
        "spill latency must be positive so SpillIn strictly follows SpillOut"
    );
    assert!(
        spec.gossip_period_secs.is_finite() && spec.gossip_period_secs > 0.0,
        "gossip period must be finite and positive, got {}",
        spec.gossip_period_secs
    );
    assert!(
        (0.0..=1.0).contains(&spec.gossip_loss),
        "gossip loss must lie in [0, 1], got {}",
        spec.gossip_loss
    );
    let plan = route(spec, arrivals);
    let mut shards = run_shards(spec, plan.arrivals, allocator, make_workflow, lanes);
    for (s, out) in shards.iter_mut().enumerate() {
        let log = std::mem::take(&mut out.sched_log);
        out.sched_log = augment(log, ShardId(s as u16), &plan.spills, spec.engine.mutation);
    }

    let logs: Vec<&SchedLog> = shards.iter().map(|o| &o.sched_log).collect();
    let (merged, makespan_secs) = merge_federation_log(&logs);
    let jobs_completed = shards.iter().map(|o| o.record.jobs_completed).sum();
    FederationOutput {
        shards,
        merged,
        spills: plan.spills,
        makespan_secs,
        jobs_completed,
    }
}

/// Execute every shard's routed arrival stream on its own single-master
/// runtime, in up to `lanes` lanes at once; the outputs come back in
/// shard order, their logs as the runtimes wrote them, without the
/// hand-off records.
///
/// Every workflow is built first, in shard order, on the caller's
/// thread. Then each lane (the caller's thread is one) claims the next
/// unclaimed shard until none is left. A shard's output depends only on
/// its stream, its seed, its workflow and fresh policies from
/// `allocator`, so it is the same whichever lane runs it, in whatever
/// order. A lane's panic is re-raised with its own payload.
fn run_shards(
    spec: &FederationSpec,
    routed: Vec<Vec<Arrival>>,
    allocator: &dyn Allocator,
    mut make_workflow: impl FnMut(ShardId) -> Workflow,
    lanes: usize,
) -> Vec<RunOutput> {
    let seeds = SeedSequence::new(spec.seed);
    let run_shard = |s: usize, mut wf: Workflow, routed: Vec<Arrival>| {
        let shard = &spec.shards[s];
        let mut run_spec: RunSpec = RunSpec::builder()
            .workers(shard.workers.iter().cloned())
            .engine(spec.engine.clone())
            .faults(shard.faults.clone())
            .trace(true)
            .seed(seeds.seed_for(s as u64))
            .time_scale(spec.time_scale)
            .contest_window_secs(spec.contest_window_secs)
            .names("federation", "federation")
            .build();
        run_spec.engine.shard = ShardId(s as u16);
        run_spec.chaos = spec.chaos.clone();
        match spec.runtime {
            FedRuntimeKind::Sim => {
                let mut session = run_spec.sim();
                session.run_iteration(&mut wf, allocator, routed)
            }
            FedRuntimeKind::Threaded => {
                let mut session = run_spec.threaded();
                session.run_iteration(&mut wf, allocator, routed)
            }
        }
    };
    let work: Vec<_> = routed
        .into_iter()
        .enumerate()
        .map(|(s, stream)| (s, make_workflow(ShardId(s as u16)), stream))
        .collect();
    let n = work.len();
    let unclaimed = Mutex::new(work.into_iter());
    let lane = || {
        let mut done = Vec::new();
        loop {
            let Some((s, wf, stream)) = unclaimed.lock().next() else {
                return done;
            };
            done.push((s, run_shard(s, wf, stream)));
        }
    };
    let mut outputs = std::thread::scope(|scope| {
        let others: Vec<_> = (1..lanes.min(n)).map(|_| scope.spawn(lane)).collect();
        let mut outputs = lane();
        for other in others {
            let done = other.join();
            outputs.extend(done.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        outputs
    });
    outputs.sort_unstable_by_key(|&(s, _)| s);
    outputs.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use crossbid_storage::ObjectId;

    use super::*;
    use crate::baseline::BaselineAllocator;
    use crate::bidding::stand_in::Bidding;
    use crate::job::{Payload, ResourceRef, TaskId};

    fn workers(n: usize, tag: &str) -> Vec<WorkerSpec> {
        (0..n)
            .map(|i| {
                WorkerSpec::builder(format!("{tag}{i}"))
                    .net_mbps(10.0)
                    .rw_mbps(100.0)
                    .storage_gb(10.0)
                    .build()
            })
            .collect()
    }

    fn scan_spec(rid: u64, mb: u64) -> JobSpec {
        JobSpec::scanning(
            TaskId(0),
            ResourceRef {
                id: ObjectId(rid),
                bytes: mb * 1_000_000,
            },
            Payload::Index(rid),
        )
    }

    /// A burst of `n` scans all submitted to shard 0.
    fn burst(n: usize) -> Vec<FedArrival> {
        (0..n)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * 0.5),
                home: ShardId(0),
                spec: scan_spec(i as u64 % 4, 100),
            })
            .collect()
    }

    fn two_shards() -> FederationSpec {
        let mut spec = FederationSpec::new(vec![
            ShardSpec::new(workers(2, "a")),
            ShardSpec::new(workers(2, "b")),
        ]);
        spec.spill_threshold_secs = 20.0;
        spec.engine = EngineConfig::ideal();
        spec
    }

    fn sink(_: ShardId) -> Workflow {
        let mut wf = Workflow::new();
        wf.add_sink("scan");
        wf
    }

    fn run(spec: &FederationSpec, n: usize) -> FederationOutput {
        run_federation(spec, burst(n), &BaselineAllocator, sink)
    }

    #[test]
    fn overloaded_shard_spills_and_everything_completes() {
        let spec = two_shards();
        let out = run(&spec, 24);
        assert!(!out.spills.is_empty(), "the burst must overflow shard 0");
        assert_eq!(out.jobs_completed, 24, "exactly-once across the federation");
        let spilled_out = out.merged.spills_out();
        let spilled_in = out.merged.spills_in();
        assert_eq!(spilled_out, out.spills.len());
        assert_eq!(
            spilled_in,
            out.spills.len(),
            "every hand-off delivered once"
        );
        // Every spilled job keeps its shard-0-qualified id and
        // completes on a shard-1 worker in the merged log.
        for s in &out.spills {
            assert_eq!(s.job.shard(), ShardId(0));
            let done = out
                .merged
                .events()
                .find(|e| e.job == Some(s.job) && matches!(e.kind, SchedEventKind::Completed))
                .expect("spilled job completes");
            assert_eq!(done.worker.unwrap().shard(), s.to);
        }
    }

    #[test]
    fn infinite_threshold_keeps_everything_home() {
        let mut spec = two_shards();
        spec.spill_threshold_secs = f64::INFINITY;
        let out = run(&spec, 24);
        assert!(out.spills.is_empty());
        assert_eq!(out.merged.spills_out(), 0);
        assert_eq!(out.shards[0].record.jobs_completed, 24);
        assert_eq!(out.shards[1].record.jobs_completed, 0);
    }

    /// CPU-bound burst: no data locality to lose by moving a job, so
    /// the win from splitting the backlog across shards is pure.
    fn cpu_burst(n: usize) -> Vec<FedArrival> {
        (0..n)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * 0.5),
                home: ShardId(0),
                spec: JobSpec::compute(TaskId(0), 4.0, Payload::Index(i as u64)),
            })
            .collect()
    }

    #[test]
    fn spilling_beats_the_overloaded_single_shard() {
        let mut on = two_shards();
        on.spill_threshold_secs = 10.0;
        let mut off = two_shards();
        off.spill_threshold_secs = f64::INFINITY;
        let exec = |spec: &FederationSpec| {
            run_federation(spec, cpu_burst(32), &BaselineAllocator, |_| {
                let mut wf = Workflow::new();
                wf.add_sink("scan");
                wf
            })
        };
        let fed = exec(&on);
        let solo = exec(&off);
        assert!(!fed.spills.is_empty());
        assert_eq!(fed.jobs_completed, 32);
        assert_eq!(solo.jobs_completed, 32);
        assert!(
            fed.makespan_secs < solo.makespan_secs,
            "spillover {} should beat the hot shard {}",
            fed.makespan_secs,
            solo.makespan_secs
        );
    }

    /// Every hand-off mutation, the correct protocol first.
    const HAND_OFFS: [ProtocolMutation; 3] = [
        ProtocolMutation::None,
        ProtocolMutation::DoubleSpill,
        ProtocolMutation::LostSpill,
    ];

    /// The hand-off mutations a run of this build may arm.
    fn armable_hand_offs() -> &'static [ProtocolMutation] {
        if cfg!(feature = "protocol-mutation") {
            &HAND_OFFS
        } else {
            &HAND_OFFS[..1]
        }
    }

    #[test]
    #[should_panic(expected = "gossip period must be finite and positive")]
    fn a_zero_gossip_period_is_refused() {
        let mut spec = two_shards();
        spec.gossip_period_secs = 0.0;
        run(&spec, 4);
    }

    #[test]
    #[should_panic(expected = "gossip loss must lie in [0, 1]")]
    fn a_nan_gossip_loss_is_refused() {
        let mut spec = two_shards();
        spec.gossip_loss = f64::NAN;
        run(&spec, 4);
    }

    #[cfg(feature = "protocol-mutation")]
    #[test]
    fn lost_spill_leaves_an_unmatched_spill_out() {
        let mut spec = two_shards();
        spec.engine.mutation = ProtocolMutation::LostSpill;
        let out = run(&spec, 24);
        assert!(!out.spills.is_empty());
        assert_eq!(out.merged.spills_out(), out.merged.spills_in() + 1);
        let victim = out.spills[0].job;
        assert!(
            !out.merged
                .events()
                .any(|e| e.job == Some(victim) && matches!(e.kind, SchedEventKind::Completed)),
            "the dropped hand-off must never complete"
        );
        assert_eq!(out.jobs_completed, 23);
    }

    #[cfg(feature = "protocol-mutation")]
    #[test]
    fn double_spill_completes_twice() {
        let mut spec = two_shards();
        spec.engine.mutation = ProtocolMutation::DoubleSpill;
        let out = run(&spec, 24);
        assert!(!out.spills.is_empty());
        let victim = out.spills[0].job;
        let dones = out
            .merged
            .events()
            .filter(|e| e.job == Some(victim) && matches!(e.kind, SchedEventKind::Completed))
            .count();
        assert_eq!(dones, 2, "forwarder kept the job it handed off");
        assert_eq!(out.jobs_completed, 25);
    }

    #[test]
    fn routing_is_deterministic_in_its_seeds() {
        let mut spec = two_shards();
        spec.gossip_loss = 0.4;
        spec.net_seed = 11;
        let a = run(&spec, 24);
        let b = run(&spec, 24);
        assert_eq!(a.spills, b.spills);
        assert_eq!(a.merged, b.merged);
        spec.net_seed = 12;
        let c = run(&spec, 24);
        // A different gossip-loss pattern is allowed to change the
        // routing; determinism within one seed is what matters, but
        // the run must still conserve jobs.
        assert_eq!(c.jobs_completed, 24);
    }

    #[test]
    fn zero_active_home_shard_always_forwards() {
        use crate::faults::MembershipPlan;
        // Shard 0's only worker never joins until t=1000; every early
        // arrival must be forwarded to shard 1 despite the infinite
        // threshold.
        let mut spec = FederationSpec::new(vec![
            ShardSpec::new(workers(1, "a")).faults(Faults::new().membership(
                MembershipPlan::new().join_at(SimTime::from_secs(1000), crate::job::WorkerId(0)),
            )),
            ShardSpec::new(workers(2, "b")),
        ]);
        spec.spill_threshold_secs = f64::INFINITY;
        spec.engine = EngineConfig::ideal();
        let out = run_federation(
            &spec,
            (0..4)
                .map(|i| FedArrival {
                    at: SimTime::from_secs(i),
                    home: ShardId(0),
                    spec: scan_spec(1, 50),
                })
                .collect(),
            &BaselineAllocator,
            |_| {
                let mut wf = Workflow::new();
                wf.add_sink("scan");
                wf
            },
        );
        assert_eq!(out.spills.len(), 4);
        assert_eq!(out.shards[1].record.jobs_completed, 4);
        assert_eq!(out.shards[0].record.jobs_completed, 0);
    }

    /// The post-processing `run_federation` shipped with before the
    /// merged log was built in one pass, kept as the differential
    /// reference for [`augment`] and [`merge_federation_log`].
    mod reference {
        use super::*;

        /// A home shard's hand-off records as the router synthesized
        /// them while routing, in decision order: `Submitted` +
        /// `SpillOut` for each job it forwarded, except that under
        /// `DoubleSpill` the run's first hand-off gets only the
        /// `SpillOut`.
        pub fn synthesized(
            spills: &[SpillRecord],
            home: ShardId,
            mutation: ProtocolMutation,
        ) -> Vec<SchedEvent> {
            let mut out = Vec::new();
            for (i, s) in spills.iter().enumerate() {
                if s.from != home {
                    continue;
                }
                let keep_home = i == 0 && mutation == ProtocolMutation::DoubleSpill;
                let record = |kind| SchedEvent {
                    at: s.at,
                    worker: None,
                    job: Some(s.job),
                    kind,
                };
                if !keep_home {
                    out.push(record(SchedEventKind::Submitted));
                }
                out.push(record(SchedEventKind::SpillOut { to_shard: s.to }));
            }
            out
        }

        /// Copy every runtime event and every synthesized one through
        /// `push` into a fresh log; runtime events win ties.
        pub fn augment(log: &SchedLog, synthesized: &[SchedEvent]) -> SchedLog {
            let mut merged = SchedLog::new();
            let run: Vec<SchedEvent> = log.events().collect();
            let (mut i, mut j) = (0, 0);
            while i < run.len() || j < synthesized.len() {
                let take_run = match (run.get(i), synthesized.get(j)) {
                    (Some(r), Some(s)) => r.at <= s.at,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_run {
                    merged.push(run[i]);
                    i += 1;
                } else {
                    merged.push(synthesized[j]);
                    j += 1;
                }
            }
            merged
        }

        /// Copy every shard-qualified event into one vector, stable-sort
        /// it by `(time, shard)` and push it into a second log.
        pub fn merge(logs: &[&SchedLog]) -> SchedLog {
            let mut all: Vec<(u64, usize, SchedEvent)> = Vec::new();
            for (s, log) in logs.iter().enumerate() {
                for mut q in log.events() {
                    q.worker = q.worker.map(|w| WorkerId::in_shard(ShardId(s as u16), w.0));
                    all.push((q.at.ticks(), s, q));
                }
            }
            all.sort_by_key(|(at, s, _)| (*at, *s));
            let mut merged = SchedLog::new();
            for (_, _, ev) in all {
                merged.push(ev);
            }
            merged
        }

        /// A separate pass over the merged log.
        pub fn makespan_secs(merged: &SchedLog) -> f64 {
            merged
                .events()
                .filter(|e| matches!(e.kind, SchedEventKind::Completed))
                .map(|e| e.at.as_secs_f64())
                .fold(0.0, f64::max)
        }

        /// Every shard's routed stream run one after another on the
        /// caller's thread, each workflow built just before its shard
        /// runs.
        pub fn run_shards_in_turn(
            spec: &FederationSpec,
            plan: &mut RoutedPlan,
            allocator: &dyn Allocator,
            mut make_workflow: impl FnMut(ShardId) -> Workflow,
        ) -> Vec<RunOutput> {
            let seeds = SeedSequence::new(spec.seed);
            let mut shards: Vec<RunOutput> = Vec::with_capacity(spec.shards.len());
            for (s, shard) in spec.shards.iter().enumerate() {
                let mut run_spec: RunSpec = RunSpec::builder()
                    .workers(shard.workers.iter().cloned())
                    .engine(spec.engine.clone())
                    .faults(shard.faults.clone())
                    .trace(true)
                    .seed(seeds.seed_for(s as u64))
                    .time_scale(spec.time_scale)
                    .contest_window_secs(spec.contest_window_secs)
                    .names("federation", "federation")
                    .build();
                run_spec.engine.shard = ShardId(s as u16);
                run_spec.chaos = spec.chaos.clone();
                let mut wf = make_workflow(ShardId(s as u16));
                let routed = std::mem::take(&mut plan.arrivals[s]);
                shards.push(match spec.runtime {
                    FedRuntimeKind::Sim => {
                        let mut session = run_spec.sim();
                        session.run_iteration(&mut wf, allocator, routed)
                    }
                    FedRuntimeKind::Threaded => {
                        let mut session = run_spec.threaded();
                        session.run_iteration(&mut wf, allocator, routed)
                    }
                });
            }
            shards
        }

        /// The whole federation on the references: shards in turn, the
        /// copying augment, the sort-based merge, the makespan pass.
        pub fn run_federation(
            spec: &FederationSpec,
            arrivals: Vec<FedArrival>,
            allocator: &dyn Allocator,
            make_workflow: impl FnMut(ShardId) -> Workflow,
        ) -> FederationOutput {
            let mut plan = route(spec, arrivals);
            let mut shards = run_shards_in_turn(spec, &mut plan, allocator, make_workflow);
            for (s, out) in shards.iter_mut().enumerate() {
                let hand_offs = synthesized(&plan.spills, ShardId(s as u16), spec.engine.mutation);
                out.sched_log = augment(&out.sched_log, &hand_offs);
            }
            let merged = merge(&shards.iter().map(|o| &o.sched_log).collect::<Vec<_>>());
            FederationOutput {
                makespan_secs: makespan_secs(&merged),
                jobs_completed: shards.iter().map(|o| o.record.jobs_completed).sum(),
                spills: plan.spills,
                merged,
                shards,
            }
        }
    }

    /// Every field of two federation runs is equal, floats to the bit
    /// (`Debug` prints the shortest string that reads back to the same
    /// bits).
    fn assert_same_federation(got: &FederationOutput, want: &FederationOutput, ctx: &str) {
        let bits = |v: &dyn std::fmt::Debug| format!("{v:?}");
        assert_eq!(got.shards.len(), want.shards.len(), "{ctx}");
        for (s, (g, w)) in got.shards.iter().zip(&want.shards).enumerate() {
            let ctx = format!("{ctx}, shard {s}");
            assert_eq!(g.sched_log, w.sched_log, "{ctx}: sched_log");
            assert_eq!(bits(&g.trace), bits(&w.trace), "{ctx}: trace");
            assert_eq!(bits(&g.record), bits(&w.record), "{ctx}: record");
            assert_eq!(g.assignments, w.assignments, "{ctx}: assignments");
            assert_eq!(g.events, w.events, "{ctx}: events");
            assert_eq!(g.anomalies, w.anomalies, "{ctx}: anomalies");
            assert_eq!(bits(&g.metrics), bits(&w.metrics), "{ctx}: metrics");
            assert_eq!(g.replicas, w.replicas, "{ctx}: replicas");
        }
        assert_eq!(got.merged, want.merged, "{ctx}: merged");
        assert_eq!(got.spills, want.spills, "{ctx}: spills");
        assert_eq!(got.jobs_completed, want.jobs_completed, "{ctx}");
        assert_eq!(
            got.makespan_secs.to_bits(),
            want.makespan_secs.to_bits(),
            "{ctx}: makespan"
        );
    }

    /// The scenario checker's `fed_*` builtins, rebuilt on this crate's
    /// types: (name, shards, workers per shard, jobs homed on shard 0,
    /// spill threshold, gossip loss, membership churn).
    const FED_BUILTINS: [(&str, usize, usize, usize, f64, f64, bool); 5] = [
        ("fed_2shard_spill", 2, 2, 16, 10.0, 0.0, false),
        ("fed_2shard_nospill", 2, 2, 16, f64::INFINITY, 0.0, false),
        ("fed_4shard_spill", 4, 2, 20, 8.0, 0.0, false),
        ("fed_4shard_churn", 4, 3, 20, 8.0, 0.0, true),
        ("fed_2shard_lossy_gossip_churn", 2, 3, 16, 10.0, 0.3, true),
    ];

    /// One `fed_*` builtin as the checker runs it on seed 1: a burst
    /// over three hot repositories at shard 0, one warm-up job at every
    /// other shard, and under churn a seeded join, drain and (three
    /// workers up) removal per shard.
    fn fed_builtin(
        (_, shards, width, jobs, threshold, gossip_loss, churn): (
            &str,
            usize,
            usize,
            usize,
            f64,
            f64,
            bool,
        ),
    ) -> (FederationSpec, Vec<FedArrival>) {
        use crate::faults::MembershipPlan;
        let shard = |s: usize| {
            let mut plan = MembershipPlan::none();
            if churn {
                let mut rng = SeedSequence::new(1).stream(s as u64);
                let at = |secs| SimTime::from_secs_f64(secs);
                plan = MembershipPlan::new()
                    .join_at(at(rng.uniform(2.0, 6.0)), WorkerId(width as u32))
                    .drain_at(at(rng.uniform(6.0, 10.0)), WorkerId(0));
                if width >= 3 {
                    plan = plan.remove_at(at(rng.uniform(10.0, 14.0)), WorkerId(1));
                }
            }
            ShardSpec::new(workers(width + usize::from(churn), "w"))
                .faults(Faults::new().membership(plan))
        };
        let mut spec = FederationSpec::new((0..shards).map(shard).collect());
        spec.spill_threshold_secs = threshold;
        spec.gossip_period_secs = 2.0;
        spec.gossip_loss = gossip_loss;
        spec.seed = 1;
        spec.net_seed = 1;
        spec.engine = EngineConfig::ideal();
        let mut arrivals: Vec<FedArrival> = (0..jobs)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * 0.5),
                home: ShardId(0),
                spec: scan_spec(1 + i as u64 % 3, 100),
            })
            .collect();
        arrivals.extend((1..shards).map(|s| FedArrival {
            at: SimTime::from_secs(1),
            home: ShardId(s as u16),
            spec: scan_spec(100 + s as u64, 50),
        }));
        (spec, arrivals)
    }

    /// `sim-fed`'s shape at 5 000 jobs: four shards of 16 workers under
    /// the default (noisy, latency-on) engine, every arrival homed on
    /// shard 0, every job on its own object.
    fn sim_fed_shape() -> (FederationSpec, Vec<FedArrival>) {
        let mut spec =
            FederationSpec::new((0..4).map(|_| ShardSpec::new(workers(16, "w"))).collect());
        spec.spill_threshold_secs = 5.0;
        spec.gossip_period_secs = 1.0;
        spec.seed = 1;
        spec.net_seed = 1;
        let arrivals = (0..5_000)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * 0.05),
                home: ShardId(0),
                spec: scan_spec(i, 20),
            })
            .collect();
        (spec, arrivals)
    }

    /// The lane count changes how fast the shards run, never what they
    /// produce: one lane, two, and one per shard each give exactly the
    /// output of the shards run in turn, on every `fed_*` builtin under
    /// every hand-off mutation this build may arm and on `sim-fed`'s
    /// shape. (The checker
    /// runs three of the builtins under bidding; its master lives in a
    /// crate built on this one, so here every builtin runs the in-crate
    /// baseline protocol.)
    #[test]
    fn shards_run_in_any_number_of_lanes_exactly_as_in_turn() {
        let mut cases = Vec::new();
        for builtin in FED_BUILTINS {
            for &mutation in armable_hand_offs() {
                let (mut spec, arrivals) = fed_builtin(builtin);
                spec.engine.mutation = mutation;
                cases.push((format!("{} under {mutation:?}", builtin.0), spec, arrivals));
            }
        }
        let (spec, arrivals) = sim_fed_shape();
        cases.push(("sim-fed's shape".to_string(), spec, arrivals));
        for (name, spec, arrivals) in cases {
            let want = reference::run_federation(&spec, arrivals.clone(), &BaselineAllocator, sink);
            for lanes in [1, 2, spec.shards.len()] {
                let got = run_in_lanes(&spec, arrivals.clone(), &BaselineAllocator, sink, lanes);
                assert_same_federation(&got, &want, &format!("{name} in {lanes} lane(s)"));
            }
        }
    }

    /// Every shard log of a bidding run of `sim-fed`'s shape, hand-off
    /// records included, holds at most 12 heap bytes an event.
    #[test]
    fn shard_logs_take_at_most_12_bytes_an_event() {
        let (spec, arrivals) = sim_fed_shape();
        let out = run_federation(&spec, arrivals, &Bidding::default(), sink);
        for (s, shard) in out.shards.iter().enumerate() {
            let log = &shard.sched_log;
            assert!(!log.is_empty(), "shard {s} logged nothing");
            let per_event = log.heap_bytes() as f64 / log.len() as f64;
            assert!(
                per_event <= 12.0,
                "shard {s}: {per_event:.2} bytes an event over {} events",
                log.len()
            );
        }
    }

    /// Augment every runtime log with the hand-offs `spills` records,
    /// merge, and assert both steps and the makespan equal the
    /// reference's, event for event.
    fn assert_matches_reference(
        runtime: Vec<SchedLog>,
        spills: &[SpillRecord],
        mutation: ProtocolMutation,
    ) {
        let mut augmented = Vec::with_capacity(runtime.len());
        for (s, log) in runtime.into_iter().enumerate() {
            let home = ShardId(s as u16);
            let want = reference::augment(&log, &reference::synthesized(spills, home, mutation));
            let got = augment(log, home, spills, mutation);
            assert_eq!(got, want, "augmented shard log");
            augmented.push(got);
        }
        let logs: Vec<&SchedLog> = augmented.iter().collect();
        let want = reference::merge(&logs);
        let (merged, makespan_secs) = merge_federation_log(&logs);
        assert_eq!(merged, want, "merged log");
        assert_eq!(
            makespan_secs.to_bits(),
            reference::makespan_secs(&want).to_bits()
        );
    }

    /// One runtime log event: ticks since the previous event (mostly 0,
    /// so instants collide within and across shards), then either a
    /// job-less barrier or a job event. Four jobs and five kinds make
    /// same-job pairs that commute (same kind) and that do not.
    fn arb_event() -> impl proptest::strategy::Strategy<Value = (u64, Option<u64>, u8, Option<u32>)>
    {
        use proptest::prelude::*;
        let raw = (0u8..8, 0u8..20, 0u8..5, proptest::option::of(0u32..3));
        raw.prop_map(|(dt, job, kind, worker)| {
            let dt = dt.saturating_sub(4) as u64 / 2;
            let job = (job >= 3).then_some(job as u64 % 4);
            (dt, job, kind, worker)
        })
    }

    /// A time-sorted runtime log, built through `push` like a runtime's.
    fn runtime_log(raw: &[(u64, Option<u64>, u8, Option<u32>)]) -> SchedLog {
        let mut log = SchedLog::new();
        let mut at = 0;
        for &(dt, job, kind, worker) in raw {
            at += dt;
            let kind = match (job, kind) {
                (None, k) if k % 2 == 0 => SchedEventKind::Crash,
                (None, k) => SchedEventKind::LeaderElected { term: k as u32 },
                (Some(_), 0) => SchedEventKind::Submitted,
                (Some(_), 1) => SchedEventKind::Assigned,
                (Some(_), 2) => SchedEventKind::Offered,
                (Some(_), 3) => SchedEventKind::Rejected,
                (Some(_), _) => SchedEventKind::Completed,
            };
            log.push(SchedEvent {
                at: SimTime::from_ticks(at),
                worker: worker.map(WorkerId),
                job: job.map(JobId),
                kind,
            });
        }
        log
    }

    /// A run's spill records in decision order, from (ticks since the
    /// previous decision, home shard, target shard) over `shards`
    /// shards. Job ids are unique and overlap the runtime logs' four
    /// jobs, so a hand-off record can meet a runtime event of the same
    /// job at one instant.
    fn spill_records(raw: &[(u64, u16, u16)], shards: usize) -> Vec<SpillRecord> {
        let mut at = 0;
        let mut out = Vec::new();
        for (i, &(dt, from, to)) in raw.iter().enumerate() {
            at += dt;
            out.push(SpillRecord {
                job: JobId(i as u64),
                from: ShardId(from % shards as u16),
                to: ShardId(to),
                at: SimTime::from_ticks(at),
            });
        }
        out
    }

    /// The module's burst on both runtimes, under each hand-off
    /// mutation this build may arm: `DoubleSpill` puts a synthesized
    /// `SpillOut` at the instant of the runtime's own `Submitted`.
    #[test]
    fn real_runs_match_the_sort_based_reference_on_both_runtimes() {
        for runtime in [FedRuntimeKind::Sim, FedRuntimeKind::Threaded] {
            for &mutation in armable_hand_offs() {
                let mut spec = two_shards();
                spec.runtime = runtime;
                spec.engine.mutation = mutation;
                let plan = route(&spec, burst(24));
                assert!(!plan.spills.is_empty());
                let shards = run_shards(&spec, plan.arrivals, &BaselineAllocator, sink, 2);
                let runtime_logs = shards.into_iter().map(|o| o.sched_log).collect();
                assert_matches_reference(runtime_logs, &plan.spills, mutation);
            }
        }
    }

    /// Task logic that fails on the first job it processes.
    struct Explodes;

    impl crate::task::TaskLogic for Explodes {
        fn process(&mut self, _: &crate::job::Job, _: &crate::task::TaskCtx, _: &mut Vec<JobSpec>) {
            panic!("shard 1's task logic exploded");
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A shard's panic surfaces from the federation with its own
    /// message, not the scope's. The caller's lane claims shard 0 before
    /// the spawned lane starts, so shard 1 panics in the spawned lane in
    /// all but a rare race; either lane must surface the same message.
    #[test]
    #[should_panic(expected = "shard 1's task logic exploded")]
    fn a_shards_panic_surfaces_with_its_own_payload() {
        let explode_on_shard_1 = |s: ShardId| {
            let mut wf = Workflow::new();
            if s == ShardId(1) {
                wf.add_task("scan", Box::new(Explodes));
            } else {
                wf.add_sink("scan");
            }
            wf
        };
        run_in_lanes(
            &two_shards(),
            burst(24),
            &BaselineAllocator,
            explode_on_shard_1,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn merge_refuses_a_shard_log_out_of_time_order() {
        let at = |secs| SchedEvent {
            at: SimTime::from_secs(secs),
            worker: None,
            job: None,
            kind: SchedEventKind::Crash,
        };
        // `push` keeps whatever time order its caller gives it.
        let mut log = SchedLog::new();
        log.push(at(2));
        log.push(at(1));
        merge_federation_log(&[&log]);
    }

    proptest::proptest! {
        #[test]
        fn one_pass_post_processing_matches_the_sort_based_reference(
            shards in proptest::collection::vec(
                proptest::collection::vec(arb_event(), 0..40),
                1..5,
            ),
            spills in proptest::collection::vec((0u64..2, 0u16..4, 0u16..4), 0..12),
            mutation in 0usize..3,
        ) {
            let runtime = shards.iter().map(|events| runtime_log(events)).collect();
            let spills = spill_records(&spills, shards.len());
            let mutation = HAND_OFFS[mutation];
            assert_matches_reference(runtime, &spills, mutation);
        }
    }
}
