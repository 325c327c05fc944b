//! Controlled-interleaving hooks for the threaded runtime.
//!
//! The threaded master normally consumes its intake channel in arrival
//! order, so one process run explores exactly one interleaving of the
//! protocol messages. [`ChaosConfig`] turns the intake into a *virtual
//! scheduler* in the spirit of loom/madsim: a seeded fraction of
//! incoming messages is parked in a hold buffer and re-released in
//! seeded-random order (bounded delay, bounded reordering), and
//! messages can be duplicated — the two perturbations that produce the
//! late-bid / duplicate-delivery races the bidding protocol must
//! tolerate. Every delivery decision is recorded in a [`DeliveryLog`]
//! so a failing exploration can print the exact interleaving.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError};
use crossbid_simcore::{RngStream, SeedSequence, SimTime};
use parking_lot::Mutex;

use crate::faults::NetFaultPlan;
use crate::job::WorkerId;
use crate::obs::RuntimeMetrics;

use super::ToMaster;

/// Shared handle to the recorded delivery schedule of one run.
pub type DeliveryLogHandle = Arc<Mutex<DeliveryLog>>;

/// Seeded perturbation of master-intake message delivery.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the delivery-order decisions. Independent of the run
    /// seed so the explorer can sweep interleavings of one scenario.
    pub seed: u64,
    /// Probability an incoming message is parked in the hold buffer
    /// instead of delivered immediately.
    pub hold_prob: f64,
    /// Probability an incoming message is *duplicated*: the extra copy
    /// goes through the hold buffer and arrives again later.
    pub dup_prob: f64,
    /// Hold-buffer capacity; at capacity, messages pass through.
    pub max_held: usize,
    /// Force-release age: no message is held longer than this (real
    /// time), which bounds the reordering and keeps the run live.
    pub max_hold: Duration,
    /// Worker-side: maximum extra real-time delay a bidder sleeps
    /// before answering a bid request (seeded per worker). Turns the
    /// "all bids beat the window" fast path into genuine late-bid
    /// races. `Duration::ZERO` disables.
    pub max_bid_delay: Duration,
    /// Probability an incoming bid's estimate is corrupted to NaN — a
    /// garbage message the master's intake guard must drop. Workers
    /// never produce non-finite estimates themselves, so this is the
    /// only way to exercise that guard end to end.
    pub nan_bid_prob: f64,
    /// When set, every delivery decision of the run is appended here.
    pub delivery_log: Option<DeliveryLogHandle>,
}

impl ChaosConfig {
    /// A chaos scheme exercising reordering, duplication and late bids
    /// at rates that perturb most runs without stalling them.
    pub fn aggressive(seed: u64) -> Self {
        ChaosConfig {
            seed,
            hold_prob: 0.35,
            dup_prob: 0.10,
            max_held: 8,
            max_hold: Duration::from_millis(4),
            max_bid_delay: Duration::from_millis(2),
            nan_bid_prob: 0.05,
            delivery_log: None,
        }
    }

    /// Attach a fresh delivery log and return its handle.
    pub fn with_delivery_log(mut self) -> (Self, DeliveryLogHandle) {
        let h: DeliveryLogHandle = Arc::new(Mutex::new(DeliveryLog::default()));
        self.delivery_log = Some(Arc::clone(&h));
        (self, h)
    }
}

/// One delivered message in the recorded schedule.
#[derive(Debug, Clone)]
pub struct DeliveryEntry {
    /// Position of the message in channel-arrival order (0-based).
    pub intake_seq: u64,
    /// Whether this delivery is a chaos-injected duplicate copy.
    pub duplicate: bool,
    /// Whether the message sat in the hold buffer before delivery.
    pub was_held: bool,
    /// Compact message description, e.g. `bid(w1,j3)`.
    pub tag: String,
}

/// The recorded delivery schedule of one run: the interleaving the
/// chaos layer actually produced, in delivery order.
#[derive(Debug, Default, Clone)]
pub struct DeliveryLog {
    /// Deliveries, in the order the master consumed them.
    pub entries: Vec<DeliveryEntry>,
}

impl DeliveryLog {
    /// Render the schedule for a failure report: one delivery per
    /// line, flagging reordered and duplicated messages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut high_water = 0u64;
        for (pos, e) in self.entries.iter().enumerate() {
            let mut flags = String::new();
            if e.duplicate {
                flags.push_str(" [dup]");
            }
            if e.was_held {
                flags.push_str(" [held]");
            }
            if e.intake_seq < high_water {
                flags.push_str(" [reordered]");
            }
            high_water = high_water.max(e.intake_seq);
            out.push_str(&format!(
                "#{pos:04} intake {:>4} {}{}\n",
                e.intake_seq, e.tag, flags
            ));
        }
        out
    }

    /// How many deliveries were reordered past a later-arrived one.
    pub fn inversions(&self) -> usize {
        let mut high_water = 0u64;
        let mut n = 0;
        for e in &self.entries {
            if e.intake_seq < high_water {
                n += 1;
            }
            high_water = high_water.max(e.intake_seq);
        }
        n
    }
}

fn tag(msg: &ToMaster) -> String {
    match msg {
        ToMaster::Bid {
            worker,
            job,
            estimate_secs,
        } if !estimate_secs.is_finite() => format!("bid(w{},j{},nan)", worker, job.0),
        ToMaster::Bid { worker, job, .. } => format!("bid(w{},j{})", worker, job.0),
        ToMaster::Reject { worker, job, .. } => format!("reject(w{},j{})", worker, job.id.0),
        ToMaster::Idle { worker } => format!("idle(w{worker})"),
        ToMaster::Done { worker, job, .. } => format!("done(w{},j{})", worker, job.id.0),
        ToMaster::AckAssign { worker, job, seq } => format!("ack(w{},j{},s{seq})", worker, job.0),
    }
}

/// Which worker a `ToMaster` message came from — the net-fault layer
/// needs the sender to honor per-worker partitions.
fn sender_of(msg: &ToMaster) -> u32 {
    match msg {
        ToMaster::Bid { worker, .. }
        | ToMaster::Reject { worker, .. }
        | ToMaster::Idle { worker }
        | ToMaster::Done { worker, .. }
        | ToMaster::AckAssign { worker, .. } => *worker,
    }
}

struct Held {
    seq: u64,
    since: Instant,
    duplicate: bool,
    msg: ToMaster,
}

/// The master's intake: a transparent wrapper over the `ToMaster`
/// receiver that, under chaos, holds/reorders/duplicates messages,
/// and, under an active [`NetFaultPlan`], models the worker→master
/// half of the lossy link (drop/duplicate/delay/partition). The net
/// layer sits *beneath* chaos — closest to the wire — so chaos
/// reorders only traffic that survived the link.
pub(crate) struct Intake {
    rx: Receiver<ToMaster>,
    chaos: Option<ChaosState>,
    net: Option<NetIntake>,
    /// The sender side hung up; only held/delayed messages remain.
    disconnected: bool,
}

struct ChaosState {
    cfg: ChaosConfig,
    rng: RngStream,
    held: VecDeque<Held>,
    next_seq: u64,
}

/// Worker→master half of the lossy link, applied at the intake.
pub(crate) struct NetIntake {
    plan: NetFaultPlan,
    rng: RngStream,
    /// Run start, for mapping wall time onto the partition windows.
    start: Instant,
    time_scale: f64,
    /// In-flight messages the link has delayed: `(due, msg)`.
    delayed: Vec<(Instant, ToMaster)>,
    metrics: RuntimeMetrics,
}

impl NetIntake {
    pub fn new(
        plan: NetFaultPlan,
        start: Instant,
        time_scale: f64,
        metrics: RuntimeMetrics,
    ) -> Self {
        let rng = SeedSequence::new(plan.seed).stream(0x4E38);
        NetIntake {
            plan,
            rng,
            start,
            time_scale,
            delayed: Vec::new(),
            metrics,
        }
    }

    /// Pass `msg` through the link. `None` means it was dropped (or
    /// fully delayed); survivors due *now* come back for delivery.
    fn filter(&mut self, msg: ToMaster, now: Instant) -> Option<ToMaster> {
        let vnow =
            SimTime::from_secs_f64(self.start.elapsed().as_secs_f64() / self.time_scale.max(1e-12));
        let from = WorkerId(sender_of(&msg));
        let link = self.plan.to_master;
        if self.plan.partitioned(from, vnow) || self.rng.chance(link.drop_prob) {
            self.metrics.net_dropped.inc();
            return None;
        }
        if self.rng.chance(link.dup_prob) {
            self.metrics.net_duplicated.inc();
            let d = self.sample_delay();
            self.delayed.push((now + d, msg.clone()));
        }
        let d = self.sample_delay();
        if d > Duration::ZERO {
            self.delayed.push((now + d, msg));
            return None;
        }
        Some(msg)
    }

    fn sample_delay(&mut self) -> Duration {
        let link = self.plan.to_master;
        if link.delay_max_secs <= 0.0 {
            return Duration::ZERO;
        }
        let v = self.rng.uniform(link.delay_min_secs, link.delay_max_secs);
        Duration::from_secs_f64((v * self.time_scale).max(0.0))
    }
}

/// How long the chaotic intake waits for fresh traffic before
/// releasing a held message instead.
const MIX_SLICE: Duration = Duration::from_micros(300);

impl Intake {
    pub fn new(rx: Receiver<ToMaster>, chaos: Option<ChaosConfig>, net: Option<NetIntake>) -> Self {
        let chaos = chaos.map(|cfg| ChaosState {
            rng: SeedSequence::new(cfg.seed).stream(0xC4A05),
            held: VecDeque::new(),
            next_seq: 0,
            cfg,
        });
        Intake {
            rx,
            chaos,
            net,
            disconnected: false,
        }
    }

    /// Publish the net link's tallies.
    pub fn flush_metrics(&self) {
        if let Some(net) = &self.net {
            net.metrics.flush();
        }
    }

    /// Chaos admission of one link-delivered message: corrupt,
    /// duplicate or park it per the chaos scheme. `None` = parked in
    /// the hold buffer, to surface later.
    fn admit(
        chaos_opt: &mut Option<ChaosState>,
        mut msg: ToMaster,
        now: Instant,
    ) -> Option<ToMaster> {
        let Some(chaos) = chaos_opt else {
            return Some(msg);
        };
        if let ToMaster::Bid { estimate_secs, .. } = &mut msg {
            if chaos.rng.chance(chaos.cfg.nan_bid_prob) {
                *estimate_secs = f64::NAN;
            }
        }
        let seq = chaos.next_seq;
        chaos.next_seq += 1;
        if chaos.rng.chance(chaos.cfg.dup_prob) && chaos.held.len() < chaos.cfg.max_held {
            chaos.held.push_back(Held {
                seq,
                since: now,
                duplicate: true,
                msg: msg.clone(),
            });
        }
        if chaos.rng.chance(chaos.cfg.hold_prob) && chaos.held.len() < chaos.cfg.max_held {
            chaos.held.push_back(Held {
                seq,
                since: now,
                duplicate: false,
                msg,
            });
            return None;
        }
        record(chaos, seq, false, false, &msg);
        Some(msg)
    }

    /// Receive the next message, honoring `deadline` (`None` blocks
    /// until traffic or disconnect). Semantics match
    /// `Receiver::recv_deadline` / `recv`: `Timeout` only ever fires
    /// when a deadline was given.
    pub fn recv(&mut self, deadline: Option<Instant>) -> Result<ToMaster, RecvTimeoutError> {
        loop {
            let now = Instant::now();
            // Matured link-delayed deliveries surface first (and still
            // pass through the chaos layer above them). Removal must be
            // order-stable (`remove`, not `swap_remove`): equally-due
            // messages have to surface in the order the link delayed
            // them, or a (run, chaos, net) seed triple stops replaying
            // the same delivery schedule.
            if let Some(net) = &mut self.net {
                if let Some(pos) = net.delayed.iter().position(|(at, _)| *at <= now) {
                    let (_, msg) = net.delayed.remove(pos);
                    match Self::admit(&mut self.chaos, msg, now) {
                        Some(out) => return Ok(out),
                        None => continue,
                    }
                }
            }
            // Liveness: anything held past its age bound goes out now,
            // oldest first.
            if let Some(chaos) = &mut self.chaos {
                if let Some(pos) = chaos
                    .held
                    .iter()
                    .position(|h| now.saturating_duration_since(h.since) >= chaos.cfg.max_hold)
                {
                    return Ok(release(chaos, pos));
                }
            }
            if self.disconnected {
                // Teardown: flush what is still in flight (remaining
                // link delay is moot once every sender is gone), then
                // report the hangup.
                if let Some(net) = &mut self.net {
                    if !net.delayed.is_empty() {
                        let (_, msg) = net.delayed.remove(0);
                        match Self::admit(&mut self.chaos, msg, now) {
                            Some(out) => return Ok(out),
                            None => continue,
                        }
                    }
                }
                if let Some(chaos) = &mut self.chaos {
                    if !chaos.held.is_empty() {
                        return Ok(release_random(chaos));
                    }
                }
                return Err(RecvTimeoutError::Disconnected);
            }
            // Wait for fresh traffic, but never past the caller's
            // deadline, a forced chaos release or a due link delivery
            // — and only briefly while messages are held (they must
            // keep mixing).
            let forced = self
                .chaos
                .as_ref()
                .and_then(|c| c.held.iter().map(|h| h.since + c.cfg.max_hold).min());
            let slice = self
                .chaos
                .as_ref()
                .filter(|c| !c.held.is_empty())
                .map(|_| now + MIX_SLICE);
            let due = self
                .net
                .as_ref()
                .and_then(|n| n.delayed.iter().map(|(at, _)| *at).min());
            let wait_until = [deadline, forced, slice, due].into_iter().flatten().min();
            let got = match wait_until {
                Some(d) => self.rx.recv_deadline(d),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match got {
                Ok(msg) => {
                    let msg = match &mut self.net {
                        Some(net) => match net.filter(msg, now) {
                            Some(m) => m,
                            None => continue,
                        },
                        None => msg,
                    };
                    match Self::admit(&mut self.chaos, msg, now) {
                        Some(out) => return Ok(out),
                        None => continue,
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    // A mix slice (or forced release) expired without
                    // fresh traffic: deliver something held.
                    if let Some(chaos) = &mut self.chaos {
                        if !chaos.held.is_empty() {
                            return Ok(release_random(chaos));
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.disconnected = true;
                }
            }
        }
    }

    /// Everything deliverable *right now*, without blocking: matured
    /// link-delayed traffic, age-expired held messages, and whatever
    /// already sits in the channel. Returns `None` once nothing more
    /// is immediately available (messages may still be parked in the
    /// hold buffer or in link flight — a later [`Intake::recv`] will
    /// surface them). The master uses this to drain one wakeup's
    /// worth of intake in a single batch.
    pub fn try_recv(&mut self) -> Option<ToMaster> {
        loop {
            let now = Instant::now();
            if let Some(net) = &mut self.net {
                if let Some(pos) = net.delayed.iter().position(|(at, _)| *at <= now) {
                    let (_, msg) = net.delayed.remove(pos);
                    match Self::admit(&mut self.chaos, msg, now) {
                        Some(out) => return Some(out),
                        None => continue,
                    }
                }
            }
            if let Some(chaos) = &mut self.chaos {
                if let Some(pos) = chaos
                    .held
                    .iter()
                    .position(|h| now.saturating_duration_since(h.since) >= chaos.cfg.max_hold)
                {
                    return Some(release(chaos, pos));
                }
            }
            match self.rx.try_recv() {
                Ok(msg) => {
                    let msg = match &mut self.net {
                        Some(net) => match net.filter(msg, now) {
                            Some(m) => m,
                            None => continue,
                        },
                        None => msg,
                    };
                    match Self::admit(&mut self.chaos, msg, now) {
                        Some(out) => return Some(out),
                        None => continue,
                    }
                }
                // `Disconnected` is left for `recv` to observe: it owns
                // the teardown flush of held/delayed messages.
                Err(_) => return None,
            }
        }
    }
}

fn record(chaos: &mut ChaosState, seq: u64, duplicate: bool, was_held: bool, msg: &ToMaster) {
    if let Some(log) = &chaos.cfg.delivery_log {
        log.lock().entries.push(DeliveryEntry {
            intake_seq: seq,
            duplicate,
            was_held,
            tag: tag(msg),
        });
    }
}

fn release(chaos: &mut ChaosState, pos: usize) -> ToMaster {
    let h = chaos.held.remove(pos).expect("position in range");
    record(chaos, h.seq, h.duplicate, true, &h.msg);
    h.msg
}

fn release_random(chaos: &mut ChaosState) -> ToMaster {
    let pos = chaos.rng.below(chaos.held.len() as u64) as usize;
    release(chaos, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFault;
    use crate::obs::RuntimeMetrics;

    /// Regression: the delayed-message buffer used `swap_remove`, so
    /// equally-due messages could surface out of the order the link
    /// delayed them — and a recorded (run seed, net seed) pair stopped
    /// replaying the same delivery schedule. A constant-delay link
    /// keeps due times in arrival order, so delivery must be FIFO.
    #[test]
    fn constant_delay_link_preserves_fifo_order() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let link = LinkFault {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_min_secs: 0.002,
            delay_max_secs: 0.002,
        };
        let plan = NetFaultPlan {
            to_master: link,
            ..NetFaultPlan::none()
        };
        let net = NetIntake::new(plan, Instant::now(), 1.0, RuntimeMetrics::from_sink(None));
        let mut intake = Intake::new(rx, None, Some(net));
        for w in 0..12 {
            tx.send(ToMaster::Idle { worker: w }).unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(msg) = intake.recv(None) {
            got.push(sender_of(&msg));
        }
        assert_eq!(got, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn try_recv_drains_whats_deliverable_without_blocking() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut intake = Intake::new(rx, None, None);
        assert!(intake.try_recv().is_none(), "empty channel: nothing now");
        for w in 0..5 {
            tx.send(ToMaster::Idle { worker: w }).unwrap();
        }
        let mut got = Vec::new();
        while let Some(msg) = intake.try_recv() {
            got.push(sender_of(&msg));
        }
        assert_eq!(got, (0..5).collect::<Vec<u32>>());
        // Hangup is `recv`'s business (it owns the teardown flush);
        // `try_recv` just reports that nothing is deliverable now.
        drop(tx);
        assert!(intake.try_recv().is_none());
        assert!(matches!(
            intake.recv(None),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn delivery_log_counts_inversions_and_renders_flags() {
        let log = DeliveryLog {
            entries: vec![
                DeliveryEntry {
                    intake_seq: 1,
                    duplicate: false,
                    was_held: false,
                    tag: "bid(w0,j0)".into(),
                },
                DeliveryEntry {
                    intake_seq: 0,
                    duplicate: false,
                    was_held: true,
                    tag: "idle(w1)".into(),
                },
                DeliveryEntry {
                    intake_seq: 0,
                    duplicate: true,
                    was_held: true,
                    tag: "idle(w1)".into(),
                },
            ],
        };
        assert_eq!(log.inversions(), 2);
        let text = log.render();
        assert!(text.contains("[reordered]"), "{text}");
        assert!(text.contains("[dup]"), "{text}");
        assert!(text.contains("[held]"), "{text}");
    }
}
