//! Worker-side threads of the threaded runtime.
//!
//! Each worker is one [`WorkerNode`] behind a mutex and two threads
//! driving it — "their internal state, i.e. their opinions", and, as
//! the paper envisions, a separate thread for the bidding. The bidder
//! answers the master (bids, placements, `Done` acks) and resends
//! unacked completions; the executor runs the queue. Every rule is the
//! core's; these threads only carry its messages and sleep, scaled,
//! through the virtual durations it returns. A crash is the master
//! calling [`WorkerNode::crash`]: a thread waking from a sleep then
//! finds the incarnation it was serving gone and drops the job.

use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use crossbid_simcore::{RngStream, SimDuration};
use parking_lot::Mutex;

use crate::faults::RetryPolicy;
use crate::job::{Job, WorkerId};
use crate::obs::RuntimeMetrics;
use crate::replica::ReplicaPlane;
use crate::worker::{Finished, Intake, Report, Started, Step, WorkerNode};

use super::{Clock, ToMaster, ToWorker};

pub(crate) struct WorkerThreads {
    pub bidder: std::thread::JoinHandle<()>,
    pub executor: std::thread::JoinHandle<()>,
}

/// What one worker's threads share.
#[derive(Clone)]
struct Worker {
    id: u32,
    node: Arc<Mutex<WorkerNode>>,
    to_master: Sender<ToMaster>,
    clock: Clock,
    /// The owning thread's tallies (a clone forks them), flushed
    /// before the thread returns.
    metrics: RuntimeMetrics,
    /// The replica plane: peer sources, pins, the event buffer.
    repl: Option<Arc<Mutex<ReplicaPlane>>>,
}

impl Worker {
    fn send(&self, msg: ToMaster) {
        let _ = self.to_master.send(msg);
    }

    fn done(&self, r: Report) {
        self.send(ToMaster::Done {
            worker: self.id,
            job: r.job,
            wait_secs: r.wait_secs,
            fetch_secs: r.fetch_secs,
            proc_secs: r.proc_secs,
        });
    }

    /// Would this worker fetch `job`'s input from a live peer? Then it
    /// prices the peer transfer.
    fn peer_priced(&self, node: &WorkerNode, job: &Job) -> bool {
        let (Some(rp), Some(r)) = (&self.repl, job.resource) else {
            return false;
        };
        if node.holds(r.id) {
            return false;
        }
        rp.lock().has_peer(r.id, WorkerId(self.id))
    }

    /// One transfer attempt for the job in hand, its live peer sources
    /// gathered into `peers`. The source choice and its `fetch_req`
    /// event happen in one critical section, so the committed log never
    /// shows a fetch from a source that was already dropped.
    fn fetch(&self, node: &mut WorkerNode, epoch: u64, peers: &mut Vec<WorkerId>) -> Option<Step> {
        let now = self.clock.now();
        let Some(rp) = &self.repl else {
            return node.fetch(now, epoch, &[]);
        };
        let mut rp = rp.lock();
        peers.clear();
        if let Some(obj) = node.missing() {
            rp.peers(obj, WorkerId(self.id), peers);
        }
        let step = node.fetch(now, epoch, peers)?;
        if let Some((job, req)) = step.req {
            rp.fact(WorkerId(self.id), job, req);
        }
        Some(step)
    }

    /// Run the job just started to completion, sleeping through its
    /// transfer and processing (`peers`: [`fetch`](Self::fetch)'s
    /// buffer). `None`: the worker crashed on the way — the job dies
    /// with the instance and the master's detection machinery
    /// redistributes it.
    fn run(&self, s: Started, peers: &mut Vec<WorkerId>) -> Option<Finished> {
        let epoch = s.epoch;
        let proc = match s.proc {
            Some(d) => d,
            None => {
                let mut step = self.fetch(&mut self.node.lock(), epoch, peers)?;
                while step.lost {
                    self.clock.sleep(step.d);
                    let backoff = {
                        let mut node = self.node.lock();
                        let lost = node.fetch_lost(epoch)?;
                        let (job, fail) = lost.fail;
                        let rp = self.repl.as_ref().expect("only a peer attempt is lost");
                        rp.lock().fact(WorkerId(self.id), job, fail);
                        lost.backoff
                    };
                    self.metrics.peer_retries.inc();
                    if let Some(b) = backoff {
                        self.clock.sleep(b);
                    }
                    step = self.fetch(&mut self.node.lock(), epoch, peers)?;
                }
                self.clock.sleep(step.d);
                self.land(epoch)?
            }
        };
        self.clock.sleep(proc);
        let f = self.node.lock().finish(self.clock.now(), epoch)?;
        self.metrics.proc_secs.record(f.report.proc_secs);
        Some(f)
    }

    /// The attempt in flight delivered: the input lands — this
    /// store's pins first, the plane told after — and the processing
    /// time comes back.
    fn land(&self, epoch: u64) -> Option<SimDuration> {
        let me = WorkerId(self.id);
        let mut node = self.node.lock();
        let mut rp = self.repl.as_ref().map(|r| r.lock());
        if let Some(rp) = rp.as_mut() {
            rp.pin(me, &mut node.store);
        }
        let f = node.fetched(self.clock.now(), epoch)?;
        if let Some(rp) = rp.as_mut() {
            if let Some((job, ok)) = f.ok {
                rp.fact(me, job, ok);
            }
            rp.inserted(me, &node.store, f.object, f.bytes);
        }
        self.metrics.fetch_secs.record(f.secs);
        Some(f.proc)
    }
}

/// Spawn one worker's bidder + executor threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_worker(
    id: u32,
    node: Arc<Mutex<WorkerNode>>,
    rx_control: Receiver<ToWorker>,
    to_master: Sender<ToMaster>,
    clock: Clock,
    seed: u64,
    metrics: RuntimeMetrics,
    // Chaos hook: maximum extra real-time delay before answering a
    // bid request (seeded, uniform). `Duration::ZERO` disables.
    bid_delay: Duration,
    // Reliability layer (net-fault runs): the bidder's resend tick and
    // the executor's idle heartbeat. `None` leaves both off.
    reliability: Option<RetryPolicy>,
    repl: Option<Arc<Mutex<ReplicaPlane>>>,
) -> WorkerThreads {
    let w = Worker {
        id,
        node,
        to_master,
        clock,
        metrics,
        repl,
    };
    // The bidder rings it for every queued job; the executor runs the
    // queue dry each time.
    let (doorbell, rx_doorbell) = crossbeam_channel::unbounded::<()>();

    let bidder = {
        let w = w.clone();
        std::thread::Builder::new()
            .name(format!("bidder-{id}"))
            .spawn(move || {
                let mut delay_rng = RngStream::from_seed(seed ^ 0xB1D_DE1A);
                let tick =
                    reliability.map(|r| clock.real(r.base_secs).max(Duration::from_millis(1)));
                loop {
                    let msg = match tick {
                        Some(t) => match rx_control.recv_timeout(t) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                        None => match rx_control.recv() {
                            Ok(m) => Some(m),
                            Err(_) => break,
                        },
                    };
                    if tick.is_some() {
                        let mut node = w.node.lock();
                        let now = clock.now();
                        while let Some(r) = node.resend_due(now) {
                            w.metrics.net_retries.inc();
                            w.done(r.report);
                        }
                    }
                    let Some(msg) = msg else { continue };
                    let (job, seq, offer) = match msg {
                        ToWorker::Shutdown => break,
                        ToWorker::AckDone(job) => {
                            w.node.lock().ack_done(job);
                            continue;
                        }
                        ToWorker::BidRequest(job) => {
                            let est = {
                                let mut node = w.node.lock();
                                let peers = w.peer_priced(&node, &job);
                                node.bid(clock.now(), &job, peers)
                            };
                            let Some(estimate_secs) = est else { continue };
                            if bid_delay > Duration::ZERO {
                                // Chaos: think about it for a while —
                                // some bids now genuinely race the
                                // contest window.
                                std::thread::sleep(bid_delay.mul_f64(delay_rng.uniform(0.0, 1.0)));
                            }
                            w.send(ToMaster::Bid {
                                worker: id,
                                job: job.id,
                                estimate_secs,
                            });
                            continue;
                        }
                        ToWorker::Offer { job, seq } => (job, seq, true),
                        ToWorker::Assign { job, seq } => (job, seq, false),
                    };
                    let intake = {
                        let mut node = w.node.lock();
                        let peers = offer && w.peer_priced(&node, &job);
                        node.intake(clock.now(), job, seq, offer, peers)
                    };
                    match intake {
                        // A crashed worker is silent.
                        None => {}
                        Some(Intake::Taken { job, queued, ack }) => {
                            if ack {
                                w.send(ToMaster::AckAssign {
                                    worker: id,
                                    job,
                                    seq,
                                });
                            }
                            if queued {
                                w.metrics.assignments.inc();
                                let _ = doorbell.send(());
                            }
                        }
                        Some(Intake::Declined(job)) => w.send(ToMaster::Reject {
                            worker: id,
                            job,
                            seq,
                        }),
                    }
                }
                w.metrics.flush();
            })
            .expect("spawn bidder")
    };

    let executor = std::thread::Builder::new()
        .name(format!("exec-{id}"))
        .spawn(move || {
            // Periodic idle re-announcement under the reliability
            // layer: a dropped `Idle` must only delay the pull loop,
            // not stall it for good.
            let heartbeat =
                reliability.map(|r| clock.real(r.heartbeat_secs).max(Duration::from_millis(5)));
            // Announce initial idleness (the first pull).
            w.send(ToMaster::Idle { worker: id });
            let mut peers = Vec::new();
            loop {
                loop {
                    let started = w.node.lock().start(clock.now());
                    let Some(s) = started else { break };
                    w.metrics.queue_wait_secs.record(s.waited);
                    if let Some(f) = w.run(s, &mut peers) {
                        w.done(f.report);
                        if f.idle {
                            w.send(ToMaster::Idle { worker: id });
                        }
                    }
                }
                let rang = match heartbeat {
                    Some(hb) => rx_doorbell.recv_timeout(hb),
                    None => rx_doorbell
                        .recv()
                        .map_err(|_| RecvTimeoutError::Disconnected),
                };
                match rang {
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) if w.node.lock().idle() => {
                        w.send(ToMaster::Idle { worker: id });
                    }
                    _ => {}
                }
            }
            w.metrics.flush();
        })
        .expect("spawn executor");

    WorkerThreads { bidder, executor }
}
