//! Observability bundle shared by both runtimes.
//!
//! [`RuntimeMetrics`] binds every instrument the engine and the
//! threaded master/worker record into once, and records into
//! single-owner tallies ([`LocalCounter`], [`LocalHistogram`]): a hot
//! path touches plain cells — no locked instruction, never the
//! registry's name map. [`RuntimeMetrics::flush`] publishes the tallies
//! into the registry; [`RuntimeMetrics::snapshot`] flushes first.
//! Cloning forks: a zeroed tally over the same bound instruments, for
//! another owner. The sim's one owner is its master core. In the
//! threaded runtime the master, the net intake and each worker's
//! bidder and executor thread own a fork each, and each flushes before
//! its thread is joined or the run's snapshot is taken. A shared sink
//! therefore receives a run's counts when the run ends, not while it
//! runs. Both runtimes use the same instrument names, which is what
//! lets parity tests compare a sim run and a threaded run through
//! their [`RegistrySnapshot`]s.
//!
//! Instrument names (all under the run's registry):
//!
//! | name | kind | §6.1 meaning |
//! |------|------|--------------|
//! | `jobs/completed` | counter | jobs finished (conservation) |
//! | `jobs/redistributed` | counter | re-placed after a crash |
//! | `assignments` | counter | placements onto a worker queue |
//! | `contests/opened` | counter | bid broadcasts (Listing 1) |
//! | `contests/closed` | counter | contests decided |
//! | `contests/timed_out` | counter | decided by window timeout |
//! | `contests/fallback` | counter | zero bids → arbitrary worker |
//! | `bids/received` | counter | finite bids reaching the master |
//! | `control/messages` | counter | §6.3.2 bidding overhead |
//! | `workers/crashes` | counter | injected crash events |
//! | `workers/recoveries` | counter | recovery events |
//! | `cache/hits`, `cache/misses`, `cache/evictions` | counter | store behaviour |
//! | `job/queue_wait_secs` | histogram | queue-wait phase |
//! | `job/fetch_secs` | histogram | transfer phase (misses only) |
//! | `job/proc_secs` | histogram | processing phase |
//! | `contest/bid_latency_secs` | histogram | bid-request → bid |
//! | `sim/clamped_events` | counter | past-time events clamped by the queue (sim only; nonzero is an anomaly) |
//! | `makespan_secs` | gauge | end-to-end time |
//! | `data_load_mb` | gauge | non-local MB moved |
//! | `worker/<i>/busy_frac` | gauge | per-worker utilization |
//!
//! Net-fault layer instruments (zero unless a
//! [`crate::faults::NetFaultPlan`] is active):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `net/dropped` | counter | messages eaten by loss or a partition |
//! | `net/duplicated` | counter | messages delivered twice by the link |
//! | `net/retries` | counter | reliability-layer retransmissions |
//! | `net/dedup_hits` | counter | duplicate envelopes discarded |
//! | `acks/received` | counter | assignment/offer acks applied |
//! | `lease/expired` | counter | placements bounced by lease expiry |
//!
//! Master-failover instruments (zero unless a
//! [`crate::faults::MasterFaultPlan`] is armed):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `master/failovers` | counter | leader crashes survived by election |
//! | `replog/truncated` | counter | decision appends lost with the leader |
//! | `replay/entries` | counter | committed entries replayed by successors |
//!
//! Replicated-data-plane instruments (zero unless
//! [`crate::engine::ReplicationConfig::enabled`] is set):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `cache/peer_fetches` | counter | misses served worker→worker instead of from the master |
//! | `data/peer_retries` | counter | peer fetch attempts that timed out and re-tried |
//! | `data/repairs_started` | counter | re-replication copies committed to the log |
//! | `data/repairs_completed` | counter | re-replication copies that landed |

use crossbid_metrics::{LocalCounter, LocalHistogram, Registry, RegistrySnapshot};

/// Declares [`RuntimeMetrics`]: one tally field per instrument, bound
/// by name in `new`, forked by `clone` and published by `flush`.
macro_rules! runtime_metrics {
    (
        counters { $($counter:ident = $counter_name:literal,)* }
        histograms { $($hist:ident = $hist_name:literal,)* }
    ) => {
        /// Single-owner tallies of every runtime instrument, bound once
        /// to the instruments of one [`Registry`].
        ///
        /// Cloning forks: the clone starts at zero over the same bound
        /// instruments, without allocating or looking up a name. The
        /// threaded runtime hands a fork to every thread that records,
        /// so bidders and executors record without messaging the
        /// master.
        #[derive(Debug)]
        pub struct RuntimeMetrics {
            registry: Registry,
            $(pub $counter: LocalCounter,)*
            $(pub $hist: LocalHistogram,)*
        }

        impl RuntimeMetrics {
            /// Bind every instrument in `registry`.
            pub fn new(registry: Registry) -> Self {
                RuntimeMetrics {
                    $($counter: LocalCounter::new(registry.counter($counter_name)),)*
                    $($hist: LocalHistogram::new(registry.histogram($hist_name)),)*
                    registry,
                }
            }

            /// Publish every tally into the registry and reset it to zero.
            pub fn flush(&self) {
                $(self.$counter.flush();)*
                $(self.$hist.flush();)*
            }
        }

        impl Clone for RuntimeMetrics {
            fn clone(&self) -> Self {
                RuntimeMetrics {
                    registry: self.registry.clone(),
                    $($counter: self.$counter.fork(),)*
                    $($hist: self.$hist.fork(),)*
                }
            }
        }
    };
}

runtime_metrics! {
    counters {
        jobs_completed = "jobs/completed",
        jobs_redistributed = "jobs/redistributed",
        assignments = "assignments",
        contests_opened = "contests/opened",
        contests_closed = "contests/closed",
        contests_timed_out = "contests/timed_out",
        contests_fallback = "contests/fallback",
        bids_received = "bids/received",
        control_messages = "control/messages",
        worker_crashes = "workers/crashes",
        worker_recoveries = "workers/recoveries",
        cache_hits = "cache/hits",
        cache_misses = "cache/misses",
        cache_evictions = "cache/evictions",
        net_dropped = "net/dropped",
        net_duplicated = "net/duplicated",
        net_retries = "net/retries",
        net_dedup_hits = "net/dedup_hits",
        acks_received = "acks/received",
        lease_expired = "lease/expired",
        sim_clamped_events = "sim/clamped_events",
        master_failovers = "master/failovers",
        replog_truncated = "replog/truncated",
        replay_entries = "replay/entries",
        peer_fetches = "cache/peer_fetches",
        peer_retries = "data/peer_retries",
        repairs_started = "data/repairs_started",
        repairs_completed = "data/repairs_completed",
    }
    histograms {
        queue_wait_secs = "job/queue_wait_secs",
        fetch_secs = "job/fetch_secs",
        proc_secs = "job/proc_secs",
        bid_latency_secs = "contest/bid_latency_secs",
    }
}

impl RuntimeMetrics {
    /// Use the caller's sink when provided, else a private registry
    /// (metrics are always collected; a sink receives them at
    /// [`flush`](Self::flush)).
    pub fn from_sink(sink: Option<Registry>) -> Self {
        Self::new(sink.unwrap_or_default())
    }

    /// End-of-run summary gauges.
    pub fn set_makespan_secs(&self, v: f64) {
        self.registry.gauge("makespan_secs").set(v);
    }

    pub fn set_data_load_mb(&self, v: f64) {
        self.registry.gauge("data_load_mb").set(v);
    }

    /// Per-worker utilization gauge, `worker/<i>/busy_frac`.
    pub fn set_worker_busy_frac(&self, worker: usize, v: f64) {
        self.registry
            .gauge(&format!("worker/{worker}/busy_frac"))
            .set(v);
    }

    /// Flush this owner's tallies, then freeze every instrument of
    /// the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.flush();
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sink_shares_the_registry() {
        let reg = Registry::new();
        let m = RuntimeMetrics::from_sink(Some(reg.clone()));
        m.assignments.add(3);
        assert_eq!(
            reg.snapshot().counter("assignments"),
            0,
            "not yet published"
        );
        assert_eq!(m.snapshot().counter("assignments"), 3);
        assert_eq!(reg.snapshot().counter("assignments"), 3);
        assert_eq!(m.assignments.get(), 0, "the tally restarts at zero");
    }

    #[test]
    fn forks_start_at_zero_and_publish_into_the_same_instruments() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(reg.clone());
        m.control_messages.add(2);
        m.bid_latency_secs.record(0.5);
        let fork = m.clone();
        assert_eq!(fork.control_messages.get(), 0);
        assert_eq!(fork.bid_latency_secs.count(), 0);
        fork.control_messages.inc();
        fork.bid_latency_secs.record(0.25);
        fork.flush();
        let snap = m.snapshot();
        assert_eq!(snap.counter("control/messages"), 3);
        let h = snap.histogram("contest/bid_latency_secs").unwrap();
        assert_eq!((h.count, h.sum), (2, 0.75));
    }

    #[test]
    fn private_registry_still_snapshots() {
        let m = RuntimeMetrics::from_sink(None);
        m.contests_opened.inc();
        m.set_worker_busy_frac(2, 0.5);
        let snap = m.snapshot();
        assert_eq!(snap.counter("contests/opened"), 1);
        assert_eq!(snap.gauge("worker/2/busy_frac"), Some(0.5));
    }
}
