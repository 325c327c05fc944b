//! JSONL export schema tests: every line kind survives a
//! write→parse→write round trip byte-identically, both runtimes
//! emit the same event vocabulary (pinned by a golden file, so a
//! renamed or dropped event kind is a reviewed schema change, not an
//! accident), and the tree-free event-line codec writes and reads
//! exactly what a `Json` tree would (second half of this file).

use std::collections::BTreeSet;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    parse_run_stream, run_federation, sched_kind_name, Allocator, Arrival, AtomizeConfig,
    BaselineAllocator, EngineConfig, FaultPlan, Faults, FedArrival, FedRuntimeKind, FederationSpec,
    JobId, JobSpec, MasterFaultPlan, MembershipPlan, NetFaultPlan, Payload, ReplicationConfig,
    ResourceRef, RunOutput, RunSpec, RunStreamLine, Runtime, SchedEvent, SchedEventKind, SchedLog,
    ShardId, ShardSpec, TaskDag, TaskNode, TraceEvent, TraceKind, WorkerId, WorkerSpec, Workflow,
};
use crossbid_integration::{task_entries, TaskEntryKind};
use crossbid_metrics::Json;
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;

const GOLDEN_VOCABULARY: &str = include_str!("../golden/event_vocabulary.txt");

fn specs(n: usize) -> Vec<WorkerSpec> {
    (0..n)
        .map(|i| {
            WorkerSpec::builder(format!("w{i}"))
                .net_mbps(10.0)
                .rw_mbps(100.0)
                .storage_gb(10.0)
                .build()
        })
        .collect()
}

/// Twelve jobs chasing one repo arrive within 5.5 virtual seconds —
/// far faster than the ~10 s fetch — so by the crash at t=6 worker 0
/// (winner of the all-equal first-contest tie on lowest id) holds
/// unfinished work to strand. The recovery at t=12 exercises the
/// remaining fault event kinds, and the master crash at log append 20
/// forces an election so both runtimes emit `sched/leader_elected`
/// and `sched/failover_replayed`. On threads the stranding is a
/// real-time premise: at a time scale of 1e-2 the master has 60 ms to
/// run the burst's serialized contests before the crash, room enough
/// on a loaded host (at 1e-3 a starved master sometimes placed nothing
/// on worker 0 in time, and no `sched/redistributed` followed).
fn faulted_spec() -> RunSpec {
    RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .faults(
            Faults::new()
                .workers(
                    FaultPlan::new()
                        .crash_at(SimTime::from_secs(6), WorkerId(0))
                        .recover_at(SimTime::from_secs(12), WorkerId(0)),
                )
                .master(MasterFaultPlan::new().crash_at(20)),
        )
        .trace(true)
        .seed(7)
        .time_scale(1e-2)
        .build()
}

/// A partition-only net-fault plan: all probabilities and delays stay
/// zero (no rng draws, so the sim run is exactly as deterministic as
/// a fault-free one), but the [1 s, 10 s) full partition swallows the
/// mid-run assignments — forcing retransmissions (`sched/resent`),
/// lease bounces (`sched/lease_expired`) and, once healed, placement
/// acknowledgements (`sched/assign_acked`) on both runtimes. The
/// threaded run needs the window to last in real time while placements
/// are made: 90 ms at a time scale of 1e-2 (9 ms at 1e-3 could pass
/// entirely while a loaded host starved the master).
fn netfault_spec() -> RunSpec {
    RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .faults(NetFaultPlan::none().with_partition(
            None,
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        ))
        .trace(true)
        .seed(7)
        .time_scale(1e-2)
        .build()
}

/// Two workers — one 400× slower on cpu — and six independent
/// one-second tasks in a single atomized job. The Baseline's blind
/// round-robin strands half the tasks on the slow worker; with the
/// aggressive speculation knobs the fast worker's completions
/// establish the duration median, the sweep replicates the stragglers
/// and the replicas' wins cancel the primaries — so a Baseline run of
/// this spec covers `sched/spec_launch` and `sched/spec_cancel` on
/// top of the task-lifecycle kinds. Under bidding the slow worker
/// prices itself out (no speculation), but every offer draws bids:
/// `sched/bid_received` lines of a task's job.
fn atomized_spec() -> RunSpec {
    let workers = vec![
        WorkerSpec::builder("fast")
            .net_mbps(10.0)
            .rw_mbps(100.0)
            .storage_gb(10.0)
            .build(),
        WorkerSpec::builder("slow")
            .net_mbps(10.0)
            .rw_mbps(100.0)
            .storage_gb(10.0)
            .cpu_factor(400.0)
            .build(),
    ];
    RunSpec::builder()
        .workers(workers)
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            atomize: AtomizeConfig {
                spec_factor: 2.0,
                spec_check_secs: 1.0,
                min_completed_for_spec: 3,
            },
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .trace(true)
        .seed(7)
        .time_scale(1e-3)
        .build()
}

/// Replicated data plane around a draining holder. Worker 0 is alone
/// until worker 1 joins at t = 30 and worker 2 at t = 31, so it fetches
/// the artifact from the master (`sched/replica_add`) and then takes a
/// long CPU job. From t = 20 it drains: alive, still a replica holder,
/// but out of the roster. The job on the artifact at t = 35 carries CPU
/// work that worker 2 runs ten times faster than worker 1, so worker 2
/// wins it and fetches the artifact from a peer (`sched/fetch_req` /
/// `sched/fetch_ok`). When worker 0 finishes its CPU job and leaves,
/// its copy drops (`sched/replica_drop`) and the factor-2 repair copies
/// the artifact to worker 1 (`sched/repair_start` / `sched/repair_done`).
///
/// On threads, worker 0's copy can land after the joins (its fetch is
/// a worker thread's sleep, the joins are the master's timers); the
/// factor-2 top-up then starts at once and may land before the job at
/// t = 35. The plan makes that harmless: a top-up goes to the eligible
/// worker with the most free store, and worker 1, with twice worker
/// 2's store, is eligible whenever worker 2 is, so worker 2 never
/// holds the artifact before its own fetch, and the top-up is itself
/// the repair the run must show. What is left is the margin of the
/// contest window (worker 2's bid must arrive within 200 virtual
/// seconds) and of worker 0's CPU job (without a top-up, worker 0 is
/// the one source, and it departs about 275 virtual seconds after the
/// job arrives), both at 1e-3 real seconds a virtual one.
fn replicated_spec() -> RunSpec {
    let worker = |name: &str, storage_gb, cpu_factor| {
        WorkerSpec::builder(name)
            .net_mbps(10.0)
            .rw_mbps(100.0)
            .storage_gb(storage_gb)
            .cpu_factor(cpu_factor)
            .build()
    };
    RunSpec::builder()
        .workers([
            worker("w0", 10.0, 1.0),
            worker("w1", 20.0, 10.0),
            worker("w2", 10.0, 1.0),
        ])
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .replication(ReplicationConfig::with_factor(2))
        .faults(
            Faults::new().membership(
                MembershipPlan::new()
                    .drain_at(SimTime::from_secs(20), WorkerId(0))
                    .join_at(SimTime::from_secs(30), WorkerId(1))
                    .join_at(SimTime::from_secs(31), WorkerId(2)),
            ),
        )
        .trace(true)
        .seed(3)
        .time_scale(1e-3)
        .contest_window_secs(200.0)
        .build()
}

/// Total data-plane loss: every peer transfer attempt times out, so a
/// data-less worker's fetch burns its attempt budget (`sched/
/// fetch_fail`) before degrading to the master path. The placement on
/// a data-less worker is made inevitable, not left to timing: workers
/// 0 and 1 are the only members until worker 2 joins, so both end up
/// holding the artifact (its first copy and the factor-2 top-up), and
/// both drain before the burst — one of them still busy with a long
/// CPU job, so a live copy remains to fetch from while worker 2 is the
/// only worker on the roster.
fn replicated_lossy_spec() -> RunSpec {
    RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .replication(ReplicationConfig {
            peer_drop_prob: 1.0,
            fetch_timeout_secs: 0.5,
            ..ReplicationConfig::with_factor(2)
        })
        .faults(
            Faults::new().membership(
                MembershipPlan::new()
                    .drain_at(SimTime::from_secs(28), WorkerId(0))
                    .drain_at(SimTime::from_secs(28), WorkerId(1))
                    .join_at(SimTime::from_secs(29), WorkerId(2)),
            ),
        )
        .trace(true)
        .seed(11)
        .time_scale(1e-3)
        .build()
}

fn straggler_dag() -> TaskDag {
    let tasks = (0..6u64)
        .map(|i| TaskNode {
            preds: 0,
            input: None,
            output: ResourceRef {
                id: ObjectId(200 + i),
                bytes: 1_000_000,
            },
            work_bytes: 0,
            cpu_secs: 1.0,
        })
        .collect();
    TaskDag::new(tasks).unwrap()
}

fn hot_repo_arrivals(task: crossbid_crossflow::TaskId) -> Vec<Arrival> {
    (0..12)
        .map(|i| Arrival {
            at: SimTime::from_secs_f64(i as f64 * 0.5),
            spec: JobSpec::scanning(
                task,
                ResourceRef {
                    id: ObjectId(1),
                    bytes: 100_000_000,
                },
                Payload::Index(i),
            ),
        })
        .collect()
}

fn trace_kind_label(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Queued => "trace/queued",
        TraceKind::Started => "trace/started",
        TraceKind::Fetched => "trace/fetched",
        TraceKind::Finished => "trace/finished",
    }
}

/// Serialise one run's stream and collect its event vocabulary.
fn stream_and_vocab(runtime: &str, scheduler: &str, out: &RunOutput) -> (String, BTreeSet<String>) {
    let meta = crossbid_crossflow::RunStreamMeta {
        runtime: runtime.to_string(),
        scheduler: scheduler.to_string(),
        worker_config: "custom".to_string(),
        job_config: "custom".to_string(),
        iteration: 0,
        seed: 7,
    };
    let mut buf = Vec::new();
    crossbid_crossflow::write_run_stream(&mut buf, &meta, out).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut vocab = BTreeSet::new();
    for line in parse_run_stream(&text).unwrap() {
        match line {
            RunStreamLine::Trace(ev) => {
                vocab.insert(trace_kind_label(ev.kind).to_string());
            }
            RunStreamLine::Sched(ev) => {
                vocab.insert(format!("sched/{}", sched_kind_name(&ev.kind)));
            }
            _ => {}
        }
    }
    (text, vocab)
}

/// Stream one run under `alloc` and return `(raw JSONL, vocabulary)`.
fn stream_vocabulary(rt: &mut dyn Runtime, alloc: &dyn Allocator) -> (String, BTreeSet<String>) {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let out = rt.run_iteration(&mut wf, alloc, hot_repo_arrivals(task));
    assert_eq!(out.record.jobs_completed, 12, "{}", rt.name());
    stream_and_vocab(rt.name(), alloc.kind().name(), &out)
}

/// Stream one [`replicated_spec`] run: the artifact's first job, the
/// holder's 300-second CPU job, and the artifact's second job, with 20
/// CPU seconds, once the holder drains, so the v7 data-plane kinds (a
/// peer fetch, replica bookkeeping, repair) all appear.
fn repl_stream_vocabulary(rt: &mut dyn Runtime) -> (String, BTreeSet<String>) {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let repo = ResourceRef {
        id: ObjectId(1),
        bytes: 100_000_000,
    };
    let at = SimTime::from_secs;
    let arrivals = vec![
        Arrival {
            at: at(0),
            spec: JobSpec::scanning(task, repo, Payload::Index(0)),
        },
        Arrival {
            at: at(1),
            spec: JobSpec::compute(task, 300.0, Payload::Index(1)),
        },
        Arrival {
            at: at(35),
            spec: JobSpec {
                cpu_secs: 20.0,
                ..JobSpec::scanning(task, repo, Payload::Index(2))
            },
        },
    ];
    let out = rt.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals);
    assert_eq!(out.record.jobs_completed, 3, "{}", rt.name());
    stream_and_vocab(rt.name(), "bidding", &out)
}

/// Stream one [`replicated_lossy_spec`] run: a seeding job
/// establishes the artifact and its factor-2 copies, two 100-second
/// CPU jobs keep at least one holder busy through its drain, then a
/// burst lands on the data-less third worker, whose peer attempts all
/// drop (`sched/fetch_fail`) before the degraded master fetch.
fn repl_lossy_stream_vocabulary(rt: &mut dyn Runtime) -> (String, BTreeSet<String>) {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let mk = |i: u64, at: f64| Arrival {
        at: SimTime::from_secs_f64(at),
        spec: JobSpec::scanning(
            task,
            ResourceRef {
                id: ObjectId(1),
                bytes: 100_000_000,
            },
            Payload::Index(i),
        ),
    };
    let cpu = |i: u64, at: u64| Arrival {
        at: SimTime::from_secs(at),
        spec: JobSpec::compute(task, 100.0, Payload::Index(i)),
    };
    let mut arrivals = vec![mk(0, 0.0), cpu(10, 1), cpu(11, 2)];
    arrivals.extend((1..10).map(|i| mk(i, 30.0 + i as f64 * 0.25)));
    let out = rt.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals);
    assert_eq!(out.record.jobs_completed, 12, "{}", rt.name());
    stream_and_vocab(rt.name(), "bidding", &out)
}

/// Stream one atomized run of [`straggler_dag`] under `alloc`. Each
/// of the six tasks is a schedulable job of its own, so the stream
/// carries the v6 task-lifecycle kinds.
fn dag_stream_vocabulary(
    rt: &mut dyn Runtime,
    alloc: &dyn Allocator,
) -> (String, BTreeSet<String>) {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, straggler_dag()),
    }];
    let out = rt.run_iteration(&mut wf, alloc, arrivals);
    // `jobs_completed` also counts won speculative replicas, so the
    // exactly-once guarantee lives in the task-done count.
    assert_eq!(out.sched_log.task_dones(), 6, "{}", rt.name());
    stream_and_vocab(rt.name(), alloc.kind().name(), &out)
}

/// A tiny federation whose shard streams cover the v5 vocabulary: a
/// shard-0 hot-repo burst against one worker's worth of capacity (its
/// other two churn away mid-run) forces hand-offs, so shard 0 emits
/// `sched/spill_out` plus all three membership events and shard 1
/// emits `sched/spill_in`. Returns each shard's JSONL stream and the
/// union vocabulary.
fn federation_streams(runtime: FedRuntimeKind) -> (Vec<String>, BTreeSet<String>) {
    let mut spec = FederationSpec::new(vec![
        ShardSpec::new(specs(3)).faults(
            Faults::new().membership(
                MembershipPlan::new()
                    .join_at(SimTime::from_secs(2), WorkerId(2))
                    .drain_at(SimTime::from_secs(4), WorkerId(0))
                    .remove_at(SimTime::from_secs(6), WorkerId(1)),
            ),
        ),
        ShardSpec::new(specs(2)),
    ]);
    spec.spill_threshold_secs = 10.0;
    spec.gossip_period_secs = 1.0;
    spec.seed = 7;
    spec.net_seed = 7;
    spec.runtime = runtime;
    spec.time_scale = 1e-3;
    spec.engine = EngineConfig {
        control: ControlPlane::instant(),
        data_latency: SimDuration::ZERO,
        noise: NoiseModel::None,
        ..EngineConfig::default()
    };
    let arrivals = (0..12)
        .map(|i| FedArrival {
            at: SimTime::from_secs_f64(i as f64 * 0.5),
            home: ShardId(0),
            spec: JobSpec::scanning(
                crossbid_crossflow::TaskId(0),
                ResourceRef {
                    id: ObjectId(1),
                    bytes: 100_000_000,
                },
                Payload::Index(i),
            ),
        })
        .collect();
    let out = run_federation(&spec, arrivals, &BiddingAllocator::new(), |_| {
        let mut wf = Workflow::new();
        wf.add_sink("scan");
        wf
    });
    assert!(!out.spills.is_empty(), "the burst must spill");

    let mut texts = Vec::new();
    let mut vocab = BTreeSet::new();
    for (s, shard) in out.shards.iter().enumerate() {
        let meta = crossbid_crossflow::RunStreamMeta {
            runtime: format!("fed-shard{s}"),
            scheduler: "bidding".to_string(),
            worker_config: "custom".to_string(),
            job_config: "custom".to_string(),
            iteration: 0,
            seed: 7,
        };
        let mut buf = Vec::new();
        crossbid_crossflow::write_run_stream(&mut buf, &meta, shard).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in parse_run_stream(&text).unwrap() {
            if let RunStreamLine::Sched(ev) = line {
                vocab.insert(format!("sched/{}", sched_kind_name(&ev.kind)));
            }
        }
        texts.push(text);
    }
    assert!(
        vocab.contains("sched/spill_out")
            && vocab.contains("sched/spill_in")
            && vocab.contains("sched/worker_joined")
            && vocab.contains("sched/worker_draining")
            && vocab.contains("sched/worker_removed"),
        "federation streams must cover the v5 event kinds, got {vocab:?}"
    );
    (texts, vocab)
}

#[test]
fn run_streams_round_trip_byte_identically() {
    // parse(write(run)) re-rendered must be byte-identical to the
    // original stream: no field is lost, reordered, or reformatted.
    let spec = faulted_spec();
    let lossy = netfault_spec();
    let runtimes: [Box<dyn Runtime>; 4] = [
        Box::new(spec.sim()),
        Box::new(spec.threaded()),
        Box::new(lossy.sim()),
        Box::new(lossy.threaded()),
    ];
    for mut rt in runtimes {
        let (text, _) = stream_vocabulary(rt.as_mut(), &BiddingAllocator::new());
        let rewritten: String = parse_run_stream(&text)
            .unwrap()
            .iter()
            .map(|l| l.render() + "\n")
            .collect();
        assert_eq!(text, rewritten, "{}: lossy round trip", rt.name());
    }
    // The replicated streams carry the v7 data-plane kinds (with
    // their object/from/attempt/evicted fields) — they must round
    // trip too.
    let replicated = replicated_spec();
    let repl_lossy = replicated_lossy_spec();
    let repl_runtimes: [(Box<dyn Runtime>, bool); 4] = [
        (Box::new(replicated.sim()), false),
        (Box::new(replicated.threaded()), false),
        (Box::new(repl_lossy.sim()), true),
        (Box::new(repl_lossy.threaded()), true),
    ];
    for (mut rt, lossy_plane) in repl_runtimes {
        let (text, _) = if lossy_plane {
            repl_lossy_stream_vocabulary(rt.as_mut())
        } else {
            repl_stream_vocabulary(rt.as_mut())
        };
        let rewritten: String = parse_run_stream(&text)
            .unwrap()
            .iter()
            .map(|l| l.render() + "\n")
            .collect();
        assert_eq!(
            text,
            rewritten,
            "{}: lossy replicated round trip",
            rt.name()
        );
    }
    // The atomized streams carry the v6 task/speculation kinds (with
    // their root/task/preds fields) — they must round trip too. The
    // Baseline run is the one that speculates (see `atomized_spec`),
    // so the stream is guaranteed to include the race events.
    let atomized = atomized_spec();
    let dag_runtimes: [Box<dyn Runtime>; 2] =
        [Box::new(atomized.sim()), Box::new(atomized.threaded())];
    for mut rt in dag_runtimes {
        let (text, vocab) = dag_stream_vocabulary(rt.as_mut(), &BaselineAllocator);
        assert!(
            vocab.contains("sched/spec_launch") && vocab.contains("sched/spec_cancel"),
            "{}: atomized stream must carry the speculation kinds, got {vocab:?}",
            rt.name()
        );
        let rewritten: String = parse_run_stream(&text)
            .unwrap()
            .iter()
            .map(|l| l.render() + "\n")
            .collect();
        assert_eq!(text, rewritten, "{}: lossy atomized round trip", rt.name());
    }
    // The federation shard streams carry the v5 spill/membership kinds
    // (with their shard fields) — they must round trip too.
    for runtime in [FedRuntimeKind::Sim, FedRuntimeKind::Threaded] {
        let (texts, _) = federation_streams(runtime);
        for text in texts {
            let rewritten: String = parse_run_stream(&text)
                .unwrap()
                .iter()
                .map(|l| l.render() + "\n")
                .collect();
            assert_eq!(text, rewritten, "{runtime:?}: lossy federation round trip");
        }
    }
}

#[test]
fn both_runtimes_emit_the_golden_event_vocabulary() {
    let golden: BTreeSet<String> = GOLDEN_VOCABULARY
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    assert_eq!(golden.len(), 36, "golden file lists every event kind");
    // The bidding protocol never offers (it assigns contest winners)
    // and the Baseline never opens contests, so the full vocabulary is
    // the union of one faulted bidding run (worker crash/recovery plus
    // a master crash for the election events), one fault-free Baseline
    // run (whose first offer of each job is declined: reject-once),
    // one partitioned bidding run exercising the reliability layer's
    // resend/lease/ack events, one churned federation run for the v5
    // spill and membership kinds, two atomized straggler runs for
    // the v6 task kinds — Baseline for the speculation race (under
    // bidding the slow worker prices itself out), bidding for bids on
    // a task's job — and two replicated runs for the v7
    // data-plane kinds (a draining holder for the peer fetch and the
    // repair cycle, total peer loss for `sched/fetch_fail`).
    let faulted = faulted_spec();
    let lossy = netfault_spec();
    let atomized = atomized_spec();
    let plain = RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .trace(true)
        .seed(7)
        .time_scale(1e-3)
        .build();
    struct VocabRuntimes {
        bidding: Box<dyn Runtime>,
        baseline: Box<dyn Runtime>,
        lossy: Box<dyn Runtime>,
        dag_baseline: Box<dyn Runtime>,
        dag_bidding: Box<dyn Runtime>,
        replicated: Box<dyn Runtime>,
        repl_lossy: Box<dyn Runtime>,
        fed: FedRuntimeKind,
    }
    let replicated = replicated_spec();
    let repl_lossy = replicated_lossy_spec();
    let runtimes: [VocabRuntimes; 2] = [
        VocabRuntimes {
            bidding: Box::new(faulted.sim()),
            baseline: Box::new(plain.sim()),
            lossy: Box::new(lossy.sim()),
            dag_baseline: Box::new(atomized.sim()),
            dag_bidding: Box::new(atomized.sim()),
            replicated: Box::new(replicated.sim()),
            repl_lossy: Box::new(repl_lossy.sim()),
            fed: FedRuntimeKind::Sim,
        },
        VocabRuntimes {
            bidding: Box::new(faulted.threaded()),
            baseline: Box::new(plain.threaded()),
            lossy: Box::new(lossy.threaded()),
            dag_baseline: Box::new(atomized.threaded()),
            dag_bidding: Box::new(atomized.threaded()),
            replicated: Box::new(replicated.threaded()),
            repl_lossy: Box::new(repl_lossy.threaded()),
            fed: FedRuntimeKind::Threaded,
        },
    ];
    for mut rt in runtimes {
        let (_, mut vocab) = stream_vocabulary(rt.bidding.as_mut(), &BiddingAllocator::new());
        let (_, baseline_vocab) = stream_vocabulary(rt.baseline.as_mut(), &BaselineAllocator);
        let (_, lossy_vocab) = stream_vocabulary(rt.lossy.as_mut(), &BiddingAllocator::new());
        let (_, dag_spec_vocab) =
            dag_stream_vocabulary(rt.dag_baseline.as_mut(), &BaselineAllocator);
        let (dag_bid_text, dag_bid_vocab) =
            dag_stream_vocabulary(rt.dag_bidding.as_mut(), &BiddingAllocator::new());
        assert!(
            baseline_vocab.contains("sched/offered") && baseline_vocab.contains("sched/rejected"),
            "{}: baseline run must exercise offer/reject",
            rt.baseline.name()
        );
        assert!(
            lossy_vocab.contains("sched/resent")
                && lossy_vocab.contains("sched/lease_expired")
                && lossy_vocab.contains("sched/assign_acked"),
            "{}: partitioned run must exercise the reliability events",
            rt.lossy.name()
        );
        assert!(
            dag_spec_vocab.contains("sched/spec_launch")
                && dag_spec_vocab.contains("sched/spec_cancel"),
            "{}: atomized baseline run must race a speculative replica",
            rt.dag_baseline.name()
        );
        let mut dag_bid_log = SchedLog::new();
        for line in parse_run_stream(&dag_bid_text).unwrap() {
            if let RunStreamLine::Sched(e) = line {
                dag_bid_log.push(e);
            }
        }
        assert!(
            task_entries(&dag_bid_log)
                .iter()
                .any(|t| matches!(t.kind, TaskEntryKind::Bid { .. })),
            "{}: atomized bidding run must draw bids on task jobs",
            rt.dag_bidding.name()
        );
        let (_, repl_vocab) = repl_stream_vocabulary(rt.replicated.as_mut());
        let (_, repl_lossy_vocab) = repl_lossy_stream_vocabulary(rt.repl_lossy.as_mut());
        for kind in [
            "sched/fetch_req",
            "sched/fetch_ok",
            "sched/replica_add",
            "sched/replica_drop",
            "sched/repair_start",
            "sched/repair_done",
        ] {
            assert!(
                repl_vocab.contains(kind),
                "{}: replicated run must emit {kind}, got {repl_vocab:?}",
                rt.replicated.name()
            );
        }
        assert!(
            repl_lossy_vocab.contains("sched/fetch_fail"),
            "{}: total-loss run must fail a peer attempt, got {repl_lossy_vocab:?}",
            rt.repl_lossy.name()
        );
        vocab.extend(baseline_vocab);
        vocab.extend(lossy_vocab);
        vocab.extend(dag_spec_vocab);
        vocab.extend(dag_bid_vocab);
        vocab.extend(repl_vocab);
        vocab.extend(repl_lossy_vocab);
        let (_, fed_vocab) = federation_streams(rt.fed);
        vocab.extend(fed_vocab);
        assert_eq!(
            vocab,
            golden,
            "{}: emitted vocabulary diverged from tests/golden/event_vocabulary.txt",
            rt.bidding.name()
        );
    }
}

// ---------------------------------------------------------------
// The event-line codec against an independent reference.
//
// `trace` and `sched` lines are written and read without a `Json`
// tree; the reference below spells the same schema out through
// `Json::obj(..).render()` and `Json::parse`, so the two can only
// agree if the direct codec's bytes and coercions are the tree's.
// ---------------------------------------------------------------

const GOLDEN_EVENT_LINES_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/golden/event_lines.jsonl");
const GOLDEN_EVENT_LINES: &str = include_str!("../golden/event_lines.jsonl");

/// Every scheduler kind once, payloads at the top of their range when
/// `wide`, bids estimating `estimate`.
fn every_sched_kind(wide: bool, estimate: f64) -> Vec<SchedEventKind> {
    use SchedEventKind as K;
    let (n64, n32, n16) = if wide {
        (u64::MAX, u32::MAX, u16::MAX)
    } else {
        (42, 3, 2)
    };
    let (root, task, object, from) = (JobId(n64), n32, n64, WorkerId(n32));
    vec![
        K::Submitted,
        K::ContestOpened,
        K::BidReceived {
            estimate_secs: estimate,
        },
        K::Assigned,
        K::ContestClosed {
            timed_out: wide,
            fallback: !wide,
        },
        K::Offered,
        K::Rejected,
        K::Completed,
        K::Crash,
        K::Recover,
        K::Redistributed,
        K::AssignAcked,
        K::LeaseExpired,
        K::Resent { attempt: n32 },
        K::LeaderElected { term: n32 },
        K::FailoverReplayed { entries: n64 },
        K::SpillOut {
            to_shard: ShardId(n16),
        },
        K::SpillIn {
            from_shard: ShardId(n16),
        },
        K::WorkerJoined,
        K::WorkerDraining,
        K::WorkerRemoved,
        K::TaskDone { root, task },
        K::TaskOffer {
            root,
            task,
            preds: n64,
            total: n32,
        },
        K::SpecLaunch { root, task },
        K::SpecCancel { root, task },
        K::FetchReq { object, from },
        K::FetchOk { object, from },
        K::FetchFail {
            object,
            from,
            attempt: n32,
        },
        K::ReplicaAdd { object },
        K::ReplicaDrop {
            object,
            evicted: wide,
        },
        K::RepairStart { object, from },
        K::RepairDone { object },
    ]
}

/// All 4 trace kinds and all 32 scheduler kinds at one corner of the
/// value space.
fn every_event_line(
    at: f64,
    worker: Option<WorkerId>,
    job: Option<JobId>,
    wide: bool,
    estimate: f64,
) -> Vec<RunStreamLine> {
    let at = SimTime::from_secs_f64(at);
    let trace = [
        TraceKind::Queued,
        TraceKind::Started,
        TraceKind::Fetched,
        TraceKind::Finished,
    ]
    .map(|kind| {
        RunStreamLine::Trace(TraceEvent {
            job: job.unwrap_or(JobId(0)),
            worker: worker.unwrap_or(WorkerId(0)),
            kind,
            at,
        })
    });
    let sched = every_sched_kind(wide, estimate).into_iter().map(|kind| {
        RunStreamLine::Sched(SchedEvent {
            at,
            worker,
            job,
            kind,
        })
    });
    trace.into_iter().chain(sched).collect()
}

/// The corners: no ids and t = 0, ids at `MAX`, integral and
/// sub-millisecond instants, and every class of float an estimate can
/// be (NaN and ±inf are how a corrupted bid is logged).
fn boundary_event_lines() -> Vec<RunStreamLine> {
    let (w, j) = (WorkerId, JobId);
    [
        (0.0, None, None, false, f64::NAN),
        (
            3.0,
            Some(w(u32::MAX)),
            Some(j(u64::MAX)),
            true,
            f64::INFINITY,
        ),
        (12.5, Some(w(0)), Some(j(0)), false, f64::NEG_INFINITY),
        (1e9 + 0.123456, Some(w(1)), None, true, 5e-324),
        (0.000001, None, Some(j(7)), false, 42.0),
        (86_400.0, Some(w(31)), Some(j(1 << 48)), true, 1e21),
        (7.25, Some(w(2)), Some(j(9)), false, -0.0),
        (0.5, Some(w(2)), Some(j(9)), false, 1.7976931348623157e308),
    ]
    .into_iter()
    .flat_map(|(at, worker, job, wide, est)| every_event_line(at, worker, job, wide, est))
    .collect()
}

/// The schema, spelt as a tree: what `export.rs` must write for an
/// event line, field by field and in order.
fn reference_json(line: &RunStreamLine) -> Json {
    use SchedEventKind as K;
    let id = |n: Option<u64>| n.map_or(Json::Null, Json::UInt);
    match line {
        RunStreamLine::Trace(ev) => Json::obj([
            ("type", Json::str("trace")),
            ("job", Json::UInt(ev.job.0)),
            ("worker", Json::UInt(ev.worker.0 as u64)),
            (
                "kind",
                Json::str(&trace_kind_label(ev.kind)["trace/".len()..]),
            ),
            ("at_secs", Json::Num(ev.at.as_secs_f64())),
        ]),
        RunStreamLine::Sched(ev) => {
            let mut fields = vec![
                ("type", Json::str("sched")),
                ("at_secs", Json::Num(ev.at.as_secs_f64())),
                ("worker", id(ev.worker.map(|w| w.0 as u64))),
                ("job", id(ev.job.map(|j| j.0))),
                ("kind", Json::str(sched_kind_name(&ev.kind))),
            ];
            let task_of = |root: JobId, task: u32| {
                vec![
                    ("root", Json::UInt(root.0)),
                    ("task", Json::UInt(task as u64)),
                ]
            };
            let copy_of = |object: u64, from: WorkerId| {
                vec![
                    ("object", Json::UInt(object)),
                    ("from", Json::UInt(from.0 as u64)),
                ]
            };
            let one = |key, value| vec![(key, value)];
            fields.extend(match ev.kind {
                K::BidReceived { estimate_secs } => one("estimate_secs", Json::Num(estimate_secs)),
                K::ContestClosed {
                    timed_out,
                    fallback,
                } => vec![
                    ("timed_out", Json::Bool(timed_out)),
                    ("fallback", Json::Bool(fallback)),
                ],
                K::Resent { attempt } => one("attempt", Json::UInt(attempt as u64)),
                K::LeaderElected { term } => one("term", Json::UInt(term as u64)),
                K::FailoverReplayed { entries } => one("entries", Json::UInt(entries)),
                K::SpillOut { to_shard } => one("to_shard", Json::UInt(to_shard.0 as u64)),
                K::SpillIn { from_shard } => one("from_shard", Json::UInt(from_shard.0 as u64)),
                K::TaskOffer {
                    root,
                    task,
                    preds,
                    total,
                } => [
                    task_of(root, task),
                    vec![
                        ("preds", Json::UInt(preds)),
                        ("total", Json::UInt(total as u64)),
                    ],
                ]
                .concat(),
                K::TaskDone { root, task }
                | K::SpecLaunch { root, task }
                | K::SpecCancel { root, task } => task_of(root, task),
                K::FetchReq { object, from }
                | K::FetchOk { object, from }
                | K::RepairStart { object, from } => copy_of(object, from),
                K::FetchFail {
                    object,
                    from,
                    attempt,
                } => [
                    copy_of(object, from),
                    one("attempt", Json::UInt(attempt as u64)),
                ]
                .concat(),
                K::ReplicaAdd { object } | K::RepairDone { object } => {
                    one("object", Json::UInt(object))
                }
                K::ReplicaDrop { object, evicted } => vec![
                    ("object", Json::UInt(object)),
                    ("evicted", Json::Bool(evicted)),
                ],
                K::Submitted
                | K::ContestOpened
                | K::Assigned
                | K::Offered
                | K::Rejected
                | K::Completed
                | K::Crash
                | K::Recover
                | K::Redistributed
                | K::AssignAcked
                | K::LeaseExpired
                | K::WorkerJoined
                | K::WorkerDraining
                | K::WorkerRemoved => vec![],
            });
            Json::obj(fields)
        }
        other => panic!("not an event line: {other:?}"),
    }
}

fn parse_one(line: &str) -> RunStreamLine {
    match parse_run_stream(line) {
        Ok(mut lines) if lines.len() == 1 => lines.remove(0),
        other => panic!("{line} -> {other:?}"),
    }
}

/// The tree reader's coercions (`Json::as_u64`, `as_f64` with `null`
/// as NaN, absent as `null`) applied to one field of a parsed tree.
fn tree_agrees(tree: &Json, key: &str, decoded: &Json) -> bool {
    let found = tree.get(key).unwrap_or(&Json::Null);
    match decoded {
        Json::Null => *found == Json::Null,
        Json::UInt(n) => found.as_u64() == Some(*n),
        Json::Num(x) if x.is_finite() => found.as_f64() == Some(*x),
        Json::Num(_) => found.as_f64().is_some_and(f64::is_nan),
        other => found == other,
    }
}

#[test]
fn event_encoder_matches_the_tree_renderer_at_the_boundaries() {
    let lines = boundary_event_lines();
    let names: BTreeSet<String> = lines
        .iter()
        .map(|l| reference_json(l).req_str("kind").unwrap().to_string())
        .collect();
    assert_eq!(names.len(), 36, "4 trace kinds + 32 sched kinds");
    for line in &lines {
        let reference = reference_json(line).render();
        assert_eq!(line.render(), reference, "{line:?}");
        // And back: NaN != NaN, so compare what the decoded event
        // renders to (±inf and NaN all write `null`).
        assert_eq!(parse_one(&reference).render(), reference);
    }
}

#[test]
fn event_decoder_matches_the_tree_parser_on_foreign_spellings() {
    // `raw` is a list of (key, value text) pairs; `join` lays them out.
    type Raw = Vec<(String, String)>;
    let compact = |raw: &Raw| {
        let body: Vec<String> = raw.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    };
    let spaced = |raw: &Raw| {
        let body: Vec<String> = raw
            .iter()
            .map(|(k, v)| format!(" \"{k}\"\t: {v} "))
            .collect();
        format!("  {{{}}}\t ", body.join(","))
    };
    let set = |raw: &Raw, key: &str, value: &str| -> Raw {
        raw.iter()
            .map(|(k, v)| {
                let v = if k == key { value } else { v };
                (k.clone(), v.to_string())
            })
            .collect()
    };
    let mut checked = 0;
    for line in boundary_event_lines() {
        let canonical = line.render();
        let Json::Obj(fields) = Json::parse(&canonical).unwrap() else {
            panic!("{canonical}")
        };
        let raw: Raw = fields
            .iter()
            .map(|(k, v)| (k.clone(), v.render()))
            .collect();
        let kind = fields
            .iter()
            .find_map(|(k, v)| (k == "kind").then(|| v.as_str().unwrap()))
            .unwrap();
        let at = SimTime::from_secs_f64(1000.0);
        let at_1000 = match line.clone() {
            RunStreamLine::Trace(ev) => RunStreamLine::Trace(TraceEvent { at, ..ev }),
            RunStreamLine::Sched(ev) => RunStreamLine::Sched(SchedEvent { at, ..ev }),
            other => other,
        }
        .render();

        let reversed: Raw = raw.iter().rev().cloned().collect();
        let mut padded: Raw = vec![
            ("note".into(), "\"a \\\"quoted\\\" \\u00e9\\n\"".into()),
            (
                "nested".into(),
                "{\"kind\":\"mystery\",\"at_secs\":[1,{\"x\":null}]}".into(),
            ),
        ];
        padded.extend(raw.iter().cloned());
        padded.insert(4, ("extra".into(), "[ ]".into()));
        padded.push(("schema".into(), "-12.5e-3".into()));
        // First wins: the trailing duplicates are never read, valid or not.
        let mut duplicated = raw.clone();
        duplicated.extend([
            ("kind".to_string(), "\"mystery\"".to_string()),
            ("at_secs".to_string(), "null".to_string()),
            ("worker".to_string(), "99999999999".to_string()),
            ("job".to_string(), "\"seven\"".to_string()),
            ("type".to_string(), "\"metrics\"".to_string()),
        ]);
        // `_` (or, failing that, the first letter) as a \u escape.
        let escaped_kind = match kind.split_once('_') {
            Some((head, tail)) => format!("\"{head}\\u005f{tail}\""),
            None => format!("\"\\u{:04x}{}\"", kind.as_bytes()[0], &kind[1..]),
        };

        for (foreign, expected) in [
            (compact(&reversed), &canonical),
            (compact(&padded), &canonical),
            (spaced(&padded), &canonical),
            (compact(&duplicated), &canonical),
            (spaced(&set(&raw, "kind", &escaped_kind)), &canonical),
            (compact(&set(&raw, "at_secs", "1000")), &at_1000),
            (compact(&set(&raw, "at_secs", "1e3")), &at_1000),
            (spaced(&set(&reversed, "at_secs", "10.0E+2")), &at_1000),
        ] {
            let decoded = parse_one(&foreign);
            assert_eq!(&decoded.render(), expected, "{foreign}");
            let tree = Json::parse(&foreign).unwrap();
            let Json::Obj(decoded_fields) = reference_json(&decoded) else {
                unreachable!()
            };
            for (key, value) in &decoded_fields {
                assert!(
                    tree_agrees(&tree, key, value),
                    "{foreign}: decoded `{key}` as {value:?}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 8 * 8 * 36);

    // What the tree reader refused stays refused.
    for bad in [
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\"}",
        "{\"type\":\"trace\",\"job\":1.0,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0}",
        "{\"type\":\"trace\",\"job\":-1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":null,\"kind\":\"queued\",\"at_secs\":1.0}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"paused\",\"at_secs\":1.0}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":\"1.0\"}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":-3.0}",
        "{\"type\":\"sched\",\"at_secs\":1e999,\"worker\":0,\"job\":1,\"kind\":\"crash\"}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0} x",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0,}",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0",
        "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":1.0,\"x\":[1,]}",
        "{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":0,\"job\":1}",
        "{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":0,\"job\":1,\"kind\":\"bid_received\"}",
        "{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":true,\"job\":1,\"kind\":\"crash\"}",
        "{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":0,\"job\":1,\"kind\":\"contest_closed\",\"timed_out\":0,\"fallback\":false}",
        "{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":0,\"job\":1,\"kind\":7}",
        "[\"type\",\"sched\"]",
        "{\"at_secs\":1.0}",
    ] {
        assert!(parse_run_stream(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn event_lines_match_the_golden_file() {
    // One line per kind, mid-range values: the wire form itself is the
    // contract here, so a reader in another language can be written
    // against the file. Regenerate with
    // `BLESS_GOLDEN=1 cargo test -p crossbid-integration --test jsonl_schema`.
    let actual: String = every_event_line(12.5, Some(WorkerId(1)), Some(JobId(7)), false, 3.25)
        .iter()
        .map(|l| l.render() + "\n")
        .collect();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_EVENT_LINES_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN_EVENT_LINES,
        "event lines diverged from tests/golden/event_lines.jsonl;\n\
         re-bless with BLESS_GOLDEN=1 if the schema change is intentional"
    );
    let reparsed: String = parse_run_stream(GOLDEN_EVENT_LINES)
        .unwrap()
        .iter()
        .map(|l| l.render() + "\n")
        .collect();
    assert_eq!(reparsed, GOLDEN_EVENT_LINES);
}
