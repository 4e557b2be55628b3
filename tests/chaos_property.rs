//! Chaos property suite — the PR's headline invariant:
//!
//! > Under **any** seeded fault schedule, a query either returns results
//! > bit-identical to the fault-free run or a **typed** error — never a
//! > panic, a hang, or a silently wrong answer.
//!
//! The sweep drives 240 seeded fault schedules (40 seeds × 3 wire
//! semantics × 2 fixture queries) through the full stack — real wire
//! encodings, retries with deterministic backoff, graceful degradation —
//! and additionally replays every schedule on a fresh federation to prove
//! the whole run (results *and* counter-valued metrics, including retries
//! and fallbacks) is a pure function of the seed.

use std::time::Duration;

use xqd::{
    rendezvous_order, ExecOptions, FaultPlan, Federation, Metrics, NetworkModel, OutcomeKind,
    Strategy, TenantSpec, WorkloadConfig, WorkloadEngine,
};

const SEEDS: u64 = 40;
const FAULT_RATE: f64 = 0.3;
/// Near-total fault rate aimed at a single replica: the "kill the primary"
/// schedules of the replicated sweep.
const KILL_RATE: f64 = 0.9;

const STRATEGIES: [Strategy; 3] =
    [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection];

/// Fixture queries: one strategy-divergent single call (the shipped node's
/// ancestry differs across wire semantics, so a degradation that is not
/// strategy-faithful would be caught), one two-peer scatter.
const QUERIES: [&str; 2] = [
    "let $b := execute at {\"p\"} params () { doc(\"d.xml\")/a/b[1] } \
     return (count($b/parent::a), $b//c)",
    "(execute at {\"a\"} params () { count(doc(\"da.xml\")//x) }) + \
     (execute at {\"b\"} params () { count(doc(\"db.xml\")//x) })",
];

fn federation() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("p", "d.xml", "<a><b><c>one</c></b><b><c>two</c></b></a>").unwrap();
    f.load_document("a", "da.xml", "<r><x/><x/></r>").unwrap();
    f.load_document("b", "db.xml", "<r><x/></r>").unwrap();
    f
}

/// Silences the intentional `injected fault` worker panics (they are
/// captured and converted to typed errors); real panics still print.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

fn run_chaos(query: &str, strategy: Strategy, seed: u64) -> (Result<Vec<String>, String>, Metrics) {
    let mut f = federation();
    f.set_fault_plan(Some(FaultPlan::uniform(seed, FAULT_RATE)));
    match f.run(query, strategy) {
        Ok(out) => (Ok(out.result), out.metrics),
        Err(e) => {
            let code = e.code.unwrap_or_else(|| {
                panic!("seed {seed} {strategy:?}: untyped error {:?}", e.message)
            });
            (Err(code), f.metrics())
        }
    }
}

#[test]
fn every_fault_schedule_yields_baseline_results_or_a_typed_error() {
    quiet_injected_panics();
    let mut schedules = 0u64;
    let mut succeeded = 0u64;
    let mut total = Metrics::default();
    for query in QUERIES {
        for strategy in STRATEGIES {
            let baseline = federation().run(query, strategy).unwrap();
            assert_eq!(baseline.metrics.faults_injected, 0);
            for seed in 0..SEEDS {
                schedules += 1;
                let (outcome, metrics) = run_chaos(query, strategy, seed);
                total.add(&metrics);
                match outcome {
                    Ok(result) => {
                        succeeded += 1;
                        assert_eq!(
                            result, baseline.result,
                            "seed {seed} {strategy:?}: wrong answer under faults"
                        );
                    }
                    Err(code) => assert!(
                        code.starts_with("xrpc:") || code == "err:dynamic",
                        "seed {seed} {strategy:?}: unexpected error code {code:?}"
                    ),
                }
            }
        }
    }
    assert_eq!(schedules, SEEDS * 3 * 2);
    assert!(schedules >= 200, "acceptance floor: at least 200 schedules");
    // the sweep must actually exercise the machinery, not just survive it
    assert!(total.faults_injected > 0, "no faults injected across the sweep");
    assert!(total.retries > 0, "no retries across the sweep");
    assert!(total.fallbacks > 0, "no graceful degradations across the sweep");
    assert!(succeeded > 0, "every schedule errored — retry/degradation never rescued a run");
}

#[test]
fn identical_seeds_replay_identical_runs_including_metrics() {
    quiet_injected_panics();
    for query in QUERIES {
        for strategy in STRATEGIES {
            for seed in 0..SEEDS {
                let (first, m1) = run_chaos(query, strategy, seed);
                let (second, m2) = run_chaos(query, strategy, seed);
                assert_eq!(first, second, "seed {seed} {strategy:?}: outcome not replayable");
                assert_eq!(
                    m1.counters(),
                    m2.counters(),
                    "seed {seed} {strategy:?}: counters (bytes/transfers/retries/faults/fallbacks) drifted"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// replicated-catalog schedules: the availability layer under chaos
// ---------------------------------------------------------------------------

/// The fixture federation with every peer's documents replicated onto a
/// second host, so each logical call has a two-host replica set.
fn replicated_federation(replica_seed: u64) -> Federation {
    let mut f = federation();
    for (primary, replica) in [("p", "p2"), ("a", "a2"), ("b", "b2")] {
        f.replicate_peer(primary, replica).unwrap();
    }
    f.set_replica_seed(replica_seed);
    f
}

/// The host the failover ladder dials first for `peer`'s calls while
/// everything is healthy — the rendezvous winner, i.e. "the primary" a
/// kill-schedule should target.
fn preferred_host(f: &Federation, peer: &str, replica_seed: u64) -> String {
    let hosts = f.replica_catalog().hosts_serving_peer(peer);
    rendezvous_order(replica_seed, &hosts)[0].clone()
}

/// The replicated sweep's victims: each fixture query paired with the
/// logical peer whose elected replica the schedule attacks (for the scatter
/// query that kills one slot's host mid-round while the other proceeds).
const VICTIMS: [(&str, &str); 2] = [(QUERIES[0], "p"), (QUERIES[1], "a")];

fn run_replicated_chaos(
    query: &str,
    victim: &str,
    strategy: Strategy,
    seed: u64,
    rate: f64,
) -> (Result<Vec<String>, String>, Metrics) {
    let mut f = replicated_federation(seed);
    let primary = preferred_host(&f, victim, seed);
    f.set_fault_plan(Some(FaultPlan::uniform(seed, rate).with_target(&primary)));
    match f.run(query, strategy) {
        Ok(out) => (Ok(out.result), out.metrics),
        Err(e) => {
            let code = e.code.unwrap_or_else(|| {
                panic!("seed {seed} {strategy:?}: untyped error {:?}", e.message)
            });
            (Err(code), f.metrics())
        }
    }
}

#[test]
fn killed_primaries_fail_over_to_replicas_without_degrading() {
    // The acceptance bar for the availability layer: as long as one replica
    // of every needed document stays healthy, every schedule ends in the
    // baseline answer — no typed error, no data-shipping degrade — because
    // the ladder walks off the attacked host onto its stand-in.
    quiet_injected_panics();
    let mut schedules = 0u64;
    let mut total = Metrics::default();
    for (query, victim) in VICTIMS {
        for strategy in STRATEGIES {
            let baseline = federation().run(query, strategy).unwrap();
            for seed in 0..SEEDS {
                schedules += 1;
                let (outcome, metrics) = run_replicated_chaos(query, victim, strategy, seed, KILL_RATE);
                total.add(&metrics);
                let result = outcome.unwrap_or_else(|code| {
                    panic!("seed {seed} {strategy:?}: errored ({code}) despite a healthy replica")
                });
                assert_eq!(
                    result, baseline.result,
                    "seed {seed} {strategy:?}: replica answered differently from the primary"
                );
                assert_eq!(
                    metrics.fallbacks, 0,
                    "seed {seed} {strategy:?}: degraded to data shipping with a healthy replica up"
                );
            }
        }
    }
    assert_eq!(schedules, SEEDS * 3 * 2);
    assert!(schedules >= 200, "acceptance floor: at least 200 replicated schedules");
    assert!(total.faults_injected > 0, "the kill schedules never fired");
    assert!(total.replica_failovers > 0, "no schedule ever walked to the replica");
}

#[test]
fn flapping_primaries_stay_correct_and_never_degrade() {
    // Flap rather than kill: the attacked host fails intermittently, so
    // runs mix same-host retries, replica failovers and clean first tries —
    // all must agree with the fault-free baseline bit for bit.
    quiet_injected_panics();
    let query = QUERIES[0];
    let mut stayed = 0u64;
    let mut walked = 0u64;
    for strategy in STRATEGIES {
        let baseline = federation().run(query, strategy).unwrap();
        for seed in 0..SEEDS {
            let (outcome, metrics) = run_replicated_chaos(query, "p", strategy, seed, 0.5);
            assert_eq!(
                outcome.as_deref().ok(),
                Some(&baseline.result[..]),
                "seed {seed} {strategy:?}: flapping primary broke the run"
            );
            assert_eq!(metrics.fallbacks, 0, "seed {seed} {strategy:?}");
            if metrics.replica_failovers > 0 {
                walked += 1;
            } else {
                stayed += 1;
            }
        }
    }
    assert!(walked > 0, "the flap never pushed a run onto the replica");
    assert!(stayed > 0, "the flap never let the primary answer — that is a kill, not a flap");
}

#[test]
fn hedged_requests_race_the_slow_primary_and_the_replica_wins() {
    // Deterministic hedge race: the elected host is not down, merely slow
    // (targeted latency fault far above the hedge delay), so the ladder
    // dispatches a hedge to the replica, the replica answers first, and the
    // loser's cost stays visible in the serialized ledger while the
    // overlapped ledger only runs to the winner.
    let query = QUERIES[0];
    for strategy in STRATEGIES {
        let baseline = federation().run(query, strategy).unwrap();
        let mut f = replicated_federation(7);
        let primary = preferred_host(&f, "p", 7);
        f.set_hedge(Some(Duration::from_millis(2)));
        f.set_fault_plan(Some(
            FaultPlan {
                p_latency: 1.0,
                extra_latency: Duration::from_millis(80),
                ..FaultPlan::none(5)
            }
            .with_target(&primary),
        ));
        let out = f.run(query, strategy).unwrap();
        assert_eq!(out.result, baseline.result, "{strategy:?}");
        assert_eq!(out.metrics.hedges, 1, "{strategy:?}: the slow chain must arm the hedge");
        assert_eq!(out.metrics.hedge_wins, 1, "{strategy:?}: the replica answers first");
        assert_eq!(out.metrics.replica_failovers, 0, "{strategy:?}: a hedge win is not a failover");
        assert_eq!(out.metrics.fallbacks, 0, "{strategy:?}");
        assert!(
            out.metrics.network_overlapped < out.metrics.network,
            "{strategy:?}: cancelling the loser must shorten the overlapped ledger \
             ({:?} vs {:?})",
            out.metrics.network_overlapped,
            out.metrics.network,
        );
    }
}

#[test]
fn replicated_schedules_replay_identically_including_availability_counters() {
    // Replay determinism extends to the availability layer: hedges, hedge
    // wins, breaker trips, probes and failovers are part of the counter
    // vector, so any nondeterminism in replica election, hedge jitter or
    // scoreboard application shows up as a drifted replay.
    quiet_injected_panics();
    for (query, victim) in VICTIMS {
        for strategy in STRATEGIES {
            for seed in 0..SEEDS {
                let run = |(q, v): (&str, &str)| {
                    let mut f = replicated_federation(seed);
                    let primary = preferred_host(&f, v, seed);
                    f.set_hedge(Some(Duration::from_millis(4)));
                    f.set_fault_plan(Some(
                        FaultPlan::uniform(seed, KILL_RATE).with_target(&primary),
                    ));
                    let outcome = f.run(q, strategy).map(|o| o.result).map_err(|e| e.code);
                    (outcome, f.metrics())
                };
                let (first, m1) = run((query, victim));
                let (second, m2) = run((query, victim));
                assert_eq!(first, second, "seed {seed} {strategy:?}: outcome not replayable");
                assert_eq!(
                    m1.counters(),
                    m2.counters(),
                    "seed {seed} {strategy:?}: availability counters drifted between replays"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// concurrent schedules: fault injection while N tenants run
// ---------------------------------------------------------------------------

/// The fixture queries as a two-tenant workload: each tenant hammers one of
/// the chaos queries, so every dispatched query walks the same wire paths
/// the single-query sweeps pin — now under scheduler contention.
fn chaos_workload(seed: u64, qps: f64) -> WorkloadConfig {
    let mut config = WorkloadConfig::new(vec![
        TenantSpec::new("alpha", 2, qps, vec![QUERIES[0].to_string()]),
        TenantSpec::new("beta", 1, qps, vec![QUERIES[1].to_string()]),
    ]);
    config.seed = seed;
    config.duration = Duration::from_millis(50);
    config.queue_depth = 6;
    config
}

#[test]
fn concurrent_schedules_under_faults_complete_identically_or_fail_typed() {
    // Fault injection (peer-down, hangs, panics, breaker trips) while two
    // tenants run a saturating workload: every arrival must end as a
    // bit-identical completion or a typed error — the single-query chaos
    // invariant survives scheduler contention.
    quiet_injected_panics();
    let mut total_faults = 0u64;
    let mut total_shed = 0u64;
    let mut total_errored = 0u64;
    for seed in 0..10u64 {
        let mut f = federation();
        f.set_fault_plan(Some(FaultPlan::uniform(seed, FAULT_RATE)));
        let report = WorkloadEngine::run(&mut f, &chaos_workload(seed, 900.0)).unwrap();
        assert!(report.fully_accounted(), "seed {seed}: lost arrivals");
        assert!(
            report.results_identical,
            "seed {seed}: wrong answer under faults and contention"
        );
        assert!(report.all_errors_typed, "seed {seed}: untyped error escaped");
        for o in report.outcomes.iter().filter(|o| o.kind == OutcomeKind::Errored) {
            let code = o.error_code.as_deref().unwrap();
            assert!(
                code.starts_with("xrpc:") || code == "err:dynamic",
                "seed {seed}: unexpected error code {code:?}"
            );
        }
        total_faults += report.metrics.faults_injected;
        total_shed += report.shed;
        total_errored += report.errored;
    }
    assert!(total_faults > 0, "the fault schedules never fired under contention");
    assert!(total_shed > 0, "the workload never saturated admission control");
    assert!(total_errored > 0, "no query ever lost to a fault — the chaos was a no-op");
}

#[test]
fn concurrent_schedules_replay_identically_including_scheduler_counters() {
    // Replay determinism under contention: the whole multi-tenant run —
    // per-query fates, completion times on the simulated clock, and the
    // full 23-counter metric vector (wire + availability + scheduler) — is
    // a pure function of the seed.
    quiet_injected_panics();
    for seed in 0..10u64 {
        let run = || {
            let mut f = federation();
            f.set_fault_plan(Some(FaultPlan::uniform(seed, FAULT_RATE)));
            WorkloadEngine::run(&mut f, &chaos_workload(seed, 900.0)).unwrap()
        };
        let (first, second) = (run(), run());
        assert_eq!(
            first.replay_signature(),
            second.replay_signature(),
            "seed {seed}: scheduler buckets or counters drifted between replays"
        );
        assert_eq!(first.outcomes.len(), second.outcomes.len(), "seed {seed}");
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.kind, b.kind, "seed {seed}: a query's fate drifted");
            assert_eq!(a.finish, b.finish, "seed {seed}: a completion time drifted");
            assert_eq!(a.error_code, b.error_code, "seed {seed}");
        }
    }
}

#[test]
fn fault_free_runs_are_unchanged_by_an_installed_empty_plan() {
    // a plan with all probabilities zero must be byte-identical to no plan
    for query in QUERIES {
        for strategy in STRATEGIES {
            let bare = federation().run(query, strategy).unwrap();
            let mut f = federation();
            f.set_fault_plan(Some(FaultPlan::none(123)));
            let planned = f.run(query, strategy).unwrap();
            assert_eq!(bare.result, planned.result, "{strategy:?}");
            assert_eq!(bare.metrics.counters(), planned.metrics.counters(), "{strategy:?}");
        }
    }
}

#[test]
fn plan_counters_participate_in_the_replay_contract() {
    // `counters()` carries the plan-cache pair, so every replay comparison
    // above already covers it; this pins the values so a regression that
    // stops caching (or stops counting) is loud.
    let mut f = federation();
    let first = f.run(QUERIES[0], Strategy::ByValue).unwrap();
    assert_eq!(first.metrics.named().plan_cache(), [0, 1], "fresh run must miss");
    let second = f.run(QUERIES[0], Strategy::ByValue).unwrap();
    assert_eq!(second.metrics.named().plan_cache(), [1, 0], "warm run must reuse the plan");
}

// ---------------------------------------------------------------------------
// the trace as a determinism oracle
// ---------------------------------------------------------------------------

#[test]
fn replayed_fault_schedules_emit_byte_identical_traces() {
    // The trace file is part of the replay contract: every span timestamp
    // comes from the simulated clock, every id from coordinator program
    // order, and the trace id from the seeded PRNG — so replaying a chaos
    // schedule reproduces both export formats byte for byte.
    quiet_injected_panics();
    for query in QUERIES {
        for strategy in STRATEGIES {
            for seed in [0u64, 7, 23] {
                let run = || {
                    let mut f = federation();
                    let opts = f.exec_options();
                    f.set_exec_options(ExecOptions { trace: true, ..opts });
                    f.set_fault_plan(Some(FaultPlan::uniform(seed, FAULT_RATE)));
                    match f.run(query, strategy) {
                        Ok(out) => out.trace.expect("trace enabled"),
                        Err(e) => {
                            assert!(e.code.is_some(), "untyped error under seed {seed}");
                            f.take_trace().expect("trace survives a failed run")
                        }
                    }
                };
                let (a, b) = (run(), run());
                assert_eq!(
                    a.to_json(),
                    b.to_json(),
                    "seed {seed} {strategy:?}: replayed JSON trace drifted"
                );
                assert_eq!(
                    a.to_chrome(),
                    b.to_chrome(),
                    "seed {seed} {strategy:?}: replayed Chrome trace drifted"
                );
                assert!(!a.spans.is_empty());
            }
        }
    }
}

#[test]
fn replayed_workloads_emit_byte_identical_scheduler_traces() {
    // Same oracle for the scheduler: queue-residency, run, shed and cancel
    // spans are submitted in event-loop order off the discrete-event clock.
    quiet_injected_panics();
    for seed in 0..4u64 {
        let run = || {
            let mut f = federation();
            f.set_fault_plan(Some(FaultPlan::uniform(seed, FAULT_RATE)));
            let (report, trace) =
                WorkloadEngine::run_traced(&mut f, &chaos_workload(seed, 900.0)).unwrap();
            assert!(report.fully_accounted(), "seed {seed}");
            trace
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json(), "seed {seed}: scheduler trace drifted");
        assert!(a.named("sched.run").count() > 0, "seed {seed}: no sched.run spans");
    }
}
