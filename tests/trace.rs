//! Trace-shape suite: the span model of DESIGN.md "Observability", pinned
//! end-to-end.
//!
//! The chaos suite proves traces replay byte-identically; this suite pins
//! what is *in* them — span parentage, failover-rung annotations (rung
//! index, kind, breaker state), per-node profiles summing to the
//! simulated wall time, and scheduler queue-residency spans under
//! saturation.

use std::time::Duration;

use xqd::{
    rendezvous_order, ExecOptions, FaultPlan, Federation, NetworkModel, Strategy, TenantSpec,
    Trace, WorkloadConfig, WorkloadEngine, ROOT_SPAN,
};

fn federation() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("emp", "people.xml", "<people><p><name>ann</name><dept>sales</dept></p><p><name>bob</name><dept>dev</dept></p></people>")
        .unwrap();
    f.load_document("org", "depts.xml", "<depts><dept name=\"sales\"/><dept name=\"dev\"/></depts>")
        .unwrap();
    f
}

fn traced(f: &mut Federation) {
    let opts = f.exec_options();
    f.set_exec_options(ExecOptions { trace: true, profile: true, ..opts });
}

/// The federated join shape of the `explain --analyze` acceptance bar:
/// scans one peer, probes the other per binding.
const JOIN: &str = "for $p in doc(\"xrpc://emp/people.xml\")//p \
                    where $p/dept = doc(\"xrpc://org/depts.xml\")//dept/@name \
                    return $p/name";

/// See `chaos_property.rs`: silences the intentional worker panics.
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

/// Every span's parent must exist and be submitted before it, and every
/// span must lie inside the root's interval.
fn assert_well_formed(trace: &Trace) {
    assert_eq!(trace.root().id, ROOT_SPAN);
    assert_eq!(trace.root().parent, 0);
    for (i, s) in trace.spans.iter().enumerate().skip(1) {
        let parent = trace
            .spans
            .iter()
            .position(|p| p.id == s.parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {}", s.id, s.parent));
        assert!(parent < i, "span {} submitted before its parent", s.id);
        assert!(
            s.start_ns + s.dur_ns <= trace.total_ns,
            "span {} ({}) overruns the run: {}+{} > {}",
            s.id,
            s.name,
            s.start_ns,
            s.dur_ns,
            trace.total_ns
        );
    }
}

#[test]
fn query_spans_form_a_tree_and_cover_the_simulated_timeline() {
    let mut f = federation();
    traced(&mut f);
    let out = f.run(JOIN, Strategy::ByProjection).unwrap();
    let trace = out.trace.expect("trace enabled");
    assert_well_formed(&trace);

    // front-end markers are zero-duration children of the root
    for name in ["frontend.parse", "frontend.decompose", "frontend.cache-miss"] {
        let span = trace.named(name).next().unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(span.parent, ROOT_SPAN, "{name} must hang off the root");
        assert_eq!(span.dur_ns, 0, "{name} must not consume simulated time");
    }

    // every rpc.attempt sits under a rung, every rung under a ladder, and
    // the attempt annotations carry peer + outcome
    for attempt in trace.named("rpc.attempt") {
        let rung = trace.spans.iter().find(|s| s.id == attempt.parent).unwrap();
        assert_eq!(rung.name, "rpc.rung");
        let ladder = trace.spans.iter().find(|s| s.id == rung.parent).unwrap();
        assert_eq!(ladder.name, "rpc.ladder");
        assert!(attempt.args.iter().any(|(k, _)| *k == "peer"));
        assert!(attempt.args.iter().any(|(k, _)| *k == "outcome"));
    }

    // ≥95% of the simulated wall time is attributed to named spans (here
    // it is exact by construction: the root's children partition the
    // clock), and the per-node profile agrees with the same total
    assert!(trace.total_ns > 0, "the join must cost simulated time");
    assert!(trace.coverage() >= 0.95, "span coverage {:.3} below bar", trace.coverage());
    let profile = out.profile.expect("profile enabled");
    assert_eq!(
        profile.node_ns(0),
        trace.total_ns,
        "the root node's inclusive simulated time must equal the trace total"
    );
    let dump = profile.dump(&out.plan.rewritten);
    assert!(dump.lines().nth(1).is_some_and(|l| l.starts_with("   0: ")), "{dump}");
}

#[test]
fn cache_hits_are_marked_and_skip_the_compile_span() {
    // the miss path's front-end marker is `frontend.decompose`
    let mut f = federation();
    traced(&mut f);
    let cold = f.run(JOIN, Strategy::ByProjection).unwrap().trace.unwrap();
    assert_eq!(cold.named("frontend.cache-miss").count(), 1);
    assert_eq!(cold.named("frontend.decompose").count(), 1);
    assert_eq!(cold.named("frontend.cache-hit").count(), 0);

    let warm = f.run(JOIN, Strategy::ByProjection).unwrap().trace.unwrap();
    assert_eq!(warm.named("frontend.cache-hit").count(), 1);
    assert_eq!(warm.named("frontend.decompose").count(), 0, "warm run must not decompose");
}

#[test]
fn failover_rungs_carry_kind_rung_index_and_breaker_state() {
    quiet_injected_panics();
    let seed = 7u64;
    let mut f = federation();
    f.replicate_peer("emp", "emp2").unwrap();
    f.replicate_peer("org", "org2").unwrap();
    f.set_replica_seed(seed);
    traced(&mut f);
    // kill the rendezvous-elected primary for emp so the ladder walks to
    // the stand-in — the trace must show both rungs
    let hosts = f.replica_catalog().hosts_serving_peer("emp");
    let primary = rendezvous_order(seed, &hosts)[0].clone();
    f.set_fault_plan(Some(FaultPlan::uniform(seed, 0.95).with_target(&primary)));
    let out = f.run(JOIN, Strategy::ByProjection).unwrap();
    let trace = out.trace.unwrap();
    assert_well_formed(&trace);
    assert!(out.metrics.replica_failovers > 0, "fixture must exercise failover");

    let rungs: Vec<_> = trace.named("rpc.rung").collect();
    assert!(rungs.len() >= 2, "a failover needs at least two rungs");
    for rung in &rungs {
        let arg = |k: &str| {
            rung.args
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("rung missing {k:?} annotation"))
        };
        assert!(["primary", "probe", "hedge"].contains(&arg("kind")), "{:?}", rung.args);
        assert!(["closed", "open", "half-open"].contains(&arg("breaker")), "{:?}", rung.args);
        arg("peer");
        let _: u32 = arg("rung").parse().expect("rung index is numeric");
    }
    // at least one ladder dialed two different hosts across its rungs
    let walked = trace.named("rpc.ladder").any(|ladder| {
        let peers: Vec<_> = trace
            .children_of(ladder.id)
            .filter(|s| s.name == "rpc.rung")
            .flat_map(|r| r.args.iter().filter(|(k, _)| *k == "peer").map(|(_, v)| v.clone()))
            .collect();
        peers.windows(2).any(|w| w[0] != w[1])
    });
    assert!(walked, "no ladder ever walked off the attacked primary");
    // injected faults surface as attempt annotations
    assert!(
        trace.named("rpc.attempt").any(|a| a.args.iter().any(|(k, _)| *k == "fault")),
        "a 0.95-rate schedule must mark at least one attempt with its fault"
    );
}

#[test]
fn saturated_workloads_emit_queue_residency_spans() {
    // one worker + heavy offered load: arrivals queue, some shed, and the
    // trace shows residency (sched.queued) before every queued dispatch
    let mut f = federation();
    let mut config = WorkloadConfig::new(vec![TenantSpec::new(
        "a",
        1,
        4000.0,
        vec!["count(doc(\"xrpc://emp/people.xml\")//name)".to_string()],
    )]);
    config.duration = Duration::from_millis(60);
    config.workers = 1;
    config.queue_depth = 8;
    config.deadline = Duration::from_millis(500);
    let (report, trace) = WorkloadEngine::run_traced(&mut f, &config).unwrap();
    assert_well_formed(&trace);
    assert!(report.shed > 0, "fixture must saturate admission control: {report:?}");

    let queued: Vec<_> = trace.named("sched.queued").collect();
    assert!(!queued.is_empty(), "saturation must queue work");
    assert!(queued.iter().any(|s| s.dur_ns > 0), "no span shows actual queue residency");
    assert_eq!(trace.named("sched.shed").count() as u64, report.shed);
    assert_eq!(
        trace.named("sched.run").count() as u64,
        report.completed + report.errored,
        "every dispatched query gets a sched.run span"
    );
    for s in trace.named("sched.shed") {
        assert!(s.args.iter().any(|(k, _)| *k == "retry_after_ms"));
    }
    // the trace-level histogram agrees with the report's exact percentiles
    let hist = trace.histogram("sched.run");
    assert_eq!(hist.count(), report.completed + report.errored);
}

#[test]
fn deadline_cancellations_appear_as_cancel_spans() {
    let mut f = federation();
    let mut config = WorkloadConfig::new(vec![TenantSpec::new(
        "a",
        1,
        4000.0,
        vec!["count(doc(\"xrpc://emp/people.xml\")//name)".to_string()],
    )]);
    config.duration = Duration::from_millis(50);
    config.workers = 1;
    config.deadline = Duration::from_micros(1500);
    config.queue_depth = 32;
    let (report, trace) = WorkloadEngine::run_traced(&mut f, &config).unwrap();
    assert!(report.deadline_cancelled > 0, "{report:?}");
    assert_eq!(trace.named("sched.cancelled").count() as u64, report.deadline_cancelled);
    for s in trace.named("sched.cancelled") {
        assert!(s.args.iter().any(|(k, v)| *k == "error" && v == "xrpc:timeout"));
    }
}

#[test]
fn traces_of_failed_runs_are_recoverable_and_annotated() {
    quiet_injected_panics();
    // a guaranteed-fatal schedule: every attempt against every peer dies,
    // and data-shipping degradation is off the table for execute-at bodies
    // with no replicas — drive until one seed actually errors
    let mut seen_error = false;
    for seed in 0..20u64 {
        let mut f = federation();
        traced(&mut f);
        f.set_fault_plan(Some(FaultPlan::uniform(seed, 1.0)));
        match f.run(JOIN, Strategy::ByProjection) {
            Ok(_) => {
                // degradation rescued it; the RunOutcome path was already
                // covered above
            }
            Err(e) => {
                assert!(e.code.is_some());
                let trace = f.take_trace().expect("failed run must leave its trace behind");
                assert!(
                    trace.root().args.iter().any(|(k, _)| *k == "error"),
                    "root span must carry the error annotation"
                );
                assert!(f.take_trace().is_none(), "take semantics: second call is empty");
                seen_error = true;
                break;
            }
        }
    }
    assert!(seen_error, "no all-faults schedule errored — fixture lost its teeth");
}
