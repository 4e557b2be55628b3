//! Plan-cache suite — the coordinator's LRU cache of decomposed queries:
//!
//! > Replaying a cached decomposition is **bit-identical** to running the
//! > whole front end again — same results, same wire bytes — for every
//! > strategy, with indexes on or off, and under seeded fault schedules.
//!
//! Plus the cache contract itself: hit/miss counters are exact, eviction
//! follows recency, and a plan is never shared across distinct static
//! contexts or catalog generations.

use xqd::{
    ExecOptions, FaultPlan, Federation, MetricsSnapshot, NetworkModel, StaticContext, Strategy,
};

const DOC_A: &str = "<people>\
    <person><name>Ann</name><age>31</age><tutor>Bo</tutor></person>\
    <person><name>Bo</name><age>19</age><tutor>Ann</tutor></person>\
    <person><name>Cy</name><age>25</age><tutor>Ann</tutor></person>\
    </people>";
const DOC_B: &str = "<enrolls>\
    <exam id=\"Ann\"><grade>7</grade></exam>\
    <exam id=\"Cy\"><grade>9</grade></exam>\
    <exam id=\"Zed\"><grade>4</grade></exam>\
    </enrolls>";

/// Fixture queries spanning the evaluator: plain remote paths, filters
/// with constant arithmetic, cross-peer joins, scatter over two peers,
/// node-set operators, reverse axes and aggregation.
const QUERIES: &[&str] = &[
    "count(doc(\"xrpc://peer1/a.xml\")//person)",
    "doc(\"xrpc://peer1/a.xml\")//person[age < 10 + 20]/name",
    "for $p in doc(\"xrpc://peer1/a.xml\")//person \
     where $p/tutor = doc(\"xrpc://peer1/a.xml\")//person/name \
     return $p/name/text()",
    "for $e in doc(\"xrpc://peer2/b.xml\")//exam \
     where $e/@id = doc(\"xrpc://peer1/a.xml\")//person/name \
     return $e/grade",
    "count(doc(\"xrpc://peer1/a.xml\")//person) + \
     count(doc(\"xrpc://peer2/b.xml\")//exam)",
    "count(doc(\"xrpc://peer1/a.xml\")//name union doc(\"xrpc://peer1/a.xml\")//tutor)",
    "count((doc(\"xrpc://peer1/a.xml\")//age)/parent::person)",
    "sum(for $g in doc(\"xrpc://peer2/b.xml\")//grade return $g)",
];

fn federation() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("peer1", "a.xml", DOC_A).unwrap();
    f.load_document("peer2", "b.xml", DOC_B).unwrap();
    f
}

/// One run of `query` on a fresh federation. `warm` primes the plan cache
/// with an identical run first, so the measured run is a cache hit; cold
/// runs disable the cache (`plan_cache_size: 0`) and pay the whole front
/// end.
fn run_mode(
    query: &str,
    strategy: Strategy,
    warm: bool,
    use_indexes: bool,
    fault: Option<FaultPlan>,
) -> (Result<Vec<String>, String>, MetricsSnapshot) {
    let mut f = federation();
    let plan_cache_size = if warm { ExecOptions::default().plan_cache_size } else { 0 };
    f.set_exec_options(ExecOptions { plan_cache_size, use_indexes, fault, ..ExecOptions::default() });
    if warm {
        let _ = f.run(query, strategy);
    }
    match f.run(query, strategy) {
        Ok(out) => (Ok(out.result), out.metrics.named()),
        Err(e) => {
            let code = e
                .code
                .unwrap_or_else(|| panic!("{strategy:?}: untyped error {:?}", e.message));
            (Err(code), f.metrics().named())
        }
    }
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

/// A warm-cache run is bit-identical to an uncached one — results AND
/// wire bytes (message_bytes, document_bytes, transfers, ... — every
/// counter but the plan-cache pair, which legitimately differs) — across
/// all four strategies with indexes on and off.
#[test]
fn warm_cache_matches_uncached_bit_for_bit() {
    for query in QUERIES {
        for strategy in Strategy::ALL {
            for use_indexes in [true, false] {
                let (res_u, ctr_u) = run_mode(query, strategy, false, use_indexes, None);
                let (res_w, ctr_w) = run_mode(query, strategy, true, use_indexes, None);
                assert_eq!(
                    res_w, res_u,
                    "{strategy:?} indexes={use_indexes}: warm result diverged on {query}"
                );
                assert_eq!(
                    ctr_w.wire(),
                    ctr_u.wire(),
                    "{strategy:?} indexes={use_indexes}: wire counters diverged on {query}"
                );
                // the pair itself: the uncached run misses, the warm one hits
                assert_eq!(ctr_u.plan_cache(), [0, 1], "uncached run miscounted on {query}");
                assert_eq!(ctr_w.plan_cache(), [1, 0], "warm run miscounted on {query}");
                // the join counters must agree bit-for-bit too
                assert_eq!(
                    ctr_w.joins_and_scheduler(),
                    ctr_u.joins_and_scheduler(),
                    "{strategy:?} indexes={use_indexes}: join counters diverged on {query}"
                );
            }
        }
    }
}

/// A cached decomposition prints its remote call bodies byte-identically,
/// so a seeded fault schedule perturbs a warm and an uncached run at the
/// same offsets: they agree on the outcome (same results or the same typed
/// error) and on every wire counter, fault by fault.
#[test]
fn warm_cache_matches_uncached_under_chaos() {
    quiet_injected_panics();
    let scatter = QUERIES[4];
    let single = QUERIES[2];
    for seed in 0..12u64 {
        for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
            for query in [single, scatter] {
                for use_indexes in [true, false] {
                    let plan = Some(FaultPlan::uniform(seed, 0.3));
                    let (res_u, ctr_u) = run_mode(query, strategy, false, use_indexes, plan);
                    let (res_w, ctr_w) = run_mode(query, strategy, true, use_indexes, plan);
                    assert_eq!(
                        res_w, res_u,
                        "seed {seed} {strategy:?} indexes={use_indexes}: outcome diverged on {query}"
                    );
                    assert_eq!(
                        ctr_w.wire(),
                        ctr_u.wire(),
                        "seed {seed} {strategy:?} indexes={use_indexes}: counters diverged on {query}"
                    );
                }
            }
        }
    }
}

/// Exact hit/miss accounting: a fresh federation misses then hits.
#[test]
fn plan_cache_counts_hits_and_misses_exactly() {
    let mut f = federation();
    let q = QUERIES[0];

    let first = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(first.metrics.plan_cache_misses, 1);
    assert_eq!(first.metrics.plan_cache_hits, 0);
    assert_eq!(f.plan_cache_len(), 1);

    let second = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(second.metrics.plan_cache_hits, 1);
    assert_eq!(second.metrics.plan_cache_misses, 0);
    assert_eq!(second.result, first.result);

    // a different strategy is a different key, not a stale hit
    let other = f.run(q, Strategy::ByFragment).unwrap();
    assert_eq!(other.metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 2);

    f.clear_plan_cache();
    assert_eq!(f.plan_cache_len(), 0);
    let again = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(again.metrics.plan_cache_misses, 1);
}

/// LRU eviction follows recency: with capacity 3, touching Q1 before
/// inserting Q4 evicts Q2 (the least recently used), not Q1.
#[test]
fn plan_cache_evicts_least_recently_used() {
    let mut f = federation();
    f.set_exec_options(ExecOptions { plan_cache_size: 3, ..ExecOptions::default() });
    let [q1, q2, q3, q4] = [QUERIES[0], QUERIES[1], QUERIES[5], QUERIES[7]];

    for q in [q1, q2, q3] {
        assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    }
    assert_eq!(f.plan_cache_len(), 3);

    // touch Q1 so Q2 becomes the least recently used entry
    assert_eq!(f.run(q1, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);

    // inserting Q4 at capacity evicts exactly one entry
    assert_eq!(f.run(q4, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 3);

    // Q2 was the victim...
    assert_eq!(f.run(q2, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    // ...and the touched Q1 survived both evictions
    assert_eq!(f.run(q1, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);
}

/// Distinct static contexts never share a plan: the fingerprint is part of
/// the cache key, so changing `base_uri` misses and changing it back hits
/// the original entry again.
#[test]
fn plan_cache_keys_on_static_context() {
    let mut f = federation();
    let q = QUERIES[0];

    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);

    f.set_static_context(StaticContext {
        base_uri: "xrpc://coordinator/".to_string(),
        ..StaticContext::default()
    });
    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 2);

    f.set_static_context(StaticContext::default());
    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);
}

/// Topology changes invalidate cached replica routes: loading a document
/// bumps the catalog generation, so the next run re-resolves instead of
/// reusing a plan whose routes predate the new peer.
#[test]
fn plan_cache_invalidates_on_catalog_change() {
    let mut f = federation();
    let q = QUERIES[0];

    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);

    f.load_document("peer3", "c.xml", "<c/>").unwrap();
    let after = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(after.metrics.plan_cache_misses, 1);
    assert_eq!(after.metrics.plan_cache_hits, 0);
}

/// Capacity zero disables the cache outright — every run is a miss and the
/// cache stays empty — but every run still decomposes and answers.
#[test]
fn zero_capacity_disables_caching() {
    let mut f = federation();
    f.set_exec_options(ExecOptions { plan_cache_size: 0, ..ExecOptions::default() });
    let q = QUERIES[0];

    let baseline = run_mode(q, Strategy::ByValue, true, true, None).0.unwrap();
    for _ in 0..3 {
        let out = f.run(q, Strategy::ByValue).unwrap();
        assert_eq!(out.metrics.plan_cache_misses, 1);
        assert_eq!(out.metrics.plan_cache_hits, 0);
        assert_eq!(out.result, baseline);
    }
    assert_eq!(f.plan_cache_len(), 0);
}
