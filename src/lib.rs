//! # xqd — distributed execution of full-fledged XQuery
//!
//! A Rust reproduction of *"Efficient Distribution of Full-Fledged
//! XQuery"* (Ying Zhang, Nan Tang, Peter Boncz — ICDE 2009): automatic
//! decomposition of arbitrary XQuery over documents stored at remote peers
//! into function-shipped subqueries, with three message-passing semantics —
//! **pass-by-value**, **pass-by-fragment** and **pass-by-projection** — that
//! progressively repair the node-identity / document-order problems of
//! copying XML across the network.
//!
//! This crate is the umbrella: it re-exports the workspace members and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! | crate | contents |
//! |---|---|
//! | [`xml`] | arena XML store, parser, serializer, axes, runtime projection (Algorithm 1) |
//! | [`xquery`] | XCore lexer/parser/normalizer/evaluator with XRPC hooks |
//! | [`core`] | d-graph, insertion conditions, let-motion, code motion, path analysis, the decomposer |
//! | [`xrpc`] | message codecs, simulated peers, Bulk RPC, the distributed executor |
//! | [`xmark`] | XMark-shaped synthetic data generator |
//!
//! ## Quickstart
//!
//! ```
//! use xqd::{Federation, NetworkModel, Strategy};
//!
//! let mut fed = Federation::new(NetworkModel::lan());
//! fed.load_document("org", "depts.xml",
//!     "<depts><dept name=\"sales\"/></depts>").unwrap();
//! let out = fed.run(
//!     "doc(\"xrpc://org/depts.xml\")//dept/@name",
//!     Strategy::ByProjection,
//! ).unwrap();
//! assert_eq!(out.result, vec!["attr:name=sales"]);
//! ```

pub use xqd_core as core;
pub use xqd_xmark as xmark;
pub use xqd_xml as xml;
pub use xqd_xquery as xquery;
pub use xqd_xrpc as xrpc;

pub use xqd_core::{
    decompose, decompose_with, rendezvous_order, DecomposeOptions, Decomposition, ReplicaCatalog,
    Semantics, SemijoinEdge, Strategy,
};
pub use xqd_xquery::{
    eval_query, parse_query, EvalError, ExprProfile, Item, ProfileHook, QueryModule, Sequence,
    StaticContext,
};
pub use xqd_xrpc::{
    BreakerPolicy, BreakerState, DrainReport, ExecOptions, Fault, FaultPlan, Federation,
    Histogram, Metrics, MetricsSnapshot, NetworkModel, OutcomeKind, PeerServer, PreparedQuery,
    QueryOutcome, RetryPolicy, RunOutcome, Scoreboard, ServerConfig, SocketFederation, Span,
    SpanBuilder, TcpTransport, TenantReport, TenantSpec, Trace, Tracer, Transport,
    WorkloadConfig, WorkloadEngine, WorkloadReport, XrpcError, METRIC_NAMES, ROOT_SPAN,
};
