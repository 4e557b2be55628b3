//! Socket-mode wall-clock benchmark of the xqd federation.
//!
//! One process launches real `xqd serve` daemons (started on their READY
//! line), serves them XMark documents generated from `--seed`, and drives
//! `SocketFederation` over `TcpTransport` in a closed loop: the code path
//! of `xqd run --connect`. Every answer is compared byte for byte with an
//! in-process simulated `Federation` over the same documents; the
//! simulated clock is never read.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` traces every
//! other block of the query sequence and prints the per-layer breakdown. The last stdout line is the result object; the line before
//! it holds the run's provenance. See `sockbench/README.md`.

mod daemon;
mod spans;
mod tap;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqd::xmark::{auctions_document, people_document, XmarkConfig};
use xqd::xml::{parse_document, Store};
use xqd::xrpc::{decode_doc_request, decode_doc_response, decode_response, SimTransport};
use xqd::{
    decompose_with, parse_query, DecomposeOptions, ExecOptions, Federation, NetworkModel,
    SocketFederation, Strategy, Transport,
};
use xqd_bench::{JOIN_QUERY, PLANS_QUERIES};

use daemon::Daemon;
use spans::Span;
use tap::{ns_since, Exchange, Tap};

const USAGE: &str = "usage: sockbench --workload NAME --seed N --seconds S --trace 0|1 \
--xqd PATH [--work-dir DIR] [--small] [--git-rev REV] [--source-digest HEX]";

/// The whole run, set-up and drain included, must end well inside the
/// 180 s a benchmark run is allowed; past this the run is abandoned.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Document sets per run. Each set is generated from its own seed drawn
/// from `--seed`, served by its own daemons and timed over its own stretch
/// of the query sequence, so no one draw of the documents decides a figure.
const SETS: usize = 15;

/// Length of a steal window, in seconds at the workload's nominal rate.
/// The client reads the machine's steal time at every window boundary;
/// timings come from the windows with the least steal (see `run`).
const WINDOW_S: f64 = 0.5;

/// Warm-up runs of every template per set, outside the timed window.
const WARMUP: usize = 2;

/// A traced client replays a query only while its replays so far took
/// less than 1/REPLAY_PACE of its time, which spreads the replays evenly
/// over the run and bounds what they add to it.
const REPLAY_PACE: u64 = 6;

/// Budget of one replayed peer exchange.
const REPLAY_BUDGET: Duration = Duration::from_secs(10);

/// The new template of `join-large`: one scatter round holding two heavy
/// filtered aggregates, one per peer.
const FILTER_SCATTER: &str = r#"
(count(for $p in doc("xrpc://peer1/xmk.xml")/descendant::person
       return if ($p/descendant::age < 40) then $p else ()),
 count(for $a in doc("xrpc://peer2/xmk.auctions.xml")/descendant::open_auction
       return if ($a/child::quantity < 3) then $a else ()))
"#;

/// Every template any workload uses, in the order the per-template
/// metrics are printed.
const TEMPLATES: &[&str] = &[
    "person-count",
    "young-person-names",
    "two-peer-scatter",
    "semijoin-authors",
    "const-heavy-filter",
    "seller-join",
    "two-peer-filter-scatter",
];

fn template_query(name: &str) -> &'static str {
    match name {
        "seller-join" => JOIN_QUERY,
        "two-peer-filter-scatter" => FILTER_SCATTER,
        _ => PLANS_QUERIES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, q)| *q)
            .expect("every template name is a PLANS_QUERIES entry or one of the two above"),
    }
}

#[derive(Clone, Copy)]
enum Doc {
    People,
    Auctions,
}

/// One workload. Why each exists is recorded in `BENCHMARK.json`.
struct Workload {
    name: &'static str,
    /// One daemon per entry: (peer, document name, contents).
    daemons: &'static [(&'static str, &'static str, Doc)],
    doc_bytes: usize,
    strategy: Strategy,
    templates: &'static [&'static str],
    /// Queries per second at the parent commit on a 2-core x86-64 host.
    /// `--seconds` times this fixes the length of the run's query
    /// sequence, so every commit runs exactly the same queries.
    nominal_qps: f64,
}

const TWO_PEERS: &[(&str, &str, Doc)] = &[
    ("peer1", "xmk.xml", Doc::People),
    ("peer2", "xmk.auctions.xml", Doc::Auctions),
];

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mix-small",
        daemons: TWO_PEERS,
        doc_bytes: 64 << 10,
        strategy: Strategy::ByProjection,
        templates: &[
            "person-count",
            "young-person-names",
            "two-peer-scatter",
            "semijoin-authors",
            "const-heavy-filter",
            "seller-join",
        ],
        nominal_qps: 1000.0,
    },
    Workload {
        name: "join-large",
        daemons: TWO_PEERS,
        doc_bytes: 1 << 20,
        strategy: Strategy::ByProjection,
        templates: &["semijoin-authors", "seller-join", "two-peer-filter-scatter"],
        nominal_qps: 24.0,
    },
    Workload {
        name: "ship-value",
        daemons: &[("peer1", "xmk.xml", Doc::People)],
        doc_bytes: 256 << 10,
        strategy: Strategy::ByValue,
        templates: &["person-count", "young-person-names", "const-heavy-filter"],
        nominal_qps: 90.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    xqd: PathBuf,
    work_dir: PathBuf,
    small: bool,
    git_rev: String,
    source_digest: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut xqd = None;
        let mut work_dir = PathBuf::from(".bench_work");
        let mut small = false;
        let (mut git_rev, mut source_digest) = ("unknown".to_string(), "unknown".to_string());
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--small" {
                small = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(bad(&"must be in (0, 60]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                "--xqd" => xqd = Some(PathBuf::from(value)),
                "--work-dir" => work_dir = PathBuf::from(value),
                "--git-rev" => git_rev = value.clone(),
                "--source-digest" => source_digest = value.clone(),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            xqd: xqd.ok_or("--xqd is required")?,
            work_dir,
            small,
            git_rev,
            source_digest,
        })
    }
}

/// SplitMix64: the seeded stream behind the query order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The run's query sequence as template indices: back-to-back blocks that
/// each hold every template once in a seeded order, so the mix is uniform
/// and exact at every block boundary.
fn query_sequence(seed: u64, templates: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ 0x0005_0c4b_e4c5_e9d0);
    let mut seq = Vec::with_capacity(n + templates);
    while seq.len() < n {
        let mut block: Vec<usize> = (0..templates).collect();
        for i in (1..block.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
        seq.extend(block);
    }
    seq.truncate(n);
    seq
}

/// The documents of one set-up: (peer, document name, XML).
fn generate_documents(
    w: &Workload,
    doc_bytes: usize,
    seed: u64,
) -> Vec<(&'static str, &'static str, String)> {
    let cfg = XmarkConfig::with_target_bytes(doc_bytes, seed);
    w.daemons
        .iter()
        .map(|&(peer, doc, kind)| {
            let xml = match kind {
                Doc::People => people_document(&cfg),
                Doc::Auctions => auctions_document(&cfg),
            };
            (peer, doc, xml)
        })
        .collect()
}

fn spawn_daemons(
    xqd: &Path,
    dir: &Path,
    docs: &[(&'static str, &'static str, String)],
) -> Result<Vec<Daemon>, String> {
    let mut daemons = Vec::new();
    for (peer, doc, xml) in docs {
        let file = dir.join(format!("{peer}-{doc}"));
        std::fs::write(&file, xml).map_err(|e| format!("writing {}: {e}", file.display()))?;
        let log = dir.join(format!("{peer}.log"));
        daemons.push(Daemon::spawn(xqd, peer, &[(doc, &file)], &log)?);
    }
    Ok(daemons)
}

/// An in-process federation over the same documents as the daemons.
fn load_federation(docs: &[(&'static str, &'static str, String)]) -> Result<Federation, String> {
    let mut fed = Federation::new(NetworkModel::lan());
    for (peer, doc, xml) in docs {
        fed.load_document(peer, doc, xml)
            .map_err(|e| format!("loading {peer}/{doc} in process: {e}"))?;
    }
    Ok(fed)
}

/// A traced client's in-process twin of the daemons, for replaying the
/// envelopes its queries exchanged.
struct Replayer {
    fed: Federation,
    sim: SimTransport,
}

/// One closed-loop caller: its own coordinator, tap and connections.
struct Client {
    fed: SocketFederation,
    tap: Arc<Tap>,
    replayer: Option<Replayer>,
}

impl Client {
    fn connect(
        epoch: Instant,
        daemons: &[Daemon],
        replay_docs: Option<&[(&'static str, &'static str, String)]>,
    ) -> Result<Client, String> {
        let tap = Arc::new(Tap::new(epoch));
        let mut fed = SocketFederation::new(Arc::clone(&tap) as Arc<dyn Transport>);
        for d in daemons {
            tap.tcp.register(&d.name, &d.addr);
            fed.set_peer_address(&d.name, &d.addr);
        }
        let replayer = match replay_docs {
            Some(docs) => {
                let fed = load_federation(docs)?;
                let sim = fed.transport();
                Some(Replayer { fed, sim })
            }
            None => None,
        };
        Ok(Client { fed, tap, replayer })
    }

    /// Runs template `tmpl`; `Some` holds the run's (retries, failovers)
    /// when the answer matched the oracle.
    fn query(&mut self, w: &Workload, tmpl: usize, expected: &[String]) -> Option<(u64, u64)> {
        let name = w.templates[tmpl];
        match self.fed.run(template_query(name), w.strategy) {
            Ok(out) if out.result == expected => Some((out.retries, out.failovers)),
            Ok(out) => {
                eprintln!(
                    "sockbench: {name}: wrong answer ({} items, oracle {})",
                    out.result.len(),
                    expected.len()
                );
                None
            }
            Err(e) => {
                eprintln!("sockbench: {name}: {e}");
                None
            }
        }
    }

    /// Runs the sequence to its end, one query after the other, and
    /// closes a steal window every `run.window` queries. In a traced phase
    /// every other block of the sequence is traced, so traced and untraced
    /// queries interleave under the same machine load, and a replay follows
    /// its query at once for the same reason.
    fn drive(&mut self, run: &PhaseCtx<'_>) -> Phase {
        let mut log = Phase::default();
        let started = Instant::now();
        let mut replay_ns = 0;
        let mut opened = None;
        for (i, &tmpl) in run.seq.iter().enumerate() {
            if i % run.window == 0 {
                let mark = Mark::now(log.samples.len());
                if let Some(open) = opened.replace(mark) {
                    log.windows.push(Window::between(open, mark));
                }
            }
            let traced = run.traced && (i / run.w.templates.len()) % 2 == 1;
            let id = run.base + i;
            self.tap.set_tracing(traced);
            let start = Instant::now();
            let outcome = self.query(run.w, tmpl, &run.expected[tmpl]);
            let end = Instant::now();
            log.samples.push(Sample {
                tmpl,
                lat_ns: ns_since(start, end),
                ok: outcome.is_some(),
                traced,
            });
            if !traced {
                continue;
            }
            let (retries, failovers) = outcome.unwrap_or((0, 0));
            let q = TracedQuery {
                id,
                tmpl,
                start_ns: ns_since(run.epoch, start),
                end_ns: ns_since(run.epoch, end),
                retries,
                failovers,
                exchanges: self.tap.take_log(),
            };
            let root = log.spans.len();
            log.spans.push(Span {
                name: "query",
                query: id,
                parent: None,
                start_ns: q.start_ns,
                end_ns: q.end_ns,
            });
            let intervals = q.intervals();
            for &(start_ns, end_ns) in &intervals {
                log.spans.push(Span {
                    name: "xchg",
                    query: id,
                    parent: Some(root),
                    start_ns,
                    end_ns,
                });
            }
            log.overlaps.extend(spans::overlap(&intervals));
            let Some(r) = &self.replayer else { continue };
            if outcome.is_some() && replay_ns * REPLAY_PACE < ns_since(started, end) {
                let t = Instant::now();
                match replay(&q, run.w, r, run.epoch, root, &mut log.spans) {
                    Ok(l) => log.layers.push(l),
                    Err(e) => log.errors.push(e),
                }
                replay_ns += ns_since(t, Instant::now());
            }
        }
        if let Some(open) = opened {
            log.windows
                .push(Window::between(open, Mark::now(log.samples.len())));
        }
        self.tap.set_tracing(false);
        log
    }
}

/// A window boundary: the samples recorded so far, the time, `cpu_ticks`.
#[derive(Clone, Copy)]
struct Mark {
    sample: usize,
    at: Instant,
    ticks: (u64, u64),
}

impl Mark {
    fn now(sample: usize) -> Mark {
        Mark {
            sample,
            at: Instant::now(),
            ticks: cpu_ticks(),
        }
    }
}

/// Consecutive queries of one set and the machine's steal while they ran.
struct Window {
    samples: std::ops::Range<usize>,
    dur_ns: u64,
    /// (steal, total) `cpu_ticks` over the window.
    ticks: (u64, u64),
}

impl Window {
    fn between(open: Mark, close: Mark) -> Window {
        Window {
            samples: open.sample..close.sample,
            dur_ns: ns_since(open.at, close.at),
            ticks: (close.ticks.0 - open.ticks.0, close.ticks.1 - open.ticks.1),
        }
    }

    fn steal(&self) -> f64 {
        self.ticks.0 as f64 / self.ticks.1.max(1) as f64
    }
}

struct Sample {
    tmpl: usize,
    lat_ns: u64,
    ok: bool,
    traced: bool,
}

struct TracedQuery {
    id: usize,
    tmpl: usize,
    start_ns: u64,
    end_ns: u64,
    retries: u64,
    failovers: u64,
    exchanges: Vec<Exchange>,
}

impl TracedQuery {
    fn intervals(&self) -> Vec<(u64, u64)> {
        self.exchanges
            .iter()
            .map(|x| (x.start_ns, x.end_ns))
            .collect()
    }
}

struct PhaseCtx<'a> {
    w: &'a Workload,
    seq: &'a [usize],
    /// Query id of `seq[0]`.
    base: usize,
    /// Queries per steal window.
    window: usize,
    expected: &'a [Vec<String>],
    traced: bool,
    epoch: Instant,
}

/// What the client recorded over one pass of the sequence.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    windows: Vec<Window>,
    wall: Duration,
    spans: Vec<Span>,
    layers: Vec<Layers>,
    overlaps: Vec<f64>,
    errors: Vec<String>,
}

impl Phase {
    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    fn ok_latencies_ms(&self, tmpl: Option<usize>, traced: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && tmpl.is_none_or(|t| t == s.tmpl))
            .filter(|s| traced.is_none_or(|t| t == s.traced))
            .map(|s| s.lat_ns as f64 / 1e6)
            .collect()
    }

    fn mean_latency_ns(&self, traced: bool) -> f64 {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.lat_ns as f64)
            .collect();
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    }

    /// Appends another set's record; span parents and window samples are
    /// re-based.
    fn absorb(&mut self, other: Phase) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        let base = self.samples.len();
        self.windows.extend(other.windows.into_iter().map(|mut x| {
            x.samples = x.samples.start + base..x.samples.end + base;
            x
        }));
        self.samples.extend(other.samples);
        self.layers.extend(other.layers);
        self.overlaps.extend(other.overlaps);
        self.errors.extend(other.errors);
    }
}

/// Runs `seq` to the end on `client`.
fn run_phase(client: &mut Client, ctx: &PhaseCtx<'_>) -> Phase {
    let t0 = Instant::now();
    let mut phase = client.drive(ctx);
    phase.wall = t0.elapsed();
    phase
}

/// Nearest-rank percentile of `values` (`p` in (0, 1]).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Per-query layer times of one replayed traced query, in nanoseconds.
struct Layers {
    wall: u64,
    parse: u64,
    decompose: u64,
    coord_self: u64,
    coord_shred: u64,
    xchg_sum: u64,
    xchg_union: u64,
    xchg_count: u64,
    req_bytes: u64,
    reply_bytes: u64,
    peer_service: u64,
    peer_shred: u64,
    peer_exec: u64,
    peer_serialize: u64,
    retries: u64,
    failovers: u64,
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("duration fits in u64 ns")
}

/// Splits one traced query across the layers. The exchange spans come
/// from the tap; the front end, reply decoding and peer service are timed
/// by replaying the query text and the captured envelopes through the
/// public functions that `SocketFederation::run` and `PeerServer` call.
/// The replay spans go into `spans` under the query's span `root`.
fn replay(
    q: &TracedQuery,
    w: &Workload,
    r: &Replayer,
    epoch: Instant,
    root: usize,
    spans: &mut Vec<Span>,
) -> Result<Layers, String> {
    let intervals = q.intervals();
    let timed =
        |name: &'static str, spans: &mut Vec<Span>, f: &mut dyn FnMut() -> Result<(), String>| {
            let start = Instant::now();
            f()?;
            let end = Instant::now();
            spans.push(Span {
                name,
                query: q.id,
                parent: Some(root),
                start_ns: ns_since(epoch, start),
                end_ns: ns_since(epoch, end),
            });
            Ok::<u64, String>(ns_since(start, end))
        };

    let text = template_query(w.templates[q.tmpl]);
    let mut module = None;
    let parse = timed("front.parse", spans, &mut || {
        module = Some(parse_query(text).map_err(|e| format!("replayed parse: {e}"))?);
        Ok(())
    })?;
    let module = module.expect("parse ran");
    let dopts = DecomposeOptions {
        semijoin: ExecOptions::default().semijoin,
        ..Default::default()
    };
    let decompose = timed("front.decompose", spans, &mut || {
        decompose_with(&module, w.strategy, dopts)
            .map(drop)
            .map_err(|e| format!("replayed decompose: {e}"))
    })?;

    let mut store = Store::new();
    let mut coord_shred = 0;
    let (mut peer_service, mut peer_shred, mut peer_exec, mut peer_serialize) = (0, 0, 0, 0);
    // attempts that got no reply count in the exchange spans only
    for (x, (request, reply)) in q
        .exchanges
        .iter()
        .filter_map(|x| Some((x, x.payload.as_ref()?)))
    {
        // a doc-request reply is the data-shipping path: the coordinator
        // unwraps the document and shreds it into its store
        let doc_uri = decode_doc_request(request);
        coord_shred += timed("coord.shred", spans, &mut || match &doc_uri {
            Some(uri) => {
                let xml =
                    decode_doc_response(reply).ok_or("replayed decode: not a doc envelope")?;
                parse_document(&mut store, &xml, Some(uri))
                    .map(drop)
                    .map_err(|e| format!("replayed doc shred: {e}"))
            }
            None => decode_response(&mut store, reply)
                .map(drop)
                .map_err(|e| format!("replayed decode: {e}")),
        })?;
        let before = r.fed.metrics();
        let service = timed("peer.service", spans, &mut || {
            r.sim
                .exchange(&x.peer, request, REPLAY_BUDGET)
                .map(drop)
                .map_err(|e| format!("replayed exchange: {e}"))
        })?;
        let after = r.fed.metrics();
        peer_service += service;
        if doc_uri.is_some() {
            // the Metrics timers do not cover the doc path, whose only work
            // is serializing the document into the reply
            peer_serialize += service;
        } else {
            peer_shred += dur_ns(after.shred - before.shred);
            peer_exec += dur_ns(after.remote_exec - before.remote_exec);
            peer_serialize += dur_ns(after.serialize - before.serialize);
        }
    }
    Ok(Layers {
        wall: q.end_ns - q.start_ns,
        parse,
        decompose,
        coord_self: spans::self_time((q.start_ns, q.end_ns), &intervals),
        coord_shred,
        xchg_sum: intervals.iter().map(|&(s, e)| e - s).sum(),
        xchg_union: spans::union_len(&intervals, 0, u64::MAX),
        xchg_count: q.exchanges.len() as u64,
        req_bytes: q.exchanges.iter().map(|x| x.req_bytes).sum(),
        reply_bytes: q.exchanges.iter().map(|x| x.reply_bytes).sum(),
        peer_service,
        peer_shred,
        peer_exec,
        peer_serialize,
        retries: q.retries,
        failovers: q.failovers,
    })
}

/// One printed metric: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn rss_kb(daemons: &[Daemon]) -> Vec<u64> {
    daemons.iter().map(|d| d.rss_kb().unwrap_or(0)).collect()
}

/// The machine's (steal, total) CPU time from `/proc/stat`, in ticks.
/// Steal is time the host gave the virtual CPUs' share to someone else;
/// every timing of this benchmark grows with it.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    match ticks.get(..8) {
        Some(t) => (t[7], t.iter().sum()),
        None => (0, 0),
    }
}

struct Report {
    /// Share of the machine's CPU time stolen by the host while queries
    /// were timed.
    steal_frac: f64,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// (metric or group, samples behind it)
    samples: Vec<(String, usize)>,
    problems: Vec<String>,
    table: String,
}

/// What one document set's stretch of the run recorded.
struct SetRun {
    setup_s: f64,
    phase: Phase,
    wire_bytes: u64,
    exchanges: u64,
    /// Every daemon's RSS in kB when the stretch ended.
    rss_kb: Vec<u64>,
    /// Growth of the daemons' summed RSS over the stretch, in kB.
    rss_growth_kb: f64,
    /// `cpu_ticks` spent over the stretch: (steal, total).
    ticks: (u64, u64),
}

/// Runs the stretch `part` of the query sequence (starting at query id
/// `base`) against daemons serving documents generated from `doc_seed`:
/// set-up, oracle, warm-up, the timed pass, drain. Problems that do not
/// stop the stretch (failed warm-ups, bad drains) go to `problems`.
#[allow(clippy::too_many_arguments)]
fn run_set(
    args: &Args,
    doc_bytes: usize,
    doc_seed: u64,
    dir: &Path,
    part: &[usize],
    base: usize,
    epoch: Instant,
    problems: &mut Vec<String>,
) -> Result<SetRun, String> {
    let w = args.workload;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    // set-up: document generation plus daemon spawn until every daemon
    // is READY
    let t0 = Instant::now();
    let docs = generate_documents(w, doc_bytes, doc_seed);
    let daemons = spawn_daemons(&args.xqd, dir, &docs)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut oracle = load_federation(&docs)?;
    let expected = w
        .templates
        .iter()
        .map(|t| oracle.run(template_query(t), w.strategy).map(|o| o.result))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("oracle run: {e}"))?;

    let replay_docs = args.trace.then_some(docs.as_slice());
    let mut client = Client::connect(epoch, &daemons, replay_docs)?;
    let mut warmup_failed = 0;
    for _ in 0..if args.small { 1 } else { WARMUP } {
        for (t, exp) in expected.iter().enumerate() {
            warmup_failed += usize::from(client.query(w, t, exp).is_none());
        }
    }
    if warmup_failed > 0 {
        problems.push(format!("{warmup_failed} warm-up queries failed"));
    }

    let tn = w.templates.len();
    let ctx = PhaseCtx {
        w,
        seq: part,
        base,
        window: tn * ((WINDOW_S * w.nominal_qps / tn as f64).round() as usize).max(1),
        expected: &expected,
        traced: args.trace,
        epoch,
    };
    let (x0, bytes0) = client.tap.counts();
    let rss0 = rss_kb(&daemons).iter().sum::<u64>();
    let ticks0 = cpu_ticks();
    let phase = run_phase(&mut client, &ctx);
    let ticks1 = cpu_ticks();
    let rss_kb = rss_kb(&daemons);
    let (x1, bytes1) = client.tap.counts();
    drop(client);
    problems.extend(daemons.into_iter().filter_map(|d| d.drain().err()));
    Ok(SetRun {
        setup_s,
        phase,
        wire_bytes: bytes1 - bytes0,
        exchanges: x1 - x0,
        rss_growth_kb: rss_kb.iter().sum::<u64>() as f64 - rss0 as f64,
        rss_kb,
        ticks: (ticks1.0 - ticks0.0, ticks1.1 - ticks0.1),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let dir = args.work_dir.join(format!(
        "{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let doc_bytes = if args.small {
        w.doc_bytes / 16
    } else {
        w.doc_bytes
    };
    let sets = if args.small { 2 } else { SETS };
    let tn = w.templates.len();
    // every set's stretch holds whole blocks, so each sees the same mix
    let blocks = if args.small {
        2
    } else {
        ((args.seconds * w.nominal_qps / (sets * tn) as f64).ceil() as usize).max(2)
    };
    let per_set = blocks * tn;
    let seq = query_sequence(args.seed, tn, per_set * sets);
    let mut doc_seeds = SplitMix(args.seed ^ 0x00d0_c5ee_d5e7_5000);
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    for (k, part) in seq.chunks(per_set).enumerate() {
        let set_dir = dir.join(format!("set{k}"));
        runs.push(run_set(
            args,
            doc_bytes,
            doc_seeds.next(),
            &set_dir,
            part,
            k * per_set,
            epoch,
            &mut problems,
        )?);
    }
    let n = seq.len();
    let setup_s: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let steal = |r: &SetRun| r.ticks.0 as f64 / r.ticks.1.max(1) as f64;
    let ticks = runs
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.ticks.0, a.1 + r.ticks.1));
    let steal_frac = ticks.0 as f64 / ticks.1.max(1) as f64;

    let mut report = if !args.trace {
        // timings come from the quiet windows: those whose steal is at
        // most the median window's. On a shared virtual machine every
        // timing grows with steal, and it comes in bursts.
        let windows: Vec<(&SetRun, &Window)> = runs
            .iter()
            .flat_map(|r| r.phase.windows.iter().map(move |x| (r, x)))
            .collect();
        let cut = percentile(
            &windows.iter().map(|(_, x)| x.steal()).collect::<Vec<_>>(),
            0.5,
        );
        let quiet: Vec<&(&SetRun, &Window)> =
            windows.iter().filter(|(_, x)| x.steal() <= cut).collect();
        let lat: Vec<f64> = quiet
            .iter()
            .flat_map(|(r, x)| &r.phase.samples[x.samples.clone()])
            .filter(|s| s.ok)
            .map(|s| s.lat_ns as f64 / 1e6)
            .collect();
        let quiet_s = quiet.iter().map(|(_, x)| x.dur_ns).sum::<u64>() as f64 / 1e9;
        let rss_mb: Vec<f64> = runs
            .iter()
            .map(|r| *r.rss_kb.iter().max().unwrap_or(&0) as f64 / 1024.0)
            .collect();
        let ok: usize = runs.iter().map(|r| r.phase.ok()).sum();
        let wire: u64 = runs.iter().map(|r| r.wire_bytes).sum();
        let mut table = format!(
            "{} seed {}: {n} queries in {} sets, {ok} ok; {} of {} windows quiet \
             (steal <= {:.2}%)\n  set   steal      qps   p50 ms   p90 ms  setup ms\n",
            w.name,
            args.seed,
            runs.len(),
            quiet.len(),
            windows.len(),
            100.0 * cut
        );
        for (k, r) in runs.iter().enumerate() {
            let lat = r.phase.ok_latencies_ms(None, None);
            let _ = writeln!(
                table,
                "  {k:>3} {:>6.2}% {:>8.1} {:>8.3} {:>8.3} {:>9.3}",
                100.0 * steal(r),
                r.phase.ok() as f64 / r.phase.wall.as_secs_f64(),
                percentile(&lat, 0.5),
                percentile(&lat, 0.9),
                r.setup_s * 1e3
            );
        }
        Report {
            steal_frac,
            attempted: n,
            failed: n - ok,
            metrics: vec![
                metric("qps", lat.len() as f64 / quiet_s, "1/s"),
                metric("lat_p50_ms", percentile(&lat, 0.5), "ms"),
                metric("lat_p90_ms", percentile(&lat, 0.9), "ms"),
                metric("wire_bytes_per_query", wire as f64 / n as f64, "B"),
                metric("ok_frac", ok as f64 / n as f64, "frac"),
                metric("daemon_rss_mb", percentile(&rss_mb, 0.5), "MB"),
                metric("setup_s", percentile(&setup_s, 0.5), "s"),
            ],
            samples: vec![
                ("queries".into(), n),
                ("sets".into(), runs.len()),
                ("quiet_windows".into(), quiet.len()),
                ("qps".into(), lat.len()),
                ("lat_p50_ms".into(), lat.len()),
                ("lat_p90_ms".into(), lat.len()),
                ("setup_s".into(), setup_s.len()),
                (
                    "daemon_rss_mb".into(),
                    runs.iter().map(|r| r.rss_kb.len()).sum(),
                ),
            ],
            problems: Vec::new(),
            table,
        }
    } else {
        let rss_growth_kb = runs.iter().map(|r| r.rss_growth_kb).sum::<f64>();
        let exchanges = runs.iter().map(|r| r.exchanges).sum::<u64>();
        let mut phase = Phase::default();
        for r in runs {
            phase.absorb(r.phase);
        }
        traced_report(args, phase, rss_growth_kb, exchanges, &dir, steal_frac)?
    };
    report.problems.extend(problems);
    Ok(report)
}

/// `--trace 1`: the per-layer split of the traced queries of every set,
/// from their spans and paced replays.
fn traced_report(
    args: &Args,
    phase: Phase,
    rss_growth: f64,
    exchanges: u64,
    dir: &Path,
    steal_frac: f64,
) -> Result<Report, String> {
    let w = args.workload;
    let spans_file = dir.join("spans.jsonl");
    let body: String = phase.spans.iter().map(|s| s.to_json() + "\n").collect();
    std::fs::write(&spans_file, body)
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;

    let layers = &phase.layers;
    let k = layers.len().max(1) as f64;
    let mean = |f: fn(&Layers) -> u64| layers.iter().map(f).sum::<u64>() as f64 / k;
    let us = |f: fn(&Layers) -> u64| mean(f) / 1e3;
    let xchg_total = layers.iter().map(|l| l.xchg_count).sum::<u64>();
    let unattributed =
        |l: &Layers| l.coord_self as f64 - (l.parse + l.decompose + l.coord_shred) as f64;
    let unattributed_us = layers.iter().map(unattributed).sum::<f64>() / k / 1e3;
    let overhead_us = (mean(|l| l.xchg_sum) - mean(|l| l.peer_service)) / 1e3;
    let overlap_credit_us = (mean(|l| l.xchg_sum) - mean(|l| l.xchg_union)) / 1e3;

    let mut metrics = vec![
        metric("front.parse_us", us(|l| l.parse), "us"),
        metric("front.decompose_us", us(|l| l.decompose), "us"),
        metric("coord.self_us", us(|l| l.coord_self), "us"),
        metric("coord.shred_us", us(|l| l.coord_shred), "us"),
        metric("coord.unattributed_us", unattributed_us, "us"),
        metric("xchg.count", mean(|l| l.xchg_count), "count"),
        metric("xchg.req_bytes", mean(|l| l.req_bytes), "B"),
        metric("xchg.reply_bytes", mean(|l| l.reply_bytes), "B"),
        metric(
            "xchg.us",
            layers.iter().map(|l| l.xchg_sum).sum::<u64>() as f64 / xchg_total.max(1) as f64 / 1e3,
            "us",
        ),
        metric("xchg.overhead_us", overhead_us, "us"),
        metric("xchg.retries", mean(|l| l.retries), "count"),
        metric("xchg.failovers", mean(|l| l.failovers), "count"),
        metric(
            "scatter.overlap",
            phase.overlaps.iter().sum::<f64>() / phase.overlaps.len().max(1) as f64,
            "ratio",
        ),
        metric("peer.service_us", us(|l| l.peer_service), "us"),
        metric("peer.shred_us", us(|l| l.peer_shred), "us"),
        metric("peer.exec_us", us(|l| l.peer_exec), "us"),
        metric("peer.serialize_us", us(|l| l.peer_serialize), "us"),
        metric(
            "peer.rss_kb_per_kreq",
            rss_growth / exchanges.max(1) as f64 * 1e3,
            "kB",
        ),
    ];
    // templates outside this workload's mix read 0: they were not run
    for name in TEMPLATES {
        let p50 = match w.templates.iter().position(|t| t == name) {
            Some(t) => percentile(&phase.ok_latencies_ms(Some(t), Some(false)), 0.5),
            None => 0.0,
        };
        metrics.push(metric(format!("tmpl.{name}.p50_ms"), p50, "ms"));
    }
    metrics.push(metric(
        "trace.overhead_frac",
        phase.mean_latency_ns(true) / phase.mean_latency_ns(false) - 1.0,
        "frac",
    ));

    let rows = [
        ("front.parse", us(|l| l.parse)),
        ("front.decompose", us(|l| l.decompose)),
        ("coord.shred", us(|l| l.coord_shred)),
        ("coord.unattributed", unattributed_us),
        ("xchg.overhead", overhead_us),
        ("peer.shred", us(|l| l.peer_shred)),
        ("peer.exec", us(|l| l.peer_exec)),
        ("peer.serialize", us(|l| l.peer_serialize)),
        (
            "peer.other",
            (mean(|l| l.peer_service) - mean(|l| l.peer_shred + l.peer_exec + l.peer_serialize))
                / 1e3,
        ),
        ("scatter.overlap credit", -overlap_credit_us),
    ];
    let wall_us = us(|l| l.wall);
    let traced = phase.samples.iter().filter(|s| s.traced).count();
    let mut table = format!(
        "{} seed {}: per-layer split of {} replayed of {} traced queries (mean us per query)\n",
        w.name,
        args.seed,
        layers.len(),
        traced
    );
    for (name, v) in rows {
        let _ = writeln!(
            table,
            "  {name:<24} {v:>12.3}  {:>6.1}%",
            100.0 * v / wall_us
        );
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let _ = writeln!(
        table,
        "  {:<24} {sum:>12.3}  (traced query wall {wall_us:.3})",
        "sum of layers"
    );

    Ok(Report {
        steal_frac,
        attempted: phase.samples.len(),
        failed: phase.samples.len() - phase.ok(),
        metrics,
        samples: vec![
            ("queries_untraced".into(), phase.samples.len() - traced),
            ("queries_traced".into(), traced),
            ("queries_replayed".into(), layers.len()),
            ("exchanges_replayed".into(), xchg_total as usize),
            ("spans".into(), phase.spans.len()),
        ],
        problems: phase.errors,
        table,
    })
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sockbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("sockbench: watchdog fired after {WATCHDOG:?}; abandoning the run");
        daemon::kill_all();
        std::process::exit(3);
    });
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sockbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.problems.is_empty() && report.failed == 0;
    eprint!("{}", report.table);
    for p in &report.problems {
        eprintln!("sockbench: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = args.workload;
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    println!(
        r#"{{"provenance": {{"git_rev": {}, "source_digest": {}, "host": {}, "nproc": {nproc}, "seed": {}, "workload": {}, "clock": "wall", "trace": {}, "seconds": {}, "small": {}, "clients": 1, "strategy": {}, "doc_bytes": {}, "host_steal_frac": {}, "samples": {{{}}}, "problems": [{}]}}}}"#,
        json_str(&args.git_rev),
        json_str(&args.source_digest),
        json_str(&host()),
        args.seed,
        json_str(w.name),
        u8::from(args.trace),
        json_num(args.seconds),
        args.small,
        json_str(w.strategy.name()),
        if args.small {
            w.doc_bytes / 16
        } else {
            w.doc_bytes
        },
        json_num(report.steal_frac),
        samples.join(", "),
        report
            .problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
