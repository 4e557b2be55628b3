//! Tree-walking evaluator for normalized XCore expressions.
//!
//! The evaluator is **network-agnostic**: remote execution (`Execute` nodes)
//! and non-local `fn:doc` URIs are delegated to the [`RemoteHandler`] and
//! [`DocResolver`] hooks, which `xqd-xrpc` implements with the three message
//! passing semantics. Everything else — node identity, document order,
//! duplicate elimination, constructor copy semantics — is evaluated against
//! the local [`Store`], which is exactly what makes the paper's semantic
//! Problems 1–5 reproducible: a shipped fragment is just another document in
//! the receiving store.

use xqd_xml::axes::{axis_nodes, node_test_matches, NodeTest};
use xqd_xml::name::{NameId, NameTable};
use xqd_xml::{index, Axis, DocBuilder, DocId, NodeId, NodeKind, Store};

use crate::ast::*;
use crate::builtins;
use crate::profile::ProfileHook;
use crate::value::*;

/// Static context attributes shipped in XRPC message headers (Problem 5
/// class 1: `static-base-uri`, `default-collation`, `current-dateTime`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticContext {
    pub base_uri: String,
    pub default_collation: String,
    pub current_datetime: String,
}

impl Default for StaticContext {
    fn default() -> Self {
        StaticContext {
            base_uri: "local:/".to_string(),
            default_collation: "http://www.w3.org/2005/xpath-functions/collation/codepoint"
                .to_string(),
            // fixed for reproducibility; XRPC ships it so both sides agree
            current_datetime: "2009-03-29T12:00:00Z".to_string(),
        }
    }
}

/// Resolves `fn:doc` URIs to documents, loading/fetching if necessary.
pub trait DocResolver {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<DocId>;
}

/// Resolver that only finds documents already in the store.
#[derive(Debug, Default)]
pub struct LocalResolver;

impl DocResolver for LocalResolver {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<DocId> {
        store
            .doc_by_uri(uri)
            .ok_or_else(|| EvalError::new(format!("document not found: {uri}")))
    }
}

/// One pre-bound remote call of a scatter round. Every parameter sequence
/// is already evaluated, so a handler can encode all requests up front and
/// fan the execute phase out across peers concurrently.
pub struct ScatterCall<'a> {
    pub peer: String,
    pub params: Vec<(String, Sequence)>,
    pub body: &'a Expr,
    pub projection: Option<&'a ExecProjection>,
}

/// Executes an `Execute` (XRPCExpr) remotely and shreds the response into
/// the local store.
pub trait RemoteHandler {
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        params: &[(String, Sequence)],
        body: &Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Sequence>;

    /// **Bulk RPC**: executes the same body once per parameter binding in a
    /// single network interaction. The evaluator batches a remote call
    /// nested directly in a `for`-loop through this method; under
    /// pass-by-fragment all iterations then share one fragments preamble,
    /// which is what lets Section V drop `ForExpr` from condition iii.
    ///
    /// The default implementation degrades to one interaction per call.
    #[allow(clippy::too_many_arguments)]
    fn execute_bulk(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        calls: &[Vec<(String, Sequence)>],
        body: &Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Vec<Sequence>> {
        calls
            .iter()
            .map(|params| self.execute(local, static_ctx, peer, params, body, projection))
            .collect()
    }

    /// **Scatter-gather**: executes one round of calls aimed at (usually
    /// distinct) peers. The evaluator only batches calls whose parameters
    /// are independent of each other's results, so a handler may run them
    /// concurrently — but it must gather results in call order and stay
    /// observably identical to executing the calls one by one.
    ///
    /// The default implementation degrades to the sequential loop.
    fn execute_scatter(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        calls: &[ScatterCall<'_>],
    ) -> EvalResult<Vec<Sequence>> {
        calls
            .iter()
            .map(|c| self.execute(local, static_ctx, &c.peer, &c.params, c.body, c.projection))
            .collect()
    }
}

const MAX_CALL_DEPTH: usize = 128;

/// Entries [`NameMemo`] keeps before it falls back to the name table.
const NAME_MEMO_CAP: usize = 32;

/// Step QNames already resolved to the store's interned ids, so a step
/// evaluated once per loop iteration hashes its name once per evaluator.
/// An entry is found by the address of the name's text in the AST and
/// confirmed against the text itself. Only hits are kept: a name the store
/// lacks is probed again on every use, because a constructor can intern it
/// later in the same run. Past [`NAME_MEMO_CAP`] entries, lookups go to
/// the table.
#[derive(Default)]
struct NameMemo(Vec<(usize, Box<str>, NameId)>);

impl NameMemo {
    fn resolve(&mut self, names: &NameTable, name: &str) -> Option<NameId> {
        let addr = name.as_ptr() as usize;
        if let Some(&(_, _, id)) = self.0.iter().find(|(a, n, _)| *a == addr && **n == *name) {
            return Some(id);
        }
        let id = names.get(name)?;
        if self.0.len() < NAME_MEMO_CAP {
            self.0.push((addr, name.into(), id));
        }
        Some(id)
    }
}

/// The evaluator. Owns no data; borrows the store and hooks.
pub struct Evaluator<'a> {
    pub store: &'a mut Store,
    pub functions: &'a [FunctionDef],
    pub resolver: &'a mut dyn DocResolver,
    pub remote: Option<&'a mut dyn RemoteHandler>,
    pub static_ctx: StaticContext,
    env: Vec<(String, Sequence)>,
    context: Vec<Item>,
    call_depth: usize,
    /// Answer eligible axis steps from the per-document name indexes
    /// (staircase join) instead of arena scans. Results are bit-identical
    /// either way; the toggle exists so equivalence tests and the `paths`
    /// bench can compare the two engines.
    use_indexes: bool,
    /// Scratch rank buffer reused across `axis_nodes` / staircase calls so
    /// path evaluation doesn't allocate a fresh `Vec` per step.
    scratch: Vec<u32>,
    /// Per-node profiling hook (`EXPLAIN ANALYZE`); `None` on ordinary
    /// runs, leaving only a branch on the dispatch path.
    profile: Option<ProfileHook>,
    /// Keysets atomized for hash-probed `=`; lives and dies with this
    /// evaluator, so nothing outlasts the request.
    compare_memo: CompareMemo,
    /// Step QNames already resolved against `store`.
    names: NameMemo,
    /// The one `()` every evaluation of an `Expr::Empty` hands out, so an
    /// empty `else` branch in a loop costs an `Arc` clone, not an
    /// allocation.
    empty: Sequence,
}

impl<'a> Evaluator<'a> {
    pub fn new(
        store: &'a mut Store,
        functions: &'a [FunctionDef],
        resolver: &'a mut dyn DocResolver,
    ) -> Self {
        Evaluator {
            store,
            functions,
            resolver,
            remote: None,
            static_ctx: StaticContext::default(),
            env: Vec::new(),
            context: Vec::new(),
            call_depth: 0,
            use_indexes: true,
            scratch: Vec::new(),
            profile: None,
            compare_memo: CompareMemo::default(),
            names: NameMemo::default(),
            empty: Sequence::new(),
        }
    }

    pub fn with_remote(mut self, remote: &'a mut dyn RemoteHandler) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Enables or disables the indexed path-step engine (on by default).
    pub fn with_indexes(mut self, on: bool) -> Self {
        self.use_indexes = on;
        self
    }

    pub fn with_static_context(mut self, ctx: StaticContext) -> Self {
        self.static_ctx = ctx;
        self
    }

    /// Attaches a per-node execution profile; only evaluations of the tree
    /// the hook was built over are counted.
    pub fn with_profile(mut self, hook: ProfileHook) -> Self {
        self.profile = Some(hook);
        self
    }

    /// Pre-binds a variable (used for shipped XRPC parameters).
    pub fn bind(&mut self, name: &str, value: Sequence) {
        self.env.push((name.to_string(), value));
    }

    fn lookup(&self, name: &str) -> EvalResult<Sequence> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| EvalError::new(format!("unbound variable ${name}")))
    }

    fn context_item(&self) -> EvalResult<Item> {
        self.context
            .last()
            .cloned()
            .ok_or_else(|| EvalError::new("context item is undefined"))
    }

    /// Evaluates an expression to a sequence.
    #[inline]
    pub fn eval(&mut self, e: &Expr) -> EvalResult {
        match &self.profile {
            None => self.eval_expr(e),
            Some(hook) => match hook.node(e) {
                None => self.eval_expr(e),
                Some(node) => {
                    let hook = hook.clone();
                    hook.enter(node);
                    let result = self.eval_expr(e);
                    hook.exit(node, result.as_ref().ok().map(|seq| seq.len() as u64));
                    result
                }
            },
        }
    }

    fn eval_expr(&mut self, e: &Expr) -> EvalResult {
        match e {
            Expr::Literal(l) => Ok(l.sequence().clone()),
            Expr::Empty => Ok(self.empty.clone()),
            Expr::Sequence(es) => {
                // scatter point: ≥2 sibling remote calls to ≥2 distinct
                // peers are independent by construction (sequence elements
                // bind nothing) and fan out as one round
                if self.remote.is_some() {
                    if let Some(idxs) = sequence_scatter(es) {
                        return self.eval_sequence_scatter(es, &idxs);
                    }
                }
                let mut out = Vec::new();
                for e in es {
                    out.extend(self.eval(e)?);
                }
                Ok(out.into())
            }
            Expr::VarRef(v) => self.lookup(v),
            Expr::ContextItem => Ok(Sequence::unit(self.context_item()?)),
            Expr::For { var, seq, ret } => {
                let input = self.eval(seq)?;
                // Bulk RPC: a remote call directly in the return clause
                // (possibly under local lets) is batched into one message
                if self.remote.is_some() {
                    if let Some(plan) = bulk_pattern(ret) {
                        return self.eval_bulk_for(var, input, plan);
                    }
                }
                let mut out = Vec::new();
                for item in input.iter() {
                    self.env.push((var.clone(), Sequence::unit(item.clone())));
                    let r = self.eval(ret);
                    self.env.pop();
                    out.extend(r?);
                }
                Ok(out.into())
            }
            Expr::Let { var, value, ret } => {
                // scatter point: a chain of lets each binding a remote call
                // whose parameters don't reference earlier chain variables
                // (the decomposed shape of a federated join) fans out as
                // one round
                if self.remote.is_some() {
                    if let Some(chain) = let_scatter(e) {
                        return self.eval_let_scatter(chain);
                    }
                }
                let v = self.eval(value)?;
                self.env.push((var.clone(), v));
                let r = self.eval(ret);
                self.env.pop();
                r
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(cond)?;
                if effective_boolean_value(&c)? {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Typeswitch { input, cases, default_var, default } => {
                let v = self.eval(input)?;
                for case in cases {
                    if matches_seq_type(self.store, &v, &case.seq_type) {
                        self.env.push((case.var.clone(), v));
                        let r = self.eval(&case.body);
                        self.env.pop();
                        return r;
                    }
                }
                self.env.push((default_var.clone(), v));
                let r = self.eval(default);
                self.env.pop();
                r
            }
            Expr::Comparison { op, lhs, rhs } => {
                let (l, r) = self.eval_operand_pair(lhs, rhs)?;
                let b = self.compare_memo.general_compare(self.store, *op, &l, &r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(b))))
            }
            Expr::NodeComparison { op, lhs, rhs } => {
                let (l, r) = self.eval_operand_pair(lhs, rhs)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::new());
                }
                let ln = single_node(&l, "node comparison")?;
                let rn = single_node(&r, "node comparison")?;
                let b = match op {
                    NodeCompOp::Is => ln == rn,
                    NodeCompOp::Before => ln < rn,
                    NodeCompOp::After => ln > rn,
                };
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(b))))
            }
            Expr::OrderBy { input, specs } => self.eval_order_by(input, specs),
            Expr::NodeSet { op, lhs, rhs } => {
                let (l, r) = self.eval_operand_pair(lhs, rhs)?;
                let (mut l, mut r) = (l.into_vec(), r.into_vec());
                sort_document_order(&mut l)?;
                sort_document_order(&mut r)?;
                let rset: std::collections::HashSet<NodeId> = r
                    .iter()
                    .map(|i| match i {
                        Item::Node(n) => *n,
                        Item::Atom(_) => unreachable!(),
                    })
                    .collect();
                let mut out = Vec::new();
                match op {
                    NodeSetOp::Union => {
                        out = l;
                        out.extend(r);
                        sort_document_order(&mut out)?;
                    }
                    NodeSetOp::Intersect => {
                        for i in l {
                            if matches!(&i, Item::Node(n) if rset.contains(n)) {
                                out.push(i);
                            }
                        }
                    }
                    NodeSetOp::Except => {
                        for i in l {
                            if matches!(&i, Item::Node(n) if !rset.contains(n)) {
                                out.push(i);
                            }
                        }
                    }
                }
                Ok(out.into())
            }
            Expr::Construct(c) => self.eval_constructor(c),
            Expr::Path { start, steps } => self.eval_path(start.as_deref(), steps),
            Expr::Filter { input, predicate } => {
                let input = self.eval(input)?;
                Ok(self.apply_predicate(&input, predicate)?.into())
            }
            Expr::FunCall { name, args } => self.eval_funcall(name, args),
            Expr::And(l, r) => {
                let lv = self.eval(l)?;
                if !effective_boolean_value(&lv)? {
                    return Ok(Sequence::unit(Item::Atom(Atomic::Bool(false))));
                }
                let rv = self.eval(r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(effective_boolean_value(&rv)?))))
            }
            Expr::Or(l, r) => {
                let lv = self.eval(l)?;
                if effective_boolean_value(&lv)? {
                    return Ok(Sequence::unit(Item::Atom(Atomic::Bool(true))));
                }
                let rv = self.eval(r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(effective_boolean_value(&rv)?))))
            }
            Expr::Arith { op, lhs, rhs } => {
                let (l, r) = self.eval_operand_pair(lhs, rhs)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::new());
                }
                let la = atomize(self.store, &l);
                let ra = atomize(self.store, &r);
                if la.len() != 1 || ra.len() != 1 {
                    return Err(EvalError::new("arithmetic on a multi-item sequence"));
                }
                let a = to_number(&la[0])
                    .ok_or_else(|| EvalError::new("left operand is not numeric"))?;
                let b = to_number(&ra[0])
                    .ok_or_else(|| EvalError::new("right operand is not numeric"))?;
                let result = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(EvalError::new("division by zero"));
                        }
                        a / b
                    }
                    ArithOp::Mod => {
                        if b == 0.0 {
                            return Err(EvalError::new("modulo by zero"));
                        }
                        a % b
                    }
                };
                // integer-preserving when both inputs were integers
                let int_inputs = matches!(
                    (&la[0], &ra[0]),
                    (Atomic::Int(_), Atomic::Int(_))
                ) && *op != ArithOp::Div;
                Ok(Sequence::unit(Item::Atom(if int_inputs && result.fract() == 0.0 {
                    Atomic::Int(result as i64)
                } else {
                    Atomic::Dbl(result)
                })))
            }
            Expr::Execute { peer, params, body, projection } => {
                let peer_seq = self.eval(peer)?;
                let peer_uri = match peer_seq.as_slice() {
                    [item] => string_value(self.store, item),
                    _ => return Err(EvalError::new("execute at peer must be a single item")),
                };
                let mut bound = Vec::with_capacity(params.len());
                for p in params {
                    bound.push((p.var.clone(), self.lookup(&p.outer)?));
                }
                match &mut self.remote {
                    Some(handler) => handler.execute(
                        self.store,
                        &self.static_ctx,
                        &peer_uri,
                        &bound,
                        body,
                        projection.as_deref(),
                    ),
                    None => Err(EvalError::new(
                        "execute at: no remote handler configured (local-only evaluator)",
                    )),
                }
            }
        }
    }

    fn eval_order_by(&mut self, input: &Expr, specs: &[OrderSpec]) -> EvalResult {
        let items = self.eval(input)?;
        // evaluate keys with each item as context item
        let mut keyed: Vec<(Vec<Option<Atomic>>, usize, Item)> = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(specs.len());
            self.context.push(item.clone());
            for spec in specs {
                let k = self.eval(&spec.key);
                match k {
                    Ok(seq) => {
                        let atoms = atomize(self.store, &seq);
                        keys.push(atoms.into_iter().next());
                    }
                    Err(e) => {
                        self.context.pop();
                        return Err(e);
                    }
                }
            }
            self.context.pop();
            keyed.push((keys, i, item));
        }
        keyed.sort_by(|(ka, ia, _), (kb, ib, _)| {
            for (idx, spec) in specs.iter().enumerate() {
                let ord = compare_order_keys(&ka[idx], &kb[idx]);
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            ia.cmp(ib) // stable
        });
        Ok(keyed.into_iter().map(|(_, _, item)| item).collect())
    }

    fn eval_path(&mut self, start: Option<&Expr>, steps: &[Step]) -> EvalResult {
        let mut current: Sequence = match start {
            Some(e) => self.eval(e)?,
            None => {
                // leading "/": root of the context item's document
                let ctx = self.context_item()?;
                match ctx {
                    Item::Node(n) => Sequence::unit(Item::Node(NodeId::new(n.doc, 0))),
                    Item::Atom(_) => {
                        return Err(EvalError::new("leading / requires a node context item"))
                    }
                }
            }
        };
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            // `descendant-or-self::node()/child::n` (the expansion of `//n`)
            // is equivalent to `descendant::n` — both exclude attributes —
            // so the pair collapses into a single staircase lookup.
            if self.use_indexes
                && step.axis == Axis::DescendantOrSelf
                && matches!(step.test, NameTest::AnyKind)
                && step.predicates.is_empty()
            {
                if let Some(next) = steps.get(i + 1) {
                    if next.axis == Axis::Child
                        && matches!(next.test, NameTest::Name(_))
                        && next.predicates.is_empty()
                    {
                        let NameTest::Name(name) = &next.test else { unreachable!() };
                        if let Some(fast) =
                            self.indexed_named_step(&current, Axis::Descendant, name)?
                        {
                            current = fast;
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            if let Some(fast) = self.indexed_step(&current, step)? {
                current = fast;
                i += 1;
                continue;
            }
            let mut result: Vec<Item> = Vec::new();
            for item in current.iter() {
                let node = match item {
                    Item::Node(n) => *n,
                    Item::Atom(_) => {
                        return Err(EvalError::new("axis step applied to an atomic value"))
                    }
                };
                let candidates = self.step_candidates(node, step)?;
                result.extend(candidates);
            }
            sort_document_order(&mut result)?;
            current = result.into();
            i += 1;
        }
        Ok(current)
    }

    /// Whole-step indexed evaluation when the step is an eligible
    /// `(axis, name)` pair without predicates. Returns `Ok(None)` when the
    /// step must take the scan path.
    fn indexed_step(&mut self, current: &Sequence, step: &Step) -> EvalResult<Option<Sequence>> {
        if !self.use_indexes
            || !step.predicates.is_empty()
            || !matches!(
                step.axis,
                Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
            )
        {
            return Ok(None);
        }
        let NameTest::Name(name) = &step.test else {
            return Ok(None);
        };
        self.indexed_named_step(current, step.axis, name)
    }

    /// Answers `axis::name` over the whole context sequence from the
    /// per-document name indexes. Contexts are grouped by document, sorted
    /// and deduplicated, then resolved with staircase interval lookups; the
    /// final cross-document `sort_document_order` matches the scan path's
    /// post-step normalization exactly.
    fn indexed_named_step(
        &mut self,
        current: &Sequence,
        axis: Axis,
        name: &str,
    ) -> EvalResult<Option<Sequence>> {
        // Same error the scan path raises on the first atomic context item.
        if current.iter().any(|i| matches!(i, Item::Atom(_))) {
            return Err(EvalError::new("axis step applied to an atomic value"));
        }
        let Some(name_id) = self.names.resolve(&self.store.names, name) else {
            // QName not interned in this store: matches nothing (scan path
            // reaches the same result via `NodeTest::UnknownName`).
            return Ok(Some(Sequence::new()));
        };
        self.staircase_named(current, axis, name_id).map(Some)
    }

    /// The staircase lookup proper, after the context has been checked for
    /// atomics and the QName resolved to an interned id.
    fn staircase_named(
        &mut self,
        current: &Sequence,
        axis: Axis,
        name_id: NameId,
    ) -> EvalResult<Sequence> {
        let mut by_doc: Vec<(DocId, Vec<u32>)> = Vec::new();
        for item in current.iter() {
            let Item::Node(n) = item else { unreachable!() };
            match by_doc.iter_mut().find(|(d, _)| *d == n.doc) {
                Some((_, ranks)) => ranks.push(n.idx),
                None => by_doc.push((n.doc, vec![n.idx])),
            }
        }
        let mut out: Vec<Item> = Vec::new();
        let mut ranks = std::mem::take(&mut self.scratch);
        for (doc_id, mut ctxs) in by_doc {
            ctxs.sort_unstable();
            ctxs.dedup();
            self.store.ensure_name_index(doc_id);
            let doc = self.store.doc(doc_id);
            let ix = doc.name_index().expect("ensure_name_index just built it");
            ranks.clear();
            match axis {
                Axis::Descendant => {
                    index::descendants_named(doc, ix, &ctxs, name_id, false, &mut ranks)
                }
                Axis::DescendantOrSelf => {
                    index::descendants_named(doc, ix, &ctxs, name_id, true, &mut ranks)
                }
                Axis::Child => index::children_named(doc, ix, &ctxs, name_id, &mut ranks),
                Axis::Attribute => index::attributes_named(doc, ix, &ctxs, name_id, &mut ranks),
                _ => unreachable!("indexed_step gates the axis"),
            }
            out.extend(ranks.iter().map(|&r| Item::Node(NodeId::new(doc_id, r))));
        }
        ranks.clear();
        self.scratch = ranks;
        sort_document_order(&mut out)?;
        Ok(out.into())
    }

    /// Applies one step (axis + test + predicates) to one context node.
    fn step_candidates(&mut self, node: NodeId, step: &Step) -> EvalResult<Vec<Item>> {
        let test = match &step.test {
            NameTest::Name(n) => self
                .names
                .resolve(&self.store.names, n)
                .map(NodeTest::Name)
                .unwrap_or(NodeTest::UnknownName),
            NameTest::Wildcard => NodeTest::Wildcard,
            NameTest::AnyKind => NodeTest::AnyKind,
            NameTest::Text => NodeTest::Text,
            NameTest::Comment => NodeTest::Comment,
        };
        let mut raw = Vec::new();
        let mut reached = std::mem::take(&mut self.scratch);
        reached.clear();
        {
            let doc = self.store.doc(node.doc);
            axis_nodes(doc, node.idx, step.axis, &mut reached);
            for &r in &reached {
                if node_test_matches(doc, r, step.axis, &test) {
                    raw.push(Item::Node(NodeId::new(node.doc, r)));
                }
            }
        }
        reached.clear();
        self.scratch = reached;
        let mut filtered = raw;
        for pred in &step.predicates {
            filtered = self.apply_predicate(&filtered, pred)?;
        }
        Ok(filtered)
    }

    /// XPath predicate semantics: a numeric predicate selects by position
    /// (1-based, in the order of the input sequence); anything else filters
    /// by effective boolean value with the item as context item.
    fn apply_predicate(&mut self, input: &[Item], pred: &Expr) -> EvalResult<Vec<Item>> {
        let mut out = Vec::new();
        for (i, item) in input.iter().enumerate() {
            self.context.push(item.clone());
            let v = self.eval(pred);
            self.context.pop();
            let v = v?;
            let keep = match v.as_slice() {
                [Item::Atom(a @ (Atomic::Int(_) | Atomic::Dbl(_)))] => {
                    let pos = to_number(a).unwrap();
                    (i + 1) as f64 == pos
                }
                _ => effective_boolean_value(&v)?,
            };
            if keep {
                out.push(item.clone());
            }
        }
        Ok(out)
    }

    fn eval_funcall(&mut self, name: &str, args: &[Expr]) -> EvalResult {
        // builtins first
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(a)?);
        }
        if let Some(result) = builtins::eval_builtin(self, name, &arg_values)? {
            return Ok(result);
        }
        // user-defined function, borrowed for the evaluator's lifetime
        let functions = self.functions;
        let func = functions
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| EvalError::new(format!("unknown function {name}()")))?;
        if func.params.len() != arg_values.len() {
            return Err(EvalError::new(format!(
                "{name}() expects {} arguments, got {}",
                func.params.len(),
                arg_values.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(format!("call depth exceeded in {name}()")));
        }
        // function bodies see only their parameters (fresh scope)
        let saved_env = std::mem::take(&mut self.env);
        let saved_ctx = std::mem::take(&mut self.context);
        for ((p, _), v) in func.params.iter().zip(arg_values) {
            self.env.push((p.clone(), v));
        }
        self.call_depth += 1;
        let result = self.eval(&func.body);
        self.call_depth -= 1;
        self.env = saved_env;
        self.context = saved_ctx;
        result
    }

    fn eval_constructor(&mut self, c: &Constructor) -> EvalResult {
        match c {
            Constructor::Element { name, content } => {
                let name = self.constructor_name(name)?;
                let content = self.eval(content)?;
                let mut b = DocBuilder::new(None);
                b.start_element(&name);
                self.append_content(&mut b, &content)?;
                b.end_element();
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 1))))
            }
            Constructor::Document { content } => {
                let content = self.eval(content)?;
                let mut b = DocBuilder::new(None);
                self.append_content(&mut b, &content)?;
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 0))))
            }
            Constructor::Text { content } => {
                let content = self.eval(content)?;
                if content.is_empty() {
                    return Ok(Sequence::new());
                }
                let text = content
                    .iter()
                    .map(|i| string_value(self.store, i))
                    .collect::<Vec<_>>()
                    .join(" ");
                let mut b = DocBuilder::new(None);
                b.text(&text);
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 1))))
            }
            Constructor::Attribute { name, content } => {
                let name = self.constructor_name(name)?;
                let content = self.eval(content)?;
                let value = content
                    .iter()
                    .map(|i| string_value(self.store, i))
                    .collect::<Vec<_>>()
                    .join(" ");
                // standalone attribute nodes live under a holder element
                let mut b = DocBuilder::new(None);
                b.start_element("attribute-holder");
                b.attribute(&name, &value);
                b.end_element();
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 2))))
            }
        }
    }

    fn constructor_name(&mut self, name: &ElemName) -> EvalResult<String> {
        match name {
            ElemName::Static(n) => Ok(n.clone()),
            ElemName::Computed(e) => {
                let v = self.eval(e)?;
                match v.as_slice() {
                    [item] => Ok(string_value(self.store, item)),
                    _ => Err(EvalError::new("computed constructor name must be a single item")),
                }
            }
        }
    }

    /// XQuery content semantics: attribute items first (become attributes of
    /// the enclosing element), nodes are deep-copied, adjacent atomics join
    /// with single spaces into one text node.
    fn append_content(&mut self, b: &mut DocBuilder, content: &[Item]) -> EvalResult<()> {
        let mut pending_text: Option<String> = None;
        let mut seen_child = false;
        for item in content {
            match item {
                Item::Atom(a) => {
                    let lex = a.to_lexical();
                    match &mut pending_text {
                        Some(t) => {
                            t.push(' ');
                            t.push_str(&lex);
                        }
                        None => pending_text = Some(lex),
                    }
                }
                Item::Node(n) => {
                    let is_attr =
                        self.store.doc(n.doc).kind(n.idx) == NodeKind::Attribute;
                    if is_attr {
                        if seen_child || pending_text.is_some() {
                            return Err(EvalError::new(
                                "attribute node after non-attribute content (err:XQTY0024)",
                            ));
                        }
                        let doc = self.store.doc(n.doc);
                        b.copy_subtree(doc, &self.store.names, n.idx);
                        continue;
                    }
                    if let Some(t) = pending_text.take() {
                        b.text(&t);
                    }
                    seen_child = true;
                    let doc = self.store.doc(n.doc);
                    b.copy_subtree(doc, &self.store.names, n.idx);
                }
            }
        }
        if let Some(t) = pending_text {
            b.text(&t);
        }
        Ok(())
    }
}

/// A `for`-return clause amenable to Bulk RPC: a chain of local `let`s
/// ending in an `Execute` with a literal peer.
struct BulkPlan<'a> {
    lets: Vec<(&'a str, &'a Expr)>,
    peer: String,
    params: &'a [XrpcParam],
    body: &'a Expr,
    projection: Option<&'a ExecProjection>,
}

fn bulk_pattern(ret: &Expr) -> Option<BulkPlan<'_>> {
    let mut lets = Vec::new();
    let mut cur = ret;
    loop {
        match cur {
            Expr::Let { var, value, ret } => {
                lets.push((var.as_str(), value.as_ref()));
                cur = ret;
            }
            Expr::Execute { peer, params, body, projection } => {
                let Expr::Literal(a) = peer.as_ref() else {
                    return None; // peer could vary per iteration
                };
                return Some(BulkPlan {
                    lets,
                    peer: a.to_lexical(),
                    params,
                    body,
                    projection: projection.as_deref(),
                });
            }
            _ => return None,
        }
    }
}

/// Returns the element indices of a `Sequence` that form a scatter round:
/// `Execute` expressions with a literal peer. Engages only when at least two
/// such calls target at least two distinct peers — otherwise there is
/// nothing to overlap.
fn sequence_scatter(es: &[Expr]) -> Option<Vec<usize>> {
    let mut idxs = Vec::new();
    let mut peers = Vec::new();
    for (i, e) in es.iter().enumerate() {
        if let Expr::Execute { peer, .. } = e {
            if let Expr::Literal(a) = peer.as_ref() {
                idxs.push(i);
                let p = a.to_lexical();
                if !peers.contains(&p) {
                    peers.push(p);
                }
            }
        }
    }
    (idxs.len() >= 2 && peers.len() >= 2).then_some(idxs)
}

/// The literal peer of an `Execute` eligible for scattering, if any.
fn scatter_exec_peer(e: &Expr) -> Option<String> {
    if let Expr::Execute { peer, .. } = e {
        if let Expr::Literal(a) = peer.as_ref() {
            return Some(a.to_lexical());
        }
    }
    None
}

/// Do `lhs`/`rhs` form a two-call scatter round? Both operands of a binary
/// expression are always evaluated, so two remote calls to distinct peers —
/// the shape distributed code motion leaves behind when it collapses a
/// `let`-chain into `execute(…) ⊕ execute(…)` — can fan out together.
fn binary_scatter(lhs: &Expr, rhs: &Expr) -> bool {
    matches!(
        (scatter_exec_peer(lhs), scatter_exec_peer(rhs)),
        (Some(a), Some(b)) if a != b
    )
}

/// A chain of `let $v := execute at <literal peer> … return …` bindings
/// whose parameters are independent of earlier chain variables — the shape
/// distributed code motion produces for a federated join. The calls can run
/// as one scatter round and bind in order afterwards.
struct LetScatterChain<'a> {
    /// (bound variable, the Execute expression it binds)
    binds: Vec<(&'a str, &'a Expr)>,
    tail: &'a Expr,
}

fn let_scatter(e: &Expr) -> Option<LetScatterChain<'_>> {
    let mut binds: Vec<(&str, &Expr)> = Vec::new();
    let mut peers: Vec<String> = Vec::new();
    let mut cur = e;
    while let Expr::Let { var, value, ret } = cur {
        let Expr::Execute { peer, params, .. } = value.as_ref() else {
            break;
        };
        let Expr::Literal(a) = peer.as_ref() else {
            break;
        };
        // independence: parameters must not read variables bound earlier in
        // this chain (they'd need the earlier call's result first)
        if params.iter().any(|p| binds.iter().any(|(v, _)| *v == p.outer)) {
            break;
        }
        binds.push((var.as_str(), value.as_ref()));
        let p = a.to_lexical();
        if !peers.contains(&p) {
            peers.push(p);
        }
        cur = ret;
    }
    (binds.len() >= 2 && peers.len() >= 2).then_some(LetScatterChain { binds, tail: cur })
}

/// Sizes of every scatter round statically detectable in `e` — the same
/// predicates the evaluator applies at runtime, exposed so the decomposer
/// can tag plans whose XRPC calls will fan out (explain output, tests).
pub fn scatter_rounds(e: &Expr) -> Vec<usize> {
    fn walk(e: &Expr, out: &mut Vec<usize>) {
        if let Expr::Sequence(es) = e {
            if let Some(idxs) = sequence_scatter(es) {
                out.push(idxs.len());
                for (i, child) in es.iter().enumerate() {
                    if !idxs.contains(&i) {
                        walk(child, out);
                    }
                }
                return;
            }
        }
        if let Some(chain) = let_scatter(e) {
            out.push(chain.binds.len());
            walk(chain.tail, out);
            return;
        }
        if let Expr::Comparison { lhs, rhs, .. }
        | Expr::NodeComparison { lhs, rhs, .. }
        | Expr::NodeSet { lhs, rhs, .. }
        | Expr::Arith { lhs, rhs, .. } = e
        {
            if binary_scatter(lhs, rhs) {
                out.push(2);
                return;
            }
        }
        crate::normalize::map_children_infallible(e, &mut |c| {
            walk(c, out);
            c.clone()
        });
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

impl<'a> Evaluator<'a> {
    /// Binds the parameters of one `Execute` from the current environment
    /// into a [`ScatterCall`].
    fn bind_scatter_call<'e>(&self, exec: &'e Expr) -> EvalResult<ScatterCall<'e>> {
        let Expr::Execute { peer, params, body, projection } = exec else {
            unreachable!("scatter detection only selects Execute expressions");
        };
        let Expr::Literal(a) = peer.as_ref() else {
            unreachable!("scatter detection requires a literal peer");
        };
        let mut bound = Vec::with_capacity(params.len());
        for p in params {
            bound.push((p.var.clone(), self.lookup(&p.outer)?));
        }
        Ok(ScatterCall {
            peer: a.to_lexical(),
            params: bound,
            body,
            projection: projection.as_deref(),
        })
    }

    /// Evaluates the two operands of a binary expression, fanning them out
    /// as a two-call scatter round when both are independent remote calls
    /// to distinct peers.
    fn eval_operand_pair(&mut self, lhs: &Expr, rhs: &Expr) -> EvalResult<(Sequence, Sequence)> {
        let scatter = self.remote.is_some() && binary_scatter(lhs, rhs);
        if scatter {
            let calls = vec![self.bind_scatter_call(lhs)?, self.bind_scatter_call(rhs)?];
            let handler = self.remote.as_mut().expect("scatter path requires a handler");
            let mut gathered = handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
            let r = gathered.pop().expect("two results for two calls");
            let l = gathered.pop().expect("two results for two calls");
            return Ok((l, r));
        }
        Ok((self.eval(lhs)?, self.eval(rhs)?))
    }

    /// Sequence whose `Execute` elements fan out as one scatter round; the
    /// remaining elements evaluate afterwards and everything splices back
    /// in element order.
    fn eval_sequence_scatter(&mut self, es: &[Expr], idxs: &[usize]) -> EvalResult {
        let calls: Vec<ScatterCall<'_>> = idxs
            .iter()
            .map(|&i| self.bind_scatter_call(&es[i]))
            .collect::<EvalResult<_>>()?;
        let handler = self.remote.as_mut().expect("scatter path requires a handler");
        let gathered = handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
        let mut by_idx: Vec<Option<Sequence>> = vec![None; es.len()];
        for (&i, seq) in idxs.iter().zip(gathered) {
            by_idx[i] = Some(seq);
        }
        let mut out = Vec::new();
        for (i, e) in es.iter().enumerate() {
            match by_idx[i].take() {
                Some(seq) => out.extend(seq),
                None => out.extend(self.eval(e)?),
            }
        }
        Ok(out.into())
    }

    /// Let-chain of independent remote calls: scatter the round, then bind
    /// the gathered results in order and evaluate the tail.
    fn eval_let_scatter(&mut self, chain: LetScatterChain<'_>) -> EvalResult {
        let calls: Vec<ScatterCall<'_>> = chain
            .binds
            .iter()
            .map(|(_, exec)| self.bind_scatter_call(exec))
            .collect::<EvalResult<_>>()?;
        let handler = self.remote.as_mut().expect("scatter path requires a handler");
        let gathered = handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
        for ((var, _), seq) in chain.binds.iter().zip(gathered) {
            self.env.push((var.to_string(), seq));
        }
        let r = self.eval(chain.tail);
        for _ in 0..chain.binds.len() {
            self.env.pop();
        }
        r
    }

    fn eval_bulk_for(&mut self, var: &str, input: Sequence, plan: BulkPlan<'_>) -> EvalResult {
        let mut calls: Vec<Vec<(String, Sequence)>> = Vec::with_capacity(input.len());
        for item in input.iter() {
            self.env.push((var.to_string(), Sequence::unit(item.clone())));
            let mut pushed = 1usize;
            let mut bound: EvalResult<Vec<(String, Sequence)>> = Ok(Vec::new());
            for (lv, lval) in &plan.lets {
                match self.eval(lval) {
                    Ok(v) => {
                        self.env.push((lv.to_string(), v));
                        pushed += 1;
                    }
                    Err(e) => {
                        bound = Err(e);
                        break;
                    }
                }
            }
            if bound.is_ok() {
                let mut params = Vec::with_capacity(plan.params.len());
                for p in plan.params {
                    match self.lookup(&p.outer) {
                        Ok(v) => params.push((p.var.clone(), v)),
                        Err(e) => {
                            bound = Err(e);
                            break;
                        }
                    }
                }
                if bound.is_ok() {
                    bound = Ok(params);
                }
            }
            for _ in 0..pushed {
                self.env.pop();
            }
            calls.push(bound?);
        }
        let handler = self.remote.as_mut().expect("bulk path requires a handler");
        let results = handler.execute_bulk(
            self.store,
            &self.static_ctx,
            &plan.peer,
            &calls,
            plan.body,
            plan.projection,
        )?;
        Ok(results.into_iter().flatten().collect())
    }
}

fn single_node(seq: &[Item], what: &str) -> EvalResult<NodeId> {
    match seq {
        [Item::Node(n)] => Ok(*n),
        _ => Err(EvalError::new(format!("{what} requires a single node operand"))),
    }
}

fn compare_order_keys(a: &Option<Atomic>, b: &Option<Atomic>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less, // empty least
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            // numeric if both castable, else string
            if let (Some(nx), Some(ny)) = (to_number(x), to_number(y)) {
                nx.partial_cmp(&ny).unwrap_or(Ordering::Equal)
            } else {
                x.to_lexical().cmp(&y.to_lexical())
            }
        }
    }
}

/// Does `seq` match the sequence type? (typeswitch dispatch).
pub fn matches_seq_type(store: &Store, seq: &[Item], t: &SeqType) -> bool {
    if t.item == ItemType::EmptySequence {
        return seq.is_empty();
    }
    let len_ok = match t.occurrence {
        Occurrence::One => seq.len() == 1,
        Occurrence::Optional => seq.len() <= 1,
        Occurrence::ZeroOrMore => true,
        Occurrence::OneOrMore => !seq.is_empty(),
    };
    if !len_ok {
        return false;
    }
    seq.iter().all(|item| matches_item_type(store, item, &t.item))
}

fn matches_item_type(store: &Store, item: &Item, t: &ItemType) -> bool {
    match (t, item) {
        (ItemType::AnyItem, _) => true,
        (ItemType::AnyNode, Item::Node(_)) => true,
        (ItemType::Element(name), Item::Node(n)) => {
            let doc = store.doc(n.doc);
            doc.kind(n.idx) == NodeKind::Element
                && name
                    .as_ref()
                    .map(|nm| store.names.resolve(doc.name(n.idx)) == nm)
                    .unwrap_or(true)
        }
        (ItemType::Attribute(name), Item::Node(n)) => {
            let doc = store.doc(n.doc);
            doc.kind(n.idx) == NodeKind::Attribute
                && name
                    .as_ref()
                    .map(|nm| store.names.resolve(doc.name(n.idx)) == nm)
                    .unwrap_or(true)
        }
        (ItemType::TextNode, Item::Node(n)) => store.doc(n.doc).kind(n.idx) == NodeKind::Text,
        (ItemType::DocumentNode, Item::Node(n)) => {
            store.doc(n.doc).kind(n.idx) == NodeKind::Document
        }
        (ItemType::AtomicStr, Item::Atom(Atomic::Str(_))) => true,
        (ItemType::AtomicInt, Item::Atom(Atomic::Int(_))) => true,
        (ItemType::AtomicDbl, Item::Atom(Atomic::Dbl(_))) => true,
        (ItemType::AtomicBool, Item::Atom(Atomic::Bool(_))) => true,
        (ItemType::AtomicUntyped, Item::Atom(Atomic::Untyped(_))) => true,
        _ => false,
    }
}

/// Evaluates a whole module against a store with local-only resolution.
/// The main entry point for single-peer ("local execution") semantics.
pub fn eval_query(store: &mut Store, module: &QueryModule) -> EvalResult {
    eval_query_with_indexes(store, module, true)
}

/// [`eval_query`] with the indexed path-step engine explicitly toggled —
/// the hook the equivalence tests and the `paths` bench compare through.
pub fn eval_query_with_indexes(
    store: &mut Store,
    module: &QueryModule,
    use_indexes: bool,
) -> EvalResult {
    let mut resolver = LocalResolver;
    let mut ev =
        Evaluator::new(store, &module.functions, &mut resolver).with_indexes(use_indexes);
    ev.eval(&module.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn store_with(doc: &str) -> Store {
        let mut s = Store::new();
        xqd_xml::parse_document(&mut s, doc, Some("d.xml")).unwrap();
        s
    }

    fn run(src: &str, use_indexes: bool) -> EvalResult {
        let module = parse_query(src).unwrap();
        eval_query_with_indexes(&mut store_with(DOC), &module, use_indexes)
    }

    const DOC: &str = r#"<root><group id="g1"><item id="k1"><v>7</v></item>
        <item id="k2"><v>12</v></item></group>
        <group id="g2"><item id="k3"><v>30</v></item><entry>x</entry></group></root>"#;

    #[test]
    fn core_shapes_agree_with_indexes_on_and_off() {
        let queries = [
            "count(doc(\"d.xml\")//item)",
            "doc(\"d.xml\")//item/@id",
            "for $x in doc(\"d.xml\")//v order by $x descending return $x/text()",
            "sum(for $v in doc(\"d.xml\")//v return $v)",
            "(doc(\"d.xml\")//v)[2]",
            "count(doc(\"d.xml\")//item[v > 10])",
            "doc(\"d.xml\")//group except doc(\"d.xml\")//group[@id = \"g2\"]",
            "element out { doc(\"d.xml\")//item/@id }",
            "string-join(for $i in doc(\"d.xml\")//item return name($i), \",\")",
            "typeswitch ((doc(\"d.xml\")//item)[1]) case $e as element(item) \
             return name($e) default $d return \"none\"",
            "declare function f($n as node()) as xs:string { name($n) }; \
             for $g in doc(\"d.xml\")//group return f($g)",
            "some $x in doc(\"d.xml\")//item satisfies $x/@id = \"k2\"",
            "(doc(\"d.xml\")//item)[1] << (doc(\"d.xml\")//item)[2]",
        ];
        for q in queries {
            assert_eq!(
                format!("{:?}", run(q, true)),
                format!("{:?}", run(q, false)),
                "index toggle changed {q}"
            );
        }
    }

    #[test]
    fn errors_carry_their_messages() {
        let cases = [
            ("1 div 0", "division by zero"),
            ("nosuchfn(1)", "unknown function nosuchfn()"),
            ("count(1, 2)", "unknown function count()"),
            ("sum(doc(\"d.xml\")//item) + missing()", "unknown function missing()"),
            ("(1)/child::a", "axis step applied to an atomic value"),
            ("declare function g($a) { g($a) }; g(1)", "call depth exceeded in g()"),
        ];
        for (q, want) in cases {
            for idx in [true, false] {
                let err = run(q, idx).unwrap_err();
                assert_eq!(err.message, want, "{q} (indexes={idx})");
            }
        }
    }

    #[test]
    fn names_resolve_lazily_for_constructed_docs() {
        // "made" is interned only when the constructor runs, after the step
        // name has been looked up (and missed) once: the memo must not
        // cache that miss, or the constructed element would stay invisible
        let q = "for $i in (1, 2) return count(element wrap { element made { } }//made)";
        for idx in [true, false] {
            assert_eq!(format!("{:?}", run(q, idx)), "Ok([Atom(Int(1)), Atom(Int(1))])");
        }
    }

    #[test]
    fn name_memo_keeps_hits_only_and_stays_bounded() {
        let mut names = NameTable::new();
        let mut memo = NameMemo::default();
        let step = String::from("a");
        assert_eq!(memo.resolve(&names, &step), None);
        assert!(memo.0.is_empty(), "a miss is never cached");
        let a = names.intern("a");
        assert_eq!(memo.resolve(&names, &step), Some(a));
        assert_eq!(memo.resolve(&names, &step), Some(a));
        assert_eq!(memo.0.len(), 1);
        // past the cap, lookups still answer from the table
        let many: Vec<String> = (0..NAME_MEMO_CAP + 8).map(|i| format!("n{i}")).collect();
        let ids: Vec<NameId> = many.iter().map(|n| names.intern(n)).collect();
        for (n, id) in many.iter().zip(&ids) {
            assert_eq!(memo.resolve(&names, n), Some(*id));
        }
        assert_eq!(memo.0.len(), NAME_MEMO_CAP);
        // an equal name at another address is a separate entry point but
        // the same id
        assert_eq!(memo.resolve(&names, &String::from("a")), Some(a));
    }

    #[test]
    fn scatter_rounds_are_detected() {
        let q = "let $a := execute at { \"p1\" } params () { 1 } \
                 let $b := execute at { \"p2\" } params () { 2 } \
                 return ($a, $b)";
        let module = parse_query(q).unwrap();
        assert_eq!(scatter_rounds(&module.body), vec![2]);
        assert!(let_scatter(&module.body).is_some_and(|c| c.binds.len() == 2));
    }

    #[test]
    fn bulk_shape_is_detected_on_for() {
        let q = "for $x in (1, 2) return execute at { \"p1\" } params () { 0 }";
        let module = parse_query(q).unwrap();
        let Expr::For { ret, .. } = &module.body else { panic!("expected a for") };
        assert!(bulk_pattern(ret).is_some_and(|b| b.peer == "p1"));
    }
}
