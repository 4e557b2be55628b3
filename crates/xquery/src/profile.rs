//! Per-node execution profiles for `EXPLAIN ANALYZE`.
//!
//! A profile is keyed on the preorder number of each node of the evaluated
//! expression ([`Expr::walk`] order, the root is `0`). The evaluator finds
//! a node's number through the address of the node it is evaluating, so a
//! profile only counts evaluations of the very tree it was built over;
//! [`ExprProfile::dump`] then prints it over any structurally identical
//! tree (for example the decomposition clone a run returns).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::ast::*;

/// Execution profile of one run: per-node counters plus inclusive
/// simulated-time attribution, indexed by preorder number.
///
/// Time is read from a shared simulated-clock cell (the tracer's) at node
/// entry and exit, so attribution uses exactly the timeline the executor
/// bills to the network metrics — wall-clock CPU never leaks in, which is
/// what keeps profiled chaos replays byte-identical. Re-entrant
/// activations of the same node (loop bodies, predicates) accrue inclusive
/// time only for the outermost activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprProfile {
    /// Times each node was evaluated.
    pub calls: Vec<u64>,
    /// Items produced, summed over each node's successful evaluations.
    pub items: Vec<u64>,
    /// Inclusive simulated nanoseconds per node.
    pub sim_ns: Vec<u64>,
    /// Live activation count per node (recursion guard).
    active: Vec<u32>,
    /// Clock reading at each node's outermost entry.
    started: Vec<u64>,
}

impl ExprProfile {
    fn new(nodes: usize) -> ExprProfile {
        ExprProfile {
            calls: vec![0; nodes],
            items: vec![0; nodes],
            sim_ns: vec![0; nodes],
            active: vec![0; nodes],
            started: vec![0; nodes],
        }
    }

    fn enter(&mut self, node: usize, now_ns: u64) {
        self.calls[node] += 1;
        if self.active[node] == 0 {
            self.started[node] = now_ns;
        }
        self.active[node] += 1;
    }

    fn exit(&mut self, node: usize, now_ns: u64, items: Option<u64>) {
        self.active[node] -= 1;
        if self.active[node] == 0 {
            self.sim_ns[node] += now_ns.saturating_sub(self.started[node]);
        }
        if let Some(n) = items {
            self.items[node] += n;
        }
    }

    /// Inclusive simulated time of the node with preorder number `node`.
    pub fn node_ns(&self, node: usize) -> u64 {
        self.sim_ns[node]
    }

    /// `EXPLAIN ANALYZE` output: `root` printed as an indented tree, one
    /// node per line, each annotated with its calls, items produced and
    /// inclusive simulated time (percentages against the root, which
    /// covers the whole evaluation by construction). The bodies of
    /// `execute at` run on peers, so their nodes show as not evaluated.
    pub fn dump(&self, root: &Expr) -> String {
        let total = self.sim_ns.first().copied().unwrap_or(0);
        let mut out = format!(
            "profile: {} nodes, total sim {:?}\n",
            self.calls.len(),
            Duration::from_nanos(total)
        );
        let mut next = 0usize;
        self.dump_node(root, 0, total, &mut next, &mut out);
        out
    }

    fn dump_node(&self, e: &Expr, depth: usize, total: u64, next: &mut usize, out: &mut String) {
        let i = *next;
        *next += 1;
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{i:>4}: {indent}{}", label(e));
        match self.calls.get(i) {
            None | Some(0) => out.push_str("  (not evaluated locally)\n"),
            Some(&calls) => {
                let pct = if total == 0 { 0.0 } else { self.sim_ns[i] as f64 * 100.0 / total as f64 };
                let _ = writeln!(
                    out,
                    "  calls={calls} items={} sim={:?} ({pct:.1}%)",
                    self.items[i],
                    Duration::from_nanos(self.sim_ns[i]),
                );
            }
        }
        e.for_each_child(&mut |c| self.dump_node(c, depth + 1, total, next, out));
    }
}

/// One-line description of a node, without its children.
fn label(e: &Expr) -> String {
    match e {
        Expr::Literal(_) | Expr::Empty | Expr::VarRef(_) | Expr::ContextItem => e.to_string(),
        Expr::Sequence(es) => format!("sequence of {}", es.len()),
        Expr::For { var, .. } => format!("for ${var}"),
        Expr::Let { var, .. } => format!("let ${var}"),
        Expr::If { .. } => "if".into(),
        Expr::Typeswitch { .. } => "typeswitch".into(),
        Expr::Comparison { op, .. } => format!("compare {}", op.symbol()),
        Expr::NodeComparison { op, .. } => format!("node compare {}", op.symbol()),
        Expr::NodeSet { op, .. } => op.keyword().to_string(),
        Expr::Arith { op, .. } => format!("arith {}", op.symbol()),
        Expr::OrderBy { specs, .. } => format!("order by {} key(s)", specs.len()),
        Expr::Construct(c) => match c {
            Constructor::Document { .. } => "document constructor".into(),
            Constructor::Text { .. } => "text constructor".into(),
            Constructor::Element { name, .. } => format!("element {}", elem_name(name)),
            Constructor::Attribute { name, .. } => format!("attribute {}", elem_name(name)),
        },
        Expr::Path { start, steps } => {
            let mut s = String::from(if start.is_some() { "path" } else { "path /" });
            for st in steps {
                let _ = write!(s, " {}::{}", st.axis.name(), st.test);
                if !st.predicates.is_empty() {
                    let _ = write!(s, "[{}]", st.predicates.len());
                }
            }
            s
        }
        Expr::Filter { .. } => "filter".into(),
        Expr::FunCall { name, args } => format!("{name}#{}", args.len()),
        Expr::And(..) => "and".into(),
        Expr::Or(..) => "or".into(),
        Expr::Execute { params, projection, .. } => format!(
            "execute at ({} param(s){})",
            params.len(),
            if projection.is_some() { ", projected" } else { "" }
        ),
    }
}

fn elem_name(n: &ElemName) -> &str {
    match n {
        ElemName::Static(s) => s,
        ElemName::Computed(_) => "{computed}",
    }
}

/// The evaluator-side profiling hook: where the per-node counters accrue,
/// which simulated clock they read, and the node-address → preorder map.
/// Cheap to clone; absent on unprofiled runs so the fast path stays a
/// single branch.
#[derive(Clone)]
pub struct ProfileHook {
    pub data: Rc<RefCell<ExprProfile>>,
    /// Shared simulated-clock cell — the tracer's, when tracing is on.
    clock: Arc<AtomicU64>,
    ids: Rc<HashMap<usize, usize>>,
}

impl ProfileHook {
    /// A fresh profile over `root`, read against `clock`.
    pub fn new(root: &Expr, clock: Arc<AtomicU64>) -> ProfileHook {
        let mut ids = HashMap::new();
        root.walk(&mut |e| {
            let n = ids.len();
            ids.insert(e as *const Expr as usize, n);
        });
        ProfileHook {
            data: Rc::new(RefCell::new(ExprProfile::new(ids.len()))),
            clock,
            ids: Rc::new(ids),
        }
    }

    /// Preorder number of `e`, when it belongs to the profiled tree.
    pub(crate) fn node(&self, e: &Expr) -> Option<usize> {
        self.ids.get(&(e as *const Expr as usize)).copied()
    }

    pub(crate) fn enter(&self, node: usize) {
        self.data.borrow_mut().enter(node, self.clock.load(Ordering::SeqCst));
    }

    pub(crate) fn exit(&self, node: usize, items: Option<u64>) {
        self.data.borrow_mut().exit(node, self.clock.load(Ordering::SeqCst), items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, LocalResolver};
    use crate::parser::parse_query;
    use xqd_xml::Store;

    #[test]
    fn profile_counts_nodes_in_preorder_and_dumps_the_tree() {
        let module = parse_query("for $x in (1, 2, 3) return if ($x > 5) then $x else ()").unwrap();
        let hook = ProfileHook::new(&module.body, Arc::default());
        let mut store = Store::new();
        let mut resolver = LocalResolver;
        Evaluator::new(&mut store, &[], &mut resolver)
            .with_profile(hook.clone())
            .eval(&module.body)
            .unwrap();
        let profile = hook.data.borrow().clone();
        // for, sequence, 1, 2, 3, if, compare, $x, 5, $x, ()
        assert_eq!(profile.calls, [1, 1, 1, 1, 1, 3, 3, 3, 3, 0, 3]);
        assert_eq!(profile.items[0], 0);
        let dump = profile.dump(&module.body);
        assert!(dump.starts_with("profile: 11 nodes"), "{dump}");
        assert!(dump.contains("   0: for $x  calls=1 items=0"), "{dump}");
        assert!(dump.contains("   6:     compare >  calls=3"), "{dump}");
        assert!(dump.contains("   9:     $x  (not evaluated locally)"), "{dump}");
    }
}
