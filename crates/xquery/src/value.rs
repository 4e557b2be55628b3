//! XDM values: items, sequences, atomization, effective boolean value,
//! comparison semantics and `fn:deep-equal`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use xqd_xml::{NodeId, NodeKind, Store};

use crate::ast::{Atomic, CompOp};

/// One XDM item: a node reference or an atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Node(NodeId),
    Atom(Atomic),
}

/// An XDM sequence. Flat by construction (nesting is impossible in XDM).
///
/// Backed by an `Arc<Vec<Item>>` so that variable lookups, FLWOR bindings
/// and scatter-round request building share one allocation instead of
/// deep-cloning item vectors; `Arc` rather than `Rc` because bound sequences
/// cross threads in the parallel Bulk-RPC executor. Sequences are
/// copy-on-write: construction sites build a plain `Vec<Item>` and convert
/// once via `From`, and the rare mutating consumers go through
/// [`Sequence::to_vec`] / [`Sequence::into_vec`].
#[derive(Clone, Default)]
pub struct Sequence(Arc<Vec<Item>>);

impl Sequence {
    /// The empty sequence `()`.
    pub fn new() -> Self {
        Sequence::default()
    }

    /// A singleton sequence.
    pub fn unit(item: Item) -> Self {
        Sequence(Arc::new(vec![item]))
    }

    pub fn as_slice(&self) -> &[Item] {
        &self.0
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.0.iter()
    }

    /// Owned copy of the items (always clones).
    pub fn to_vec(&self) -> Vec<Item> {
        self.0.as_ref().clone()
    }

    /// Owned items; reuses the allocation when this is the only handle.
    pub fn into_vec(self) -> Vec<Item> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// True if both handles share one allocation: the same bound value,
    /// not merely equal items.
    pub fn ptr_eq(&self, other: &Sequence) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True if another handle to this allocation exists. A sequence only
    /// its holder references is dropped with it and can never be seen again.
    fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Address of the shared allocation: the identity [`CompareMemo`] keys on.
    fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

// Debug matches `Vec<Item>` so diagnostics and doctest expectations read as
// the plain item list.
impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl std::ops::Deref for Sequence {
    type Target = [Item];

    fn deref(&self) -> &[Item] {
        &self.0
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Self {
        Sequence(Arc::new(items))
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Sequence(Arc::new(iter.into_iter().collect()))
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<Item>> for Sequence {
    fn eq(&self, other: &Vec<Item>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Sequence> for Vec<Item> {
    fn eq(&self, other: &Sequence) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Item]> for Sequence {
    fn eq(&self, other: &[Item]) -> bool {
        self.as_slice() == other
    }
}

/// Evaluation errors (dynamic errors per XQuery, with err:-style codes
/// collapsed into a message).
///
/// `code` is an optional machine-readable error code. Plain dynamic errors
/// carry `None`; the XRPC layer tags transport failures with `xrpc:*` codes
/// so typed failure semantics survive the `EvalResult` plumbing between the
/// evaluator and the distributed executor (the `xquery` crate cannot depend
/// on `xqd-xrpc`, so the taxonomy itself lives there and round-trips
/// through this field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    pub message: String,
    pub code: Option<String>,
}

impl EvalError {
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { message: msg.into(), code: None }
    }

    /// An error with a machine-readable code (e.g. `xrpc:timeout`).
    pub fn with_code(code: impl Into<String>, msg: impl Into<String>) -> Self {
        EvalError { message: msg.into(), code: Some(code.into()) }
    }

    /// True if the error carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.code.as_deref() == Some(code)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.code {
            Some(c) => write!(f, "evaluation error [{c}]: {}", self.message),
            None => write!(f, "evaluation error: {}", self.message),
        }
    }
}

impl std::error::Error for EvalError {}

pub type EvalResult<T = Sequence> = Result<T, EvalError>;

/// Atomizes one item (node → untyped atomic of its string value).
pub fn atomize_item(store: &Store, item: &Item) -> Atomic {
    match item {
        Item::Atom(a) => a.clone(),
        Item::Node(n) => Atomic::Untyped(store.doc(n.doc).string_value(n.idx)),
    }
}

/// Atomizes a sequence.
pub fn atomize(store: &Store, seq: &[Item]) -> Vec<Atomic> {
    seq.iter().map(|i| atomize_item(store, i)).collect()
}

/// String value of one item (`fn:string`).
pub fn string_value(store: &Store, item: &Item) -> String {
    match item {
        Item::Atom(a) => a.to_lexical(),
        Item::Node(n) => store.doc(n.doc).string_value(n.idx),
    }
}

/// Numeric promotion of an atomic, if possible.
pub fn to_number(a: &Atomic) -> Option<f64> {
    match a {
        Atomic::Int(i) => Some(*i as f64),
        Atomic::Dbl(d) => Some(*d),
        Atomic::Str(s) | Atomic::Untyped(s) => parse_double(s.trim()),
        Atomic::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
    }
}

/// Parses the xs:double lexical space. Rust's `f64::from_str` also takes
/// `inf`, `infinity` and `nan` in any case; XML Schema spells the specials
/// only `INF`, `+INF`, `-INF` and `NaN`, so every other letter but an
/// exponent marker is rejected before the numeric parse.
fn parse_double(s: &str) -> Option<f64> {
    match s {
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ if s.bytes().all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)) => s.parse().ok(),
        _ => None,
    }
}

/// Effective boolean value (XPath 2.0 §2.4.3).
pub fn effective_boolean_value(seq: &[Item]) -> EvalResult<bool> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atom(a)] => Ok(match a {
            Atomic::Bool(b) => *b,
            Atomic::Str(s) | Atomic::Untyped(s) => !s.is_empty(),
            Atomic::Int(i) => *i != 0,
            Atomic::Dbl(d) => *d != 0.0 && !d.is_nan(),
        }),
        _ => Err(EvalError::new("effective boolean value of a multi-atom sequence")),
    }
}

/// Compares two atomics under general-comparison casting rules:
/// untyped vs numeric → numeric, untyped vs string/untyped → string,
/// untyped vs boolean → boolean.
pub fn compare_atomics(op: CompOp, l: &Atomic, r: &Atomic) -> EvalResult<bool> {
    use Atomic::*;
    let ord = match (l, r) {
        (Int(a), Int(b)) => a.partial_cmp(b),
        (Int(_) | Dbl(_), Int(_) | Dbl(_)) => {
            to_number(l).unwrap().partial_cmp(&to_number(r).unwrap())
        }
        (Untyped(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Untyped(_)) => {
            let a = to_number(l)
                .ok_or_else(|| EvalError::new(format!("cannot cast {l:?} to number")))?;
            let b = to_number(r)
                .ok_or_else(|| EvalError::new(format!("cannot cast {r:?} to number")))?;
            a.partial_cmp(&b)
        }
        (Bool(a), Bool(b)) => a.partial_cmp(b),
        (Untyped(s), Bool(b)) | (Bool(b), Untyped(s)) => {
            let parsed = match s.trim() {
                "true" | "1" => true,
                "false" | "0" => false,
                _ => return Err(EvalError::new(format!("cannot cast {s:?} to boolean"))),
            };
            if matches!(l, Bool(_)) {
                b.partial_cmp(&parsed)
            } else {
                parsed.partial_cmp(b)
            }
        }
        (Str(a) | Untyped(a), Str(b) | Untyped(b)) => a.partial_cmp(b),
        (Str(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Str(_)) => {
            return Err(EvalError::new("cannot compare xs:string with a number"))
        }
        (Str(_), Bool(_)) | (Bool(_), Str(_)) => {
            return Err(EvalError::new("cannot compare xs:string with xs:boolean"))
        }
        (Bool(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Bool(_)) => {
            return Err(EvalError::new("cannot compare xs:boolean with a number"))
        }
    };
    let Some(ord) = ord else {
        return Ok(false); // NaN comparisons are false
    };
    Ok(match op {
        CompOp::Eq => ord == std::cmp::Ordering::Equal,
        CompOp::Ne => ord != std::cmp::Ordering::Equal,
        CompOp::Lt => ord == std::cmp::Ordering::Less,
        CompOp::Le => ord != std::cmp::Ordering::Greater,
        CompOp::Gt => ord == std::cmp::Ordering::Greater,
        CompOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

/// General comparison: existential over the atomized operand sequences.
pub fn general_compare(
    store: &Store,
    op: CompOp,
    lhs: &[Item],
    rhs: &[Item],
) -> EvalResult<bool> {
    let l = atomize(store, lhs);
    let r = atomize(store, rhs);
    for a in &l {
        for b in &r {
            if compare_atomics(op, a, b)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// The string of a string-class atom (`xs:string` or `xs:untypedAtomic`),
/// `None` for any other type. Between two string-class atoms `eq` is plain
/// codepoint equality and can never raise a type error.
pub fn string_class(a: &Atomic) -> Option<&str> {
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => Some(s),
        _ => None,
    }
}

/// Distinct strings of string-class atoms: a hash lookup decides `eq`
/// against any of them.
#[derive(Debug, Default)]
pub struct StringClassSet(HashSet<String>);

impl StringClassSet {
    /// The set of `atoms`' strings, or `None` if any atom is not string-class.
    pub fn from_atoms(atoms: Vec<Atomic>) -> Option<Self> {
        atoms
            .into_iter()
            .map(|a| match a {
                Atomic::Str(s) | Atomic::Untyped(s) => Some(s),
                _ => None,
            })
            .collect::<Option<HashSet<String>>>()
            .map(StringClassSet)
    }

    pub fn contains(&self, s: &str) -> bool {
        self.0.contains(s)
    }

    /// Adds `s`; true if it was not yet present.
    pub fn insert(&mut self, s: &str) -> bool {
        !self.0.contains(s) && self.0.insert(s.to_owned())
    }
}

/// Request-scoped memo that turns `=` against a recurring operand into a
/// hash probe, with exactly [`general_compare`]'s answers.
///
/// A keyset bound once (a `let`, a shipped XRPC parameter) and compared
/// inside a loop arrives as the same [`Sequence`] allocation on every
/// iteration, so the memo keys on that `Arc` identity. The first sighting
/// is only recorded, which keeps one-shot comparisons free. The second
/// atomizes the operand once into a [`StringClassSet`], and every later
/// `=` probes it. The probe answers only when both operands are wholly
/// string-class: then no pair can raise an error and the existential
/// answer does not depend on the scan order. Any other operator or type
/// mix falls through to [`general_compare`]'s nested loop unchanged, first
/// error included.
///
/// Each entry holds a clone of its sequence, so no other value can take
/// its address while the entry lives. One memo belongs to one
/// [`Evaluator`](crate::Evaluator), so it is dropped with its request.
#[derive(Default)]
pub struct CompareMemo {
    entries: HashMap<usize, MemoEntry>,
    /// Entry count at which entries held by nothing but the memo are swept.
    sweep_at: usize,
}

struct MemoEntry {
    seq: Sequence,
    keys: MemoKeys,
}

enum MemoKeys {
    /// Seen once; atomized on the next sighting.
    Seen,
    Strings(StringClassSet),
    /// Some atom is not string-class: never probed.
    Mixed,
}

impl CompareMemo {
    /// [`general_compare`] through the memo.
    pub fn general_compare(
        &mut self,
        store: &Store,
        op: CompOp,
        lhs: &Sequence,
        rhs: &Sequence,
    ) -> EvalResult<bool> {
        if op == CompOp::Eq {
            if let Some(hit) = self.probe(store, rhs, lhs).or_else(|| self.probe(store, lhs, rhs)) {
                return Ok(hit);
            }
        }
        general_compare(store, op, lhs, rhs)
    }

    /// `other = keys` by hash probe, or `None` when either operand is not
    /// wholly string-class or `keys` has no set yet.
    fn probe(&mut self, store: &Store, keys: &Sequence, other: &Sequence) -> Option<bool> {
        let set = self.string_keys(store, keys)?;
        let mut hit = false;
        for item in other.iter() {
            // every atom must be checked before answering: a non-string
            // atom anywhere hands the whole comparison to the nested loop
            hit |= set.contains(string_class(&atomize_item(store, item))?);
        }
        Some(hit)
    }

    /// Records a sighting of `seq` and returns its string set from the
    /// second sighting on.
    fn string_keys(&mut self, store: &Store, seq: &Sequence) -> Option<&StringClassSet> {
        if !seq.is_shared() {
            return None;
        }
        let key = seq.addr();
        if !self.entries.contains_key(&key) {
            self.sweep();
            self.entries.insert(key, MemoEntry { seq: seq.clone(), keys: MemoKeys::Seen });
            return None;
        }
        let entry = self.entries.get_mut(&key)?;
        debug_assert!(entry.seq.ptr_eq(seq));
        if let MemoKeys::Seen = entry.keys {
            entry.keys = match StringClassSet::from_atoms(atomize(store, seq)) {
                Some(set) => MemoKeys::Strings(set),
                None => MemoKeys::Mixed,
            };
        }
        match &entry.keys {
            MemoKeys::Strings(set) => Some(set),
            _ => None,
        }
    }

    /// Drops entries whose sequence nothing but the memo still holds: they
    /// can never be compared again. Sweeping at twice the surviving count
    /// keeps the cost amortized O(1) per insert and the memo at most twice
    /// its live size.
    fn sweep(&mut self) {
        if self.entries.len() >= self.sweep_at {
            self.entries.retain(|_, e| e.seq.is_shared());
            self.sweep_at = 2 * self.entries.len() + 1;
        }
    }
}

/// Sorts a node sequence into document order and removes duplicates.
/// Errors if the sequence contains atomic items. Operates on the plain item
/// vector: builders sort before converting into a shared [`Sequence`].
pub fn sort_document_order(seq: &mut Vec<Item>) -> EvalResult<()> {
    for item in seq.iter() {
        if matches!(item, Item::Atom(_)) {
            return Err(EvalError::new("document-order sort of a non-node sequence"));
        }
    }
    seq.sort_by_key(|i| match i {
        Item::Node(n) => *n,
        Item::Atom(_) => unreachable!(),
    });
    seq.dedup();
    Ok(())
}

/// `fn:deep-equal` over two sequences (default collation, no NaN-equals
/// subtleties: our atomics compare with general `Eq` semantics).
pub fn deep_equal(store: &Store, lhs: &[Item], rhs: &[Item]) -> bool {
    if lhs.len() != rhs.len() {
        return false;
    }
    lhs.iter().zip(rhs).all(|(l, r)| deep_equal_item(store, l, r))
}

fn deep_equal_item(store: &Store, l: &Item, r: &Item) -> bool {
    match (l, r) {
        (Item::Atom(a), Item::Atom(b)) => {
            compare_atomics(CompOp::Eq, a, b).unwrap_or(false)
        }
        (Item::Node(a), Item::Node(b)) => deep_equal_node(store, *a, *b),
        _ => false,
    }
}

fn deep_equal_node(store: &Store, a: NodeId, b: NodeId) -> bool {
    let da = store.doc(a.doc);
    let db = store.doc(b.doc);
    let (ka, kb) = (da.kind(a.idx), db.kind(b.idx));
    if ka != kb {
        return false;
    }
    match ka {
        NodeKind::Text | NodeKind::Comment => da.value(a.idx) == db.value(b.idx),
        NodeKind::Pi => da.name(a.idx) == db.name(b.idx) && da.value(a.idx) == db.value(b.idx),
        NodeKind::Attribute => {
            store.names.resolve(da.name(a.idx)) == store.names.resolve(db.name(b.idx))
                && da.value(a.idx) == db.value(b.idx)
        }
        NodeKind::Element => {
            if store.names.resolve(da.name(a.idx)) != store.names.resolve(db.name(b.idx)) {
                return false;
            }
            // attribute sets must match (order-insensitive)
            let attrs_a: Vec<(String, String)> = da
                .attributes(a.idx)
                .map(|x| {
                    (
                        store.names.resolve(da.name(x)).to_string(),
                        da.value(x).unwrap_or("").to_string(),
                    )
                })
                .collect();
            let attrs_b: Vec<(String, String)> = db
                .attributes(b.idx)
                .map(|x| {
                    (
                        store.names.resolve(db.name(x)).to_string(),
                        db.value(x).unwrap_or("").to_string(),
                    )
                })
                .collect();
            if attrs_a.len() != attrs_b.len() {
                return false;
            }
            for pair in &attrs_a {
                if !attrs_b.contains(pair) {
                    return false;
                }
            }
            deep_equal_children(store, a, b)
        }
        NodeKind::Document => deep_equal_children(store, a, b),
    }
}

fn deep_equal_children(store: &Store, a: NodeId, b: NodeId) -> bool {
    // comparable children: elements and text (XQuery F&O deep-equal ignores
    // comments and PIs)
    let da = store.doc(a.doc);
    let db = store.doc(b.doc);
    let ca: Vec<u32> = da
        .children(a.idx)
        .filter(|&c| matches!(da.kind(c), NodeKind::Element | NodeKind::Text))
        .collect();
    let cb: Vec<u32> = db
        .children(b.idx)
        .filter(|&c| matches!(db.kind(c), NodeKind::Element | NodeKind::Text))
        .collect();
    if ca.len() != cb.len() {
        return false;
    }
    ca.iter().zip(&cb).all(|(&x, &y)| {
        deep_equal_node(store, NodeId::new(a.doc, x), NodeId::new(b.doc, y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xml::parse_document;

    #[test]
    fn ebv_rules() {
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Bool(true))]).unwrap());
        assert!(!effective_boolean_value(&[Item::Atom(Atomic::Str("".into()))]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Str("x".into()))]).unwrap());
        assert!(!effective_boolean_value(&[Item::Atom(Atomic::Int(0))]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Dbl(0.5))]).unwrap());
        assert!(effective_boolean_value(&[
            Item::Atom(Atomic::Int(1)),
            Item::Atom(Atomic::Int(2))
        ])
        .is_err());
    }

    #[test]
    fn untyped_casting_in_comparisons() {
        // untyped vs number → numeric
        assert!(compare_atomics(CompOp::Lt, &Atomic::Untyped("39".into()), &Atomic::Int(40))
            .unwrap());
        assert!(!compare_atomics(CompOp::Lt, &Atomic::Untyped("41".into()), &Atomic::Int(40))
            .unwrap());
        // untyped vs untyped → string
        assert!(compare_atomics(
            CompOp::Eq,
            &Atomic::Untyped("abc".into()),
            &Atomic::Untyped("abc".into())
        )
        .unwrap());
        // "10" < "9" as strings
        assert!(compare_atomics(
            CompOp::Lt,
            &Atomic::Untyped("10".into()),
            &Atomic::Untyped("9".into())
        )
        .unwrap());
        // string vs number is a type error
        assert!(compare_atomics(CompOp::Eq, &Atomic::Str("1".into()), &Atomic::Int(1)).is_err());
    }

    #[test]
    fn general_comparison_is_existential() {
        let store = Store::new();
        let lhs = vec![Item::Atom(Atomic::Int(1)), Item::Atom(Atomic::Int(5))];
        let rhs = vec![Item::Atom(Atomic::Int(5))];
        assert!(general_compare(&store, CompOp::Eq, &lhs, &rhs).unwrap());
        assert!(general_compare(&store, CompOp::Lt, &lhs, &rhs).unwrap());
        assert!(!general_compare(&store, CompOp::Gt, &lhs, &rhs).unwrap());
        assert!(!general_compare(&store, CompOp::Eq, &[], &rhs).unwrap());
    }

    #[test]
    fn deep_equal_structural() {
        let mut s = Store::new();
        let d1 = parse_document(&mut s, "<a x=\"1\" y=\"2\"><b>t</b></a>", None).unwrap();
        let d2 = parse_document(&mut s, "<a y=\"2\" x=\"1\"><b>t</b></a>", None).unwrap();
        let d3 = parse_document(&mut s, "<a x=\"1\"><b>t</b></a>", None).unwrap();
        let n1 = Item::Node(NodeId::new(d1, 1));
        let n2 = Item::Node(NodeId::new(d2, 1));
        let n3 = Item::Node(NodeId::new(d3, 1));
        assert!(deep_equal(&s, std::slice::from_ref(&n1), std::slice::from_ref(&n2)));
        assert!(!deep_equal(&s, std::slice::from_ref(&n1), std::slice::from_ref(&n3)));
        assert!(!deep_equal(&s, std::slice::from_ref(&n1), &[n1.clone(), n2.clone()]));
    }

    #[test]
    fn deep_equal_ignores_comments() {
        let mut s = Store::new();
        let d1 = parse_document(&mut s, "<a><!--x--><b/></a>", None).unwrap();
        let d2 = parse_document(&mut s, "<a><b/></a>", None).unwrap();
        assert!(deep_equal(
            &s,
            &[Item::Node(NodeId::new(d1, 1))],
            &[Item::Node(NodeId::new(d2, 1))]
        ));
    }

    #[test]
    fn deep_equal_atom_vs_node_is_false() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a>1</a>", None).unwrap();
        assert!(!deep_equal(
            &s,
            &[Item::Node(NodeId::new(d, 1))],
            &[Item::Atom(Atomic::Int(1))]
        ));
    }

    #[test]
    fn sort_document_order_dedups() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><b/><c/></a>", None).unwrap();
        let mut seq = vec![
            Item::Node(NodeId::new(d, 3)),
            Item::Node(NodeId::new(d, 2)),
            Item::Node(NodeId::new(d, 3)),
        ];
        sort_document_order(&mut seq).unwrap();
        assert_eq!(seq, vec![Item::Node(NodeId::new(d, 2)), Item::Node(NodeId::new(d, 3))]);
        let mut bad = vec![Item::Atom(Atomic::Int(1))];
        assert!(sort_document_order(&mut bad).is_err());
    }

    #[test]
    fn double_lexical_space_is_xml_schema() {
        let num = |s: &str| to_number(&Atomic::Untyped(s.into()));
        assert_eq!(num("INF"), Some(f64::INFINITY));
        assert_eq!(num("+INF"), Some(f64::INFINITY));
        assert_eq!(num(" -INF "), Some(f64::NEG_INFINITY));
        assert!(num("NaN").unwrap().is_nan());
        assert_eq!(num("1.5e3"), Some(1500.0));
        assert_eq!(num("-.5"), Some(-0.5));
        assert_eq!(num("7."), Some(7.0));
        for bad in [
            "inf", "Inf", "-inf", "+inf", "Infinity", "infinity", "-Infinity", "INFINITY",
            "nan", "NAN", "-NaN", "+NaN", "", ".", "e3", "1e", "0x10",
        ] {
            assert_eq!(num(bad), None, "{bad:?} is not in the xs:double lexical space");
        }
        // a double's own lexical form reads back
        for d in [f64::INFINITY, f64::NEG_INFINITY, 2.5] {
            assert_eq!(num(&Atomic::Dbl(d).to_lexical()), Some(d));
        }
        // untyped vs number casts to xs:double: a Rust-only spelling is a
        // cast error, not a comparison with infinity
        let inf = Atomic::Untyped("inf".into());
        assert!(compare_atomics(CompOp::Lt, &inf, &Atomic::Int(3)).is_err());
        assert!(!compare_atomics(CompOp::Lt, &Atomic::Untyped("INF".into()), &Atomic::Int(3))
            .unwrap());
    }

    fn strs(vals: &[&str]) -> Sequence {
        vals.iter().map(|v| Item::Atom(Atomic::Untyped(v.to_string()))).collect()
    }

    #[test]
    fn memo_builds_the_set_on_the_second_sighting() {
        let store = Store::new();
        let mut memo = CompareMemo::default();
        let keys = strs(&["a", "b", "c"]);
        let bound = keys.clone(); // as a variable binding holds it
        let key = keys.addr();
        assert!(memo.general_compare(&store, CompOp::Eq, &strs(&["b"]), &keys).unwrap());
        assert!(matches!(memo.entries[&key].keys, MemoKeys::Seen));
        assert!(!memo.general_compare(&store, CompOp::Eq, &strs(&["z"]), &keys).unwrap());
        assert!(matches!(memo.entries[&key].keys, MemoKeys::Strings(_)));
        assert!(memo.general_compare(&store, CompOp::Eq, &keys, &strs(&["z", "c"])).unwrap());
        // an unshared temporary can never recur and is never recorded
        assert!(!memo.entries.keys().any(|&k| k != key));
        // a non-string atom on the probed side takes the nested loop, error
        // included
        let mixed: Sequence = vec![Item::Atom(Atomic::Int(1))].into();
        assert!(memo.general_compare(&store, CompOp::Eq, &mixed, &keys).is_err());
        drop(bound);
    }

    #[test]
    fn memo_sweeps_entries_only_it_still_holds() {
        let store = Store::new();
        let mut memo = CompareMemo::default();
        let live = strs(&["k"]);
        let _live_binding = live.clone();
        memo.general_compare(&store, CompOp::Eq, &strs(&["x"]), &live).unwrap();
        for i in 0..1000 {
            let dead = strs(&[&i.to_string()]);
            let binding = dead.clone();
            memo.general_compare(&store, CompOp::Eq, &strs(&["x"]), &binding).unwrap();
        }
        assert!(memo.entries.len() <= 4, "memo kept {} entries", memo.entries.len());
        assert!(memo.entries.contains_key(&live.addr()));
    }

    #[test]
    fn nan_comparisons_are_false() {
        assert!(!compare_atomics(CompOp::Eq, &Atomic::Dbl(f64::NAN), &Atomic::Dbl(1.0)).unwrap());
        assert!(!compare_atomics(CompOp::Lt, &Atomic::Dbl(f64::NAN), &Atomic::Dbl(1.0)).unwrap());
    }
}
