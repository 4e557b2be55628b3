//! Built-in function library.
//!
//! Covers the functions the paper's analysis singles out (Problem 5):
//!
//! * class 1 — `static-base-uri`, `default-collation`, `current-dateTime`
//!   read the [`crate::eval::StaticContext`] (which XRPC ships in message
//!   headers so remote executions agree),
//! * class 2 — `base-uri` / `document-uri` consult the per-node
//!   [`xqd_xml::store::NodeMeta`] overrides that XRPC attaches to shredded
//!   fragments (the `xrpc:base-uri` / `xrpc:document-uri` wrappers of the
//!   paper are aliases of the same lookup),
//! * classes 3–4 — `root`, `id`, `idref`, which return non-descendants and
//!   therefore drive the by-projection machinery,
//!
//! plus the general-purpose F&O subset the examples and benchmarks use.

use xqd_xml::{NodeId, NodeKind};

use crate::ast::Atomic;
use crate::eval::Evaluator;
use crate::value::*;

/// Dispatches a built-in call. Returns `Ok(None)` if `name` is not a
/// built-in (the evaluator then tries user-defined functions).
pub fn eval_builtin(
    ev: &mut Evaluator,
    name: &str,
    args: &[Sequence],
) -> EvalResult<Option<Sequence>> {
    let bare = name.strip_prefix("fn:").unwrap_or(name);
    let result = match (bare, args.len()) {
        ("true", 0) => vec![Item::Atom(Atomic::Bool(true))],
        ("false", 0) => vec![Item::Atom(Atomic::Bool(false))],
        ("doc", 1) => {
            let uri = single_string(ev, &args[0])?;
            let doc = ev.resolver.resolve(ev.store, &uri)?;
            vec![Item::Node(NodeId::new(doc, 0))]
        }
        ("root", 1) => match args[0].as_slice() {
            [] => vec![],
            [Item::Node(n)] => vec![Item::Node(NodeId::new(n.doc, 0))],
            _ => return Err(EvalError::new("root() requires a single node")),
        },
        ("id", 2) => {
            let values = atomize(ev.store, &args[0]);
            let node = single_node_arg(&args[1], "id")?;
            let doc = ev.store.doc(node.doc);
            let mut out = Vec::new();
            for v in values {
                for tok in v.to_lexical().split_whitespace() {
                    if let Some(el) = doc.element_by_id(tok) {
                        out.push(Item::Node(NodeId::new(node.doc, el)));
                    }
                }
            }
            sort_document_order(&mut out)?;
            out
        }
        ("idref", 2) => {
            let values: Vec<String> = atomize(ev.store, &args[0])
                .iter()
                .flat_map(|a| {
                    a.to_lexical().split_whitespace().map(str::to_string).collect::<Vec<_>>()
                })
                .collect();
            let node = single_node_arg(&args[1], "idref")?;
            let doc = ev.store.doc(node.doc);
            let mut out = Vec::new();
            for (attr, val) in doc.idref_attributes(&ev.store.names) {
                if val.split_whitespace().any(|t| values.iter().any(|v| v == t)) {
                    out.push(Item::Node(NodeId::new(node.doc, attr)));
                }
            }
            sort_document_order(&mut out)?;
            out
        }
        ("base-uri", 1) | ("xrpc:base-uri", 1) => match args[0].as_slice() {
            [] => vec![],
            [Item::Node(n)] => {
                let doc = ev.store.doc(n.doc);
                let meta = doc.meta.get(&n.idx).and_then(|m| m.base_uri.clone());
                match meta.or_else(|| doc.base_uri.clone()) {
                    Some(u) => vec![Item::Atom(Atomic::Str(u))],
                    None => vec![],
                }
            }
            _ => return Err(EvalError::new("base-uri() requires a single node")),
        },
        ("document-uri", 1) | ("xrpc:document-uri", 1) => match args[0].as_slice() {
            [] => vec![],
            [Item::Node(n)] => {
                let doc = ev.store.doc(n.doc);
                let meta = doc.meta.get(&n.idx).and_then(|m| m.document_uri.clone());
                let effective = if doc.kind(n.idx) == NodeKind::Document || meta.is_some() {
                    meta.or_else(|| doc.uri.clone())
                } else {
                    None
                };
                match effective {
                    Some(u) => vec![Item::Atom(Atomic::Str(u))],
                    None => vec![],
                }
            }
            _ => return Err(EvalError::new("document-uri() requires a single node")),
        },
        ("static-base-uri", 0) => {
            vec![Item::Atom(Atomic::Str(ev.static_ctx.base_uri.clone()))]
        }
        ("default-collation", 0) => {
            vec![Item::Atom(Atomic::Str(ev.static_ctx.default_collation.clone()))]
        }
        ("current-dateTime", 0) => {
            vec![Item::Atom(Atomic::Str(ev.static_ctx.current_datetime.clone()))]
        }
        ("count", 1) => vec![Item::Atom(Atomic::Int(args[0].len() as i64))],
        ("empty", 1) => vec![Item::Atom(Atomic::Bool(args[0].is_empty()))],
        ("exists", 1) => vec![Item::Atom(Atomic::Bool(!args[0].is_empty()))],
        ("not", 1) => {
            vec![Item::Atom(Atomic::Bool(!effective_boolean_value(&args[0])?))]
        }
        ("boolean", 1) => {
            vec![Item::Atom(Atomic::Bool(effective_boolean_value(&args[0])?))]
        }
        ("string", 1) => match args[0].as_slice() {
            [] => vec![Item::Atom(Atomic::Str(String::new()))],
            [item] => vec![Item::Atom(Atomic::Str(string_value(ev.store, item)))],
            _ => return Err(EvalError::new("string() requires at most one item")),
        },
        ("data", 1) => atomize(ev.store, &args[0]).into_iter().map(Item::Atom).collect(),
        ("number", 1) => match args[0].as_slice() {
            [] => vec![Item::Atom(Atomic::Dbl(f64::NAN))],
            [item] => {
                let a = atomize_item(ev.store, item);
                vec![Item::Atom(Atomic::Dbl(to_number(&a).unwrap_or(f64::NAN)))]
            }
            _ => return Err(EvalError::new("number() requires at most one item")),
        },
        ("sum", 1) => {
            let mut total = 0.0;
            let mut all_int = true;
            for a in atomize(ev.store, &args[0]) {
                if !matches!(a, Atomic::Int(_)) {
                    all_int = false;
                }
                total += to_number(&a)
                    .ok_or_else(|| EvalError::new("sum() over non-numeric values"))?;
            }
            vec![Item::Atom(if all_int { Atomic::Int(total as i64) } else { Atomic::Dbl(total) })]
        }
        ("avg", 1) => {
            if args[0].is_empty() {
                vec![]
            } else {
                let atoms = atomize(ev.store, &args[0]);
                let mut total = 0.0;
                for a in &atoms {
                    total +=
                        to_number(a).ok_or_else(|| EvalError::new("avg() over non-numeric"))?;
                }
                vec![Item::Atom(Atomic::Dbl(total / atoms.len() as f64))]
            }
        }
        ("min", 1) | ("max", 1) => {
            let atoms = atomize(ev.store, &args[0]);
            if atoms.is_empty() {
                vec![]
            } else {
                let mut nums = Vec::with_capacity(atoms.len());
                for a in &atoms {
                    nums.push(
                        to_number(a)
                            .ok_or_else(|| EvalError::new(format!("{bare}() over non-numeric")))?,
                    );
                }
                let v = if bare == "min" {
                    nums.iter().cloned().fold(f64::INFINITY, f64::min)
                } else {
                    nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                };
                vec![Item::Atom(Atomic::Dbl(v))]
            }
        }
        ("concat", _) if args.len() >= 2 => {
            let mut s = String::new();
            for a in args {
                match a.as_slice() {
                    [] => {}
                    [item] => s.push_str(&string_value(ev.store, item)),
                    _ => return Err(EvalError::new("concat() arguments must be single items")),
                }
            }
            vec![Item::Atom(Atomic::Str(s))]
        }
        ("string-join", 2) => {
            let sep = single_string(ev, &args[1])?;
            let parts: Vec<String> =
                args[0].iter().map(|i| string_value(ev.store, i)).collect();
            vec![Item::Atom(Atomic::Str(parts.join(&sep)))]
        }
        ("contains", 2) => {
            let s = optional_string(ev, &args[0])?;
            let sub = optional_string(ev, &args[1])?;
            vec![Item::Atom(Atomic::Bool(s.contains(&sub)))]
        }
        ("starts-with", 2) => {
            let s = optional_string(ev, &args[0])?;
            let sub = optional_string(ev, &args[1])?;
            vec![Item::Atom(Atomic::Bool(s.starts_with(&sub)))]
        }
        ("string-length", 1) => {
            let s = optional_string(ev, &args[0])?;
            vec![Item::Atom(Atomic::Int(s.chars().count() as i64))]
        }
        ("substring", 2) | ("substring", 3) => {
            let s = optional_string(ev, &args[0])?;
            let start = single_number(ev, &args[1])?.round() as i64;
            let chars: Vec<char> = s.chars().collect();
            let len = if args.len() == 3 {
                single_number(ev, &args[2])?.round() as i64
            } else {
                chars.len() as i64
            };
            let from = (start - 1).max(0) as usize;
            let to = ((start - 1 + len).max(0) as usize).min(chars.len());
            let out: String = if from < to { chars[from..to].iter().collect() } else { String::new() };
            vec![Item::Atom(Atomic::Str(out))]
        }
        ("upper-case", 1) => {
            vec![Item::Atom(Atomic::Str(optional_string(ev, &args[0])?.to_uppercase()))]
        }
        ("lower-case", 1) => {
            vec![Item::Atom(Atomic::Str(optional_string(ev, &args[0])?.to_lowercase()))]
        }
        ("normalize-space", 1) => {
            let s = optional_string(ev, &args[0])?;
            vec![Item::Atom(Atomic::Str(s.split_whitespace().collect::<Vec<_>>().join(" ")))]
        }
        ("name", 1) | ("local-name", 1) => match args[0].as_slice() {
            [] => vec![Item::Atom(Atomic::Str(String::new()))],
            [Item::Node(n)] => {
                let full = ev.store.names.resolve(ev.store.doc(n.doc).name(n.idx));
                let s = if bare == "local-name" {
                    full.rsplit(':').next().unwrap_or(full)
                } else {
                    full
                };
                vec![Item::Atom(Atomic::Str(s.to_string()))]
            }
            _ => return Err(EvalError::new(format!("{bare}() requires a node"))),
        },
        ("deep-equal", 2) => {
            vec![Item::Atom(Atomic::Bool(deep_equal(ev.store, &args[0], &args[1])))]
        }
        ("distinct-values", 1) => {
            let atoms = atomize(ev.store, &args[0]);
            let mut out: Vec<Atomic> = Vec::new();
            if atoms.iter().all(|a| string_class(a).is_some()) {
                // string-class `eq` is string equality: dedup by hash
                let mut seen = StringClassSet::default();
                out.extend(
                    atoms.into_iter().filter(|a| string_class(a).is_some_and(|s| seen.insert(s))),
                );
            } else {
                // mixed types merge across classes (integer 1 absorbs
                // untyped "1"), so keep the pairwise `eq` scan
                for a in atoms {
                    let dup = out.iter().any(|b| {
                        compare_atomics(crate::ast::CompOp::Eq, &a, b).unwrap_or(false)
                    });
                    if !dup {
                        out.push(a);
                    }
                }
            }
            out.into_iter().map(Item::Atom).collect()
        }
        // Semi-join key-set reduction (xqd extension): atomize, then dedup
        // and sort by the exact (type, lexical) pair. `distinct-values` is
        // NOT usable for shipped join keys — its Eq merges across types
        // (integer 1 absorbs untyped "1"), which could flip a downstream
        // general comparison; exact-pair dedup is lossless for existential
        // consumption, and the canonical order makes the wire bytes
        // deterministic.
        ("xqd:distinct-keys", 1) => {
            let mut keys = atomize(ev.store, &args[0]);
            keys.sort_by(|a, b| {
                key_rank(a).cmp(&key_rank(b)).then_with(|| a.to_lexical().cmp(&b.to_lexical()))
            });
            keys.dedup_by(|a, b| key_rank(a) == key_rank(b) && a.to_lexical() == b.to_lexical());
            keys.into_iter().map(Item::Atom).collect()
        }
        ("reverse", 1) => {
            let mut v = args[0].to_vec();
            v.reverse();
            v
        }
        ("subsequence", 2) | ("subsequence", 3) => {
            let start = single_number(ev, &args[1])?.round() as i64;
            let len = if args.len() == 3 {
                single_number(ev, &args[2])?.round() as i64
            } else {
                i64::MAX
            };
            args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = *i as i64 + 1;
                    pos >= start && (len == i64::MAX || pos < start + len)
                })
                .map(|(_, item)| item.clone())
                .collect()
        }
        ("insert-before", 3) => {
            let pos = (single_number(ev, &args[1])?.round() as i64).max(1) as usize;
            let mut out = args[0].to_vec();
            let at = (pos - 1).min(out.len());
            out.splice(at..at, args[2].iter().cloned());
            out
        }
        ("remove", 2) => {
            let pos = single_number(ev, &args[1])?.round() as i64;
            args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as i64 + 1 != pos)
                .map(|(_, item)| item.clone())
                .collect()
        }
        ("index-of", 2) => {
            let needle = match atomize(ev.store, &args[1]).into_iter().next() {
                Some(a) => a,
                None => return Err(EvalError::new("index-of() needs a search value")),
            };
            atomize(ev.store, &args[0])
                .iter()
                .enumerate()
                .filter(|(_, a)| {
                    compare_atomics(crate::ast::CompOp::Eq, a, &needle).unwrap_or(false)
                })
                .map(|(i, _)| Item::Atom(Atomic::Int(i as i64 + 1)))
                .collect()
        }
        ("head", 1) => args[0].first().cloned().into_iter().collect(),
        ("tail", 1) => args[0].iter().skip(1).cloned().collect(),
        ("substring-before", 2) => {
            let s = optional_string(ev, &args[0])?;
            let sep = optional_string(ev, &args[1])?;
            let out = s.find(&sep).map(|i| s[..i].to_string()).unwrap_or_default();
            vec![Item::Atom(Atomic::Str(out))]
        }
        ("substring-after", 2) => {
            let s = optional_string(ev, &args[0])?;
            let sep = optional_string(ev, &args[1])?;
            let out =
                s.find(&sep).map(|i| s[i + sep.len()..].to_string()).unwrap_or_default();
            vec![Item::Atom(Atomic::Str(out))]
        }
        ("ends-with", 2) => {
            let s = optional_string(ev, &args[0])?;
            let suffix = optional_string(ev, &args[1])?;
            vec![Item::Atom(Atomic::Bool(s.ends_with(&suffix)))]
        }
        ("translate", 3) => {
            let s = optional_string(ev, &args[0])?;
            let from: Vec<char> = optional_string(ev, &args[1])?.chars().collect();
            let to: Vec<char> = optional_string(ev, &args[2])?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            vec![Item::Atom(Atomic::Str(out))]
        }
        ("tokenize", 2) => {
            // simplified: the separator is a literal delimiter, not a regex
            let s = optional_string(ev, &args[0])?;
            let sep = optional_string(ev, &args[1])?;
            if sep.is_empty() {
                return Err(EvalError::new("tokenize() separator must be non-empty"));
            }
            s.split(&sep)
                .filter(|t| !t.is_empty())
                .map(|t| Item::Atom(Atomic::Str(t.to_string())))
                .collect()
        }
        ("abs", 1) => {
            vec![Item::Atom(Atomic::Dbl(single_number(ev, &args[0])?.abs()))]
        }
        ("floor", 1) => {
            vec![Item::Atom(Atomic::Dbl(single_number(ev, &args[0])?.floor()))]
        }
        ("ceiling", 1) => {
            vec![Item::Atom(Atomic::Dbl(single_number(ev, &args[0])?.ceil()))]
        }
        ("round", 1) => {
            vec![Item::Atom(Atomic::Dbl(single_number(ev, &args[0])?.round()))]
        }
        ("exactly-one", 1) => {
            if args[0].len() == 1 {
                args[0].to_vec()
            } else {
                return Err(EvalError::new("exactly-one() got a non-singleton"));
            }
        }
        ("zero-or-one", 1) => {
            if args[0].len() <= 1 {
                args[0].to_vec()
            } else {
                return Err(EvalError::new("zero-or-one() got multiple items"));
            }
        }
        ("position", 0) | ("last", 0) => {
            return Err(EvalError::new(format!(
                "{bare}() is not supported: positional predicates must be literal numbers \
                 (XCore keeps paths position()-free, Section III)"
            )))
        }
        ("collection", _) => {
            return Err(EvalError::new(
                "collection() is treated as doc(*) by the analysis and cannot be evaluated",
            ))
        }
        _ => return Ok(None),
    };
    Ok(Some(result.into()))
}

/// Type ordinal for the canonical key sort of `xqd:distinct-keys`.
fn key_rank(a: &Atomic) -> u8 {
    match a {
        Atomic::Str(_) => 0,
        Atomic::Int(_) => 1,
        Atomic::Dbl(_) => 2,
        Atomic::Bool(_) => 3,
        Atomic::Untyped(_) => 4,
    }
}

fn single_string(ev: &Evaluator, seq: &Sequence) -> EvalResult<String> {
    match seq.as_slice() {
        [item] => Ok(string_value(ev.store, item)),
        _ => Err(EvalError::new("expected a single item")),
    }
}

fn optional_string(ev: &Evaluator, seq: &Sequence) -> EvalResult<String> {
    match seq.as_slice() {
        [] => Ok(String::new()),
        [item] => Ok(string_value(ev.store, item)),
        _ => Err(EvalError::new("expected at most one item")),
    }
}

fn single_number(ev: &Evaluator, seq: &Sequence) -> EvalResult<f64> {
    match seq.as_slice() {
        [item] => {
            let a = atomize_item(ev.store, item);
            to_number(&a).ok_or_else(|| EvalError::new("expected a number"))
        }
        _ => Err(EvalError::new("expected a single number")),
    }
}

fn single_node_arg(seq: &Sequence, what: &str) -> EvalResult<NodeId> {
    match seq.as_slice() {
        [Item::Node(n)] => Ok(*n),
        _ => Err(EvalError::new(format!("{what}() requires a single node argument"))),
    }
}
