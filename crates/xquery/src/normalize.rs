//! Normalization to XCore (Section III / IV preliminaries).
//!
//! Two passes run before any d-graph is built:
//!
//! 1. **Function inlining** — the paper's XCore has no user-defined function
//!    declarations ("our simple XCore rule … allows to express all queries
//!    in a single Expr"); every `FunCall` to a declared function becomes
//!    hygienic `let`-bindings of the arguments plus the renamed body.
//!    Recursive functions are rejected (decomposition never generates them).
//! 2. **Filter lowering** — surface predicates on non-step expressions
//!    (`$s[tutor = $s/name]`) become `for`/`if` as in the paper's Qc2;
//!    positional (numeric-literal) predicates are kept as filters because
//!    XCore keeps paths position()-free.
//!
//! The *let-motion* normalization of Section IV (moving `let`-bindings down
//! to the lowest common ancestor of their uses) lives in
//! `xqd-core::letmotion`, next to the decomposer that motivates it.

use std::collections::HashSet;

use crate::ast::*;
use crate::value::EvalError;

/// Inlines every user-defined function call, producing a single XCore
/// expression. Fails on recursion or unknown arity.
pub fn inline_functions(module: &QueryModule) -> Result<Expr, EvalError> {
    let mut fresh = 0u32;
    let mut stack = Vec::new();
    inline_expr(&module.body, module, &mut fresh, &mut stack)
}

fn inline_expr(
    e: &Expr,
    module: &QueryModule,
    fresh: &mut u32,
    stack: &mut Vec<String>,
) -> Result<Expr, EvalError> {
    // rebuild bottom-up
    let rebuilt = map_children(e, &mut |child| inline_expr(child, module, fresh, stack))?;
    if let Expr::FunCall { name, args } = &rebuilt {
        if let Some(func) = module.function(name) {
            if stack.iter().any(|n| n == name) {
                return Err(EvalError::new(format!(
                    "recursive function {name}() cannot be normalized to XCore"
                )));
            }
            if func.params.len() != args.len() {
                return Err(EvalError::new(format!(
                    "{name}() expects {} arguments, got {}",
                    func.params.len(),
                    args.len()
                )));
            }
            stack.push(name.clone());
            let mut body = inline_expr(&func.body, module, fresh, stack)?;
            stack.pop();
            let mut lets: Vec<(String, Expr)> = Vec::new();
            for ((param, _), arg) in func.params.iter().zip(args) {
                *fresh += 1;
                let fresh_name = format!("{param}_inl{fresh}");
                body = rename_var(&body, param, &fresh_name);
                lets.push((fresh_name, arg.clone()));
            }
            let mut out = body;
            for (var, value) in lets.into_iter().rev() {
                out = Expr::Let { var, value: value.boxed(), ret: out.boxed() };
            }
            return Ok(out);
        }
    }
    Ok(rebuilt)
}

/// Lowers non-positional `Filter` expressions to `for`/`if` (Qc2-style).
pub fn lower_filters(e: &Expr) -> Expr {
    let rebuilt = map_children_infallible(e, &mut lower_filters);
    if let Expr::Filter { input, predicate } = &rebuilt {
        if !is_positional(predicate) {
            let var = fresh_filter_var(predicate);
            let pred = substitute_context(predicate, &var);
            return Expr::For {
                var: var.clone(),
                seq: input.clone(),
                ret: Expr::If {
                    cond: pred.boxed(),
                    then: Expr::VarRef(var).boxed(),
                    els: Expr::Empty.boxed(),
                }
                .boxed(),
            };
        }
    }
    rebuilt
}

/// Full normalization pipeline: inline functions, then lower filters.
pub fn normalize(module: &QueryModule) -> Result<Expr, EvalError> {
    let inlined = inline_functions(module)?;
    Ok(lower_filters(&inlined))
}

fn is_positional(pred: &Expr) -> bool {
    matches!(pred, Expr::Literal(l) if matches!(l.atom(), Atomic::Int(_) | Atomic::Dbl(_)))
}

fn fresh_filter_var(pred: &Expr) -> String {
    // derive a stable name from the predicate's pointer-free shape
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{pred:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("flt_{:x}", h & 0xffff_ffff)
}

/// Replaces free occurrences of the context item with `$var`. Stops at
/// constructs that rebind the context item (nested filters, step
/// predicates, order-by keys).
pub fn substitute_context(e: &Expr, var: &str) -> Expr {
    match e {
        Expr::ContextItem => Expr::VarRef(var.to_string()),
        Expr::Filter { input, predicate } => Expr::Filter {
            input: substitute_context(input, var).boxed(),
            predicate: predicate.clone(), // context rebound inside
        },
        Expr::Path { start, steps } => Expr::Path {
            start: start.as_ref().map(|s| substitute_context(s, var).boxed()),
            steps: steps.clone(), // step predicates rebind context
        },
        Expr::OrderBy { input, specs } => Expr::OrderBy {
            input: substitute_context(input, var).boxed(),
            specs: specs.clone(), // keys rebind context
        },
        other => map_children_infallible(other, &mut |c| substitute_context(c, var)),
    }
}

/// Hygienic variable rename: `$from` → `$to`, stopping at shadowing
/// rebindings of `$from`.
pub fn rename_var(e: &Expr, from: &str, to: &str) -> Expr {
    match e {
        Expr::VarRef(v) if v == from => Expr::VarRef(to.to_string()),
        Expr::For { var, seq, ret } => Expr::For {
            var: var.clone(),
            seq: rename_var(seq, from, to).boxed(),
            ret: if var == from { ret.clone() } else { rename_var(ret, from, to).boxed() },
        },
        Expr::Let { var, value, ret } => Expr::Let {
            var: var.clone(),
            value: rename_var(value, from, to).boxed(),
            ret: if var == from { ret.clone() } else { rename_var(ret, from, to).boxed() },
        },
        Expr::Typeswitch { input, cases, default_var, default } => Expr::Typeswitch {
            input: rename_var(input, from, to).boxed(),
            cases: cases
                .iter()
                .map(|c| CaseClause {
                    var: c.var.clone(),
                    seq_type: c.seq_type.clone(),
                    body: if c.var == from { c.body.clone() } else { rename_var(&c.body, from, to) },
                })
                .collect(),
            default_var: default_var.clone(),
            default: if default_var == from {
                default.clone()
            } else {
                rename_var(default, from, to).boxed()
            },
        },
        Expr::Execute { peer, params, body, projection } => {
            let new_params: Vec<XrpcParam> = params
                .iter()
                .map(|p| XrpcParam {
                    var: p.var.clone(),
                    outer: if p.outer == from { to.to_string() } else { p.outer.clone() },
                })
                .collect();
            // params shadow inside the body
            let body_shadowed = params.iter().any(|p| p.var == from);
            Expr::Execute {
                peer: rename_var(peer, from, to).boxed(),
                params: new_params,
                body: if body_shadowed { body.clone() } else { rename_var(body, from, to).boxed() },
                projection: projection.clone(),
            }
        }
        other => map_children_infallible(other, &mut |c| rename_var(c, from, to)),
    }
}

/// Free variables of an expression (referenced but not bound within).
pub fn free_vars(e: &Expr) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_free(e, &mut Vec::new(), &mut out);
    out
}

fn collect_free(e: &Expr, bound: &mut Vec<String>, out: &mut HashSet<String>) {
    match e {
        Expr::VarRef(v) => {
            if !bound.iter().any(|b| b == v) {
                out.insert(v.clone());
            }
        }
        Expr::For { var, seq, ret } => {
            collect_free(seq, bound, out);
            bound.push(var.clone());
            collect_free(ret, bound, out);
            bound.pop();
        }
        Expr::Let { var, value, ret } => {
            collect_free(value, bound, out);
            bound.push(var.clone());
            collect_free(ret, bound, out);
            bound.pop();
        }
        Expr::Typeswitch { input, cases, default_var, default } => {
            collect_free(input, bound, out);
            for c in cases {
                bound.push(c.var.clone());
                collect_free(&c.body, bound, out);
                bound.pop();
            }
            bound.push(default_var.clone());
            collect_free(default, bound, out);
            bound.pop();
        }
        Expr::Execute { peer, params, body, .. } => {
            collect_free(peer, bound, out);
            for p in params {
                if !bound.iter().any(|b| b == &p.outer) {
                    out.insert(p.outer.clone());
                }
            }
            let mut inner: Vec<String> = params.iter().map(|p| p.var.clone()).collect();
            let n = inner.len();
            bound.append(&mut inner);
            collect_free(body, bound, out);
            bound.truncate(bound.len() - n);
        }
        other => {
            let mut kids: Vec<&Expr> = Vec::new();
            collect_children(other, &mut kids);
            for k in kids {
                collect_free(k, bound, out);
            }
        }
    }
}

/// Collects the direct sub-expressions of `e` (no binder handling).
fn collect_children<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Literal(_) | Expr::Empty | Expr::VarRef(_) | Expr::ContextItem => {}
        Expr::Sequence(es) => out.extend(es.iter()),
        Expr::For { seq, ret, .. } => {
            out.push(seq);
            out.push(ret);
        }
        Expr::Let { value, ret, .. } => {
            out.push(value);
            out.push(ret);
        }
        Expr::If { cond, then, els } => {
            out.push(cond);
            out.push(then);
            out.push(els);
        }
        Expr::Typeswitch { input, cases, default, .. } => {
            out.push(input);
            out.extend(cases.iter().map(|c| &c.body));
            out.push(default);
        }
        Expr::Comparison { lhs, rhs, .. }
        | Expr::NodeComparison { lhs, rhs, .. }
        | Expr::NodeSet { lhs, rhs, .. }
        | Expr::Arith { lhs, rhs, .. } => {
            out.push(lhs);
            out.push(rhs);
        }
        Expr::OrderBy { input, specs } => {
            out.push(input);
            out.extend(specs.iter().map(|s| &s.key));
        }
        Expr::Construct(c) => match c {
            Constructor::Document { content } | Constructor::Text { content } => out.push(content),
            Constructor::Element { name, content } | Constructor::Attribute { name, content } => {
                if let ElemName::Computed(e) = name {
                    out.push(e);
                }
                out.push(content);
            }
        },
        Expr::Path { start, steps } => {
            if let Some(s) = start {
                out.push(s);
            }
            for st in steps {
                out.extend(st.predicates.iter());
            }
        }
        Expr::Filter { input, predicate } => {
            out.push(input);
            out.push(predicate);
        }
        Expr::FunCall { args, .. } => out.extend(args.iter()),
        Expr::And(l, r) | Expr::Or(l, r) => {
            out.push(l);
            out.push(r);
        }
        Expr::Execute { peer, body, .. } => {
            out.push(peer);
            out.push(body);
        }
    }
}

/// Rebuilds `e` with every direct child mapped through `f` (fallible).
pub fn map_children(
    e: &Expr,
    f: &mut impl FnMut(&Expr) -> Result<Expr, EvalError>,
) -> Result<Expr, EvalError> {
    Ok(match e {
        Expr::Literal(_) | Expr::Empty | Expr::VarRef(_) | Expr::ContextItem => e.clone(),
        Expr::Sequence(es) => {
            Expr::Sequence(es.iter().map(&mut *f).collect::<Result<_, _>>()?)
        }
        Expr::For { var, seq, ret } => Expr::For {
            var: var.clone(),
            seq: f(seq)?.boxed(),
            ret: f(ret)?.boxed(),
        },
        Expr::Let { var, value, ret } => Expr::Let {
            var: var.clone(),
            value: f(value)?.boxed(),
            ret: f(ret)?.boxed(),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: f(cond)?.boxed(),
            then: f(then)?.boxed(),
            els: f(els)?.boxed(),
        },
        Expr::Typeswitch { input, cases, default_var, default } => Expr::Typeswitch {
            input: f(input)?.boxed(),
            cases: cases
                .iter()
                .map(|c| {
                    Ok(CaseClause {
                        var: c.var.clone(),
                        seq_type: c.seq_type.clone(),
                        body: f(&c.body)?,
                    })
                })
                .collect::<Result<_, EvalError>>()?,
            default_var: default_var.clone(),
            default: f(default)?.boxed(),
        },
        Expr::Comparison { op, lhs, rhs } => Expr::Comparison {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::NodeComparison { op, lhs, rhs } => Expr::NodeComparison {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::OrderBy { input, specs } => Expr::OrderBy {
            input: f(input)?.boxed(),
            specs: specs
                .iter()
                .map(|s| Ok(OrderSpec { key: f(&s.key)?, descending: s.descending }))
                .collect::<Result<_, EvalError>>()?,
        },
        Expr::NodeSet { op, lhs, rhs } => Expr::NodeSet {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::Construct(c) => Expr::Construct(match c {
            Constructor::Document { content } => {
                Constructor::Document { content: f(content)?.boxed() }
            }
            Constructor::Text { content } => Constructor::Text { content: f(content)?.boxed() },
            Constructor::Element { name, content } => Constructor::Element {
                name: map_elem_name(name, f)?,
                content: f(content)?.boxed(),
            },
            Constructor::Attribute { name, content } => Constructor::Attribute {
                name: map_elem_name(name, f)?,
                content: f(content)?.boxed(),
            },
        }),
        Expr::Path { start, steps } => Expr::Path {
            start: match start {
                Some(s) => Some(f(s)?.boxed()),
                None => None,
            },
            steps: steps
                .iter()
                .map(|st| {
                    Ok(Step {
                        axis: st.axis,
                        test: st.test.clone(),
                        predicates: st
                            .predicates
                            .iter()
                            .map(&mut *f)
                            .collect::<Result<_, EvalError>>()?,
                    })
                })
                .collect::<Result<_, EvalError>>()?,
        },
        Expr::Filter { input, predicate } => Expr::Filter {
            input: f(input)?.boxed(),
            predicate: f(predicate)?.boxed(),
        },
        Expr::FunCall { name, args } => Expr::FunCall {
            name: name.clone(),
            args: args.iter().map(&mut *f).collect::<Result<_, _>>()?,
        },
        Expr::And(l, r) => Expr::And(f(l)?.boxed(), f(r)?.boxed()),
        Expr::Or(l, r) => Expr::Or(f(l)?.boxed(), f(r)?.boxed()),
        Expr::Arith { op, lhs, rhs } => Expr::Arith {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::Execute { peer, params, body, projection } => Expr::Execute {
            peer: f(peer)?.boxed(),
            params: params.clone(),
            body: f(body)?.boxed(),
            projection: projection.clone(),
        },
    })
}

/// Infallible variant of [`map_children`].
pub fn map_children_infallible(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    map_children(e, &mut |c| Ok(f(c))).expect("infallible mapping cannot fail")
}

fn map_elem_name(
    n: &ElemName,
    f: &mut impl FnMut(&Expr) -> Result<Expr, EvalError>,
) -> Result<ElemName, EvalError> {
    Ok(match n {
        ElemName::Static(s) => ElemName::Static(s.clone()),
        ElemName::Computed(e) => ElemName::Computed(f(e)?.boxed()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn inline_simple_function() {
        let m = parse_query(
            "declare function double($x as xs:integer) as xs:integer { $x + $x }; double(21)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        match &e {
            Expr::Let { var, value, ret } => {
                assert!(var.starts_with("x_inl"));
                assert_eq!(**value, Expr::int(21));
                assert!(matches!(ret.as_ref(), Expr::Arith { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_is_hygienic() {
        // the call argument references an outer $x; the function's own $x
        // must not capture it
        let m = parse_query(
            "declare function f($x as xs:integer) { $x + 1 }; let $x := 10 return f($x + 1)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        // shape: let $x := 10 return let $x_inlN := $x + 1 return $x_inlN + 1
        match &e {
            Expr::Let { var, ret, .. } => {
                assert_eq!(var, "x");
                match ret.as_ref() {
                    Expr::Let { var: inner, ret: body, .. } => {
                        assert!(inner.starts_with("x_inl"));
                        match body.as_ref() {
                            Expr::Arith { lhs, .. } => {
                                assert_eq!(**lhs, Expr::VarRef(inner.clone()));
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let m = parse_query("declare function f($x as xs:integer) { f($x) }; f(1)").unwrap();
        assert!(inline_functions(&m).is_err());
    }

    #[test]
    fn nested_function_calls_inline() {
        let m = parse_query(
            "declare function g($y as xs:integer) { $y * 2 }; \
             declare function f($x as xs:integer) { g($x) + 1 }; \
             f(5)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        let mut has_funcall = false;
        e.walk(&mut |x| {
            if matches!(x, Expr::FunCall { name, .. } if name == "f" || name == "g") {
                has_funcall = true;
            }
        });
        assert!(!has_funcall, "all UDF calls must be gone: {e}");
    }

    #[test]
    fn filter_lowering_matches_qc2() {
        let m = parse_query("let $s := doc(\"d.xml\")/people/person return $s[tutor = $s/name]")
            .unwrap();
        let e = normalize(&m).unwrap();
        // the filter becomes for $flt in $s return if (...) then $flt else ()
        let mut found_for_if = false;
        e.walk(&mut |x| {
            if let Expr::For { var, ret, .. } = x {
                if var.starts_with("flt_") {
                    if let Expr::If { then, els, .. } = ret.as_ref() {
                        assert_eq!(**then, Expr::VarRef(var.clone()));
                        assert_eq!(**els, Expr::Empty);
                        found_for_if = true;
                    }
                }
            }
        });
        assert!(found_for_if, "filter not lowered: {e}");
    }

    #[test]
    fn positional_filters_are_kept() {
        let m = parse_query("let $x := (1,2,3) return $x[2]").unwrap();
        let e = normalize(&m).unwrap();
        let mut has_filter = false;
        e.walk(&mut |x| {
            if matches!(x, Expr::Filter { .. }) {
                has_filter = true;
            }
        });
        assert!(has_filter);
    }

    #[test]
    fn free_vars_respect_binders() {
        let m =
            parse_query("for $x in $outer return ($x, $y, let $y := 1 return $y)").unwrap();
        let fv = free_vars(&m.body);
        assert!(fv.contains("outer"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_of_execute() {
        let m = parse_query(
            "execute at { $peer } params ($a := $x) { ($a, $b) }",
        )
        .unwrap();
        let fv = free_vars(&m.body);
        assert!(fv.contains("peer"));
        assert!(fv.contains("x"), "shipped outer vars are free");
        assert!(fv.contains("b"), "body vars not bound by params are free");
        assert!(!fv.contains("a"), "params bind inside the body");
    }

    #[test]
    fn rename_respects_shadowing() {
        let m = parse_query("($x, let $x := 1 return $x)").unwrap();
        let renamed = rename_var(&m.body, "x", "z");
        match &renamed {
            Expr::Sequence(es) => {
                assert_eq!(es[0], Expr::VarRef("z".into()));
                match &es[1] {
                    Expr::Let { var, ret, .. } => {
                        assert_eq!(var, "x");
                        assert_eq!(**ret, Expr::VarRef("x".into()));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn substitute_context_stops_at_rebinders() {
        let m = parse_query("(., $s[. = 1])").unwrap();
        let out = substitute_context(&m.body, "v");
        match &out {
            Expr::Sequence(es) => {
                assert_eq!(es[0], Expr::VarRef("v".into()));
                // the nested filter predicate keeps its context item
                match &es[1] {
                    Expr::Filter { predicate, .. } => {
                        let mut has_ctx = false;
                        predicate.walk(&mut |x| {
                            if matches!(x, Expr::ContextItem) {
                                has_ctx = true;
                            }
                        });
                        assert!(has_ctx);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
