//! Evaluator conformance vignettes: one test per language feature, each
//! asserting the exact result of a small query over a small fixture.
//! Includes the paper's Q1 (Table I) evaluated *locally* — the ground truth
//! that the distributed semantics in `xqd-xrpc` must reproduce.

use xqd_xml::{parse_document, serialize_node, NodeKind, Store};
use xqd_xquery::value::string_value;
use xqd_xquery::{eval_query, parse_query, Atomic, Item};

fn fixture() -> Store {
    let mut s = Store::new();
    parse_document(
        &mut s,
        "<people><person id=\"p1\"><name>ann</name><age>30</age></person>\
         <person id=\"p2\"><name>bob</name><age>50</age></person>\
         <person id=\"p3\" idref=\"p1\"><name>cid</name><age>39</age></person></people>",
        Some("people.xml"),
    )
    .unwrap();
    parse_document(
        &mut s,
        "<courses><course id=\"c1\"><enroll ref=\"p1\"/><enroll ref=\"p3\"/></course>\
         <course id=\"c2\"><enroll ref=\"p2\"/></course></courses>",
        Some("courses.xml"),
    )
    .unwrap();
    s
}

fn run(store: &mut Store, q: &str) -> Vec<Item> {
    let m = parse_query(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
    eval_query(store, &m).unwrap_or_else(|e| panic!("eval {q:?}: {e}")).into_vec()
}

fn run_strings(store: &mut Store, q: &str) -> Vec<String> {
    let r = run(store, q);
    r.iter().map(|i| string_value(store, i)).collect()
}

fn atoms(seq: &[Item]) -> Vec<Atomic> {
    seq.iter()
        .map(|i| match i {
            Item::Atom(a) => a.clone(),
            Item::Node(_) => panic!("expected atoms, got node"),
        })
        .collect()
}

#[test]
fn path_with_predicate() {
    let mut s = fixture();
    let names = run_strings(&mut s, "doc(\"people.xml\")//person[age < 40]/name");
    assert_eq!(names, vec!["ann", "cid"]);
}

#[test]
fn attribute_axis() {
    let mut s = fixture();
    let ids = run_strings(&mut s, "doc(\"people.xml\")/people/person/@id");
    assert_eq!(ids, vec!["p1", "p2", "p3"]);
}

#[test]
fn descendant_or_self_abbreviation() {
    let mut s = fixture();
    let r = run(&mut s, "count(doc(\"people.xml\")//*)");
    assert_eq!(atoms(&r), vec![Atomic::Int(10)]); // people + 3*(person,name,age)
}

#[test]
fn reverse_axis_parent() {
    let mut s = fixture();
    let r = run_strings(&mut s, "doc(\"people.xml\")//name[. = \"bob\"]/parent::person/@id");
    assert_eq!(r, vec!["p2"]);
}

#[test]
fn sibling_axes() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "doc(\"people.xml\")//person[@id = \"p2\"]/preceding-sibling::person/@id",
    );
    assert_eq!(r, vec!["p1"]);
    let r = run_strings(
        &mut s,
        "doc(\"people.xml\")//person[@id = \"p2\"]/following-sibling::person/@id",
    );
    assert_eq!(r, vec!["p3"]);
}

#[test]
fn path_results_are_document_ordered_and_deduped() {
    let mut s = fixture();
    // both person and people contexts reach the same name nodes
    let r = run(&mut s, "count((doc(\"people.xml\")//person, doc(\"people.xml\")/people)//name)");
    assert_eq!(atoms(&r), vec![Atomic::Int(3)]);
}

#[test]
fn flwor_with_where() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person where $p/age > 35 return $p/name",
    );
    assert_eq!(r, vec!["bob", "cid"]);
}

#[test]
fn let_binding_and_sequences() {
    let mut s = fixture();
    let r = run(&mut s, "let $x := (1, 2) return ($x, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(2), Atomic::Int(3)]);
}

#[test]
fn general_comparison_existential() {
    let mut s = fixture();
    let r = run(&mut s, "doc(\"people.xml\")//person/age = 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "doc(\"people.xml\")//person/age = 31");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
}

#[test]
fn node_identity_is() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $a := doc(\"people.xml\")//person[1], $b := doc(\"people.xml\")//name[. = \"ann\"]/.. \
         return $a is $b",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn node_order_comparisons() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $a := doc(\"people.xml\")//person[1], $b := doc(\"people.xml\")//person[2] \
         return ($a << $b, $b >> $a, $a >> $b)",
    );
    assert_eq!(
        atoms(&r),
        vec![Atomic::Bool(true), Atomic::Bool(true), Atomic::Bool(false)]
    );
}

#[test]
fn node_comparison_with_empty_operand_is_empty() {
    let mut s = fixture();
    let r = run(&mut s, "doc(\"people.xml\")//nosuch is doc(\"people.xml\")/people");
    assert!(r.is_empty());
}

#[test]
fn set_operations_in_document_order() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "(doc(\"people.xml\")//person[2] union doc(\"people.xml\")//person[1])/@id",
    );
    assert_eq!(r, vec!["p1", "p2"]);
    let r = run(
        &mut s,
        "count(doc(\"people.xml\")//person intersect doc(\"people.xml\")//person[age < 40])",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run_strings(
        &mut s,
        "(doc(\"people.xml\")//person except doc(\"people.xml\")//person[age < 40])/@id",
    );
    assert_eq!(r, vec!["p2"]);
}

#[test]
fn positional_predicates() {
    let mut s = fixture();
    assert_eq!(run_strings(&mut s, "doc(\"people.xml\")//person[2]/name"), vec!["bob"]);
    assert_eq!(run_strings(&mut s, "(doc(\"people.xml\")//person/name)[3]"), vec!["cid"]);
}

#[test]
fn if_then_else() {
    let mut s = fixture();
    let r = run(&mut s, "if (doc(\"people.xml\")//person[age > 100]) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
}

#[test]
fn typeswitch_dispatch() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "typeswitch (doc(\"people.xml\")//person[1]) \
           case $a as attribute() return 1 \
           case $e as element(person) return 2 \
           default $d return 3",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run(
        &mut s,
        "typeswitch (\"hello\") case $s as xs:string return 1 default $d return 2",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(1)]);
}

#[test]
fn order_by_ascending_descending() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/age return $p/name/text()",
    );
    assert_eq!(r, vec!["ann", "cid", "bob"]);
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/age descending return $p/name/text()",
    );
    assert_eq!(r, vec!["bob", "cid", "ann"]);
}

#[test]
fn order_by_string_keys() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/name descending return $p/@id",
    );
    assert_eq!(r, vec!["p3", "p2", "p1"]);
}

#[test]
fn arithmetic() {
    let mut s = fixture();
    let r = run(&mut s, "(1 + 2 * 3, 7 mod 2, 10 div 4, -(3))");
    assert_eq!(
        atoms(&r),
        vec![Atomic::Int(7), Atomic::Int(1), Atomic::Dbl(2.5), Atomic::Int(-3)]
    );
}

#[test]
fn arithmetic_on_node_values() {
    let mut s = fixture();
    let r = run(&mut s, "sum(doc(\"people.xml\")//age)");
    assert_eq!(atoms(&r), vec![Atomic::Dbl(119.0)]);
}

#[test]
fn and_or_short_circuit() {
    let mut s = fixture();
    // the right operand would error (unknown function) if evaluated
    let r = run(&mut s, "if (false() and boom()) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run(&mut s, "if (true() or boom()) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(1)]);
}

#[test]
fn element_constructor_copies_content() {
    let mut s = fixture();
    let r = run(&mut s, "element wrap { doc(\"people.xml\")//person[1]/name }");
    match r.as_slice() {
        [Item::Node(n)] => {
            let txt = serialize_node(s.doc(n.doc), &s.names, n.idx);
            assert_eq!(txt, "<wrap><name>ann</name></wrap>");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn constructed_nodes_have_new_identity() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $n := (doc(\"people.xml\")//name)[1] \
         let $c := element w { $n } \
         return $c/child::name is $n",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
}

#[test]
fn attribute_constructor_inside_element() {
    let mut s = fixture();
    let r = run(&mut s, "element e { attribute k { \"v\" }, \"body\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(serialize_node(s.doc(n.doc), &s.names, n.idx), "<e k=\"v\">body</e>");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn document_and_text_constructors() {
    let mut s = fixture();
    let r = run(&mut s, "document { element a {()} }");
    match r.as_slice() {
        [Item::Node(n)] => assert_eq!(s.doc(n.doc).kind(n.idx), NodeKind::Document),
        other => panic!("{other:?}"),
    }
    let r = run(&mut s, "text { \"a\", \"b\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.doc(n.doc).kind(n.idx), NodeKind::Text);
            assert_eq!(s.doc(n.doc).string_value(n.idx), "a b");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn computed_constructor_name() {
    let mut s = fixture();
    let r = run(&mut s, "element { concat(\"pre\", \"fix\") } { () }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.node(*n).name(), "prefix");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn adjacent_atoms_join_with_space() {
    let mut s = fixture();
    let r = run(&mut s, "element e { 1, 2, \"x\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.doc(n.doc).string_value(n.idx), "1 2 x");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn user_defined_functions() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "declare function grownup($p as element(person)) as xs:boolean { $p/age >= 40 }; \
         for $p in doc(\"people.xml\")//person where grownup($p) return $p/@id",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(string_value(&s, &r[0]), "p2");
}

#[test]
fn function_scope_is_isolated() {
    let mut s = fixture();
    let m = parse_query(
        "declare function f() as xs:integer { $leak }; let $leak := 1 return f()",
    )
    .unwrap();
    assert!(eval_query(&mut s, &m).is_err(), "function bodies must not see caller scope");
}

#[test]
fn builtin_id_and_idref() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "id(\"p2\", doc(\"people.xml\"))/name",
    );
    assert_eq!(r, vec!["bob"]);
    let r = run_strings(&mut s, "idref(\"p1\", doc(\"people.xml\"))/../@id");
    assert_eq!(r, vec!["p3"]);
}

#[test]
fn builtin_root() {
    let mut s = fixture();
    let r = run(&mut s, "root((doc(\"people.xml\")//age)[1]) is doc(\"people.xml\")");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn builtin_document_uri_and_base_uri() {
    let mut s = fixture();
    let r = run(&mut s, "document-uri(doc(\"people.xml\"))");
    assert_eq!(atoms(&r), vec![Atomic::Str("people.xml".into())]);
    let r = run(&mut s, "base-uri(doc(\"people.xml\")//person[1])");
    assert_eq!(atoms(&r), vec![Atomic::Str("people.xml".into())]);
    // constructed fragments have no document-uri
    let r = run(&mut s, "document-uri(document { element a {()} })");
    assert!(r.is_empty());
}

#[test]
fn builtin_static_context() {
    let mut s = fixture();
    let r = run(&mut s, "(static-base-uri(), default-collation(), current-dateTime())");
    assert_eq!(r.len(), 3);
}

#[test]
fn builtin_string_functions() {
    let mut s = fixture();
    let r = run(&mut s, "concat(\"a\", \"b\", \"c\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("abc".into())]);
    let r = run(&mut s, "string-join((\"a\", \"b\"), \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a-b".into())]);
    let r = run(&mut s, "(contains(\"abc\", \"b\"), starts-with(\"abc\", \"b\"))");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true), Atomic::Bool(false)]);
    let r = run(&mut s, "substring(\"hello\", 2, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Str("ell".into())]);
    let r = run(&mut s, "normalize-space(\"  a   b \")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a b".into())]);
}

#[test]
fn builtin_aggregates() {
    let mut s = fixture();
    let r = run(&mut s, "(count((1,2,3)), sum((1,2,3)), avg((1,2,3)), min((3,1,2)), max((3,1,2)))");
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Int(3),
            Atomic::Int(6),
            Atomic::Dbl(2.0),
            Atomic::Dbl(1.0),
            Atomic::Dbl(3.0)
        ]
    );
}

#[test]
fn builtin_distinct_values() {
    let mut s = fixture();
    let r = run(&mut s, "distinct-values((1, 2, 1, \"a\", \"a\"))");
    assert_eq!(r.len(), 3);
}

#[test]
fn distinct_values_of_strings_keeps_first_occurrences() {
    let mut s = fixture();
    // string-class atoms dedup by string: xs:string "b" and the untyped
    // name value "ann" absorb later equal strings of either type
    let r = run(
        &mut s,
        "distinct-values((\"b\", doc(\"people.xml\")//name, \"ann\", \"b\", \"\", \"cid\", \"\"))",
    );
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Str("b".into()),
            Atomic::Untyped("ann".into()),
            Atomic::Untyped("bob".into()),
            Atomic::Untyped("cid".into()),
            Atomic::Str("".into()),
        ]
    );
    // one numeric atom keeps the cross-type merge: integer 30 absorbs
    // untyped "30" (cast to a number), string "30" stays apart
    let r = run(
        &mut s,
        "distinct-values((30, doc(\"people.xml\")//age, \"30\", \
         doc(\"people.xml\")//name[. = \"ann\"], doc(\"people.xml\")//name[. = \"ann\"]))",
    );
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Int(30),
            Atomic::Untyped("50".into()),
            Atomic::Untyped("39".into()),
            Atomic::Str("30".into()),
            Atomic::Untyped("ann".into()),
        ]
    );
}

#[test]
fn rebound_keyset_is_never_probed_with_a_stale_binding() {
    // The outer `for` binds a new keyset per iteration; the inner `for`
    // compares against it once per person, which turns the comparison into
    // a hash probe from the second person on. Each iteration must see its
    // own keys: a probe served from an earlier binding would repeat the
    // previous course's names.
    let queries = [
        (
            "for $c in doc(\"courses.xml\")//course \
             let $refs := $c/enroll/@ref \
             return string-join(for $p in doc(\"people.xml\")//person \
                                return if ($p/@id = $refs) then $p/name/text() else (), \",\")",
            vec!["ann,cid", "bob"],
        ),
        (
            "for $i in (1, 2, 3, 1, 4) \
             let $keys := (concat(\"p\", $i), \"none\") \
             return count(for $p in doc(\"people.xml\")//person \
                          return if ($keys = $p/@id) then $p else ())",
            vec!["1", "1", "1", "1", "0"],
        ),
        (
            // the same keyset bound to a second variable per iteration
            "for $k in (\"ann\", \"bob\", \"eve\") \
             let $keys := ($k, $k) let $alias := $keys \
             return string-join(for $n in doc(\"people.xml\")//name \
                                return if ($n = $alias) then string($n/../@id) else \"-\", \"\")",
            vec!["p1--", "-p2-", "---"],
        ),
    ];
    for (q, want) in queries {
        assert_eq!(run_strings(&mut fixture(), q), want, "{q}");
    }
}

#[test]
fn literal_operand_in_a_loop_matches_a_let_bound_value() {
    // A literal evaluated once per iteration hands out its one prebuilt
    // sequence every time, so the comparison memo sees a recurring
    // operand — exactly as it sees a value let-bound outside the loop.
    // Both spellings must give the same, correct answer.
    let cases: [(&str, &str, &str, &str); 11] = [
        // untypedAtomic vs numeric: numeric comparison
        ("$p/age", "=", "30", "p1"),
        ("$p/age", "<", "40", "p1,p3"),
        ("$p/age", "=", "39.0", "p3"),
        // untypedAtomic vs string: string comparison
        ("$p/age", "=", "\"30\"", "p1"),
        ("$p/age", "<", "\"4\"", "p1,p3"),
        ("$p/name", "=", "\"bob\"", "p2"),
        ("$p/name", "<", "\"bz\"", "p1,p2"),
        // string vs string
        ("string($p/name)", "=", "\"cid\"", "p3"),
        ("string($p/name)", "<", "\"c\"", "p1,p2"),
        // NaN vs numeric: never equal, never ordered
        ("number($p/name)", "=", "1", ""),
        ("number($p/name)", "<", "1", ""),
    ];
    for (operand, op, lit, want) in cases {
        let body = |rhs: &str| {
            format!(
                "string-join(for $p in doc(\"people.xml\")//person \
                 return if ({operand} {op} {rhs}) then string($p/@id) else (), \",\")"
            )
        };
        let in_loop = body(lit);
        let let_bound = format!("let $v := {lit} return {}", body("$v"));
        assert_eq!(run_strings(&mut fixture(), &in_loop), vec![want], "{in_loop}");
        assert_eq!(run_strings(&mut fixture(), &let_bound), vec![want], "{let_bound}");
    }
}

#[test]
fn builtin_deep_equal() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "deep-equal(doc(\"people.xml\")//person[1], element person { attribute id {\"p1\"}, \
         element name {\"ann\"}, element age {\"30\"} })",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn builtin_name_functions() {
    let mut s = fixture();
    let r = run(&mut s, "name(doc(\"people.xml\")/people)");
    assert_eq!(atoms(&r), vec![Atomic::Str("people".into())]);
}

#[test]
fn unknown_function_errors() {
    let mut s = fixture();
    let m = parse_query("nosuchfn(1)").unwrap();
    assert!(eval_query(&mut s, &m).is_err());
}

#[test]
fn unbound_variable_errors() {
    let mut s = fixture();
    let m = parse_query("$nope").unwrap();
    assert!(eval_query(&mut s, &m).is_err());
}

#[test]
fn execute_without_handler_errors() {
    let mut s = fixture();
    let m = parse_query("execute at { \"peer1\" } params () { 1 }").unwrap();
    let err = eval_query(&mut s, &m).unwrap_err();
    assert!(err.message.contains("no remote handler"), "{err}");
}

#[test]
fn cross_document_join() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $c in doc(\"courses.xml\")//course \
         for $e in $c/enroll \
         for $p in doc(\"people.xml\")//person[@id = $e/@ref] \
         return concat($c/@id, \":\", $p/name)",
    );
    assert_eq!(r, vec!["c1:ann", "c1:cid", "c2:bob"]);
}

/// The paper's Q1 (Table I), executed locally. The result is a single <c/>
/// element: `$first` is always `$abc` (the parent), overlap always holds,
/// and the final //c step deduplicates because both loop results come from
/// the same constructed fragment.
#[test]
fn paper_q1_local_semantics() {
    let mut s = Store::new();
    let q1 = r#"
        declare function makenodes() as node()
        { element a { element b { element c {()} } }/b };
        declare function overlap($l as node(), $r as node()) as xs:boolean
        { not(empty($l//* intersect $r//*)) };
        declare function earlier($l as node(), $r as node()) as node()
        { if ($l << $r) then $l else $r };
        let $bc := makenodes(),
            $abc := $bc/parent::a
        return (for $node in ($bc, $abc)
                let $first := earlier($bc, $abc)
                where overlap($first, $node)
                return $node)//c
    "#;
    let r = run(&mut s, q1);
    assert_eq!(r.len(), 1, "local execution returns exactly one <c/>: {r:?}");
    match &r[0] {
        Item::Node(n) => assert_eq!(s.node(*n).name(), "c"),
        other => panic!("{other:?}"),
    }
}

/// Q1 building blocks: makenodes() result keeps its parent (Problem 1 does
/// NOT occur locally).
#[test]
fn paper_q1_parent_is_reachable_locally() {
    let mut s = Store::new();
    let q = r#"
        declare function makenodes() as node()
        { element a { element b { element c {()} } }/b };
        let $bc := makenodes(), $abc := $bc/parent::a
        return (name($abc), count($abc))
    "#;
    let r = run(&mut s, q);
    assert_eq!(atoms(&r), vec![Atomic::Str("a".into()), Atomic::Int(1)]);
}

#[test]
fn filter_on_variable() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "let $s := doc(\"people.xml\")//person return $s[age < 40]/@id",
    );
    assert_eq!(r, vec!["p1", "p3"]);
}

#[test]
fn empty_sequence_propagation() {
    let mut s = fixture();
    assert!(run(&mut s, "()").is_empty());
    assert!(run(&mut s, "1 + ()").is_empty());
    assert!(run(&mut s, "doc(\"people.xml\")//nosuch/child::x").is_empty());
}

#[test]
fn division_by_zero_errors() {
    let mut s = fixture();
    let m = parse_query("1 div 0").unwrap();
    assert!(eval_query(&mut s, &m).is_err());
}

#[test]
fn quantified_expressions() {
    let mut s = fixture();
    let r = run(&mut s, "some $p in doc(\"people.xml\")//person satisfies $p/age > 45");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "some $p in doc(\"people.xml\")//person satisfies $p/age > 100");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
    let r = run(&mut s, "every $p in doc(\"people.xml\")//person satisfies $p/age >= 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "every $p in doc(\"people.xml\")//person satisfies $p/age > 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
    // multiple bindings
    let r = run(
        &mut s,
        "some $p in doc(\"people.xml\")//person, $c in doc(\"courses.xml\")//enroll \
         satisfies $p/@id = $c/@ref",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    // empty domain: some → false, every → true
    let r = run(&mut s, "(some $x in () satisfies $x, every $x in () satisfies $x)");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false), Atomic::Bool(true)]);
}

#[test]
fn builtin_sequence_functions() {
    let mut s = fixture();
    let r = run(&mut s, "subsequence((1,2,3,4,5), 2, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Int(2), Atomic::Int(3), Atomic::Int(4)]);
    let r = run(&mut s, "subsequence((1,2,3), 2)");
    assert_eq!(atoms(&r), vec![Atomic::Int(2), Atomic::Int(3)]);
    let r = run(&mut s, "insert-before((1,3), 2, (2))");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(2), Atomic::Int(3)]);
    let r = run(&mut s, "remove((1,2,3), 2)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(3)]);
    let r = run(&mut s, "index-of((10,20,10), 10)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(3)]);
    let r = run(&mut s, "(head((7,8,9)), count(tail((7,8,9))))");
    assert_eq!(atoms(&r), vec![Atomic::Int(7), Atomic::Int(2)]);
    let r = run(&mut s, "reverse((1,2,3))");
    assert_eq!(atoms(&r), vec![Atomic::Int(3), Atomic::Int(2), Atomic::Int(1)]);
}

#[test]
fn builtin_string_functions_extended() {
    let mut s = fixture();
    let r = run(&mut s, "substring-before(\"a-b-c\", \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a".into())]);
    let r = run(&mut s, "substring-after(\"a-b-c\", \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("b-c".into())]);
    let r = run(&mut s, "ends-with(\"hello\", \"llo\")");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "translate(\"abcabc\", \"abc\", \"xy\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("xyxy".into())]);
    let r = run(&mut s, "tokenize(\"a,b,,c\", \",\")");
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Str("a".into()),
            Atomic::Str("b".into()),
            Atomic::Str("c".into())
        ]
    );
    let r = run(&mut s, "(abs(-2.5), floor(2.7), ceiling(2.1), round(2.5))");
    assert_eq!(
        atoms(&r),
        vec![Atomic::Dbl(2.5), Atomic::Dbl(2.0), Atomic::Dbl(3.0), Atomic::Dbl(3.0)]
    );
}
