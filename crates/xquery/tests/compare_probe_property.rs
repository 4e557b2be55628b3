//! Property test: `=` through the request-scoped `CompareMemo` (a hash probe
//! once a keyset recurs) answers exactly like the nested-loop
//! `general_compare` — the same `Ok(bool)` or the same `Err` — for every
//! operator, over random mixed-type operands.

use xqd_prng::Rng;
use xqd_xml::{parse_document, NodeId, Store};
use xqd_xquery::ast::CompOp;
use xqd_xquery::value::{general_compare, string_value, CompareMemo};
use xqd_xquery::{Atomic, Item, Sequence};

const OPS: [CompOp; 6] = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];

/// Strings that collide across types: numeric-looking, boolean-looking,
/// cast-failing and the xs:double specials, plus plain keys.
const WORDS: [&str; 12] = ["a", "b", "k1", "", "1", "2.5", "true", "0", "NaN", "INF", "inf", "x y"];

const DOUBLES: [f64; 6] = [0.0, 1.0, 2.5, -3.0, f64::NAN, f64::INFINITY];

/// A store of `<w>` elements whose string values are `WORDS`, so node items
/// atomize to the same untyped strings the atoms use.
struct Fixture {
    store: Store,
    /// `words[i]` is the `<w>` node holding `WORDS[i]`.
    words: Vec<Item>,
}

fn fixture() -> Fixture {
    let mut store = Store::new();
    let body: String = WORDS.iter().map(|w| format!("<w>{w}</w>")).collect();
    let doc = parse_document(&mut store, &format!("<r>{body}</r>"), None).unwrap();
    let words: Vec<Item> =
        store.doc(doc).children(1).map(|idx| Item::Node(NodeId::new(doc, idx))).collect();
    for (node, word) in words.iter().zip(WORDS) {
        assert_eq!(string_value(&store, node), word);
    }
    Fixture { store, words }
}

fn item(rng: &mut Rng, fx: &Fixture, strings_only: bool) -> Item {
    let word = rng.gen_range_usize(0..WORDS.len());
    let kind = if strings_only { rng.gen_range(0..3) } else { rng.gen_range(0..6) };
    match kind {
        0 => Item::Atom(Atomic::Str(WORDS[word].into())),
        1 => Item::Atom(Atomic::Untyped(WORDS[word].into())),
        2 => fx.words[word].clone(),
        3 => Item::Atom(Atomic::Int(rng.gen_range(0..4) as i64 - 1)),
        4 => Item::Atom(Atomic::Dbl(rng.choose(&DOUBLES))),
        _ => Item::Atom(Atomic::Bool(rng.gen_bool(0.5))),
    }
}

/// A sequence of 0–5 items (duplicates likely). Half the draws are wholly
/// string-class, so the probe path is taken often.
fn operand(rng: &mut Rng, fx: &Fixture) -> Sequence {
    let strings_only = rng.gen_bool(0.5);
    let len = rng.gen_range_usize(0..6);
    (0..len).map(|_| item(rng, fx, strings_only)).collect()
}

#[test]
fn memoized_compare_matches_nested_loop() {
    let fx = fixture();
    let store = &fx.store;
    let mut rng = Rng::seed_from_u64(0x5eed);
    for _ in 0..3000 {
        let keys = operand(&mut rng, &fx);
        let _binding = keys.clone(); // held like a `let` or a shipped parameter
        let keys_left = rng.gen_bool(0.5);
        for op in OPS {
            let mut memo = CompareMemo::default();
            // one loop: the keyset recurs on every iteration, the other
            // operand is fresh each time
            for _ in 0..4 {
                let other = operand(&mut rng, &fx);
                let (l, r) = if keys_left { (&keys, &other) } else { (&other, &keys) };
                let want = general_compare(store, op, l, r);
                let got = memo.general_compare(store, op, l, r);
                assert_eq!(got, want, "{op:?} over {l:?} and {r:?}");
            }
        }
    }
}

#[test]
fn memoized_compare_matches_with_both_operands_recurring() {
    let fx = fixture();
    let store = &fx.store;
    let mut rng = Rng::seed_from_u64(77);
    for _ in 0..2000 {
        let (a, b) = (operand(&mut rng, &fx), operand(&mut rng, &fx));
        let _bindings = (a.clone(), b.clone());
        for op in OPS {
            let mut memo = CompareMemo::default();
            for (l, r) in [(&a, &b), (&b, &a), (&a, &b), (&a, &a), (&b, &a)] {
                assert_eq!(
                    memo.general_compare(store, op, l, r),
                    general_compare(store, op, l, r),
                    "{op:?} over {l:?} and {r:?}"
                );
            }
        }
    }
}
