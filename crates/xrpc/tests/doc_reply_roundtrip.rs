//! Doc replies carry the serialized document as raw markup between fixed
//! envelope bytes. Serializing a document, encoding it as a doc reply,
//! decoding the reply and reparsing the body must give back a document
//! with an identical serialization — whatever the document's own markup.

use xqd_xml::{parse_document, serialize_document, NodeKind, Store};
use xqd_xrpc::{decode_doc_response, encode_doc_response};

const URI: &str = "xrpc://p/d.xml";

/// Ships `xml` through a doc reply and returns the original and the
/// reparsed serializations, after checking the body is the serialization.
fn ship(xml: &str) -> (String, String) {
    let mut store = Store::new();
    let id = parse_document(&mut store, xml, Some(URI)).unwrap();
    let sent = serialize_document(store.doc(id), &store.names);
    let reply = encode_doc_response(URI, &store, id);
    let body = decode_doc_response(&reply).expect("doc reply decodes");
    assert_eq!(body, sent, "the reply body is the serialized document");
    let mut receiver = Store::new();
    let back = parse_document(&mut receiver, &body, Some(URI)).unwrap();
    (
        sent,
        serialize_document(receiver.doc(back), &receiver.names),
    )
}

fn assert_roundtrip(xml: &str) {
    let (sent, received) = ship(xml);
    assert_eq!(sent, received, "doc reply changed {xml:?}");
}

#[test]
fn entities_in_text_and_attributes_roundtrip() {
    assert_roundtrip(
        r#"<a q="&lt;&amp;&gt;&quot;'" t='say "hi"'>1 &lt; 2 &amp;&amp; 3 &gt; 2 &#65;&#x42;</a>"#,
    );
    let (sent, _) = ship(r#"<a q="&quot;&amp;">&lt;b/&gt;</a>"#);
    assert_eq!(sent, r#"<a q="&quot;&amp;">&lt;b/&gt;</a>"#);
}

#[test]
fn cdata_next_to_text_stays_one_text_node() {
    for xml in [
        "<r>a<![CDATA[b]]>c</r>",
        "<r>x &amp; <![CDATA[<y>&]]> z</r>",
        "<r><![CDATA[]]>a</r>",
    ] {
        assert_roundtrip(xml);
        let mut store = Store::new();
        let id = parse_document(&mut store, xml, None).unwrap();
        let doc = store.doc(id);
        let kids: Vec<u32> = doc.children(1).collect();
        assert_eq!(kids.len(), 1, "{xml:?} split into {} nodes", kids.len());
        assert_eq!(doc.kind(kids[0]), NodeKind::Text);
    }
    let (sent, _) = ship("<r>a<![CDATA[b]]>c</r>");
    assert_eq!(sent, "<r>abc</r>");
}

#[test]
fn comments_and_pis_roundtrip_at_top_level_and_nested() {
    assert_roundtrip(
        "<!--top--><?app top data?><r><!--in--><?app in?><s><!--deep--></s>t</r><!--tail--><?end?>",
    );
}

#[test]
fn non_ascii_utf8_roundtrips() {
    assert_roundtrip("<straße café=\"naïve ü\">grüße 你好 😀<ç>ß&amp;中</ç></straße>");
}

#[test]
fn envelope_shaped_documents_roundtrip() {
    assert_roundtrip("<env><doc>…</doc></env>");
    assert_roundtrip(r#"<env><doc uri="x"><env><doc/></env></doc></env>"#);
    assert_roundtrip(
        r#"<env><fault code="xrpc:timeout" peer="p"><message>m</message></fault></env>"#,
    );
}
