//! XML parser ("shredder" in the paper's vocabulary).
//!
//! A hand-written, non-validating parser covering what the distributed
//! XQuery pipeline needs: elements, attributes, text, comments, processing
//! instructions, CDATA sections, the five predefined entities and numeric
//! character references. Namespace declarations are kept as plain
//! attributes; QNames are stored verbatim (prefix included).

use std::fmt;

use crate::store::{DocBuilder, DocId, Store};

/// Parse failure with byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: msg.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    /// Returns the input up to `marker` and moves past the marker. Every
    /// position the parser stops at follows an ASCII byte or a whole name,
    /// so the slices below always fall on character boundaries.
    fn read_until(&mut self, marker: &str) -> Result<&'a str, ParseError> {
        match self.input[self.pos..].find(marker) {
            Some(i) => {
                let s = &self.input[self.pos..self.pos + i];
                self.pos += i + marker.len();
                Ok(s)
            }
            None => self.err(format!("unterminated section, expected {marker:?}")),
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            _ => return self.err("expected name"),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        // name bytes include every byte >= 0x80, so a name never ends
        // inside a multi-byte character
        Ok(&self.input[start..self.pos])
    }

    fn parse_misc(&mut self, b: &mut DocBuilder) -> Result<bool, ParseError> {
        if self.starts_with("<!--") {
            self.bump(4);
            let body = self.read_until("-->")?;
            b.comment(body);
            Ok(true)
        } else if self.starts_with("<?") {
            self.bump(2);
            let target = self.read_name()?;
            self.skip_ws();
            let body = self.read_until("?>")?;
            if !target.eq_ignore_ascii_case("xml") {
                b.pi(target, body.trim_end());
            }
            Ok(true)
        } else if self.starts_with("<!DOCTYPE") {
            // Skip a (non-subset) doctype declaration.
            self.bump(9);
            let mut depth = 0usize;
            loop {
                match self.peek() {
                    Some(b'<') => depth += 1,
                    Some(b'>') => {
                        if depth == 0 {
                            self.bump(1);
                            break;
                        }
                        depth -= 1;
                    }
                    None => return self.err("unterminated DOCTYPE"),
                    _ => {}
                }
                self.bump(1);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_element(&mut self, b: &mut DocBuilder) -> Result<(), ParseError> {
        self.expect("<")?;
        let name = self.read_name()?;
        b.start_element(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    b.end_element();
                    return Ok(());
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(b'"') => "\"",
                        Some(b'\'') => "'",
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.bump(1);
                    let raw_start = self.pos;
                    let raw = self.read_until(quote)?;
                    if raw.contains('&') {
                        let mut value = String::with_capacity(raw.len());
                        decode_text(raw, raw_start, &mut value)?;
                        b.attribute(attr_name, &value);
                    } else {
                        b.attribute(attr_name, raw);
                    }
                }
                None => return self.err("unterminated start tag"),
            }
        }
        // content: a text run and adjacent CDATA sections make one text node
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return self.err(format!("unterminated element <{name}>")),
                Some(b'<') => {
                    if self.starts_with("<![CDATA[") {
                        self.bump(9);
                        let body = self.read_until("]]>")?;
                        text.push_str(body);
                        continue;
                    }
                    if !text.is_empty() {
                        b.text(&text);
                        text.clear();
                    }
                    if self.starts_with("</") {
                        self.bump(2);
                        let close = self.read_name()?;
                        if close != name {
                            return self.err(format!("mismatched close tag </{close}>, open <{name}>"));
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        b.end_element();
                        return Ok(());
                    }
                    if self.parse_misc(b)? {
                        continue;
                    }
                    self.parse_element(b)?;
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos += self.input[start..].find('<').unwrap_or(self.input.len() - start);
                    let raw = &self.input[start..self.pos];
                    if text.is_empty() && !raw.contains('&') && !self.starts_with("<![CDATA[") {
                        // a lone entity-free run goes to the builder as an input slice
                        b.text(raw);
                    } else {
                        decode_text(raw, start, &mut text)?;
                    }
                }
            }
        }
    }
}

/// Decodes entity and character references in `raw` into `out`, copying
/// the spans between references whole. `raw_offset` is `raw`'s position
/// in the input, for error offsets.
fn decode_text(raw: &str, raw_offset: usize, out: &mut String) -> Result<(), ParseError> {
    let mut i = 0;
    while let Some(amp) = raw[i..].find('&') {
        out.push_str(&raw[i..i + amp]);
        i += amp;
        let err = |message: String| ParseError { offset: raw_offset + i, message };
        let semi = raw[i..]
            .find(';')
            .ok_or_else(|| err("unterminated entity reference".into()))?;
        let ent = &raw[i + 1..i + semi];
        let decoded = match ent {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let hex = ent.strip_prefix("#x").or_else(|| ent.strip_prefix("#X"));
                let cp = if let Some(hex) = hex {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = ent.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    return Err(err(format!("unknown entity &{ent};")));
                };
                cp.and_then(char::from_u32)
                    .ok_or_else(|| err(format!("bad character reference &{ent};")))?
            }
        };
        out.push(decoded);
        i += semi + 1;
    }
    out.push_str(&raw[i..]);
    Ok(())
}

/// Parses `input` into a [`DocBuilder`] (not yet attached to a store).
pub fn parse_to_builder(input: &str, uri: Option<&str>) -> Result<DocBuilder, ParseError> {
    // node values are addressed by u32 offsets into the document's text arena
    if u32::try_from(input.len()).is_err() {
        return Err(ParseError { offset: 0, message: "document larger than 4 GiB".into() });
    }
    let mut p = Parser { input, pos: 0 };
    let mut b = DocBuilder::new(uri);
    p.skip_ws();
    // prolog + misc
    loop {
        if p.starts_with("<?xml") {
            p.bump(5);
            p.read_until("?>")?;
            p.skip_ws();
            continue;
        }
        if p.parse_misc(&mut b)? {
            p.skip_ws();
            continue;
        }
        break;
    }
    if p.peek() != Some(b'<') {
        return p.err("expected root element");
    }
    p.parse_element(&mut b)?;
    p.skip_ws();
    while p.pos < p.input.len() {
        if !p.parse_misc(&mut b)? {
            return p.err("trailing content after root element");
        }
        p.skip_ws();
    }
    Ok(b.finish())
}

/// Parses `input` and attaches the document to `store` under `uri`.
pub fn parse_document(store: &mut Store, input: &str, uri: Option<&str>) -> Result<DocId, ParseError> {
    let b = parse_to_builder(input, uri)?;
    Ok(store.attach(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeId, NodeKind};

    #[test]
    fn simple_document() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><b x='1'>hi</b><c/></a>", Some("t.xml")).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.len(), 6); // doc, a, b, @x, text, c
        assert_eq!(doc.string_value(0), "hi");
        let a = s.node(NodeId::new(d, 1));
        assert_eq!(a.name(), "a");
        let b = a.child_element("b").unwrap();
        assert_eq!(b.attribute("x"), Some("1"));
    }

    #[test]
    fn entities_decoded() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a t='&lt;&amp;&#65;'>x &gt; y &#x41;</a>", None).unwrap();
        let doc = s.doc(d);
        let root = s.node(NodeId::new(d, 1));
        assert_eq!(root.attribute("t"), Some("<&A"));
        assert_eq!(doc.string_value(1), "x > y A");
    }

    #[test]
    fn prolog_comments_pis_cdata() {
        let mut s = Store::new();
        let input = "<?xml version=\"1.0\"?><!-- top --><a><?app do it?><![CDATA[<raw>]]></a><!-- tail -->";
        let d = parse_document(&mut s, input, None).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1 + 1), "<raw>"); // comment shifts root to idx 2
        let kinds: Vec<NodeKind> = (0..doc.len() as u32).map(|i| doc.kind(i)).collect();
        assert!(kinds.contains(&NodeKind::Comment));
        assert!(kinds.contains(&NodeKind::Pi));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a><b></a></b>", None).is_err());
        assert!(parse_document(&mut s, "<a>", None).is_err());
        assert!(parse_document(&mut s, "text", None).is_err());
        assert!(parse_document(&mut s, "<a/><b/>", None).is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a>&nbsp;</a>", None).is_err());
    }

    #[test]
    fn doctype_skipped() {
        let mut s = Store::new();
        let d =
            parse_document(&mut s, "<!DOCTYPE site SYSTEM \"x.dtd\"><site>ok</site>", None).unwrap();
        assert_eq!(s.doc(d).string_value(0), "ok");
    }

    #[test]
    fn whitespace_text_preserved_inside_elements() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a> <b/> </a>", None).unwrap();
        // two whitespace text nodes around <b/>
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1), "  ");
        assert_eq!(doc.len(), 5);
    }

    #[test]
    fn utf8_content() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a name='møller'>grüße 你好</a>", None).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1), "grüße 你好");
        assert_eq!(s.node(NodeId::new(d, 1)).attribute("name"), Some("møller"));
    }
}
