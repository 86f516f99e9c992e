//! A pragmatic N-Triples-style reader/writer: `<iri>`, `"literal"` and bare
//! integers, one triple per `.`-terminated line, `#` comments. Enough to
//! persist and replay the synthetic workloads.

use crate::model::{Node, Triple};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parse error with line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NtError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

/// Parses a document into triples. Equal IRI or literal texts share one
/// `Arc<str>`, as the generator's names do, so the format processor
/// translates each distinct name once.
pub fn parse(text: &str) -> Result<Vec<Triple>, NtError> {
    let mut names = HashSet::new();
    let mut out = Vec::new();
    for (lno, line) in text.lines().enumerate() {
        let line_no = lno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut rest = trimmed;
        let mut nodes = Vec::with_capacity(3);
        for _ in 0..3 {
            let (node, r) = parse_node(rest, line_no, &mut names)?;
            nodes.push(node);
            rest = r.trim_start();
        }
        if rest != "." {
            return Err(NtError {
                line: line_no,
                message: format!("expected terminating `.`, found `{rest}`"),
            });
        }
        let o = nodes.pop().expect("three nodes parsed");
        let p = nodes.pop().expect("three nodes parsed");
        let s = nodes.pop().expect("three nodes parsed");
        out.push(Triple::new(s, p, o));
    }
    Ok(out)
}

/// `text` as the one `Arc<str>` this parse keeps for it in `names`. The
/// default hasher stays: the texts come from outside the program.
fn share(names: &mut HashSet<Arc<str>>, text: &str) -> Arc<str> {
    if let Some(shared) = names.get(text) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(text);
    names.insert(Arc::clone(&shared));
    shared
}

fn parse_node<'a>(
    text: &'a str,
    line: usize,
    names: &mut HashSet<Arc<str>>,
) -> Result<(Node, &'a str), NtError> {
    let text = text.trim_start();
    let err = |message: String| NtError { line, message };
    if let Some(rest) = text.strip_prefix('<') {
        let end = rest.find('>').ok_or_else(|| err("unterminated IRI".to_string()))?;
        return Ok((Node::Iri(share(names, &rest[..end])), &rest[end + 1..]));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let mut value = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Node::Literal(share(names, &value)), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, 't')) => value.push('\t'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, '\\')) => value.push('\\'),
                    other => {
                        return Err(err(format!("bad escape {:?} in literal", other.map(|o| o.1))))
                    }
                },
                c => value.push(c),
            }
        }
        return Err(err("unterminated literal".to_string()));
    }
    // Bare integer.
    let end = text.find(|c: char| c.is_whitespace()).unwrap_or(text.len());
    let token = &text[..end];
    match token.parse::<i64>() {
        Ok(v) => Ok((Node::Int(v), &text[end..])),
        Err(_) => Err(err(format!("cannot parse node from `{token}`"))),
    }
}

/// Serializes triples, one per line.
pub fn write(triples: &[Triple]) -> String {
    let mut out = String::new();
    for t in triples {
        let _ = writeln!(out, "{t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let doc = vec![
            Triple::new(Node::iri("http://a#s"), Node::iri("http://a#p"), Node::Int(-3)),
            Triple::new(Node::iri("b"), Node::iri("p2"), Node::literal("hi \"x\"")),
        ];
        let text = write(&doc);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n<a> <b> 1 .\n";
        assert_eq!(parse(text).unwrap().len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let text = "<a> <b> 1 .\n<a> <b> oops .";
        let err = parse(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse("<a> <b> 1").is_err());
    }

    #[test]
    fn repeated_names_share_one_allocation() {
        let parsed = parse("<s> <p> \"v\" .\n<s> <p> \"v\" .\n<s> <q> <v> .").unwrap();
        let text = |n: &Node| match n {
            Node::Iri(t) | Node::Literal(t) => Arc::clone(t),
            Node::Int(_) => unreachable!("no integers in this document"),
        };
        assert!(Arc::ptr_eq(&text(&parsed[0].s), &text(&parsed[1].s)));
        assert!(Arc::ptr_eq(&text(&parsed[0].s), &text(&parsed[2].s)));
        assert!(Arc::ptr_eq(&text(&parsed[0].p), &text(&parsed[1].p)));
        assert!(Arc::ptr_eq(&text(&parsed[0].o), &text(&parsed[1].o)));
        assert!(!Arc::ptr_eq(&text(&parsed[0].p), &text(&parsed[2].p)));
    }

    #[test]
    fn escapes_in_literals() {
        let parsed = parse("<a> <b> \"x\\ny\" .").unwrap();
        assert_eq!(parsed[0].o, Node::literal("x\ny"));
    }
}
