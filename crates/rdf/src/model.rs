//! RDF data model: nodes and triples, sized for stream processing (cheap
//! clones via `Arc<str>`; integers carried natively since the paper's
//! synthetic workloads are number-heavy).

use std::fmt;
use std::sync::Arc;

/// An RDF node. The model is deliberately compact: IRIs and plain literals
/// are interned strings, integer literals are native `i64` (the dominant
/// case in the paper's generator, where subjects/objects are "numbers bound
/// by n").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// An IRI such as `http://insight.org/traffic#newcastle`.
    Iri(Arc<str>),
    /// A plain string literal.
    Literal(Arc<str>),
    /// An integer literal.
    Int(i64),
}

impl Node {
    /// Builds an IRI node.
    pub fn iri(s: &str) -> Node {
        Node::Iri(Arc::from(s))
    }

    /// Builds a plain literal node.
    pub fn literal(s: &str) -> Node {
        Node::Literal(Arc::from(s))
    }

    /// The *local name* of an IRI: the part after the last `#` or `/`
    /// (see [`local_name`]). Returns the full text for literals.
    pub fn local_name(&self) -> &str {
        match self {
            Node::Iri(s) => local_name(s),
            Node::Literal(s) => s,
            Node::Int(_) => "",
        }
    }

    /// Integer value when the node is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Node::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Iri(s) => write!(f, "<{s}>"),
            Node::Literal(s) => write!(
                f,
                "\"{}\"",
                s.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t")
            ),
            Node::Int(i) => write!(f, "{i}"),
        }
    }
}

/// The local name of the IRI text `iri`: the part after its last `#` or
/// `/`, or all of it when it has neither.
pub fn local_name(iri: &str) -> &str {
    iri.rsplit_once(['#', '/']).map_or(iri, |(_, local)| local)
}

/// An RDF triple `<s, p, o>`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Triple {
    /// Subject.
    pub s: Node,
    /// Predicate.
    pub p: Node,
    /// Object.
    pub o: Node,
}

impl Triple {
    /// Builds a triple.
    pub fn new(s: Node, p: Node, o: Node) -> Self {
        Triple { s, p, o }
    }

    /// The predicate's local name — the key the stream query processor and
    /// the partitioning handler group by.
    pub fn predicate_name(&self) -> &str {
        self.p.local_name()
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_name_strips_namespace() {
        assert_eq!(Node::iri("http://ex.org/traffic#newcastle").local_name(), "newcastle");
        assert_eq!(Node::iri("http://ex.org/traffic/dangan").local_name(), "dangan");
        assert_eq!(Node::iri("plain").local_name(), "plain");
        assert_eq!(Node::literal("high").local_name(), "high");
        assert_eq!(Node::Int(5).local_name(), "");
        assert_eq!(local_name("http://ex.org/a#b/c"), "c");
        assert_eq!(local_name("urn:x#"), "");
    }

    #[test]
    fn display_is_ntriples_like() {
        let t = Triple::new(
            Node::iri("http://ex.org#car1"),
            Node::iri("http://ex.org#car_speed"),
            Node::Int(0),
        );
        assert_eq!(t.to_string(), "<http://ex.org#car1> <http://ex.org#car_speed> 0 .");
        let lit = Node::literal("hi \"there\"");
        assert_eq!(lit.to_string(), "\"hi \\\"there\\\"\"");
    }

    #[test]
    fn predicate_name_for_grouping() {
        let t = Triple::new(
            Node::iri("http://a#s"),
            Node::iri("http://a#average_speed"),
            Node::Int(10),
        );
        assert_eq!(t.predicate_name(), "average_speed");
    }

    #[test]
    fn int_accessor() {
        assert_eq!(Node::Int(42).as_int(), Some(42));
        assert_eq!(Node::literal("42").as_int(), None);
    }
}
