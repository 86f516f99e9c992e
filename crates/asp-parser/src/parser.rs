//! Recursive-descent parser producing [`asp_core::Program`].

use crate::lexer::{lex, Spanned, Tok};
use asp_core::{
    ArithOp, AspError, Atom, BodyLiteral, CmpOp, Head, Predicate, Program, Rule, Sym, Symbols, Term,
};

/// Parses a full program. Symbols (predicate/constant/variable names) are
/// interned into `syms`.
pub fn parse_program(syms: &Symbols, src: &str) -> Result<Program, AspError> {
    let tokens = lex(src)?;
    let mut p =
        Parser { syms, tokens, pos: 0, anon_counter: 0, consts: std::collections::HashMap::new() };
    let program = p.program()?;
    Ok(normalize_strong_negation(syms, program))
}

/// Parses a single rule (convenience for tests and examples).
pub fn parse_rule(syms: &Symbols, src: &str) -> Result<Rule, AspError> {
    let program = parse_program(syms, src)?;
    match <[Rule; 1]>::try_from(program.rules) {
        Ok([rule]) => Ok(rule),
        Err(rules) => Err(AspError::Parse {
            message: format!("expected exactly one rule, found {}", rules.len()),
            line: 1,
            col: 1,
        }),
    }
}

struct Parser<'a> {
    syms: &'a Symbols,
    tokens: Vec<Spanned>,
    pos: usize,
    anon_counter: u32,
    /// `#const name = value.` definitions, substituted into later rules.
    consts: std::collections::HashMap<String, Term>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.tokens[self.pos];
        (s.line, s.col)
    }

    fn error(&self, message: impl Into<String>) -> AspError {
        let (line, col) = self.here();
        AspError::Parse { message: message.into(), line, col }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), AspError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn program(&mut self) -> Result<Program, AspError> {
        let mut program = Program::new();
        while !matches!(self.peek(), Tok::Eof) {
            if let Tok::Directive(name) = self.peek().clone() {
                self.bump();
                self.directive(&name, &mut program)?;
            } else {
                let rule = self.rule()?;
                let expanded = self.expand_intervals(rule)?;
                program.rules.extend(expanded);
            }
        }
        Ok(program)
    }

    /// Expands every `lo..hi` interval term into one rule per combination
    /// (clingo semantics for ground intervals).
    fn expand_intervals(&self, rule: Rule) -> Result<Vec<Rule>, AspError> {
        const MAX_EXPANSION: usize = 100_000;
        let mut done: Vec<Rule> = Vec::new();
        let mut queue: Vec<Rule> = vec![rule];
        let mut produced = 0usize;
        while let Some(r) = queue.pop() {
            match find_interval(&r) {
                None => done.push(r),
                Some((lo, hi)) => {
                    if lo > hi {
                        // An empty interval cannot be satisfied: the rule
                        // vanishes (no instance exists).
                        continue;
                    }
                    produced += (hi - lo + 1) as usize;
                    if produced > MAX_EXPANSION {
                        return Err(
                            self.error(format!("interval expansion exceeds {MAX_EXPANSION} rules"))
                        );
                    }
                    for v in lo..=hi {
                        queue.push(replace_first_interval(&r, v));
                    }
                }
            }
        }
        done.reverse(); // restore ascending order for determinism
        Ok(done)
    }

    fn directive(&mut self, name: &str, program: &mut Program) -> Result<(), AspError> {
        match name {
            "const" => {
                let const_name = match self.bump() {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(self.error(format!("expected constant name, found {other}")))
                    }
                };
                self.expect(&Tok::Eq)?;
                let value = self.term()?;
                if !value.is_ground() {
                    return Err(
                        self.error(format!("#const {const_name} must be bound to a ground term"))
                    );
                }
                self.expect(&Tok::Dot)?;
                self.consts.insert(const_name, value);
                Ok(())
            }
            "show" => {
                let strong_neg = if matches!(self.peek(), Tok::Minus) {
                    self.bump();
                    true
                } else {
                    false
                };
                let pred_name = match self.bump() {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(self.error(format!("expected predicate name, found {other}")))
                    }
                };
                self.expect(&Tok::Slash)?;
                let arity = match self.bump() {
                    Tok::Int(v) if (0..=u32::MAX as i64).contains(&v) => v as u32,
                    other => return Err(self.error(format!("expected arity, found {other}"))),
                };
                self.expect(&Tok::Dot)?;
                program.shows.push(Predicate {
                    name: self.syms.intern(&pred_name),
                    arity,
                    strong_neg,
                });
                Ok(())
            }
            other => Err(self.error(format!("unsupported directive `#{other}`"))),
        }
    }

    fn rule(&mut self) -> Result<Rule, AspError> {
        let head = match self.peek() {
            Tok::If => Head::Disjunction(Vec::new()), // constraint `:- body.`
            Tok::LBrace => {
                self.bump();
                let mut atoms = vec![self.atom()?];
                while matches!(self.peek(), Tok::Semi) {
                    self.bump();
                    atoms.push(self.atom()?);
                }
                self.expect(&Tok::RBrace)?;
                Head::Choice(atoms)
            }
            _ => {
                let mut atoms = vec![self.atom()?];
                while matches!(self.peek(), Tok::Pipe | Tok::Semi) {
                    self.bump();
                    atoms.push(self.atom()?);
                }
                Head::Disjunction(atoms)
            }
        };
        let mut body = Vec::new();
        if matches!(self.peek(), Tok::If) {
            self.bump();
            // An empty body after `:-` is a syntax error except for the
            // degenerate `head :- .` which we do not accept either.
            body.push(self.body_literal()?);
            while matches!(self.peek(), Tok::Comma) {
                self.bump();
                body.push(self.body_literal()?);
            }
        }
        self.expect(&Tok::Dot)?;
        Ok(Rule { head, body })
    }

    fn body_literal(&mut self) -> Result<BodyLiteral, AspError> {
        if matches!(self.peek(), Tok::Not) {
            self.bump();
            let atom = self.atom()?;
            return Ok(BodyLiteral::not(atom));
        }
        // Could be an atom or a comparison; parse a term and look ahead.
        let lhs = self.term()?;
        let op = match self.peek() {
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            Tok::Eq => Some(CmpOp::Eq),
            Tok::Neq => Some(CmpOp::Neq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.term()?;
            return Ok(BodyLiteral::Comparison { lhs, op, rhs });
        }
        let atom = self.term_to_atom(lhs)?;
        Ok(BodyLiteral::pos(atom))
    }

    /// Reinterprets a parsed term as an atom; `-p(X)` arrives as a strong
    /// negation marker handled in `term`/`primary`.
    fn term_to_atom(&self, term: Term) -> Result<Atom, AspError> {
        match term {
            Term::Const(name) => Ok(Atom::new(name, Vec::new())),
            Term::Func(name, args) => Ok(Atom::new(name, args)),
            other => Err(self.error(format!(
                "expected an atom, found a non-atom term `{}`",
                other.display(self.syms)
            ))),
        }
    }

    fn atom(&mut self) -> Result<Atom, AspError> {
        let strong_neg = if matches!(self.peek(), Tok::Minus) {
            self.bump();
            true
        } else {
            false
        };
        let name = match self.bump() {
            Tok::Ident(s) => s,
            other => return Err(self.error(format!("expected predicate name, found {other}"))),
        };
        let mut args = Vec::new();
        if matches!(self.peek(), Tok::LParen) {
            self.bump();
            args.push(self.term()?);
            while matches!(self.peek(), Tok::Comma) {
                self.bump();
                args.push(self.term()?);
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(Atom { pred: self.syms.intern(&name), args, strong_neg })
    }

    fn term(&mut self) -> Result<Term, AspError> {
        let lhs = self.additive()?;
        if matches!(self.peek(), Tok::DotDot) {
            self.bump();
            let rhs = self.additive()?;
            let lo = fold_int(&lhs).ok_or_else(|| {
                self.error("interval bounds must be integer expressions".to_string())
            })?;
            let hi = fold_int(&rhs).ok_or_else(|| {
                self.error("interval bounds must be integer expressions".to_string())
            })?;
            return Ok(Term::Interval(lo, hi));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Term, AspError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Term, AspError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                Tok::Backslash => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Term, AspError> {
        if matches!(self.peek(), Tok::Minus) {
            // `-5` is an integer; `-p(X)` in an atom position is strong
            // negation (handled by `atom`); `-X` is 0 - X.
            match self.peek2() {
                Tok::Int(_) => {
                    self.bump();
                    if let Tok::Int(v) = self.bump() {
                        return Ok(Term::Int(-v));
                    }
                    unreachable!("peek2 said Int");
                }
                Tok::Ident(_) => {
                    // Strong negation in a body-literal position: parse the
                    // whole thing as an atom-shaped term and mark it.
                    self.bump();
                    let atom_term = self.primary()?;
                    return match atom_term {
                        Term::Const(name) => Ok(Term::Func(self.strong_marker(name), Vec::new())),
                        Term::Func(name, args) => Ok(Term::Func(self.strong_marker(name), args)),
                        other => Err(self.error(format!(
                            "cannot strongly negate `{}`",
                            other.display(self.syms)
                        ))),
                    };
                }
                _ => {
                    self.bump();
                    let inner = self.unary()?;
                    return Ok(Term::BinOp(ArithOp::Sub, Box::new(Term::Int(0)), Box::new(inner)));
                }
            }
        }
        self.primary()
    }

    /// Strong negation survives term parsing as a reserved name prefix; it is
    /// unmangled in [`Parser::term_to_atom`] callers via `decode_strong`.
    fn strong_marker(&self, name: Sym) -> Sym {
        self.syms.intern(&format!("\u{1}-{}", self.syms.resolve(name)))
    }

    fn primary(&mut self) -> Result<Term, AspError> {
        match self.bump() {
            Tok::Int(v) => Ok(Term::Int(v)),
            Tok::Str(s) => Ok(Term::Const(self.syms.intern(&s))),
            Tok::Var(v) => {
                if v == "_" {
                    self.anon_counter += 1;
                    let name = format!("_Anon{}", self.anon_counter);
                    Ok(Term::Var(self.syms.intern(&name)))
                } else {
                    Ok(Term::Var(self.syms.intern(&v)))
                }
            }
            Tok::Ident(name) => {
                if matches!(self.peek(), Tok::LParen) {
                    self.bump();
                    let mut args = vec![self.term()?];
                    while matches!(self.peek(), Tok::Comma) {
                        self.bump();
                        args.push(self.term()?);
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Term::Func(self.syms.intern(&name), args))
                } else if let Some(value) = self.consts.get(&name) {
                    // `#const` substitution.
                    Ok(value.clone())
                } else {
                    Ok(Term::Const(self.syms.intern(&name)))
                }
            }
            Tok::LParen => {
                let inner = self.term()?;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            other => Err(self.error(format!("expected a term, found {other}"))),
        }
    }
}

/// Constant-folds a ground integer expression (used for interval bounds).
fn fold_int(t: &Term) -> Option<i64> {
    match t {
        Term::Int(v) => Some(*v),
        Term::BinOp(op, l, r) => op.apply(fold_int(l)?, fold_int(r)?).ok(),
        _ => None,
    }
}

/// First interval term in the rule, if any.
fn find_interval(rule: &Rule) -> Option<(i64, i64)> {
    fn in_term(t: &Term) -> Option<(i64, i64)> {
        match t {
            Term::Interval(lo, hi) => Some((*lo, *hi)),
            Term::Func(_, args) => args.iter().find_map(in_term),
            Term::BinOp(_, l, r) => in_term(l).or_else(|| in_term(r)),
            _ => None,
        }
    }
    let heads = rule.head.atoms().iter().flat_map(|a| a.args.iter()).find_map(in_term);
    heads.or_else(|| {
        rule.body.iter().find_map(|l| match l {
            BodyLiteral::Atom { atom, .. } => atom.args.iter().find_map(in_term),
            BodyLiteral::Comparison { lhs, rhs, .. } => in_term(lhs).or_else(|| in_term(rhs)),
        })
    })
}

/// Replaces the first interval term with the integer `v`.
fn replace_first_interval(rule: &Rule, v: i64) -> Rule {
    fn in_term(t: &mut Term, v: i64, done: &mut bool) {
        if *done {
            return;
        }
        match t {
            Term::Interval(..) => {
                *t = Term::Int(v);
                *done = true;
            }
            Term::Func(_, args) => {
                for a in args {
                    in_term(a, v, done);
                }
            }
            Term::BinOp(_, l, r) => {
                in_term(l, v, done);
                in_term(r, v, done);
            }
            _ => {}
        }
    }
    let mut rule = rule.clone();
    let mut done = false;
    let atoms = match &mut rule.head {
        Head::Disjunction(a) | Head::Choice(a) => a,
    };
    for a in atoms.iter_mut() {
        for t in a.args.iter_mut() {
            in_term(t, v, &mut done);
        }
    }
    for lit in &mut rule.body {
        match lit {
            BodyLiteral::Atom { atom, .. } => {
                for t in atom.args.iter_mut() {
                    in_term(t, v, &mut done);
                }
            }
            BodyLiteral::Comparison { lhs, rhs, .. } => {
                in_term(lhs, v, &mut done);
                in_term(rhs, v, &mut done);
            }
        }
    }
    rule
}

/// Post-processing: decode the strong-negation marker produced while parsing
/// `-p(...)` in body positions back into `Atom::strong_neg`.
fn decode_strong(syms: &Symbols, atom: Atom) -> Atom {
    let name = syms.resolve(atom.pred);
    if let Some(stripped) = name.strip_prefix('\u{1}') {
        let stripped = stripped.strip_prefix('-').unwrap_or(stripped);
        Atom { pred: syms.intern(stripped), args: atom.args, strong_neg: true }
    } else {
        atom
    }
}

/// Walks the parsed program and decodes strong-negation markers everywhere.
pub(crate) fn normalize_strong_negation(syms: &Symbols, mut program: Program) -> Program {
    for rule in &mut program.rules {
        let atoms = match &mut rule.head {
            Head::Disjunction(a) | Head::Choice(a) => a,
        };
        for a in atoms.iter_mut() {
            *a = decode_strong(syms, a.clone());
        }
        for lit in &mut rule.body {
            if let BodyLiteral::Atom { atom, negated } = lit {
                let decoded = decode_strong(syms, atom.clone());
                *lit = BodyLiteral::Atom { atom: decoded, negated: *negated };
            }
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (Symbols, Program) {
        let syms = Symbols::new();
        let p = parse_program(&syms, src).unwrap();
        (syms, p)
    }

    #[test]
    fn parses_paper_program_p() {
        let src = r#"
            very_slow_speed(X) :- average_speed(X,Y), Y < 20.
            many_cars(X) :- car_number(X,Y), Y > 40.
            traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
            car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
            give_notification(X) :- traffic_jam(X).
            give_notification(X) :- car_fire(X).
        "#;
        let (_syms, p) = parse(src);
        assert_eq!(p.rules.len(), 6);
        assert_eq!(p.edb_predicates().len(), 6);
        assert_eq!(p.predicates().len(), 11);
    }

    #[test]
    fn roundtrip_through_display() {
        let src = "traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).";
        let syms = Symbols::new();
        let p = parse_program(&syms, src).unwrap();
        let printed = p.display(&syms).to_string();
        let p2 = parse_program(&syms, &printed).unwrap();
        assert_eq!(p.rules, p2.rules);
    }

    #[test]
    fn parses_constraint_and_fact() {
        let (_syms, p) = parse(":- p(X), q(X).\nfact(a,1).");
        assert!(p.rules[0].head.is_constraint());
        assert!(p.rules[1].is_fact());
    }

    #[test]
    fn parses_disjunction_and_choice() {
        let (_s, p) = parse("a | b :- c. {d; e} :- f.");
        match &p.rules[0].head {
            Head::Disjunction(atoms) => assert_eq!(atoms.len(), 2),
            other => panic!("expected disjunction, got {other:?}"),
        }
        match &p.rules[1].head {
            Head::Choice(atoms) => assert_eq!(atoms.len(), 2),
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn parses_comparisons_and_arithmetic() {
        let (syms, p) = parse("p(X) :- q(X,Y), Y >= 2*X+1, X != Y.");
        let cmps: Vec<_> = p.rules[0]
            .body
            .iter()
            .filter(|l| matches!(l, BodyLiteral::Comparison { .. }))
            .collect();
        assert_eq!(cmps.len(), 2);
        let text = p.rules[0].display(&syms).to_string();
        assert!(text.contains(">="), "display keeps comparison: {text}");
    }

    #[test]
    fn negative_integers_parse() {
        let (_s, p) = parse("p(-5).");
        assert_eq!(p.rules[0].head.atoms()[0].args[0], Term::Int(-5));
    }

    #[test]
    fn strong_negation_in_head_and_body() {
        let syms = Symbols::new();
        let p = parse_program(&syms, "-p(X) :- q(X), -r(X).").unwrap();
        let p = normalize_strong_negation(&syms, p);
        assert!(p.rules[0].head.atoms()[0].strong_neg);
        let strong_in_body = p.rules[0]
            .body
            .iter()
            .filter_map(|l| l.as_atom())
            .filter(|(a, _)| a.strong_neg)
            .count();
        assert_eq!(strong_in_body, 1);
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let (_s, p) = parse("p(X) :- q(X,_,_).");
        let vars = p.rules[0].variables();
        assert_eq!(vars.len(), 3, "each `_` must be a distinct variable");
    }

    #[test]
    fn show_directive() {
        let (syms, p) = parse("#show traffic_jam/1.\np.");
        assert_eq!(p.shows.len(), 1);
        assert_eq!(p.shows[0].name, syms.intern("traffic_jam"));
        assert_eq!(p.shows[0].arity, 1);
    }

    #[test]
    fn quoted_strings_become_constants() {
        let (syms, p) = parse(r#"triple("http://ex.org/s", name, 4)."#);
        let atom = &p.rules[0].head.atoms()[0];
        assert_eq!(atom.args[0], Term::Const(syms.intern("http://ex.org/s")));
    }

    #[test]
    fn error_on_missing_dot() {
        let syms = Symbols::new();
        let err = parse_program(&syms, "p(X) :- q(X)").unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }

    #[test]
    fn aggregates_are_named_at_their_own_position() {
        let syms = Symbols::new();
        let src = "a(1).\nb(2).\nc(N) :- N = #count{ X : a(X) }.";
        let err = parse_program(&syms, src).unwrap_err().to_string();
        assert_eq!(err, "parse error at 3:13: aggregates (#count) are not supported");
        for agg in ["sum", "min", "max"] {
            let err = parse_program(&syms, &format!("#{agg}{{ X : a(X) }} > 1 :- b.")).unwrap_err();
            assert!(err.to_string().contains(&format!("aggregates (#{agg})")), "{err}");
        }
    }

    #[test]
    fn error_on_comparison_in_head() {
        let syms = Symbols::new();
        assert!(parse_program(&syms, "X < 2 :- p(X).").is_err());
    }

    #[test]
    fn parse_rule_helper() {
        let syms = Symbols::new();
        let r = parse_rule(&syms, "a :- b.").unwrap();
        assert_eq!(r.body.len(), 1);
        assert!(parse_rule(&syms, "a. b.").is_err());
    }

    #[test]
    fn intervals_expand_facts() {
        let (syms, p) = parse("num(1..4).");
        assert_eq!(p.rules.len(), 4);
        let rendered: Vec<String> = p.rules.iter().map(|r| r.display(&syms).to_string()).collect();
        assert_eq!(rendered, vec!["num(1).", "num(2).", "num(3).", "num(4)."]);
    }

    #[test]
    fn intervals_expand_in_bodies_and_multiply() {
        let (_s, p) = parse("cell(1..2, 1..3).");
        assert_eq!(p.rules.len(), 6);
        let (_s, p) = parse("p(X) :- q(X, 1..2).");
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn empty_interval_eliminates_rule() {
        let (_s, p) = parse("never(5..2). ok.");
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn interval_bounds_can_be_expressions() {
        let (syms, p) = parse("n(2+1..2*2).");
        let rendered: Vec<String> = p.rules.iter().map(|r| r.display(&syms).to_string()).collect();
        assert_eq!(rendered, vec!["n(3).", "n(4)."]);
    }

    #[test]
    fn interval_with_variable_bound_is_an_error() {
        let syms = Symbols::new();
        assert!(parse_program(&syms, "p(X..3) :- q(X).").is_err());
    }

    #[test]
    fn const_directive_substitutes() {
        let (syms, p) = parse("#const n = 3.\nsize(n). bound(X) :- v(X), X < n.");
        let rendered: Vec<String> = p.rules.iter().map(|r| r.display(&syms).to_string()).collect();
        assert_eq!(rendered[0], "size(3).");
        assert!(rendered[1].contains("X<3"), "{}", rendered[1]);
    }

    #[test]
    fn const_with_interval_via_const_bounds() {
        let (_s, p) = parse("#const n = 3.\nrow(1..n).");
        assert_eq!(p.rules.len(), 3);
    }

    #[test]
    fn const_must_be_ground() {
        let syms = Symbols::new();
        assert!(parse_program(&syms, "#const n = X.").is_err());
    }

    #[test]
    fn undefined_const_stays_a_constant() {
        let (syms, p) = parse("p(n).");
        assert_eq!(p.rules[0].head.atoms()[0].args[0], Term::Const(syms.intern("n")));
    }
}
