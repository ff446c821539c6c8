//! Differential tests of the streaming EDIF reader against the reader it
//! replaced.
//!
//! `parse_edif` reads EDIF text straight into the typed AST in one pass.
//! The reader before it first built a complete S-expression tree, checking
//! the syntax of the whole document, and then walked the tree into the AST.
//! That two-step reader is kept below, unchanged in behaviour, as the
//! oracle: on every input both must return the same result — equal `Ok`
//! ASTs, every `Pos` included, or the same `Err`, message and position
//! included. A syntax error anywhere in a document therefore still wins
//! over a structural error found earlier.
//!
//! The inputs are the writer's output for random netlists (with names that
//! need `(rename ...)` and quoted strings holding parens and newlines) and a
//! hand-written hierarchical document, put through random mutations:
//! truncation, dropped and extra parens, keyword case flips, unknown forms
//! at any depth, `(rename ...)` variants, repeated forms, swapped keywords
//! and direction values, and trailing content. The malformed corpus under
//! `tests/data/` must raise the oracle's exact errors.

use desync_netlist::edif::{
    flatten, from_edif, parse_edif, to_edif, EdifAst, EdifCell, EdifDirection, EdifError,
    EdifInstance, EdifLibrary, EdifNet, EdifPort, EdifPortRef, Pos,
};
use desync_netlist::{CellKind, NetId, Netlist, Symbol};
use proptest::prelude::*;
use std::path::Path;

// ---------------------------------------------------------------------------
// Inputs and mutations
// ---------------------------------------------------------------------------

/// xorshift64*, seeded per case: the suite's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// A small random netlist whose names exercise the writer's `(rename ...)`
/// path, including quoted spellings with parens, spaces and newlines.
fn random_netlist(rng: &mut Rng) -> Netlist {
    const NAMES: [&str; 6] = ["w", "bus[3]", "odd (name)", "two\nlines", "x_y", "9lead"];
    const KINDS: [CellKind; 6] = [
        CellKind::And,
        CellKind::Nand,
        CellKind::Xor,
        CellKind::Not,
        CellKind::Mux2,
        CellKind::Dff,
    ];
    let mut n = Netlist::new(rng.pick(&["top", "top level", "t(op)"]));
    let mut nets = vec![n.add_input("clk"), n.add_input("a[0]"), n.add_input("b")];
    for g in 0..1 + rng.below(6) {
        let kind = rng.pick(&KINDS);
        let arity = kind.fixed_arity().unwrap_or(2 + rng.below(2));
        let inputs: Vec<NetId> = (0..arity).map(|_| rng.pick(&nets)).collect();
        let out = n.add_net(format!("{}{g}", rng.pick(&NAMES)));
        n.add_gate(format!("{}{g}", rng.pick(&NAMES)), kind, &inputs, out)
            .expect("fresh names and fixed arities");
        nets.push(out);
    }
    let last = *nets.last().expect("nets are never empty");
    n.mark_output(last);
    n
}

/// A hierarchical document with the forms the writer never emits: an
/// external library, nested `viewRef`s, properties, comments, a design
/// form, renamed names and strings holding parens and newlines.
const HIERARCHICAL: &str = r#"(edif (rename hier "hier (top)")
  (edifVersion 2 0 0)
  (status (written (timeStamp 2024 1 2 3 4 5) (comment "tool (v1)
second line")))
  (external VENDOR (edifLevel 0)
    (cell NAND2 (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port A (direction INPUT)) (port B (direction input))
          (port Y (direction OUTPUT))))))
  (library WORK
    (cell pair (cellType GENERIC) (property area (integer 12))
      (view netlist (viewType NETLIST)
        (interface (port din (direction INPUT)) (port (rename dout "d(out)") (direction OUTPUT)))
        (contents
          (instance u0 (viewRef netlist (cellRef INV (libraryRef PRIMS))) (property p (string ")")))
          (instance (rename u1 "u[1]") (viewRef netlist (viewRef inner (cellRef NAND2 (libraryRef VENDOR)))))
          (comment "(net fake)")
          (net din (joined (portRef din) (portRef A (instanceRef u0)) (portRef A (instanceRef (rename u1 "u[1]")))))
          (net mid (joined (portRef Y (instanceRef u0)) (portRef B (instanceRef (rename u1 "u[1]")))))
          (net (rename dout "d(out)") (joined (portRef (rename dout "d(out)")) (portRef Y (instanceRef (rename u1 "u[1]"))))))))
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port x (direction INPUT)) (port z (direction OUTPUT)))
        (contents
          (instance stage (viewRef netlist (cellRef pair (libraryRef WORK))))
          (net x (joined (portRef x) (portRef din (instanceRef stage))))
          (net z (joined (portRef z) (portRef (rename dout "d(out)") (instanceRef stage))))))))
  (design hier (cellRef top (libraryRef WORK))))
"#;

/// Every keyword the reader knows, for case flips and swaps.
const KEYWORDS: [&str; 19] = [
    "edif",
    "library",
    "external",
    "cell",
    "view",
    "interface",
    "contents",
    "port",
    "direction",
    "instance",
    "net",
    "joined",
    "portRef",
    "instanceRef",
    "cellRef",
    "libraryRef",
    "viewRef",
    "design",
    "rename",
];

/// Forms no reader step knows, injected at any depth.
const UNKNOWN_FORMS: [&str; 7] = [
    "(property p (string \"x (y)\n z\"))",
    "(comment \"a)b(c\")",
    "(unknownForm (deeper (deepest atom) \"s\") 12)",
    "()",
    "(( ) x)",
    "(\"str\" head)",
    "(status (written (timeStamp 2024 1 1 0 0 0)))",
];

/// Replacements for a name; `@` stands for the name being replaced.
const NAME_VARIANTS: [&str; 10] = [
    "(rename @ \"@ (orig)\")",
    "(rename @)",
    "(rename)",
    "(rename @ (sub form))",
    "(RENAME @ \"x\" extra)",
    "(rename \"q\nuoted\" @)",
    "(renamed @)",
    "(rename (a) \"b\")",
    "\"quoted (@)\nwith newline\"",
    "(rename @ \"never closed",
];

const DIRECTIONS: [&str; 6] = ["INOUT", "\"INPUT\"", "(INPUT)", "input", "Output", ""];

/// Byte offsets of the bytes in `text` that satisfy `pred`.
fn offsets(text: &str, pred: impl Fn(u8) -> bool) -> Vec<usize> {
    text.bytes()
        .enumerate()
        .filter(|&(_, b)| pred(b))
        .map(|(i, _)| i)
        .collect()
}

/// The end of the atom starting at `start`.
fn atom_end(text: &str, start: usize) -> usize {
    text[start..]
        .find(|c: char| c.is_ascii_whitespace() || matches!(c, '(' | ')' | '"'))
        .map_or(text.len(), |n| start + n)
}

/// The span of a random keyword: an atom right after a `(`.
fn random_keyword(text: &str, rng: &mut Rng) -> Option<(usize, usize)> {
    let opens = offsets(text, |b| b == b'(');
    if opens.is_empty() {
        return None;
    }
    let start = rng.pick(&opens) + 1;
    let end = atom_end(text, start);
    (end > start).then_some((start, end))
}

/// The span of the list opened at `open`, through its closing paren, when
/// the text closes it.
fn list_span(text: &str, open: usize) -> Option<(usize, usize)> {
    let (mut depth, mut quoted) = (0usize, false);
    for (i, b) in text.bytes().enumerate().skip(open) {
        match b {
            b'"' => quoted = !quoted,
            b'(' if !quoted => depth += 1,
            b')' if !quoted => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Applies one random mutation. Every input and insertion is ASCII, so any
/// byte offset is a char boundary.
fn mutate(text: &mut String, rng: &mut Rng) {
    let len = text.len();
    match rng.below(10) {
        0 => text.truncate(rng.below(len + 1)),
        1 => {
            let parens = offsets(text, |b| b == b'(' || b == b')');
            if !parens.is_empty() {
                text.remove(rng.pick(&parens));
            }
        }
        2 => text.insert(rng.below(len + 1), rng.pick(&['(', ')'])),
        3 => {
            if let Some((start, end)) = random_keyword(text, rng) {
                let flipped: String = text[start..end]
                    .chars()
                    .map(|c| match rng.below(2) {
                        0 if c.is_ascii_lowercase() => c.to_ascii_uppercase(),
                        0 => c.to_ascii_lowercase(),
                        _ => c,
                    })
                    .collect();
                text.replace_range(start..end, &flipped);
            }
        }
        4 => {
            // At the front or the back of a random list.
            let form = rng.pick(&UNKNOWN_FORMS);
            let at = match rng.below(2) {
                0 => random_keyword(text, rng).map(|(_, end)| end),
                _ => {
                    let closes = offsets(text, |b| b == b')');
                    (!closes.is_empty()).then(|| rng.pick(&closes))
                }
            };
            if let Some(at) = at {
                text.insert_str(at, &format!(" {form} "));
            }
        }
        5 => {
            // The name after a keyword.
            if let Some((_, end)) = random_keyword(text, rng) {
                let start = end + text[end..].len() - text[end..].trim_start().len();
                let name_end = atom_end(text, start);
                if name_end > start {
                    let name = text[start..name_end].to_string();
                    let variant = rng.pick(&NAME_VARIANTS).replace('@', &name);
                    text.replace_range(start..name_end, &variant);
                }
            }
        }
        6 => {
            if let Some((start, end)) = random_keyword(text, rng) {
                text.replace_range(start..end, rng.pick(&KEYWORDS));
            }
        }
        7 => {
            let found: Vec<(usize, &str)> = ["INPUT", "OUTPUT"]
                .iter()
                .flat_map(|d| text.match_indices(d))
                .collect();
            if !found.is_empty() {
                let (at, old) = rng.pick(&found);
                let new = rng.pick(&DIRECTIONS);
                text.replace_range(at..at + old.len(), new);
            }
        }
        8 => {
            // A repeated form: two directions, cellRefs, designs, ...
            let opens = offsets(text, |b| b == b'(');
            if !opens.is_empty() {
                if let Some((start, end)) = list_span(text, rng.pick(&opens)) {
                    let form = text[start..end].to_string();
                    text.insert_str(end, &form);
                }
            }
        }
        _ => text.push_str(rng.pick(&[" ", "\n)", " junk", " (edif again)", " \"x"])),
    }
}

fn assert_same_as_oracle(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        parse_edif(text),
        oracle_parse_edif(text),
        "input:\n{}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1500, ..ProptestConfig::default() })]
    #[test]
    fn reader_matches_the_oracle_on_mutated_edif(
        seed in 1u64..u64::MAX,
        hierarchical in proptest::bool::ANY,
        mutations in 0usize..4,
    ) {
        let mut rng = Rng(seed);
        let mut text = if hierarchical {
            HIERARCHICAL.to_string()
        } else {
            to_edif(&random_netlist(&mut rng))
        };
        for _ in 0..mutations {
            mutate(&mut text, &mut rng);
        }
        assert_same_as_oracle(&text)?;
    }
}

#[test]
fn reader_matches_the_oracle_on_edge_cases() {
    let cases = [
        "",
        "  \n ",
        ")",
        "atom",
        "\"string\"",
        "\"unterminated",
        "(",
        "(edif",
        "(edif x",
        "(edif x) trailing",
        "(edif x))",
        "(edif x) \"open",
        "(EDIF x)",
        "()",
        "(\"edif\" x)",
        "((edif) x)",
        "(edif)",
        "(edif (rename))",
        "(edif (rename a))",
        "(edif (rename a \"b\" c))",
        "(edif (other a))",
        "(edif x (design (cellRef y)))",
        "(edif x (design))",
        "(edif x (design d (viewRef v (cellRef c (libraryRef l (extra))))))",
        "(edif x (library))",
        "(edif x (library l (cell)))",
        "(edif x (library l (cell c (view v (interface (port p (direction))))))))",
        "(edif x (library l (cell c (view v (interface (port p (direction (INPUT)))))))))",
        "(edif x (library l (cell c (view v (contents (net n (joined a))))))))",
        "(edif x (library l (cell c (view v (contents (net n (joined (portRef))))))))",
        "(edif x (library l (cell c (view v (contents (net n (joined (portRef p (instanceRef))))))))))",
        "(edif x (library l (cell c (view v (contents (instance i (viewRef v)))))))) (",
        "(edif x (library l (cell c (view (contents (instance i (cellRef k))))))))",
        "(edif x (library l (cell c (view v (contents (instance i (cellRef a) (cellRef b))))))))",
        "(edif x (library l (cell c (view v (contents (instance i (viewRef v (cellRef a)) (cellRef)))))))",
        "(edif x (design d (cellRef a)) (design e (cellRef b (libraryRef l) (libraryRef m))))",
        "(edif\tx\r\n(library l\x0c(cell c)))",
        "(edif x (library l (cell c (view v (interface (port p (direction INPUT)))))))\n\n  ",
        "(edif x (library l (cell \"a\nb\" (view v (interface (port (rename q \"(q)\") (direction output)))))))",
    ];
    for text in cases {
        if let Err(e) = assert_same_as_oracle(text) {
            panic!("{e:?}");
        }
    }
}

/// Every corpus file raises the oracle's exact parse result, and the
/// oracle's AST flattens to the same result as `from_edif`.
#[test]
fn corpus_matches_the_oracle() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&dir).expect("tests/data exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|x| x != "edif") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let oracle = oracle_parse_edif(&text);
        assert_eq!(parse_edif(&text), oracle, "{}", path.display());
        assert_eq!(
            from_edif(&text),
            oracle.and_then(|ast| flatten(&ast)),
            "{}",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 10, "corpus shrank to {checked} files");
}

// ---------------------------------------------------------------------------
// The oracle: the S-expression tree reader that `parse_edif` replaced
// ---------------------------------------------------------------------------

fn err(pos: Pos, message: impl Into<String>) -> EdifError {
    EdifError::Parse {
        pos,
        message: message.into(),
    }
}

/// A parsed S-expression with source positions.
#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    /// A bare atom (identifier or number).
    Atom(String, Pos),
    /// A quoted string literal (quotes stripped).
    Str(String, Pos),
    /// A parenthesized list.
    List(Vec<Sexp>, Pos),
}

impl Sexp {
    fn pos(&self) -> Pos {
        match self {
            Sexp::Atom(_, p) | Sexp::Str(_, p) | Sexp::List(_, p) => *p,
        }
    }

    /// The lowercased head keyword of a list, if this is a non-empty list
    /// starting with an atom.
    fn keyword(&self) -> Option<String> {
        match self {
            Sexp::List(items, _) => match items.first() {
                Some(Sexp::Atom(s, _)) => Some(s.to_ascii_lowercase()),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Byte-slice lexer/reader. EDIF syntax is pure ASCII at the structural
/// level (parens, whitespace, quotes); any UTF-8 payload bytes pass through
/// inside atoms and strings untouched, so byte indexing is safe here and an
/// order of magnitude faster than a `char` iterator on multi-megabyte
/// netlists.
struct SexpParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    line: usize,
    line_start: usize,
}

impl<'a> SexpParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            at: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.at - self.line_start + 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.at;
        }
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.bump();
        }
    }

    /// Parses one S-expression.
    fn parse(&mut self) -> Result<Sexp, EdifError> {
        self.skip_whitespace();
        let pos = self.pos();
        match self.peek() {
            None => Err(err(pos, "unexpected end of file")),
            Some(b'(') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_whitespace();
                    match self.peek() {
                        None => return Err(err(pos, "unclosed `(`")),
                        Some(b')') => {
                            self.bump();
                            return Ok(Sexp::List(items, pos));
                        }
                        Some(_) => items.push(self.parse()?),
                    }
                }
            }
            Some(b')') => Err(err(pos, "unexpected `)`")),
            Some(b'"') => {
                self.bump();
                let start = self.at;
                loop {
                    match self.bump() {
                        None => return Err(err(pos, "unterminated string literal")),
                        Some(b'"') => {
                            let s = self.text[start..self.at - 1].to_string();
                            return Ok(Sexp::Str(s, pos));
                        }
                        // EDIF `%xx%` escapes pass through untouched.
                        Some(_) => {}
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while let Some(b) = self.peek() {
                    if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'"' {
                        break;
                    }
                    self.bump();
                }
                Ok(Sexp::Atom(self.text[start..self.at].to_string(), pos))
            }
        }
    }

    /// Parses the single top-level expression and rejects trailing junk.
    fn parse_document(&mut self) -> Result<Sexp, EdifError> {
        let top = self.parse()?;
        self.skip_whitespace();
        let pos = self.pos();
        if self.peek().is_some() {
            return Err(err(pos, "trailing content after the top-level form"));
        }
        Ok(top)
    }
}

/// Extracts a name, accepting a bare atom or a `(rename ident "string")`
/// form; the original string spelling wins for renames.
fn parse_name(sexp: &Sexp) -> Result<Symbol, EdifError> {
    match sexp {
        Sexp::Atom(s, _) => Ok(Symbol::intern(s)),
        Sexp::Str(s, _) => Ok(Symbol::intern(s)),
        Sexp::List(items, pos) => {
            if sexp.keyword().as_deref() == Some("rename") {
                match items.get(2).or_else(|| items.get(1)) {
                    Some(Sexp::Str(s, _)) => Ok(Symbol::intern(s)),
                    Some(Sexp::Atom(s, _)) => Ok(Symbol::intern(s)),
                    _ => Err(err(*pos, "malformed `(rename ...)` form")),
                }
            } else {
                Err(err(*pos, "expected a name"))
            }
        }
    }
}

fn list_items<'s>(sexp: &'s Sexp, what: &str) -> Result<&'s [Sexp], EdifError> {
    match sexp {
        Sexp::List(items, _) => Ok(items),
        other => Err(err(other.pos(), format!("expected {what} list"))),
    }
}

fn parse_port(items: &[Sexp], pos: Pos) -> Result<EdifPort, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(port ...)` is missing its name"))?,
    )?;
    let mut direction = None;
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("direction") {
            let dir_items = list_items(item, "direction")?;
            let dir = match dir_items.get(1) {
                Some(Sexp::Atom(s, _)) => s.to_ascii_uppercase(),
                _ => return Err(err(item.pos(), "malformed `(direction ...)`")),
            };
            direction = Some(match dir.as_str() {
                "INPUT" => EdifDirection::Input,
                "OUTPUT" => EdifDirection::Output,
                other => {
                    return Err(err(
                        item.pos(),
                        format!("unsupported port direction `{other}` on port `{name}`"),
                    ))
                }
            });
        }
    }
    let direction =
        direction.ok_or_else(|| err(pos, format!("port `{name}` declares no direction")))?;
    Ok(EdifPort {
        name,
        direction,
        pos,
    })
}

/// Extracts `(cellRef NAME (libraryRef LIB))` from a form's items.
fn find_cell_ref(items: &[Sexp]) -> Result<Option<(Symbol, Option<Symbol>)>, EdifError> {
    for item in items {
        match item.keyword().as_deref() {
            Some("cellref") => {
                let cr = list_items(item, "cellRef")?;
                let cell = parse_name(
                    cr.get(1)
                        .ok_or_else(|| err(item.pos(), "`(cellRef ...)` is missing its name"))?,
                )?;
                let mut library = None;
                for sub in &cr[2..] {
                    if sub.keyword().as_deref() == Some("libraryref") {
                        let lr = list_items(sub, "libraryRef")?;
                        library = Some(parse_name(lr.get(1).ok_or_else(|| {
                            err(sub.pos(), "`(libraryRef ...)` is missing its name")
                        })?)?);
                    }
                }
                return Ok(Some((cell, library)));
            }
            // `(viewRef VIEW (cellRef ...))`: recurse into the nested form.
            Some("viewref") => {
                let vr = list_items(item, "viewRef")?;
                if let Some(found) = find_cell_ref(&vr[1..])? {
                    return Ok(Some(found));
                }
            }
            _ => {}
        }
    }
    Ok(None)
}

fn parse_instance(items: &[Sexp], pos: Pos) -> Result<EdifInstance, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(instance ...)` is missing its name"))?,
    )?;
    let (cell_ref, library_ref) = find_cell_ref(&items[2..])?
        .ok_or_else(|| err(pos, format!("instance `{name}` has no `(cellRef ...)`")))?;
    Ok(EdifInstance {
        name,
        cell_ref,
        library_ref,
        pos,
    })
}

fn parse_net(items: &[Sexp], pos: Pos) -> Result<EdifNet, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(net ...)` is missing its name"))?,
    )?;
    let mut portrefs = Vec::new();
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("joined") {
            for joined in &list_items(item, "joined")?[1..] {
                if joined.keyword().as_deref() != Some("portref") {
                    return Err(err(joined.pos(), "expected `(portRef ...)` inside joined"));
                }
                let pr = list_items(joined, "portRef")?;
                let port =
                    parse_name(pr.get(1).ok_or_else(|| {
                        err(joined.pos(), "`(portRef ...)` is missing its name")
                    })?)?;
                let mut instance = None;
                for sub in &pr[2..] {
                    if sub.keyword().as_deref() == Some("instanceref") {
                        let ir = list_items(sub, "instanceRef")?;
                        instance = Some(parse_name(ir.get(1).ok_or_else(|| {
                            err(sub.pos(), "`(instanceRef ...)` is missing its name")
                        })?)?);
                    }
                }
                portrefs.push(EdifPortRef {
                    port,
                    instance,
                    pos: joined.pos(),
                });
            }
        }
    }
    Ok(EdifNet {
        name,
        portrefs,
        pos,
    })
}

fn parse_cell(items: &[Sexp], pos: Pos) -> Result<EdifCell, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(cell ...)` is missing its name"))?,
    )?;
    let mut cell = EdifCell {
        name,
        ports: Vec::new(),
        instances: Vec::new(),
        nets: Vec::new(),
        pos,
    };
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("view") {
            let view_items = list_items(item, "view")?;
            for vi in &view_items[1..] {
                match vi.keyword().as_deref() {
                    Some("interface") => {
                        for port in &list_items(vi, "interface")?[1..] {
                            if port.keyword().as_deref() == Some("port") {
                                cell.ports
                                    .push(parse_port(list_items(port, "port")?, port.pos())?);
                            }
                        }
                    }
                    Some("contents") => {
                        for content in &list_items(vi, "contents")?[1..] {
                            match content.keyword().as_deref() {
                                Some("instance") => cell.instances.push(parse_instance(
                                    list_items(content, "instance")?,
                                    content.pos(),
                                )?),
                                Some("net") => cell
                                    .nets
                                    .push(parse_net(list_items(content, "net")?, content.pos())?),
                                // Properties, comments, timestamps, ...
                                _ => {}
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(cell)
}

/// The old `parse_edif`: a syntax-checked tree first, then extraction.
fn oracle_parse_edif(text: &str) -> Result<EdifAst, EdifError> {
    let top = SexpParser::new(text).parse_document()?;
    if top.keyword().as_deref() != Some("edif") {
        return Err(err(top.pos(), "expected `(edif ...)` at top level"));
    }
    let items = list_items(&top, "edif")?;
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(top.pos(), "`(edif ...)` is missing its name"))?,
    )?;
    let mut ast = EdifAst {
        name,
        libraries: Vec::new(),
        design: None,
    };
    for item in &items[2..] {
        match item.keyword().as_deref() {
            Some("library") | Some("external") => {
                let lib_items = list_items(item, "library")?;
                let lib_name = parse_name(
                    lib_items
                        .get(1)
                        .ok_or_else(|| err(item.pos(), "`(library ...)` is missing its name"))?,
                )?;
                let mut library = EdifLibrary {
                    name: lib_name,
                    cells: Vec::new(),
                };
                for li in &lib_items[2..] {
                    if li.keyword().as_deref() == Some("cell") {
                        library
                            .cells
                            .push(parse_cell(list_items(li, "cell")?, li.pos())?);
                    }
                }
                ast.libraries.push(library);
            }
            Some("design") => {
                let design_items = list_items(item, "design")?;
                ast.design = find_cell_ref(&design_items[1..])?;
                if ast.design.is_none() {
                    return Err(err(item.pos(), "`(design ...)` has no `(cellRef ...)`"));
                }
            }
            // edifVersion, edifLevel, keywordMap, status, comments, ...
            _ => {}
        }
    }
    Ok(ast)
}
