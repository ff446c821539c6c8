//! EDIF 2 0 0 netlist frontend: streaming reader, typed AST, hierarchy
//! flattener and writer.
//!
//! This is the gate through which *real* designs enter the
//! desynchronization flow: synthesis tools emit hierarchical EDIF, and this
//! module turns it into the flat, [`Symbol`]-interned [`Netlist`] every
//! other crate consumes. Three layers:
//!
//! 1. **Reader** — one recursive-descent pass from text to the typed AST
//!    ([`EdifAst`]: libraries → cells → views with interface ports,
//!    instances and nets), with no S-expression tree in between. A byte
//!    lexer yields tokens borrowed from the text, with their positions;
//!    keywords match case-insensitively in place, and names are interned
//!    straight from their text slices. Every diagnostic ([`EdifError`])
//!    carries the line/column it was detected at. Quoted strings,
//!    `(rename ...)` aliases and unknown keyword forms (properties,
//!    timestamps, ...) are handled/skipped the way real tool output
//!    requires. A syntax error anywhere in the file wins over a structural
//!    one: when the pass fails, the whole text is checked for syntax
//!    alone, so the success path stays a single pass.
//! 2. **Flattener** — a worklist-driven, depth-first hierarchy expansion:
//!    instances of cells defined in the file are expanded with `/`-joined
//!    hierarchical names; instance pins are stitched to parent nets through
//!    a union-find (EDIF expresses connectivity per-cell, so crossing a
//!    hierarchy boundary aliases two net declarations onto one electrical
//!    node); leaf instances map onto the canonical [`CellKind`] library
//!    through the same pin tables as the structural-Verilog reader
//!    ([`CellKind::order_connections`]). An instance of a cell that is
//!    neither defined in the file nor a known primitive is a typed
//!    [`EdifError::UnknownPrimitive`] naming the offender.
//! 3. **Writer** — [`to_edif`] serializes a flat netlist back out (one
//!    design cell plus an interface-only primitive library), so generated
//!    circuits round-trip: `netlist → to_edif → from_edif` reproduces the
//!    netlist *exactly* (full [`Netlist`] equality, same ids, same
//!    [`Netlist::structural_hash`]).
//!
//! # Example
//!
//! ```
//! use desync_netlist::{from_edif, to_edif, CellKind, Netlist};
//!
//! # fn main() -> Result<(), desync_netlist::EdifError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_output("y");
//! n.add_gate("g0", CellKind::Nand, &[a, b], y).unwrap();
//! let text = to_edif(&n);
//! let back = from_edif(&text)?;
//! assert_eq!(back, n);
//! # Ok(())
//! # }
//! ```

use crate::cell::{Cell, CellKind};
use crate::error::NetlistError;
use crate::fxhash::FxHashMap;
use crate::intern::Symbol;
use crate::netlist::{NetId, Netlist};
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A source position (1-based line and column) inside an EDIF file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced while lexing, parsing or flattening EDIF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdifError {
    /// The reader failed on a syntax or structural error; the position
    /// points at the offending token or form.
    Parse {
        /// Where the problem was detected.
        pos: Pos,
        /// Human-readable description.
        message: String,
    },
    /// An instance references a cell that is neither defined in the file
    /// nor a known canonical primitive.
    UnknownPrimitive {
        /// The unresolvable cell name.
        cell: String,
        /// Hierarchical path of the offending instance.
        instance: String,
    },
    /// A leaf instance is missing a required pin of its primitive.
    MissingPin {
        /// Hierarchical path of the offending instance.
        instance: String,
        /// The canonical pin name that was not connected.
        pin: String,
    },
    /// The hierarchy instantiates a cell inside itself (directly or
    /// transitively), so flattening would not terminate.
    RecursiveHierarchy {
        /// The cell on the cycle.
        cell: String,
    },
    /// The file defines no top cell (no `(design ...)` and no cells).
    MissingTop,
    /// Rebuilding the flat netlist failed structurally (duplicate names
    /// after flattening, arity mismatches, ...).
    Netlist(NetlistError),
}

impl fmt::Display for EdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdifError::Parse { pos, message } => write!(f, "edif parse error at {pos}: {message}"),
            EdifError::UnknownPrimitive { cell, instance } => write!(
                f,
                "instance `{instance}` references `{cell}`, which is neither defined in the file \
                 nor a known primitive"
            ),
            EdifError::MissingPin { instance, pin } => {
                write!(f, "instance `{instance}` is missing pin `{pin}`")
            }
            EdifError::RecursiveHierarchy { cell } => {
                write!(f, "cell `{cell}` instantiates itself (recursive hierarchy)")
            }
            EdifError::MissingTop => write!(f, "edif file defines no top cell"),
            EdifError::Netlist(e) => write!(f, "flattened netlist is malformed: {e}"),
        }
    }
}

impl std::error::Error for EdifError {}

impl From<NetlistError> for EdifError {
    fn from(e: NetlistError) -> Self {
        EdifError::Netlist(e)
    }
}

fn err(pos: Pos, message: impl Into<String>) -> EdifError {
    EdifError::Parse {
        pos,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Typed AST
// ---------------------------------------------------------------------------

/// Direction of an EDIF interface port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdifDirection {
    /// `(direction INPUT)`
    Input,
    /// `(direction OUTPUT)`
    Output,
}

/// An interface port of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifPort {
    /// Port name.
    pub name: Symbol,
    /// Declared direction.
    pub direction: EdifDirection,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// An instance of another cell inside a cell's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifInstance {
    /// Instance name.
    pub name: Symbol,
    /// Referenced cell name (`cellRef`).
    pub cell_ref: Symbol,
    /// Referenced library (`libraryRef`), when qualified.
    pub library_ref: Option<Symbol>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// One connection of a net: a port, optionally on an instance (own
/// interface port when `instance` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct EdifPortRef {
    /// Referenced port name.
    pub port: Symbol,
    /// Instance carrying the port; `None` for the cell's own interface.
    pub instance: Option<Symbol>,
    /// Source position of the reference.
    pub pos: Pos,
}

/// A net declaration: a named electrical node joining port references.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifNet {
    /// Net name.
    pub name: Symbol,
    /// The joined connections.
    pub portrefs: Vec<EdifPortRef>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A cell definition (interface plus the contents of its netlist view).
#[derive(Debug, Clone, PartialEq)]
pub struct EdifCell {
    /// Cell name.
    pub name: Symbol,
    /// Interface ports, in declaration order.
    pub ports: Vec<EdifPort>,
    /// Child instances, in declaration order.
    pub instances: Vec<EdifInstance>,
    /// Net declarations, in declaration order.
    pub nets: Vec<EdifNet>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl EdifCell {
    /// Whether this cell is a leaf declaration (interface only, no
    /// contents) — the shape technology libraries use for primitives.
    pub fn is_leaf(&self) -> bool {
        self.instances.is_empty() && self.nets.is_empty()
    }
}

/// A library: a named group of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifLibrary {
    /// Library name.
    pub name: Symbol,
    /// Cell definitions, in declaration order.
    pub cells: Vec<EdifCell>,
}

/// The parsed EDIF file.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifAst {
    /// Design name from the `(edif ...)` head.
    pub name: Symbol,
    /// Libraries in declaration order (`library` and `external` alike).
    pub libraries: Vec<EdifLibrary>,
    /// Explicit top cell from `(design ... (cellRef ...))`, when present.
    pub design: Option<(Symbol, Option<Symbol>)>,
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// One lexical token, borrowed from the source text.
#[derive(Clone, Copy)]
enum Token<'a> {
    Open,
    Close,
    /// A bare atom (identifier or number).
    Atom(&'a str),
    /// A quoted string literal, quotes stripped; `%xx%` escapes pass
    /// through untouched.
    Str(&'a str),
    End,
}

/// Recursive-descent EDIF reader over a byte lexer.
///
/// EDIF syntax is pure ASCII at the structural level (parens, whitespace,
/// quotes); UTF-8 payload bytes pass through inside atoms and strings, so
/// byte indexing is safe and every token is a slice of the text. Each form
/// method is called just after its keyword and reads up to and including
/// the form's closing paren, building the AST as it goes: no intermediate
/// tree is ever materialized.
struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Reader<'a> {
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

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if !b.is_ascii_whitespace() {
                break;
            }
            self.at += 1;
            if b == b'\n' {
                self.line += 1;
                self.line_start = self.at;
            }
        }
    }

    /// Reads the atom starting at the current byte.
    fn atom(&mut self) -> &'a str {
        let start = self.at;
        while let Some(&b) = self.bytes.get(self.at) {
            if b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b'"') {
                break;
            }
            self.at += 1;
        }
        &self.text[start..self.at]
    }

    /// The next token and its position.
    fn token(&mut self) -> Result<(Token<'a>, Pos), EdifError> {
        self.skip_whitespace();
        let pos = self.pos();
        let Some(&b) = self.bytes.get(self.at) else {
            return Ok((Token::End, pos));
        };
        let token = match b {
            b'(' => {
                self.at += 1;
                Token::Open
            }
            b')' => {
                self.at += 1;
                Token::Close
            }
            b'"' => {
                self.at += 1;
                let start = self.at;
                loop {
                    match self.bytes.get(self.at) {
                        None => return Err(err(pos, "unterminated string literal")),
                        Some(b'"') => break,
                        Some(b'\n') => {
                            self.line += 1;
                            self.line_start = self.at + 1;
                        }
                        Some(_) => {}
                    }
                    self.at += 1;
                }
                self.at += 1;
                Token::Str(&self.text[start..self.at - 1])
            }
            _ => Token::Atom(self.atom()),
        };
        Ok((token, pos))
    }

    /// The next item of the list opened at `open` — a nested list's
    /// `Token::Open`, an atom or a string — or `None` at its closing paren.
    fn item(&mut self, open: Pos) -> Result<Option<(Token<'a>, Pos)>, EdifError> {
        match self.token()? {
            (Token::Close, _) => Ok(None),
            (Token::End, _) => Err(err(open, "unclosed `(`")),
            item => Ok(Some(item)),
        }
    }

    /// Only whitespace may follow the top-level form.
    fn expect_end(&mut self) -> Result<(), EdifError> {
        self.skip_whitespace();
        if self.at < self.bytes.len() {
            return Err(err(self.pos(), "trailing content after the top-level form"));
        }
        Ok(())
    }

    /// The keyword heading a list just opened: its first item when that is
    /// an atom. Anything else is left unread.
    fn keyword(&mut self) -> Option<&'a str> {
        self.skip_whitespace();
        match self.bytes.get(self.at) {
            None | Some(b'(' | b')' | b'"') => None,
            Some(_) => Some(self.atom()),
        }
    }

    /// Reads the rest of the list opened at `open`, nested lists included.
    fn skip_rest(&mut self, open: Pos) -> Result<(), EdifError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.token()?.0 {
                Token::Open => depth += 1,
                Token::Close => depth -= 1,
                Token::End => return Err(err(open, "unclosed `(`")),
                Token::Atom(_) | Token::Str(_) => {}
            }
        }
        Ok(())
    }

    /// Reads the rest of the list opened at `open`, handing each nested
    /// list to `form` with its position and keyword; `form` must read that
    /// list through its closing paren. Atoms and strings are skipped.
    fn each_form(
        &mut self,
        open: Pos,
        mut form: impl FnMut(&mut Self, Pos, Option<&'a str>) -> Result<(), EdifError>,
    ) -> Result<(), EdifError> {
        while let Some((token, pos)) = self.item(open)? {
            if let Token::Open = token {
                let keyword = self.keyword();
                form(self, pos, keyword)?;
            }
        }
        Ok(())
    }

    /// Reads the next item of the list opened at `open` as a name: a bare
    /// atom, a string or a `(rename ident "string")` form. A missing item is
    /// the `missing` error at `open`.
    fn name(&mut self, open: Pos, missing: &str) -> Result<Symbol, EdifError> {
        match self.item(open)? {
            Some((Token::Atom(s) | Token::Str(s), _)) => Ok(Symbol::intern(s)),
            // A nested list.
            Some((_, pos)) => self.rename(pos),
            None => Err(err(open, missing)),
        }
    }

    /// A name that closes its form: `(libraryRef NAME ...)`,
    /// `(instanceRef NAME ...)`; whatever follows the name is skipped.
    fn ref_name(&mut self, open: Pos, missing: &str) -> Result<Symbol, EdifError> {
        let name = self.name(open, missing)?;
        self.skip_rest(open)?;
        Ok(name)
    }

    /// `(rename ident "string")` opened at `open`: the second operand (the
    /// original spelling) wins, else the first.
    fn rename(&mut self, open: Pos) -> Result<Symbol, EdifError> {
        if !is(self.keyword(), "rename") {
            return Err(err(open, "expected a name"));
        }
        let (mut first, mut second) = (None, None);
        while let Some((token, pos)) = self.item(open)? {
            if let Token::Open = token {
                self.skip_rest(pos)?;
            }
            if first.is_none() {
                first = Some(token);
            } else if second.is_none() {
                second = Some(token);
            }
        }
        match second.or(first) {
            Some(Token::Atom(s) | Token::Str(s)) => Ok(Symbol::intern(s)),
            _ => Err(err(open, "malformed `(rename ...)` form")),
        }
    }

    /// The top-level `(edif NAME ...)` form and the end of the text.
    fn document(&mut self) -> Result<EdifAst, EdifError> {
        let (token, top) = self.token()?;
        if !matches!(token, Token::Open) || !is(self.keyword(), "edif") {
            return Err(err(top, "expected `(edif ...)` at top level"));
        }
        let name = self.name(top, "`(edif ...)` is missing its name")?;
        let mut libraries = Vec::new();
        let mut design = None;
        self.each_form(top, |r, pos, keyword| {
            if is(keyword, "library") || is(keyword, "external") {
                libraries.push(r.library(pos)?);
            } else if is(keyword, "design") {
                // The design's own name is searched too, as any item.
                let top_ref = r.find_cell_ref(pos)?;
                design =
                    Some(top_ref.ok_or_else(|| err(pos, "`(design ...)` has no `(cellRef ...)`"))?);
            } else {
                // edifVersion, edifLevel, keywordMap, status, comments, ...
                r.skip_rest(pos)?;
            }
            Ok(())
        })?;
        self.expect_end()?;
        Ok(EdifAst {
            name,
            libraries,
            design,
        })
    }

    fn library(&mut self, open: Pos) -> Result<EdifLibrary, EdifError> {
        let name = self.name(open, "`(library ...)` is missing its name")?;
        let mut cells = Vec::new();
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "cell") {
                cells.push(r.cell(pos)?);
                Ok(())
            } else {
                r.skip_rest(pos)
            }
        })?;
        Ok(EdifLibrary { name, cells })
    }

    fn cell(&mut self, open: Pos) -> Result<EdifCell, EdifError> {
        let name = self.name(open, "`(cell ...)` is missing its name")?;
        let mut cell = EdifCell {
            name,
            ports: Vec::new(),
            instances: Vec::new(),
            nets: Vec::new(),
            pos: open,
        };
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "view") {
                r.view(pos, &mut cell)
            } else {
                r.skip_rest(pos)
            }
        })?;
        Ok(cell)
    }

    /// `(view NAME ...)`: collects the interface ports and the contents'
    /// instances and nets into `cell`. The view's name is searched like any
    /// other item.
    fn view(&mut self, open: Pos, cell: &mut EdifCell) -> Result<(), EdifError> {
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "interface") {
                r.each_form(pos, |r, pos, keyword| {
                    if is(keyword, "port") {
                        cell.ports.push(r.port(pos)?);
                        Ok(())
                    } else {
                        r.skip_rest(pos)
                    }
                })
            } else if is(keyword, "contents") {
                r.each_form(pos, |r, pos, keyword| {
                    if is(keyword, "instance") {
                        cell.instances.push(r.instance(pos)?);
                    } else if is(keyword, "net") {
                        cell.nets.push(r.net(pos)?);
                    } else {
                        // Properties, comments, timestamps, ...
                        r.skip_rest(pos)?;
                    }
                    Ok(())
                })
            } else {
                r.skip_rest(pos)
            }
        })
    }

    fn port(&mut self, open: Pos) -> Result<EdifPort, EdifError> {
        let name = self.name(open, "`(port ...)` is missing its name")?;
        let mut direction = None;
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "direction") {
                direction = Some(r.direction(pos, name)?);
                Ok(())
            } else {
                r.skip_rest(pos)
            }
        })?;
        let direction =
            direction.ok_or_else(|| err(open, format!("port `{name}` declares no direction")))?;
        Ok(EdifPort {
            name,
            direction,
            pos: open,
        })
    }

    fn direction(&mut self, open: Pos, port: Symbol) -> Result<EdifDirection, EdifError> {
        let direction = match self.item(open)? {
            Some((Token::Atom(s), _)) if s.eq_ignore_ascii_case("INPUT") => EdifDirection::Input,
            Some((Token::Atom(s), _)) if s.eq_ignore_ascii_case("OUTPUT") => EdifDirection::Output,
            Some((Token::Atom(s), _)) => {
                return Err(err(
                    open,
                    format!(
                        "unsupported port direction `{}` on port `{port}`",
                        s.to_ascii_uppercase()
                    ),
                ))
            }
            _ => return Err(err(open, "malformed `(direction ...)`")),
        };
        self.skip_rest(open)?;
        Ok(direction)
    }

    fn instance(&mut self, open: Pos) -> Result<EdifInstance, EdifError> {
        let name = self.name(open, "`(instance ...)` is missing its name")?;
        let (cell_ref, library_ref) = self
            .find_cell_ref(open)?
            .ok_or_else(|| err(open, format!("instance `{name}` has no `(cellRef ...)`")))?;
        Ok(EdifInstance {
            name,
            cell_ref,
            library_ref,
            pos: open,
        })
    }

    /// Reads the rest of the list opened at `open` and returns its first
    /// `(cellRef NAME (libraryRef LIB))`, searching nested `(viewRef ...)`
    /// forms too. Forms after the first match are skipped unchecked.
    fn find_cell_ref(&mut self, open: Pos) -> Result<Option<(Symbol, Option<Symbol>)>, EdifError> {
        let mut found = None;
        self.each_form(open, |r, pos, keyword| {
            if found.is_some() {
                r.skip_rest(pos)
            } else if is(keyword, "cellRef") {
                found = Some(r.cell_ref(pos)?);
                Ok(())
            } else if is(keyword, "viewRef") {
                found = r.find_cell_ref(pos)?;
                Ok(())
            } else {
                r.skip_rest(pos)
            }
        })?;
        Ok(found)
    }

    fn cell_ref(&mut self, open: Pos) -> Result<(Symbol, Option<Symbol>), EdifError> {
        let cell = self.name(open, "`(cellRef ...)` is missing its name")?;
        let mut library = None;
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "libraryRef") {
                library = Some(r.ref_name(pos, "`(libraryRef ...)` is missing its name")?);
                Ok(())
            } else {
                r.skip_rest(pos)
            }
        })?;
        Ok((cell, library))
    }

    fn net(&mut self, open: Pos) -> Result<EdifNet, EdifError> {
        let name = self.name(open, "`(net ...)` is missing its name")?;
        let mut portrefs = Vec::new();
        self.each_form(open, |r, pos, keyword| {
            if is(keyword, "joined") {
                r.joined(pos, &mut portrefs)
            } else {
                r.skip_rest(pos)
            }
        })?;
        Ok(EdifNet {
            name,
            portrefs,
            pos: open,
        })
    }

    /// `(joined (portRef PORT (instanceRef INST)) ...)`: every item must be
    /// a `portRef`.
    fn joined(&mut self, open: Pos, portrefs: &mut Vec<EdifPortRef>) -> Result<(), EdifError> {
        while let Some((token, pos)) = self.item(open)? {
            if !matches!(token, Token::Open) || !is(self.keyword(), "portRef") {
                return Err(err(pos, "expected `(portRef ...)` inside joined"));
            }
            let port = self.name(pos, "`(portRef ...)` is missing its name")?;
            let mut instance = None;
            self.each_form(pos, |r, pos, keyword| {
                if is(keyword, "instanceRef") {
                    instance = Some(r.ref_name(pos, "`(instanceRef ...)` is missing its name")?);
                    Ok(())
                } else {
                    r.skip_rest(pos)
                }
            })?;
            portrefs.push(EdifPortRef {
                port,
                instance,
                pos,
            });
        }
        Ok(())
    }
}

/// Whether a list's keyword is `name`; keywords are case-insensitive.
fn is(keyword: Option<&str>, name: &str) -> bool {
    keyword.is_some_and(|k| k.eq_ignore_ascii_case(name))
}

/// Checks the S-expression syntax of the whole text without extracting
/// anything: one form, balanced parens, terminated strings, nothing after.
fn check_syntax(text: &str) -> Result<(), EdifError> {
    let mut r = Reader::new(text);
    let mut open = Vec::new();
    loop {
        let (token, pos) = r.token()?;
        match token {
            Token::Open => open.push(pos),
            Token::Close if open.pop().is_none() => return Err(err(pos, "unexpected `)`")),
            Token::End => {
                return Err(match open.last() {
                    Some(&innermost) => err(innermost, "unclosed `(`"),
                    None => err(pos, "unexpected end of file"),
                })
            }
            Token::Close | Token::Atom(_) | Token::Str(_) => {}
        }
        if open.is_empty() {
            return r.expect_end();
        }
    }
}

/// Parses EDIF text into the typed AST.
///
/// One pass reads the text straight into the AST. A syntax error anywhere
/// in the document takes precedence over a structural one found earlier,
/// so only when that pass fails is the whole text checked for syntax
/// alone, and a syntax error found there is the one reported.
///
/// # Errors
///
/// Returns [`EdifError::Parse`] with the offending position on malformed
/// input.
pub fn parse_edif(text: &str) -> Result<EdifAst, EdifError> {
    Reader::new(text)
        .document()
        .map_err(|e| check_syntax(text).err().unwrap_or(e))
}

// ---------------------------------------------------------------------------
// Flattener
// ---------------------------------------------------------------------------

/// Union-find over flat net slots; roots are always the earliest-created
/// slot of their class, so the surviving name/id order is deterministic.
struct NetForest {
    parent: Vec<usize>,
    names: Vec<Symbol>,
}

impl NetForest {
    fn new() -> Self {
        Self {
            parent: Vec::new(),
            names: Vec::new(),
        }
    }

    fn make(&mut self, name: Symbol) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.names.push(name);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges two classes, keeping the *older* slot as root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        let (root, child) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[child] = root;
        root
    }
}

/// A resolved leaf instance awaiting final net-id assignment.
struct FlatInstance {
    name: Symbol,
    kind: CellKind,
    conns: Vec<(Symbol, usize)>,
}

// The flattener's maps are keyed by interned symbols, ids the program
// assigns, so they use the fixed-seed `FxHasher`.
struct Flattener<'a> {
    /// (library, cell) and bare cell name → definition. Bare names map to
    /// the *last* definition, matching the definition-before-use convention.
    by_qualified: FxHashMap<(Symbol, Symbol), &'a EdifCell>,
    by_name: FxHashMap<Symbol, &'a EdifCell>,
    /// Leaf cell name → primitive kind (`None`: not a primitive), resolved
    /// once per distinct name rather than once per instance.
    kinds: FxHashMap<Symbol, Option<CellKind>>,
    nets: NetForest,
    instances: Vec<FlatInstance>,
}

/// One stack entry of the depth-first expansion.
struct Frame<'a> {
    cell: &'a EdifCell,
    /// Hierarchical prefix including the trailing separator (empty at top).
    prefix: String,
    /// Connections of child instances, grouped per instance so a leaf can
    /// collect its pins in O(pins) instead of scanning the whole frame.
    inst_conns: FxHashMap<Symbol, Vec<(Symbol, usize)>>,
    next_instance: usize,
}

impl Frame<'_> {
    /// The flat name of something named `name` in this frame. Top-frame
    /// names are used as they are, without formatting or re-interning.
    fn qualify(&self, name: Symbol) -> Symbol {
        if self.prefix.is_empty() {
            name
        } else {
            Symbol::intern(&format!("{}{}", self.prefix, name))
        }
    }
}

impl<'a> Flattener<'a> {
    fn new(ast: &'a EdifAst) -> Self {
        let mut by_qualified = FxHashMap::default();
        let mut by_name = FxHashMap::default();
        for lib in &ast.libraries {
            for cell in &lib.cells {
                by_qualified.insert((lib.name, cell.name), cell);
                by_name.insert(cell.name, cell);
            }
        }
        Self {
            by_qualified,
            by_name,
            kinds: FxHashMap::default(),
            nets: NetForest::new(),
            instances: Vec::new(),
        }
    }

    fn resolve(&self, inst: &EdifInstance) -> Option<&'a EdifCell> {
        if let Some(lib) = inst.library_ref {
            return self.by_qualified.get(&(lib, inst.cell_ref)).copied();
        }
        self.by_name.get(&inst.cell_ref).copied()
    }

    /// Processes a cell's net declarations: allocates/unions net slots and
    /// records child pin connections into the frame.
    fn wire_frame(
        &mut self,
        frame: &mut Frame<'a>,
        bindings: &FxHashMap<Symbol, usize>,
    ) -> Result<(), EdifError> {
        for net in &frame.cell.nets {
            // An own-interface portref aliases this net onto the parent's
            // slot; without one the net is a fresh electrical node.
            let mut slot: Option<usize> = None;
            for pr in &net.portrefs {
                if pr.instance.is_none() {
                    if let Some(&bound) = bindings.get(&pr.port) {
                        slot = Some(match slot {
                            None => bound,
                            Some(existing) => self.nets.union(existing, bound),
                        });
                    }
                    // An unbound own port (unconnected in the parent) does
                    // not force a slot: the fresh-net path below covers it.
                }
            }
            let slot = slot.unwrap_or_else(|| self.nets.make(frame.qualify(net.name)));
            for pr in &net.portrefs {
                if let Some(inst) = pr.instance {
                    let conns = frame.inst_conns.entry(inst).or_default();
                    match conns.iter_mut().find(|(p, _)| *p == pr.port) {
                        // The same pin joined by two nets shorts them.
                        Some((_, existing)) => {
                            *existing = self.nets.union(*existing, slot);
                        }
                        None => conns.push((pr.port, slot)),
                    }
                }
            }
        }
        Ok(())
    }

    /// Expands `top` depth-first with an explicit worklist.
    fn run(&mut self, top: &'a EdifCell) -> Result<(), EdifError> {
        let mut top_frame = Frame {
            cell: top,
            prefix: String::new(),
            inst_conns: FxHashMap::default(),
            next_instance: 0,
        };
        // Top interface ports bind lazily: the net declaration joining a
        // port names (and orders) the node, which is what lets a
        // write→parse round-trip reproduce net ids exactly.
        let top_bindings = FxHashMap::default();
        self.wire_frame(&mut top_frame, &top_bindings)?;
        let mut stack: Vec<Frame<'a>> = vec![top_frame];

        while let Some(frame) = stack.last_mut() {
            // Detach the cell reference (`&'a`) from the frame borrow so the
            // leaf branch below can mutate `frame.inst_conns`.
            let cell = frame.cell;
            if frame.next_instance >= cell.instances.len() {
                stack.pop();
                continue;
            }
            let inst = &cell.instances[frame.next_instance];
            frame.next_instance += 1;

            match self.resolve(inst) {
                Some(child) if !child.is_leaf() => {
                    // Hierarchical: guard against recursion, bind the child's
                    // interface ports to the parent's connections, descend.
                    if stack.iter().any(|f| std::ptr::eq(f.cell, child)) {
                        return Err(EdifError::RecursiveHierarchy {
                            cell: child.name.to_string(),
                        });
                    }
                    let frame = stack.last().expect("frame still on stack");
                    let mut bindings = FxHashMap::default();
                    if let Some(conns) = frame.inst_conns.get(&inst.name) {
                        for port in &child.ports {
                            if let Some(&(_, slot)) = conns.iter().find(|(p, _)| *p == port.name) {
                                bindings.insert(port.name, slot);
                            }
                        }
                    }
                    let prefix = format!("{}{}/", frame.prefix, inst.name);
                    let mut child_frame = Frame {
                        cell: child,
                        prefix,
                        inst_conns: FxHashMap::default(),
                        next_instance: 0,
                    };
                    self.wire_frame(&mut child_frame, &bindings)?;
                    stack.push(child_frame);
                }
                resolved => {
                    // Leaf: defined-but-empty cells and references into
                    // undimmed external libraries both map onto the canonical
                    // primitive set by name.
                    let kind = *self
                        .kinds
                        .entry(inst.cell_ref)
                        .or_insert_with(|| CellKind::from_canonical_name(inst.cell_ref.as_str()));
                    let kind = kind.ok_or_else(|| EdifError::UnknownPrimitive {
                        cell: inst.cell_ref.to_string(),
                        instance: format!("{}{}", frame.prefix, inst.name),
                    })?;
                    let _ = resolved; // the declaration (if any) is interface-only
                    self.instances.push(FlatInstance {
                        name: frame.qualify(inst.name),
                        kind,
                        conns: frame.inst_conns.remove(&inst.name).unwrap_or_default(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Flattens a parsed EDIF AST into a single flat [`Netlist`].
///
/// The top cell is the explicit `(design ...)` reference when present,
/// otherwise the last cell of the last library (definitions precede uses).
/// Hierarchical instance and net names are joined with `/`.
///
/// # Errors
///
/// * [`EdifError::UnknownPrimitive`] when a leaf instance's cell is not a
///   canonical primitive.
/// * [`EdifError::MissingPin`] when a leaf instance lacks a required pin.
/// * [`EdifError::RecursiveHierarchy`] on self-instantiating cells.
/// * [`EdifError::MissingTop`] / [`EdifError::Parse`] on unresolvable tops.
/// * [`EdifError::Netlist`] when the flat result is structurally invalid.
pub fn flatten(ast: &EdifAst) -> Result<Netlist, EdifError> {
    let mut fl = Flattener::new(ast);
    let top: &EdifCell = match ast.design {
        Some((cell, lib)) => match lib {
            Some(l) => *fl.by_qualified.get(&(l, cell)).ok_or_else(|| {
                err(
                    Pos { line: 1, col: 1 },
                    format!("design cellRef `{cell}` (library `{l}`) is not defined"),
                )
            })?,
            None => *fl.by_name.get(&cell).ok_or_else(|| {
                err(
                    Pos { line: 1, col: 1 },
                    format!("design cellRef `{cell}` is not defined"),
                )
            })?,
        },
        None => ast
            .libraries
            .iter()
            .rev()
            .flat_map(|l| l.cells.last())
            .next()
            .ok_or(EdifError::MissingTop)?,
    };

    fl.run(top)?;

    let Flattener {
        mut nets,
        instances,
        ..
    } = fl;

    // Net slots → netlist ids, roots only, in creation order.
    let mut netlist = Netlist::new(top.name);
    let mut slot_to_id: Vec<Option<NetId>> = vec![None; nets.parent.len()];
    for (slot, id) in slot_to_id.iter_mut().enumerate() {
        if nets.find(slot) == slot {
            *id = Some(netlist.add_net(nets.names[slot]));
        }
    }
    fn net_of(nets: &mut NetForest, slot_to_id: &[Option<NetId>], slot: usize) -> NetId {
        let root = nets.find(slot);
        slot_to_id[root].expect("root slot was assigned an id")
    }

    // Interface ports, in declaration order. A port that no net joined is a
    // dangling port: it still becomes a (trailing) net so the direction
    // lists stay faithful to the interface.
    let mut slot_of_name: FxHashMap<Symbol, usize> = FxHashMap::default();
    for (slot, &name) in nets.names.iter().enumerate() {
        slot_of_name.entry(name).or_insert(slot);
    }
    let mut port_nets: FxHashMap<Symbol, usize> = FxHashMap::default();
    for net in &top.nets {
        for pr in &net.portrefs {
            if pr.instance.is_none() {
                // Re-find the slot this net ended up in by name: nets of the
                // top frame were created (or merged) in declaration order.
                if let Some(&slot) = slot_of_name.get(&net.name) {
                    port_nets.entry(pr.port).or_insert(slot);
                }
            }
        }
    }
    for port in &top.ports {
        let slot = match port_nets.get(&port.name) {
            Some(&s) => s,
            None => nets.make(port.name),
        };
        if slot >= slot_to_id.len() {
            slot_to_id.resize(slot + 1, None);
        }
        let root = nets.find(slot);
        if slot_to_id[root].is_none() {
            slot_to_id[root] = Some(netlist.add_net(nets.names[root]));
        }
        let id = net_of(&mut nets, &slot_to_id, slot);
        match port.direction {
            EdifDirection::Input => netlist.mark_input(id),
            EdifDirection::Output => netlist.mark_output(id),
        }
    }

    // Leaf instances, in depth-first order; one pin buffer serves them all,
    // and each distinct pin name is resolved to its string once.
    let mut pins: Vec<(&str, NetId)> = Vec::new();
    let mut pin_names: FxHashMap<Symbol, &'static str> = FxHashMap::default();
    for inst in instances {
        pins.clear();
        for &(port, slot) in &inst.conns {
            let pin = *pin_names.entry(port).or_insert_with(|| port.as_str());
            pins.push((pin, net_of(&mut nets, &slot_to_id, slot)));
        }
        let (inputs, output) =
            inst.kind
                .order_connections(&mut pins)
                .map_err(|pin| EdifError::MissingPin {
                    instance: inst.name.to_string(),
                    pin: pin.to_string(),
                })?;
        netlist.add_cell(Cell {
            name: inst.name,
            kind: inst.kind,
            inputs,
            output,
        })?;
    }

    Ok(netlist)
}

/// Parses EDIF text and flattens it into a flat [`Netlist`] in one step.
///
/// # Errors
///
/// Any [`EdifError`] from [`parse_edif`] or [`flatten`].
pub fn from_edif(text: &str) -> Result<Netlist, EdifError> {
    flatten(&parse_edif(text)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Whether a name is a plain EDIF identifier (letter start, alphanumeric or
/// underscore body) or needs a `(rename ...)` alias.
fn is_plain_ident(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Emits a name, wrapping non-identifier spellings in `(rename &nN "...")`
/// with a uniqueness tag; the tag is formatted only then.
fn emit_name(out: &mut String, name: &str, tag: fmt::Arguments<'_>) {
    if is_plain_ident(name) {
        out.push_str(name);
    } else {
        let _ = write!(out, "(rename &{tag} \"{name}\")");
    }
}

/// Serializes a flat netlist as EDIF 2 0 0.
///
/// The output carries two libraries — `PRIMS` holding interface-only
/// declarations of every referenced primitive, and `DESIGNS` holding the
/// design cell — plus an explicit `(design ...)` pointing at the top.
/// Nets are emitted in id order and instances in cell order, so
/// [`from_edif`] reproduces the netlist exactly (ids, names, hash).
pub fn to_edif(netlist: &Netlist) -> String {
    let mut out = String::new();
    let name = netlist.name();
    let _ = write!(out, "(edif ");
    emit_name(&mut out, name, format_args!("top"));
    let _ = writeln!(out);
    let _ = writeln!(out, "  (edifVersion 2 0 0)");
    let _ = writeln!(out, "  (edifLevel 0)");
    let _ = writeln!(out, "  (keywordMap (keywordLevel 0))");

    // Primitive library: one interface-only cell per referenced
    // (kind, arity) pair, in order of first use.
    let mut prims: Vec<(CellKind, usize)> = Vec::new();
    for (_, cell) in netlist.cells() {
        let prim = (cell.kind, cell.inputs.len());
        if !prims.contains(&prim) {
            prims.push(prim);
        }
    }
    let _ = writeln!(out, "  (library PRIMS");
    let _ = writeln!(out, "    (edifLevel 0)");
    let _ = writeln!(out, "    (technology (numberDefinition))");
    for &(kind, arity) in &prims {
        let prim = crate::verilog::instance_cell_name(kind, arity);
        let _ = writeln!(out, "    (cell {prim} (cellType GENERIC)");
        let _ = writeln!(out, "      (view netlist (viewType NETLIST)");
        let _ = write!(out, "        (interface");
        for pin in kind.input_pin_names(arity) {
            let _ = write!(out, " (port {pin} (direction INPUT))");
        }
        let _ = write!(out, " (port {} (direction OUTPUT))", kind.output_pin_name());
        let _ = writeln!(out, ")))");
    }
    let _ = writeln!(out, "  )");

    // The design cell.
    let _ = writeln!(out, "  (library DESIGNS");
    let _ = writeln!(out, "    (edifLevel 0)");
    let _ = writeln!(out, "    (technology (numberDefinition))");
    let _ = write!(out, "    (cell ");
    emit_name(&mut out, name, format_args!("top"));
    let _ = writeln!(out, " (cellType GENERIC)");
    let _ = writeln!(out, "      (view netlist (viewType NETLIST)");
    let _ = writeln!(out, "        (interface");
    for &id in netlist.inputs() {
        let _ = write!(out, "          (port ");
        emit_name(
            &mut out,
            netlist.net(id).name.as_str(),
            format_args!("p{}", id.0),
        );
        let _ = writeln!(out, " (direction INPUT))");
    }
    for &id in netlist.outputs() {
        let _ = write!(out, "          (port ");
        emit_name(
            &mut out,
            netlist.net(id).name.as_str(),
            format_args!("p{}", id.0),
        );
        let _ = writeln!(out, " (direction OUTPUT))");
    }
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "        (contents");
    for (id, cell) in netlist.cells() {
        let prim = crate::verilog::instance_cell_name(cell.kind, cell.inputs.len());
        let _ = write!(out, "          (instance ");
        emit_name(&mut out, cell.name.as_str(), format_args!("i{}", id.0));
        let _ = writeln!(
            out,
            " (viewRef netlist (cellRef {prim} (libraryRef PRIMS))))"
        );
    }

    // Per-net connection lists: cells in id order, output pin first. Each
    // entry is (pin name, None for a top-level portRef | Some((instance
    // name, instance id)) for an instance portRef).
    type JoinedRef = (&'static str, Option<(Symbol, u32)>);
    let mut joined: Vec<Vec<JoinedRef>> = vec![Vec::new(); netlist.num_nets()];
    let port_set: std::collections::HashSet<NetId> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs().iter())
        .copied()
        .collect();
    for (id, net) in netlist.nets() {
        if port_set.contains(&id) {
            joined[id.index()].push((net.name.as_str(), None));
        }
    }
    for (id, cell) in netlist.cells() {
        let pins = cell.kind.input_pin_names(cell.inputs.len());
        joined[cell.output.index()].push((cell.kind.output_pin_name(), Some((cell.name, id.0))));
        for (&pin, &net) in pins.iter().zip(cell.inputs.iter()) {
            joined[net.index()].push((pin, Some((cell.name, id.0))));
        }
    }
    for (id, net) in netlist.nets() {
        let _ = write!(out, "          (net ");
        emit_name(&mut out, net.name.as_str(), format_args!("n{}", id.0));
        let _ = write!(out, " (joined");
        for &(pin, inst) in &joined[id.index()] {
            match inst {
                None => {
                    let _ = write!(out, " (portRef ");
                    emit_name(&mut out, pin, format_args!("p{}", id.0));
                    let _ = write!(out, ")");
                }
                Some((inst_name, inst_id)) => {
                    let _ = write!(out, " (portRef {pin} (instanceRef ");
                    emit_name(&mut out, inst_name.as_str(), format_args!("i{inst_id}"));
                    let _ = write!(out, "))");
                }
            }
        }
        let _ = writeln!(out, "))");
    }
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "      )");
    let _ = writeln!(out, "    )");
    let _ = writeln!(out, "  )");
    let _ = write!(out, "  (design ");
    emit_name(&mut out, name, format_args!("top"));
    let _ = write!(out, " (cellRef ");
    emit_name(&mut out, name, format_args!("top"));
    let _ = writeln!(out, " (libraryRef DESIGNS)))");
    let _ = writeln!(out, ")");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut n = Netlist::new("sample");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        let nand = n.add_net("w_nand");
        let q = n.add_net("q");
        n.add_gate("g0", CellKind::Nand, &[a, b], nand).unwrap();
        n.add_dff("r0", nand, clk, q).unwrap();
        n.add_gate("g1", CellKind::Not, &[q], y).unwrap();
        n
    }

    #[test]
    fn writer_roundtrip_is_exact() {
        let original = sample();
        let text = to_edif(&original);
        let back = from_edif(&text).unwrap();
        assert_eq!(back, original, "round-trip must reproduce the netlist");
        assert_eq!(back.structural_hash(), original.structural_hash());
        assert_eq!(back.inputs(), original.inputs());
        assert_eq!(back.outputs(), original.outputs());
    }

    #[test]
    fn roundtrip_with_renamed_identifiers() {
        let mut n = Netlist::new("bus_design");
        let clk = n.add_input("clk");
        let d0 = n.add_input("d[0]");
        let q0 = n.add_output("q[0]");
        n.add_dff("ff[0]", d0, clk, q0).unwrap();
        let text = to_edif(&n);
        assert!(text.contains("rename"), "bus names need rename forms");
        let back = from_edif(&text).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn hierarchical_flatten_expands_and_joins_names() {
        let text = r#"
(edif hier
  (edifVersion 2 0 0)
  (library PRIMS
    (cell INV (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port A (direction INPUT)) (port Y (direction OUTPUT))))))
  (library WORK
    (cell pair (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port din (direction INPUT)) (port dout (direction OUTPUT)))
        (contents
          (instance u0 (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (instance u1 (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (net din (joined (portRef din) (portRef A (instanceRef u0))))
          (net mid (joined (portRef Y (instanceRef u0)) (portRef A (instanceRef u1))))
          (net dout (joined (portRef dout) (portRef Y (instanceRef u1)))))))
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port x (direction INPUT)) (port z (direction OUTPUT)))
        (contents
          (instance stage (viewRef netlist (cellRef pair (libraryRef WORK))))
          (net x (joined (portRef x) (portRef din (instanceRef stage))))
          (net z (joined (portRef z) (portRef dout (instanceRef stage)))))))))
"#;
        let n = from_edif(text).unwrap();
        assert_eq!(n.name(), "top");
        assert_eq!(n.num_cells(), 2);
        // Hierarchical names join with `/`; the boundary-crossing nets keep
        // the parent's name.
        assert!(n.find_cell("stage/u0").is_some());
        assert!(n.find_cell("stage/u1").is_some());
        assert!(n.find_net("stage/mid").is_some());
        assert!(n.find_net("x").is_some());
        assert!(n.find_net("z").is_some());
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.outputs().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn unknown_primitive_is_a_typed_error() {
        let text = r#"
(edif bad
  (library WORK
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef MYSTERY9000 (libraryRef NOWHERE))))
          (net a (joined (portRef a) (portRef A (instanceRef g))))
          (net y (joined (portRef y) (portRef Y (instanceRef g)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::UnknownPrimitive { cell, instance }) => {
                assert_eq!(cell, "MYSTERY9000");
                assert_eq!(instance, "g");
            }
            other => panic!("expected UnknownPrimitive, got {other:?}"),
        }
    }

    #[test]
    fn recursive_hierarchy_is_rejected() {
        let text = r#"
(edif loopy
  (library WORK
    (cell ouro (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)))
        (contents
          (instance inner (viewRef netlist (cellRef ouro (libraryRef WORK))))
          (net a (joined (portRef a) (portRef a (instanceRef inner)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::RecursiveHierarchy { cell }) => assert_eq!(cell, "ouro"),
            other => panic!("expected RecursiveHierarchy, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = from_edif("(edif broken").unwrap_err();
        match e {
            EdifError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("expected Parse, got {other:?}"),
        }
        let e = from_edif("(verilog nope)").unwrap_err();
        assert!(matches!(e, EdifError::Parse { .. }), "{e}");
        let e =
            from_edif("(edif x (library L (cell c (view v (interface (port p))))))").unwrap_err();
        assert!(e.to_string().contains("direction"), "{e}");
    }

    #[test]
    fn missing_pin_is_reported_with_the_instance_path() {
        let text = r#"
(edif bad
  (library WORK
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port c (direction INPUT)) (port q (direction OUTPUT)))
        (contents
          (instance r0 (viewRef netlist (cellRef DFF (libraryRef PRIMS))))
          (net c (joined (portRef c) (portRef D (instanceRef r0))))
          (net q (joined (portRef q) (portRef Q (instanceRef r0)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::MissingPin { instance, pin }) => {
                assert_eq!(instance, "r0");
                assert_eq!(pin, "CK");
            }
            other => panic!("expected MissingPin, got {other:?}"),
        }
    }

    #[test]
    fn design_form_selects_the_top_cell() {
        // Two cells; the design form picks the *first*, not the last.
        let text = r#"
(edif picky
  (library WORK
    (cell chosen (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (net a (joined (portRef a) (portRef A (instanceRef g))))
          (net y (joined (portRef y) (portRef Y (instanceRef g)))))))
    (cell other (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port b (direction INPUT))))))
  (design picky (cellRef chosen (libraryRef WORK))))
"#;
        let n = from_edif(text).unwrap();
        assert_eq!(n.name(), "chosen");
        assert_eq!(n.num_cells(), 1);
    }

    #[test]
    fn all_kinds_roundtrip() {
        let mut n = Netlist::new("kinds");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let t0 = n.add_net("t0");
        let t1 = n.add_net("t1");
        let m = n.add_net("m");
        let q = n.add_net("q");
        let l = n.add_net("l");
        let c = n.add_net("c");
        let y = n.add_output("y");
        n.add_const("k0", false, t0).unwrap();
        n.add_const("k1", true, t1).unwrap();
        n.add_gate("mx", CellKind::Mux2, &[s, a, b], m).unwrap();
        n.add_dff("r", m, clk, q).unwrap();
        n.add_latch("lt", q, clk, l, true).unwrap();
        n.add_c_element("ce", &[l, t1, t0], c).unwrap();
        n.add_gate("ao", CellKind::AndOrInv, &[a, b, c, s], y)
            .unwrap();
        let back = from_edif(&to_edif(&n)).unwrap();
        assert_eq!(back, n);
        assert_eq!(back.structural_hash(), n.structural_hash());
    }
}
