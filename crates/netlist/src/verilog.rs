//! A structural-Verilog subset reader and writer.
//!
//! The subset covers exactly what the desynchronization flow consumes and
//! produces: one flat module, scalar `input`/`output`/`wire` declarations and
//! named-port instances of the canonical library cells
//! (`INV`, `NAND2`, `DFF`, `LATP`, ...). It is intentionally small — the
//! point is interchange with external netlists, not general Verilog support.
//!
//! # Example
//!
//! ```
//! use desync_netlist::{Netlist, CellKind};
//! use desync_netlist::verilog::{to_verilog, from_verilog};
//!
//! # fn main() -> Result<(), desync_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_output("y");
//! n.add_gate("g0", CellKind::Nand, &[a, b], y)?;
//! let text = to_verilog(&n);
//! let back = from_verilog(&text)?;
//! assert_eq!(back.num_cells(), 1);
//! # Ok(())
//! # }
//! ```

use crate::cell::{CellId, CellKind};
use crate::error::NetlistError;
use crate::intern::Symbol;
use crate::netlist::{NetId, Netlist};
use std::fmt;
use std::fmt::Write as _;

/// Pin names used by the writer for a cell kind with `n` inputs — the
/// canonical static tables shared with the EDIF frontend (see
/// [`CellKind::input_pin_names`]); no per-cell allocation.
fn pin_names(kind: CellKind, n: usize) -> (&'static [&'static str], &'static str) {
    (kind.input_pin_names(n), kind.output_pin_name())
}

/// Library cell name emitted for an instance (arity-suffixed for N-ary
/// gates), formatted in place wherever it is written.
pub(crate) fn instance_cell_name(kind: CellKind, num_inputs: usize) -> impl fmt::Display {
    struct CellName(CellKind, usize);
    impl fmt::Display for CellName {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.0.canonical_name())?;
            if self.0.fixed_arity().is_none() {
                write!(f, "{}", self.1)?;
            }
            Ok(())
        }
    }
    CellName(kind, num_inputs)
}

/// Serializes a netlist to the structural-Verilog subset.
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let port_names: Vec<&str> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs().iter())
        .map(|&id| netlist.net(id).name.as_str())
        .collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        netlist.name(),
        port_names.join(", ")
    );
    for &id in netlist.inputs() {
        let _ = writeln!(out, "  input {};", netlist.net(id).name);
    }
    for &id in netlist.outputs() {
        let _ = writeln!(out, "  output {};", netlist.net(id).name);
    }
    let port_set: std::collections::HashSet<NetId> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs().iter())
        .copied()
        .collect();
    for (id, net) in netlist.nets() {
        if !port_set.contains(&id) {
            let _ = writeln!(out, "  wire {};", net.name);
        }
    }
    let _ = writeln!(out);
    for (_, cell) in netlist.cells() {
        let (in_pins, out_pin) = pin_names(cell.kind, cell.inputs.len());
        let mut conns: Vec<String> = Vec::with_capacity(cell.inputs.len() + 1);
        conns.push(format!(".{out_pin}({})", netlist.net(cell.output).name));
        for (pin, &net) in in_pins.iter().zip(cell.inputs.iter()) {
            conns.push(format!(".{pin}({})", netlist.net(net).name));
        }
        let _ = writeln!(
            out,
            "  {} {} ({});",
            instance_cell_name(cell.kind, cell.inputs.len()),
            cell.name,
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Symbol(char),
}

struct Lexer {
    tokens: Vec<(usize, Token)>,
    pos: usize,
}

impl Lexer {
    fn new(text: &str) -> Result<Self, NetlistError> {
        let mut tokens = Vec::new();
        for (line_idx, raw_line) in text.lines().enumerate() {
            let line_no = line_idx + 1;
            let line = match raw_line.find("//") {
                Some(p) => &raw_line[..p],
                None => raw_line,
            };
            let mut chars = line.chars().peekable();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    chars.next();
                } else if c.is_alphanumeric() || c == '_' || c == '\\' || c == '[' || c == ']' {
                    let mut ident = String::new();
                    while let Some(&c2) = chars.peek() {
                        if c2.is_alphanumeric() || c2 == '_' || c2 == '\\' || c2 == '[' || c2 == ']'
                        {
                            ident.push(c2);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    tokens.push((line_no, Token::Ident(ident)));
                } else if "(),;.".contains(c) {
                    chars.next();
                    tokens.push((line_no, Token::Symbol(c)));
                } else {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        message: format!("unexpected character `{c}`"),
                    });
                }
            }
        }
        Ok(Self { tokens, pos: 0 })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(l, _)| *l)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_ident(&mut self) -> Result<String, NetlistError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(NetlistError::Parse {
                line,
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    fn expect_symbol(&mut self, sym: char) -> Result<(), NetlistError> {
        let line = self.line();
        match self.next() {
            Some(Token::Symbol(c)) if c == sym => Ok(()),
            other => Err(NetlistError::Parse {
                line,
                message: format!("expected `{sym}`, found {other:?}"),
            }),
        }
    }

    fn eat_symbol(&mut self, sym: char) -> bool {
        if self.peek() == Some(&Token::Symbol(sym)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

/// Parses the structural-Verilog subset back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input, and any structural
/// error ([`NetlistError::ArityMismatch`], unknown cells, ...) while
/// rebuilding the netlist.
pub fn from_verilog(text: &str) -> Result<Netlist, NetlistError> {
    let mut lex = Lexer::new(text)?;
    let line = lex.line();
    let kw = lex.expect_ident()?;
    if kw != "module" {
        return Err(NetlistError::Parse {
            line,
            message: format!("expected `module`, found `{kw}`"),
        });
    }
    let module_name = lex.expect_ident()?;
    let mut netlist = Netlist::new(module_name);

    // Port list (names only; directions come from the declarations).
    lex.expect_symbol('(')?;
    let mut port_order: Vec<String> = Vec::new();
    if !lex.eat_symbol(')') {
        loop {
            port_order.push(lex.expect_ident()?);
            if lex.eat_symbol(')') {
                break;
            }
            lex.expect_symbol(',')?;
        }
    }
    lex.expect_symbol(';')?;

    // (cell kind keyword, instance name, port connections, source line).
    type PendingInstance = (String, String, Vec<(String, String)>, usize);
    let mut pending_instances: Vec<PendingInstance> = Vec::new();
    let mut declared_inputs: Vec<String> = Vec::new();
    let mut declared_outputs: Vec<String> = Vec::new();
    let mut declared_wires: Vec<String> = Vec::new();

    loop {
        let line = lex.line();
        let word = match lex.next() {
            Some(Token::Ident(s)) => s,
            Some(tok) => {
                return Err(NetlistError::Parse {
                    line,
                    message: format!("unexpected token {tok:?}"),
                })
            }
            None => {
                return Err(NetlistError::Parse {
                    line,
                    message: "missing `endmodule`".into(),
                })
            }
        };
        match word.as_str() {
            "endmodule" => break,
            "input" | "output" | "wire" => {
                let mut names = vec![lex.expect_ident()?];
                while lex.eat_symbol(',') {
                    names.push(lex.expect_ident()?);
                }
                lex.expect_symbol(';')?;
                match word.as_str() {
                    "input" => declared_inputs.extend(names),
                    "output" => declared_outputs.extend(names),
                    _ => declared_wires.extend(names),
                }
            }
            cell_name => {
                // Instance: CELL inst ( .PIN(net), ... );
                let inst_name = lex.expect_ident()?;
                lex.expect_symbol('(')?;
                let mut conns = Vec::new();
                if !lex.eat_symbol(')') {
                    loop {
                        lex.expect_symbol('.')?;
                        let pin = lex.expect_ident()?;
                        lex.expect_symbol('(')?;
                        let net = lex.expect_ident()?;
                        lex.expect_symbol(')')?;
                        conns.push((pin, net));
                        if lex.eat_symbol(')') {
                            break;
                        }
                        lex.expect_symbol(',')?;
                    }
                }
                lex.expect_symbol(';')?;
                pending_instances.push((cell_name.to_string(), inst_name, conns, line));
            }
        }
    }

    // Create nets: inputs, outputs, then wires; any net referenced only by an
    // instance is created on demand. The netlist's own symbol-keyed index is
    // the lookup structure — no shadow string map.
    for name in &declared_inputs {
        netlist.add_input(name.as_str());
    }
    for name in &declared_outputs {
        netlist.add_output(name.as_str());
    }
    for name in &declared_wires {
        let sym = Symbol::intern(name);
        if netlist.find_net_symbol(sym).is_none() {
            netlist.add_net(sym);
        }
    }

    for (cell_name, inst_name, conns, line) in pending_instances {
        let kind = CellKind::from_canonical_name(&cell_name).ok_or(NetlistError::Parse {
            line,
            message: format!("unknown cell `{cell_name}`"),
        })?;
        let lookup = |name: &str, netlist: &mut Netlist| -> NetId {
            let sym = Symbol::intern(name);
            match netlist.find_net_symbol(sym) {
                Some(id) => id,
                None => netlist.add_net(sym),
            }
        };
        let mut resolved: Vec<(&str, NetId)> = conns
            .iter()
            .map(|(pin, net)| (pin.as_str(), lookup(net, &mut netlist)))
            .collect();
        let (inputs, output) =
            kind.order_connections(&mut resolved)
                .map_err(|pin| NetlistError::Parse {
                    line,
                    message: format!("instance `{inst_name}` missing pin `{pin}`"),
                })?;
        netlist.add_cell(crate::cell::Cell {
            name: inst_name.into(),
            kind,
            inputs,
            output,
        })?;
    }

    Ok(netlist)
}

/// Writes a human-readable report of the netlist (one line per cell),
/// useful in examples and debugging output.
pub fn to_report(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", netlist.summary());
    for (id, cell) in netlist.cells() {
        let inputs: Vec<&str> = cell
            .inputs
            .iter()
            .map(|&n| netlist.net(n).name.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  [{id}] {} {} ({}) -> {}",
            cell.kind,
            cell.name,
            inputs.join(", "),
            netlist.net(cell.output).name
        );
    }
    out
}

/// Convenience: the id of every cell whose name starts with `prefix`.
pub fn cells_with_prefix(netlist: &Netlist, prefix: &str) -> Vec<CellId> {
    netlist
        .cells()
        .filter(|(_, c)| c.name.as_str().starts_with(prefix))
        .map(|(id, _)| id)
        .collect()
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
    fn writer_emits_module_structure() {
        let text = to_verilog(&sample());
        assert!(text.starts_with("module sample (clk, a, b, y);"));
        assert!(text.contains("input clk;"));
        assert!(text.contains("output y;"));
        assert!(text.contains("wire w_nand;"));
        assert!(text.contains("NAND2 g0"));
        assert!(text.contains("DFF r0"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original = sample();
        let text = to_verilog(&original);
        let parsed = from_verilog(&text).unwrap();
        assert_eq!(parsed.name(), "sample");
        assert_eq!(parsed.num_cells(), original.num_cells());
        assert_eq!(parsed.num_flip_flops(), 1);
        assert_eq!(parsed.inputs().len(), 3);
        assert_eq!(parsed.outputs().len(), 1);
        assert!(parsed.validate().is_ok());
        // Kind histogram must match.
        let h1 = crate::analysis::kind_histogram(&original);
        let h2 = crate::analysis::kind_histogram(&parsed);
        assert_eq!(h1, h2);
    }

    #[test]
    fn roundtrip_latches_and_mux() {
        let mut n = Netlist::new("lat");
        let en = n.add_input("en");
        let s = n.add_input("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let m = n.add_net("m");
        let q = n.add_output("q");
        n.add_gate("mx", CellKind::Mux2, &[s, a, b], m).unwrap();
        n.add_latch("l0", m, en, q, true).unwrap();
        let parsed = from_verilog(&to_verilog(&n)).unwrap();
        assert_eq!(parsed.num_latches(), 1);
        let mx = parsed.find_cell("mx").unwrap();
        assert_eq!(parsed.cell(mx).kind, CellKind::Mux2);
        // Mux pin order must be preserved: S, A, B.
        assert_eq!(
            parsed.cell(mx).inputs,
            vec![
                parsed.find_net("s").unwrap(),
                parsed.find_net("a").unwrap(),
                parsed.find_net("b").unwrap()
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_verilog("modul broken").is_err());
        assert!(from_verilog("module m (a); input a; BOGUS g (.Y(a)); endmodule").is_err());
        assert!(from_verilog("module m (a); input a;").is_err());
        let err = from_verilog("module m (a); input a; @").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn parse_handles_comments_and_whitespace() {
        let text = "\
// a comment
module m (a, y); // ports
  input a;
  output y;

  INV g0 (.Y(y), .A(a)); // the only gate
endmodule
";
        let n = from_verilog(text).unwrap();
        assert_eq!(n.num_cells(), 1);
        assert_eq!(n.cell(CellId(0)).kind, CellKind::Not);
    }

    #[test]
    fn missing_pin_is_an_error() {
        let text = "module m (c, y); input c; output y; DFF r (.Q(y), .D(c)); endmodule";
        let err = from_verilog(text).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn report_lists_cells() {
        let n = sample();
        let rep = to_report(&n);
        assert!(rep.contains("NAND g0"));
        assert!(rep.contains("module sample"));
        assert_eq!(cells_with_prefix(&n, "g").len(), 2);
    }
}
