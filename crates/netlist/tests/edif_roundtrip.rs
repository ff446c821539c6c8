//! EDIF frontend integration tests: write→parse→flatten round-trip
//! properties on random netlists, the malformed-input corpus under
//! `tests/data/`, and the interner/index invariants the frontend relies on.

use desync_netlist::edif::{from_edif, parse_edif, to_edif, EdifError};
use desync_netlist::{CellKind, Netlist, Symbol};
use proptest::prelude::*;
use std::path::Path;

/// Random flip-flop + gate netlist builder (same shape as the Verilog
/// round-trip property, including awkward bus-style `[i]` names so the
/// writer's `(rename ...)` path is exercised).
fn random_netlist(seed: u64, gates: usize) -> Netlist {
    let mut n = Netlist::new(format!("edif_prop_{seed}"));
    let clk = n.add_input("clk");
    let mut nets = vec![
        n.add_input("din[0]"),
        n.add_input("din[1]"),
        n.add_input("sel"),
    ];
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Nand,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Xnor,
        CellKind::Not,
        CellKind::Buf,
        CellKind::Mux2,
        CellKind::AndOrInv,
    ];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for g in 0..gates {
        let kind = kinds[(next() as usize) % kinds.len()];
        let arity = kind.fixed_arity().unwrap_or(2 + (next() as usize) % 3);
        let inputs: Vec<_> = (0..arity)
            .map(|_| nets[(next() as usize) % nets.len()])
            .collect();
        let out = n.add_net(format!("w{g}"));
        n.add_gate(format!("g{g}"), kind, &inputs, out).unwrap();
        nets.push(out);
        if next() % 4 == 0 {
            let q = n.add_net(format!("q[{g}]"));
            n.add_dff(format!("r[{g}]"), out, clk, q).unwrap();
            nets.push(q);
        }
    }
    let out = *nets.last().unwrap();
    n.mark_output(out);
    n
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn edif_roundtrip_reproduces_the_netlist_exactly(
        seed in 0u64..1_000_000,
        gates in 1usize..40,
    ) {
        let original = random_netlist(seed, gates);
        let text = to_edif(&original);
        let back = from_edif(&text)
            .map_err(|e| TestCaseError::fail(format!("round-trip parse failed: {e}")))?;
        // Full equality: same names (symbols), same ids, same port lists —
        // not just isomorphism.
        prop_assert_eq!(&back, &original);
        prop_assert_eq!(back.structural_hash(), original.structural_hash());
        // And a second bounce is a fixpoint.
        prop_assert_eq!(to_edif(&back), text);
    }
}

#[test]
fn wide_port_design_roundtrips() {
    // 20k inputs and 20k outputs, each output a buffer of its input.
    // Flattening marks every port, so a membership scan per mark would
    // make this quadratic in the port count.
    const PORTS: usize = 20_000;
    let mut n = Netlist::new("wide_ports");
    let inputs: Vec<_> = (0..PORTS).map(|i| n.add_input(format!("in{i}"))).collect();
    for (i, &a) in inputs.iter().enumerate() {
        let y = n.add_output(format!("out{i}"));
        n.add_gate(format!("b{i}"), CellKind::Buf, &[a], y).unwrap();
    }
    let back = from_edif(&to_edif(&n)).unwrap();
    assert_eq!(back.inputs().len(), PORTS);
    assert_eq!(back.outputs().len(), PORTS);
    assert_eq!(back, n);
    assert_eq!(back.structural_hash(), n.structural_hash());
}

// ---------------------------------------------------------------------------
// Malformed corpus
// ---------------------------------------------------------------------------

/// Every file in `tests/data/` must be rejected with the error family its
/// filename prefix announces — and never panic or succeed. The `lint_*`
/// files are excluded: they are *structurally* bad but syntactically fine
/// (the parser deliberately does not validate, so the linter gets to see
/// them — `crates/lint/tests/edif_corpus.rs` covers that side).
#[test]
fn malformed_corpus_is_rejected_with_typed_errors() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/data exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "edif"))
        .filter(|p| {
            !p.file_stem()
                .is_some_and(|s| s.to_string_lossy().starts_with("lint_"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let result = from_edif(&text);
        let error = match result {
            Err(e) => e,
            Ok(_) => panic!("corpus file `{name}` unexpectedly parsed"),
        };
        // The Display impl must produce a useful message for every variant.
        assert!(!error.to_string().is_empty());
        match &error {
            e @ EdifError::Parse { pos, .. } => {
                assert!(
                    name.starts_with("parse_"),
                    "`{name}` raised {e} but is not a parse_* file"
                );
                assert!(pos.line >= 1 && pos.col >= 1, "positions are 1-based");
            }
            EdifError::UnknownPrimitive { cell, instance } => {
                assert!(name.starts_with("unknown_primitive"), "{name}: {error}");
                assert_eq!(cell, "FPGA_LUT6");
                assert_eq!(instance, "weird");
            }
            EdifError::MissingPin { instance, pin } => {
                assert!(name.starts_with("missing_pin"), "{name}: {error}");
                assert_eq!(instance, "r0");
                assert_eq!(pin, "CK");
            }
            EdifError::RecursiveHierarchy { cell } => {
                assert!(name.starts_with("recursive"), "{name}: {error}");
                assert!(cell == "a" || cell == "b", "cycle member, got `{cell}`");
            }
            EdifError::MissingTop => {
                assert!(name.starts_with("missing_top"), "{name}: {error}");
            }
            EdifError::Netlist(_) => {
                assert!(name.starts_with("netlist_"), "{name}: {error}");
            }
        }
        checked += 1;
    }
    assert!(checked >= 10, "corpus shrank to {checked} files");
}

// ---------------------------------------------------------------------------
// Interner and index invariants
// ---------------------------------------------------------------------------

#[test]
fn symbols_are_stable_across_reparses() {
    // Parsing the same design twice yields the same symbols (same u32s),
    // so name-keyed maps built from one parse work against the other.
    let original = random_netlist(7, 12);
    let text = to_edif(&original);
    let a = from_edif(&text).unwrap();
    let b = from_edif(&text).unwrap();
    for (id, net) in a.nets() {
        assert_eq!(net.name, b.net(id).name);
        assert_eq!(
            net.name.content_hash(),
            b.net(id).name.content_hash(),
            "content digests are per-string, not per-interning"
        );
    }
    assert_eq!(Symbol::intern("clk"), Symbol::intern("clk"));
    assert_ne!(Symbol::intern("clk"), Symbol::intern("clk2"));
}

#[test]
fn rebuild_index_restores_symbol_lookups_after_deserialization() {
    // The name indexes are `#[serde(skip)]`: a deserialized netlist arrives
    // with empty maps and `rebuild_index` reconstitutes them from the net
    // and cell vectors. The EDIF round-trip stands in for the serde trip
    // here (the vendored serde is a stub), exercising exactly the same
    // "names present, indexes rebuilt from scratch" path.
    let mut n = from_edif(&to_edif(&random_netlist(11, 20))).unwrap();
    n.rebuild_index();
    for (id, net) in n.nets() {
        assert_eq!(n.find_net_symbol(net.name), Some(id));
        assert_eq!(n.find_net(net.name.as_str()), Some(id));
    }
    for (id, cell) in n.cells() {
        assert_eq!(n.find_cell_symbol(cell.name), Some(id));
    }
    // The duplicate-name suffix counter is also rebuilt: new nets keep
    // getting fresh names instead of colliding with deserialized ones.
    let w0 = n.find_net("w0").expect("generator always makes w0");
    let fresh = n.add_net("w0");
    assert_ne!(fresh, w0);
    assert_ne!(n.net(fresh).name, n.net(w0).name);
}

#[test]
fn add_net_suffix_probing_is_linear_not_quadratic() {
    // 100k same-named nets: the per-base next-suffix counter makes this
    // linear. The quadratic probe loop this replaced re-scanned every
    // existing suffix per insertion and would take minutes here.
    let mut n = Netlist::new("suffix_scale");
    let mut ids = Vec::with_capacity(100_000);
    for _ in 0..100_000 {
        ids.push(n.add_net("collision"));
    }
    assert_eq!(n.net(ids[0]).name, "collision");
    assert_eq!(n.net(ids[1]).name, "collision_1");
    assert_eq!(n.net(ids[99_999]).name, "collision_99999");
    // All distinct.
    let uniq: std::collections::HashSet<Symbol> = ids.iter().map(|&id| n.net(id).name).collect();
    assert_eq!(uniq.len(), ids.len());
}

#[test]
fn parse_preserves_declaration_order_in_the_ast() {
    let text = to_edif(&random_netlist(3, 9));
    let ast = parse_edif(&text).unwrap();
    assert_eq!(ast.libraries.len(), 2, "PRIMS + DESIGNS");
    let design_lib = &ast.libraries[1];
    assert_eq!(design_lib.cells.len(), 1);
    let top = &design_lib.cells[0];
    assert!(
        ast.design.is_some(),
        "writer emits an explicit (design ...)"
    );
    // Ports come out inputs-first, matching the writer.
    assert!(!top.ports.is_empty());
    assert!(!top.instances.is_empty());
    assert!(!top.nets.is_empty());
}
