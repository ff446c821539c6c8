//! Waveform recording and a minimal VCD writer.

use desync_netlist::{NetId, Netlist, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The recorded value changes of a single net: `(time_ps, new_value)` pairs
/// in chronological order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Waveform {
    changes: Vec<(f64, Value)>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a value change. Consecutive identical values are collapsed.
    pub fn push(&mut self, time_ps: f64, value: Value) {
        if let Some(&(_, last)) = self.changes.last() {
            if last == value {
                return;
            }
        }
        self.changes.push((time_ps, value));
    }

    /// The value of the net at `time_ps` (the most recent change at or
    /// before that time), or [`Value::X`] before the first change.
    pub fn value_at(&self, time_ps: f64) -> Value {
        let mut current = Value::X;
        for &(t, v) in &self.changes {
            if t > time_ps {
                break;
            }
            current = v;
        }
        current
    }

    /// All recorded changes.
    pub fn changes(&self) -> &[(f64, Value)] {
        &self.changes
    }

    /// Number of recorded changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The times at which the waveform switches to `value`.
    pub fn edges_to(&self, value: Value) -> Vec<f64> {
        self.changes
            .iter()
            .filter(|(_, v)| *v == value)
            .map(|&(t, _)| t)
            .collect()
    }

    /// Renders an ASCII strip (`_`, `#`, `x` per time step) between
    /// `start_ps` and `end_ps` with the given resolution. Intended for the
    /// figure-reproduction binaries (paper Figure 3 timing diagram).
    pub fn ascii(&self, start_ps: f64, end_ps: f64, step_ps: f64) -> String {
        let mut out = String::new();
        let mut t = start_ps;
        while t < end_ps {
            out.push(match self.value_at(t) {
                Value::Zero => '_',
                Value::One => '#',
                Value::X => 'x',
            });
            t += step_ps;
        }
        out
    }
}

/// A set of named waveforms recorded during one simulation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WaveformSet {
    waves: BTreeMap<String, Waveform>,
}

impl WaveformSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a change on the named signal.
    pub fn push(&mut self, name: &str, time_ps: f64, value: Value) {
        self.waves
            .entry(name.to_string())
            .or_default()
            .push(time_ps, value);
    }

    /// Inserts a fully recorded waveform under `name`, replacing any
    /// previous one. Used by the simulator's export path, which records
    /// waveforms by net id during the run and resolves names only once at
    /// the end.
    pub fn insert(&mut self, name: String, waveform: Waveform) {
        self.waves.insert(name, waveform);
    }

    /// The waveform of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Waveform> {
        self.waves.get(name)
    }

    /// Iterates over `(name, waveform)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Waveform)> {
        self.waves.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of recorded signals.
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    /// Whether no signal was recorded.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }

    /// Serializes the set as a minimal VCD (value change dump) document with
    /// 1 ps resolution, usable with standard waveform viewers. Signals get
    /// distinct identifiers of one or more printable ASCII characters.
    pub fn to_vcd(&self, module: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module {module} $end");
        let ids: Vec<String> = (0..self.waves.len()).map(vcd_id).collect();
        for (name, id) in self.waves.keys().zip(&ids) {
            let _ = writeln!(out, "$var wire 1 {id} {name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        // Merge all changes into a single time-ordered stream.
        let mut events: Vec<(f64, &str, Value)> = Vec::new();
        for (wave, id) in self.waves.values().zip(&ids) {
            events.extend(wave.changes().iter().map(|&(t, v)| (t, id.as_str(), v)));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut last_time = f64::NEG_INFINITY;
        for (t, id, v) in events {
            if t != last_time {
                let _ = writeln!(out, "#{}", t.round() as i64);
                last_time = t;
            }
            let ch = match v {
                Value::Zero => '0',
                Value::One => '1',
                Value::X => 'x',
            };
            let _ = writeln!(out, "{ch}{id}");
        }
        out
    }

    /// Convenience: the waveform of a net, looked up through the netlist's
    /// net names.
    pub fn of_net(&self, netlist: &Netlist, net: NetId) -> Option<&Waveform> {
        self.get(netlist.net(net).name.as_str())
    }
}

/// The VCD identifier of signal `index`: its base-94 digits over the
/// printable ASCII range `!`..`~`, least significant first, so every index
/// gets its own code.
fn vcd_id(mut index: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (index % 94) as u8));
        index /= 94;
        if index == 0 {
            return id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn push_collapses_duplicates() {
        let mut w = Waveform::new();
        w.push(0.0, Value::Zero);
        w.push(5.0, Value::Zero);
        w.push(10.0, Value::One);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn value_at_times() {
        let mut w = Waveform::new();
        w.push(10.0, Value::One);
        w.push(20.0, Value::Zero);
        assert_eq!(w.value_at(5.0), Value::X);
        assert_eq!(w.value_at(10.0), Value::One);
        assert_eq!(w.value_at(15.0), Value::One);
        assert_eq!(w.value_at(25.0), Value::Zero);
    }

    #[test]
    fn edges_and_ascii() {
        let mut w = Waveform::new();
        w.push(0.0, Value::Zero);
        w.push(10.0, Value::One);
        w.push(20.0, Value::Zero);
        w.push(30.0, Value::One);
        assert_eq!(w.edges_to(Value::One), vec![10.0, 30.0]);
        let art = w.ascii(0.0, 40.0, 10.0);
        assert_eq!(art, "_#_#");
    }

    #[test]
    fn waveform_set_and_vcd() {
        let mut set = WaveformSet::new();
        set.push("clk", 0.0, Value::Zero);
        set.push("clk", 10.0, Value::One);
        set.push("q", 12.0, Value::One);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(set.get("clk").is_some());
        assert!(set.get("missing").is_none());
        let vcd = set.to_vcd("top");
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("#10"));
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn vcd_ids_stay_distinct_beyond_one_character() {
        // Signal `sNNN` rises at NNN ps, so the body is one `#t` / `1<id>`
        // pair per signal, in signal order.
        let mut set = WaveformSet::new();
        for i in 0..200 {
            set.push(&format!("s{i:03}"), i as f64, Value::One);
        }
        let vcd = set.to_vcd("top");
        // `$var wire 1 <id> <name> $end`, one per signal in name order.
        let vars: Vec<Vec<&str>> = vcd
            .lines()
            .filter(|line| line.starts_with("$var"))
            .map(|line| line.split(' ').collect())
            .collect();
        let ids: BTreeSet<&str> = vars.iter().map(|var| var[3]).collect();
        assert_eq!(ids.len(), 200, "identifiers collide");
        let body: Vec<&str> = vcd
            .split("$enddefinitions $end\n")
            .nth(1)
            .unwrap()
            .lines()
            .collect();
        assert_eq!(body.len(), 400);
        for (i, (var, change)) in vars.iter().zip(body.chunks(2)).enumerate() {
            assert_eq!(var[4], format!("s{i:03}"));
            assert_eq!(change[0], format!("#{i}"));
            assert_eq!(change[1], format!("1{}", var[3]));
        }
    }

    #[test]
    fn of_net_uses_net_names() {
        let mut n = Netlist::new("t");
        let a = n.add_input("sig_a");
        let mut set = WaveformSet::new();
        set.push("sig_a", 0.0, Value::One);
        assert!(set.of_net(&n, a).is_some());
    }
}
