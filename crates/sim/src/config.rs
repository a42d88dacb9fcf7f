//! Simulation scenario configuration: seeded generation, the one-line
//! replay rendering, and its parser.
//!
//! The replay line is the harness's unit of exchange: a failing run is
//! reported as `sim(...)`, the corpus stores one `sim(...)` per file, and
//! `--replay` accepts the same string back. Floats are rendered with
//! Rust's round-tripping `{:?}` format, so `parse(render(c)) == c`
//! exactly.

use qcc_common::Pcg32;
use std::fmt::Write as _;

/// One injected fault on the virtual timeline. `server` indexes into
/// [`SimConfig::servers`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Hard outage: the server does not answer at all in `[from, until)`.
    Crash {
        /// Server index.
        server: usize,
        /// Window start (virtual ms).
        from_ms: f64,
        /// Window end (virtual ms, exclusive).
        until_ms: f64,
    },
    /// Flaky-error window: requests fault with probability `rate`.
    Flaky {
        /// Server index.
        server: usize,
        /// Window start (virtual ms).
        from_ms: f64,
        /// Window end (virtual ms, exclusive).
        until_ms: f64,
        /// Transient-fault probability in `[0, 1]`.
        rate: f64,
    },
    /// Background-load surge: the server's utilization jumps to `level`.
    Surge {
        /// Server index.
        server: usize,
        /// Window start (virtual ms).
        from_ms: f64,
        /// Window end (virtual ms, exclusive).
        until_ms: f64,
        /// Background utilization in `[0, 1]`.
        level: f64,
    },
    /// Link-congestion spike: the server's link congestion jumps to
    /// `level` (latency multiplier window).
    Spike {
        /// Server index.
        server: usize,
        /// Window start (virtual ms).
        from_ms: f64,
        /// Window end (virtual ms, exclusive).
        until_ms: f64,
        /// Congestion level in `[0, 1]`.
        level: f64,
    },
    /// Link-congestion ramp: congestion climbs from 0 to `level` in
    /// staircase steps across the window, then drops back.
    Ramp {
        /// Server index.
        server: usize,
        /// Window start (virtual ms).
        from_ms: f64,
        /// Window end (virtual ms, exclusive).
        until_ms: f64,
        /// Peak congestion level in `[0, 1]`.
        level: f64,
    },
}

impl FaultSpec {
    /// The server index this fault targets.
    pub fn server(&self) -> usize {
        match self {
            FaultSpec::Crash { server, .. }
            | FaultSpec::Flaky { server, .. }
            | FaultSpec::Surge { server, .. }
            | FaultSpec::Spike { server, .. }
            | FaultSpec::Ramp { server, .. } => *server,
        }
    }

    /// The window end (virtual ms).
    pub fn until_ms(&self) -> f64 {
        match self {
            FaultSpec::Crash { until_ms, .. }
            | FaultSpec::Flaky { until_ms, .. }
            | FaultSpec::Surge { until_ms, .. }
            | FaultSpec::Spike { until_ms, .. }
            | FaultSpec::Ramp { until_ms, .. } => *until_ms,
        }
    }
}

/// The sim's default execution deadline (virtual ms).
pub const LOOSE_EXEC_DEADLINE_MS: f64 = 800.0;

/// The tight execution deadline a generated scenario may draw instead.
pub const TIGHT_EXEC_DEADLINE_MS: f64 = 4.0;

/// A full simulation scenario: world shape, workload, and fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed (data generation and arrival process both derive from
    /// it, with distinct salts).
    pub seed: u64,
    /// `(speed, base load sensitivity)` per server, in id order.
    pub servers: Vec<(f64, f64)>,
    /// Rows in the large tables.
    pub large_rows: u64,
    /// Rows in the small table.
    pub small_rows: u64,
    /// Open-loop arrival count.
    pub arrivals: usize,
    /// Poisson arrival rate per virtual ms.
    pub rate_per_ms: f64,
    /// Per-query retry budget.
    pub retry_limit: usize,
    /// Generated-fleet size. `0` = classic mode: the explicit `servers`
    /// list is the world. When positive, `servers` must be empty and the
    /// per-server specs are derived deterministically from `seed` in
    /// `world::build`; fault indices range over the fleet.
    pub fleet: usize,
    /// Replica-catalog source-selection bound in fleet mode: how many
    /// candidate servers survive per fragment after dominance pruning.
    /// `0` = no catalog attached (the unpruned fleet). Ignored in
    /// classic mode.
    pub replication: usize,
    /// The federation's `stall_factor`, the stall detector's slow-cancel
    /// multiplier (DESIGN.md §10). `0.0` (also the value replay lines
    /// omit) never cancels a healthy stream for slowness; interrupted
    /// streams are rescued at any value.
    pub reroute: f64,
    /// The admission controller's `exec_deadline_ms`. The default,
    /// [`LOOSE_EXEC_DEADLINE_MS`] (also the value replay lines omit), is
    /// far above any generated fragment's cost; under
    /// [`TIGHT_EXEC_DEADLINE_MS`] many fragments run short of budget, and
    /// one with a replica in band hedges.
    pub exec_deadline_ms: f64,
    /// The fault schedule.
    pub faults: Vec<FaultSpec>,
}

impl SimConfig {
    /// The latest fault-window end, or 0 with no faults (drives the
    /// driver's post-run cool-down).
    pub fn last_fault_end_ms(&self) -> f64 {
        self.faults
            .iter()
            .map(FaultSpec::until_ms)
            .fold(0.0, f64::max)
    }

    /// Render the one-line replay form. `parse` inverts this exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "sim(seed: {}, servers: [", self.seed);
        for (i, (speed, sens)) in self.servers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "({speed:?}, {sens:?})");
        }
        let _ = write!(
            out,
            "], large_rows: {}, small_rows: {}, arrivals: {}, rate_per_ms: {:?}, retry_limit: {}, ",
            self.large_rows, self.small_rows, self.arrivals, self.rate_per_ms, self.retry_limit
        );
        if self.fleet > 0 {
            let _ = write!(
                out,
                "fleet: {}, replication: {}, ",
                self.fleet, self.replication
            );
        }
        // The default 0.0 is omitted so pre-adaptivity replay lines and
        // their renders stay byte-identical.
        if self.reroute > 0.0 {
            let _ = write!(out, "reroute: {:?}, ", self.reroute);
        }
        // Likewise the default deadline.
        if self.exec_deadline_ms != LOOSE_EXEC_DEADLINE_MS {
            let _ = write!(out, "exec_deadline_ms: {:?}, ", self.exec_deadline_ms);
        }
        out.push_str("faults: [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match f {
                FaultSpec::Crash {
                    server,
                    from_ms,
                    until_ms,
                } => {
                    let _ = write!(out, "crash({server}, {from_ms:?}, {until_ms:?})");
                }
                FaultSpec::Flaky {
                    server,
                    from_ms,
                    until_ms,
                    rate,
                } => {
                    let _ = write!(out, "flaky({server}, {from_ms:?}, {until_ms:?}, {rate:?})");
                }
                FaultSpec::Surge {
                    server,
                    from_ms,
                    until_ms,
                    level,
                } => {
                    let _ = write!(out, "surge({server}, {from_ms:?}, {until_ms:?}, {level:?})");
                }
                FaultSpec::Spike {
                    server,
                    from_ms,
                    until_ms,
                    level,
                } => {
                    let _ = write!(out, "spike({server}, {from_ms:?}, {until_ms:?}, {level:?})");
                }
                FaultSpec::Ramp {
                    server,
                    from_ms,
                    until_ms,
                    level,
                } => {
                    let _ = write!(out, "ramp({server}, {from_ms:?}, {until_ms:?}, {level:?})");
                }
            }
        }
        out.push_str("])");
        out
    }
}

/// Draw a randomized scenario from `seed`. Dimensions are chosen so a
/// single run stays well under a second in release mode while still
/// exercising multi-server routing, saturation, and every fault class.
pub fn generate(seed: u64) -> SimConfig {
    let mut rng = Pcg32::seed_from(seed);
    let n = rng.range_u64(2, 5) as usize;
    let servers: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.range_f64(0.8, 2.4), rng.range_f64(0.05, 0.40)))
        .collect();
    let large_rows = rng.range_u64(200, 600);
    let small_rows = rng.range_u64(30, 80);
    let arrivals = rng.range_u64(30, 90) as usize;
    let rate_per_ms = rng.range_f64(0.05, 0.25);
    // Mean span of the arrival process; fault windows land inside it so
    // faults and traffic actually overlap.
    let horizon = arrivals as f64 / rate_per_ms;
    let n_faults = rng.range_u64(0, 5) as usize;
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        let server = rng.range_u64(0, n as u64) as usize;
        let from_ms = rng.range_f64(0.05, 0.60) * horizon;
        let until_ms = from_ms + rng.range_f64(0.10, 0.35) * horizon;
        faults.push(match rng.range_u64(0, 5) {
            0 => FaultSpec::Crash {
                server,
                from_ms,
                until_ms,
            },
            1 => FaultSpec::Flaky {
                server,
                from_ms,
                until_ms,
                rate: rng.range_f64(0.1, 0.9),
            },
            2 => FaultSpec::Surge {
                server,
                from_ms,
                until_ms,
                level: rng.range_f64(0.5, 0.9),
            },
            3 => FaultSpec::Spike {
                server,
                from_ms,
                until_ms,
                level: rng.range_f64(0.3, 0.9),
            },
            _ => FaultSpec::Ramp {
                server,
                from_ms,
                until_ms,
                level: rng.range_f64(0.3, 0.9),
            },
        });
    }
    // Drawn last so every pre-adaptivity field keeps its value for a
    // given seed: about half the scenarios run with mid-query reroute on.
    let reroute = if rng.range_u64(0, 2) == 1 {
        rng.range_f64(2.0, 6.0)
    } else {
        0.0
    };
    // Drawn after `reroute`, for the same reason: about half the
    // scenarios run with a deadline short enough to hedge.
    let exec_deadline_ms = if rng.range_u64(0, 2) == 1 {
        TIGHT_EXEC_DEADLINE_MS
    } else {
        LOOSE_EXEC_DEADLINE_MS
    };
    SimConfig {
        seed,
        servers,
        large_rows,
        small_rows,
        arrivals,
        rate_per_ms,
        retry_limit: 2,
        fleet: 0,
        replication: 0,
        reroute,
        exec_deadline_ms,
        faults,
    }
}

/// Salt separating the scale-scenario generation stream from the classic
/// [`generate`] stream (the same seed must not alias both).
const SCALE_SALT: u64 = 0x5ca1_ab1e_0000_0001;

/// Draw a servers-in-the-hundreds scenario from `seed`: a generated
/// fleet of 100–259 hosts with the replica catalog's source-selection
/// bound at 3, tiny tables (the fleet exists to be routed over, not
/// scanned hard), and a short fault schedule whose server indices range
/// over the whole fleet.
pub fn generate_scale(seed: u64) -> SimConfig {
    let mut rng = Pcg32::seed_from(seed ^ SCALE_SALT);
    let fleet = rng.range_u64(100, 260) as usize;
    let large_rows = rng.range_u64(60, 120);
    let small_rows = rng.range_u64(12, 24);
    let arrivals = rng.range_u64(8, 16) as usize;
    let rate_per_ms = rng.range_f64(0.05, 0.15);
    let horizon = arrivals as f64 / rate_per_ms;
    let n_faults = rng.range_u64(0, 3) as usize;
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        let server = rng.range_u64(0, fleet as u64) as usize;
        let from_ms = rng.range_f64(0.05, 0.60) * horizon;
        let until_ms = from_ms + rng.range_f64(0.10, 0.35) * horizon;
        faults.push(match rng.range_u64(0, 3) {
            0 => FaultSpec::Crash {
                server,
                from_ms,
                until_ms,
            },
            1 => FaultSpec::Flaky {
                server,
                from_ms,
                until_ms,
                rate: rng.range_f64(0.1, 0.9),
            },
            _ => FaultSpec::Surge {
                server,
                from_ms,
                until_ms,
                level: rng.range_f64(0.5, 0.9),
            },
        });
    }
    // Drawn last, as in `generate`, to keep earlier fields seed-stable.
    let reroute = if rng.range_u64(0, 2) == 1 {
        rng.range_f64(2.0, 6.0)
    } else {
        0.0
    };
    SimConfig {
        seed,
        servers: Vec::new(),
        large_rows,
        small_rows,
        arrivals,
        rate_per_ms,
        retry_limit: 2,
        fleet,
        replication: 3,
        reroute,
        exec_deadline_ms: LOOSE_EXEC_DEADLINE_MS,
        faults,
    }
}

/// Parse a replay line produced by [`SimConfig::render`]. The grammar is
/// deliberately strict (fixed key order) — this is a machine round-trip
/// format, not a configuration language.
pub fn parse(s: &str) -> Result<SimConfig, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    p.tag("sim")?;
    p.tok(b'(')?;
    p.key("seed")?;
    let seed = p.u64()?;
    p.tok(b',')?;
    p.key("servers")?;
    let servers = p.pair_list()?;
    p.tok(b',')?;
    p.key("large_rows")?;
    let large_rows = p.u64()?;
    p.tok(b',')?;
    p.key("small_rows")?;
    let small_rows = p.u64()?;
    p.tok(b',')?;
    p.key("arrivals")?;
    let arrivals = p.u64()? as usize;
    p.tok(b',')?;
    p.key("rate_per_ms")?;
    let rate_per_ms = p.f64()?;
    p.tok(b',')?;
    p.key("retry_limit")?;
    let retry_limit = p.u64()? as usize;
    p.tok(b',')?;
    // Optional fleet block (scale mode); "fleet" vs "faults" diverge at
    // the second byte, so a prefix peek is unambiguous.
    let (fleet, replication) = if p.peek_tag("fleet") {
        p.key("fleet")?;
        let fleet = p.u64()? as usize;
        if fleet == 0 {
            return Err("fleet must be positive when given".to_string());
        }
        p.tok(b',')?;
        p.key("replication")?;
        let replication = p.u64()? as usize;
        p.tok(b',')?;
        (fleet, replication)
    } else {
        (0, 0)
    };
    if fleet > 0 && !servers.is_empty() {
        return Err("fleet mode requires an empty servers list".to_string());
    }
    // Optional reroute knob; absent (every pre-adaptivity line) means the
    // default 0.0. "reroute" vs "faults" diverge at the first byte.
    let reroute = if p.peek_tag("reroute") {
        p.key("reroute")?;
        let reroute = p.f64()?;
        if reroute <= 0.0 {
            return Err("reroute must be positive when given".to_string());
        }
        p.tok(b',')?;
        reroute
    } else {
        0.0
    };
    // Optional deadline; absent means the loose default. "exec_deadline_ms"
    // vs "faults" diverge at the first byte.
    let exec_deadline_ms = if p.peek_tag("exec_deadline_ms") {
        p.key("exec_deadline_ms")?;
        let ms = p.f64()?;
        if ms <= 0.0 || ms == LOOSE_EXEC_DEADLINE_MS {
            return Err(format!(
                "exec_deadline_ms must be positive and not the default \
                 {LOOSE_EXEC_DEADLINE_MS:?} when given"
            ));
        }
        p.tok(b',')?;
        ms
    } else {
        LOOSE_EXEC_DEADLINE_MS
    };
    p.key("faults")?;
    let faults = p.fault_list(if fleet > 0 { fleet } else { servers.len() })?;
    p.tok(b')')?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(SimConfig {
        seed,
        servers,
        large_rows,
        small_rows,
        arrivals,
        rate_per_ms,
        retry_limit,
        fleet,
        replication,
        reroute,
        exec_deadline_ms,
        faults,
    })
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn tok(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn tag(&mut self, t: &str) -> Result<(), String> {
        self.ws();
        if self.s[self.i..].starts_with(t.as_bytes()) {
            self.i += t.len();
            Ok(())
        } else {
            Err(format!("expected '{t}' at byte {}", self.i))
        }
    }

    fn key(&mut self, k: &str) -> Result<(), String> {
        self.tag(k)?;
        self.tok(b':')
    }

    fn peek_tag(&mut self, t: &str) -> bool {
        self.ws();
        self.s[self.i..].starts_with(t.as_bytes())
    }

    fn ident(&mut self) -> String {
        self.ws();
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_alphabetic() {
            self.i += 1;
        }
        String::from_utf8_lossy(&self.s[start..self.i]).into_owned()
    }

    fn number(&mut self) -> Result<&str, String> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())
    }

    fn u64(&mut self) -> Result<u64, String> {
        let n = self.number()?.to_owned();
        n.parse().map_err(|e| format!("bad integer '{n}': {e}"))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let n = self.number()?.to_owned();
        let v: f64 = n.parse().map_err(|e| format!("bad float '{n}': {e}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite float '{n}'"));
        }
        Ok(v)
    }

    fn pair_list(&mut self) -> Result<Vec<(f64, f64)>, String> {
        self.tok(b'[')?;
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.i < self.s.len() && self.s[self.i] == b']' {
                self.i += 1;
                return Ok(out);
            }
            self.tok(b'(')?;
            let a = self.f64()?;
            self.tok(b',')?;
            let b = self.f64()?;
            self.tok(b')')?;
            out.push((a, b));
            self.ws();
            if self.i < self.s.len() && self.s[self.i] == b',' {
                self.i += 1;
            }
        }
    }

    fn fault_list(&mut self, n_servers: usize) -> Result<Vec<FaultSpec>, String> {
        self.tok(b'[')?;
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.i < self.s.len() && self.s[self.i] == b']' {
                self.i += 1;
                return Ok(out);
            }
            let kind = self.ident();
            self.tok(b'(')?;
            let server = self.u64()? as usize;
            if server >= n_servers {
                return Err(format!(
                    "fault server index {server} out of range (servers: {n_servers})"
                ));
            }
            self.tok(b',')?;
            let from_ms = self.f64()?;
            self.tok(b',')?;
            let until_ms = self.f64()?;
            let fault = match kind.as_str() {
                "crash" => FaultSpec::Crash {
                    server,
                    from_ms,
                    until_ms,
                },
                "flaky" => {
                    self.tok(b',')?;
                    let rate = self.f64()?;
                    FaultSpec::Flaky {
                        server,
                        from_ms,
                        until_ms,
                        rate,
                    }
                }
                "surge" => {
                    self.tok(b',')?;
                    let level = self.f64()?;
                    FaultSpec::Surge {
                        server,
                        from_ms,
                        until_ms,
                        level,
                    }
                }
                "spike" => {
                    self.tok(b',')?;
                    let level = self.f64()?;
                    FaultSpec::Spike {
                        server,
                        from_ms,
                        until_ms,
                        level,
                    }
                }
                "ramp" => {
                    self.tok(b',')?;
                    let level = self.f64()?;
                    FaultSpec::Ramp {
                        server,
                        from_ms,
                        until_ms,
                        level,
                    }
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            self.tok(b')')?;
            out.push(fault);
            self.ws();
            if self.i < self.s.len() && self.s[self.i] == b',' {
                self.i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips_generated_configs() {
        for seed in 0..64u64 {
            let c = generate(seed);
            let line = c.render();
            let back = parse(&line).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{line}"));
            assert_eq!(back, c, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a, b);
        assert!((2..=4).contains(&a.servers.len()));
        assert!(a.faults.len() <= 4);
        for f in &a.faults {
            assert!(f.server() < a.servers.len());
            assert!(f.until_ms() > 0.0);
        }
    }

    #[test]
    fn scale_render_parse_round_trips() {
        for seed in 0..32u64 {
            let c = generate_scale(seed);
            assert!(c.servers.is_empty(), "seed {seed}");
            assert!((100..260).contains(&c.fleet), "seed {seed}");
            assert_eq!(c.replication, 3, "seed {seed}");
            for f in &c.faults {
                assert!(f.server() < c.fleet, "seed {seed}");
            }
            let line = c.render();
            assert!(line.contains("fleet:"), "seed {seed}: {line}");
            let back = parse(&line).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{line}"));
            assert_eq!(back, c, "seed {seed}");
        }
    }

    #[test]
    fn parse_validates_fleet_mode() {
        // Fault indices range over the fleet, not the (empty) servers list.
        let ok = parse(
            "sim(seed: 1, servers: [], large_rows: 60, small_rows: 12, arrivals: 4, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 50, replication: 3, \
             faults: [crash(49, 1.0, 2.0)])",
        )
        .unwrap();
        assert_eq!(ok.fleet, 50);
        assert_eq!(ok.replication, 3);
        // Fault index at or past the fleet size is rejected.
        assert!(parse(
            "sim(seed: 1, servers: [], large_rows: 60, small_rows: 12, arrivals: 4, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 50, replication: 3, \
             faults: [crash(50, 1.0, 2.0)])"
        )
        .is_err());
        // Explicit servers and a generated fleet are mutually exclusive.
        assert!(parse(
            "sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 60, small_rows: 12, arrivals: 4, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 50, replication: 3, faults: [])"
        )
        .is_err());
        // A zero fleet must simply be omitted.
        assert!(parse(
            "sim(seed: 1, servers: [], large_rows: 60, small_rows: 12, arrivals: 4, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 0, replication: 3, faults: [])"
        )
        .is_err());
    }

    #[test]
    fn reroute_knob_round_trips_and_defaults_off() {
        // Legacy lines (no reroute key) parse to the default 0.0 and
        // render back without it.
        let legacy = "sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 10, small_rows: 5, \
             arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, faults: [])";
        let c = parse(legacy).unwrap();
        assert_eq!(c.reroute, 0.0);
        assert!(!c.render().contains("reroute"));
        // An enabled knob round-trips, in classic and fleet mode alike.
        let on = parse(
            "sim(seed: 1, servers: [], large_rows: 60, small_rows: 12, arrivals: 4, \
             rate_per_ms: 0.1, retry_limit: 2, fleet: 50, replication: 3, reroute: 3.5, \
             faults: [crash(7, 1.0, 2.0)])",
        )
        .unwrap();
        assert_eq!(on.reroute, 3.5);
        assert_eq!(parse(&on.render()).unwrap(), on);
        // A non-positive knob must simply be omitted.
        assert!(parse(
            "sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 10, small_rows: 5, \
             arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, reroute: 0.0, faults: [])"
        )
        .is_err());
        // Generation covers both sides of the coin flip.
        assert!((0..32).any(|s| generate(s).reroute > 0.0));
        assert!((0..32).any(|s| generate(s).reroute == 0.0));
    }

    #[test]
    fn exec_deadline_round_trips_and_defaults_loose() {
        // Lines without the key parse to the loose default and render
        // back without it.
        let legacy = "sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 10, small_rows: 5, \
             arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, faults: [])";
        let c = parse(legacy).unwrap();
        assert_eq!(c.exec_deadline_ms, LOOSE_EXEC_DEADLINE_MS);
        assert_eq!(c.render(), legacy);
        // A tight deadline round-trips, after `reroute`.
        let tight = parse(
            "sim(seed: 1, servers: [(1.0, 0.1), (2.0, 0.2)], large_rows: 10, small_rows: 5, \
             arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, reroute: 3.5, \
             exec_deadline_ms: 4.0, faults: [crash(1, 1.0, 2.0)])",
        )
        .unwrap();
        assert_eq!(tight.exec_deadline_ms, TIGHT_EXEC_DEADLINE_MS);
        assert!(tight.render().contains("exec_deadline_ms: 4.0, faults"));
        assert_eq!(parse(&tight.render()).unwrap(), tight);
        // A malformed, non-positive or default value is rejected.
        for bad in ["4.0.1", "x", "0.0", "-4.0", "800.0"] {
            let line = legacy.replace("faults", &format!("exec_deadline_ms: {bad}, faults"));
            assert!(parse(&line).is_err(), "{line}");
        }
        // Generation covers both sides of the coin flip.
        assert!((0..32).any(|s| generate(s).exec_deadline_ms == TIGHT_EXEC_DEADLINE_MS));
        assert!((0..32).any(|s| generate(s).exec_deadline_ms == LOOSE_EXEC_DEADLINE_MS));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("sim(seed: x)").is_err());
        assert!(parse("sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 10, small_rows: 5, arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, faults: [boom(0, 1.0, 2.0)])").is_err());
        // Fault referencing a server that does not exist.
        assert!(parse("sim(seed: 1, servers: [(1.0, 0.1)], large_rows: 10, small_rows: 5, arrivals: 2, rate_per_ms: 0.1, retry_limit: 1, faults: [crash(3, 1.0, 2.0)])").is_err());
        // Trailing garbage.
        assert!(parse(&format!("{} tail", generate(1).render())).is_err());
    }

    #[test]
    fn parse_accepts_hand_written_whitespace() {
        let line = "sim( seed: 7, servers: [ (1.0, 0.2) , (2.0, 0.1) ], large_rows: 100, small_rows: 20, arrivals: 5, rate_per_ms: 0.1, retry_limit: 2, faults: [ crash(1, 10.0, 20.0) ] )";
        let c = parse(line).unwrap();
        assert_eq!(c.servers.len(), 2);
        assert_eq!(c.faults.len(), 1);
    }
}
