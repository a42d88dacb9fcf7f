//! The FNV-1a digest that pins an execution (test support:
//! `#[path]`-included by `qcc-engine`'s unit tests, `engine_vs_naive_prop`
//! and the `columnar_speedup` bench, so it may only name `qcc_common`).

use qcc_common::{Row, Value};

/// The FNV-1a offset basis: the digest of nothing.
pub const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// `h` continued over one execution: the plan's signature, its `Work`
/// (`cpu_units` by its bits, `rows_scanned`, `rows_output`,
/// `result_bytes`) and its rows in order, each cell by its type and value
/// (a float by its bits).
pub fn run_digest(mut h: u64, signature: &str, work: [u64; 4], rows: &[Row]) -> u64 {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(signature.as_bytes());
    work.iter().for_each(|w| eat(&w.to_le_bytes()));
    for row in rows {
        eat(&(row.values().len() as u64).to_le_bytes());
        for v in row.values() {
            match v {
                Value::Null => eat(&[0]),
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
            }
        }
    }
    h
}
