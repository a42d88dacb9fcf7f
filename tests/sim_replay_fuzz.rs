//! Seeded mutation fuzz of the sim replay grammar, the text a failing run
//! is reported as, the corpus stores and `--replay` reads back: the parser
//! never panics, it rejects with an `Err(String)`, and what it accepts
//! renders to a line that parses back to the same config.

#[allow(dead_code)]
#[path = "support/mutate.rs"]
mod mutate;

use load_aware_federation::sim::config::generate_scale;
use load_aware_federation::sim::{corpus, generate, parse};
use qcc_common::Pcg32;
use std::path::Path;

#[test]
fn mutated_replay_lines_never_panic_and_accepted_ones_round_trip() {
    let mut seeds: Vec<String> = (0..64).map(|seed| generate(seed).render()).collect();
    seeds.extend((0..16).map(|seed| generate_scale(seed).render()));
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(corpus::DEFAULT_DIR);
    let entries = corpus::load(&dir).expect("corpus must load");
    seeds.extend(entries.iter().map(|(_, config)| config.render()));

    let mut rng = Pcg32::seed_from(0x5e_ed_11);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..24_000 {
        let line = mutate::mutant(&mut rng, &seeds);
        let parsed = std::panic::catch_unwind(|| parse(&line))
            .unwrap_or_else(|_| panic!("parse panicked on `{line}`"));
        match parsed {
            Ok(config) => {
                let rendered = config.render();
                assert_eq!(
                    parse(&rendered),
                    Ok(config),
                    "`{line}` renders as `{rendered}`"
                );
                accepted += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    // The grammar is strict (fixed key order, one form per value), so most
    // mutants are rejected; ≈ 2.5 % still parse and take the round trip.
    assert!(
        accepted > 400 && rejected > 1_000,
        "{accepted} / {rejected}"
    );
}
