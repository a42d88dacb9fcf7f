//! Randomized tests for the simulation models: levels stay in range, time
//! never makes things negative, and slowdown curves are monotone.
//!
//! Driven by the workspace's deterministic `Pcg32` so the suite runs
//! offline and failures reproduce from the fixed seeds.

use qcc_common::{Pcg32, SimTime};
use qcc_netsim::{slowdown, Link, LoadProfile};

fn random_profile(rng: &mut Pcg32) -> LoadProfile {
    match rng.range_u64(0, 2) {
        0 => LoadProfile::Constant(rng.range_f64(-1.0, 2.0)),
        _ => {
            let n = rng.range_u64(0, 6) as usize;
            let mut steps: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.range_f64(0.0, 10_000.0), rng.range_f64(-0.5, 1.5)))
                .collect();
            steps.sort_by(|a, b| a.0.total_cmp(&b.0));
            LoadProfile::Steps(
                steps
                    .into_iter()
                    .map(|(t, l)| (SimTime::from_millis(t), l))
                    .collect(),
            )
        }
    }
}

#[test]
fn levels_always_in_unit_interval() {
    let mut rng = Pcg32::seed_from(201);
    for case in 0..256 {
        let profile = random_profile(&mut rng);
        let t = rng.range_f64(0.0, 1e7);
        let level = profile.level(SimTime::from_millis(t));
        assert!(
            (0.0..=1.0).contains(&level),
            "case {case}: level {level} at t={t}"
        );
    }
}

#[test]
fn profiles_are_deterministic() {
    let mut rng = Pcg32::seed_from(202);
    for _ in 0..256 {
        let profile = random_profile(&mut rng);
        let at = SimTime::from_millis(rng.range_f64(0.0, 1e6));
        assert_eq!(profile.level(at), profile.level(at));
    }
}

#[test]
fn slowdown_monotone_and_at_least_one() {
    let mut rng = Pcg32::seed_from(203);
    for _ in 0..256 {
        let rho_a = rng.range_f64(0.0, 1.5);
        let rho_b = rng.range_f64(0.0, 1.5);
        let sensitivity = rng.range_f64(0.0, 10.0);
        let (lo, hi) = if rho_a <= rho_b {
            (rho_a, rho_b)
        } else {
            (rho_b, rho_a)
        };
        let s_lo = slowdown(lo, sensitivity);
        let s_hi = slowdown(hi, sensitivity);
        assert!(s_lo >= 1.0);
        assert!(s_hi >= s_lo, "slowdown must be monotone in load");
        assert!(s_hi.is_finite());
    }
}

#[test]
fn transfer_time_positive_and_monotone_in_payload() {
    let mut rng = Pcg32::seed_from(204);
    for _ in 0..256 {
        let rtt = rng.range_f64(0.1, 100.0);
        let bw = rng.range_f64(1.0, 1e6);
        let congestion = rng.range_f64(0.0, 1.0);
        let small = rng.range_u64(0, 10_000);
        let extra = rng.range_u64(1, 10_000);
        let link = Link::new(rtt, bw, LoadProfile::Constant(congestion));
        let t_small = link.transfer_time(small, SimTime::ZERO);
        let t_large = link.transfer_time(small + extra, SimTime::ZERO);
        assert!(t_small.as_millis() > 0.0);
        assert!(t_large.as_millis() >= t_small.as_millis());
        assert!(t_large.as_millis().is_finite());
    }
}
