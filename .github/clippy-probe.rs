//! Planted violations for CI's clippy probe: one per domain rule that
//! clippy enforces, next to near-misses that must stay clean.
//!
//! CI copies this file into every package the gates cover as
//! `src/clippy_probe.rs`, declares it as a module of the crate root, runs
//! clippy once, and diffs the findings in it against
//! `.github/clippy-probe.expected`. A finding that appears or disappears
//! means a lint's configuration or scope changed. No function here may be
//! named `*_eq`: `clippy::float_cmp` skips those.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::HashSet as Set;
use std::hash::RandomState;
use std::sync::OnceLock;
use std::time::SystemTime as Wall;
use std::time::{Duration, Instant};

// Exact float compares: clippy::float_cmp.

fn deadline_hit(deadline: f64, now: f64) -> bool {
    deadline == now
}

fn below_full_speed(speed: f64) -> bool {
    speed != 1.0
}

// Panics: clippy::{unwrap_used, expect_used, panic, todo, unimplemented}.

fn take_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn take_expect(x: Option<u32>) -> u32 {
    x.expect("present")
}

fn give_up() {
    panic!("unreachable state");
}

fn later() {
    todo!()
}

fn never() {
    unimplemented!()
}

// Catch-all enum arms: clippy::wildcard_enum_match_arm.

enum Policy {
    Abort,
    Continue,
    Degrade,
}

fn wildcard_arm(p: &Policy) -> u8 {
    match p {
        Policy::Abort => 0,
        _ => 1,
    }
}

fn binding_arm(p: Policy) -> Policy {
    match p {
        Policy::Abort => Policy::Degrade,
        fallback => fallback,
    }
}

// Casts: clippy::as_conversions.

fn count_as_float(n: usize) -> f64 {
    n as f64
}

// Hash iteration order: disallowed hash types.

fn hashed_total(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum()
}

fn hashed_len(s: &Set<u32>) -> usize {
    s.len()
}

// Wall-clock reads: disallowed methods.

fn host_instant() -> Instant {
    Instant::now()
}

fn host_wall() -> Wall {
    Wall::now()
}

// Unseeded randomness: the disallowed random hasher state.

fn entropy() -> RandomState {
    RandomState::new()
}

// Shared state: disallowed lazy globals and thread-locals.

static CACHE: OnceLock<u64> = OnceLock::new();

thread_local! {
    static SCRATCH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// Near-misses: none of these may be reported.

fn same_count(a: u64, b: u64) -> bool {
    a == b
}

fn take_or_zero(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

fn every_arm(p: &Policy) -> u8 {
    match p {
        Policy::Abort => 0,
        Policy::Continue => 1,
        Policy::Degrade => 2,
    }
}

fn lossless(n: u32) -> f64 {
    f64::from(n)
}

fn ordered_total(m: &BTreeMap<u32, f64>) -> f64 {
    m.values().sum()
}

fn one_second() -> Duration {
    Duration::from_secs(1)
}
