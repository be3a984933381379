//! Workspace automation for stadvs: the domain lints.
//!
//! `cargo xtask lint` enforces the two invariants no compiler lint can
//! express (see [`rules::RULES`]): every governor documents its deadline
//! safety argument, and the simulator's per-event loops allocate nothing.
//! The type-aware gates (exact float compares, panic-free guarantee
//! crates, cast-free claims arithmetic, exhaustive enum matches and the
//! determinism bans) are clippy lints configured in the crate roots and
//! the workspace `clippy.toml` (DESIGN.md §8). The implementation is
//! dependency-free on purpose — a hand-rolled lexer ([`lexer`]) rather
//! than a parser crate — so the gate itself adds nothing to the
//! workspace's supply-chain trust base.
//!
//! Findings can be rendered as text, JSON, or SARIF 2.1.0 ([`report`]).

pub mod lexer;
pub mod lint;
pub mod report;
pub mod rules;
