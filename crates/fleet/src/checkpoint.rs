//! The versioned, self-describing resume format.
//!
//! Line-oriented JSON (one object per line, hand-rolled like the rest of
//! the repo's JSON surfaces): a
//! header identifying the schema, spec hash and progress, a totals line,
//! one line per grid cell, and one line per governor sketch. Every f64
//! is stored as its IEEE-754 bit pattern in hex, so a loaded aggregate
//! is *bit-identical* to the saved one — the property that makes a
//! resumed sweep indistinguishable from an uninterrupted run.
//!
//! Writes are atomic (temp file + rename), so a checkpoint on disk is
//! always a complete, parseable snapshot even if the process dies
//! mid-save.

use std::fs;
use std::path::Path;

use crate::agg::{CellStats, FleetAggregate, SKETCH_BUCKETS, SKETCH_HI, SKETCH_LO};
use crate::sketch::{NeumaierSum, QuantileSketch, SketchState};
use crate::spec::FleetSpec;
use crate::FleetError;

/// The schema tag of the current checkpoint format.
pub const SCHEMA: &str = "stadvs-fleet-checkpoint-v1";

/// A parsed checkpoint: progress metadata plus the merged aggregate of
/// the completed shard prefix.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// [`FleetSpec::spec_hash`] of the spec that produced this file.
    pub spec_hash: u64,
    /// Master seed of that spec (redundant with the hash; kept for
    /// error messages).
    pub master_seed: u64,
    /// Total nodes of that spec.
    pub nodes: u64,
    /// Shard size the run was cut with (resume must reuse it: shard
    /// boundaries define the merged prefix).
    pub shard_size: u64,
    /// Shards merged into [`Checkpoint::aggregate`].
    pub shards_done: usize,
    /// The merged aggregate over shards `0..shards_done`.
    pub aggregate: FleetAggregate,
}

fn bad(msg: String) -> FleetError {
    FleetError::Checkpoint(msg)
}

/// The raw text after `"key":` in `line`.
fn raw_value<'a>(line: &'a str, key: &str) -> Result<&'a str, FleetError> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?;
    Ok(line[at + pat.len()..].trim_start())
}

fn field_u64(line: &str, key: &str) -> Result<u64, FleetError> {
    let rest = raw_value(line, key)?;
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .map_err(|_| bad(format!("field {key:?} is not an integer")))
}

/// A count or index field, refused when it does not fit a `usize`.
fn field_usize(line: &str, key: &str) -> Result<usize, FleetError> {
    usize::try_from(field_u64(line, key)?).map_err(|_| bad(format!("field {key:?} out of range")))
}

fn field_str(line: &str, key: &str) -> Result<String, FleetError> {
    let rest = raw_value(line, key)?;
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| bad(format!("field {key:?} is not a string")))?;
    let end = rest
        .find('"')
        .ok_or_else(|| bad(format!("field {key:?} is unterminated")))?;
    Ok(rest[..end].to_string())
}

fn hex_bits(text: &str, key: &str) -> Result<f64, FleetError> {
    u64::from_str_radix(text, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("field {key:?} is not an f64 bit pattern")))
}

fn field_bits(line: &str, key: &str) -> Result<f64, FleetError> {
    hex_bits(&field_str(line, key)?, key)
}

/// The text between `[` and `]` after `"key":` (no nested brackets in
/// this format).
fn bracket<'a>(line: &'a str, key: &str) -> Result<&'a str, FleetError> {
    let rest = raw_value(line, key)?;
    let rest = rest
        .strip_prefix('[')
        .ok_or_else(|| bad(format!("field {key:?} is not an array")))?;
    let end = rest
        .find(']')
        .ok_or_else(|| bad(format!("field {key:?} is unterminated")))?;
    Ok(&rest[..end])
}

/// A `["<sum bits>", "<compensation bits>"]` pair.
fn field_pair(line: &str, key: &str) -> Result<NeumaierSum, FleetError> {
    let inner = bracket(line, key)?;
    let mut parts = inner.split(',').map(|t| t.trim().trim_matches('"'));
    let sum = hex_bits(
        parts
            .next()
            .ok_or_else(|| bad(format!("field {key:?} pair is short")))?,
        key,
    )?;
    let compensation = hex_bits(
        parts
            .next()
            .ok_or_else(|| bad(format!("field {key:?} pair is short")))?,
        key,
    )?;
    if parts.next().is_some() {
        return Err(bad(format!("field {key:?} pair has extra entries")));
    }
    Ok(NeumaierSum { sum, compensation })
}

fn field_u64_array(line: &str, key: &str) -> Result<Vec<u64>, FleetError> {
    let inner = bracket(line, key)?;
    if inner.trim().is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| bad(format!("field {key:?} has a non-integer entry")))
        })
        .collect()
}

/// The sum of a checkpoint's cell `what`, refused when it passes
/// `u64::MAX`.
fn checked_sum(mut values: impl Iterator<Item = u64>, what: &str) -> Result<u64, FleetError> {
    values
        .try_fold(0u64, u64::checked_add)
        .ok_or_else(|| bad(format!("cell {what} overflow u64")))
}

fn pair_json(s: &NeumaierSum) -> String {
    format!(
        "[\"{:016x}\", \"{:016x}\"]",
        s.sum.to_bits(),
        s.compensation.to_bits()
    )
}

impl Checkpoint {
    /// Renders a checkpoint snapshot as its canonical text. Also the
    /// bit-exact comparison form used by the determinism tests: two
    /// runs agree iff their rendered checkpoints are equal strings.
    pub fn render(
        spec: &FleetSpec,
        shard_size: u64,
        shards_done: usize,
        agg: &FleetAggregate,
    ) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"spec_hash\": \"{:016x}\", \"master_seed\": {}, \
             \"nodes\": {}, \"shard_size\": {}, \"shards_done\": {}, \"cells\": {}, \
             \"governors\": {}}}\n",
            spec.spec_hash(),
            spec.master_seed,
            spec.nodes(),
            shard_size,
            shards_done,
            agg.cells.len(),
            agg.sketches.len(),
        ));
        out.push_str(&format!(
            "{{\"totals\": {{\"done\": {}, \"infeasible\": {}, \"misses\": {}, \"events\": {}, \
             \"jobs\": {}, \"sims\": {}}}}}\n",
            agg.nodes, agg.infeasible, agg.misses, agg.events, agg.jobs, agg.sims,
        ));
        for (i, cell) in agg.cells.iter().enumerate() {
            out.push_str(&format!(
                "{{\"cell\": {i}, \"count\": {}, \"infeasible\": {}, \"misses\": {}, \
                 \"norm\": {}, \"spj\": {}}}\n",
                cell.count,
                cell.infeasible,
                cell.misses,
                pair_json(&cell.norm_sum),
                pair_json(&cell.spj_sum),
            ));
        }
        for (i, sketch) in agg.sketches.iter().enumerate() {
            let s = sketch.state();
            let buckets: Vec<String> = s.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "{{\"sketch\": {i}, \"governor\": \"{}\", \"lo\": \"{:016x}\", \
                 \"hi\": \"{:016x}\", \"underflow\": {}, \"overflow\": {}, \
                 \"min\": \"{:016x}\", \"max\": \"{:016x}\", \"sum\": {}, \"buckets\": [{}]}}\n",
                spec.governors.get(i).map(String::as_str).unwrap_or("?"),
                s.lo.to_bits(),
                s.hi.to_bits(),
                s.underflow,
                s.overflow,
                s.min.to_bits(),
                s.max.to_bits(),
                pair_json(&s.sum),
                buckets.join(", "),
            ));
        }
        out
    }

    /// Atomically writes a checkpoint snapshot to `path` (temp file in
    /// the same directory, then rename).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the write or rename fails.
    pub fn save(
        path: &Path,
        spec: &FleetSpec,
        shard_size: u64,
        shards_done: usize,
        agg: &FleetAggregate,
    ) -> Result<(), FleetError> {
        let text = Checkpoint::render(spec, shard_size, shards_done, agg);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Parses the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the file cannot be read and
    /// [`FleetError::Checkpoint`] if it is malformed.
    pub fn load(path: &Path) -> Result<Checkpoint, FleetError> {
        Checkpoint::parse(&fs::read_to_string(path)?)
    }

    /// Parses checkpoint text (see [`Checkpoint::render`]).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] describing the first problem.
    pub fn parse(text: &str) -> Result<Checkpoint, FleetError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty file".to_string()))?;
        let schema = field_str(header, "schema")?;
        if schema != SCHEMA {
            return Err(bad(format!("schema {schema:?}, expected {SCHEMA:?}")));
        }
        let spec_hash = u64::from_str_radix(&field_str(header, "spec_hash")?, 16)
            .map_err(|_| bad("spec_hash is not a hex hash".to_string()))?;
        let master_seed = field_u64(header, "master_seed")?;
        let nodes = field_u64(header, "nodes")?;
        let shard_size = field_u64(header, "shard_size")?;
        let shards_done = field_usize(header, "shards_done")?;
        // The header's counts are untrusted: the vectors grow as lines
        // parse, so a count the file does not back fails on a missing
        // line instead of reserving memory up front.
        let n_cells = field_usize(header, "cells")?;
        let n_sketches = field_usize(header, "governors")?;

        let totals = lines
            .next()
            .ok_or_else(|| bad("missing totals line".to_string()))?;
        if raw_value(totals, "totals").is_err() {
            return Err(bad("second line is not the totals line".to_string()));
        }

        let mut cells = Vec::new();
        for i in 0..n_cells {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing cell line {i}")))?;
            let idx = field_usize(line, "cell")?;
            if idx != i {
                return Err(bad(format!("cell line {i} carries index {idx}")));
            }
            cells.push(CellStats {
                count: field_u64(line, "count")?,
                infeasible: field_u64(line, "infeasible")?,
                misses: field_u64(line, "misses")?,
                norm_sum: field_pair(line, "norm")?,
                spj_sum: field_pair(line, "spj")?,
            });
        }

        let mut sketches = Vec::new();
        for i in 0..n_sketches {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing sketch line {i}")))?;
            let idx = field_usize(line, "sketch")?;
            if idx != i {
                return Err(bad(format!("sketch line {i} carries index {idx}")));
            }
            let state = SketchState {
                lo: field_bits(line, "lo")?,
                hi: field_bits(line, "hi")?,
                buckets: field_u64_array(line, "buckets")?,
                underflow: field_u64(line, "underflow")?,
                overflow: field_u64(line, "overflow")?,
                min: field_bits(line, "min")?,
                max: field_bits(line, "max")?,
                sum: field_pair(line, "sum")?,
            };
            sketches.push(QuantileSketch::from_state(state).map_err(bad)?);
        }
        if lines.next().is_some() {
            return Err(bad("trailing lines after the sketch block".to_string()));
        }

        let aggregate = FleetAggregate {
            cells,
            sketches,
            nodes: field_u64(totals, "done")?,
            infeasible: field_u64(totals, "infeasible")?,
            misses: field_u64(totals, "misses")?,
            events: field_u64(totals, "events")?,
            jobs: field_u64(totals, "jobs")?,
            sims: field_u64(totals, "sims")?,
        };
        Ok(Checkpoint {
            spec_hash,
            master_seed,
            nodes,
            shard_size,
            shards_done,
            aggregate,
        })
    }

    /// Checks that this checkpoint belongs to `spec` swept with
    /// `shard_size`, including internal consistency of the progress
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] naming the mismatch.
    pub fn validate_against(&self, spec: &FleetSpec, shard_size: u64) -> Result<(), FleetError> {
        if self.spec_hash != spec.spec_hash() {
            return Err(bad(format!(
                "spec hash {:016x} does not match the requested sweep ({:016x})",
                self.spec_hash,
                spec.spec_hash()
            )));
        }
        if self.master_seed != spec.master_seed {
            return Err(bad("master seed mismatch".to_string()));
        }
        if self.nodes != spec.nodes() {
            return Err(bad(format!(
                "checkpoint covers {} nodes, spec has {}",
                self.nodes,
                spec.nodes()
            )));
        }
        if self.shard_size != shard_size {
            return Err(bad(format!(
                "checkpoint used shard_size {}, run requested {shard_size} \
                 (shard boundaries define the merged prefix)",
                self.shard_size
            )));
        }
        let sketch_shape = |sketch: &QuantileSketch| {
            let state = sketch.state();
            state.lo.to_bits() == SKETCH_LO.to_bits()
                && state.hi.to_bits() == SKETCH_HI.to_bits()
                && state.buckets.len() == SKETCH_BUCKETS
        };
        if self.aggregate.cells.len() != spec.cell_count()
            || self.aggregate.sketches.len() != spec.governors.len()
            || !self.aggregate.sketches.iter().all(sketch_shape)
        {
            return Err(bad("aggregate shape does not match the spec".to_string()));
        }
        let total_shards = self.nodes.div_ceil(shard_size.max(1));
        if self.shards_done as u64 > total_shards {
            return Err(bad(format!(
                "shards_done {} exceeds the fleet's {total_shards} shards",
                self.shards_done
            )));
        }
        let expected_nodes = (self.shards_done as u64 * shard_size).min(self.nodes);
        if self.aggregate.nodes != expected_nodes {
            return Err(bad(format!(
                "aggregate covers {} nodes but {} shards of {} imply {expected_nodes}",
                self.aggregate.nodes, self.shards_done, self.shard_size
            )));
        }
        self.validate_totals(spec)
    }

    /// Cross-checks the aggregate against itself, so every counter a
    /// resumed sweep adds to is bounded by the node count: the cells'
    /// counts and infeasible counts add up to `nodes`, their infeasible
    /// counts and misses to the totals, each governor's sketch holds one
    /// value per feasible node of its cells, and `sims` lies between one
    /// and two per feasible node. Events and jobs have no such bound;
    /// [`FleetAggregate::merge`] refuses to wrap them.
    fn validate_totals(&self, spec: &FleetSpec) -> Result<(), FleetError> {
        let agg = &self.aggregate;
        let feasible = checked_sum(agg.cells.iter().map(|c| c.count), "counts")?;
        let infeasible = checked_sum(agg.cells.iter().map(|c| c.infeasible), "infeasible counts")?;
        let misses = checked_sum(agg.cells.iter().map(|c| c.misses), "misses")?;
        if feasible.checked_add(infeasible) != Some(agg.nodes) {
            return Err(bad(format!(
                "cells hold {feasible} feasible and {infeasible} infeasible nodes, \
                 totals claim {}",
                agg.nodes
            )));
        }
        if infeasible != agg.infeasible || misses != agg.misses {
            return Err(bad(format!(
                "cells hold {infeasible} infeasible nodes and {misses} misses, \
                 totals claim {} and {}",
                agg.infeasible, agg.misses
            )));
        }
        for (g, sketch) in agg.sketches.iter().enumerate() {
            let counts = agg
                .cells
                .iter()
                .enumerate()
                .filter(|&(cell, _)| spec.cell_axes(cell).2 == g)
                .map(|(_, c)| c.count);
            let count = checked_sum(counts, "counts")?;
            if sketch.count() != count {
                return Err(bad(format!(
                    "governor {g}'s sketch holds {} values, its cells {count} nodes",
                    sketch.count()
                )));
            }
        }
        if agg.sims < feasible || agg.sims - feasible > feasible {
            return Err(bad(format!(
                "{} simulations for {feasible} feasible nodes (one or two each)",
                agg.sims
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::NodeOutcome;
    use crate::spec::FleetSpec;

    fn sample() -> (FleetSpec, FleetAggregate) {
        let spec = FleetSpec::tiny(42);
        let mut agg = FleetAggregate::new(&spec);
        for i in 0..16u64 {
            agg.record(&NodeOutcome {
                cell: (i as usize) % spec.cell_count(),
                governor: (i as usize) % spec.governors.len(),
                normalized: 0.5 + (i % 5) as f64 * 0.07,
                switches_per_job: (i % 3) as f64,
                misses: 0,
                events: 250,
                jobs: 12,
                sims: 2,
            });
        }
        (spec, agg)
    }

    #[test]
    fn render_parse_round_trips_bit_exactly() {
        let (spec, agg) = sample();
        let text = Checkpoint::render(&spec, 8, 2, &agg);
        let cp = Checkpoint::parse(&text).expect("round trip parses");
        assert_eq!(cp.spec_hash, spec.spec_hash());
        assert_eq!(cp.shards_done, 2);
        assert_eq!(cp.aggregate, agg);
        // Re-rendering the parsed state reproduces the exact text.
        assert_eq!(Checkpoint::render(&spec, 8, 2, &cp.aggregate), text);
    }

    #[test]
    fn validates_matching_spec_and_rejects_mismatches() {
        let (spec, agg) = sample();
        let cp = Checkpoint::parse(&Checkpoint::render(&spec, 8, 2, &agg)).expect("parses");
        cp.validate_against(&spec, 8).expect("matches");
        assert!(cp.validate_against(&spec, 16).is_err(), "shard size");
        assert!(
            cp.validate_against(&FleetSpec::tiny(43), 8).is_err(),
            "hash"
        );
    }

    #[test]
    fn progress_counters_must_be_consistent() {
        let (spec, agg) = sample();
        // 2 shards × 8 nodes = 16 recorded nodes: consistent. 3 shards
        // would imply 24.
        let cp = Checkpoint::parse(&Checkpoint::render(&spec, 8, 3, &agg)).expect("parses");
        assert!(cp.validate_against(&spec, 8).is_err());
    }

    #[test]
    fn totals_must_agree_with_the_cells_and_sketches() {
        let (spec, agg) = sample();
        let text = Checkpoint::render(&spec, 8, 2, &agg);
        // 16 feasible nodes, four per governor, no misses, two
        // simulations each. The first `count` and `underflow` fields are
        // cell 0's and governor 0's.
        for (key, value) in [
            ("infeasible", "1"),
            ("misses", "3"),
            ("sims", "15"),
            ("sims", "33"),
            ("count", "2"),
            ("underflow", "1"),
        ] {
            let cp = Checkpoint::parse(&with_field(&text, key, value)).expect("parses");
            assert!(cp.validate_against(&spec, 8).is_err(), "{key} = {value}");
        }
        // A cell sum that wraps past u64::MAX is refused, not summed.
        let wrapped = with_field(&text, "count", "18446744073709551615");
        let cp = Checkpoint::parse(&wrapped).expect("parses");
        assert!(cp.validate_against(&spec, 8).is_err());
    }

    #[test]
    fn malformed_text_is_rejected() {
        let (spec, agg) = sample();
        let text = Checkpoint::render(&spec, 8, 2, &agg);
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("{\"schema\": \"bogus\"}").is_err());
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::parse(&truncated).is_err());
        let tampered = text.replace("\"cell\": 1,", "\"cell\": 9,");
        assert!(Checkpoint::parse(&tampered).is_err());
    }

    /// `text` with the integer after the first `"key": ` replaced by
    /// `value`.
    fn with_field(text: &str, key: &str, value: &str) -> String {
        let pat = format!("\"{key}\": ");
        let start = text.find(&pat).expect("field present") + pat.len();
        let len = text[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("field ends");
        format!("{}{value}{}", &text[..start], &text[start + len..])
    }

    #[test]
    fn oversized_counts_are_refused() {
        let (spec, agg) = sample();
        let text = Checkpoint::render(&spec, 8, 2, &agg);
        // Header counts no allocation could back.
        let cells = with_field(&text, "cells", "18446744073709551615");
        assert!(Checkpoint::parse(&cells).is_err());
        let governors = with_field(&text, "governors", "4611686018427387904");
        assert!(Checkpoint::parse(&governors).is_err());
        // Sketch counters whose total wraps past u64::MAX.
        let wrapped = with_field(
            &with_field(&text, "underflow", "18446744073709551615"),
            "overflow",
            "1",
        );
        assert!(Checkpoint::parse(&wrapped).is_err());
    }

    /// A corrupt checkpoint is refused or parsed, never a panic. Each case
    /// applies one corruption to the rendered sample: a truncation at a
    /// random char boundary, one digit replaced by another digit or by
    /// `u64::MAX`, or one byte replaced by another printable ASCII byte.
    /// The runner reports a panic inside `parse` with its case seed.
    #[test]
    fn corrupt_checkpoints_never_panic() {
        let (spec, agg) = sample();
        let text = Checkpoint::render(&spec, 8, 2, &agg);
        assert!(text.is_ascii(), "byte edits below keep the text UTF-8");
        let digits: Vec<usize> = text
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let len = text.len() as u64;
        stadvs_sim::rng::check("corrupt_checkpoints_never_panic", 256, |rng| {
            let corrupted = match rng.below(3) {
                0 => text[..rng.below(len + 1) as usize].to_string(),
                1 => {
                    let at = digits[rng.below(digits.len() as u64) as usize];
                    let with = if rng.below(2) == 0 {
                        let old = u64::from(text.as_bytes()[at] - b'0');
                        ((old + 1 + rng.below(9)) % 10).to_string()
                    } else {
                        u64::MAX.to_string()
                    };
                    format!("{}{with}{}", &text[..at], &text[at + 1..])
                }
                _ => {
                    let mut bytes = text.clone().into_bytes();
                    let at = rng.below(len) as usize;
                    // Another of the 95 printable ASCII bytes.
                    let mut byte = b' ' + rng.below(95) as u8;
                    if byte == bytes[at] {
                        byte = if byte == b'~' { b' ' } else { byte + 1 };
                    }
                    bytes[at] = byte;
                    String::from_utf8(bytes).map_err(|e| e.to_string())?
                }
            };
            let _ = Checkpoint::parse(&corrupted);
            Ok(())
        });
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let (spec, agg) = sample();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("stadvs-fleet-cp-{}.json", std::process::id()));
        Checkpoint::save(&path, &spec, 8, 2, &agg).expect("saves");
        let cp = Checkpoint::load(&path).expect("loads");
        assert_eq!(cp.aggregate, agg);
        let _ = std::fs::remove_file(&path);
    }
}
