//! The CLI subcommands, each with its usage and the options it declares.

use std::error::Error;

use stadvs_analysis::{
    edf_schedulable, minimum_static_speed, response_profile, SchedulabilityTest,
};
use stadvs_experiments::experiments::{all, by_id, RunOptions};
use stadvs_experiments::{
    governor_entry, make_governor, Comparison, Table, WorkloadCase, ORACLE, STANDARD_LINEUP,
    YDS_BOUND,
};
use stadvs_fleet::{fleet_table, run_fleet, FleetConfig, FleetSpec};
use stadvs_power::Processor;
use stadvs_sim::{audit_outcome, FaultPlan, SimConfig, Simulator, Task, TaskSet};
use stadvs_workload::{reference, DemandPattern, ExecutionModel, TaskSetSpec};

use crate::args::{ArgError, Args};
use crate::artifacts::write_table;

type CmdResult = Result<(), Box<dyn Error>>;

/// One subcommand: its usage text, the options it declares, and its body.
pub struct Command {
    /// The name after `stadvs`.
    pub name: &'static str,
    /// The usage text, continuation lines indented to follow a two-space
    /// margin.
    pub usage: &'static str,
    /// Options that take a value, named without their leading `--`.
    options: &'static [&'static str],
    /// Bare flags, named without their leading `--`.
    flags: &'static [&'static str],
    /// Whether positional arguments are taken.
    positional: bool,
    body: fn(&Args) -> CmdResult,
}

impl Command {
    /// Parses `raw` (the arguments after the name) and runs the command.
    ///
    /// # Errors
    ///
    /// Returns an undeclared option, an unexpected positional argument, or
    /// the command's own error.
    pub fn run(&self, raw: &[String]) -> CmdResult {
        let args = Args::parse(raw, self.options, self.flags)?;
        match args.positional().first() {
            Some(extra) if !self.positional => {
                Err(ArgError(format!("unexpected argument `{extra}`")).into())
            }
            _ => (self.body)(&args),
        }
    }
}

/// Every subcommand, in usage order.
pub const COMMANDS: [Command; 6] = [
    Command {
        name: "experiments",
        usage: "stadvs experiments [list | all | <id>...] [--quick] [--out DIR]",
        options: &["out"],
        flags: &["quick"],
        positional: true,
        body: experiments,
    },
    Command {
        name: "compare",
        usage: "stadvs compare  [--tasks N] [--util U] [--bcet R] [--seeds K]
                  [--horizon S] [--processor P] [--governors a,b,c]
                  [--refset cnc|ins|avionics] [--bounds]",
        options: &[
            "tasks",
            "util",
            "bcet",
            "seeds",
            "horizon",
            "processor",
            "governors",
            "refset",
        ],
        flags: &["bounds"],
        positional: false,
        body: compare,
    },
    Command {
        name: "analyze",
        usage: "stadvs analyze  <wcet:period[:deadline]>...",
        options: &[],
        flags: &[],
        positional: true,
        body: analyze,
    },
    Command {
        name: "refsets",
        usage: "stadvs refsets",
        options: &[],
        flags: &[],
        positional: false,
        body: refsets,
    },
    Command {
        name: "trace",
        usage: "stadvs trace    [--governor NAME] [--tasks N | --refset NAME] [--util U]
                  [--bcet R] [--seed K] [--horizon S] [--processor P]
                  [--out FILE] [--chart]",
        options: &[
            "governor",
            "tasks",
            "refset",
            "util",
            "bcet",
            "seed",
            "horizon",
            "processor",
            "out",
        ],
        flags: &["chart"],
        positional: false,
        body: trace,
    },
    Command {
        name: "fleet",
        usage: "stadvs fleet    [--quick] [--nodes N] [--seed K] [--threads T]
                  [--shard-size N] [--out DIR]",
        options: &["nodes", "seed", "threads", "shard-size", "out"],
        flags: &["quick"],
        positional: false,
        body: fleet,
    },
];

/// Resolves `--processor NAME` (`ideal`, `xscale`, `strongarm`, `crusoe`,
/// or `levels:<n>`).
pub fn processor_by_name(name: &str) -> Result<Processor, ArgError> {
    if let Some(n) = name.strip_prefix("levels:") {
        let levels: usize = n
            .parse()
            .map_err(|_| ArgError(format!("invalid level count `{n}`")))?;
        return Processor::uniform_discrete(levels)
            .map_err(|e| ArgError(format!("bad level count: {e}")));
    }
    match name {
        "ideal" => Ok(Processor::ideal_continuous()),
        "xscale" => Ok(Processor::xscale_class()),
        "strongarm" => Ok(Processor::strongarm_class()),
        "crusoe" => Ok(Processor::crusoe_class()),
        other => Err(ArgError(format!(
            "unknown processor `{other}` (ideal, xscale, strongarm, crusoe, levels:<n>)"
        ))),
    }
}

/// Lists the registry, or runs the named experiments and writes their
/// tables to `--out`. `all` runs every registered experiment, then the
/// fleet family at `stadvs fleet`'s defaults. Every id is resolved before
/// any runs, and `list` and `all` stand alone.
fn experiments(args: &Args) -> CmdResult {
    let opts = if args.flag("quick") {
        RunOptions::quick()
    } else {
        RunOptions::standard()
    };
    let out_dir = args.get("out").unwrap_or("results");
    let (chosen, with_fleet) = match args.positional() {
        ids if ids.is_empty() || ids == ["list"] => {
            println!("{:<16} description", "id");
            for e in all() {
                println!("{:<16} {}", e.id, e.title);
            }
            return Ok(());
        }
        ids if ids == ["all"] => (all(), true),
        ids => {
            if let Some(word) = ids.iter().find(|id| *id == "list" || *id == "all") {
                return Err(ArgError(format!("`{word}` must stand alone")).into());
            }
            let resolved = ids
                .iter()
                .map(|id| by_id(id).ok_or_else(|| ArgError(format!("unknown experiment `{id}`"))))
                .collect::<Result<_, _>>()?;
            (resolved, false)
        }
    };
    for experiment in &chosen {
        eprintln!("running {}...", experiment.id);
        let table = (experiment.run)(&opts);
        println!("{table}");
        write_table(&table, out_dir, experiment.id)?;
    }
    if with_fleet {
        let spec = fleet_preset(args.flag("quick"), FLEET_SEED);
        fleet_family(&spec, &FleetConfig::default(), out_dir)?;
    }
    Ok(())
}

/// Runs the governor lineup over `--seeds` seeded workloads and prints
/// each governor's energy normalized to `no-dvs`.
fn compare(args: &Args) -> CmdResult {
    let seeds: u64 = args.opt("seeds", 10)?;
    if seeds == 0 {
        return Err(ArgError("--seeds must be positive".into()).into());
    }
    let bcet: f64 = args.opt("bcet", 0.5)?;
    let horizon: f64 = args.opt("horizon", 4.0)?;
    SimConfig::new(horizon)?;
    let processor = processor_by_name(args.get("processor").unwrap_or("ideal"))?;
    let case = workload(args, bcet, 8)?;

    let mut lineup: Vec<String> = {
        let requested = args.list("governors");
        if requested.is_empty() {
            STANDARD_LINEUP.iter().map(|s| s.to_string()).collect()
        } else {
            requested
        }
    };
    if args.flag("bounds") {
        lineup.push(ORACLE.to_string());
        lineup.push(YDS_BOUND.to_string());
    }
    if let Some(unknown) = lineup
        .iter()
        .find(|name| *name != ORACLE && *name != YDS_BOUND && governor_entry(name).is_none())
    {
        return Err(ArgError(format!("unknown governor `{unknown}`")).into());
    }
    let cases: Vec<WorkloadCase> = (0..seeds).map(case).collect();
    let comparison =
        Comparison::new(processor, horizon).with_governors(lineup.iter().map(String::as_str));
    let aggregated = comparison.run_cases(&cases);

    let mut table = Table::new(
        format!("comparison over {seeds} seeded workloads (BCET/WCET = {bcet})"),
        "governor",
        vec![
            "normalized energy".to_string(),
            "± std".to_string(),
            "switches/job".to_string(),
            "misses".to_string(),
        ],
    );
    for a in &aggregated {
        table.push_row(
            a.name.clone(),
            vec![
                a.mean_normalized,
                a.std_normalized,
                a.switches_per_job,
                a.total_misses as f64,
            ],
        );
    }
    println!("{table}");
    Ok(())
}

/// Prints the schedulability and speed bounds of the given task set.
fn analyze(args: &Args) -> CmdResult {
    let specs = args.positional();
    if specs.is_empty() {
        return Err(ArgError("usage: stadvs analyze <wcet:period[:deadline]>...".into()).into());
    }
    let mut tasks = Vec::new();
    for spec in specs {
        let parts: Vec<&str> = spec.split(':').collect();
        let parse = |s: &str| -> Result<f64, ArgError> {
            s.parse()
                .map_err(|_| ArgError(format!("invalid number `{s}` in `{spec}`")))
        };
        let task = match parts.as_slice() {
            [wcet, period] => Task::new(parse(wcet)?, parse(period)?)?,
            [wcet, period, deadline] => {
                Task::with_deadline(parse(wcet)?, parse(period)?, parse(deadline)?)?
            }
            _ => return Err(ArgError(format!("malformed task spec `{spec}`")).into()),
        };
        tasks.push(task);
    }
    let set = TaskSet::new(tasks)?;
    print_analysis(&set);
    Ok(())
}

fn print_analysis(set: &TaskSet) {
    println!("tasks:               {}", set.len());
    println!("utilization:         {:.4}", set.utilization());
    println!("density:             {:.4}", set.density());
    match set.hyperperiod() {
        Some(h) => println!("hyperperiod:         {h:.6} s"),
        None => println!("hyperperiod:         (periods incommensurable at 1 µs)"),
    }
    match edf_schedulable(set) {
        SchedulabilityTest::Schedulable => println!("EDF schedulable:     yes"),
        SchedulabilityTest::Unschedulable { counterexample } => {
            println!("EDF schedulable:     NO (dbf violation at t = {counterexample:.6})")
        }
    }
    let s = minimum_static_speed(set);
    println!(
        "min static speed:    {s:.4}{}",
        if s > 1.0 { "  (infeasible!)" } else { "" }
    );
}

/// Prints the analysis of each reference embedded task set.
fn refsets(_args: &Args) -> CmdResult {
    for (name, set) in reference::all() {
        println!("== {name} ==");
        print_analysis(&set);
        println!();
    }
    Ok(())
}

/// Builds the workload case of one seed.
type CaseBuilder = Box<dyn Fn(u64) -> WorkloadCase>;

/// The workload of `compare` and `trace`: a builder of one case per seed,
/// over the `--refset` task set or a synthetic `--tasks`/`--util` one,
/// with demands uniform in `[bcet, 1]` of the WCET. The values are checked
/// here, by the constructors `WorkloadCase` would otherwise panic in.
fn workload(args: &Args, bcet: f64, default_tasks: usize) -> Result<CaseBuilder, Box<dyn Error>> {
    let pattern = DemandPattern::Uniform {
        min: bcet,
        max: 1.0,
    };
    ExecutionModel::new(pattern.clone())?;
    if let Some(set_name) = args.get("refset") {
        let tasks = refset_by_name(set_name)?;
        return Ok(Box::new(move |seed| {
            WorkloadCase::fixed(tasks.clone(), pattern.clone(), seed)
        }));
    }
    let n_tasks: usize = args.opt("tasks", default_tasks)?;
    let utilization: f64 = args.opt("util", 0.7)?;
    TaskSetSpec::new(n_tasks, utilization)?;
    Ok(Box::new(move |seed| {
        WorkloadCase::synthetic(n_tasks, utilization, pattern.clone(), seed)
    }))
}

fn refset_by_name(name: &str) -> Result<TaskSet, ArgError> {
    reference::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, set)| set)
        .ok_or_else(|| {
            ArgError(format!(
                "unknown reference set `{name}` (cnc, ins, avionics)"
            ))
        })
}

/// Runs one governor on one workload, prints the referee's verdict and
/// the response profile, and writes the trace as CSV.
fn trace(args: &Args) -> CmdResult {
    let governor_name = args.get("governor").unwrap_or("st-edf").to_string();
    let bcet: f64 = args.opt("bcet", 0.5)?;
    let seed: u64 = args.opt("seed", 0)?;
    let horizon: f64 = args.opt("horizon", 1.0)?;
    let config = SimConfig::new(horizon)?.with_trace(true);
    let processor = processor_by_name(args.get("processor").unwrap_or("ideal"))?;
    let case = workload(args, bcet, 4)?(seed);

    let sim = Simulator::new(case.tasks.clone(), processor, config)?;
    let mut governor = make_governor(&governor_name)
        .ok_or_else(|| ArgError(format!("unknown governor `{governor_name}`")))?;
    let outcome = sim.run(governor.as_mut(), &case.exec)?;
    let report = audit_outcome(&outcome, &case.tasks, &FaultPlan::NONE);

    eprintln!(
        "{governor_name}: energy {:.6} J, {} switches, {} jobs, audit: {report}",
        outcome.total_energy(),
        outcome.switches,
        outcome.jobs.len()
    );
    for r in response_profile(&outcome, &case.tasks) {
        eprintln!("  {r}");
    }
    if args.flag("chart") {
        eprintln!(
            "{}",
            stadvs_sim::render_gantt(
                outcome.trace.as_ref().expect("trace recording was enabled"),
                &case.tasks,
                100
            )
        );
    }
    let csv = outcome
        .trace
        .as_ref()
        .expect("trace recording was enabled")
        .to_csv();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, csv)?;
            eprintln!("trace written to {path}");
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// `stadvs fleet`'s master seed when `--seed` is absent, and the seed of
/// the fleet family that `experiments all` writes.
const FLEET_SEED: u64 = 42;

/// The fleet sweep's node grid: ~10⁴ nodes when `quick`, else ~10⁵.
fn fleet_preset(quick: bool, seed: u64) -> FleetSpec {
    if quick {
        FleetSpec::quick(seed)
    } else {
        FleetSpec::standard(seed)
    }
}

/// The fleet-scale streaming sweep: ~10⁵ nodes by default, ~10⁴ with
/// `--quick`, or an explicit positive `--nodes` count (at least one node
/// per grid cell).
fn fleet(args: &Args) -> CmdResult {
    let seed: u64 = args.opt("seed", FLEET_SEED)?;
    let spec = if let Some(raw) = args.get("nodes") {
        let nodes: u64 = raw
            .parse()
            .map_err(|_| ArgError(format!("invalid node count `{raw}`")))?;
        if nodes == 0 {
            return Err(ArgError("--nodes must be positive".into()).into());
        }
        FleetSpec::standard(seed).with_nodes(nodes)
    } else {
        fleet_preset(args.flag("quick"), seed)
    };
    let threads = match args.get("threads") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ArgError(format!("invalid thread count `{raw}`")))?,
        ),
        None => None,
    };
    let shard_size: u64 = args.opt("shard-size", FleetConfig::default().shard_size)?;
    if shard_size == 0 {
        return Err(ArgError("--shard-size must be positive".into()).into());
    }
    let config = FleetConfig {
        shard_size,
        threads,
    };
    fleet_family(&spec, &config, args.get("out").unwrap_or("results"))
}

/// Sweeps `spec`, prints the aggregate table and writes it to
/// `{out_dir}/fleet.{md,csv}`. Timing, throughput and the process's peak
/// RSS go to stderr (the engine itself is wall-clock-free). `stadvs fleet`
/// and `stadvs experiments all` both run the fleet family through here.
fn fleet_family(spec: &FleetSpec, config: &FleetConfig, out_dir: &str) -> CmdResult {
    eprintln!(
        "sweeping {} nodes ({} cells x {} replications, {} shards of {})...",
        spec.nodes(),
        spec.cell_count(),
        spec.replications,
        spec.nodes().div_ceil(config.shard_size),
        config.shard_size
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time is printed for the user; no result depends on it"
    )]
    let started = std::time::Instant::now();
    let outcome = run_fleet(spec, config)?;
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let table = fleet_table(spec, &outcome);
    println!("{table}");
    write_table(&table, out_dir, "fleet")?;

    let agg = &outcome.aggregate;
    eprintln!(
        "swept {} nodes in {elapsed:.2} s — {:.0} nodes/s, {:.0} events/s \
         ({} sims, {} events), peak RSS {:.1} MiB",
        agg.nodes,
        agg.nodes as f64 / elapsed,
        agg.events as f64 / elapsed,
        agg.sims,
        agg.events,
        peak_rss_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// Peak resident set size of this process, in bytes (`VmHWM` from
/// `/proc/self/status`). Returns 0 on platforms without procfs or when
/// the file is unreadable: 0 reads as "unknown", never as a measurement.
///
/// The fleet sweep reports it: the streaming engine's acceptance bar is a
/// peak RSS that stays flat as the node count grows.
fn peak_rss_bytes() -> u64 {
    if !cfg!(target_os = "linux") {
        return 0;
    }
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_names_resolve() {
        for name in ["ideal", "xscale", "strongarm", "crusoe", "levels:6"] {
            assert!(processor_by_name(name).is_ok(), "{name}");
        }
        assert!(processor_by_name("mystery").is_err());
        assert!(processor_by_name("levels:zero").is_err());
        assert_eq!(
            processor_by_name("levels:6")
                .unwrap()
                .frequency_model()
                .levels(),
            Some(6)
        );
    }

    #[test]
    fn peak_rss_reads_as_a_plausible_number() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test binary has certainly touched > 1 MiB.
            assert!(rss > 1 << 20, "VmHWM parse produced {rss}");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn refsets_resolve() {
        assert!(refset_by_name("cnc").is_ok());
        assert!(refset_by_name("ins").is_ok());
        assert!(refset_by_name("avionics").is_ok());
        assert!(refset_by_name("martian").is_err());
    }
}
