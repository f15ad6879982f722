//! `sg-bench` — the single CLI over the scenario registry, replacing the
//! former per-figure binaries (`fig4` … `fig8`, `curves`,
//! `diameter_bounds`, `experiments`, `fig_matrices`, `validate`).
//!
//! ```bash
//! sg-bench list                        # enumerate the named scenarios
//! sg-bench run fig5 curves             # run scenarios through the batch executor
//! sg-bench run all --format json       # everything, one JSON object per row
//! sg-bench sweep --task bound --mode half-duplex --net wbf:2,5 --net db:2,7 \
//!                --periods 3..8 --nonsystolic
//! ```

use sg_scenario::{registry, run_batch, BatchOptions, Scenario, Task, WeightScheme};
use systolic_gossip::sg_bounds::pfun::Period;
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::{to_csv, to_json_line, Network};

const USAGE: &str = "\
sg-bench — systolic-gossip scenario runner

USAGE:
  sg-bench list [--filter SUBSTR]
      Enumerate the named scenarios of the registry.

  sg-bench run <name>... | all [--filter SUBSTR] [OPTIONS]
      Run named scenarios through the parallel batch executor.
      With --filter, names may be omitted: every scenario whose name
      contains SUBSTR runs.

  sg-bench search [<name>...] [--filter SUBSTR] [--seed N] [--restarts N]
                  [--iterations N] [OPTIONS]
      Run the protocol-synthesis scenarios (sg-search): hunt for optimal
      systolic schedules and certify them against the paper's lower
      bounds. Without names, every search-task scenario runs.

  sg-bench enumerate [<name>...] [--filter SUBSTR] [OPTIONS]
      Run the exact-enumeration scenarios: oracle-pruned exhaustive
      branch-and-bound over every valid period-s schedule, proving the
      optimum (or exact infeasibility) as a ProvenOptimal certificate.
      Without names, every enumerate-task scenario runs.

  sg-bench execute [<name>...] [--filter SUBSTR] [--faults P] [--exec-seed N]
                   [OPTIONS]
      Run the distributed-execution scenarios (sg-exec): each vertex of
      a compiled schedule becomes a message-passing node, stepped by a
      deterministic fault-injecting driver, and the completion round is
      checked against the lockstep simulator's optimum. --faults
      overrides the per-link drop probability, --exec-seed the fault
      seed. Without names, every execute-task scenario runs.

  sg-bench randomized [<name>...] [--filter SUBSTR] [--trials N] [--rand-seed N]
                      [OPTIONS]
      Run the randomized-baseline scenarios: seeded push/pull/exchange
      gossip trials over the sparse row table, summarized
      (mean/median/p95/max stopping times) against the exact systolic
      optimum or lower-bound floor of the same network. --trials
      overrides the per-model trial count, --rand-seed the master seed.
      Without names, every randomized-task scenario runs.

  sg-bench sweep --task <bound|simulate|compare|enumerate|execute|randomized> --mode <directed|half-duplex|full-duplex>
                 --net <family:params> [--net ...] [--periods LO..HI] [--nonsystolic]
                 [--degrees D,D,...] [--filter SUBSTR] [OPTIONS]
      Run an ad-hoc scenario assembled from the command line. Each --net
      takes one spec: path:32, cycle:32, complete:16, tree:2,4, grid:6x6,
      torus:8x8, hypercube:7, bf:2,4, wbf:2,5, wbfdir:2,5, db:2,7,
      dbdir:2,8, kautz:2,6, kautzdir:2,7, se:6, ccc:4, knodel:6,64,
      rr:64,3[,seed]. With --filter, only the networks whose name
      contains SUBSTR are kept.

OPTIONS:
  --threads N          worker threads (default: one per core, max 16)
  --sim-threads N      threads per unit: item slices of a dense gossip
                       time at n >= 2048 and of a large simulation, and
                       the enumerator's exhaustive parallel pass
                       (default: leftover budget once units are assigned;
                       the effective values are echoed in text output)
  --faults P           execute: per-link drop probability in [0, 1)
  --exec-seed N        execute: deterministic fault-sampling seed
  --trials N           randomized: independent trials per activation model
  --rand-seed N        randomized: master seed of the counter-based streams
  --format FMT         text | json | csv   (default text)
  --filter SUBSTR      restrict list/run/search/enumerate to matching scenario
                       names (sweep: restrict the --net list by network name)
  --stats              print cache statistics after the run
  -h, --help           this message
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `sg-bench --help` for usage");
            std::process::exit(2);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

#[derive(Debug)]
struct CommonFlags {
    threads: usize,
    sim_threads: usize,
    format: Format,
    stats: bool,
    filter: Option<String>,
    search_seed: Option<u64>,
    search_restarts: Option<usize>,
    search_iterations: Option<usize>,
    exec_faults: Option<f64>,
    exec_seed: Option<u64>,
    rand_trials: Option<usize>,
    rand_seed: Option<u64>,
}

/// The flag step every command shares, keyed on the task it runs
/// (`None` for `list` and `run`, which span every task): rejects, by
/// name, the task-specific flags that do not apply to `command`, then
/// selects the scenarios and applies the overrides that do. Flags are
/// checked before `select` runs, so a misplaced flag is the error even
/// when the selection would fail too.
fn with_task_flags(
    command: &str,
    task: Option<Task>,
    flags: &CommonFlags,
    select: impl FnOnce() -> Result<Vec<Scenario>, String>,
) -> Result<Vec<Scenario>, String> {
    // A sweep accepts the search flags and ignores them: it has no
    // search task.
    let sweep = command == "sweep";
    let search_flags = flags.search_seed.is_some()
        || flags.search_restarts.is_some()
        || flags.search_iterations.is_some();
    if search_flags && !sweep && task != Some(Task::Search) {
        let hint = match task {
            Some(Task::Enumerate) => " (enumeration is exhaustive and deterministic)",
            Some(Task::Execute) => " (use --exec-seed to vary the fault pattern)",
            Some(Task::Randomized) => " (use --rand-seed to vary the trial streams)",
            _ => "",
        };
        return Err(format!(
            "--seed / --restarts / --iterations only apply to `sg-bench search`{hint}"
        ));
    }
    // `--faults` / `--exec-seed` only make sense where an `ExecSpec`
    // exists to override, `--trials` / `--rand-seed` where a
    // `RandomizedSpec` does.
    if (flags.exec_faults.is_some() || flags.exec_seed.is_some()) && task != Some(Task::Execute) {
        let command = if sweep {
            "sweep --task <non-execute>"
        } else {
            command
        };
        return Err(format!(
            "--faults / --exec-seed only apply to `sg-bench execute` or \
             `sg-bench sweep --task execute`, not `sg-bench {command}`"
        ));
    }
    if (flags.rand_trials.is_some() || flags.rand_seed.is_some()) && task != Some(Task::Randomized)
    {
        let command = if sweep {
            "sweep --task <non-randomized>"
        } else {
            command
        };
        return Err(format!(
            "--trials / --rand-seed only apply to `sg-bench randomized` or \
             `sg-bench sweep --task randomized`, not `sg-bench {command}`"
        ));
    }
    let mut scenarios = select()?;
    // Overrides apply uniformly to every selected scenario.
    for sc in &mut scenarios {
        match task {
            Some(Task::Search) => {
                sc.search.seed = flags.search_seed.unwrap_or(sc.search.seed);
                sc.search.restarts = flags.search_restarts.unwrap_or(sc.search.restarts);
                sc.search.iterations = flags.search_iterations.unwrap_or(sc.search.iterations);
            }
            Some(Task::Execute) => {
                sc.exec.drop_prob = flags.exec_faults.unwrap_or(sc.exec.drop_prob);
                sc.exec.seed = flags.exec_seed.unwrap_or(sc.exec.seed);
            }
            Some(Task::Randomized) => {
                sc.randomized.trials = flags.rand_trials.unwrap_or(sc.randomized.trials);
                sc.randomized.seed = flags.rand_seed.unwrap_or(sc.randomized.seed);
            }
            _ => {}
        }
    }
    Ok(scenarios)
}

fn run_cli(args: &[String]) -> Result<i32, String> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(2);
    };
    let task = match command.as_str() {
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return Ok(0);
        }
        "sweep" => {
            let scenario = parse_sweep(&args[1..])?;
            let (_, flags) = split_flags(&args[1..], true)?;
            let task = Some(scenario.task);
            let mut scenarios = with_task_flags("sweep", task, &flags, || Ok(vec![scenario]))?;
            // --filter on a sweep restricts the assembled network list.
            if let Some(f) = &flags.filter {
                let networks = &mut scenarios[0].networks;
                if networks.is_empty() {
                    return Err("sweep: --filter needs --net entries to filter".into());
                }
                networks.retain(|n| n.name().contains(f.as_str()));
                if networks.is_empty() {
                    return Err(format!("sweep: no --net network matches `{f}`"));
                }
            }
            return execute(&scenarios, &flags);
        }
        "list" | "run" => None,
        "search" => Some(Task::Search),
        "enumerate" => Some(Task::Enumerate),
        "execute" => Some(Task::Execute),
        "randomized" => Some(Task::Randomized),
        other => return Err(format!("unknown command `{other}`")),
    };
    let (names, flags) = split_flags(&args[1..], false)?;
    if command == "list" {
        if !names.is_empty() {
            return Err(format!("list takes no scenario names, got `{}`", names[0]));
        }
        let reg = with_task_flags("list", None, &flags, || {
            let reg = apply_filter(registry(), flags.filter.as_deref());
            if reg.is_empty() {
                let valid: Vec<&'static str> = registry().iter().map(|s| s.name).collect();
                return Err(no_match_error(
                    flags.filter.as_deref().unwrap_or(""),
                    &valid,
                ));
            }
            Ok(reg)
        })?;
        println!("{:<26} {:<9} summary", "name", "task");
        println!("{}", "-".repeat(100));
        for s in &reg {
            println!("{:<26} {:<9} {}", s.name, s.task.name(), s.summary);
        }
        match &flags.filter {
            Some(f) => println!(
                "\n{} scenario(s) matching `{f}`. `sg-bench run --filter {f}` runs them all.",
                reg.len()
            ),
            None => println!(
                "\n{} scenarios. `sg-bench run <name>` or `sg-bench run all`.",
                reg.len()
            ),
        }
        return Ok(0);
    }
    let scenarios = with_task_flags(command, task, &flags, || {
        select_scenarios(&names, &flags, task)
    })?;
    execute(&scenarios, &flags)
}

/// Keeps the scenarios whose name contains `filter` (all of them when no
/// filter is given).
fn apply_filter(scenarios: Vec<Scenario>, filter: Option<&str>) -> Vec<Scenario> {
    match filter {
        Some(f) => scenarios
            .into_iter()
            .filter(|s| s.name.contains(f))
            .collect(),
        None => scenarios,
    }
}

/// Resolves the scenario selection of `run` / `search` from positional
/// names, `--filter`, and (for `search`) the implicit task restriction.
fn select_scenarios(
    names: &[String],
    flags: &CommonFlags,
    only_task: Option<Task>,
) -> Result<Vec<Scenario>, String> {
    let everything = |reg: Vec<Scenario>| -> Vec<Scenario> {
        match only_task {
            Some(t) => reg.into_iter().filter(|s| s.task == t).collect(),
            None => reg,
        }
    };
    let selected: Vec<Scenario> = if names.len() == 1 && names[0] == "all" {
        everything(registry())
    } else if names.is_empty() {
        if flags.filter.is_none() && only_task.is_none() {
            return Err("run: give scenario names, `all`, or --filter".into());
        }
        everything(registry())
    } else {
        let reg = registry();
        names
            .iter()
            .map(|n| {
                reg.iter()
                    .find(|s| s.name == *n)
                    .cloned()
                    .ok_or_else(|| format!("unknown scenario `{n}` (see `sg-bench list`)"))
            })
            .collect::<Result<_, _>>()?
    };
    if let Some(t) = only_task {
        if let Some(bad) = selected.iter().find(|s| s.task != t) {
            return Err(format!(
                "`{}` is a {} scenario, not a {} one (see `sg-bench list --filter {}`)",
                bad.name,
                bad.task.name(),
                t.name(),
                t.name()
            ));
        }
    }
    // A filter that matches nothing is an error, never a silent no-op:
    // exit non-zero and name every scenario the filter could have hit.
    let valid: Vec<&'static str> = selected.iter().map(|s| s.name).collect();
    let selected = apply_filter(selected, flags.filter.as_deref());
    if selected.is_empty() {
        return Err(match &flags.filter {
            Some(f) => no_match_error(f, &valid),
            None => "no scenario selected".into(),
        });
    }
    Ok(selected)
}

/// The shared zero-match filter error: names every scenario the filter
/// could have hit, so the fix is visible in the message itself.
fn no_match_error(filter: &str, valid: &[&str]) -> String {
    format!(
        "no scenario matches `{filter}`; valid names: {}",
        valid.join(", ")
    )
}

/// One row of [`FLAG_TABLE`].
struct FlagSpec {
    name: &'static str,
    /// The flag consumes the next argument as its value.
    takes_value: bool,
    /// Parsed by [`parse_sweep`]; common flags are parsed by
    /// [`split_flags`] instead.
    sweep_only: bool,
}

/// The single source of truth for the CLI grammar. Both argument
/// passes consult it: [`split_flags`] parses the common flags and
/// value-skips the sweep-only ones, [`parse_sweep`] parses the
/// sweep-only flags and value-skips the common ones. Before this
/// table each pass kept its own hand-maintained skip list, and they
/// drifted: `--seed`, `--restarts` and `--iterations` were missing
/// from `parse_sweep`'s list, so `sg-bench sweep --seed 42 …` died
/// with "unexpected argument" instead of running.
const FLAG_TABLE: &[FlagSpec] = &[
    // Common flags — parsed in `split_flags`.
    FlagSpec {
        name: "--threads",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--sim-threads",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--filter",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--seed",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--restarts",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--iterations",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--faults",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--exec-seed",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--trials",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--rand-seed",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--format",
        takes_value: true,
        sweep_only: false,
    },
    FlagSpec {
        name: "--stats",
        takes_value: false,
        sweep_only: false,
    },
    // Sweep-only flags — parsed in `parse_sweep`.
    FlagSpec {
        name: "--task",
        takes_value: true,
        sweep_only: true,
    },
    FlagSpec {
        name: "--mode",
        takes_value: true,
        sweep_only: true,
    },
    FlagSpec {
        name: "--net",
        takes_value: true,
        sweep_only: true,
    },
    FlagSpec {
        name: "--periods",
        takes_value: true,
        sweep_only: true,
    },
    FlagSpec {
        name: "--degrees",
        takes_value: true,
        sweep_only: true,
    },
    FlagSpec {
        name: "--nonsystolic",
        takes_value: false,
        sweep_only: true,
    },
];

fn flag_spec(name: &str) -> Option<&'static FlagSpec> {
    FLAG_TABLE.iter().find(|f| f.name == name)
}

/// Separates positional arguments from the common flags. Sweep-specific
/// flags are handled by [`parse_sweep`] and only *allowed* (skipped)
/// here when `sweep` is set — `sg-bench run` rejects them rather than
/// silently ignoring a user's attempted customization.
fn split_flags(args: &[String], sweep: bool) -> Result<(Vec<String>, CommonFlags), String> {
    let mut names = Vec::new();
    let mut flags = CommonFlags {
        threads: 0,
        sim_threads: 0,
        format: Format::Text,
        stats: false,
        filter: None,
        search_seed: None,
        search_restarts: None,
        search_iterations: None,
        exec_faults: None,
        exec_seed: None,
        rand_trials: None,
        rand_seed: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                flags.threads = arg_value(args, i, "--threads")?
                    .parse()
                    .map_err(|_| "--threads takes an integer".to_string())?;
            }
            "--sim-threads" => {
                i += 1;
                flags.sim_threads = arg_value(args, i, "--sim-threads")?
                    .parse()
                    .map_err(|_| "--sim-threads takes an integer".to_string())?;
            }
            "--filter" => {
                i += 1;
                flags.filter = Some(arg_value(args, i, "--filter")?.to_string());
            }
            "--seed" => {
                i += 1;
                flags.search_seed = Some(
                    arg_value(args, i, "--seed")?
                        .parse()
                        .map_err(|_| "--seed takes an integer".to_string())?,
                );
            }
            "--restarts" => {
                i += 1;
                let r: usize = arg_value(args, i, "--restarts")?
                    .parse()
                    .map_err(|_| "--restarts takes an integer".to_string())?;
                if r == 0 {
                    return Err("--restarts must be at least 1".into());
                }
                flags.search_restarts = Some(r);
            }
            "--iterations" => {
                i += 1;
                flags.search_iterations = Some(
                    arg_value(args, i, "--iterations")?
                        .parse()
                        .map_err(|_| "--iterations takes an integer".to_string())?,
                );
            }
            "--faults" => {
                i += 1;
                let p: f64 = arg_value(args, i, "--faults")?
                    .parse()
                    .map_err(|_| "--faults takes a probability".to_string())?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("--faults must be in [0, 1), got {p}"));
                }
                flags.exec_faults = Some(p);
            }
            "--exec-seed" => {
                i += 1;
                flags.exec_seed = Some(
                    arg_value(args, i, "--exec-seed")?
                        .parse()
                        .map_err(|_| "--exec-seed takes an integer".to_string())?,
                );
            }
            "--trials" => {
                i += 1;
                let t: usize = arg_value(args, i, "--trials")?
                    .parse()
                    .map_err(|_| "--trials takes an integer".to_string())?;
                if t == 0 {
                    return Err("--trials must be at least 1".into());
                }
                flags.rand_trials = Some(t);
            }
            "--rand-seed" => {
                i += 1;
                flags.rand_seed = Some(
                    arg_value(args, i, "--rand-seed")?
                        .parse()
                        .map_err(|_| "--rand-seed takes an integer".to_string())?,
                );
            }
            "--format" => {
                i += 1;
                flags.format = match arg_value(args, i, "--format")? {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--stats" => flags.stats = true,
            flag if flag.starts_with("--") => match flag_spec(flag) {
                Some(spec) if spec.sweep_only => {
                    if !sweep {
                        return Err(format!("`{flag}` only applies to `sg-bench sweep`"));
                    }
                    if spec.takes_value {
                        i += 1; // skip the flag's value; parse_sweep consumed it
                    }
                }
                // A common flag in the table without a parse arm above
                // is a bug the `flag_table` tests catch; at runtime it
                // is indistinguishable from an unknown flag.
                _ => return Err(format!("unknown flag `{flag}`")),
            },
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    Ok((names, flags))
}

fn arg_value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_sweep(args: &[String]) -> Result<Scenario, String> {
    let mut task = None;
    let mut mode = None;
    let mut networks: Vec<Network> = Vec::new();
    let mut periods: Vec<Period> = Vec::new();
    let mut degrees: Vec<usize> = Vec::new();
    let mut nonsystolic = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--task" => {
                i += 1;
                task = Some(match arg_value(args, i, "--task")? {
                    "bound" => Task::Bound,
                    "simulate" => Task::Simulate,
                    "compare" => Task::Compare,
                    "matrices" => Task::Matrices,
                    "enumerate" => Task::Enumerate,
                    "execute" => Task::Execute,
                    "randomized" => Task::Randomized,
                    other => return Err(format!("unknown task `{other}`")),
                });
            }
            "--mode" => {
                i += 1;
                mode = Some(match arg_value(args, i, "--mode")? {
                    "directed" => Mode::Directed,
                    "half-duplex" | "hd" => Mode::HalfDuplex,
                    "full-duplex" | "fd" => Mode::FullDuplex,
                    other => return Err(format!("unknown mode `{other}`")),
                });
            }
            "--net" => {
                i += 1;
                networks.push(Network::from_spec(arg_value(args, i, "--net")?)?);
            }
            "--periods" => {
                i += 1;
                let v = arg_value(args, i, "--periods")?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--periods takes LO..HI, got `{v}`"))?;
                let lo: usize = lo.trim().parse().map_err(|_| "bad period".to_string())?;
                let hi: usize = hi
                    .trim()
                    .trim_start_matches('=')
                    .parse()
                    .map_err(|_| "bad period".to_string())?;
                if lo < 2 || hi < lo {
                    return Err(format!("--periods: need 2 <= LO <= HI, got {lo}..{hi}"));
                }
                periods.extend((lo..=hi).map(Period::Systolic));
            }
            "--nonsystolic" => nonsystolic = true,
            "--degrees" => {
                i += 1;
                for d in arg_value(args, i, "--degrees")?.split(',') {
                    degrees.push(
                        d.trim()
                            .parse()
                            .map_err(|_| format!("`{d}` is not a degree"))?,
                    );
                }
            }
            other => match flag_spec(other) {
                // A common flag: `split_flags` parses it; here only its
                // value is skipped so positional scanning stays aligned.
                Some(spec) if !spec.sweep_only => {
                    if spec.takes_value {
                        i += 1;
                    }
                }
                _ => return Err(format!("sweep: unexpected argument `{other}`")),
            },
        }
        i += 1;
    }
    if nonsystolic {
        periods.push(Period::NonSystolic);
    }
    let task = task.ok_or("sweep: --task is required")?;
    let mode = mode.ok_or("sweep: --mode is required")?;
    if networks.is_empty() && degrees.is_empty() {
        return Err("sweep: give at least one --net or --degrees".into());
    }
    if matches!(task, Task::Bound) && periods.is_empty() {
        return Err("sweep: bound task needs --periods and/or --nonsystolic".into());
    }
    if matches!(task, Task::Enumerate) && !periods.iter().any(|p| matches!(p, Period::Systolic(_)))
    {
        return Err("sweep: enumerate task needs --periods (finite systolic periods)".into());
    }
    Ok(Scenario {
        name: "sweep",
        summary: "ad-hoc sweep assembled from the command line",
        task,
        mode,
        networks,
        degrees,
        periods,
        weights: WeightScheme::Unit,
        checks: Vec::new(),
        search: sg_scenario::SearchSpec::default(),
        exec: sg_scenario::ExecSpec::default(),
        enumerate: sg_scenario::EnumerateSpec::default(),
        randomized: sg_scenario::RandomizedSpec::default(),
    })
}

/// The one-line thread echo of text output: the resolved global thread
/// *budget*, plus the per-unit sim override when one was given.
///
/// Worker-vs-budget convention (see [`BatchOptions::threads`]): a
/// budget of `t` counts the calling thread, so it means the caller plus
/// `t - 1` more. A budget of 1 runs the batch sequentially, so the echo
/// says exactly that instead of claiming "1 worker(s)".
fn thread_echo(opts: &BatchOptions) -> String {
    let budget = opts.effective_threads();
    let mut echo = if budget <= 1 {
        "threads: 1 (sequential — no pool workers spawned)".to_string()
    } else {
        format!(
            "threads: {budget} ({} pool worker(s) + the calling thread)",
            budget - 1
        )
    };
    if opts.sim_threads > 0 {
        echo.push_str(&format!(", {} sim thread(s) per unit", opts.sim_threads));
    }
    echo
}

fn execute(scenarios: &[Scenario], flags: &CommonFlags) -> Result<i32, String> {
    let opts = BatchOptions {
        threads: flags.threads,
        sim_threads: flags.sim_threads,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    if flags.format == Format::Text {
        println!("{}", thread_echo(&opts));
    }
    let report = run_batch(scenarios, &opts);
    match flags.format {
        Format::Text => {
            for outcome in &report.outcomes {
                println!("{}", outcome.render_text());
            }
            println!(
                "{} scenario(s) in {:.2}s",
                report.outcomes.len(),
                started.elapsed().as_secs_f64()
            );
        }
        Format::Json => {
            for row in report.tagged_rows() {
                println!("{}", to_json_line(&row));
            }
        }
        Format::Csv => {
            print!("{}", to_csv(&report.tagged_rows()));
        }
    }
    if flags.stats {
        eprintln!("cache: {}", report.cache);
    }
    if report.checks_ok() {
        Ok(0)
    } else {
        eprintln!("paper-check MISMATCH — see output above");
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_with_filter(f: &str) -> CommonFlags {
        CommonFlags {
            threads: 0,
            sim_threads: 0,
            format: Format::Text,
            stats: false,
            filter: Some(f.to_string()),
            search_seed: None,
            search_restarts: None,
            search_iterations: None,
            exec_faults: None,
            exec_seed: None,
            rand_trials: None,
            rand_seed: None,
        }
    }

    #[test]
    fn thread_flags_parse_and_echo() {
        let args: Vec<String> = ["fig5", "--threads", "3", "--sim-threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (names, flags) = split_flags(&args, false).expect("thread flags parse");
        assert_eq!(names, ["fig5"]);
        assert_eq!(flags.threads, 3);
        assert_eq!(flags.sim_threads, 2);
        let opts = BatchOptions {
            threads: flags.threads,
            sim_threads: flags.sim_threads,
            ..Default::default()
        };
        // Budget 3 = 2 spawned pool workers + the calling thread.
        assert_eq!(
            thread_echo(&opts),
            "threads: 3 (2 pool worker(s) + the calling thread), 2 sim thread(s) per unit"
        );
        // Budget 1 spawns no workers — the echo must not claim any.
        let sequential = BatchOptions {
            threads: 1,
            ..Default::default()
        };
        assert_eq!(
            thread_echo(&sequential),
            "threads: 1 (sequential — no pool workers spawned)"
        );
        // With no --sim-threads the echo shows only the resolved global
        // budget — the per-unit split depends on the unit count.
        let auto = BatchOptions::default();
        let echo = thread_echo(&auto);
        assert!(
            echo.starts_with(&format!("threads: {}", auto.effective_threads())),
            "{echo}"
        );
        assert_eq!(echo.contains("sequential"), auto.effective_threads() <= 1);
    }

    /// A value the flag's own parser accepts — so table-driven probes
    /// below exercise the real parse arms, not just error paths.
    fn valid_value(flag: &str) -> &'static str {
        match flag {
            "--threads" | "--sim-threads" | "--seed" | "--restarts" | "--iterations"
            | "--exec-seed" | "--trials" | "--rand-seed" => "3",
            "--faults" => "0.05",
            "--filter" => "fig",
            "--format" => "json",
            "--task" => "bound",
            "--mode" => "fd",
            "--net" => "cycle:8",
            "--periods" => "3..4",
            "--degrees" => "2,3",
            f => panic!("valid_value: unknown flag `{f}`"),
        }
    }

    /// Every flag `split_flags` parses must be value-skipped by
    /// `parse_sweep`, and vice versa — the drift this table exists to
    /// prevent (`--seed`/`--restarts`/`--iterations` used to be
    /// missing from `parse_sweep`'s hand-maintained skip list, so
    /// `sg-bench sweep --seed 42 …` died with "unexpected argument").
    #[test]
    fn every_table_flag_is_parsed_by_one_pass_and_skipped_by_the_other() {
        let base = [
            "--task",
            "bound",
            "--mode",
            "fd",
            "--net",
            "cycle:8",
            "--periods",
            "3..4",
        ];
        for spec in FLAG_TABLE {
            let mut args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            args.push(spec.name.to_string());
            if spec.takes_value {
                args.push(valid_value(spec.name).to_string());
            }
            let scenario = parse_sweep(&args)
                .unwrap_or_else(|e| panic!("parse_sweep must accept `{}`: {e}", spec.name));
            if !spec.sweep_only {
                // A skipped common flag must not disturb the sweep's
                // own parse (its value read as a positional would).
                assert_eq!(
                    scenario.networks.len(),
                    1,
                    "`{}`'s value must not be read as a positional",
                    spec.name
                );
            }
            let (names, _) = split_flags(&args, true)
                .unwrap_or_else(|e| panic!("split_flags must accept `{}`: {e}", spec.name));
            assert!(
                names.is_empty(),
                "`{}`'s value leaked into positionals: {names:?}",
                spec.name
            );
        }
    }

    /// The whole grammar at once: one command line carrying every flag
    /// in the table survives both passes with the common flags parsed.
    #[test]
    fn both_passes_accept_a_command_line_with_every_flag() {
        let mut args: Vec<String> = Vec::new();
        for spec in FLAG_TABLE {
            args.push(spec.name.to_string());
            if spec.takes_value {
                args.push(valid_value(spec.name).to_string());
            }
        }
        let scenario = parse_sweep(&args).expect("sweep parses the full grammar");
        assert!(scenario.periods.contains(&Period::NonSystolic));
        let (names, flags) = split_flags(&args, true).expect("split parses the full grammar");
        assert!(names.is_empty(), "{names:?}");
        assert_eq!(flags.threads, 3);
        assert_eq!(flags.search_seed, Some(3));
        assert_eq!(flags.search_restarts, Some(3));
        assert_eq!(flags.search_iterations, Some(3));
        assert_eq!(flags.exec_faults, Some(0.05));
        assert_eq!(flags.exec_seed, Some(3));
        assert_eq!(flags.rand_trials, Some(3));
        assert_eq!(flags.rand_seed, Some(3));
        assert_eq!(flags.format, Format::Json);
        assert!(flags.stats);
    }

    /// Randomized flags stay with the randomized task: every other
    /// command rejects them by name instead of silently ignoring them.
    #[test]
    fn rand_flags_are_rejected_outside_randomized_and_randomized_sweeps() {
        for cmd in ["list", "run", "enumerate", "execute", "search"] {
            for flag in [["--trials", "50"], ["--rand-seed", "7"]] {
                let args: Vec<String> = [cmd, flag[0], flag[1]]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let err =
                    run_cli(&args).expect_err("rand flags outside randomized must be rejected");
                assert!(
                    err.contains("--trials / --rand-seed only apply"),
                    "`{cmd} {}`: {err}",
                    flag[0]
                );
            }
        }
        // A non-randomized sweep rejects them too…
        let args: Vec<String> = [
            "sweep", "--task", "simulate", "--mode", "fd", "--net", "cycle:8", "--trials", "50",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run_cli(&args).expect_err("non-randomized sweep rejects rand flags");
        assert!(err.contains("--trials / --rand-seed only apply"), "{err}");
        // …while a randomized sweep parses the task.
        let args: Vec<String> = ["--task", "randomized", "--mode", "fd", "--net", "cycle:8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let scenario = parse_sweep(&args).expect("randomized sweeps parse");
        assert_eq!(scenario.task, Task::Randomized);
    }

    #[test]
    fn trials_flag_validates_its_count() {
        let args: Vec<String> = ["randomized", "--trials", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = split_flags(&args[1..], false).expect_err("zero trials rejected");
        assert!(err.contains("--trials must be at least 1"), "{err}");
    }

    #[test]
    fn randomized_selects_exactly_the_randomized_scenarios() {
        let picked = select_scenarios(&[], &flags_with_filter("rand-"), Some(Task::Randomized))
            .expect("matching filter selects");
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|s| s.task == Task::Randomized));
    }

    /// Exec flags stay with the execute task: every other command
    /// rejects them by name instead of silently ignoring them.
    #[test]
    fn exec_flags_are_rejected_outside_execute_and_execute_sweeps() {
        for cmd in ["list", "run", "enumerate", "search"] {
            for flag in [["--faults", "0.05"], ["--exec-seed", "7"]] {
                let args: Vec<String> = [cmd, flag[0], flag[1]]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let err = run_cli(&args).expect_err("exec flags outside execute must be rejected");
                assert!(
                    err.contains("--faults / --exec-seed only apply"),
                    "`{cmd} {}`: {err}",
                    flag[0]
                );
            }
        }
        // A non-execute sweep rejects them too…
        let args: Vec<String> = [
            "sweep", "--task", "simulate", "--mode", "fd", "--net", "cycle:8", "--faults", "0.05",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run_cli(&args).expect_err("non-execute sweep rejects exec flags");
        assert!(err.contains("--faults / --exec-seed only apply"), "{err}");
        // …while an execute sweep parses into the scenario's ExecSpec.
        let args: Vec<String> = ["--task", "execute", "--mode", "fd", "--net", "hypercube:3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let scenario = parse_sweep(&args).expect("execute sweeps parse");
        assert_eq!(scenario.task, Task::Execute);
    }

    #[test]
    fn faults_flag_validates_its_probability() {
        for bad in ["1.0", "-0.1", "lots"] {
            let args: Vec<String> = ["execute", "--faults", bad]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = split_flags(&args[1..], false).expect_err("bad probability rejected");
            assert!(err.contains("--faults"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn execute_selects_exactly_the_execute_scenarios() {
        let picked = select_scenarios(&[], &flags_with_filter("exec-"), Some(Task::Execute))
            .expect("matching filter selects");
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|s| s.task == Task::Execute));
        // And a run-task scenario is refused by name.
        let err = select_scenarios(
            &["fig4".into()],
            &flags_with_filter("fig"),
            Some(Task::Execute),
        )
        .expect_err("non-execute scenario refused");
        assert!(
            err.contains("not a execute one") || err.contains("is a"),
            "{err}"
        );
    }

    /// Sweep-only flags stay sweep-only: `sg-bench run` rejects each
    /// one by name rather than silently ignoring it.
    #[test]
    fn sweep_only_flags_are_rejected_outside_sweep() {
        for spec in FLAG_TABLE.iter().filter(|s| s.sweep_only) {
            let mut args = vec![spec.name.to_string()];
            if spec.takes_value {
                args.push(valid_value(spec.name).to_string());
            }
            let err =
                split_flags(&args, false).expect_err("sweep-only flag must be rejected by `run`");
            assert!(
                err.contains("only applies to `sg-bench sweep`"),
                "`{}`: {err}",
                spec.name
            );
        }
    }

    #[test]
    fn sim_threads_rejects_non_integers() {
        let args: Vec<String> = ["run", "--sim-threads", "lots"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = split_flags(&args, false).expect_err("non-integer rejected");
        assert!(err.contains("--sim-threads takes an integer"), "{err}");
    }

    #[test]
    fn zero_match_filter_is_an_error_listing_valid_names() {
        // `sg-bench enumerate --filter zzz` must fail loudly, not run
        // nothing, and the error must teach the valid names.
        let err = select_scenarios(&[], &flags_with_filter("zzz"), Some(Task::Enumerate))
            .expect_err("a filter matching zero scenarios is an error");
        assert!(err.contains("no scenario matches `zzz`"), "{err}");
        for name in ["enum-hypercube", "enum-torus-3x3", "enum-knodel"] {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
        // Only same-task names are suggested for a task-restricted
        // command.
        assert!(!err.contains("fig4"), "{err}");
    }

    #[test]
    fn zero_match_filter_fails_run_and_list_too() {
        let err = select_scenarios(&[], &flags_with_filter("zzz"), None)
            .expect_err("run --filter zzz is an error");
        assert!(
            err.contains("fig4"),
            "run suggests the whole registry: {err}"
        );
        let code = run_cli(&["list".into(), "--filter".into(), "zzz".into()]);
        assert!(code.is_err(), "list --filter zzz must exit non-zero");
    }

    #[test]
    fn matching_filter_still_selects() {
        let picked = select_scenarios(&[], &flags_with_filter("enum-"), Some(Task::Enumerate))
            .expect("matching filter selects");
        assert!(picked.len() >= 7);
        assert!(picked.iter().all(|s| s.task == Task::Enumerate));
    }
}
