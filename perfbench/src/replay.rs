//! The traced replay of a batch pass.
//!
//! Every unit of every scenario runs on one thread, calling the layer
//! functions in the order `sg_scenario::run_batch` calls them, with a span
//! around each call. The replay builds the same result rows the runner
//! builds; the caller checks that the two agree, which keeps this mirror
//! honest. Only the tasks the batch workloads use are mirrored.
//!
//! Where the runner calls `audit_measured`, the replay takes its steps one
//! by one, so the Theorem 4.1 λ-search gets a span of its own under the
//! audit span.

use crate::trace::Tracer;
use sg_bounds::pfun::Period;
use sg_bounds::{e_coefficient, e_general_nonsystolic};
use sg_delay::bound::{theorem_4_1_bound_from_digraph, BoundOpts};
use sg_delay::digraph::DelayDigraph;
use sg_delay::local::LocalMatrices;
use sg_delay::weighted::weighted_diameter_bound;
use sg_graphs::digraph::Digraph;
use sg_graphs::weighted::WeightedDigraph;
use sg_protocol::local::BlockPattern;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_scenario::tables::{family_row, family_specs, FamilySpec};
use sg_scenario::{BatchOptions, BuildCache, PaperCheck, Scenario, Task, WeightScheme};
use sg_search::{enumerate_with_group, EnumerateConfig};
use sg_sim::greedy::greedy_gossip;
use sg_sim::pool::systolic_gossip_time_pool;
use sg_sim::sparse::run_systolic_sparse_with_limit;
use sg_sim::trace::knowledge_curve_pool;
use systolic_gossip::{bound_mode, to_json_line, Network, ProtocolAudit, Row};

/// The runner's row-storage budget for large sparse units.
const LARGE_SIM_MEM_LIMIT: usize = 6 << 30;

/// Row fields that legitimately differ between the runner and the
/// replay: wall-clock readings and the thread budget actually used.
const UNCOMPARED_FIELDS: [&str; 2] = ["elapsed_ms", "threads"];

/// A tagged result row as one JSON line, without the uncompared fields —
/// the form both the runner's rows and the replay's rows are compared in.
pub fn comparable_line(row: &Row) -> String {
    let mut r = row.clone();
    r.fields
        .retain(|(k, _)| !UNCOMPARED_FIELDS.contains(&k.as_str()));
    to_json_line(&r)
}

/// Replays one `run_batch` call and returns its rows as comparable JSON
/// lines, in the runner's order (scenario, then unit).
pub fn replay(batch: &[Scenario], opts: &BatchOptions, tr: &Tracer) -> Vec<String> {
    let cache = BuildCache::new();
    let mut lines = Vec::new();
    for sc in batch {
        for unit in units_of(sc) {
            let rows = run_unit(&unit, sc, &cache, opts, tr);
            tr.span("core.report", || {
                for r in rows {
                    let mut tagged = Row::new().with("scenario", sc.name);
                    tagged.fields.extend(r.fields);
                    let line = comparable_line(&tagged);
                    tr.count("core.report_bytes", line.len() as f64);
                    lines.push(line);
                }
            });
        }
    }
    let cs = cache.stats();
    tr.count(
        "core.oracle_computes",
        (cs.oracle.computes + cs.oracle.protocol_computes + cs.oracle.family_computes) as f64,
    );
    lines
}

enum Unit<'a> {
    FamilyRow(FamilySpec),
    NetworkBounds(Network),
    Simulate(Network),
    Compare(Network),
    Matrices,
    Checks(&'a [PaperCheck]),
    Enumerate(Network),
}

fn units_of(sc: &Scenario) -> Vec<Unit<'_>> {
    let mut units = Vec::new();
    let nets = sc.networks.iter().copied();
    match sc.task {
        Task::Bound => {
            let family_table =
                !sc.periods.is_empty() && (!sc.degrees.is_empty() || sc.networks.is_empty());
            if family_table {
                units.extend(
                    family_specs(sc.mode, &sc.degrees)
                        .into_iter()
                        .map(Unit::FamilyRow),
                );
            }
            units.extend(nets.map(Unit::NetworkBounds));
        }
        Task::Simulate => units.extend(nets.map(Unit::Simulate)),
        Task::Compare => units.extend(nets.map(Unit::Compare)),
        Task::Matrices => units.push(Unit::Matrices),
        Task::Enumerate => units.extend(nets.map(Unit::Enumerate)),
        Task::Search | Task::Execute | Task::Randomized => {
            panic!("the replay does not mirror {} scenarios", sc.task.name())
        }
    }
    if !sc.checks.is_empty() {
        units.push(Unit::Checks(&sc.checks));
    }
    units
}

fn run_unit(
    unit: &Unit,
    sc: &Scenario,
    cache: &BuildCache,
    opts: &BatchOptions,
    tr: &Tracer,
) -> Vec<Row> {
    match unit {
        Unit::FamilyRow(spec) => family(spec, sc, cache, tr),
        Unit::NetworkBounds(net) => network_bounds(net, sc, cache, tr),
        Unit::Simulate(net) => simulate(net, sc, cache, opts, tr),
        Unit::Compare(net) => compare(net, sc, cache, opts, tr),
        Unit::Matrices => matrices(),
        Unit::Checks(checks) => paper_checks(checks, tr),
        Unit::Enumerate(net) => enumerate(net, sc, cache, tr),
    }
}

fn digraph(net: &Network, cache: &BuildCache, tr: &Tracer) -> std::sync::Arc<Digraph> {
    tr.span("graphs.build", || cache.digraph(net))
}

fn diameter(net: &Network, cache: &BuildCache, tr: &Tracer) -> Option<u32> {
    tr.span("graphs.diameter", || cache.diameter(net))
}

fn family(spec: &FamilySpec, sc: &Scenario, cache: &BuildCache, tr: &Tracer) -> Vec<Row> {
    let row = tr.span("core.oracle", || {
        family_row(spec, sc.mode, &sc.periods, cache.oracle())
    });
    sc.periods
        .iter()
        .zip(&row.cells)
        .map(|(p, cell)| {
            Row::new()
                .with("kind", "table")
                .with("family", spec.label.as_str())
                .with("mode", sc.mode.name())
                .with("period", p.label())
                .with("e", cell.value)
                .with("starred", cell.starred)
        })
        .collect()
}

fn network_bounds(net: &Network, sc: &Scenario, cache: &BuildCache, tr: &Tracer) -> Vec<Row> {
    let g = digraph(net, cache, tr);
    let d = diameter(net, cache, tr);
    sc.periods
        .iter()
        .map(|&p| {
            let ob = tr.span("core.oracle", || {
                cache.oracle().bounds_on(net, &g, d, sc.mode, p)
            });
            ob.report.row().with("kind", "bound")
        })
        .collect()
}

/// `audit_measured`, step by step: the λ-search is a child span.
fn audit(
    net: &Network,
    g: &Digraph,
    sp: &SystolicProtocol,
    dg: &DelayDigraph,
    measured: Option<usize>,
    opts: BoundOpts,
    tr: &Tracer,
) -> ProtocolAudit {
    tr.span("core.audit", || {
        let n = g.vertex_count();
        let validation = sp.validate(g);
        let measured = validation.is_ok().then_some(measured).flatten();
        let size = (dg.vertex_count(), dg.edge_count());
        let matrix_bound = tr.span("delay.lambda", || {
            theorem_4_1_bound_from_digraph(dg, n, opts)
        });
        let closed_form = if sp.s() == 2 {
            n.saturating_sub(1) as f64
        } else {
            e_coefficient(bound_mode(sp.mode()), Period::Systolic(sp.s())) * (n as f64).log2()
        };
        ProtocolAudit {
            network: net.name(),
            n,
            validation,
            s: sp.s(),
            measured_rounds: measured,
            matrix_bound,
            closed_form_rounds: closed_form,
            delay_digraph_size: size,
        }
    })
}

fn simulate(
    net: &Network,
    sc: &Scenario,
    cache: &BuildCache,
    opts: &BatchOptions,
    tr: &Tracer,
) -> Vec<Row> {
    if let Some(n) = net.order_hint().filter(|&n| n >= opts.large_sim_min_n) {
        return simulate_large(net, sc, opts, n, tr);
    }
    let g = digraph(net, cache, tr);
    let n = g.vertex_count();
    if n >= opts.large_sim_min_n {
        return simulate_large(net, sc, opts, n, tr);
    }
    let Some((kind, sp)) = tr.span("protocol.compile", || cache.protocol(net, sc.mode)) else {
        return Vec::new();
    };
    if sp.validate(&g).is_err() {
        return Vec::new();
    }
    let dg = tr.span("delay.fold", || {
        cache.delay_digraph(net, kind, || DelayDigraph::periodic(&sp))
    });
    let d = diameter(net, cache, tr);
    let ob = tr.span("core.oracle", || {
        cache
            .oracle()
            .bounds_on(net, &g, d, sp.mode(), Period::Systolic(sp.s()))
    });
    let curve = tr.span("sim.dense", || {
        knowledge_curve_pool(&sp, n, opts.sim_budget, 1)
    });
    tr.count("sim.rounds", curve.len() as f64);
    let measured = curve.last().filter(|s| s.min == n).map(|s| s.round);
    let audit = audit(net, &g, &sp, &dg, measured, opts.bound_opts, tr);

    let mut rows = vec![Row::new()
        .with("kind", "audit")
        .with("network", net.name())
        .with("n", n)
        .with("s", audit.s)
        .with("protocol_mode", sp.mode().name())
        .with("measured_rounds", audit.measured_rounds)
        .with(
            "thm41_rounds",
            audit.matrix_bound.as_ref().map(|b| b.rounds),
        )
        .with(
            "lambda_star",
            audit.matrix_bound.as_ref().map(|b| b.lambda_star),
        )
        .with("closed_form_rounds", audit.closed_form_rounds)
        .with("best_bound_rounds", ob.report.best_rounds)
        .with("sound", audit.is_sound())];
    let step = (curve.len() / 25).max(1);
    for (i, s) in curve.iter().enumerate() {
        if i % step == 0 || i + 1 == curve.len() {
            rows.push(
                Row::new()
                    .with("kind", "curve")
                    .with("network", net.name())
                    .with("round", s.round)
                    .with("min", s.min)
                    .with("max", s.max)
                    .with("mean", s.mean),
            );
        }
    }
    rows
}

fn simulate_large(
    net: &Network,
    sc: &Scenario,
    opts: &BatchOptions,
    n: usize,
    tr: &Tracer,
) -> Vec<Row> {
    if matches!(net, Network::RandomRegular { .. })
        && (n / 8).saturating_mul(n) > LARGE_SIM_MEM_LIMIT
    {
        return vec![Row::new()
            .with("kind", "large-sim")
            .with("network", net.name())
            .with("n", n)
            .with("engine", "sparse")
            .with("verdict", "skipped-mem")];
    }
    let Some(sp) = tr.span("protocol.compile", || net.reference_protocol()) else {
        return Vec::new();
    };
    if sc.mode == Mode::FullDuplex && sp.mode() != Mode::FullDuplex {
        return Vec::new();
    }
    let out = tr.span("sim.sparse", || {
        run_systolic_sparse_with_limit(&sp, n, opts.sim_budget, true, Some(LARGE_SIM_MEM_LIMIT))
    });
    tr.count("sim.rounds", out.rounds_run as f64);
    tr.count_max(
        "sim.peak_state_mib",
        out.peak_bytes as f64 / f64::from(1u32 << 20),
    );
    let mut rows = vec![Row::new()
        .with("kind", "large-sim")
        .with("network", net.name())
        .with("n", n)
        .with("s", sp.s())
        .with("protocol_mode", sp.mode().name())
        .with("engine", "sparse")
        .with("measured_rounds", out.result.completed_at)
        .with("rounds_run", out.rounds_run)
        .with("peak_state_bytes", out.peak_bytes)
        .with("aborted_mem", out.aborted_mem)
        .with(
            "verdict",
            if out.result.completed_at.is_some() {
                "completed"
            } else if out.aborted_mem {
                "aborted-mem"
            } else {
                "incomplete"
            },
        )];
    let trace = &out.result.trace;
    let step = (trace.len() / 25).max(1);
    for (i, &min) in trace.iter().enumerate() {
        if i % step == 0 || i + 1 == trace.len() {
            rows.push(
                Row::new()
                    .with("kind", "curve")
                    .with("network", net.name())
                    .with("round", i + 1)
                    .with("min", min),
            );
        }
    }
    rows
}

/// The runner's per-network greedy seed (FNV-1a of the name).
fn net_seed(net: &Network) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in net.name().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ 1997
}

fn compare(
    net: &Network,
    sc: &Scenario,
    cache: &BuildCache,
    opts: &BatchOptions,
    tr: &Tracer,
) -> Vec<Row> {
    if net.order_hint().is_some_and(|n| n >= opts.large_sim_min_n) {
        return Vec::new();
    }
    let g = digraph(net, cache, tr);
    let n = g.vertex_count();
    if n >= opts.large_sim_min_n {
        return Vec::new();
    }
    let mut rows = Vec::new();
    match tr.span("protocol.compile", || cache.protocol(net, sc.mode)) {
        Some((kind, sp)) => {
            let dg = tr.span("delay.fold", || {
                cache.delay_digraph(net, kind, || DelayDigraph::periodic(&sp))
            });
            let measured = sp
                .validate(&g)
                .is_ok()
                .then(|| {
                    tr.span("sim.dense", || {
                        systolic_gossip_time_pool(&sp, n, opts.sim_budget, 1)
                    })
                })
                .flatten();
            if let Some(t) = measured {
                tr.count("sim.rounds", t as f64);
            }
            let audit = audit(net, &g, &sp, &dg, measured, opts.bound_opts, tr);
            rows.push(
                Row::new()
                    .with("kind", "audit")
                    .with("network", net.name())
                    .with("n", n)
                    .with("s", audit.s)
                    .with("measured_rounds", audit.measured_rounds)
                    .with(
                        "thm41_rounds",
                        audit.matrix_bound.as_ref().map(|b| b.rounds),
                    )
                    .with("closed_form_rounds", audit.closed_form_rounds)
                    .with("sound", audit.is_sound()),
            );
            if !net.is_directed() {
                let mut rng =
                    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(net_seed(net));
                let greedy = tr.span("sim.greedy", || {
                    greedy_gossip(&g, Mode::HalfDuplex, 200 * n, &mut rng)
                });
                if let Some(out) = greedy {
                    let t = out.rounds as f64;
                    let bound = e_general_nonsystolic() * (n as f64).log2();
                    let slack = 2.0 * t.max(2.0).log2();
                    let diam = diameter(net, cache, tr);
                    let sound =
                        bound - slack <= t + 1e-9 && diam.is_none_or(|d| out.rounds >= d as usize);
                    rows.push(
                        Row::new()
                            .with("kind", "greedy")
                            .with("network", net.name())
                            .with("n", n)
                            .with("greedy_rounds", out.rounds)
                            .with("nonsystolic_bound", bound)
                            .with("diameter", diam)
                            .with("sound", sound),
                    );
                }
            }
        }
        None => {
            let wg = match sc.weights {
                WeightScheme::Unit => WeightedDigraph::unit_weights(&g),
                WeightScheme::ParityOneThree => WeightedDigraph::from_arcs(
                    n,
                    g.arcs().map(|a| {
                        (
                            a.from as usize,
                            a.to as usize,
                            if a.to % 2 == 0 { 1 } else { 3 },
                        )
                    }),
                ),
            };
            let bound = tr.span("delay.lambda", || {
                weighted_diameter_bound(&wg, opts.bound_opts)
            });
            let diam = tr.span("graphs.diameter", || wg.diameter());
            if let (Some(b), Some(d)) = (bound, diam) {
                rows.push(
                    Row::new()
                        .with("kind", "diameter")
                        .with("network", net.name())
                        .with("n", n)
                        .with("lambda_star", b.lambda_star)
                        .with("bound_rounds", b.rounds)
                        .with("true_diameter", d as i64)
                        .with("sound", b.rounds <= d as f64 + 1e-9),
                );
            }
        }
    }
    let separator = tr.span("graphs.separator", || {
        net.concrete_separator()
            .and_then(|sep| sep.measured_distance(&g).map(|m| (sep, m)))
    });
    if let Some((sep, measured)) = separator {
        rows.push(
            Row::new()
                .with("kind", "separator")
                .with("network", net.name())
                .with("v1", sep.v1.len())
                .with("v2", sep.v2.len())
                .with("measured_distance", measured)
                .with("claimed_distance", sep.claimed_distance)
                .with("sound", measured >= sep.claimed_distance),
        );
    }
    rows
}

fn matrices() -> Vec<Row> {
    let pattern = BlockPattern::from_blocks(vec![2, 1], vec![1, 2]);
    let lm = LocalMatrices::new(pattern.clone(), 3);
    let lambda = 0.6;
    vec![Row::new()
        .with("kind", "matrices")
        .with("pattern_l", format!("{:?}", pattern.l))
        .with("pattern_r", format!("{:?}", pattern.r))
        .with("lambda", lambda)
        .with("d_0_0", i64::try_from(lm.d(0, 0)).unwrap_or(i64::MAX))
        .with("d_0_1", i64::try_from(lm.d(0, 1)).unwrap_or(i64::MAX))
        .with("nx_semi_eigenvalue", lm.nx_semi_eigenvalue(lambda))
        .with("ox_semi_eigenvalue", lm.ox_semi_eigenvalue(lambda))]
}

fn paper_checks(checks: &[PaperCheck], tr: &Tracer) -> Vec<Row> {
    checks
        .iter()
        .map(|c| {
            let got = tr.span("bounds.coeff", || (c.compute)());
            Row::new()
                .with("kind", "check")
                .with("label", c.label)
                .with("paper", c.expected)
                .with("computed", got)
                .with("ok", (got - c.expected).abs() <= c.tol)
        })
        .collect()
}

fn enumerate(net: &Network, sc: &Scenario, cache: &BuildCache, tr: &Tracer) -> Vec<Row> {
    let g = digraph(net, cache, tr);
    let d = diameter(net, cache, tr);
    let group = tr.span("graphs.group", || cache.perm_group(net));
    let threads = sc.enumerate.threads.max(1);
    let mut rows = Vec::new();
    for p in &sc.periods {
        let Period::Systolic(s) = p else {
            rows.push(
                Row::new()
                    .with("kind", "enumerate")
                    .with("network", net.name())
                    .with("n", g.vertex_count())
                    .with("mode", sc.mode.name())
                    .with("s", "∞")
                    .with("verdict", "skipped"),
            );
            continue;
        };
        let cfg = EnumerateConfig::default().exact_period(*s).threads(threads);
        let out = tr.span("search.enumerate", || {
            enumerate_with_group(cache.oracle(), net, &g, d, sc.mode, &group, &cfg)
        });
        tr.count("search.nodes", out.enumerated as f64);
        tr.count("search.pruned", out.pruned as f64);
        tr.count("search.memo_hits", out.memo_hits as f64);
        let mut row = Row::new()
            .with("kind", "enumerate")
            .with("network", net.name())
            .with("n", g.vertex_count())
            .with("mode", sc.mode.name())
            .with("s", *s)
            .with("optimal_rounds", out.best_rounds)
            .with("enumerated", out.enumerated)
            .with("pruned", out.pruned)
            .with("round_candidates", out.round_candidates)
            .with("representatives", out.representatives)
            .with("group_order", out.group_order.to_string())
            .with("chain_depth", out.chain_depth)
            .with("stabilizer_pruned", out.stabilizer_pruned)
            .with("memo_hits", out.memo_hits)
            .with("automorphisms", out.automorphisms)
            .with("threads", out.threads);
        row = match &out.certificate {
            Some(cert) => row
                .with("floor_rounds", cert.floor_rounds)
                .with("floor_source", cert.floor_source.label())
                .with("gap_rounds", cert.gap_rounds())
                .with("verdict", cert.verdict.label()),
            None => row.with("verdict", "infeasible"),
        };
        rows.push(row);
    }
    rows
}
