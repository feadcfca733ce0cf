//! The compile workloads, `paper_tables` and `out_of_core`.
//!
//! Untraced, each pass runs `Framework::compile_adaptive` plus the JSON
//! emit on every cell (one "request"), then the analytic executor on the
//! plan, then a timed sweep of the analytic executor over kept plans
//! (see [`exec_sweep`]). Traced, each cell is also replayed pass by pass
//! through the public per-pass APIs, inside benchmark spans, and the
//! replay must reproduce `compile_adaptive` byte for byte.

use std::time::{Duration, Instant};

use gpuflow_codegen::plan_to_json;
use gpuflow_core::framework::DEFAULT_MARGINS;
use gpuflow_core::xfer::{schedule_transfers, XferOptions};
use gpuflow_core::{
    partition_offload_units, schedule_units, split_graph, CompileOptions, CompiledTemplate,
    ExecOutcome, Executor, Framework,
};
use gpuflow_graph::Graph;
use gpuflow_sim::DeviceSpec;
use gpuflow_trace::Tracer;

use crate::gen::{out_of_core_cells, paper_cells, Cell, Dev, Tpl, TABLE1_TEMPLATES};
use crate::report::{mb, median, set_pass_latencies, sum_of_trimmed_means, Report};
use crate::spans::Recorder;
use crate::{fnv1a, ALLOC};

/// Set-ups per run (graph building is cheap); `setup_s` is their median.
const SETUP_REPS: usize = 20;

/// Kept plans whose analytic run is timed after each compile, and timed
/// runs of each (see [`exec_sweep`]).
const EXEC_WIDTH: usize = 4;
const EXEC_REPS: usize = 2;

/// Largest share of the traced compile time the layer spans may leave
/// unaccounted before the reconciliation fails.
const UNACCOUNTED_TOLERANCE_PCT: f64 = 5.0;

/// The Table 1 "opt C870" and "opt 8800GTX" columns, floats moved, in
/// [`TABLE1_TEMPLATES`] order, as recorded in
/// `docs/results/table1_data_transfer.txt`.
const TABLE1_OPT: [(u64, u64); 8] = [
    (1_970_737, 1_970_737),
    (199_850_737, 200_000_737),
    (390_772, 390_772),
    (3_783_412, 3_783_412),
    (38_295_892, 38_295_892),
    (593_632, 593_632),
    (5_241_952, 5_241_952),
    (53_483_392, 137_103_148),
];

fn table1_opt(cell: &Cell) -> Option<u64> {
    let row = TABLE1_TEMPLATES.iter().position(|t| *t == cell.tpl)?;
    match cell.dev {
        Dev::C870 => Some(TABLE1_OPT[row].0),
        Dev::Gtx8800 => Some(TABLE1_OPT[row].1),
        Dev::Custom(_) => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperTables,
    OutOfCore,
}

/// Build each distinct template of `cells` once.
pub fn build_graphs(cells: &[Cell]) -> Vec<(Tpl, Graph)> {
    let mut graphs: Vec<(Tpl, Graph)> = Vec::new();
    for c in cells {
        if !graphs.iter().any(|(t, _)| *t == c.tpl) {
            graphs.push((c.tpl, c.tpl.build()));
        }
    }
    graphs
}

pub fn graph_of(graphs: &[(Tpl, Graph)], tpl: Tpl) -> &Graph {
    &graphs
        .iter()
        .find(|(t, _)| *t == tpl)
        .expect("graph built in setup")
        .1
}

/// `compile_adaptive` + emit: the unit of work the compile workloads time.
pub fn compile_and_emit(
    g: &Graph,
    dev: &DeviceSpec,
    label: &str,
) -> Result<(CompiledTemplate, String), String> {
    let c = Framework::new(dev.clone())
        .compile_adaptive(g)
        .map_err(|e| format!("{label}: compile: {e}"))?;
    let json =
        plan_to_json(&c.split.graph, &c.plan, label).map_err(|e| format!("{label}: emit: {e}"))?;
    Ok((c, json))
}

/// Per-pass counters gathered by the replay.
#[derive(Debug, Default, Clone, Copy)]
struct LayerCounts {
    split_calls: u64,
    split_ops_after: u64,
    units: u64,
    steps: u64,
    evictions: u64,
    attempts: u64,
    accepted: u64,
    validate_peak_bytes: usize,
    emit_bytes: u64,
}

/// Replay `compile_adaptive` + emit pass by pass, one span per layer
/// call. Returns the plan, the accepted margin and the emitted JSON.
fn replay(
    g: &Graph,
    dev: &DeviceSpec,
    label: &str,
    rec: &mut Recorder,
    n: &mut LayerCounts,
) -> Result<(CompiledTemplate, f64, String), String> {
    let opts = CompileOptions::default();
    let floor = opts.memory_margin;
    let ladder =
        std::iter::once(floor).chain(DEFAULT_MARGINS.iter().copied().filter(|&m| m > floor));
    let mut last_err = String::from("empty ladder");
    for margin in ladder {
        n.attempts += 1;
        let budget = dev.plannable_memory(margin);
        n.split_calls += 1;
        let split = match rec.time("split", || split_graph(g, budget)) {
            Ok(s) => s,
            Err(e) => {
                last_err = e.to_string();
                continue;
            }
        };
        let sg = &split.graph;
        let units = rec.time("partition", || {
            partition_offload_units(sg, opts.partition, budget)
        });
        let order = rec.time("opschedule", || schedule_units(sg, &units, opts.scheduler));
        let xfer = XferOptions {
            memory_bytes: budget,
            policy: opts.eviction,
            eager_free: opts.eager_free,
        };
        // `compile` counts evictions while closing its xfer span, so the
        // count belongs to the xfer layer here too.
        let scheduled = rec.time("xfer", || {
            schedule_transfers(sg, &units, &order, xfer).map(|p| {
                let ev = p.evictions();
                (p, ev)
            })
        });
        let (plan, evictions) = match scheduled {
            Ok(p) => p,
            Err(e) => {
                last_err = e.to_string();
                continue;
            }
        };
        let live = ALLOC.current();
        ALLOC.reset_window();
        let analysis = rec.time("validate", || plan.analyze(sg, budget, false));
        if let Some(d) = analysis.first_error() {
            last_err = d.message.clone();
            continue;
        }
        drop(analysis);
        let cert = rec.time("certify", || plan.certify(sg));
        n.validate_peak_bytes = n
            .validate_peak_bytes
            .max(ALLOC.window_peak().saturating_sub(live));
        if let Some(d) = cert.first_error() {
            last_err = d.message.clone();
            continue;
        }
        drop(cert);
        // `compile` computes the plan's canonical statistics after
        // validating, on every rung.
        rec.time("stats", || plan.stats(sg));
        let dry = rec.time("dry_run", || {
            Executor::new(sg, &plan, dev)
                .with_origin(&split)
                .run_analytic()
        });
        if let Err(e) = dry {
            last_err = e.to_string();
            continue;
        }
        n.accepted += 1;
        n.split_ops_after += sg.num_ops() as u64;
        n.units += units.len() as u64;
        n.steps += plan.steps.len() as u64;
        n.evictions += evictions as u64;
        let json = rec
            .time("emit", || plan_to_json(sg, &plan, label))
            .map_err(|e| format!("{label}: emit: {e}"))?;
        n.emit_bytes += json.len() as u64;
        let compiled = CompiledTemplate {
            split,
            plan,
            device: dev.clone(),
            exact_optimal: false,
            exact_stats: None,
        };
        return Ok((compiled, margin, json));
    }
    Err(format!("{label}: every ladder rung failed: {last_err}"))
}

/// The margin `compile_adaptive` settles on, as its own trace reports it.
fn program_margin(g: &Graph, dev: &DeviceSpec) -> Option<f64> {
    let mut tracer = Tracer::new();
    Framework::new(dev.clone())
        .compile_adaptive_traced(g, &mut tracer)
        .ok()?;
    tracer.metrics_ref().gauge_value("compile.margin")
}

/// Per-cell output checks, independent of the code under test. `first`
/// marks the cell's first pass, which also runs the certificate.
fn check_cell(
    kind: Kind,
    cell: &Cell,
    g: &Graph,
    c: &CompiledTemplate,
    out: &ExecOutcome,
    first: bool,
    r: &mut Report,
) -> bool {
    let label = cell.label();
    let floats = out.transfer_floats();
    match kind {
        Kind::PaperTables => {
            let want = table1_opt(cell);
            r.check(want == Some(floats), || {
                format!("{label}: {floats} floats moved, Table 1 says {want:?}")
            })
        }
        Kind::OutOfCore => {
            let lower = g.io_lower_bound_floats();
            let mut ok = r.check(floats >= lower, || {
                format!("{label}: {floats} floats moved, below the I/O lower bound {lower}")
            });
            let cap = c.device.memory_bytes;
            ok &= r.check(out.peak_device_bytes <= cap, || {
                format!(
                    "{label}: peak {} B exceeds device memory {cap} B",
                    out.peak_device_bytes
                )
            });
            if first {
                let certified = c.plan.certify(&c.split.graph).certified();
                ok &= r.check(certified, || format!("{label}: plan is not certified"));
            }
            ok
        }
    }
}

/// The emitted plan must hash the same on every pass.
fn check_stable(cell: &Cell, json: &str, first_hash: &mut Option<u64>, r: &mut Report) -> bool {
    let h = fnv1a(json.as_bytes());
    match *first_hash {
        None => {
            *first_hash = Some(h);
            true
        }
        Some(f) => r.check(f == h, || {
            format!("{}: plan differs between passes", cell.label())
        }),
    }
}

/// After cell `after`'s compile, time `EXEC_WIDTH` kept plans spaced
/// evenly around the cell order: one untimed warm-up run each, then
/// `EXEC_REPS` timed runs. Each plan is so timed at `EXEC_WIDTH` evenly
/// spaced moments of every pass, not only just after its own compile,
/// and its typical time follows the speed of the machine over the whole
/// run rather than over a few moments of it; the warm-up puts every
/// sample in the same cache state. Every run must repeat its plan's
/// first outcome.
fn exec_sweep(
    cells: &[Cell],
    kept: &[Option<(CompiledTemplate, u64, f64)>],
    after: usize,
    exec_s: &mut [Vec<f64>],
    r: &mut Report,
) {
    let n = kept.len();
    let width = EXEC_WIDTH.min(n);
    for j in (0..width).map(|k| (after + 1 + k * n / width) % n) {
        let Some((c, floats, sim_s)) = &kept[j] else {
            continue;
        };
        for rep in 0..=EXEC_REPS {
            let t = Instant::now();
            let out = c.run_analytic();
            let dt = t.elapsed().as_secs_f64();
            if rep > 0 {
                exec_s[j].push(dt);
            }
            let label = cells[j].label();
            match out {
                Ok(o) => {
                    let same = o.transfer_floats() == *floats && o.total_time() == *sim_s;
                    r.check(same, || {
                        format!("{label}: analytic run differs from its first")
                    });
                }
                Err(e) => r.fail(format!("{label}: analytic run: {e}")),
            }
        }
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Report {
    let cells = match kind {
        Kind::PaperTables => paper_cells(seed),
        Kind::OutOfCore => out_of_core_cells(seed),
    };
    let mut r = Report::default();

    let mut setup = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut graphs));
        let t = Instant::now();
        graphs = build_graphs(&cells);
        setup.push(t.elapsed().as_secs_f64());
    }
    if traced {
        r.set("graph_build.ms", median(&setup) * 1e3);
        run_traced(kind, &cells, &graphs, seconds, &mut r);
        return r;
    }

    let budget = Duration::from_secs_f64(seconds);
    let mut first_hash: Vec<Option<u64>> = vec![None; cells.len()];
    let mut compile_s: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut exec_s: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    // Each cell's latest plan with its first checked outcome (floats
    // moved, simulated seconds), for the exec sweeps.
    let mut kept: Vec<Option<(CompiledTemplate, u64, f64)>> =
        (0..cells.len()).map(|_| None).collect();
    let (mut floats, mut sim_s) = (0u64, 0.0f64);
    let mut heap_peak = 0usize;
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        for (i, cell) in cells.iter().enumerate() {
            let g = graph_of(&graphs, cell.tpl);
            let dev = cell.dev.spec();
            let label = cell.label();
            let live = ALLOC.current();
            ALLOC.reset_window();
            let t = Instant::now();
            let compiled = compile_and_emit(g, &dev, &label);
            let dt = t.elapsed().as_secs_f64();
            let (c, json) = match compiled {
                Ok(x) => x,
                Err(e) => {
                    r.op(false);
                    r.fail(e);
                    continue;
                }
            };
            compile_s[i].push(dt);
            let checked = c.run_analytic();
            heap_peak = heap_peak.max(ALLOC.window_peak().saturating_sub(live));
            let ok = match checked {
                Ok(out) => {
                    if pass == 0 {
                        floats += out.transfer_floats();
                        sim_s += out.total_time();
                    }
                    let first = first_hash[i].is_none();
                    let ok = check_cell(kind, cell, g, &c, &out, first, &mut r)
                        & check_stable(cell, &json, &mut first_hash[i], &mut r);
                    let reference = match kept[i].take() {
                        Some((_, f, s)) => (f, s),
                        None => (out.transfer_floats(), out.total_time()),
                    };
                    kept[i] = Some((c, reference.0, reference.1));
                    ok
                }
                Err(e) => {
                    r.fail(format!("{label}: analytic run: {e}"));
                    false
                }
            };
            r.op(ok);
            exec_sweep(&cells, &kept, i, &mut exec_s, &mut r);
        }
        pass += 1;
    }
    r.set("peak_heap_mb", mb(heap_peak));
    // As many set-ups again after the loop, so the samples span the run
    // rather than one moment of a noisy machine.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        drop(build_graphs(&cells));
        setup.push(t.elapsed().as_secs_f64());
    }
    r.set("setup_s", median(&setup));
    r.set("compile_s", sum_of_trimmed_means(&compile_s));
    r.set("exec_s", sum_of_trimmed_means(&exec_s));
    r.set("plan_transfer_floats", floats as f64);
    r.set("plan_sim_s", sim_s);
    set_pass_latencies(&mut r, &compile_s);
    r.note(format!("{pass} passes over {} cells", cells.len()));
    r
}

fn run_traced(kind: Kind, cells: &[Cell], graphs: &[(Tpl, Graph)], seconds: f64, r: &mut Report) {
    let budget = Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new();
    let mut n = LayerCounts::default();
    let mut untraced_s = 0.0;
    let mut first_hash: Vec<Option<u64>> = vec![None; cells.len()];
    let mut first_margin: Vec<Option<f64>> = vec![None; cells.len()];
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < budget {
        for (i, cell) in cells.iter().enumerate() {
            let g = graph_of(graphs, cell.tpl);
            let dev = cell.dev.spec();
            let label = cell.label();
            // Untraced reference: the production entry point. Which of
            // the two compiles runs first alternates, so allocator
            // warm-up does not bias the tracing overhead.
            let mut untraced = || {
                let t = Instant::now();
                let reference = compile_and_emit(g, &dev, &label);
                untraced_s += t.elapsed().as_secs_f64();
                reference.map(|(_, json)| json)
            };
            let mut traced = || {
                let root = rec.begin("compile");
                let replayed = replay(g, &dev, &label, &mut rec, &mut n);
                rec.end(root);
                replayed
            };
            let (reference, replayed) = if (i + passes as usize).is_multiple_of(2) {
                let u = untraced();
                (u, traced())
            } else {
                let t = traced();
                (untraced(), t)
            };
            let reference_json = match reference {
                Ok(json) => json,
                Err(e) => {
                    r.op(false);
                    r.fail(e);
                    continue;
                }
            };
            let (c, margin, json) = match replayed {
                Ok(x) => x,
                Err(e) => {
                    r.op(false);
                    r.fail(e);
                    continue;
                }
            };
            // Differential: the replay must be the production compile.
            let mut ok = r.check(json == reference_json, || {
                format!("{label}: replayed plan JSON differs from compile_adaptive")
            });
            // compile_adaptive's own margin costs one more compile, so it
            // is read on the cell's first pass; later passes must accept
            // the same margin, and the JSON and plan-hash checks hold the
            // plan itself to the first pass.
            let first = first_hash[i].is_none();
            if first {
                first_margin[i] = program_margin(g, &dev);
            }
            let theirs = first_margin[i];
            ok &= r.check(theirs == Some(margin), || {
                format!("{label}: replay accepted margin {margin}, compile_adaptive {theirs:?}")
            });
            ok &= match c.run_analytic() {
                Ok(out) => {
                    check_cell(kind, cell, g, &c, &out, first, r)
                        & check_stable(cell, &json, &mut first_hash[i], r)
                }
                Err(e) => r.check(false, || format!("{label}: analytic run: {e}")),
            };
            r.op(ok);
        }
        passes += 1;
    }
    let per_pass = |v: f64| v / f64::from(passes);
    let selfs = rec.self_times();
    let totals = rec.totals();
    let ms = |name: &str| per_pass(selfs.get(name).copied().unwrap_or(0.0)) * 1e3;
    for (metric, span) in [
        ("split.ms", "split"),
        ("partition.ms", "partition"),
        ("opschedule.ms", "opschedule"),
        ("xfer.ms", "xfer"),
        ("validate.ms", "validate"),
        ("certify.ms", "certify"),
        ("stats.ms", "stats"),
        ("dry_run.ms", "dry_run"),
        ("emit.ms", "emit"),
    ] {
        r.set(metric, ms(span));
    }
    let count = |v: u64| per_pass(v as f64);
    r.set("split.calls", count(n.split_calls));
    r.set("split.ops_after", count(n.split_ops_after));
    r.set("partition.units", count(n.units));
    r.set("xfer.steps", count(n.steps));
    r.set("xfer.evictions", count(n.evictions));
    r.set("emit.bytes", count(n.emit_bytes));
    r.set("validate.peak_heap_mb", mb(n.validate_peak_bytes));
    r.set(
        "ladder.attempts",
        n.attempts as f64 / (cells.len() as f64 * f64::from(passes)),
    );
    r.set(
        "ladder.accept_ratio",
        n.accepted as f64 / n.attempts.max(1) as f64,
    );

    let traced_s = totals.get("compile").copied().unwrap_or(0.0);
    let unaccounted = selfs.get("compile").copied().unwrap_or(0.0);
    let unaccounted_pct = 100.0 * unaccounted / traced_s.max(f64::MIN_POSITIVE);
    r.set("compile.traced_s", per_pass(traced_s));
    r.set("compile.unaccounted_pct", unaccounted_pct);
    r.check(unaccounted_pct <= UNACCOUNTED_TOLERANCE_PCT, || {
        format!(
            "layer self times leave {unaccounted_pct:.2}% of the traced compile unaccounted \
             (tolerance {UNACCOUNTED_TOLERANCE_PCT}%)"
        )
    });
    let overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s.max(f64::MIN_POSITIVE);
    r.set("trace.overhead_pct", overhead_pct);
    r.note(format!(
        "{passes} traced passes; replay differential passed on {} cells",
        cells.len()
    ));
    r.note(format!(
        "reconcile: layer self times cover {:.2}% of traced compile ({:.4} s/pass), tolerance {UNACCOUNTED_TOLERANCE_PCT}%",
        100.0 - unaccounted_pct,
        per_pass(traced_s)
    ));
    r.note(format!(
        "tracing overhead: traced {:.4} s vs untraced {:.4} s per pass ({overhead_pct:+.2}%)",
        per_pass(traced_s),
        per_pass(untraced_s)
    ));
    let share = |names: &[&str]| {
        let s: f64 = names
            .iter()
            .map(|n| selfs.get(n).copied().unwrap_or(0.0))
            .sum();
        100.0 * s / traced_s.max(f64::MIN_POSITIVE)
    };
    r.note(format!(
        "xfer+validate+dry_run = {:.1}% of traced compile; with certify {:.1}%",
        share(&["xfer", "validate", "dry_run"]),
        share(&["xfer", "validate", "certify", "dry_run"])
    ));
}
