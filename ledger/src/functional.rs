//! The `functional` workload: `CompiledTemplate::run_functional` on real
//! tensors, checked bit for bit against `reference_eval`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use gpuflow_core::CompiledTemplate;
use gpuflow_graph::{topo_sort, DataId, Graph};
use gpuflow_ops::{execute, op_cost, reference_eval, Tensor};

use crate::compile::{build_graphs, compile_and_emit, graph_of};
use crate::gen::{functional_cells, tensor_value, Cell, Tpl};
use crate::report::{mb, median, set_pass_latencies, sum_of_trimmed_means, Report};
use crate::spans::Recorder;
use crate::ALLOC;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 10;

/// Kernel families reported as `kernel.<name>.ms`; others fold into `other`.
const KERNELS: [&str; 7] = ["conv", "remap", "max", "add", "bias", "tanh", "pool"];

type Outputs = HashMap<DataId, Tensor>;

fn bindings(g: &Graph, seed: u64) -> HashMap<DataId, Tensor> {
    g.data_ids()
        .filter(|&d| g.data(d).kind.starts_on_cpu())
        .map(|d| {
            let desc = g.data(d);
            let t = Tensor::from_fn(desc.rows, desc.cols, |r, c| {
                tensor_value(seed, d.index(), r, c)
            });
            (d, t)
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Prepared {
    cell: Cell,
    bind: HashMap<DataId, Tensor>,
    compiled: CompiledTemplate,
    reference: Outputs,
}

/// Run every operator of `g` through `gpuflow_ops::execute` in
/// topological order, adding each call's time to its kernel family.
/// Returns the multiply-accumulates performed.
fn time_kernels(
    g: &Graph,
    bind: &HashMap<DataId, Tensor>,
    per_kernel: &mut BTreeMap<&'static str, f64>,
) -> f64 {
    let mut env: HashMap<DataId, Tensor> = bind.clone();
    let mut macs = 0.0;
    for o in topo_sort(g).expect("templates are acyclic") {
        let op = g.op(o);
        let ins: Vec<&Tensor> = op.inputs.iter().map(|d| &env[d]).collect();
        let shapes: Vec<_> = op.inputs.iter().map(|&d| g.shape(d)).collect();
        macs += op_cost(op.kind, &shapes, g.shape(op.outputs[0])).flops as f64 / 2.0;
        let t = Instant::now();
        let out = std::hint::black_box(execute(op.kind, &ins));
        let dt = t.elapsed().as_secs_f64();
        let family = KERNELS
            .iter()
            .find(|&&k| k == op.kind.mnemonic())
            .copied()
            .unwrap_or("other");
        *per_kernel.entry(family).or_default() += dt;
        env.insert(op.outputs[0], out);
    }
    macs
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let cells = functional_cells(seed);
    let mut r = Report::default();

    let (mut setup, mut build) = (Vec::new(), Vec::new());
    let mut compile: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut graphs: Vec<(Tpl, Graph)> = Vec::new();
    let mut compiled: Vec<(Cell, CompiledTemplate)> = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut compiled));
        let t = Instant::now();
        graphs = build_graphs(&cells);
        build.push(t.elapsed().as_secs_f64());
        for (i, cell) in cells.iter().enumerate() {
            let tc = Instant::now();
            match compile_and_emit(graph_of(&graphs, cell.tpl), &cell.dev.spec(), &cell.label()) {
                Ok((c, _json)) => compiled.push((*cell, c)),
                Err(e) => r.fail(e),
            }
            compile[i].push(tc.elapsed().as_secs_f64());
        }
        setup.push(t.elapsed().as_secs_f64());
    }

    // The oracle: unconstrained evaluation of the original template.
    let mut prepared = Vec::new();
    for (cell, c) in compiled {
        let g = graph_of(&graphs, cell.tpl);
        let bind = bindings(g, seed);
        match reference_eval(g, &bind) {
            Ok(reference) => prepared.push(Prepared {
                cell,
                bind,
                compiled: c,
                reference,
            }),
            Err(e) => r.fail(format!("{}: reference_eval: {e}", cell.label())),
        }
    }

    let check = |p: &Prepared, out: &Outputs, r: &mut Report| {
        let ok = p.reference.len() == out.len()
            && p.reference
                .iter()
                .all(|(d, t)| out.get(d).is_some_and(|o| same_bits(o, t)));
        r.check(ok, || {
            format!("{}: outputs differ from reference_eval", p.cell.label())
        })
    };

    let budget = Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new();
    let mut exec_s: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let (mut untraced_s, mut macs) = (0.0, 0.0);
    let mut per_kernel: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut floats, mut sim_s) = (0u64, 0.0);
    ALLOC.reset_window();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < budget {
        let mut pass_s = 0.0;
        for (i, p) in prepared.iter().enumerate() {
            let t = Instant::now();
            let out = p.compiled.run_functional(&p.bind);
            let dt = t.elapsed().as_secs_f64();
            pass_s += dt;
            exec_s[i].push(dt);
            let ok = match out {
                Ok(out) => {
                    if passes == 0 {
                        floats += out.transfer_floats();
                        sim_s += out.total_time();
                    }
                    check(p, &out.outputs, &mut r)
                }
                Err(e) => r.check(false, || format!("{}: run_functional: {e}", p.cell.label())),
            };
            r.op(ok);
            // One compile per template per pass, so compile_s samples
            // span the run like the execution samples do.
            let j = cells
                .iter()
                .position(|c| *c == p.cell)
                .expect("prepared cell");
            let g = graph_of(&graphs, p.cell.tpl);
            let t = Instant::now();
            let c = compile_and_emit(g, &p.cell.dev.spec(), &p.cell.label());
            compile[j].push(t.elapsed().as_secs_f64());
            if let Err(e) = c {
                r.fail(e);
            }
        }
        if traced {
            untraced_s += pass_s;
            for p in &prepared {
                let out = rec.time("functional", || p.compiled.run_functional(&p.bind));
                let ok = out.is_ok_and(|o| check(p, &o.outputs, &mut r));
                r.op(ok);
                let g = graph_of(&graphs, p.cell.tpl);
                let reference = rec.time("reference", || reference_eval(g, &p.bind));
                r.check(reference.is_ok_and(|o| o == p.reference), || {
                    format!("{}: reference_eval is not deterministic", p.cell.label())
                });
                macs += time_kernels(g, &p.bind, &mut per_kernel);
            }
        }
        passes += 1;
    }
    r.set("peak_heap_mb", mb(ALLOC.window_peak()));
    // As many set-ups again after the loop, so the samples span the run
    // rather than one moment of a noisy machine.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let graphs = build_graphs(&cells);
        build.push(t.elapsed().as_secs_f64());
        for (i, cell) in cells.iter().enumerate() {
            let tc = Instant::now();
            let c = compile_and_emit(graph_of(&graphs, cell.tpl), &cell.dev.spec(), &cell.label());
            compile[i].push(tc.elapsed().as_secs_f64());
            if let Err(e) = c {
                r.fail(e);
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    r.set("setup_s", median(&setup));
    r.set("graph_build.ms", median(&build) * 1e3);
    r.set("compile_s", sum_of_trimmed_means(&compile));
    r.set("exec_s", sum_of_trimmed_means(&exec_s));
    r.set("plan_transfer_floats", floats as f64);
    r.set("plan_sim_s", sim_s);
    set_pass_latencies(&mut r, &exec_s);
    r.note(format!("{passes} passes over {} templates", prepared.len()));

    if traced {
        let totals = rec.totals();
        let per_pass_ms = |s: f64| s / f64::from(passes) * 1e3;
        let exec_ms = per_pass_ms(totals.get("functional").copied().unwrap_or(0.0));
        let reference_ms = per_pass_ms(totals.get("reference").copied().unwrap_or(0.0));
        r.set("functional.exec_ms", exec_ms);
        r.set("functional.reference_ms", reference_ms);
        r.set("functional.overhead_ratio", exec_ms / reference_ms);
        let names: [&'static str; 8] = [
            "kernel.conv.ms",
            "kernel.remap.ms",
            "kernel.max.ms",
            "kernel.add.ms",
            "kernel.bias.ms",
            "kernel.tanh.ms",
            "kernel.pool.ms",
            "kernel.other.ms",
        ];
        for (metric, family) in names.iter().zip(KERNELS.iter().chain(["other"].iter())) {
            r.set(
                metric,
                per_pass_ms(per_kernel.get(family).copied().unwrap_or(0.0)),
            );
        }
        let kernel_s: f64 = per_kernel.values().sum();
        r.set("kernel.gmac_per_s", macs / kernel_s / 1e9);
        let overhead = 100.0 * (exec_ms / 1e3 * f64::from(passes) - untraced_s) / untraced_s;
        r.set("trace.overhead_pct", overhead);
        r.note(format!(
            "tracing overhead: traced run_functional {exec_ms:.2} ms/pass vs untraced {:.2} ms/pass ({overhead:+.2}%)",
            per_pass_ms(untraced_s)
        ));
    }
    r
}
