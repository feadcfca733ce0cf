//! Seeded input generation. Every workload's inputs are a pure function
//! of `--seed`: template orders, request streams and tensor values all
//! come from [`Rng`], so one seed always replays the same inputs.

use gpuflow_graph::Graph;
use gpuflow_sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow_sim::DeviceSpec;
use gpuflow_templates::{cnn, edge};

/// SplitMix64: tiny, fast, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (clients, tensors...).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A template, named the way the daemon's request grammar names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tpl {
    /// The paper's Fig. 3 example graph.
    Fig3,
    /// Edge detection: `rows x cols` image, `k x k` kernel, `o` orientations.
    Edge {
        rows: usize,
        cols: usize,
        k: usize,
        o: usize,
    },
    /// The paper's small CNN on a `rows x cols` input.
    SmallCnn { rows: usize, cols: usize },
    /// The paper's large CNN on a `rows x cols` input.
    LargeCnn { rows: usize, cols: usize },
}

impl Tpl {
    /// The daemon's spec string (`edge:RxC,k=K,o=O`, `cnn-small:RxC`, ...).
    pub fn spec(&self) -> String {
        match *self {
            Tpl::Fig3 => "fig3".into(),
            Tpl::Edge { rows, cols, k, o } => format!("edge:{rows}x{cols},k={k},o={o}"),
            Tpl::SmallCnn { rows, cols } => format!("cnn-small:{rows}x{cols}"),
            Tpl::LargeCnn { rows, cols } => format!("cnn-large:{rows}x{cols}"),
        }
    }

    /// Build the operator graph straight from the template library.
    pub fn build(&self) -> Graph {
        match *self {
            Tpl::Fig3 => gpuflow_core::examples::fig3_graph(),
            Tpl::Edge { rows, cols, k, o } => {
                edge::find_edges(rows, cols, k, o, edge::CombineOp::Max).graph
            }
            Tpl::SmallCnn { rows, cols } => cnn::small_cnn(rows, cols).graph,
            Tpl::LargeCnn { rows, cols } => cnn::large_cnn(rows, cols).graph,
        }
    }
}

/// A simulated device, by the CLI's `--device` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dev {
    C870,
    Gtx8800,
    /// A C870 with `n` MiB of memory (`custom:n`).
    Custom(u64),
}

impl Dev {
    pub fn spec(&self) -> DeviceSpec {
        match *self {
            Dev::C870 => tesla_c870(),
            Dev::Gtx8800 => geforce_8800_gtx(),
            Dev::Custom(mib) => tesla_c870().with_memory(mib << 20),
        }
    }

    pub fn name(&self) -> String {
        match *self {
            Dev::C870 => "c870".into(),
            Dev::Gtx8800 => "8800gtx".into(),
            Dev::Custom(mib) => format!("custom:{mib}"),
        }
    }
}

/// One compile job: a template on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub tpl: Tpl,
    pub dev: Dev,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{} on {}", self.tpl.spec(), self.dev.name())
    }
}

/// The eight Table 1 templates, in the paper's row order. CNN sizes are
/// `rows x cols`, so `480x640` is the paper's "640x480".
pub const TABLE1_TEMPLATES: [Tpl; 8] = [
    Tpl::Edge {
        rows: 1000,
        cols: 1000,
        k: 16,
        o: 4,
    },
    Tpl::Edge {
        rows: 10000,
        cols: 10000,
        k: 16,
        o: 4,
    },
    Tpl::SmallCnn {
        rows: 480,
        cols: 640,
    },
    Tpl::SmallCnn {
        rows: 480,
        cols: 6400,
    },
    Tpl::SmallCnn {
        rows: 4800,
        cols: 6400,
    },
    Tpl::LargeCnn {
        rows: 480,
        cols: 640,
    },
    Tpl::LargeCnn {
        rows: 480,
        cols: 6400,
    },
    Tpl::LargeCnn {
        rows: 4800,
        cols: 6400,
    },
];

/// `paper_tables`: all 16 (template, device) cells in a seeded order.
pub fn paper_cells(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = TABLE1_TEMPLATES
        .iter()
        .flat_map(|&tpl| {
            [Dev::C870, Dev::Gtx8800]
                .into_iter()
                .map(move |dev| Cell { tpl, dev })
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut cells);
    cells
}

/// `out_of_core`: the two memory-starved cells in a seeded order.
pub fn out_of_core_cells(seed: u64) -> Vec<Cell> {
    let mut cells = vec![
        Cell {
            tpl: Tpl::LargeCnn {
                rows: 4800,
                cols: 6400,
            },
            dev: Dev::Custom(256),
        },
        Cell {
            tpl: Tpl::SmallCnn {
                rows: 4800,
                cols: 6400,
            },
            dev: Dev::Custom(128),
        },
    ];
    Rng::new(seed, 2).shuffle(&mut cells);
    cells
}

/// `functional`: edge detection on a device small enough to force a
/// banded split with halo rows, and the small CNN at 640x480.
pub fn functional_cells(seed: u64) -> Vec<Cell> {
    let mut cells = vec![
        Cell {
            tpl: Tpl::Edge {
                rows: 1000,
                cols: 1000,
                k: 16,
                o: 4,
            },
            dev: Dev::Custom(8),
        },
        Cell {
            tpl: Tpl::SmallCnn {
                rows: 480,
                cols: 640,
            },
            dev: Dev::C870,
        },
    ];
    Rng::new(seed, 3).shuffle(&mut cells);
    cells
}

/// The daemon's warm catalogue, hottest first (Zipf rank order): eight
/// templates that plan in one ladder rung on the C870. The large CNN is
/// left out: each `run` of it certifies a ~22k-step plan with a ~60 MB
/// closure, so whether the two clients' runs overlap would decide the
/// heap peak and the latency tail. `out_of_core` measures that cost.
pub const CATALOGUE: [Tpl; 8] = [
    Tpl::Fig3,
    Tpl::Edge {
        rows: 256,
        cols: 256,
        k: 5,
        o: 2,
    },
    Tpl::SmallCnn { rows: 96, cols: 96 },
    Tpl::Edge {
        rows: 512,
        cols: 512,
        k: 9,
        o: 4,
    },
    Tpl::Edge {
        rows: 480,
        cols: 640,
        k: 9,
        o: 8,
    },
    Tpl::Edge {
        rows: 1000,
        cols: 1000,
        k: 16,
        o: 4,
    },
    Tpl::SmallCnn {
        rows: 128,
        cols: 160,
    },
    Tpl::SmallCnn {
        rows: 192,
        cols: 192,
    },
];

/// Zipf exponent over [`CATALOGUE`] ranks.
pub const ZIPF_S: f64 = 1.1;
/// Share of requests naming a never-seen size (forces a compile).
pub const NOVEL_SHARE: f64 = 0.03;
/// Share of requests sent on a fresh connection.
pub const FRESH_SHARE: f64 = 0.05;
/// Share of catalogue requests that are `run`s (the rest are `compile`s).
pub const RUN_SHARE: f64 = 0.4;
/// Closed-loop clients driving the daemon.
pub const CLIENTS: usize = 2;

/// What the cache should do with a request, by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A catalogue template: a cache hit once warm.
    Warm,
    /// A never-seen size: an incremental or full compile.
    Novel,
}

/// One generated daemon request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub tpl: Tpl,
    pub run: bool,
    pub fresh: bool,
    pub class: Class,
}

impl Req {
    /// The wire line (no newline).
    pub fn line(&self) -> String {
        let op = if self.run { "run" } else { "compile" };
        format!(r#"{{"op":"{op}","template":"{}"}}"#, self.tpl.spec())
    }
}

/// The endless, seeded request stream of one closed-loop client.
/// Never-seen sizes are unique across clients and over the whole stream.
pub struct Requests {
    rng: Rng,
    client: usize,
    novel: usize,
    cdf: [f64; CATALOGUE.len()],
}

impl Requests {
    pub fn new(seed: u64, client: usize) -> Requests {
        let mut cdf = [0.0; CATALOGUE.len()];
        let mut acc = 0.0;
        for (r, slot) in cdf.iter_mut().enumerate() {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            *slot = acc;
        }
        for slot in cdf.iter_mut() {
            *slot /= acc;
        }
        Requests {
            rng: Rng::new(seed, 100 + client as u64),
            client,
            novel: 0,
            cdf,
        }
    }

    /// The client's next never-seen size. Sizes alternate between the
    /// edge and small-CNN skeletons; `m` is unique per (client, family),
    /// and rows sweep `m` while columns step by blocks of 64, so no size
    /// repeats.
    fn novel_tpl(&mut self) -> Tpl {
        loop {
            let k = self.novel;
            self.novel += 1;
            let m = (k / 2) * CLIENTS + self.client;
            let tpl = if k.is_multiple_of(2) {
                Tpl::Edge {
                    rows: 48 + m % 512,
                    cols: 48 + (m / 512) * 64 + self.rng.below(64),
                    k: 5,
                    o: 2,
                }
            } else {
                Tpl::SmallCnn {
                    rows: 64 + m % 256,
                    cols: 64 + (m / 256) * 64 + self.rng.below(64),
                }
            };
            if !CATALOGUE.contains(&tpl) {
                return tpl;
            }
        }
    }
}

impl Iterator for Requests {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let u = self.rng.unit();
        let fresh = self.rng.unit() < FRESH_SHARE;
        let run = self.rng.unit() < RUN_SHARE;
        if u < NOVEL_SHARE {
            let tpl = self.novel_tpl();
            return Some(Req {
                tpl,
                run,
                fresh,
                class: Class::Novel,
            });
        }
        let x = self.rng.unit();
        let rank = self.cdf.iter().position(|&c| x < c).unwrap_or(0);
        Some(Req {
            tpl: CATALOGUE[rank],
            run,
            fresh,
            class: Class::Warm,
        })
    }
}

/// A seeded tensor value in `[-1, 1)` for element `(r, c)` of data `d`.
pub fn tensor_value(seed: u64, d: usize, r: usize, c: usize) -> f32 {
    let mut rng = Rng::new(seed ^ ((d as u64) << 40) ^ ((r as u64) << 20) ^ c as u64, 4);
    (rng.unit() * 2.0 - 1.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_template_lists() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(paper_cells(seed), paper_cells(seed));
            assert_eq!(out_of_core_cells(seed), out_of_core_cells(seed));
            assert_eq!(functional_cells(seed), functional_cells(seed));
        }
        // Seeds reorder, never change, the set of cells.
        let mut a: Vec<String> = paper_cells(1).iter().map(Cell::label).collect();
        let mut b: Vec<String> = paper_cells(2).iter().map(Cell::label).collect();
        assert_ne!(a, b, "different seeds should reorder the sweep");
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn same_seed_same_request_sequence() {
        for client in 0..CLIENTS {
            let a: Vec<Req> = Requests::new(7, client).take(5_000).collect();
            let b: Vec<Req> = Requests::new(7, client).take(5_000).collect();
            assert_eq!(a, b);
            let c: Vec<Req> = Requests::new(8, client).take(5_000).collect();
            assert_ne!(a, c);
        }
    }

    #[test]
    fn novel_sizes_are_never_repeated_and_mix_is_close_to_spec() {
        let mut seen = std::collections::HashSet::new();
        let (mut novel, mut fresh, mut total) = (0usize, 0usize, 0usize);
        for client in 0..CLIENTS {
            for r in Requests::new(3, client).take(20_000) {
                total += 1;
                fresh += r.fresh as usize;
                if r.class == Class::Novel {
                    novel += 1;
                    assert!(seen.insert(r.tpl.spec()), "{} repeated", r.tpl.spec());
                    assert!(!CATALOGUE.contains(&r.tpl));
                }
            }
        }
        let share = |n: usize| n as f64 / total as f64;
        assert!((share(novel) - NOVEL_SHARE).abs() < 0.01);
        assert!((share(fresh) - FRESH_SHARE).abs() < 0.01);
    }

    #[test]
    fn tensor_values_are_seeded() {
        assert_eq!(tensor_value(1, 2, 3, 4), tensor_value(1, 2, 3, 4));
        assert_ne!(tensor_value(1, 2, 3, 4), tensor_value(2, 2, 3, 4));
        let v = tensor_value(9, 0, 0, 0);
        assert!((-1.0..1.0).contains(&v));
    }
}
