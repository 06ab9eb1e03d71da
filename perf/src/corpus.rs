//! The five workloads as data: batch corpora (one `gpuflow run` command
//! line per entry) and serve mixes (daemon flags, a hot catalogue and a
//! seeded request sequence). Nothing here touches the program under test;
//! it only ever sees the spec strings generated below.
//!
//! **What the seed may vary.** The planner's cost is chaotic in the image
//! size once a template spills (`cnn-small:8990x8990` on an 8800 GTX moves
//! 5.3 GB, `9010x9010` moves 8.0 GB and takes 40 % longer to plan), so a
//! seeded size draw there would turn the seed-to-seed spread of a
//! ten-entry corpus into tens of percent — and the benchmark's acceptance
//! rule reads seed-to-seed spread as noise. Entries in that regime are
//! therefore pinned ([`Size::Pin`]). Where cost is smooth — templates that
//! fit, and `edge`, whose split is a plain row tiling — the seed draws the
//! aspect ratio at a fixed pixel count ([`Size::Aspect`]): the amount of
//! work is the same for every seed, the spec strings are not. The seed
//! also drives the execution order inside every batch round, the
//! popularity rank of every catalogue spec, the request sequence, and the
//! never-seen sizes of the churn classes.

use crate::rng::Rng;

/// Workload names, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "batch_fit",
    "batch_spill",
    "batch_cluster",
    "serve_hot",
    "serve_churn",
];

/// Device memory in bytes by CLI device name (the paper's two cards).
pub fn device_capacity(name: &str) -> Option<u64> {
    match name {
        "c870" => Some(1500 << 20),
        "8800gtx" => Some(768 << 20),
        _ => None,
    }
}

/// Per-device capacities of a `--devices` cluster spec such as
/// `c870x2,8800gtx` or `8800gtxx4`.
pub fn cluster_capacities(spec: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (name, count) = match part.rsplit_once('x') {
            Some((name, n)) if device_capacity(name).is_some() => (name, n.parse().ok()?),
            _ => (part, 1usize),
        };
        out.extend(std::iter::repeat_n(device_capacity(name)?, count));
    }
    Some(out)
}

/// How an entry's image size is chosen.
#[derive(Debug, Clone, Copy)]
pub enum Size {
    /// Fixed rows × cols (spill regime: cost is chaotic in the size).
    Pin(usize, usize),
    /// Fixed pixel count (the square of this edge), seeded aspect ratio
    /// rows/cols in [1/2, 2].
    Aspect(usize),
}

impl Size {
    fn draw(self, rng: &mut Rng) -> (usize, usize) {
        match self {
            Size::Pin(r, c) => (r, c),
            Size::Aspect(edge) => {
                let rows = (edge as f64 * 2f64.powf(rng.unit() - 0.5)).round() as usize;
                (rows, (edge * edge + rows / 2) / rows)
            }
        }
    }
}

/// Where an entry runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `--device NAME`.
    Device(&'static str),
    /// `--devices SPEC`.
    Cluster(&'static str),
}

/// One corpus entry: a template at a size on a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Stable id within the workload (`fit01`, `spill03`, …).
    pub id: String,
    /// The spec string handed to the program under test.
    pub spec: String,
    /// Image rows and columns of the spec (for the input-bytes check).
    pub rows: usize,
    /// See `rows`.
    pub cols: usize,
    /// Device or cluster.
    pub target: Target,
    /// `--streams K` (1 = flag omitted).
    pub streams: usize,
}

impl Entry {
    /// Arguments after `gpuflow <verb> <spec>` selecting target and streams.
    pub fn target_args(&self) -> Vec<String> {
        let mut a = match self.target {
            Target::Device(d) => vec!["--device".to_string(), d.to_string()],
            Target::Cluster(c) => vec!["--devices".to_string(), c.to_string()],
        };
        if self.streams > 1 {
            a.push("--streams".into());
            a.push(self.streams.to_string());
        }
        a
    }

    /// The timed command line: `run <spec> <target> --overlap --json`.
    pub fn run_args(&self) -> Vec<String> {
        let mut a = vec!["run".to_string(), self.spec.clone()];
        a.extend(self.target_args());
        a.push("--overlap".into());
        a.push("--json".into());
        a
    }

    /// Per-device memory the plan must stay within.
    pub fn capacities(&self) -> Vec<u64> {
        match self.target {
            Target::Device(d) => vec![device_capacity(d).expect("corpus names a known device")],
            Target::Cluster(c) => cluster_capacities(c).expect("corpus names a known cluster"),
        }
    }
}

/// (template, parameter suffix, size rule, target, streams)
type Row = (&'static str, &'static str, Size, Target, usize);

const C870: Target = Target::Device("c870");
const GTX: Target = Target::Device("8800gtx");

/// Everything fits (split factor 1, no evictions): the eager-free path of
/// the transfer scheduler, validate, overlap simulation, profile, encode.
const FIT: [Row; 7] = [
    ("cnn-large", "", Size::Aspect(384), C870, 1),
    ("cnn-large", "", Size::Aspect(768), C870, 1),
    ("cnn-large", "", Size::Aspect(400), C870, 4),
    ("cnn-large", "", Size::Aspect(640), C870, 4),
    ("cnn-small", "", Size::Aspect(384), C870, 1),
    ("cnn-small", "", Size::Aspect(896), C870, 1),
    ("cnn-small", "", Size::Aspect(512), C870, 2),
];

/// Footprint exceeds the 768 MB card: the eviction path of the same
/// scheduler plus halo-aware splitting (paper §3.2, Fig. 8). Split 2 with
/// a few hundred evictions, split 6 with thousands, evictions without a
/// split, and `edge` splits of 20 to 100 parts.
const SPILL: [Row; 7] = [
    ("cnn-small", "", Size::Pin(8500, 8500), GTX, 1),
    ("cnn-small", "", Size::Pin(11000, 11000), GTX, 1),
    ("cnn-large", "", Size::Pin(7500, 7500), GTX, 1),
    ("edge", ",k=16,o=8", Size::Aspect(18500), GTX, 1),
    ("edge", ",k=16,o=8", Size::Aspect(21000), GTX, 1),
    ("edge", ",k=16,o=16", Size::Aspect(30000), GTX, 1),
    ("cnn-small", "", Size::Pin(9000, 9000), GTX, 2),
];

/// The second plan stack (shard / multi schedule / makespan / multi
/// verify); `core::xfer` does no work here. The c870 x2 / x4 / x8 rows of
/// one template show the super-linear cost of the multi-device certifier.
/// `cnn-large` on three devices would show it best (README.md, "Baseline
/// observations") but peaks at 656 MB, where this sandbox's page-fault
/// time alone swings its wall time between 1.4 and 4.9 s.
const CLUSTER: [Row; 8] = [
    (
        "cnn-small",
        "",
        Size::Pin(2000, 2000),
        Target::Cluster("c870x2"),
        1,
    ),
    (
        "cnn-small",
        "",
        Size::Pin(2000, 2000),
        Target::Cluster("c870x4"),
        1,
    ),
    (
        "cnn-small",
        "",
        Size::Pin(2000, 2000),
        Target::Cluster("c870x8"),
        1,
    ),
    (
        "cnn-small",
        "",
        Size::Pin(4000, 4000),
        Target::Cluster("c870x4"),
        1,
    ),
    (
        "cnn-small",
        "",
        Size::Pin(12000, 12000),
        Target::Cluster("8800gtxx4"),
        1,
    ),
    (
        "cnn-large",
        "",
        Size::Aspect(512),
        Target::Cluster("c870x2"),
        1,
    ),
    (
        "edge",
        ",k=16,o=8",
        Size::Aspect(20000),
        Target::Cluster("8800gtxx2"),
        1,
    ),
    (
        "edge",
        ",k=16,o=4",
        Size::Aspect(10000),
        Target::Cluster("c870x2,8800gtx"),
        1,
    ),
];

fn rows_of(workload: &str) -> Option<(&'static str, &'static [Row])> {
    match workload {
        "batch_fit" => Some(("fit", &FIT)),
        "batch_spill" => Some(("spill", &SPILL)),
        "batch_cluster" => Some(("cluster", &CLUSTER)),
        _ => None,
    }
}

/// Is `workload` one of the CLI batch workloads?
pub fn is_batch(workload: &str) -> bool {
    rows_of(workload).is_some()
}

/// The corpus of a batch workload for `seed`, in id order.
pub fn batch_corpus(workload: &str, seed: u64) -> Vec<Entry> {
    let (prefix, rows) = rows_of(workload).expect("a batch workload");
    let mut rng = Rng::new(seed, 1);
    rows.iter()
        .enumerate()
        .map(|(i, &(template, suffix, size, target, streams))| {
            let (r, c) = size.draw(&mut rng);
            Entry {
                id: format!("{prefix}{:02}", i + 1),
                spec: format!("{template}:{r}x{c}{suffix}"),
                rows: r,
                cols: c,
                target,
                streams,
            }
        })
        .collect()
}

/// The seeded execution order of round `round` (a permutation of entry
/// indices): every round runs every entry once.
pub fn round_order(n: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 100 + round as u64).shuffle(&mut order);
    order
}

/// One small spec per execution mode, run with `--functional` in set-up:
/// the CLI must report its outputs equal to direct graph evaluation.
pub const FUNCTIONAL_GATE: [&[&str]; 4] = [
    &["edge:96x96,k=5,o=4", "--device", "custom:1"],
    &["cnn-small:96x96"],
    &[
        "edge:256x256,k=9,o=4",
        "--device",
        "custom:2",
        "--streams",
        "2",
        "--overlap",
    ],
    &["edge:96x96,k=5,o=4", "--devices", "c870x2"],
];

/// The latency class of a serve request; fixed by the sequence, not by
/// how the daemon happened to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `compile` of a catalogue spec (an exact cache hit).
    Hit,
    /// `run` of a catalogue spec (hit + admission + cluster execute).
    Run,
    /// `compile cnn-large` at a never-seen size (incremental recompile).
    Incremental,
    /// `compile cnn-small` at a never-seen size.
    Small,
    /// `compile edge,k=5,o=K`, K cycling over 96 values (full miss).
    Miss,
}

impl Class {
    /// All classes, cheapest first (the order latency boundaries fall in).
    pub const ALL: [Class; 5] = [
        Class::Hit,
        Class::Run,
        Class::Miss,
        Class::Small,
        Class::Incremental,
    ];

    /// Short name used in metric names and printed shares.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Run => "run",
            Class::Incremental => "incremental",
            Class::Small => "small",
            Class::Miss => "miss",
        }
    }
}

/// One wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Latency class.
    pub class: Class,
    /// `"compile"` or `"run"`.
    pub op: &'static str,
    /// Template spec.
    pub spec: String,
}

impl Req {
    /// The request line (without the trailing newline).
    pub fn line(&self) -> String {
        format!("{{\"op\":\"{}\",\"template\":\"{}\"}}", self.op, self.spec)
    }
}

/// A serve workload: how to start the daemon and what to send it.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// `--devices X` / `--device X` for `gpuflow serve`.
    pub daemon_target: Target,
    /// Start the daemon with a plan-cache journal.
    pub journal: bool,
    /// Specs compiled and run once in set-up; index = popularity rank.
    pub catalogue: Vec<String>,
    /// Requests per block by class. The sequence cycles through these
    /// blocks, each holding exactly its counts in seeded order, so the
    /// realised shares cannot drift with the seed or the window.
    pub blocks: Vec<Vec<(Class, usize)>>,
}

impl ServeMix {
    /// The `--devices` spelling of the daemon's cluster, for the CLI
    /// cross-check of catalogue plans.
    pub fn cluster_spec(&self) -> String {
        match self.daemon_target {
            Target::Device(d) => format!("{d}x1"),
            Target::Cluster(c) => c.to_string(),
        }
    }

    /// Nominal share of each class in percent, cheapest class first.
    pub fn shares(&self) -> Vec<(Class, f64)> {
        let all = || self.blocks.iter().flatten();
        let total: usize = all().map(|&(_, n)| n).sum();
        Class::ALL
            .iter()
            .filter_map(|&c| {
                let n: usize = all().filter(|&&(k, _)| k == c).map(|&(_, n)| n).sum();
                (n > 0).then(|| (c, 100.0 * n as f64 / total as f64))
            })
            .collect()
    }
}

fn aspect_spec(template: &str, edge: usize, suffix: &str, rng: &mut Rng) -> String {
    let (r, c) = Size::Aspect(edge).draw(rng);
    format!("{template}:{r}x{c}{suffix}")
}

/// The serve mix of `workload` for `seed`.
pub fn serve_mix(workload: &str, seed: u64) -> ServeMix {
    let mut rng = Rng::new(seed, 2);
    match workload {
        // 32 specs < cache capacity 64: after set-up every request is an
        // exact hit; compile passes do no work.
        "serve_hot" => {
            let mut catalogue = vec!["fig3".to_string()];
            for (i, o) in (2..=16).step_by(2).enumerate() {
                for (k, edge) in [(5, 600), (9, 900), (16, 1200)] {
                    let suffix = format!(",k={k},o={o}");
                    catalogue.push(aspect_spec("edge", edge + 16 * i, &suffix, &mut rng));
                }
            }
            rng.shuffle(&mut catalogue);
            // `run` of a cnn-small executes 3244 units, about 20 ms; the
            // other specs execute in microseconds. Their ranks are fixed
            // (every fourth from the first: 40 % of the Zipf mass, so 12 %
            // of requests, and p95 lies 7 points inside that class for
            // every seed), and so is the size at each rank, because the
            // execute time grows with it.
            for (i, edge) in [96, 128, 160, 192, 224, 256, 288].into_iter().enumerate() {
                catalogue.insert(4 * i, aspect_spec("cnn-small", edge, "", &mut rng));
            }
            ServeMix {
                daemon_target: Target::Cluster("c870x2"),
                journal: false,
                catalogue,
                blocks: vec![vec![(Class::Hit, 7), (Class::Run, 3)]],
            }
        }
        // The same cache used differently: inserts, LRU evictions,
        // journal appends and compiles beside the probes.
        "serve_churn" => {
            let mut catalogue = vec![
                "fig3".to_string(),
                aspect_spec("edge", 700, ",k=5,o=4", &mut rng),
                aspect_spec("edge", 900, ",k=9,o=8", &mut rng),
                aspect_spec("edge", 1100, ",k=16,o=2", &mut rng),
                aspect_spec("edge", 1300, ",k=9,o=6", &mut rng),
                aspect_spec("cnn-small", 256, "", &mut rng),
                aspect_spec("cnn-small", 384, "", &mut rng),
                aspect_spec("cnn-large", 512, "", &mut rng),
            ];
            rng.shuffle(&mut catalogue);
            ServeMix {
                daemon_target: Target::Device("c870"),
                journal: true,
                catalogue,
                // 85 % hot at 70/30 compile/run (59.5 / 25.5 %, so two
                // alternating blocks of 100), 8 / 4 / 3 % cold.
                blocks: [(60, 25), (59, 26)]
                    .iter()
                    .map(|&(hit, run)| {
                        vec![
                            (Class::Hit, hit),
                            (Class::Run, run),
                            (Class::Incremental, 8),
                            (Class::Small, 4),
                            (Class::Miss, 3),
                        ]
                    })
                    .collect(),
            }
        }
        other => panic!("{other} is not a serve workload"),
    }
}

/// The shared request sequence: connections pull the next request from
/// one generator, so the class mix is a property of the sequence and not
/// of how fast each class is served.
#[derive(Debug, Clone)]
pub struct Sequence {
    rng: Rng,
    catalogue: Vec<String>,
    /// Cumulative Zipf(1.1) weights over catalogue ranks.
    zipf_cdf: Vec<f64>,
    blocks: Vec<Vec<Class>>,
    next_block: usize,
    pending: Vec<Class>,
    /// Seed-derived offset of the never-seen sizes.
    base: usize,
    cold_ordinal: usize,
}

impl Sequence {
    /// The sequence of `mix` for `seed`.
    pub fn new(mix: &ServeMix, seed: u64) -> Sequence {
        let mut acc = 0.0;
        let zipf_cdf = (1..=mix.catalogue.len())
            .map(|rank| {
                acc += (rank as f64).powf(-1.1);
                acc
            })
            .collect();
        let mut rng = Rng::new(seed, 3);
        let base = rng.below(1 << 16);
        Sequence {
            rng,
            catalogue: mix.catalogue.clone(),
            zipf_cdf,
            blocks: mix
                .blocks
                .iter()
                .map(|b| {
                    b.iter()
                        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                        .collect()
                })
                .collect(),
            next_block: 0,
            pending: Vec::new(),
            base,
            cold_ordinal: 0,
        }
    }

    fn hot_spec(&mut self) -> String {
        let total = *self.zipf_cdf.last().expect("catalogue is not empty");
        let u = self.rng.unit() * total;
        let rank = self.zipf_cdf.partition_point(|&c| c <= u);
        self.catalogue[rank.min(self.catalogue.len() - 1)].clone()
    }

    /// The next request of the sequence.
    pub fn next_req(&mut self) -> Req {
        if self.pending.is_empty() {
            self.pending = self.blocks[self.next_block % self.blocks.len()].clone();
            self.next_block += 1;
            self.rng.shuffle(&mut self.pending);
        }
        let class = self.pending.pop().expect("block is not empty");
        // Cold sizes do not repeat within 2^15 cold requests, so none of
        // them is answered from an entry an earlier one inserted.
        let j = self.base + self.cold_ordinal;
        let (op, spec) = match class {
            Class::Hit => ("compile", self.hot_spec()),
            Class::Run => ("run", self.hot_spec()),
            Class::Incremental => (
                "compile",
                format!(
                    "cnn-large:{}x{}",
                    384 + j % 256,
                    385 + 2 * ((j / 256) % 128)
                ),
            ),
            Class::Small => (
                "compile",
                format!(
                    "cnn-small:{}x{}",
                    200 + j % 256,
                    201 + 2 * ((j / 256) % 128)
                ),
            ),
            Class::Miss => (
                "compile",
                format!(
                    "edge:{}x{},k=5,o={}",
                    300 + j % 256,
                    301 + 2 * ((j / 256) % 128),
                    2 * (1 + j % 96)
                ),
            ),
        };
        if !matches!(class, Class::Hit | Class::Run) {
            self.cold_ordinal += 1;
        }
        Req { class, op, spec }
    }
}

/// Check that no latency-class boundary lies within two points of p50 or
/// p95. `shares` are percentages, cheapest class first; the boundaries are
/// their running sums.
pub fn boundaries_clear(shares: &[(Class, f64)]) -> Result<(), String> {
    let mut cum = 0.0;
    for &(class, share) in &shares[..shares.len().saturating_sub(1)] {
        cum += share;
        for p in [50.0, 95.0] {
            if (cum - p).abs() < 2.0 {
                return Err(format!(
                    "class boundary after '{}' at {cum:.1} % lies within 2 points of p{p}",
                    class.name()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_different_seed_differs() {
        for w in ["batch_fit", "batch_spill", "batch_cluster"] {
            assert_eq!(batch_corpus(w, 5), batch_corpus(w, 5));
            assert_ne!(batch_corpus(w, 5), batch_corpus(w, 6));
            assert_eq!(round_order(9, 5, 0), round_order(9, 5, 0));
            let mut o = round_order(9, 5, 1);
            o.sort_unstable();
            assert_eq!(o, (0..9).collect::<Vec<_>>());
        }
        assert_ne!(round_order(9, 5, 0), round_order(9, 6, 0));
    }

    #[test]
    fn aspect_draw_keeps_the_pixel_count() {
        let mut rng = Rng::new(3, 1);
        for _ in 0..200 {
            let (r, c) = Size::Aspect(512).draw(&mut rng);
            assert!((362..=725).contains(&r), "{r}");
            let px = (r * c) as f64;
            assert!((px / (512.0 * 512.0) - 1.0).abs() < 0.002, "{r}x{c}");
        }
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        for w in ["serve_hot", "serve_churn"] {
            let take = |seed| {
                let mix = serve_mix(w, seed);
                let mut s = Sequence::new(&mix, seed);
                (0..500).map(|_| s.next_req()).collect::<Vec<_>>()
            };
            assert_eq!(take(1), take(1));
            assert_ne!(take(1), take(2));
        }
    }

    #[test]
    fn every_block_realises_the_nominal_shares() {
        let mix = serve_mix("serve_churn", 9);
        let mut s = Sequence::new(&mix, 9);
        let reqs: Vec<Req> = (0..400).map(|_| s.next_req()).collect();
        for (i, block) in reqs.chunks(100).enumerate() {
            for (class, want) in [
                (Class::Hit, 60 - i % 2),
                (Class::Run, 25 + i % 2),
                (Class::Incremental, 8),
                (Class::Small, 4),
                (Class::Miss, 3),
            ] {
                assert_eq!(block.iter().filter(|r| r.class == class).count(), want);
            }
        }
        // Cold specs never repeat and are not in the catalogue.
        let cold: Vec<&String> = reqs
            .iter()
            .filter(|r| !matches!(r.class, Class::Hit | Class::Run))
            .map(|r| &r.spec)
            .collect();
        let unique: std::collections::HashSet<_> = cold.iter().collect();
        assert_eq!(unique.len(), cold.len());
        assert!(cold.iter().all(|s| !mix.catalogue.contains(s)));
        let shares = mix.shares();
        let pct: Vec<f64> = shares.iter().map(|&(_, p)| p).collect();
        assert_eq!(pct, vec![59.5, 25.5, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mix = serve_mix("serve_hot", 4);
        assert_eq!(mix.catalogue.len(), 32);
        let mut s = Sequence::new(&mix, 4);
        let mut counts = vec![0usize; 32];
        for _ in 0..20_000 {
            let r = s.next_req();
            counts[mix.catalogue.iter().position(|c| *c == r.spec).unwrap()] += 1;
        }
        assert!(counts[0] > 4 * counts[7] && counts[7] > counts[31]);
        assert!(counts.iter().all(|&n| n > 0));
    }

    #[test]
    fn class_share_boundary_check() {
        let ok = [
            (Class::Hit, 59.5),
            (Class::Run, 25.5),
            (Class::Miss, 3.0),
            (Class::Small, 4.0),
            (Class::Incremental, 8.0),
        ];
        assert!(boundaries_clear(&ok).is_ok());
        for w in ["serve_hot", "serve_churn"] {
            assert!(boundaries_clear(&serve_mix(w, 1).shares()).is_ok());
        }
        // A boundary at 94 % is within two points of p95.
        let bad = [(Class::Hit, 94.0), (Class::Incremental, 6.0)];
        assert!(boundaries_clear(&bad).is_err());
        let bad50 = [(Class::Hit, 51.0), (Class::Run, 49.0)];
        assert!(boundaries_clear(&bad50).is_err());
    }

    #[test]
    fn cluster_specs_parse() {
        assert_eq!(cluster_capacities("c870x2").unwrap().len(), 2);
        assert_eq!(cluster_capacities("8800gtxx4").unwrap(), vec![768 << 20; 4]);
        assert_eq!(
            cluster_capacities("c870x2,8800gtx").unwrap(),
            vec![1500 << 20, 1500 << 20, 768 << 20]
        );
        assert!(cluster_capacities("nope").is_none());
    }
}
