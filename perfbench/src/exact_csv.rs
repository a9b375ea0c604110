//! `exact_csv`: `knnshap value --method exact` from CSV to CSV, at `nproc`
//! threads and at one thread — the paper's headline path (Theorem 1).

use crate::inputs::Inputs;
use crate::stats::median;
use crate::{
    read_values, same_bits, same_bytes, span, value_cmd, Ctx, K, SETUP_REPS, SETUP_SECONDS,
};
use knnshap_core::exact_unweighted::{knn_class_shapley_with_threads, theorem1_recurrence};
use knnshap_datasets::io::load_class_csv;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::argsort_by_distance;
use knnshap_numerics::exact::ExactVec;
use std::time::Instant;

fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.tiny {
        // Enough queries that the fold block count depends on the
        // per-thread constant, so the self-test can see it drift.
        (600, 40)
    } else {
        (300_000, 32)
    }
}

const FLAGS: &[&str] = &["--method", "exact"];

/// The set-up cost of the `value` command: the median wall time of the same
/// command against a single query, repeated `SETUP_REPS` times and for at
/// least `SETUP_SECONDS`. What remains is the work that does not scale with
/// the queries: process start, loading the training CSV, and writing one
/// value per training point.
fn setup_secs(ctx: &mut Ctx, inp: &Inputs) -> f64 {
    let one = Inputs {
        test: ctx.path("setup_test.csv"),
        queries: 1,
        ..inp.clone()
    };
    let first = std::fs::read_to_string(&inp.test)
        .ok()
        .and_then(|s| s.lines().next().map(|l| format!("{l}\n")));
    if first.is_none_or(|l| std::fs::write(&one.test, l).is_err()) {
        crate::fail("cannot write the single-query test set");
    }
    let out = ctx.path("setup_values.csv");
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        samples.push(ctx.cmd(&value_cmd(&one, ctx.nproc, &out, FLAGS)).secs);
    }
    median(&samples)
}

/// The timed loop: `value` at `nproc` threads (`wall_s`) and at one thread
/// (`wall_1t_s`). The set-up runs before it load the same files, so the
/// page cache is warm. Every CSV must equal the first 1-thread CSV byte for
/// byte.
pub fn run(ctx: &mut Ctx) {
    let (n, q) = sizes(ctx);
    let inp = &ctx.inputs("inputs", n, q);
    let nproc = ctx.nproc;
    ctx.threads = vec![("value", nproc), ("value_1t", 1)];
    let setup = setup_secs(ctx, inp);

    let (out_p, out_1, first) = (
        ctx.path("values_nproc.csv"),
        ctx.path("values_1t.csv"),
        ctx.path("values_first.csv"),
    );
    let (mut wall, mut wall_1t, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while ctx.again(start, wall.len()) {
        let r = ctx.cmd(&value_cmd(inp, nproc, &out_p, FLAGS));
        let r1 = ctx.cmd(&value_cmd(inp, 1, &out_1, FLAGS));
        if wall.is_empty() {
            std::fs::copy(&out_1, &first).ok();
            ctx.maybe_corrupt(&out_p);
        }
        ctx.check(
            same_bytes(&out_p, &out_1),
            "nproc-thread CSV differs from the 1-thread CSV",
        );
        ctx.check(same_bytes(&out_1, &first), "CSV differs across iterations");
        wall.push(r.secs);
        wall_1t.push(r1.secs);
        rss.push(r.maxrss_mb);
    }
    let rep = &mut ctx.report;
    rep.set("wall_s", median(&wall));
    rep.set("wall_1t_s", median(&wall_1t));
    rep.set("setup_s", setup);
    rep.set("peak_rss_mb", median(&rss));
    rep.detail("iterations", wall.len() as f64, "count");
}

/// Per-layer times of one exact valuation rebuilt from the public layer
/// functions, one span per call.
pub struct ExactLayers {
    pub parse_s: f64,
    pub distance_s: f64,
    /// `argsort_by_distance` in full: distance pass plus sort.
    pub argsort_s: f64,
    pub recurse_s: f64,
    pub fold_s: f64,
    pub merge_s: f64,
    pub finalize_s: f64,
    /// Wall time of the whole rebuild.
    pub wall_s: f64,
    /// Fold blocks of the partition the rebuild mirrored.
    pub fold_blocks: usize,
    pub train: ClassDataset,
    pub test: ClassDataset,
    pub values: Vec<f64>,
}

impl ExactLayers {
    /// The spans of work the program itself does. `distance_s` is left out:
    /// `argsort_s` already contains the distance pass.
    pub fn covered_s(&self) -> f64 {
        self.parse_s
            + self.argsort_s
            + self.recurse_s
            + self.fold_s
            + self.merge_s
            + self.finalize_s
    }

    /// The rebuild's wall time without the distance-only pass, which the
    /// program never runs on its own.
    pub fn traced_s(&self) -> f64 {
        self.wall_s - self.distance_s
    }

    /// Report the layers shared by every exact rebuild.
    pub fn report(&self, ctx: &mut Ctx, csv_bytes: u64) {
        let (n, q, d) = (self.train.len(), self.test.len(), self.train.dim());
        let pairs = (n * q) as f64;
        let rank_s = (self.argsort_s - self.distance_s).max(0.0);
        let rep = &mut ctx.report;
        rep.set("datasets.io.parse_s", self.parse_s);
        rep.set(
            "datasets.io.parse_mb_per_s",
            csv_bytes as f64 / 1e6 / self.parse_s,
        );
        rep.set("knn.distance_s", self.distance_s);
        rep.set("knn.distance_pairs", pairs);
        // Computed, not measured: every pair streams one train row and
        // reuses the resident query row.
        rep.set("knn.distance_gb_computed", pairs * (d * 4) as f64 / 1e9);
        rep.set("knn.rank_s", rank_s);
        rep.set("knn.rank_mitems_per_s", pairs / 1e6 / rank_s.max(1e-9));
        rep.set("core.exact.recurse_s", self.recurse_s);
        rep.set("numerics.exact.fold_s", self.fold_s);
        rep.set("numerics.exact.merge_s", self.merge_s);
        rep.set("core.finalize_s", self.finalize_s);
    }
}

/// Rebuild the exact values of `inp` layer by layer. The fold mirrors the
/// library's static partition for `fold_threads` workers (a few blocks per
/// worker, each with its own accumulator merged into the total; one direct
/// accumulator when serial), executed on this thread so the spans add up.
/// The partition copies `static_fold_block` in `crates/core/src/sharding.rs`
/// (`FOLD_BLOCKS_PER_THREAD` = 4, `FOLD_BLOCKS` = 32); the self-test fails
/// when `fold_blocks` stops matching the pool's block count.
pub fn exact_layers(inp: &Inputs, fold_threads: usize) -> ExactLayers {
    let t0 = Instant::now();
    let [mut parse_s, mut distance_s, mut argsort_s, mut recurse_s] = [0.0; 4];
    let [mut fold_s, mut merge_s, mut finalize_s] = [0.0; 3];
    let load = |p: &std::path::Path| {
        load_class_csv(p).unwrap_or_else(|e| crate::fail(&format!("{}: {e}", p.display())))
    };
    let (train, test) = span(&mut parse_s, || (load(&inp.train), load(&inp.test)));
    let (n, q) = (train.len(), test.len());

    let mut dists = vec![0f32; n];
    span(&mut distance_s, || {
        for j in 0..q {
            let query = test.x.row(j);
            for (d, row) in dists.iter_mut().zip(train.x.rows()) {
                *d = Metric::SquaredL2.eval(query, row);
            }
            std::hint::black_box(&dists);
        }
    });

    let serial = fold_threads <= 1;
    let per_block = if serial {
        q
    } else {
        q.div_ceil((4 * fold_threads).min(32))
    };
    let mut total = span(&mut fold_s, || ExactVec::zeros(n));
    let mut fold_blocks = 0;
    for lo in (0..q).step_by(per_block.max(1)) {
        fold_blocks += 1;
        let (mut acc, mut scratch) = span(&mut fold_s, || {
            ((!serial).then(|| ExactVec::zeros(n)), vec![0f64; n])
        });
        for j in lo..(lo + per_block).min(q) {
            let ranked = span(&mut argsort_s, || {
                argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2)
            });
            span(&mut recurse_s, || {
                scratch.fill(0.0);
                let y = test.y[j];
                theorem1_recurrence(
                    n,
                    K,
                    |r| f64::from(train.y[ranked[r].index as usize] == y),
                    |r, s| scratch[ranked[r].index as usize] = s,
                );
            });
            span(&mut fold_s, || {
                acc.as_mut().unwrap_or(&mut total).add_dense(&scratch)
            });
        }
        if let Some(acc) = acc {
            span(&mut merge_s, || {
                total.merge(&acc);
                drop(acc);
            });
        }
    }
    let values = span(&mut finalize_s, || {
        let v = (0..n).map(|i| total.value(i) / q as f64).collect();
        drop(total);
        v
    });
    ExactLayers {
        parse_s,
        distance_s,
        argsort_s,
        recurse_s,
        fold_s,
        merge_s,
        finalize_s,
        wall_s: t0.elapsed().as_secs_f64(),
        fold_blocks,
        train,
        test,
        values,
    }
}

/// `knnshap_obs` counters read before and after a call.
pub struct Counters {
    before: knnshap_obs::MetricsSnapshot,
    after: knnshap_obs::MetricsSnapshot,
}

impl Counters {
    /// How much counter `name` grew during the call.
    pub fn delta(&self, name: &str) -> f64 {
        let at = |s: &knnshap_obs::MetricsSnapshot| s.counter(name).unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }

    /// Report the `parallel.pool` counters of the call.
    pub fn report_pool(&self, rep: &mut crate::report::Report) {
        rep.set(
            "parallel.pool.utilization",
            self.delta("pool.busy_micros") / self.delta("pool.capacity_micros").max(1.0),
        );
        rep.set("parallel.pool.steals", self.delta("pool.steals"));
        rep.set("parallel.pool.blocks", self.delta("pool.blocks"));
    }
}

/// Run `f` with metrics enabled and read the counters around it.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    knnshap_obs::set_metrics(true);
    let before = knnshap_obs::snapshot();
    let out = f();
    let after = knnshap_obs::snapshot();
    (out, Counters { before, after })
}

/// The rebuild runs on one thread, so it is compared with the untraced
/// `--threads 1` command: `trace.overhead_frac` is the rebuild's time
/// against that command's, and `trace.coverage` the layer spans against it,
/// so process start and CSV writing show up as missing coverage.
pub fn trace(ctx: &mut Ctx) {
    let (n, q) = sizes(ctx);
    let inp = ctx.inputs("inputs", n, q);
    let nproc = ctx.nproc;
    ctx.threads = vec![
        ("value_1t", 1),
        ("trace", 1),
        ("pool_probe", nproc),
        ("mc", nproc),
    ];
    let out = ctx.path("values_1t.csv");
    let untraced = ctx.cmd(&value_cmd(&inp, 1, &out, FLAGS));
    ctx.maybe_corrupt(&out);
    let cli = read_values(&out);

    let layers = exact_layers(&inp, nproc);
    ctx.check(
        same_bits(&layers.values, &cli),
        "layer-by-layer rebuild differs from the CLI output",
    );
    let (lib, counters) =
        counted(|| knn_class_shapley_with_threads(&layers.train, &layers.test, K, nproc));
    counters.report_pool(&mut ctx.report);
    ctx.check(
        same_bits(lib.as_slice(), &layers.values),
        "library run differs from the layer-by-layer rebuild",
    );
    layers.report(ctx, inp.train_bytes + inp.test_bytes);
    crate::mc::trace(ctx, &inp, &layers.train, &layers.test);
    let rep = &mut ctx.report;
    rep.set("trace.coverage", layers.covered_s() / untraced.secs);
    rep.set(
        "trace.overhead_frac",
        layers.traced_s() / untraced.secs - 1.0,
    );
    rep.detail("untraced_wall_s", untraced.secs, "s");
    rep.detail("traced_wall_s", layers.traced_s(), "s");
    rep.detail("rebuild_fold_blocks", layers.fold_blocks as f64, "count");
}
