//! The Monte Carlo layer (`core.mc`), traced inside the `exact_csv` traced
//! run on that workload's inputs. `value --method mc-improved` computes
//! distances once and never sorts. It has no timed workload of its own:
//! on a shared 2-core host its run-to-run spread exceeded the bound.

use crate::exact_csv::counted;
use crate::inputs::Inputs;
use crate::{read_values, same_bits, span, value_cmd, Ctx, K};
use knnshap_core::mc::{mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule};
use knnshap_datasets::ClassDataset;
use knnshap_knn::weights::WeightFn;

/// Permutations per estimate: at the `exact_csv` size (N = 3·10⁵) each one
/// takes about 0.2 s on 2 threads.
const PERMS: usize = 16;

/// Run `value --method mc-improved --perms P --seed S` once at `nproc`
/// threads, rebuild the estimate in-process on the parsed `train` and
/// `test` with a span per layer, and check the two agree bit for bit.
pub fn trace(ctx: &mut Ctx, inp: &Inputs, train: &ClassDataset, test: &ClassDataset) {
    let (nproc, seed) = (ctx.nproc, ctx.seed);
    let (perms_arg, seed_arg) = (PERMS.to_string(), seed.to_string());
    let flags = [
        "--method",
        "mc-improved",
        "--perms",
        &perms_arg,
        "--seed",
        &seed_arg,
    ];
    let out = ctx.path("values_mc.csv");
    let untraced = ctx.cmd(&value_cmd(inp, nproc, &out, &flags));
    let cli = read_values(&out);

    let [mut dist_s, mut perms_s] = [0.0; 2];
    let u = span(&mut dist_s, || {
        IncKnnUtility::classification(train, test, K, WeightFn::Uniform)
    });
    let (res, counters) = span(&mut perms_s, || {
        counted(|| {
            mc_shapley_improved_with_threads(&u, StoppingRule::Fixed(PERMS), seed, None, nproc)
        })
    });
    ctx.check(
        same_bits(res.values.as_slice(), &cli),
        "in-process MC estimate differs from the CLI output",
    );

    let rep = &mut ctx.report;
    rep.set("core.mc.dist_matrix_s", dist_s);
    rep.set("core.mc.perms_s", perms_s);
    rep.set("core.mc.perms_per_s", res.permutations as f64 / perms_s);
    rep.set("core.mc.perms", counters.delta("mc.perms"));
    rep.set("core.mc.rounds", counters.delta("mc.rounds"));
    rep.detail("mc_untraced_wall_s", untraced.secs, "s");
}
