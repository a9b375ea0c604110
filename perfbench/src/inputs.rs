//! Seeded input generation, cached by `(seed, size)`.
//!
//! Inputs are 32-dimensional MNIST-like embeddings with 10 classes, built
//! in-process by `knnshap_datasets` with the workload seed as the blob
//! generator's seed, and written with the library's own CSV writer. The
//! `knnshap synth` command is not used: it ignores `--seed` for the
//! embedding kinds.

use knnshap_datasets::io::save_class_csv;
use knnshap_datasets::synth::blobs;
use knnshap_datasets::synth::deepfeat::EmbeddingSpec;
use knnshap_datasets::ClassDataset;
use std::path::{Path, PathBuf};

/// A generated train/test CSV pair on disk.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub train: PathBuf,
    pub test: PathBuf,
    pub n: usize,
    pub dim: usize,
    pub queries: usize,
    pub train_bytes: u64,
    pub test_bytes: u64,
}

/// The embedding spec of a workload: `n` points, generator seed `seed`.
pub fn spec(seed: u64, n: usize) -> EmbeddingSpec {
    let mut s = EmbeddingSpec::mnist_like(n);
    s.cfg.seed = seed;
    s
}

/// Rows drawn from the same mixture as the training set but from their
/// own stream — candidates for inserts and what-if requests.
pub fn candidates(seed: u64, n: usize, count: usize) -> ClassDataset {
    blobs::queries(&spec(seed, n).cfg, count, seed ^ 0xC0DE_CAFE)
}

/// Write (or reuse) `dir/train.csv` and `dir/test.csv` for `(seed, n,
/// queries)`. A stamp file records what the CSVs hold; anything else in
/// `dir` is regenerated, so the cache holds one input set per directory.
pub fn prepare(dir: &Path, seed: u64, n: usize, queries: usize) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let stamp = dir.join("inputs.stamp");
    let want = format!("seed={seed} n={n} queries={queries}\n");
    let (train, test) = (dir.join("train.csv"), dir.join("test.csv"));
    let cached = std::fs::read_to_string(&stamp).is_ok_and(|s| s == want)
        && train.is_file()
        && test.is_file();
    if !cached {
        std::fs::remove_file(&stamp).ok();
        let s = spec(seed, n);
        let io = |e: knnshap_datasets::io::IoError| std::io::Error::other(e.to_string());
        save_class_csv(&train, &s.generate()).map_err(io)?;
        save_class_csv(&test, &s.queries(queries)).map_err(io)?;
        std::fs::write(&stamp, want)?;
    }
    Ok(Inputs {
        train_bytes: std::fs::metadata(&train)?.len(),
        test_bytes: std::fs::metadata(&test)?.len(),
        train,
        test,
        n,
        dim: spec(seed, n).cfg.dim,
        queries,
    })
}
