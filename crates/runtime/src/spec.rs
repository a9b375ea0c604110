//! The versioned on-disk job description: [`JobSpec`] (what the operator
//! asked for) → [`JobPlan`] (the spec plus everything the fleet must agree
//! on: estimator kind, job fingerprint, item counts, canonical shard and
//! checkpoint-chunk partitions).
//!
//! ## The `KNNJOBPLAN` file (version 1)
//!
//! A plan is one UTF-8 text file of `key value` lines, first line
//! `KNNJOBPLAN 1`. Keys are fixed and all required; values are written with
//! Rust's shortest round-trip float formatting, so a save/parse round trip
//! preserves every parameter bit-for-bit (and therefore preserves the job
//! fingerprint the parameters feed). Example:
//!
//! ```text
//! KNNJOBPLAN 1
//! task class
//! train /data/train.csv
//! test /data/test.csv
//! k 3
//! weight uniform
//! weight-param 0
//! method mc-improved
//! eps 0
//! perms 20000
//! seed 42
//! shards 8
//! checkpoint-chunks 4
//! kind mc-improved
//! fingerprint 9f1c2b3a4d5e6f70
//! n-train 100000
//! total-items 20000
//! ```
//!
//! The first twelve keys are the [`JobSpec`]; the last four are derived at
//! plan time ([`plan_job`]) from the *dataset contents* and pin the job's
//! identity: every worker re-derives the fingerprint from the files it
//! actually reads and refuses to compute against drifted data.
//!
//! ## Canonical partitions
//!
//! Shard `i` of `S` covers the canonical balanced range
//! `⌊i·T/S⌋ .. ⌊(i+1)·T/S⌋` (`knnshap_core::sharding::ShardSpec`). For
//! checkpointing, each shard is further split into `C` **micro-chunks**:
//! chunk `c` of shard `i` is `ShardSpec::new(i·C + c, S·C)`. Because the
//! balanced partition is *nested* — the cut points of the `S`-way split are
//! exactly the cut points `⌊j·C·T/(S·C)⌋` of the `(S·C)`-way split at
//! multiples of `C` — the chunks of shard `i` tile the shard's range
//! exactly, and absorbing them in order reproduces the one-shot shard
//! partial bit for bit (`ShardPartial::absorb_adjacent`).

use crate::layout::JobDirs;
use crate::{io_err, JobError};
use knnshap_core::sharding::{ShardKind, ShardSpec};
use knnshap_knn::weights::WeightFn;
use std::path::{Path, PathBuf};

/// Plan-file format version written/required by
/// [`JobPlan::to_file_string`]/[`JobPlan::parse`].
pub const PLAN_FORMAT_VERSION: u32 = 1;

/// First line of every plan file.
pub const PLAN_MAGIC: &str = "KNNJOBPLAN";

/// Which prediction task the datasets hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Classification CSVs (features…, integer label).
    Class,
    /// Regression CSVs (features…, float target).
    Reg,
}

impl TaskKind {
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Class => "class",
            TaskKind::Reg => "reg",
        }
    }
}

/// The estimator family a job runs, with its family-specific parameter.
///
/// The stochastic families carry an **a-priori** stream budget (the
/// sequential §6.2.2 heuristic stop cannot be sharded, so a fleet needs the
/// budget fixed up front). LSH is deliberately absent: its index is planned
/// from whole-test-set statistics and does not shard by test range (the CLI
/// explains this; `docs/sharding.md` documents the planned index-once /
/// stream-queries design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobMethod {
    /// Exact per-test decomposition (Theorems 1/6/7; weighted via
    /// [`JobSpec::weight`]).
    Exact,
    /// Truncated (ε, 0)-approximation (Theorem 2).
    Truncated { eps: f64 },
    /// Baseline Monte Carlo over `perms` permutation streams.
    McBaseline { perms: usize },
    /// Improved Monte Carlo (Algorithm 2) over `perms` permutation streams.
    McImproved { perms: usize },
    /// Group-testing baseline over `tests` coalition-test streams.
    GroupTesting { tests: usize },
}

impl JobMethod {
    pub fn name(self) -> &'static str {
        match self {
            JobMethod::Exact => "exact",
            JobMethod::Truncated { .. } => "truncated",
            JobMethod::McBaseline { .. } => "mc-baseline",
            JobMethod::McImproved { .. } => "mc-improved",
            JobMethod::GroupTesting { .. } => "group-testing",
        }
    }

    fn eps(self) -> f64 {
        match self {
            JobMethod::Truncated { eps } => eps,
            _ => 0.0,
        }
    }

    fn perms(self) -> usize {
        match self {
            JobMethod::McBaseline { perms } | JobMethod::McImproved { perms } => perms,
            JobMethod::GroupTesting { tests } => tests,
            _ => 0,
        }
    }
}

/// What the operator asked for — everything `shard-plan` needs to derive a
/// [`JobPlan`]. Every field is part of the job identity except `shards` and
/// `checkpoint_chunks`, which partition the work without affecting a single
/// output bit (the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub task: TaskKind,
    /// Training CSV (classification or regression layout per `task`).
    pub train: PathBuf,
    /// Test CSV.
    pub test: PathBuf,
    pub k: usize,
    pub weight: WeightFn,
    pub method: JobMethod,
    /// RNG seed of the stochastic families (ignored by the exact ones).
    pub seed: u64,
    /// Worker-visible shard count.
    pub shards: usize,
    /// Checkpoint micro-chunks per shard: a killed worker loses at most one
    /// chunk of work.
    pub checkpoint_chunks: usize,
}

impl JobSpec {
    /// Reject impossible combinations before any dataset is read.
    pub fn validate(&self) -> Result<(), JobError> {
        let bad = |m: String| Err(JobError::Spec(m));
        if self.k == 0 {
            return bad("k must be at least 1".into());
        }
        if self.shards == 0 {
            return bad("need at least 1 shard".into());
        }
        if self.checkpoint_chunks == 0 {
            return bad("need at least 1 checkpoint chunk per shard".into());
        }
        let uniform = matches!(self.weight, WeightFn::Uniform);
        match (self.task, self.method) {
            (TaskKind::Reg, JobMethod::Exact) => Ok(()),
            (TaskKind::Reg, m) => bad(format!(
                "regression jobs support method exact (got {})",
                m.name()
            )),
            (TaskKind::Class, JobMethod::Truncated { .. }) if !uniform => {
                bad("truncated supports uniform weights only".into())
            }
            (
                TaskKind::Class,
                JobMethod::McBaseline { perms: 0 }
                | JobMethod::McImproved { perms: 0 }
                | JobMethod::GroupTesting { tests: 0 },
            ) => bad(
                "sharded Monte Carlo / group testing needs a fixed stream budget: \
                 pass --perms N (the §6.2.2 heuristic stop is sequential and \
                 cannot be sharded)"
                    .into(),
            ),
            (TaskKind::Class, _) => Ok(()),
        }
    }
}

/// A planned job: the spec plus the derived identity every process in the
/// fleet cross-checks (estimator kind, dataset-content job fingerprint,
/// training-point and item counts).
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    pub spec: JobSpec,
    /// Estimator family the shard files will carry.
    pub kind: ShardKind,
    /// The `knnshap_core::sharding` job fingerprint (dataset contents +
    /// every output-affecting parameter).
    pub fingerprint: u64,
    pub n_train: u64,
    /// Total items: test points for the exact decompositions, stream budget
    /// for the stochastic ones.
    pub total_items: u64,
}

impl JobPlan {
    /// The canonical item range of worker-visible shard `i`.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        ShardSpec::new(shard, self.spec.shards).range(self.total_items as usize)
    }

    /// The canonical micro-chunk spec: chunk `chunk` of shard `shard`, in
    /// the nested `(shards × checkpoint_chunks)`-way partition.
    pub fn micro_spec(&self, shard: usize, chunk: usize) -> ShardSpec {
        let c = self.spec.checkpoint_chunks;
        assert!(chunk < c, "chunk {chunk} out of range 0..{c}");
        ShardSpec::new(shard * c + chunk, self.spec.shards * c)
    }

    /// Serialize to the versioned plan-file text.
    pub fn to_file_string(&self) -> String {
        let s = &self.spec;
        let (wname, wparam) = weight_parts(s.weight);
        format!(
            "{PLAN_MAGIC} {PLAN_FORMAT_VERSION}\n\
             task {}\n\
             train {}\n\
             test {}\n\
             k {}\n\
             weight {wname}\n\
             weight-param {wparam}\n\
             method {}\n\
             eps {}\n\
             perms {}\n\
             seed {}\n\
             shards {}\n\
             checkpoint-chunks {}\n\
             kind {}\n\
             fingerprint {:016x}\n\
             n-train {}\n\
             total-items {}\n",
            s.task.name(),
            s.train.display(),
            s.test.display(),
            s.k,
            s.method.name(),
            s.method.eps(),
            s.method.perms(),
            s.seed,
            s.shards,
            s.checkpoint_chunks,
            self.kind.name(),
            self.fingerprint,
            self.n_train,
            self.total_items,
        )
    }

    /// Parse a plan file, validating magic, version, and that every key is
    /// present exactly once.
    pub fn parse(text: &str) -> Result<JobPlan, JobError> {
        let bad = |m: String| JobError::Plan(m);
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let mut hp = header.splitn(2, ' ');
        if hp.next() != Some(PLAN_MAGIC) {
            return Err(bad("not a knnshap job plan (bad first line)".into()));
        }
        let version: u32 = hp
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("missing format version".into()))?;
        if version != PLAN_FORMAT_VERSION {
            return Err(bad(format!(
                "plan format version {version} is not supported (this build reads \
                 version {PLAN_FORMAT_VERSION})"
            )));
        }
        let mut kv = std::collections::BTreeMap::new();
        for (no, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("line {}: expected 'key value'", no + 2)))?;
            if kv.insert(key.to_string(), value.to_string()).is_some() {
                return Err(bad(format!("duplicate key '{key}'")));
            }
        }
        let mut take = |key: &str| {
            kv.remove(key)
                .ok_or_else(|| bad(format!("missing key '{key}'")))
        };
        let parse_num = |key: &str, value: &str, what: &str| {
            JobError::Plan(format!("key '{key}': '{value}' is not {what}"))
        };
        macro_rules! num {
            ($key:literal, $ty:ty, $what:literal) => {{
                let v = take($key)?;
                v.parse::<$ty>().map_err(|_| parse_num($key, &v, $what))?
            }};
        }

        let task = match take("task")?.as_str() {
            "class" => TaskKind::Class,
            "reg" => TaskKind::Reg,
            other => return Err(bad(format!("unknown task '{other}' (class, reg)"))),
        };
        let train = PathBuf::from(take("train")?);
        let test = PathBuf::from(take("test")?);
        let k = num!("k", usize, "an unsigned integer");
        let wname = take("weight")?;
        let wparam = num!("weight-param", f64, "a number");
        let weight = weight_from_parts(&wname, wparam)?;
        let method_name = take("method")?;
        let eps = num!("eps", f64, "a number");
        let perms = num!("perms", usize, "an unsigned integer");
        let method = match method_name.as_str() {
            "exact" => JobMethod::Exact,
            "truncated" => JobMethod::Truncated { eps },
            "mc-baseline" => JobMethod::McBaseline { perms },
            "mc-improved" => JobMethod::McImproved { perms },
            "group-testing" => JobMethod::GroupTesting { tests: perms },
            other => {
                return Err(bad(format!(
                    "unknown method '{other}' (exact, truncated, mc-baseline, \
                     mc-improved, group-testing)"
                )))
            }
        };
        let seed = num!("seed", u64, "an unsigned integer");
        let shards = num!("shards", usize, "an unsigned integer");
        let checkpoint_chunks = num!("checkpoint-chunks", usize, "an unsigned integer");
        let kind_name = take("kind")?;
        let kind = kind_from_name(&kind_name)
            .ok_or_else(|| bad(format!("unknown estimator kind '{kind_name}'")))?;
        let fp = take("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fp, 16)
            .map_err(|_| parse_num("fingerprint", &fp, "a hex integer"))?;
        let n_train = num!("n-train", u64, "an unsigned integer");
        let total_items = num!("total-items", u64, "an unsigned integer");
        if let Some(extra) = kv.keys().next() {
            return Err(bad(format!("unknown key '{extra}'")));
        }

        let plan = JobPlan {
            spec: JobSpec {
                task,
                train,
                test,
                k,
                weight,
                method,
                seed,
                shards,
                checkpoint_chunks,
            },
            kind,
            fingerprint,
            n_train,
            total_items,
        };
        plan.spec.validate()?;
        Ok(plan)
    }

    /// Write the plan into its job directory (atomically).
    pub fn save(&self, dirs: &JobDirs) -> Result<(), JobError> {
        dirs.create().map_err(|e| io_err(dirs.root(), e))?;
        crate::layout::write_atomic(&dirs.plan_path(), self.to_file_string().as_bytes())
            .map_err(|e| io_err(&dirs.plan_path(), e))
    }

    /// Read the plan from a job directory.
    pub fn load(dirs: &JobDirs) -> Result<JobPlan, JobError> {
        let path = dirs.plan_path();
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        JobPlan::parse(&text)
    }
}

/// Derive the [`JobPlan`] for a spec: load the datasets it names, validate
/// the combination, and compute the job identity (kind, dataset-content
/// fingerprint, item counts) — `dispatch::PreparedJob::from_spec`, the one
/// place fingerprints enter the system, without the bound datasets; workers
/// re-derive and compare (`PreparedJob::load`).
pub fn plan_job(spec: &JobSpec, threads: usize) -> Result<JobPlan, JobError> {
    crate::dispatch::PreparedJob::from_spec(spec, threads)
        .map(crate::dispatch::PreparedJob::into_plan)
}

/// `ShardKind` from its [`name`](ShardKind::name) (the plan file stores
/// names, not codes, to keep the file greppable).
pub fn kind_from_name(name: &str) -> Option<ShardKind> {
    Some(match name {
        "exact-class" => ShardKind::ExactClass,
        "exact-reg" => ShardKind::ExactReg,
        "truncated" => ShardKind::Truncated,
        "mc-baseline" => ShardKind::McBaseline,
        "mc-improved" => ShardKind::McImproved,
        "group-testing" => ShardKind::GroupTesting,
        _ => return None,
    })
}

/// `(name, param)` encoding of a weight function for the plan file.
fn weight_parts(w: WeightFn) -> (&'static str, f64) {
    match w {
        WeightFn::Uniform => ("uniform", 0.0),
        WeightFn::InverseDistance { eps } => ("inverse", eps as f64),
        WeightFn::Exponential { beta } => ("exponential", beta as f64),
    }
}

fn weight_from_parts(name: &str, param: f64) -> Result<WeightFn, JobError> {
    Ok(match name {
        "uniform" => WeightFn::Uniform,
        "inverse" => WeightFn::InverseDistance { eps: param as f32 },
        "exponential" => WeightFn::Exponential { beta: param as f32 },
        other => {
            return Err(JobError::Plan(format!(
                "unknown weight '{other}' (uniform, inverse, exponential)"
            )))
        }
    })
}

/// A path rendered relative-proof: `shard-plan` canonicalizes dataset paths
/// so workers launched from any working directory read the same files.
pub fn absolutize(path: &Path) -> PathBuf {
    std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            task: TaskKind::Class,
            train: "/tmp/train.csv".into(),
            test: "/tmp/test.csv".into(),
            k: 3,
            weight: WeightFn::InverseDistance { eps: 1e-3 },
            method: JobMethod::McImproved { perms: 500 },
            seed: 9,
            shards: 4,
            checkpoint_chunks: 3,
        }
    }

    fn plan() -> JobPlan {
        JobPlan {
            spec: spec(),
            kind: ShardKind::McImproved,
            fingerprint: 0x0123_4567_89ab_cdef,
            n_train: 100,
            total_items: 500,
        }
    }

    #[test]
    fn plan_file_round_trips_exactly() {
        let p = plan();
        let text = p.to_file_string();
        let back = JobPlan::parse(&text).unwrap();
        assert_eq!(back, p);
        // And the round trip is a fixed point of serialization.
        assert_eq!(back.to_file_string(), text);
    }

    #[test]
    fn parse_rejects_bad_headers_versions_and_keys() {
        let text = plan().to_file_string();
        let err = JobPlan::parse("NOTAPLAN 1\n").unwrap_err();
        assert!(err.to_string().contains("bad first line"), "{err}");
        let err = JobPlan::parse(&text.replace("KNNJOBPLAN 1", "KNNJOBPLAN 9")).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
        let err = JobPlan::parse(&text.replace("seed 9", "sneed 9")).unwrap_err();
        assert!(err.to_string().contains("missing key 'seed'"), "{err}");
        let err = JobPlan::parse(&format!("{text}seed 9\n")).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let err = JobPlan::parse(&text.replace("k 3", "k three")).unwrap_err();
        assert!(err.to_string().contains("not an unsigned"), "{err}");
    }

    #[test]
    fn validate_rejects_impossible_combinations() {
        let mut s = spec();
        s.task = TaskKind::Reg;
        assert!(s.validate().is_err(), "reg + mc");
        s.method = JobMethod::Exact;
        assert!(s.validate().is_ok(), "reg + exact weighted");
        s.weight = WeightFn::Uniform;
        assert!(s.validate().is_ok(), "reg + exact uniform");

        let mut s = spec();
        s.method = JobMethod::McBaseline { perms: 0 };
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("--perms"), "{err}");

        let mut s = spec();
        s.method = JobMethod::Truncated { eps: 0.1 };
        assert!(s.validate().is_err(), "truncated + weighted");

        let mut s = spec();
        s.shards = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.checkpoint_chunks = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn micro_chunks_refine_shard_ranges_exactly() {
        // The nested-partition property the checkpoint/resume design rests
        // on: for every (total, shards, chunks), the chunk ranges of shard i
        // tile shard i's range exactly, in order.
        for total in [0usize, 1, 7, 11, 97, 1000] {
            for shards in [1usize, 2, 3, 5, 8] {
                for chunks in [1usize, 2, 4, 7] {
                    let p = JobPlan {
                        total_items: total as u64,
                        spec: JobSpec {
                            shards,
                            checkpoint_chunks: chunks,
                            ..spec()
                        },
                        ..plan()
                    };
                    for i in 0..shards {
                        let want = p.shard_range(i);
                        let mut at = want.start;
                        for c in 0..chunks {
                            let r = p.micro_spec(i, c).range(total);
                            assert_eq!(r.start, at, "t={total} s={shards} c={chunks} i={i}");
                            at = r.end;
                        }
                        assert_eq!(at, want.end, "t={total} s={shards} c={chunks} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            ShardKind::ExactClass,
            ShardKind::ExactReg,
            ShardKind::Truncated,
            ShardKind::McBaseline,
            ShardKind::McImproved,
            ShardKind::GroupTesting,
        ] {
            assert_eq!(kind_from_name(kind.name()), Some(kind));
        }
        assert_eq!(kind_from_name("bogus"), None);
    }
}
