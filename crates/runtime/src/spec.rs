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
//! plan time
//! ([`PreparedJob::from_spec_with_snapshot`](crate::dispatch::PreparedJob::from_spec_with_snapshot))
//! from the *dataset contents* and pin the job's identity: every worker
//! re-derives the fingerprint from the files it actually reads and refuses
//! to compute against drifted data.
//!
//! Each name is read and written by the table that owns it: `task` by
//! `knnshap_core::estimator::Task`, `weight` and `weight-param` by
//! `knnshap_knn::weights::WeightFn`, `method`, `eps`, `perms` and `seed` by
//! `knnshap_core::estimator::Family` (which also holds the `K` and
//! truncation rules), `kind` by `knnshap_core::sharding::ShardKind`. A
//! family writes `0` for a parameter it does not have (`seed 0` for exact
//! and truncated jobs) and ignores that key's value when parsing, so a plan
//! an earlier build wrote with the CLI's `--seed` there is the same job.
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
//! exactly, and folding them in order reproduces the one-shot shard
//! partial bit for bit (`knnshap_core::estimator::ShardFold`).

use crate::layout::JobDirs;
use crate::{io_err, JobError};
use knnshap_core::estimator::{Family, Task};
use knnshap_core::sharding::{ShardKind, ShardSpec};
use knnshap_knn::weights::WeightFn;
use std::path::{Path, PathBuf};

/// Plan-file format version written/required by
/// [`JobPlan::to_file_string`]/[`JobPlan::parse`].
pub const PLAN_FORMAT_VERSION: u32 = 1;

/// First line of every plan file.
pub const PLAN_MAGIC: &str = "KNNJOBPLAN";

/// What the operator asked for — everything `shard-plan` needs to derive a
/// [`JobPlan`]. Every field is part of the job identity except `shards` and
/// `checkpoint_chunks`, which partition the work without affecting a single
/// output bit (the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub task: Task,
    /// Training CSV (classification or regression layout per `task`).
    pub train: PathBuf,
    /// Test CSV.
    pub test: PathBuf,
    pub k: usize,
    pub weight: WeightFn,
    /// The estimator family, with its parameters (seed included). LSH is
    /// not a family: its index is planned from whole-test-set statistics
    /// and does not shard by test range (`docs/sharding.md`).
    pub family: Family,
    /// Worker-visible shard count.
    pub shards: usize,
    /// Checkpoint micro-chunks per shard: a killed worker loses at most one
    /// chunk of work.
    pub checkpoint_chunks: usize,
}

impl JobSpec {
    /// Reject impossible combinations before any dataset is read: the
    /// family's own rules ([`Family::check`]), then the job's.
    pub fn validate(&self) -> Result<(), JobError> {
        let bad = |m: String| Err(JobError::Spec(m));
        (self.family)
            .check(self.task, self.k, self.weight)
            .map_err(|e| JobError::Spec(e.to_string()))?;
        if self.shards == 0 {
            return bad("need at least 1 shard".into());
        }
        if self.checkpoint_chunks == 0 {
            return bad("need at least 1 checkpoint chunk per shard".into());
        }
        if self.task == Task::Reg && self.family != Family::Exact {
            return bad(format!(
                "regression jobs support method exact (got {})",
                self.family.name()
            ));
        }
        let streams = !matches!(self.family, Family::Exact | Family::Truncated { .. });
        if streams && self.family.params().1 == 0 {
            return bad(
                "sharded Monte Carlo / group testing needs a fixed stream budget: \
                 pass --perms N (the §6.2.2 heuristic stop is sequential and \
                 cannot be sharded)"
                    .into(),
            );
        }
        Ok(())
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

    /// Serialize to the versioned plan-file text. A family without an
    /// `eps`, a stream budget or a seed writes `0` for it.
    pub fn to_file_string(&self) -> String {
        let s = &self.spec;
        let (eps, perms, seed) = s.family.params();
        format!(
            "{PLAN_MAGIC} {PLAN_FORMAT_VERSION}\n\
             task {}\n\
             train {}\n\
             test {}\n\
             k {}\n\
             weight {}\n\
             weight-param {}\n\
             method {}\n\
             eps {eps}\n\
             perms {perms}\n\
             seed {seed}\n\
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
            s.weight.name(),
            s.weight.param(),
            s.family.name(),
            s.shards,
            s.checkpoint_chunks,
            self.kind.name(),
            self.fingerprint,
            self.n_train,
            self.total_items,
        )
    }

    /// Parse a plan file, validating magic, version, and that every key is
    /// present exactly once. Keys a family has no use for (`eps`, `perms`,
    /// `seed`) are read and dropped, so an exact plan that says `seed 42`
    /// is the plan that says `seed 0`.
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

        // Fields are read in file order: a struct literal evaluates its
        // fields as written.
        let spec = JobSpec {
            task: Task::parse(&take("task")?).map_err(bad)?,
            train: take("train")?.into(),
            test: take("test")?.into(),
            k: num!("k", usize, "an unsigned integer"),
            weight: {
                let name = take("weight")?;
                let param = num!("weight-param", f64, "a number");
                WeightFn::parse(&name, Some(param)).map_err(|e| bad(e.to_string()))?
            },
            family: {
                let name = take("method")?;
                let eps = num!("eps", f64, "a number");
                let perms = num!("perms", usize, "an unsigned integer");
                let seed = num!("seed", u64, "an unsigned integer");
                Family::parse(&name, eps, perms, seed).map_err(bad)?
            },
            shards: num!("shards", usize, "an unsigned integer"),
            checkpoint_chunks: num!("checkpoint-chunks", usize, "an unsigned integer"),
        };
        let kind_name = take("kind")?;
        let kind = ShardKind::from_name(&kind_name)
            .ok_or_else(|| bad(format!("unknown estimator kind '{kind_name}'")))?;
        let fp = take("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fp, 16)
            .map_err(|_| parse_num("fingerprint", &fp, "a hex integer"))?;
        let n_train = num!("n-train", u64, "an unsigned integer");
        let total_items = num!("total-items", u64, "an unsigned integer");
        if let Some(extra) = kv.keys().next() {
            return Err(bad(format!("unknown key '{extra}'")));
        }
        spec.validate()?;
        Ok(JobPlan {
            spec,
            kind,
            fingerprint,
            n_train,
            total_items,
        })
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
            task: Task::Class,
            train: "/tmp/train.csv".into(),
            test: "/tmp/test.csv".into(),
            k: 3,
            weight: WeightFn::InverseDistance { eps: 1e-3 },
            family: Family::McImproved {
                perms: 500,
                seed: 9,
            },
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

    /// One plan per family, both tasks and all three weights, as the
    /// builds before `JobSpec` held a `Family` wrote them (with the CLI's
    /// default `--seed 42` on the exact and truncated plans).
    const PARENT_PLANS: [&str; 9] = [
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight uniform\nweight-param 0\nmethod exact\neps 0\nperms 0\nseed 42\nshards 4\n\
         checkpoint-chunks 2\nkind exact-class\nfingerprint 0123456789abcdef\nn-train 100\n\
         total-items 20\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight inverse\nweight-param 0.0010000000474974513\nmethod exact\neps 0\nperms 0\n\
         seed 42\nshards 4\ncheckpoint-chunks 2\nkind exact-class\n\
         fingerprint fedcba9876543210\nn-train 100\ntotal-items 20\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight exponential\nweight-param 2.5\nmethod exact\neps 0\nperms 0\nseed 42\n\
         shards 4\ncheckpoint-chunks 2\nkind exact-class\nfingerprint 0000000000000001\n\
         n-train 100\ntotal-items 20\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight uniform\nweight-param 0\nmethod truncated\neps 0.1\nperms 0\nseed 42\n\
         shards 4\ncheckpoint-chunks 2\nkind truncated\nfingerprint 1111222233334444\n\
         n-train 100\ntotal-items 20\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight uniform\nweight-param 0\nmethod mc-baseline\neps 0\nperms 200\nseed 7\n\
         shards 4\ncheckpoint-chunks 2\nkind mc-baseline\nfingerprint aaaabbbbccccdddd\n\
         n-train 100\ntotal-items 200\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight inverse\nweight-param 0.009999999776482582\nmethod mc-improved\neps 0\n\
         perms 500\nseed 9\nshards 4\ncheckpoint-chunks 2\nkind mc-improved\n\
         fingerprint 0f0f0f0f0f0f0f0f\nn-train 100\ntotal-items 500\n",
        "KNNJOBPLAN 1\ntask class\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight exponential\nweight-param 1\nmethod group-testing\neps 0\nperms 300\nseed 3\n\
         shards 4\ncheckpoint-chunks 2\nkind group-testing\nfingerprint 8000000000000000\n\
         n-train 100\ntotal-items 300\n",
        "KNNJOBPLAN 1\ntask reg\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight uniform\nweight-param 0\nmethod exact\neps 0\nperms 0\nseed 42\nshards 4\n\
         checkpoint-chunks 2\nkind exact-reg\nfingerprint 123456789abcdef0\nn-train 50\n\
         total-items 7\n",
        "KNNJOBPLAN 1\ntask reg\ntrain /data/train.csv\ntest /data/test.csv\nk 3\n\
         weight inverse\nweight-param 0.0010000000474974513\nmethod exact\neps 0\nperms 0\n\
         seed 42\nshards 4\ncheckpoint-chunks 2\nkind exact-reg\n\
         fingerprint 0fedcba987654321\nn-train 50\ntotal-items 7\n",
    ];

    /// The plans [`PARENT_PLANS`] holds, built from their parts.
    fn golden_plans() -> [JobPlan; 9] {
        let plan = |task, weight, family, kind, fingerprint, n_train, total_items| JobPlan {
            spec: JobSpec {
                task,
                train: "/data/train.csv".into(),
                test: "/data/test.csv".into(),
                k: 3,
                weight,
                family,
                shards: 4,
                checkpoint_chunks: 2,
            },
            kind,
            fingerprint,
            n_train,
            total_items,
        };
        let (class, reg) = (Task::Class, Task::Reg);
        let uniform = WeightFn::Uniform;
        let inverse = |eps| WeightFn::InverseDistance { eps };
        let exponential = |beta| WeightFn::Exponential { beta };
        [
            plan(
                class,
                uniform,
                Family::Exact,
                ShardKind::ExactClass,
                0x0123_4567_89ab_cdef,
                100,
                20,
            ),
            plan(
                class,
                inverse(1e-3),
                Family::Exact,
                ShardKind::ExactClass,
                0xfedc_ba98_7654_3210,
                100,
                20,
            ),
            plan(
                class,
                exponential(2.5),
                Family::Exact,
                ShardKind::ExactClass,
                1,
                100,
                20,
            ),
            plan(
                class,
                uniform,
                Family::Truncated { eps: 0.1 },
                ShardKind::Truncated,
                0x1111_2222_3333_4444,
                100,
                20,
            ),
            plan(
                class,
                uniform,
                Family::McBaseline {
                    perms: 200,
                    seed: 7,
                },
                ShardKind::McBaseline,
                0xaaaa_bbbb_cccc_dddd,
                100,
                200,
            ),
            plan(
                class,
                inverse(0.01),
                Family::McImproved {
                    perms: 500,
                    seed: 9,
                },
                ShardKind::McImproved,
                0x0f0f_0f0f_0f0f_0f0f,
                100,
                500,
            ),
            plan(
                class,
                exponential(1.0),
                Family::GroupTesting {
                    tests: 300,
                    seed: 3,
                },
                ShardKind::GroupTesting,
                0x8000_0000_0000_0000,
                100,
                300,
            ),
            plan(
                reg,
                uniform,
                Family::Exact,
                ShardKind::ExactReg,
                0x1234_5678_9abc_def0,
                50,
                7,
            ),
            plan(
                reg,
                inverse(1e-3),
                Family::Exact,
                ShardKind::ExactReg,
                0x0fed_cba9_8765_4321,
                50,
                7,
            ),
        ]
    }

    /// The plan text changed in one place only: exact and truncated plans
    /// write `seed 0`. Every other line is the earlier builds' byte for
    /// byte, and their text parses to the same plan.
    #[test]
    fn plan_text_matches_the_earlier_format_but_for_the_unused_seed() {
        for (plan, parent) in golden_plans().iter().zip(PARENT_PLANS) {
            let text = plan.to_file_string();
            let unseeded = matches!(plan.spec.family, Family::Exact | Family::Truncated { .. });
            let want = if unseeded {
                parent.replace("\nseed 42\n", "\nseed 0\n")
            } else {
                parent.to_string()
            };
            assert_eq!(text, want, "{}", plan.spec.family.name());
            assert_eq!(&JobPlan::parse(parent).unwrap(), plan);
            assert_eq!(&JobPlan::parse(&text).unwrap(), plan);
        }
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
        for (from, to, says) in [
            (
                "task class",
                "task graph",
                "unknown task 'graph' (class, reg)",
            ),
            ("method mc-improved", "method lsh", "unknown method 'lsh'"),
            ("weight inverse", "weight gauss", "unknown weight 'gauss'"),
            (
                "kind mc-improved",
                "kind bogus",
                "unknown estimator kind 'bogus'",
            ),
        ] {
            let err = JobPlan::parse(&text.replace(from, to)).unwrap_err();
            assert!(err.to_string().contains(says), "{to}: {err}");
        }
    }

    /// A hand-edited weight parameter that would turn every weight into
    /// NaN is a plan error, as it is a CLI error.
    #[test]
    fn parse_rejects_weight_parameters_the_weight_cannot_use() {
        let text = plan().to_file_string();
        let at = "weight-param 0.0010000000474974513";
        assert!(text.contains(at), "{text}");
        for bad in ["NaN", "inf", "0", "-0.5"] {
            let err =
                JobPlan::parse(&text.replace(at, &format!("weight-param {bad}"))).unwrap_err();
            assert!(matches!(err, JobError::Plan(_)), "{bad}: {err}");
            assert!(
                err.to_string().contains("needs a finite eps > 0"),
                "{bad}: {err}"
            );
        }
        let text = text.replace("weight inverse", "weight exponential");
        let err = JobPlan::parse(&text.replace(at, "weight-param -1e30")).unwrap_err();
        assert!(
            err.to_string().contains("needs a finite beta >= 0"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_impossible_combinations() {
        let mut s = spec();
        s.task = Task::Reg;
        assert!(s.validate().is_err(), "reg + mc");
        s.family = Family::Exact;
        assert!(s.validate().is_ok(), "reg + exact weighted");
        s.weight = WeightFn::Uniform;
        assert!(s.validate().is_ok(), "reg + exact uniform");

        let mut s = spec();
        s.family = Family::McBaseline { perms: 0, seed: 9 };
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("--perms"), "{err}");

        let mut s = spec();
        s.family = Family::Truncated { eps: 0.1 };
        assert!(s.validate().is_err(), "truncated + weighted");

        let mut s = spec();
        s.k = 0;
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("K must be at least 1"), "{err}");

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

    /// The plan's `kind` key reads `ShardKind`'s own name table.
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
            assert_eq!(ShardKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ShardKind::from_name("bogus"), None);
    }
}
