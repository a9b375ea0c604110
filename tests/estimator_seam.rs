//! The estimator seam's construction contract, over every shardable
//! configuration: a graph built from drifted data, a weighted truncated
//! job, `K = 0` and group testing over one training point are typed
//! `PipelineError`s from `Estimator::new` (or `Estimator::attach_graph`,
//! or the pipeline builder), never panics; a classification-only method on
//! regression data is a typed error too; and a graph-backed estimator
//! produces the brute-force partial's bytes.

use knnshap::datasets::synth::blobs::{self, BlobConfig};
use knnshap::datasets::synth::regression::{self, RegressionConfig};
use knnshap::datasets::{ClassDataset, RegDataset};
use knnshap::knn::graph::KnnGraph;
use knnshap::knn::WeightFn;
use knnshap::valuation::composite::GameForm;
use knnshap::valuation::curator::Ownership;
use knnshap::valuation::estimator::{Data, Estimator, Family};
use knnshap::valuation::pipeline::{KnnShapley, Method, PipelineError};
use knnshap::valuation::sharding::ShardSpec;

fn class_data() -> (ClassDataset, ClassDataset) {
    let cfg = BlobConfig {
        n: 14,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    (blobs::generate(&cfg), blobs::queries(&cfg, 4, 9))
}

fn reg_data() -> (RegDataset, RegDataset) {
    let cfg = RegressionConfig {
        n: 14,
        dim: 3,
        ..Default::default()
    };
    (regression::generate(&cfg), regression::queries(&cfg, 4))
}

/// The shardable configurations (uniform unless noted).
fn families() -> [(&'static str, bool, WeightFn, Family); 8] {
    let inv = WeightFn::InverseDistance { eps: 1e-3 };
    [
        ("exact class", true, WeightFn::Uniform, Family::Exact),
        ("weighted exact class", true, inv, Family::Exact),
        ("exact reg", false, WeightFn::Uniform, Family::Exact),
        ("weighted exact reg", false, inv, Family::Exact),
        (
            "truncated",
            true,
            WeightFn::Uniform,
            Family::Truncated { eps: 0.2 },
        ),
        (
            "mc baseline",
            true,
            WeightFn::Uniform,
            Family::McBaseline { perms: 9, seed: 1 },
        ),
        (
            "mc improved",
            true,
            WeightFn::Uniform,
            Family::McImproved { perms: 9, seed: 1 },
        ),
        (
            "group testing",
            true,
            WeightFn::Uniform,
            Family::GroupTesting { tests: 9, seed: 1 },
        ),
    ]
}

#[test]
fn drifted_graphs_and_weighted_truncation_are_typed_errors() {
    let (ctrain, ctest) = class_data();
    let (rtrain, rtest) = reg_data();
    let mut cdrift = ctrain.clone();
    cdrift.x.row_mut(0)[0] += 1.0;
    let mut rdrift = rtrain.clone();
    rdrift.x.row_mut(0)[0] += 1.0;
    let cstale = KnnGraph::build(&cdrift.x, &ctest.x, 1);
    let rstale = KnnGraph::build(&rdrift.x, &rtest.x, 1);
    for (what, class, weight, family) in families() {
        let (data, stale) = if class {
            (Data::class(&ctrain, &ctest), &cstale)
        } else {
            (Data::reg(&rtrain, &rtest), &rstale)
        };
        let err = Estimator::new(data.clone(), 2, weight, family, Some(stale)).err();
        assert!(
            matches!(err, Some(PipelineError::GraphMismatch(_))),
            "{what}: {err:?}"
        );
        let fresh = if class {
            KnnGraph::build(&ctrain.x, &ctest.x, 1)
        } else {
            KnnGraph::build(&rtrain.x, &rtest.x, 1)
        };
        let mut est = Estimator::new(data, 2, weight, family, None).expect(what);
        let stale = if class {
            cstale.clone()
        } else {
            rstale.clone()
        };
        assert!(
            matches!(
                est.attach_graph(stale),
                Err(PipelineError::GraphMismatch(_))
            ),
            "{what}: attach"
        );
        est.attach_graph(fresh).expect(what);
    }
    let err = Estimator::new(
        Data::class(&ctrain, &ctest),
        2,
        WeightFn::InverseDistance { eps: 1e-3 },
        Family::Truncated { eps: 0.2 },
        None,
    )
    .err();
    assert_eq!(err, Some(PipelineError::WeightedUnsupported("Truncated")));
}

#[test]
fn zero_k_and_one_point_group_testing_are_typed_errors() {
    let (ctrain, ctest) = class_data();
    let (rtrain, rtest) = reg_data();
    for (what, class, weight, family) in families() {
        let data = if class {
            Data::class(&ctrain, &ctest)
        } else {
            Data::reg(&rtrain, &rtest)
        };
        let err = Estimator::new(data, 0, weight, family, None).err();
        assert_eq!(err, Some(PipelineError::ZeroK), "{what}");
    }
    assert_eq!(
        KnnShapley::new(&ctrain, &ctest).k(0).run().err(),
        Some(PipelineError::ZeroK)
    );
    assert_eq!(
        KnnShapley::over(Data::reg(&rtrain, &rtest))
            .k(0)
            .run()
            .err(),
        Some(PipelineError::ZeroK)
    );
    // Group testing samples coalitions of at least two players.
    let one = ctrain.gather(&[0]);
    let family = Family::GroupTesting { tests: 9, seed: 1 };
    let err = Estimator::new(
        Data::class(&one, &ctest),
        1,
        WeightFn::Uniform,
        family,
        None,
    )
    .err();
    assert_eq!(
        err,
        Some(PipelineError::TooFewTrainPoints {
            method: "group testing",
            min: 2
        })
    );
}

#[test]
fn graph_backed_partials_carry_the_brute_force_bytes() {
    let (ctrain, ctest) = class_data();
    let (rtrain, rtest) = reg_data();
    let cgraph = KnnGraph::build(&ctrain.x, &ctest.x, 1);
    let rgraph = KnnGraph::build(&rtrain.x, &rtest.x, 1);
    for (what, class, weight, family) in families() {
        let (data, graph) = if class {
            (Data::class(&ctrain, &ctest), &cgraph)
        } else {
            (Data::reg(&rtrain, &rtest), &rgraph)
        };
        let brute = Estimator::new(data.clone(), 2, weight, family, None).expect(what);
        let backed = Estimator::new(data, 2, weight, family, Some(graph)).expect(what);
        assert_eq!(brute.identity(), backed.identity(), "{what}");
        for spec in [ShardSpec::new(0, 2), ShardSpec::new(1, 2)] {
            assert_eq!(
                brute.compute(spec, 1).to_bytes(),
                backed.compute(spec, 3).to_bytes(),
                "{what}"
            );
        }
    }
}

#[test]
fn classification_only_methods_on_regression_data_are_typed_errors() {
    let (rtrain, rtest) = reg_data();
    let builder = || KnnShapley::over(Data::reg(&rtrain, &rtest)).k(2);
    for (method, name) in [
        (Method::Truncated { eps: 0.2 }, "Truncated"),
        (Method::TruncatedTree { eps: 0.2 }, "TruncatedTree"),
        (
            Method::Lsh {
                eps: 0.2,
                delta: 0.1,
                max_tables: 4,
            },
            "Lsh",
        ),
    ] {
        let err = builder().method(method).run().err();
        assert_eq!(err, Some(PipelineError::TaskUnsupported(name)), "{name}");
    }
    let own = Ownership::round_robin(rtrain.len(), 3);
    let err = builder().run_curator(&own, GameForm::DataOnly).err();
    assert_eq!(
        err,
        Some(PipelineError::TaskUnsupported("curator valuation"))
    );
    // Bad data is still reported first, as `Estimator::new` reports it.
    let err = builder()
        .k(0)
        .method(Method::TruncatedTree { eps: 0.2 })
        .run()
        .err();
    assert_eq!(err, Some(PipelineError::ZeroK));
}
