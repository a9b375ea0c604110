//! Cross-crate integration: every exact algorithm in the workspace agrees
//! with the O(2^N) Shapley enumeration, on randomized instances, via
//! property-based testing (proptest). This is the repository's strongest
//! correctness statement: Theorems 1, 6, 7, 8, 9, 10 and 11 are all checked
//! against the definition of the Shapley value itself.

use knnshap::datasets::{ClassDataset, Features, RegDataset};
use knnshap::knn::WeightFn;
use knnshap::valuation::composite::{
    composite_knn_class_shapley_single, composite_knn_reg_shapley_single, CompositeUtility,
    GameForm,
};
use knnshap::valuation::curator::{curator_class_shapley_single, Ownership, SellerUtility};
use knnshap::valuation::estimator::{Data, Estimator, Family};
use knnshap::valuation::exact_enum::shapley_enumeration;
use knnshap::valuation::exact_regression::knn_reg_shapley_single;
use knnshap::valuation::exact_unweighted::{
    knn_class_shapley_single, knn_class_shapley_with_threads,
};
use knnshap::valuation::exact_weighted::{
    weighted_knn_class_shapley, weighted_knn_class_shapley_single, weighted_knn_reg_shapley,
    weighted_knn_reg_shapley_single,
};
use knnshap::valuation::utility::{KnnClassUtility, KnnRegUtility};
use proptest::prelude::*;

fn class_instance(
    feats: &[f32],
    labels: &[u32],
    query: (f32, f32),
    qlabel: u32,
) -> (ClassDataset, ClassDataset) {
    let n = labels.len();
    let train = ClassDataset::new(
        Features::new(feats[..n * 2].to_vec(), 2),
        labels.to_vec(),
        3,
    );
    let test = ClassDataset::new(Features::new(vec![query.0, query.1], 2), vec![qlabel], 3);
    (train, test)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem1_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 16),
        labels in prop::collection::vec(0u32..3, 8),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qlabel in 0u32..3,
        k in 1usize..10,
    ) {
        let (train, test) = class_instance(&feats, &labels, (qx, qy), qlabel);
        let fast = knn_class_shapley_single(&train, test.x.row(0), qlabel, k);
        let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &test, k));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn theorem6_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 16),
        targets in prop::collection::vec(-2.0f64..2.0, 8),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qt in -2.0f64..2.0,
        k in 1usize..10,
    ) {
        let train = RegDataset::new(Features::new(feats.clone(), 2), targets);
        let test = RegDataset::new(Features::new(vec![qx, qy], 2), vec![qt]);
        let fast = knn_reg_shapley_single(&train, test.x.row(0), qt, k);
        let truth = shapley_enumeration(&KnnRegUtility::unweighted(&train, &test, k));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn theorem7_matches_enumeration_classification(
        feats in prop::collection::vec(-1.0f32..1.0, 14),
        labels in prop::collection::vec(0u32..3, 7),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qlabel in 0u32..3,
        k in 1usize..4,
    ) {
        let (train, test) = class_instance(&feats, &labels, (qx, qy), qlabel);
        let w = WeightFn::InverseDistance { eps: 1e-3 };
        let fast = weighted_knn_class_shapley_single(&train, test.x.row(0), qlabel, k, w);
        let truth = shapley_enumeration(&KnnClassUtility::new(&train, &test, k, w));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn theorem7_matches_enumeration_regression(
        feats in prop::collection::vec(-1.0f32..1.0, 12),
        targets in prop::collection::vec(-2.0f64..2.0, 6),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qt in -2.0f64..2.0,
        k in 1usize..4,
    ) {
        let train = RegDataset::new(Features::new(feats.clone(), 2), targets);
        let test = RegDataset::new(Features::new(vec![qx, qy], 2), vec![qt]);
        let w = WeightFn::Exponential { beta: 1.0 };
        let fast = weighted_knn_reg_shapley_single(&train, test.x.row(0), qt, k, w);
        let truth = shapley_enumeration(&KnnRegUtility::new(&train, &test, k, w));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn theorem8_matches_seller_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 18),
        labels in prop::collection::vec(0u32..2, 9),
        owners in prop::collection::vec(0u32..4, 9),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qlabel in 0u32..2,
        k in 1usize..4,
    ) {
        let n = labels.len();
        let train = ClassDataset::new(Features::new(feats[..n * 2].to_vec(), 2), labels.clone(), 2);
        let test = ClassDataset::new(Features::new(vec![qx, qy], 2), vec![qlabel], 2);
        let ownership = Ownership::new(owners.clone(), 4);
        let point_u = KnnClassUtility::unweighted(&train, &test, k);
        let seller_u = SellerUtility { point_utility: &point_u, ownership: &ownership };
        let truth = shapley_enumeration(&seller_u);
        let fast = curator_class_shapley_single(
            &train, &ownership, test.x.row(0), qlabel, k, WeightFn::Uniform, GameForm::DataOnly,
        );
        prop_assert!(fast.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn theorems9_and_10_match_composite_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 14),
        labels in prop::collection::vec(0u32..2, 7),
        targets in prop::collection::vec(-1.0f64..1.0, 7),
        qx in -1.0f32..1.0,
        qy in -1.0f32..1.0,
        qlabel in 0u32..2,
        qt in -1.0f64..1.0,
        k in 1usize..4,
    ) {
        // classification (Theorem 9)
        let (train, test) = class_instance(&feats, &labels, (qx, qy), qlabel);
        let base = KnnClassUtility::unweighted(&train, &test, k);
        let comp = CompositeUtility::new(&base);
        let truth = shapley_enumeration(&comp);
        let fast = composite_knn_class_shapley_single(&train, test.x.row(0), qlabel, k);
        for i in 0..train.len() {
            prop_assert!((fast.sellers[i] - truth[i]).abs() < 1e-9);
        }
        prop_assert!((fast.analyst - truth[comp.analyst_player()]).abs() < 1e-9);

        // regression (Theorem 10) — recursion requires K < N
        let rtrain = RegDataset::new(Features::new(feats.clone(), 2), targets);
        let rtest = RegDataset::new(Features::new(vec![qx, qy], 2), vec![qt]);
        let rbase = KnnRegUtility::unweighted(&rtrain, &rtest, k);
        let rcomp = CompositeUtility::new(&rbase);
        let rtruth = shapley_enumeration(&rcomp);
        let rfast = composite_knn_reg_shapley_single(&rtrain, rtest.x.row(0), qt, k);
        for i in 0..rtrain.len() {
            prop_assert!((rfast.sellers[i] - rtruth[i]).abs() < 1e-8);
        }
        prop_assert!((rfast.analyst - rtruth[rcomp.analyst_player()]).abs() < 1e-8);
    }

    // ------------------------------------------------------------------
    // Golden-value checks for the parallel multi-test estimators: the exact
    // fold over test points, claimed by workers from one counter, must
    // still reproduce the brute-force enumeration of the *averaged* game,
    // at an intentionally parallel thread count.
    // ------------------------------------------------------------------

    #[test]
    fn multi_test_class_parallel_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 16),
        labels in prop::collection::vec(0u32..3, 8),
        qfeats in prop::collection::vec(-1.0f32..1.0, 6),
        qlabels in prop::collection::vec(0u32..3, 3),
        k in 1usize..10,
    ) {
        let n = labels.len();
        let train = ClassDataset::new(Features::new(feats[..n * 2].to_vec(), 2), labels.clone(), 3);
        let test = ClassDataset::new(Features::new(qfeats.clone(), 2), qlabels.clone(), 3);
        let fast = knn_class_shapley_with_threads(&train, &test, k, 4);
        let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &test, k));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn multi_test_reg_parallel_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 16),
        targets in prop::collection::vec(-2.0f64..2.0, 8),
        qfeats in prop::collection::vec(-1.0f32..1.0, 6),
        qtargets in prop::collection::vec(-2.0f64..2.0, 3),
        k in 1usize..10,
    ) {
        let train = RegDataset::new(Features::new(feats.clone(), 2), targets);
        let test = RegDataset::new(Features::new(qfeats.clone(), 2), qtargets);
        let est = Estimator::new(Data::reg(&train, &test), k, WeightFn::Uniform, Family::Exact, None);
        let fast = est.unwrap().run(4).values;
        let truth = shapley_enumeration(&KnnRegUtility::unweighted(&train, &test, k));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-8);
    }

    #[test]
    fn multi_test_weighted_class_parallel_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 14),
        labels in prop::collection::vec(0u32..3, 7),
        qfeats in prop::collection::vec(-1.0f32..1.0, 4),
        qlabels in prop::collection::vec(0u32..3, 2),
        k in 1usize..4,
    ) {
        let n = labels.len();
        let train = ClassDataset::new(Features::new(feats[..n * 2].to_vec(), 2), labels.clone(), 3);
        let test = ClassDataset::new(Features::new(qfeats.clone(), 2), qlabels.clone(), 3);
        let w = WeightFn::InverseDistance { eps: 1e-3 };
        let fast = weighted_knn_class_shapley(&train, &test, k, w, 4);
        let truth = shapley_enumeration(&KnnClassUtility::new(&train, &test, k, w));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn multi_test_weighted_reg_parallel_matches_enumeration(
        feats in prop::collection::vec(-1.0f32..1.0, 12),
        targets in prop::collection::vec(-2.0f64..2.0, 6),
        qfeats in prop::collection::vec(-1.0f32..1.0, 4),
        qtargets in prop::collection::vec(-2.0f64..2.0, 2),
        k in 1usize..4,
    ) {
        let train = RegDataset::new(Features::new(feats.clone(), 2), targets);
        let test = RegDataset::new(Features::new(qfeats.clone(), 2), qtargets);
        let w = WeightFn::Exponential { beta: 1.0 };
        let fast = weighted_knn_reg_shapley(&train, &test, k, w, 4);
        let truth = shapley_enumeration(&KnnRegUtility::new(&train, &test, k, w));
        prop_assert!(fast.max_abs_diff(&truth) < 1e-8);
    }
}
