//! Property-based invariants over random schemas, datasets and queries.

use acqp::core::prelude::*;
use proptest::prelude::*;

mod common;
use common::{instance_strategy, Instance};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every plan from every planner computes exactly φ(x) on every
    /// tuple, and the claimed model cost equals the training mean.
    #[test]
    fn planners_always_exact(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let plans = vec![
            SeqPlanner::naive().plan_with_cost(&schema, &query, &est).unwrap(),
            SeqPlanner::greedy().plan_with_cost(&schema, &query, &est).unwrap(),
            SeqPlanner::optimal().plan_with_cost(&schema, &query, &est).unwrap(),
            GreedyPlanner::new(4).plan_with_cost(&schema, &query, &est).unwrap(),
        ];
        for (plan, claimed) in plans {
            let rep = measure(&plan, &query, &schema, &data);
            prop_assert!(rep.all_correct, "incorrect plan {plan:?}");
            prop_assert!((claimed - rep.mean_cost).abs() < 1e-6,
                "claimed {claimed} vs measured {}", rep.mean_cost);
        }
    }

    /// The exhaustive optimum never exceeds any other planner's cost on
    /// the training distribution (grids aligned).
    #[test]
    fn exhaustive_dominates(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (exh, ce, used) = ExhaustivePlanner::new()
            .max_subproblems(500_000)
            .plan_with_stats(&schema, &query, &est)
            .unwrap();
        prop_assume!(used <= 500_000); // only check proven optima
        let rep = measure(&exh, &query, &schema, &data);
        prop_assert!(rep.all_correct);
        prop_assert!((ce - rep.mean_cost).abs() < 1e-6);
        for (plan, _) in [
            SeqPlanner::optimal().plan_with_cost(&schema, &query, &est).unwrap(),
            GreedyPlanner::new(6).plan_with_cost(&schema, &query, &est).unwrap(),
        ] {
            let other = measure(&plan, &query, &schema, &data).mean_cost;
            prop_assert!(ce <= other + 1e-6, "exhaustive {ce} > other {other}");
        }
    }

    /// Wire encoding round-trips and the byte-code interpreter agrees
    /// with the tree executor on every tuple.
    #[test]
    fn wire_format_and_interpreter_agree(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let plan = GreedyPlanner::new(5).plan(&schema, &query, &est).unwrap();
        let wire = plan.encode();
        prop_assert_eq!(&Plan::decode(&wire).unwrap(), &plan);
        for row in 0..data.len() {
            let a = execute(&plan, &query, &schema, &mut RowSource::new(&data, row));
            let mut st = TupleState::new(schema.len());
            let verdict = acqp::sensornet::execute_wire(
                &wire, &query, &schema, &mut st, &mut RowSource::new(&data, row)).unwrap();
            let b = st.into_outcome(verdict);
            prop_assert_eq!(a.verdict, b.verdict);
            prop_assert!((a.cost - b.cost).abs() < 1e-12);
            prop_assert_eq!(a.acquired, b.acquired);
        }
    }

    /// Estimator laws: histograms are distributions, refinement is
    /// monotone in mass, and truth tables are consistent with direct
    /// counting.
    #[test]
    fn estimator_laws(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        prop_assert!((est.mass(&root) - 1.0).abs() < 1e-9);
        for a in 0..schema.len() {
            let h = est.hist(&root, a);
            prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(h.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            let k = schema.domain(a);
            if k >= 2 {
                let child = est.refine(&root, a, Range::new(0, k / 2));
                prop_assert!(est.mass(&child) <= est.mass(&root) + 1e-12);
                prop_assert!(est.support(&child) <= est.support(&root));
            }
        }
        let t = est.truth_table(&root, &query);
        let direct = (0..data.len())
            .filter(|&r| query.eval_with(|a| data.value(r, a)))
            .count() as f64;
        let full_mask = (1u64 << query.len()) - 1;
        prop_assert!((t.weight_superset(full_mask) - direct).abs() < 1e-9);
    }

    /// Simplification preserves every verdict and never increases
    /// measured cost or wire size.
    #[test]
    fn simplify_is_sound_and_non_increasing(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let plan = GreedyPlanner::new(5).plan(&schema, &query, &est).unwrap();
        let simp = plan.simplify();
        prop_assert!(simp.wire_size() <= plan.wire_size());
        let a = measure(&plan, &query, &schema, &data);
        let b = measure(&simp, &query, &schema, &data);
        prop_assert!(a.all_correct && b.all_correct);
        prop_assert!(b.mean_cost <= a.mean_cost + 1e-9);
        prop_assert!((a.pass_rate - b.pass_rate).abs() < 1e-12);
    }

    /// Explain totals equal the Eq.(3) expected cost for every planner
    /// output.
    #[test]
    fn explain_totals_match(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let plan = GreedyPlanner::new(4).plan(&schema, &query, &est).unwrap();
        let ex = explain(&plan, &query, &schema, &CostModel::PerAttribute, &est);
        let want = expected_cost(&plan, &query, &schema, &est);
        prop_assert!((ex.total_cost() - want).abs() < 1e-9);
    }

    /// Sequential-plan expected cost from the truth table equals a
    /// brute-force per-row simulation.
    #[test]
    fn seq_cost_matches_simulation(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        let table = est.truth_table(&root, &query);
        let order: Vec<usize> = (0..query.len()).collect();
        let eff: Vec<f64> = query
            .preds()
            .iter()
            .map(|p| schema.cost(p.attr()))
            .collect();
        let model = table.seq_cost(&order, &eff);
        let plan = Plan::Seq(SeqOrder::new(order));
        let measured = measure(&plan, &query, &schema, &data).mean_cost;
        prop_assert!((model - measured).abs() < 1e-9, "{model} vs {measured}");
    }
}
