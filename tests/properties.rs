//! Property-based tests of the core invariants.

use dope_core::nest;
use dope_core::{Config, ProgramShape, ShapeNode, TaskKind};
use dope_mechanisms::WqLinear;
use proptest::prelude::*;

/// An arbitrary two-level shape: optional sequential endpoints around one
/// parallel leaf, plus an optional sequential-transaction alternative.
fn two_level_shape(seq_endpoints: bool, seq_alt: bool, cap: Option<u32>) -> ProgramShape {
    let mut stages = Vec::new();
    if seq_endpoints {
        stages.push(ShapeNode::leaf("read", TaskKind::Seq));
    }
    let mut par = ShapeNode::leaf("work", TaskKind::Par);
    par.max_extent = cap;
    stages.push(par);
    if seq_endpoints {
        stages.push(ShapeNode::leaf("write", TaskKind::Seq));
    }
    let mut alternatives = vec![stages];
    if seq_alt {
        alternatives.push(vec![ShapeNode::leaf("whole", TaskKind::Seq)]);
    }
    ProgramShape::new(vec![ShapeNode {
        name: "outer".into(),
        kind: TaskKind::Par,
        max_extent: None,
        alternatives,
    }])
}

proptest! {
    /// Every configuration built by `config_for_width` validates against
    /// its own shape and the thread budget, for any width request.
    #[test]
    fn config_for_width_always_validates(
        threads in 1u32..64,
        width in 0u32..64,
        seq_endpoints in any::<bool>(),
        seq_alt in any::<bool>(),
        cap in prop::option::of(1u32..16),
    ) {
        let shape = two_level_shape(seq_endpoints, seq_alt, cap);
        let nest = nest::find_two_level(&shape).expect("two-level shape");
        // Feasibility precondition (documented on `config_for_width`):
        // the budget must fit the smallest representable transaction.
        let min_footprint = if seq_alt {
            1
        } else {
            nest::seq_leaves(&shape, &nest) + 1
        };
        prop_assume!(threads >= min_footprint);
        let config = nest::config_for_width(&shape, &nest, threads, width);
        prop_assert!(config.validate(&shape, threads).is_ok(),
            "width {width} threads {threads}: {config}");
    }

    /// Width round-trips through the configuration when it is
    /// representable (above the sequential-endpoint floor and below caps).
    #[test]
    fn width_roundtrips_when_representable(
        threads in 4u32..64,
        width in 1u32..24,
    ) {
        let shape = two_level_shape(true, true, None);
        let nest = nest::find_two_level(&shape).expect("two-level shape");
        let config = nest::config_for_width(&shape, &nest, threads, width);
        let observed = nest::width_of(&config, &nest);
        // Requests are clamped to the thread budget first; below the
        // sequential-endpoint floor they collapse to the sequential
        // alternative.
        let clamped = width.min(threads);
        if clamped > 2 {
            prop_assert_eq!(observed, clamped);
        } else {
            prop_assert_eq!(observed, 1, "sub-floor widths clamp to sequential");
        }
    }

    /// The even static split never exceeds its budget and never assigns a
    /// zero extent.
    #[test]
    fn even_split_respects_budget(
        threads in 1u32..128,
        par_stages in 1usize..6,
        seq_stages in 0usize..3,
    ) {
        let mut stages = Vec::new();
        for i in 0..seq_stages {
            stages.push(ShapeNode::leaf(format!("s{i}"), TaskKind::Seq));
        }
        for i in 0..par_stages {
            stages.push(ShapeNode::leaf(format!("p{i}"), TaskKind::Par));
        }
        let shape = ProgramShape::new(stages);
        let config = Config::even(&shape, threads);
        prop_assert!(config.total_threads() >= (seq_stages + par_stages) as u32);
        // The even split gives sequential tasks one thread and spreads the
        // rest; it may exceed a *tiny* budget (fewer threads than tasks)
        // but never a feasible one.
        if threads >= (seq_stages + par_stages) as u32 {
            prop_assert!(config.total_threads() <= threads.max(1),
                "{} > {threads}", config.total_threads());
        }
    }

    /// WQ-Linear's width is monotone non-increasing in queue occupancy and
    /// always within `[Mmin, Mmax]` (Equation 2).
    #[test]
    fn wq_linear_is_monotone_and_bounded(
        m_min in 1u32..4,
        span in 0u32..12,
        q_max in 1.0f64..64.0,
        occupancies in prop::collection::vec(0.0f64..128.0, 1..32),
    ) {
        let m_max = m_min + span;
        let mech = WqLinear::new(m_min, m_max, q_max);
        let mut sorted = occupancies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = u32::MAX;
        for occ in sorted {
            let w = mech.width_for_occupancy(occ);
            prop_assert!(w >= m_min && w <= m_max);
            prop_assert!(w <= last, "width must not grow with occupancy");
            last = w;
        }
    }

    /// Response statistics: percentiles are order statistics — bounded by
    /// min and max, monotone in the quantile.
    #[test]
    fn percentiles_are_monotone(
        samples in prop::collection::vec(0.0f64..1e6, 1..64),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut stats = dope_workload::ResponseStats::new();
        for s in &samples {
            stats.record(*s);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = stats.percentile(lo).expect("non-empty");
        let p_hi = stats.percentile(hi).expect("non-empty");
        prop_assert!(p_lo <= p_hi);
        prop_assert!(p_hi <= stats.max().expect("non-empty"));
    }

    /// The open-system simulator conserves requests: everything submitted
    /// completes, exactly once, with non-negative response times.
    #[test]
    fn simulator_conserves_requests(
        load in 0.1f64..1.2,
        width in 1u32..10,
        requests in 10usize..120,
        seed in 0u64..1000,
    ) {
        use dope_core::{Resources, StaticMechanism};
        use dope_sim::system::{run_system, SystemParams};
        use dope_sim::AmdahlProfile;
        use dope_sim::system::TwoLevelModel;
        use dope_workload::ArrivalSchedule;

        let model = TwoLevelModel::pipeline(
            "t",
            AmdahlProfile::new(5.0, 0.95, 0.1, 0.05),
        );
        let schedule = ArrivalSchedule::for_load_factor(
            load,
            model.max_throughput(24, 1),
            requests,
            seed,
        );
        let mut mech = StaticMechanism::new(model.config_for_width(24, width));
        let out = run_system(
            &model,
            &schedule,
            &mut mech,
            Resources::threads(24),
            &SystemParams::default(),
        );
        prop_assert_eq!(out.completed, requests as u64);
        prop_assert_eq!(out.response.count(), requests);
        prop_assert!(out.response.min().expect("non-empty") >= 0.0);
        // Response is never below the pure service time.
        let exec = model.exec_time(model.width_of(&out.final_config));
        prop_assert!(out.response.percentile(0.0).expect("non-empty") >= exec - 1e-9);
    }
}

/// Reference implementation of thread accounting, written independently
/// of `TaskConfig::threads`: leaves cost their extent, nests cost
/// `extent x max(1, sum(children))`, computed in u64 so the property
/// can also assert that no overflow occurred in the tested range.
fn reference_threads(task: &dope_core::TaskConfig) -> u64 {
    match &task.nested {
        None => u64::from(task.extent),
        Some(nest) => {
            let inner: u64 = nest.tasks.iter().map(reference_threads).sum();
            u64::from(task.extent) * inner.max(1)
        }
    }
}

proptest! {
    /// `TaskConfig::threads` agrees with the independent recursive sum on
    /// arbitrary three-level trees (leaves at the root, a nest of leaves,
    /// and a nest containing a further nest).
    #[test]
    fn task_config_threads_matches_reference(
        leaf_extents in prop::collection::vec(0u32..50, 0..6),
        inner_extents in prop::collection::vec(0u32..50, 0..6),
        outer_extent in 0u32..50,
        deep_extent in 0u32..10,
    ) {
        use dope_core::TaskConfig;

        let mut tasks: Vec<TaskConfig> = leaf_extents
            .iter()
            .enumerate()
            .map(|(i, &e)| TaskConfig::leaf(format!("l{i}"), e))
            .collect();
        let mut inner: Vec<TaskConfig> = inner_extents
            .iter()
            .enumerate()
            .map(|(i, &e)| TaskConfig::leaf(format!("i{i}"), e))
            .collect();
        inner.push(TaskConfig::nest(
            "deep",
            deep_extent,
            0,
            vec![TaskConfig::leaf("d0", 3)],
        ));
        tasks.push(TaskConfig::nest("outer", outer_extent, 0, inner));

        let config = Config::new(tasks);
        let expected: u64 = config.tasks.iter().map(reference_threads).sum();
        prop_assert!(expected <= u64::from(u32::MAX), "range keeps sums in u32");
        prop_assert_eq!(u64::from(config.total_threads()), expected);
        for (_, node) in config.paths() {
            prop_assert_eq!(u64::from(node.threads()), reference_threads(node));
        }
    }

    /// The validator and the analyzer are two readings of one rule walk,
    /// so over randomly (mis)configured trees they agree exactly:
    /// `validate` rejects iff the report holds a config-level error
    /// (anything after the shape's own lints), and with that first
    /// error's code, path and message.
    #[test]
    fn analyzer_agrees_with_validator(
        outer in 0u32..6,
        read in 0u32..4,
        transform in 0u32..24,
        write in 0u32..4,
        alt in 0usize..4,
        threads in 1u32..64,
        break_name in any::<bool>(),
        drop_stage in any::<bool>(),
        hollow in any::<bool>(),
    ) {
        use dope_core::{Error, Resources, TaskConfig};

        let shape = ProgramShape::new(vec![ShapeNode {
            name: "txn".into(),
            kind: TaskKind::Par,
            max_extent: Some(4),
            alternatives: vec![
                vec![
                    ShapeNode::leaf("read", TaskKind::Seq),
                    ShapeNode::leaf("transform", TaskKind::Par).with_max_extent(16),
                    ShapeNode::leaf("write", TaskKind::Seq),
                ],
                vec![ShapeNode::leaf("whole", TaskKind::Seq)],
                vec![],
            ],
        }]);
        let mut stages = vec![
            TaskConfig::leaf("read", read),
            TaskConfig::leaf("transform", transform),
            TaskConfig::leaf("write", write),
        ];
        if break_name {
            stages[1].name = "transmogrify".into();
        }
        if drop_stage {
            stages.pop();
        }
        if hollow {
            stages.clear();
        }
        let config = Config::new(vec![TaskConfig::nest("txn", outer, alt, stages)]);

        let report = dope_verify::analyze(&shape, &config, &Resources::threads(threads));
        let shape_lints = dope_verify::lint_shape(&shape).len();
        let first_error = report.diagnostics[shape_lints..].iter().find(|d| d.is_error());
        match (config.validate(&shape, threads), first_error) {
            (Ok(()), None) => {}
            (Err(err), Some(diag)) => {
                prop_assert_eq!(err.code(), diag.code, "{} for {}", err, config);
                let Error::Invalid { path, .. } = &err else {
                    return Err(TestCaseError::fail(format!("{err:?} is not a broken rule")));
                };
                prop_assert_eq!(path, &diag.path, "{} for {}", err, config);
                prop_assert!(err.to_string().ends_with(&diag.message), "{} vs {}", err, diag.message);
            }
            (verdict, diag) => prop_assert!(
                false,
                "validate says {:?}, the analyzer {:?}, for {}",
                verdict, diag, config
            ),
        }
    }
}
