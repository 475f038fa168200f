//! Property-style integration tests of the clustering protocol across
//! randomized workloads: the sequential and parallel drivers must agree
//! on error-free data, stats invariants must hold for every driver, the
//! incremental clusterer must match from-scratch runs regardless of
//! batch split points, and the recovery machinery must respect the
//! park/flush handshake and terminate even when ranks crash.

use pace::{FaultPlan, Pace, PaceConfig, SequenceStore, SimConfig};
use proptest::prelude::*;

fn cfg() -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c
}

fn sim(n: usize, genes: usize, seed: u64) -> SimConfig {
    SimConfig {
        num_genes: genes,
        num_ests: n,
        est_len_mean: 200.0,
        est_len_sd: 20.0,
        est_len_min: 120,
        exon_len: (200, 350),
        exons_per_gene: (1, 2),
        seed,
        ..SimConfig::default()
    }
    .error_free()
}

proptest! {
    // These spin up full pipelines; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sequential and parallel produce the same partition on clean data,
    /// for arbitrary seeds and rank counts.
    #[test]
    fn drivers_agree(seed in 0u64..1000, p in 2usize..6, n in 40usize..90) {
        let ds = pace::simulate::generate(&sim(n, (n / 10).max(2), seed));
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let seq = pace::cluster::cluster_sequential(&store, &cfg().cluster);
        let par = pace::cluster::cluster_parallel(&store, &cfg().cluster, p);
        let agreement = pace::quality::assess(&par.labels, &seq.labels);
        prop_assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "partitions diverge at seed {} p {}: {}", seed, p, agreement
        );
    }

    /// Stats invariants hold for the sequential driver on noisy data.
    #[test]
    fn sequential_stats_invariants(seed in 0u64..1000, n in 30usize..80) {
        let mut s = sim(n, (n / 8).max(2), seed);
        s.error_rate = 0.02;
        let ds = pace::simulate::generate(&s);
        let outcome = Pace::new(cfg()).cluster(&ds.ests).unwrap();
        let st = &outcome.result.stats;
        prop_assert_eq!(st.pairs_generated, st.pairs_processed + st.pairs_skipped);
        prop_assert!(st.pairs_accepted <= st.pairs_processed);
        prop_assert!(st.merges <= st.pairs_accepted);
        prop_assert_eq!(
            outcome.num_clusters() as u64 + st.merges,
            n as u64,
            "n - merges must equal cluster count"
        );
        prop_assert_eq!(outcome.labels().len(), n);
    }

    /// The incremental clusterer matches from-scratch for any split point.
    #[test]
    fn incremental_split_invariance(seed in 0u64..500, split_pct in 10usize..90) {
        let n = 60;
        let ds = pace::simulate::generate(&sim(n, 6, seed));
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let scratch = pace::cluster::cluster_sequential(&store, &cfg().cluster);

        let split = n * split_pct / 100;
        let mut inc = pace::IncrementalClusterer::new(cfg().cluster);
        inc.add_batch(&ds.ests[..split]).unwrap();
        inc.add_batch(&ds.ests[split..]).unwrap();

        let agreement = pace::quality::assess(&inc.labels(), &scratch.labels);
        prop_assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "incremental diverges at seed {} split {}: {}", seed, split, agreement
        );
    }

    /// The master may park a slave only after the flush handshake —
    /// never while it still owes that slave's results. The resend path
    /// must preserve this across a whole retry episode: same sequence
    /// number on every resend, slave unparked throughout, and normal
    /// flush-then-park once the report finally lands.
    #[test]
    fn owed_slave_never_parked_across_resend_episode(npairs in 1usize..12, retries in 1u32..4) {
        use pace::cluster::master::Master;
        use pace::cluster::messages::Msg;
        use pace::pairgen::CandidatePair;
        use pace::seq::{EstId, Strand};

        let mut c = pace::ClusterConfig::small();
        c.batchsize = 4;
        c.slave_timeout = 1.0;
        c.max_retries = retries + 1; // episode never exhausts the budget
        let mut m = Master::new(64, 1, c);
        m.begin(0.0);

        // Startup report delivers pairs; the reply dispatches real work,
        // so the master now owes the slave its results.
        let pairs: Vec<CandidatePair> = (0..npairs)
            .map(|k| CandidatePair {
                s1: EstId(2 * k as u32).str_id(Strand::Forward),
                s2: EstId(2 * k as u32 + 1).str_id(Strand::Forward),
                off1: 0,
                off2: 0,
                mcs_len: 30,
            })
            .collect();
        let seq0 = m.expected_seq(0).unwrap();
        let replies = m.handle_report(0, seq0, vec![], pairs, true, 0.0);
        let Msg::Work { seq, .. } = replies[0].1.clone() else {
            panic!("expected Work dispatch");
        };

        // The report goes missing; every tick past the deadline resends
        // under the same sequence number and must leave the slave live
        // and unparked.
        for round in 1..=retries {
            let out = m.tick(round as f64 * 1.5);
            prop_assert!(!m.is_parked(0), "owed slave parked after resend {round}");
            prop_assert!(!m.is_dead(0), "owed slave declared dead too early");
            prop_assert_eq!(m.expected_seq(0), Some(seq), "resend changed the sequence");
            prop_assert!(
                out.iter().any(|(s, msg)| *s == 0
                    && matches!(msg, Msg::Work { seq: rs, .. } if *rs == seq)),
                "tick past deadline produced no resend"
            );
        }

        // The report finally arrives: results folded once, then the
        // flush handshake completes and the run shuts down.
        let t = retries as f64 * 1.5 + 1.0;
        m.handle_report(0, seq, vec![], vec![], true, t);
        prop_assert_eq!(m.core.stats.faults.retries as u32, retries);
        prop_assert_eq!(m.core.stats.faults.dead_slaves, 0);
        let mut rounds = 0;
        while let Some(next_seq) = m.expected_seq(0) {
            m.handle_report(0, next_seq, vec![], vec![], true, t + 0.1);
            rounds += 1;
            prop_assert!(rounds < 32, "drain never converges");
        }
        prop_assert!(m.is_done(), "episode did not terminate");
    }

    /// A crashed rank plus a stalling rank plus slaves that exhaust
    /// almost immediately must still terminate — the master writes the
    /// dead slave off after its retry budget instead of waiting forever,
    /// and conservation stays exact. A watchdog turns a deadlock into a
    /// test failure rather than a hung suite.
    #[test]
    fn crashed_and_exhausted_slaves_terminate_without_deadlock(seed in 0u64..500) {
        let ds = pace::simulate::generate(&sim(20, 2, seed));
        let store = SequenceStore::from_ests(&ds.ests).unwrap();

        let mut c = cfg();
        c.num_processors = 4;
        c.cluster.slave_timeout = 0.2;
        c.cluster.max_retries = 2;
        // Rank 2 dies right after its startup report; rank 3 limps.
        c.faults = FaultPlan::none().crash(2, 1).stall(3, 10, 3);

        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(Pace::new(c).cluster_store(&store));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("crashed+exhausted world deadlocked")
            .unwrap();
        handle.join().expect("runner thread panicked");

        let st = &outcome.result.stats;
        prop_assert!(st.faults.dead_slaves >= 1, "crash was never detected");
        prop_assert_eq!(
            st.pairs_generated,
            st.pairs_processed + st.pairs_skipped + st.pairs_unconsumed,
            "conservation violated under crash"
        );
        prop_assert_eq!(outcome.labels().len(), 20);
    }

    /// Quality metrics from any clustering of simulated data are sane.
    #[test]
    fn quality_metrics_sane(seed in 0u64..1000, n in 30usize..70) {
        let ds = pace::simulate::generate(&sim(n, (n / 10).max(2), seed));
        let outcome = Pace::new(cfg()).cluster(&ds.ests).unwrap();
        let q = outcome.quality(&ds.truth);
        prop_assert!((0.0..=1.0).contains(&q.oq));
        prop_assert!((0.0..=1.0).contains(&q.ov));
        prop_assert!((0.0..=1.0).contains(&q.un));
        prop_assert!((-1.0..=1.0).contains(&q.cc));
        // Error-free, repeat-bearing-but-random clean genes: never merge
        // unrelated genes whose sequences are genuinely independent.
        // (repeats are on by default; only check OV is bounded, not zero)
        prop_assert!(q.ov <= 0.5, "absurd over-prediction {}", q.ov);
    }
}
