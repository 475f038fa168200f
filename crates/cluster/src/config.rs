//! Clustering engine configuration.

use pace_align::{OverlapParams, Scoring};
use pace_obs::trace::flow_id;
use pace_pairgen::{PairGenConfig, PairOrder};

/// All knobs of the clustering pipeline, with the paper's experimental
/// settings as defaults (window 8, batchsize 60).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Bucket window size `w` for suffix-tree construction. The paper
    /// uses 8 in its experiments.
    pub window_w: usize,
    /// Promising-pair threshold ψ: minimum maximal-common-substring
    /// length. Must be ≥ `window_w`.
    pub psi: u32,
    /// Pairs per master→slave work batch. The paper finds 40–60 optimal
    /// and uses 60.
    pub batchsize: usize,
    /// Capacity of the master's `WORKBUF` queue.
    pub workbuf_cap: usize,
    /// Capacity of each slave's `PAIRBUF` of pre-generated pairs.
    pub pairbuf_cap: usize,
    /// Alignment scoring scheme.
    pub scoring: Scoring,
    /// Accept thresholds for merge evidence.
    pub overlap: OverlapParams,
    /// Banded-DP half-width for anchor extension (errors tolerated).
    pub band_radius: usize,
    /// Pair generation order (decreasing MCS vs arbitrary — ablation).
    pub order: PairOrder,
    /// Whether the master skips pairs whose ESTs already share a cluster
    /// (`true` in PaCE; `false` reproduces the traditional behaviour for
    /// ablation).
    pub skip_clustered_pairs: bool,
    /// Reject a pair without running any DP when its anchor geometry
    /// proves the overlap cannot reach `overlap.min_overlap_len` even
    /// with every band-radius gap spent (lossless — the bound is an
    /// upper bound on the achievable overlap, property-tested in
    /// `pace-align`).
    pub prefilter_overlap: bool,
    /// Align directly over the 2-bit packed representation instead of
    /// the ASCII store. Scores are bit-identical (equality-only scoring;
    /// property-tested); the packed text costs one extra pass at startup
    /// but quarters the bytes the alignment kernel touches.
    pub packed_alignment: bool,
    /// Extend anchors with the Myers bit-parallel banded kernel instead
    /// of the scalar banded DP. Score-identical (property-tested) but
    /// requires an edit-convertible scoring scheme
    /// ([`Scoring::edit_unit_cost`]) and `band_radius ≤ 31`; `validate`
    /// rejects configurations outside that envelope.
    pub myers_alignment: bool,
    /// `k`-mer length of the MinHash bottom-sketches backing the sketch
    /// prefilter (1..=31).
    pub sketch_k: usize,
    /// Bottom-sketch size `s`: hashes kept per string.
    pub sketch_size: usize,
    /// Minimum Mash-style sketch Jaccard estimate for a pair to be
    /// aligned at all. `0.0` disables the filter (the default); positive
    /// values skip the DP for pairs whose estimated k-mer similarity
    /// falls below the threshold (lossy — recall measured by the
    /// `pace-quality` harness). Pairs too short to sketch always pass.
    pub prefilter_min_sketch_jaccard: f64,
    /// Seconds the master waits for a slave's report before re-sending
    /// the outstanding `Work` batch. Generous by default — on the
    /// fault-free path no deadline ever fires.
    pub slave_timeout: f64,
    /// Resends of one outstanding batch before the master declares the
    /// slave dead and reassigns its pairs to the survivors.
    pub max_retries: u32,
    /// Number of clustering-master shards. `0` (the default) runs the
    /// classic single master; `K ≥ 1` runs K sub-masters (ranks
    /// `1..=K`, each owning an EST id-range) under a reconciler at rank
    /// 0, leaving ranks `K+1..p` as slaves. [`Topology`] holds both
    /// layouts and the world size each needs.
    pub shards: usize,
    /// Reports a sub-master handles between cross-edge flushes to the
    /// reconciler (the epoch barrier length). Only meaningful when
    /// `shards > 0`.
    pub shard_epoch: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            window_w: 8,
            psi: 20,
            batchsize: 60,
            workbuf_cap: 1 << 14,
            pairbuf_cap: 1 << 12,
            scoring: Scoring::default_est(),
            overlap: OverlapParams::default(),
            band_radius: 8,
            order: PairOrder::DecreasingMcs,
            skip_clustered_pairs: true,
            prefilter_overlap: true,
            packed_alignment: false,
            myers_alignment: false,
            sketch_k: 11,
            sketch_size: 32,
            prefilter_min_sketch_jaccard: 0.0,
            slave_timeout: 5.0,
            max_retries: 5,
            shards: 0,
            shard_epoch: 32,
        }
    }
}

impl ClusterConfig {
    /// The pair generator's settings: ψ and the pair order.
    pub fn pair_gen(&self) -> PairGenConfig {
        PairGenConfig {
            psi: self.psi,
            order: self.order,
        }
    }

    /// A configuration suited to small test inputs (short reads, short
    /// overlaps): window 4, ψ 8, relaxed minimum overlap.
    pub fn small() -> Self {
        ClusterConfig {
            window_w: 4,
            psi: 8,
            overlap: OverlapParams {
                min_score_ratio: 0.75,
                min_overlap_len: 12,
            },
            ..ClusterConfig::default()
        }
    }

    /// Serialize to a single `k=v,k=v,…` token (no spaces) for worker
    /// process argv. Floats travel as their IEEE-754 bit pattern in hex,
    /// so [`ClusterConfig::from_kv_string`] reconstructs the exact value
    /// — bit-identical configs are what make a multi-process run
    /// reproduce the in-process partition.
    pub fn to_kv_string(&self) -> String {
        let f = |v: f64| format!("{:016x}", v.to_bits());
        let order = match self.order {
            PairOrder::DecreasingMcs => "decreasing_mcs",
            PairOrder::Arbitrary => "arbitrary",
        };
        [
            format!("window_w={}", self.window_w),
            format!("psi={}", self.psi),
            format!("batchsize={}", self.batchsize),
            format!("workbuf_cap={}", self.workbuf_cap),
            format!("pairbuf_cap={}", self.pairbuf_cap),
            format!("match_score={}", self.scoring.match_score),
            format!("mismatch={}", self.scoring.mismatch),
            format!("gap_open={}", self.scoring.gap_open),
            format!("gap_extend={}", self.scoring.gap_extend),
            format!("min_score_ratio={}", f(self.overlap.min_score_ratio)),
            format!("min_overlap_len={}", self.overlap.min_overlap_len),
            format!("band_radius={}", self.band_radius),
            format!("order={order}"),
            format!(
                "skip_clustered_pairs={}",
                u8::from(self.skip_clustered_pairs)
            ),
            format!("prefilter_overlap={}", u8::from(self.prefilter_overlap)),
            format!("packed_alignment={}", u8::from(self.packed_alignment)),
            format!("myers_alignment={}", u8::from(self.myers_alignment)),
            format!("sketch_k={}", self.sketch_k),
            format!("sketch_size={}", self.sketch_size),
            format!(
                "prefilter_min_sketch_jaccard={}",
                f(self.prefilter_min_sketch_jaccard)
            ),
            format!("slave_timeout={}", f(self.slave_timeout)),
            format!("max_retries={}", self.max_retries),
            format!("shards={}", self.shards),
            format!("shard_epoch={}", self.shard_epoch),
        ]
        .join(",")
    }

    /// Parse a [`ClusterConfig::to_kv_string`] token. Unknown keys and
    /// malformed values are errors; omitted keys keep their defaults
    /// (the encoder always emits every key, so a full round trip is
    /// exact — `from_kv_string(to_kv_string()) == self`, floats
    /// included).
    pub fn from_kv_string(s: &str) -> Result<Self, String> {
        fn float(v: &str) -> Result<f64, String> {
            let bits =
                u64::from_str_radix(v, 16).map_err(|e| format!("bad float bits {v:?}: {e}"))?;
            Ok(f64::from_bits(bits))
        }
        fn flag(v: &str) -> Result<bool, String> {
            match v {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(format!("bad flag {v:?} (want 0 or 1)")),
            }
        }
        fn int<T: std::str::FromStr>(v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("bad integer {v:?}: {e}"))
        }

        let mut cfg = ClusterConfig::default();
        for entry in s.split(',').filter(|e| !e.is_empty()) {
            let (k, v) = entry
                .split_once('=')
                .ok_or_else(|| format!("malformed config entry {entry:?}"))?;
            match k {
                "window_w" => cfg.window_w = int(v)?,
                "psi" => cfg.psi = int(v)?,
                "batchsize" => cfg.batchsize = int(v)?,
                "workbuf_cap" => cfg.workbuf_cap = int(v)?,
                "pairbuf_cap" => cfg.pairbuf_cap = int(v)?,
                "match_score" => cfg.scoring.match_score = int(v)?,
                "mismatch" => cfg.scoring.mismatch = int(v)?,
                "gap_open" => cfg.scoring.gap_open = int(v)?,
                "gap_extend" => cfg.scoring.gap_extend = int(v)?,
                "min_score_ratio" => cfg.overlap.min_score_ratio = float(v)?,
                "min_overlap_len" => cfg.overlap.min_overlap_len = int(v)?,
                "band_radius" => cfg.band_radius = int(v)?,
                "order" => {
                    cfg.order = match v {
                        "decreasing_mcs" => PairOrder::DecreasingMcs,
                        "arbitrary" => PairOrder::Arbitrary,
                        _ => return Err(format!("unknown pair order {v:?}")),
                    }
                }
                "skip_clustered_pairs" => cfg.skip_clustered_pairs = flag(v)?,
                "prefilter_overlap" => cfg.prefilter_overlap = flag(v)?,
                "packed_alignment" => cfg.packed_alignment = flag(v)?,
                "myers_alignment" => cfg.myers_alignment = flag(v)?,
                "sketch_k" => cfg.sketch_k = int(v)?,
                "sketch_size" => cfg.sketch_size = int(v)?,
                "prefilter_min_sketch_jaccard" => cfg.prefilter_min_sketch_jaccard = float(v)?,
                "slave_timeout" => cfg.slave_timeout = float(v)?,
                "max_retries" => cfg.max_retries = int(v)?,
                "shards" => cfg.shards = int(v)?,
                "shard_epoch" => cfg.shard_epoch = int(v)?,
                _ => return Err(format!("unknown config key {k:?}")),
            }
        }
        Ok(cfg)
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_w == 0 || self.window_w > 12 {
            return Err(format!("window_w {} out of range 1..=12", self.window_w));
        }
        if (self.psi as usize) < self.window_w {
            return Err(format!(
                "psi {} must be >= window_w {}",
                self.psi, self.window_w
            ));
        }
        if self.batchsize == 0 {
            return Err("batchsize must be positive".into());
        }
        if self.workbuf_cap < self.batchsize {
            return Err(format!(
                "workbuf_cap {} smaller than batchsize {}",
                self.workbuf_cap, self.batchsize
            ));
        }
        if self.pairbuf_cap == 0 {
            return Err("pairbuf_cap must be positive".into());
        }
        self.scoring.validate()?;
        if !(0.0..=1.0).contains(&self.overlap.min_score_ratio) {
            return Err(format!(
                "min_score_ratio {} not a ratio",
                self.overlap.min_score_ratio
            ));
        }
        if self.myers_alignment {
            if self.scoring.edit_unit_cost().is_none() {
                return Err(format!(
                    "myers_alignment needs an edit-convertible scoring \
                     (linear gaps with 2·(match − mismatch) == match − 2·gap, \
                     e.g. match=2, mismatch=0, gap=-1); got match={} mismatch={} \
                     gap_open={} gap_extend={}",
                    self.scoring.match_score,
                    self.scoring.mismatch,
                    self.scoring.gap_open,
                    self.scoring.gap_extend
                ));
            }
            if self.band_radius > pace_align::MYERS_MAX_RADIUS {
                return Err(format!(
                    "myers_alignment supports band_radius <= {}, got {}",
                    pace_align::MYERS_MAX_RADIUS,
                    self.band_radius
                ));
            }
        }
        pace_seq::SketchParams {
            k: self.sketch_k,
            s: self.sketch_size,
        }
        .validate()?;
        if !(0.0..=1.0).contains(&self.prefilter_min_sketch_jaccard) {
            return Err(format!(
                "prefilter_min_sketch_jaccard {} not a fraction",
                self.prefilter_min_sketch_jaccard
            ));
        }
        if self.slave_timeout <= 0.0 || !self.slave_timeout.is_finite() {
            return Err(format!(
                "slave_timeout {} must be a positive finite number of seconds",
                self.slave_timeout
            ));
        }
        if self.shard_epoch == 0 {
            return Err("shard_epoch must be positive".into());
        }
        Ok(())
    }
}

/// The role a rank plays in a clustering world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Rank 0 of a sharded world: folds cross-shard merges and replays
    /// shard traces.
    Reconciler,
    /// The master of protocol session `.0`: the single master at rank 0,
    /// or sub-master `.0` at rank `1 + .0`.
    Master(usize),
    /// Slave with local index `.0` (0-based).
    Slave(usize),
}

/// Rank layout of a clustering world. `shards == 0` is the paper's
/// layout: the master at rank 0, slaves at ranks `1..p`. `shards = K`
/// puts the reconciler at rank 0 and sub-master `s` at rank `1 + s`,
/// with the slaves after them. Either way every slave speaks
/// [`Topology::sessions`] master–slave sessions, and the slaves start
/// at rank `shards + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    world: usize,
    /// Sub-master count K (`0` = the single master).
    shards: usize,
}

impl Topology {
    /// Validate `world` against `shards`: every master rank (and the
    /// reconciler of a sharded world) plus at least one slave, so
    /// `world ≥ shards + 2`.
    pub fn new(world: usize, shards: usize) -> Result<Self, String> {
        // `shards` can come straight from the command line.
        let need = shards.saturating_add(2);
        if world < need {
            return Err(if shards == 0 {
                format!("world size {world} too small for a master and a slave (need >= 2)")
            } else {
                format!("world size {world} too small for {shards} shards (need >= {need})")
            });
        }
        Ok(Topology { world, shards })
    }

    /// Number of protocol sessions, one per master.
    pub fn sessions(&self) -> usize {
        self.shards.max(1)
    }

    /// Number of slave ranks.
    pub fn num_slaves(&self) -> usize {
        self.world - self.shards - 1
    }

    /// The role of `rank`.
    pub fn role_of(&self, rank: usize) -> Role {
        debug_assert!(rank < self.world);
        if rank > self.shards {
            Role::Slave(rank - self.shards - 1)
        } else if self.shards == 0 {
            Role::Master(0)
        } else if rank == 0 {
            Role::Reconciler
        } else {
            Role::Master(rank - 1)
        }
    }

    /// The rank hosting the master of `session`.
    pub fn master_rank(&self, session: usize) -> usize {
        debug_assert!(session < self.sessions());
        session + usize::from(self.shards > 0)
    }

    /// The rank hosting slave `idx`.
    pub fn slave_rank(&self, idx: usize) -> usize {
        debug_assert!(idx < self.num_slaves());
        self.shards + 1 + idx
    }

    /// The trace flow id of batch `seq` between `slave` and the master
    /// of `session`. One namespace for every session, so concurrent
    /// per-session sequence spaces never collide; with one session it
    /// is `flow_id(slave, seq)`.
    pub fn flow_id(&self, session: usize, slave: usize, seq: u64) -> u64 {
        flow_id(session * self.num_slaves() + slave, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_settings() {
        let c = ClusterConfig::default();
        c.validate().unwrap();
        assert_eq!(c.window_w, 8);
        assert_eq!(c.batchsize, 60);
        assert!(c.skip_clustered_pairs);
    }

    #[test]
    fn small_preset_is_valid() {
        ClusterConfig::small().validate().unwrap();
    }

    #[test]
    fn validation_rejects_psi_below_window() {
        let c = ClusterConfig {
            psi: 4,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_batch() {
        let c = ClusterConfig {
            batchsize: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_slave_timeout() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = ClusterConfig {
                slave_timeout: bad,
                ..ClusterConfig::default()
            };
            assert!(c.validate().is_err(), "slave_timeout {bad} accepted");
        }
    }

    #[test]
    fn kv_round_trip_is_exact() {
        let mut odd = ClusterConfig::small();
        odd.psi = 17;
        odd.batchsize = 41;
        odd.order = PairOrder::Arbitrary;
        odd.packed_alignment = true;
        odd.skip_clustered_pairs = false;
        odd.slave_timeout = 0.3;
        odd.overlap.min_score_ratio = 0.1 + 0.2; // not representable cleanly
        odd.myers_alignment = true;
        odd.scoring = pace_align::Scoring::edit_linear();
        odd.sketch_k = 9;
        odd.sketch_size = 48;
        odd.prefilter_min_sketch_jaccard = 0.1 + 0.03;
        for cfg in [ClusterConfig::default(), ClusterConfig::small(), odd] {
            let s = cfg.to_kv_string();
            assert!(!s.contains(' '), "argv token must not contain spaces: {s}");
            let back = ClusterConfig::from_kv_string(&s).expect("parse");
            assert_eq!(back, cfg, "round trip changed the config: {s}");
        }
    }

    #[test]
    fn kv_parse_rejects_junk() {
        assert!(ClusterConfig::from_kv_string("nonsense=1").is_err());
        assert!(ClusterConfig::from_kv_string("window_w").is_err());
        assert!(ClusterConfig::from_kv_string("psi=abc").is_err());
        assert!(ClusterConfig::from_kv_string("order=sideways").is_err());
        assert!(ClusterConfig::from_kv_string("packed_alignment=yes").is_err());
        assert!(ClusterConfig::from_kv_string("slave_timeout=zz").is_err());
        // Empty string is the default config.
        assert_eq!(
            ClusterConfig::from_kv_string("").unwrap(),
            ClusterConfig::default()
        );
    }

    #[test]
    fn myers_flag_requires_convertible_scoring() {
        // Off by default, and default scoring is not convertible.
        let c = ClusterConfig::default();
        assert!(!c.myers_alignment);
        // Turning it on under the default (affine) scoring must fail.
        let c = ClusterConfig {
            myers_alignment: true,
            ..ClusterConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("edit-convertible"), "{err}");
        // A convertible scheme passes…
        let mut c = ClusterConfig {
            myers_alignment: true,
            scoring: pace_align::Scoring::edit_linear(),
            ..ClusterConfig::default()
        };
        c.validate().unwrap();
        // …until the radius leaves the single-word band.
        c.band_radius = 32;
        assert!(c.validate().unwrap_err().contains("band_radius"));
    }

    #[test]
    fn sketch_settings_are_validated() {
        for (k, s) in [(0usize, 32usize), (32, 32), (11, 0)] {
            let c = ClusterConfig {
                sketch_k: k,
                sketch_size: s,
                ..ClusterConfig::default()
            };
            assert!(c.validate().is_err(), "sketch k={k} s={s} accepted");
        }
        let c = ClusterConfig {
            prefilter_min_sketch_jaccard: 1.5,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(
            ClusterConfig::default().prefilter_min_sketch_jaccard,
            0.0,
            "sketch prefilter must be opt-in"
        );
    }

    #[test]
    fn kv_carries_shard_settings() {
        let cfg = ClusterConfig {
            shards: 4,
            shard_epoch: 7,
            ..ClusterConfig::small()
        };
        let back = ClusterConfig::from_kv_string(&cfg.to_kv_string()).unwrap();
        assert_eq!(back.shards, 4);
        assert_eq!(back.shard_epoch, 7);
    }

    #[test]
    fn validation_rejects_zero_shard_epoch() {
        let c = ClusterConfig {
            shard_epoch: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn shard_topology_assigns_roles() {
        let t = Topology::new(7, 2).unwrap();
        assert_eq!(t.num_slaves(), 4);
        assert_eq!(t.role_of(0), Role::Reconciler);
        assert_eq!(t.role_of(1), Role::Master(0));
        assert_eq!(t.role_of(2), Role::Master(1));
        assert_eq!(t.role_of(3), Role::Slave(0));
        assert_eq!(t.role_of(6), Role::Slave(3));
        assert_eq!(t.master_rank(1), 2);
        assert_eq!(t.slave_rank(3), 6);
    }

    #[test]
    fn shard_topology_rejects_small_worlds() {
        assert!(Topology::new(3, 2).is_err());
        assert!(Topology::new(1, 4).is_err());
        assert!(Topology::new(3, 1).is_ok());
        // A shard count from the command line must not overflow the rule.
        assert!(Topology::new(4, usize::MAX).is_err());
    }

    #[test]
    fn single_master_topology_is_one_session_from_rank_0() {
        let t = Topology::new(4, 0).unwrap();
        assert_eq!((t.sessions(), t.num_slaves()), (1, 3));
        assert_eq!(t.role_of(0), Role::Master(0));
        assert_eq!(t.role_of(1), Role::Slave(0));
        assert_eq!(t.master_rank(0), 0);
        assert_eq!(t.slave_rank(2), 3);
        assert_eq!(t.flow_id(0, 2, 5), flow_id(2, 5));
        assert!(Topology::new(1, 0).is_err());
        assert!(Topology::new(2, 0).is_ok());
    }

    #[test]
    fn validation_rejects_tiny_workbuf() {
        let c = ClusterConfig {
            workbuf_cap: 10,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
