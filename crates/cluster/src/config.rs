//! Clustering engine configuration.

use pace_align::{OverlapParams, Scoring};
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
    /// Seconds the master waits for a slave's report before re-sending
    /// the outstanding `Work` batch. Generous by default — on the
    /// fault-free path no deadline ever fires.
    pub slave_timeout: f64,
    /// Resends of one outstanding batch before the master declares the
    /// slave dead and reassigns its pairs to the survivors.
    pub max_retries: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            window_w: 8,
            psi: 20,
            batchsize: 60,
            workbuf_cap: 1 << 14,
            scoring: Scoring::default_est(),
            overlap: OverlapParams::default(),
            band_radius: 8,
            order: PairOrder::DecreasingMcs,
            skip_clustered_pairs: true,
            packed_alignment: false,
            myers_alignment: false,
            slave_timeout: 5.0,
            max_retries: 5,
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
            format!("packed_alignment={}", u8::from(self.packed_alignment)),
            format!("myers_alignment={}", u8::from(self.myers_alignment)),
            format!("slave_timeout={}", f(self.slave_timeout)),
            format!("max_retries={}", self.max_retries),
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
                "packed_alignment" => cfg.packed_alignment = flag(v)?,
                "myers_alignment" => cfg.myers_alignment = flag(v)?,
                "slave_timeout" => cfg.slave_timeout = float(v)?,
                "max_retries" => cfg.max_retries = int(v)?,
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
        if self.slave_timeout <= 0.0 || !self.slave_timeout.is_finite() {
            return Err(format!(
                "slave_timeout {} must be a positive finite number of seconds",
                self.slave_timeout
            ));
        }
        Ok(())
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
        // Keys no field reads (older builds wrote them) are errors.
        for gone in [
            "sketch_k=11",
            "sketch_size=32",
            "prefilter_min_sketch_jaccard=0000000000000000",
            "prefilter_overlap=1",
            "shards=2",
            "shard_epoch=4",
            "pairbuf_cap=4096",
        ] {
            assert!(ClusterConfig::from_kv_string(gone).is_err(), "{gone}");
        }
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
    fn validation_rejects_tiny_workbuf() {
        let c = ClusterConfig {
            workbuf_cap: 10,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
