//! System presets for the three machines of the study.
//!
//! The paper evaluates subsets of three traces from Feitelson's workload
//! archive: CTC (430-processor IBM SP2 at the Cornell Theory Center),
//! SDSC (128-processor SP2 at the San Diego Supercomputer Center), and KTH
//! (100-processor SP2 at the Swedish Royal Institute of Technology).
//! Results are reported for CTC and SDSC; KTH showed the same trends.
//!
//! Each preset carries the machine size, the published 16-category job mix
//! (Tables II and III — the calibration targets for the synthetic
//! generator), and a baseline offered load chosen so that the simulated NS
//! baseline reproduces the paper's reported behaviour: moderate slowdowns
//! on CTC (overall ≈ 3.6), heavy on SDSC (overall ≈ 14), and saturation
//! under arrival-time compression near load factor 1.6 (CTC) / 1.3 (SDSC).

use crate::category::Category;

/// Static description of one of the study's machines plus the calibration
/// targets for its synthetic workload.
#[derive(Clone, Copy, Debug)]
pub struct SystemPreset {
    /// Short name ("CTC", "SDSC", "KTH").
    pub name: &'static str,
    /// Machine size in processors.
    pub procs: u32,
    /// Category mix: weight per Table I cell, row-major
    /// (VS Seq, VS N, VS W, VS VW, S Seq, …, VL VW). Percent units; the
    /// generator normalizes.
    pub mix: [f64; 16],
    /// Baseline offered load (fraction of capacity submitted per unit
    /// time) at load factor 1.0.
    pub base_load: f64,
    /// Default trace length in jobs for experiments.
    pub default_jobs: usize,
    /// Wall-clock cap on generated run times, seconds (supercomputer
    /// centers enforce queue limits; the SP2 sites capped near 18 h).
    pub max_runtime: i64,
    /// Widest job the site actually admitted (CTC's batch partition
    /// topped out well below the full 430 nodes).
    pub max_width: u32,
}

/// CTC job mix from Table II (percent of jobs per category, row-major).
const CTC_MIX: [f64; 16] = [
    14.0, 8.0, 13.0, 9.0, // 0-10 min: Seq, N, W, VW
    18.0, 4.0, 6.0, 2.0, // 10 min - 1 hr
    6.0, 3.0, 9.0, 2.0, // 1 - 8 hr
    2.0, 2.0, 1.0, 1.0, // > 8 hr
];

/// SDSC job mix from Table III.
const SDSC_MIX: [f64; 16] = [
    8.0, 29.0, 9.0, 4.0, // 0-10 min
    2.0, 8.0, 5.0, 3.0, // 10 min - 1 hr
    8.0, 5.0, 6.0, 1.0, // 1 - 8 hr
    3.0, 5.0, 3.0, 1.0, // > 8 hr
];

/// KTH mix: the paper does not publish this table (results for KTH are
/// summarized as "similar trends"). We use the SDSC mix on the smaller
/// machine, documented as part of the workload substitution.
const KTH_MIX: [f64; 16] = SDSC_MIX;

/// The 430-processor Cornell Theory Center SP2.
pub const CTC: SystemPreset = SystemPreset {
    name: "CTC",
    procs: 430,
    mix: CTC_MIX,
    base_load: 0.55,
    default_jobs: 5_000,
    max_runtime: 18 * 3_600,
    max_width: 336,
};

/// The 128-processor San Diego Supercomputer Center SP2.
pub const SDSC: SystemPreset = SystemPreset {
    name: "SDSC",
    procs: 128,
    mix: SDSC_MIX,
    base_load: 0.44,
    default_jobs: 5_000,
    max_runtime: 18 * 3_600,
    max_width: 128,
};

/// The 100-processor KTH SP2.
pub const KTH: SystemPreset = SystemPreset {
    name: "KTH",
    procs: 100,
    mix: KTH_MIX,
    base_load: 0.44,
    default_jobs: 5_000,
    max_runtime: 18 * 3_600,
    max_width: 100,
};

impl SystemPreset {
    /// Look a preset up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<SystemPreset> {
        match name.to_ascii_uppercase().as_str() {
            "CTC" => Some(CTC),
            "SDSC" => Some(SDSC),
            "KTH" => Some(KTH),
            _ => None,
        }
    }

    /// The mix weight of a category (percent of jobs).
    pub fn mix_of(&self, cat: Category) -> f64 {
        self.mix[cat.index()]
    }

    /// The machine of a replayed SWF log: `procs` processors, every job
    /// width admitted. The synthetic-workload fields are SDSC's and never
    /// read — the log is the workload.
    pub fn swf(procs: u32) -> SystemPreset {
        SystemPreset {
            name: "SWF",
            procs,
            max_width: procs,
            ..SDSC
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{RuntimeClass, WidthClass};

    #[test]
    fn mixes_sum_to_100_percent() {
        for p in [CTC, SDSC, KTH] {
            let sum: f64 = p.mix.iter().sum();
            assert!((sum - 100.0).abs() < 1e-9, "{} mix sums to {sum}", p.name);
        }
    }

    #[test]
    fn ctc_mix_matches_table2_spot_checks() {
        let vs_seq = Category {
            runtime: RuntimeClass::VeryShort,
            width: WidthClass::Sequential,
        };
        assert_eq!(CTC.mix_of(vs_seq), 14.0);
        let s_seq = Category {
            runtime: RuntimeClass::Short,
            width: WidthClass::Sequential,
        };
        assert_eq!(CTC.mix_of(s_seq), 18.0);
        let l_w = Category {
            runtime: RuntimeClass::Long,
            width: WidthClass::Wide,
        };
        assert_eq!(CTC.mix_of(l_w), 9.0);
        let vl_vw = Category {
            runtime: RuntimeClass::VeryLong,
            width: WidthClass::VeryWide,
        };
        assert_eq!(CTC.mix_of(vl_vw), 1.0);
    }

    #[test]
    fn sdsc_mix_matches_table3_spot_checks() {
        let vs_n = Category {
            runtime: RuntimeClass::VeryShort,
            width: WidthClass::Narrow,
        };
        assert_eq!(SDSC.mix_of(vs_n), 29.0);
        let vl_n = Category {
            runtime: RuntimeClass::VeryLong,
            width: WidthClass::Narrow,
        };
        assert_eq!(SDSC.mix_of(vl_n), 5.0);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(SystemPreset::by_name("ctc").unwrap().procs, 430);
        assert_eq!(SystemPreset::by_name("SDSC").unwrap().procs, 128);
        assert_eq!(SystemPreset::by_name("Kth").unwrap().procs, 100);
        assert!(SystemPreset::by_name("LANL").is_none());
    }
}
