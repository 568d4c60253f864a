//! The paper's data scales (Table 1).

/// One row of Table 1: scale label, `Persons` rows, `Housing` rows
/// (`|V_join| = |Persons|` by construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataScale {
    /// The paper's scale label (1, 2, 5, 10, 40, 80, 120, 160).
    pub label: u32,
    /// Number of `Persons` tuples.
    pub persons: usize,
    /// Number of `Housing` tuples.
    pub housing: usize,
}

/// Table 1 of the paper.
pub const PAPER_SCALES: [DataScale; 8] = [
    DataScale {
        label: 1,
        persons: 25_099,
        housing: 9_820,
    },
    DataScale {
        label: 2,
        persons: 50_039,
        housing: 19_640,
    },
    DataScale {
        label: 5,
        persons: 124_746,
        housing: 49_100,
    },
    DataScale {
        label: 10,
        persons: 249_259,
        housing: 98_200,
    },
    DataScale {
        label: 40,
        persons: 1_015_686,
        housing: 392_800,
    },
    DataScale {
        label: 80,
        persons: 2_043_975,
        housing: 785_600,
    },
    DataScale {
        label: 120,
        persons: 3_064_328,
        housing: 1_178_400,
    },
    DataScale {
        label: 160,
        persons: 4_097_471,
        housing: 1_571_200,
    },
];

/// Looks up a paper scale by its label.
pub fn paper_scale(label: u32) -> Option<DataScale> {
    PAPER_SCALES.iter().copied().find(|s| s.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup() {
        assert_eq!(paper_scale(40).unwrap().persons, 1_015_686);
        assert_eq!(paper_scale(3), None);
    }

    #[test]
    fn scales_grow_roughly_linearly() {
        for s in &PAPER_SCALES {
            let expected_housing = 9_820 * s.label as usize;
            assert_eq!(s.housing, expected_housing, "scale {}", s.label);
            let ratio = s.persons as f64 / s.housing as f64;
            assert!(
                (2.5..2.62).contains(&ratio),
                "scale {} ratio {ratio}",
                s.label
            );
        }
    }
}
