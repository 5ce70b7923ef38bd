//! Committed expected outputs (`expected.txt`), so a faster but wrong
//! result counts as a failed op instead of a better number.
//!
//! Line formats (whitespace separated, `#` starts a comment):
//!
//! ```text
//! suite  <design> <testcase> <exercised> [<verdict>,<verdict>,…]
//! total  <design> <exercised> <static>
//! edit   associations <count>
//! edit   class <Strong|Firm|PFirm|PWeak> <count>
//! serve  <design> <testcase> <coverage.exercised>
//! models <design> <user models>
//! ```

use std::collections::{BTreeMap, HashMap};

use dft_core::{AssertionVerdict, Verdict};

/// The committed expected values.
pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

/// Expected values, keyed for lookup.
#[derive(Debug, Default)]
pub struct Expected {
    /// `(design, testcase)` → (exercised associations, verdicts).
    pub suite: HashMap<(String, String), (usize, Vec<String>)>,
    /// design → (exercised, static) associations over one full pass.
    pub totals: HashMap<String, (usize, usize)>,
    /// Associations of the 64-model chain.
    pub edit_associations: usize,
    /// Class histogram of the 64-model chain.
    pub edit_classes: BTreeMap<String, usize>,
    /// `(design, testcase)` → `coverage.exercised` of a one-testcase
    /// `dft-serve` request.
    pub serve: HashMap<(String, String), usize>,
    /// design → user-model count.
    pub models: HashMap<String, usize>,
}

impl Expected {
    /// Parses [`EXPECTED_TXT`].
    ///
    /// # Panics
    ///
    /// On a malformed line: the file is part of the benchmark.
    pub fn load() -> Expected {
        Expected::parse(EXPECTED_TXT)
    }

    /// Parses the line format above.
    ///
    /// # Panics
    ///
    /// On a malformed line.
    pub fn parse(text: &str) -> Expected {
        let mut e = Expected::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> usize {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("expected.txt:{}: bad number in {line:?}", no + 1))
            };
            match (f[0], f.len()) {
                ("suite", 4 | 5) => {
                    let verdicts = f
                        .get(4)
                        .map(|v| v.split(',').map(str::to_owned).collect())
                        .unwrap_or_default();
                    e.suite
                        .insert((f[1].to_owned(), f[2].to_owned()), (num(3), verdicts));
                }
                ("total", 4) => {
                    e.totals.insert(f[1].to_owned(), (num(2), num(3)));
                }
                ("edit", 3) if f[1] == "associations" => e.edit_associations = num(2),
                ("edit", 4) if f[1] == "class" => {
                    e.edit_classes.insert(f[2].to_owned(), num(3));
                }
                ("serve", 4) => {
                    e.serve.insert((f[1].to_owned(), f[2].to_owned()), num(3));
                }
                ("models", 3) => {
                    e.models.insert(f[1].to_owned(), num(2));
                }
                _ => panic!("expected.txt:{}: unknown line {line:?}", no + 1),
            }
        }
        e
    }
}

/// One verdict as written in `expected.txt`.
pub fn verdict_str(v: &AssertionVerdict) -> String {
    match v.verdict {
        Verdict::Holds => "holds".to_owned(),
        Verdict::Vacuous => "vacuous".to_owned(),
        Verdict::Inconclusive => "inconclusive".to_owned(),
        Verdict::Fails {
            first_violation_time,
        } => format!("fails@{}", first_violation_time.as_fs()),
    }
}
