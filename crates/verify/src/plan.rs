//! Reproducible fault-campaign plans.
//!
//! A [`FaultPlan`] pins everything a campaign needs to be replayed
//! bit-for-bit: the RNG seed, the number of trials per matrix cell, and
//! the fault classes to exercise. Plans round-trip through a small
//! line-oriented text format (`key = value`, `#` comments) so campaigns
//! can be stored next to CI configs and attached to bug reports.
//!
//! Parsing collects *every* problem in a plan file into one
//! [`PlanError`], each tagged with its line number — a hand-edited plan
//! with three typos reports all three at once instead of one per run.

use std::fmt;

/// One class of injected protocol-state corruption or message fault.
///
/// Classes marked *conservative-overstatement* in the paper's terminology
/// (a directory claiming more sharers than exist) are legal states by
/// design and therefore not represented here: the campaign only injects
/// corruptions the protocol is supposed to make impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip a Shared node-level copy to Forward, minting a second
    /// forwardable copy of the line.
    MintForwarder,
    /// Flip a Shared node-level copy to Modified while other copies exist.
    BreakMExclusivity,
    /// Silently drop a line from an inclusive L3 slice, orphaning the
    /// private core copies above it.
    DropL3Line,
    /// Clear the L3 core-valid bits for a line a core still caches.
    ClearCoreValid,
    /// Reset the in-memory directory to remote-invalid while a remote
    /// node holds the line (COD only).
    DirUnderstate,
    /// Remove the dirty owner from a live HitME presence vector (COD
    /// only).
    HitMeDropNode,
    /// Set the clean bit on a HitME entry whose line is held Modified
    /// (COD only).
    HitMeFalseClean,
    /// Make a calibration latency constant negative.
    CalibNegative,
    /// Make a calibration constant NaN.
    CalibNan,
    /// Swallow snoop messages, fabricating "no copy" responses so a
    /// requester completes against stale memory data.
    DropSnoop,
    /// Stall snoop messages long enough that the transaction walk blows
    /// its latency budget.
    DelaySnoop,
}

impl FaultClass {
    /// Every class, in reporting order.
    pub const ALL: [FaultClass; 11] = [
        FaultClass::MintForwarder,
        FaultClass::BreakMExclusivity,
        FaultClass::DropL3Line,
        FaultClass::ClearCoreValid,
        FaultClass::DirUnderstate,
        FaultClass::HitMeDropNode,
        FaultClass::HitMeFalseClean,
        FaultClass::CalibNegative,
        FaultClass::CalibNan,
        FaultClass::DropSnoop,
        FaultClass::DelaySnoop,
    ];

    /// Stable identifier used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::MintForwarder => "mint-forwarder",
            FaultClass::BreakMExclusivity => "break-m-exclusivity",
            FaultClass::DropL3Line => "drop-l3-line",
            FaultClass::ClearCoreValid => "clear-core-valid",
            FaultClass::DirUnderstate => "dir-understate",
            FaultClass::HitMeDropNode => "hitme-drop-node",
            FaultClass::HitMeFalseClean => "hitme-false-clean",
            FaultClass::CalibNegative => "calib-negative",
            FaultClass::CalibNan => "calib-nan",
            FaultClass::DropSnoop => "drop-snoop",
            FaultClass::DelaySnoop => "delay-snoop",
        }
    }

    /// Parse a [`name`](Self::name) back into the class.
    pub fn from_name(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.name() == s)
    }

    /// Whether the class touches in-memory-directory state and therefore
    /// only applies to directory-enabled (COD) modes.
    pub fn requires_directory(self) -> bool {
        matches!(self, FaultClass::DirUnderstate)
    }

    /// Whether the class touches HitME state (COD with HitME enabled).
    pub fn requires_hitme(self) -> bool {
        matches!(self, FaultClass::HitMeDropNode | FaultClass::HitMeFalseClean)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every problem found in a plan file, each tagged with its 1-based line
/// number. Parsing keeps going after the first bad line so a hand-edited
/// plan reports all of its typos in one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// `(line, message)` pairs in file order.
    pub errors: Vec<(usize, String)>,
}

impl PlanError {
    fn push(&mut self, line: usize, message: impl Into<String>) {
        self.errors.push((line, message.into()));
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (line, msg)) in self.errors.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "line {line}: {msg}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for String {
    fn from(e: PlanError) -> String {
        e.to_string()
    }
}

/// A reproducible fault-injection campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed deriving every per-trial choice (target line, actors).
    pub seed: u64,
    /// Trials per (mode, class) matrix cell.
    pub trials: u32,
    /// Fault classes to exercise.
    pub classes: Vec<FaultClass>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xC0FFEE,
            trials: 4,
            classes: FaultClass::ALL.to_vec(),
        }
    }
}

impl FaultPlan {
    /// A minimal single-trial plan for CI smoke runs.
    pub fn quick() -> Self {
        FaultPlan { trials: 1, ..FaultPlan::default() }
    }

    /// Serialize to the plan text format.
    pub fn to_text(&self) -> String {
        let classes: Vec<&str> = self.classes.iter().map(|c| c.name()).collect();
        format!(
            "# hswx fault-injection plan\nseed = {:#x}\ntrials = {}\nclasses = {}\n",
            self.seed,
            self.trials,
            classes.join(", ")
        )
    }

    /// Parse the plan text format. Unknown keys and class names are
    /// errors; omitted keys keep their [`Default`] values. All problems
    /// are collected into one [`PlanError`] rather than stopping at the
    /// first.
    pub fn from_text(text: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        let mut errors = PlanError { errors: Vec::new() };
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                errors.push(lineno, format!("expected `key = value`, got {raw:?}"));
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => match parse_u64(value) {
                    Some(v) => plan.seed = v,
                    None => errors.push(lineno, format!("bad seed {value:?}")),
                },
                "trials" => {
                    match parse_u64(value)
                        .and_then(|v| u32::try_from(v).ok())
                        .filter(|&v| v > 0)
                    {
                        Some(v) => plan.trials = v,
                        None => errors.push(lineno, format!("bad trials {value:?}")),
                    }
                }
                "classes" => {
                    let mut classes = Vec::new();
                    for name in value.split(',') {
                        let name = name.trim();
                        if name.is_empty() {
                            continue;
                        }
                        match FaultClass::from_name(name) {
                            Some(class) => {
                                if !classes.contains(&class) {
                                    classes.push(class);
                                }
                            }
                            None => {
                                errors.push(lineno, format!("unknown fault class {name:?}"));
                            }
                        }
                    }
                    if classes.is_empty() {
                        errors.push(lineno, "empty class list");
                    } else {
                        plan.classes = classes;
                    }
                }
                other => errors.push(lineno, format!("unknown key {other:?}")),
            }
        }
        if errors.errors.is_empty() {
            Ok(plan)
        } else {
            Err(errors)
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let plan = FaultPlan { seed: 0xDEAD, trials: 7, classes: FaultClass::ALL.to_vec() };
        let parsed = FaultPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_subset_and_comments() {
        let text = "# campaign\nseed = 42\nclasses = drop-snoop, calib-nan # msg faults\n";
        let plan = FaultPlan::from_text(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.trials, FaultPlan::default().trials);
        assert_eq!(plan.classes, vec![FaultClass::DropSnoop, FaultClass::CalibNan]);
    }

    #[test]
    fn rejects_unknown_class_and_key() {
        assert!(FaultPlan::from_text("classes = flip-bits\n").is_err());
        // Classes of the removed sharded runtime and fault-recovery model,
        // as old plans name them.
        for old in ["shard-panic", "qpi-crc", "poison-line"] {
            let err = FaultPlan::from_text(&format!("# old plan\nclasses = {old}\n")).unwrap_err();
            assert_eq!(err.errors[0], (2, format!("unknown fault class {old:?}")), "{err}");
        }
        assert!(FaultPlan::from_text("sed = 1\n").is_err());
    }

    #[test]
    fn collects_every_error_with_line_numbers() {
        let text = "seed = zzz\ntrials = 0\nclasses = drop-snoop, flip-bits\nbogus-key = 1\nno-equals-here\n";
        let err = FaultPlan::from_text(text).unwrap_err();
        let lines: Vec<usize> = err.errors.iter().map(|&(l, _)| l).collect();
        assert_eq!(lines, vec![1, 2, 3, 4, 5], "all five problems reported: {err}");
        let rendered = err.to_string();
        assert!(rendered.contains("line 1: bad seed"), "{rendered}");
        assert!(rendered.contains("line 3: unknown fault class \"flip-bits\""), "{rendered}");
        assert!(rendered.contains("line 5: expected `key = value`"), "{rendered}");
    }

    #[test]
    fn every_class_name_round_trips() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(class.name()), Some(class));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_classes() -> impl Strategy<Value = Vec<FaultClass>> {
        proptest::collection::vec(0usize..FaultClass::ALL.len(), 1..FaultClass::ALL.len())
            .prop_map(|idxs| {
                let mut v = Vec::new();
                for i in idxs {
                    let c = FaultClass::ALL[i];
                    if !v.contains(&c) {
                        v.push(c);
                    }
                }
                v
            })
    }

    /// Printable-ASCII-plus-newline soup, up to ~400 chars — enough to
    /// hit comments, blank lines, junk keys, and malformed values.
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![Just('\n'), (0x20u8..0x7f).prop_map(|b| b as char)],
            0..400usize,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        /// Any plan serializes to text that parses back to itself.
        #[test]
        fn any_plan_round_trips(seed in any::<u64>(), trials in 1u32..10_000, classes in arb_classes()) {
            let plan = FaultPlan { seed, trials, classes };
            let parsed = FaultPlan::from_text(&plan.to_text()).unwrap();
            prop_assert_eq!(parsed, plan);
        }

        /// Junk interleaved with valid lines never panics, and every
        /// reported error carries a plausible line number.
        #[test]
        fn arbitrary_text_never_panics(text in arb_text()) {
            match FaultPlan::from_text(&text) {
                Ok(plan) => prop_assert!(!plan.classes.is_empty()),
                Err(e) => {
                    let n_lines = text.lines().count();
                    prop_assert!(!e.errors.is_empty());
                    for &(line, _) in &e.errors {
                        prop_assert!(line >= 1 && line <= n_lines.max(1));
                    }
                }
            }
        }
    }
}
