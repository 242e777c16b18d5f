//! The verdict oracle: the committed `expected_verdicts.txt`, which is
//! also the cold-verify task list, and the classification of a run;
//! and the committed per-pass counts of `expected_counts.txt`.

use diaframe_bench::{ablation_configs, CachedRun, Variant};
use diaframe_core::Ablation;
use diaframe_examples::Example;

const EXPECTED: &str = include_str!("../expected_verdicts.txt");
const COUNTS: &str = include_str!("../expected_counts.txt");

/// The example registry, in Figure 6 row order.
pub type Registry = Vec<Box<dyn Example>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The search found proofs and the checker accepted them.
    Verified,
    /// The search got stuck.
    Rejected,
}

/// One row of the `figure6 --all` task list.
pub struct Task {
    pub example: usize,
    pub variant: Variant,
    pub ablation: Ablation,
    /// `ok`, `broken` or the ablation config, for reports.
    pub label: String,
    pub expect: Verdict,
}

/// Parses the committed task list against the example registry.
pub fn tasks(examples: &[Box<dyn Example>]) -> Result<Vec<Task>, String> {
    let configs = ablation_configs();
    let mut tasks = Vec::new();
    for line in EXPECTED.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [variant, config, name, verdict] = cols[..] else {
            return Err(format!("malformed oracle line {line:?}"));
        };
        let example = examples
            .iter()
            .position(|ex| ex.name() == name)
            .ok_or_else(|| format!("oracle names unknown example {name}"))?;
        let (variant, ablation, label) = match (variant, config) {
            ("ok", "-") => (Variant::Ok, Ablation::none(), "ok".to_owned()),
            ("broken", "-") => (Variant::Broken, Ablation::none(), "broken".to_owned()),
            ("ablated", cfg) => {
                let (_, ab) = configs
                    .iter()
                    .find(|(n, _)| n.replace(' ', "-") == cfg)
                    .ok_or_else(|| format!("oracle names unknown ablation {cfg}"))?;
                (Variant::Ok, *ab, cfg.to_owned())
            }
            _ => return Err(format!("malformed oracle line {line:?}")),
        };
        let expect = match verdict {
            "verified" => Verdict::Verified,
            "rejected" => Verdict::Rejected,
            _ => return Err(format!("unknown verdict {verdict:?}")),
        };
        tasks.push(Task {
            example,
            variant,
            ablation,
            label,
            expect,
        });
    }
    Ok(tasks)
}

/// The verdict of one run. A panic, a missing variant, a verified run
/// without checker steps or a proof the checker refused is an error,
/// whatever the oracle expects: a rejection must come from the search.
pub fn classify(run: &CachedRun) -> Result<Verdict, String> {
    match &run.outcome {
        Some(Ok(outcome)) if !outcome.proofs.is_empty() && run.counters.checker_steps > 0 => {
            Ok(Verdict::Verified)
        }
        Some(Ok(_)) => Err("verified without replaying any proof".to_owned()),
        Some(Err(e)) if e.starts_with("panicked") || e.starts_with("trace replay failed") => {
            Err(e.lines().next().unwrap_or_default().to_owned())
        }
        Some(Err(_)) => Ok(Verdict::Rejected),
        None => Err("no such variant".to_owned()),
    }
}

/// Checks the deterministic counts of every pass of `workload` against
/// the committed `expected_counts.txt`, so that they must repeat across
/// passes, runs and seeds, and prints them. Returns whether all match.
pub fn counts_match(workload: &str, passes: &[Vec<(&'static str, u64)>]) -> bool {
    let want: Vec<(&str, u64)> = COUNTS
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [w, name, value] if w == workload => Some((
                    name,
                    value
                        .parse()
                        .expect("expected_counts.txt: a count is a number"),
                )),
                _ => None,
            },
        )
        .collect();
    let differ: Vec<usize> = (0..passes.len()).filter(|&n| passes[n] != want).collect();
    if let Some(&n) = differ.first() {
        eprintln!(
            "{workload}: {} of {} passes differ from expected_counts.txt {want:?}; pass {n} has {:?}",
            differ.len(),
            passes.len(),
            passes[n]
        );
    }
    let ok = !passes.is_empty() && differ.is_empty();
    if let Some(first) = passes.first() {
        eprintln!("det: {first:?} over {} passes, match={ok}", passes.len());
    }
    ok
}
