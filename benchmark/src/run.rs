//! One benchmark run: set a workload up, repeat it for the requested
//! time, check every result, and reduce the repetitions to the metric
//! set of the requested mode (end-to-end with tracing off, per-layer
//! with tracing on).

use crate::golden::{accuracy, Golden, GoldenSpec, REFERENCE_SEED};
use crate::names;
use crate::oneshot::{
    Bench, FlowPath, Prepared, Rep, Spec, BOUM2W_DHRYSTONE, ROK_DHRYSTONE, ROK_GCC, ROK_QSORT,
    ROK_VVADD, SMOKE_QSORT, SMOKE_VVADD, SMOKE_VVADD_JIT,
};
use crate::serve;
use crate::stats::median;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use strober::StroberFlow;

/// Fewest cold set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;
/// A one-shot run keeps setting up until it has spent this long on it
/// (or made [`MAX_SETUPS`]): five set-ups of 30 ms all fall into one
/// 0.15 s stretch of the host, and their median spread up to 29 % over
/// ten identical runs.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 25;
/// Fewest rounds (one estimate per seed, or one burst) a run makes,
/// however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Reservoir seeds a run times when its estimates are short: `--seed`
/// and `--seed + 1`. The number of snapshot records — two thirds of the
/// cost on the capture-bound workloads — depends on the seed (±6 % at
/// n = 30), so one seed would tie a run's result to its luck.
const SEEDS_PER_RUN: u64 = 2;
/// Rounds a run should fit into `--seconds` before it spends them on a
/// second seed: the fastest of too few repetitions says little.
const ROUNDS_WORTH_SPLITTING: f64 = 4.0;
/// A run whose operations keep failing stops after this many failures
/// instead of burning its whole time budget.
const MAX_FAILURES: u64 = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`names::WORKLOADS`]).
    pub workload: String,
    /// Benchmark seed: the timed estimates sample with reservoir seeds
    /// `seed`, `seed + 1`, … (a traced run with `seed` alone); on the
    /// served workload it orders the jobs.
    pub seed: u64,
    /// How long to keep repeating.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
    /// Tiny-core stand-ins, one repetition, no goldens.
    pub smoke: bool,
    /// Private scratch directory inside the checkout.
    pub scratch: PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Estimates attempted (reference, timed, traced, or served jobs).
    pub attempted: u64,
    /// Estimates that returned an error or failed a check.
    pub failed: u64,
    /// Why, one line each.
    pub problems: Vec<String>,
    /// Every metric of the mode's set.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Repetition-level detail for the result file.
    pub detail: Value,
}

impl Outcome {
    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

enum Plan {
    OneShot(Spec, FlowPath),
    Serve([Spec; 2]),
}

fn plan(workload: &str, smoke: bool) -> Option<Plan> {
    let pick = |full: Spec, tiny: Spec| if smoke { tiny } else { full };
    Some(match workload {
        "rok-dhrystone-n30" => Plan::OneShot(pick(ROK_DHRYSTONE, SMOKE_VVADD), FlowPath::Phased),
        "rok-gcc-long" => Plan::OneShot(pick(ROK_GCC, SMOKE_QSORT), FlowPath::Phased),
        "boum2w-dhrystone-replay" => {
            Plan::OneShot(pick(BOUM2W_DHRYSTONE, SMOKE_VVADD_JIT), FlowPath::Phased)
        }
        "rok-dhrystone-stream" => Plan::OneShot(pick(ROK_DHRYSTONE, SMOKE_VVADD), FlowPath::Stream),
        "serve-rok-burst" => {
            Plan::Serve([pick(ROK_VVADD, SMOKE_VVADD), pick(ROK_QSORT, SMOKE_QSORT)])
        }
        _ => return None,
    })
}

/// Runs one workload. `Err` means the run could not be carried out at
/// all (unknown workload, set-up failure, no reference result); failed
/// or incorrect operations are counted in the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let plan = plan(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let golden = if opts.smoke {
        None
    } else {
        Some(Golden::committed()?)
    };
    let golden_for = |spec: &Spec| -> Result<Option<GoldenSpec>, String> {
        match &golden {
            None => Ok(None),
            Some(g) => g
                .specs
                .get(spec.id)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("no golden for `{}`; run --bless", spec.id)),
        }
    };
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    let mut outcome = match plan {
        Plan::OneShot(spec, path) => {
            let run = OneShotRun {
                opts,
                bench: Bench::new(spec)?,
                path,
                golden: golden_for(&spec)?,
                ops: Ops::default(),
            };
            if opts.trace {
                run.layers()
            } else {
                run.end_to_end()
            }
        }
        Plan::Serve(specs) => {
            let goldens = [golden_for(&specs[0])?, golden_for(&specs[1])?];
            serve::ServeRun::new(opts, specs, goldens).run()
        }
    }?;
    // Every metric of the mode's set, and nothing else: layers a
    // workload does not exercise read 0.
    let set = names::metric_set(opts.trace);
    debug_assert!(outcome
        .metrics
        .keys()
        .all(|k| set.iter().any(|m| m.name == *k)));
    for m in set {
        outcome.metrics.entry(m.name).or_insert(0.0);
    }
    Ok(outcome)
}

/// Operation accounting.
#[derive(Debug, Default)]
pub(crate) struct Ops {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ops {
    /// Counts one operation. A result that fails `check` is a failed
    /// operation but is still returned: its timing is as valid as any.
    pub(crate) fn record<T>(
        &mut self,
        what: &str,
        result: Result<T, String>,
        check: impl FnOnce(&T) -> Vec<String>,
    ) -> Option<T> {
        self.attempted += 1;
        let (value, bad) = match result {
            Ok(v) => {
                let bad = check(&v);
                (Some(v), bad)
            }
            Err(e) => (None, vec![e]),
        };
        if !bad.is_empty() {
            self.failed += 1;
            self.problems
                .extend(bad.into_iter().map(|b| format!("{what}: {b}")));
        }
        value
    }

    pub(crate) fn into_outcome(
        self,
        metrics: BTreeMap<&'static str, f64>,
        detail: Value,
    ) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            detail,
        }
    }
}

/// Whether to start round number `done` (from 0) of a run that began
/// repeating at `since`.
pub(crate) fn keep_going(opts: &Options, ops: &Ops, done: usize, since: Instant) -> bool {
    if ops.failed >= MAX_FAILURES {
        false
    } else if opts.smoke {
        done < 1
    } else {
        done < MIN_ROUNDS || since.elapsed().as_secs_f64() < opts.seconds
    }
}

pub(crate) fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// `VmHWM` of this process, in MiB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

struct OneShotRun<'a> {
    opts: &'a Options,
    bench: Bench,
    path: FlowPath,
    golden: Option<GoldenSpec>,
    ops: Ops,
}

impl OneShotRun<'_> {
    /// Counts one estimate: its shape (sample count, a plausible power)
    /// plus whatever `extra` checks.
    fn record(
        &mut self,
        what: &str,
        rep: Result<Rep, String>,
        extra: impl FnOnce(&Rep) -> Vec<String>,
    ) -> Option<Rep> {
        let spec = &self.bench.spec;
        self.ops.record(what, rep, |rep| {
            let mut bad = Vec::new();
            if rep.samples != spec.samples {
                bad.push(format!(
                    "replayed {} samples, expected {}",
                    rep.samples, spec.samples
                ));
            }
            if !(rep.power_mw > 0.0 && rep.half_width_mw.is_finite()) {
                bad.push(format!(
                    "implausible estimate {} ± {} mW",
                    rep.power_mw, rep.half_width_mw
                ));
            }
            bad.extend(extra(rep));
            bad
        })
    }

    /// Checks against the golden: everything on the reference seed, the
    /// seed-independent part on any other.
    fn against_golden(&self) -> impl Fn(&Rep) -> Vec<String> {
        let golden = self.golden.clone();
        move |rep: &Rep| match &golden {
            Some(g) if rep.seed == REFERENCE_SEED => rep.check_reference(g),
            Some(g) => rep.check_seed_independent(g),
            None => Vec::new(),
        }
    }

    /// The reference estimate: the library's default reservoir seed,
    /// checked against the golden. It doubles as the warm-up nobody
    /// times. The streamed workload first runs the phased flow on the
    /// same session and must reproduce it bit for bit.
    fn reference(&mut self, prepared: &mut Prepared) -> Result<Rep, String> {
        let flow = self.bench.warm_flow(prepared, REFERENCE_SEED)?;
        let against_golden = self.against_golden();
        let phased = if self.path == FlowPath::Stream {
            let rep = self.bench.estimate_once(&flow, FlowPath::Phased, false);
            let rep = self.record("reference (phased)", rep, &against_golden);
            Some(rep.ok_or("the phased reference estimate failed")?)
        } else {
            None
        };
        let rep = self.bench.estimate_once(&flow, self.path, false);
        self.record("reference", rep, |rep| {
            let mut bad = against_golden(rep);
            if let Some(phased) = &phased {
                bad.extend(rep.check_identical(phased));
            }
            bad
        })
        .ok_or_else(|| "the reference estimate failed".to_owned())
    }

    /// One timed estimate on a warm session.
    fn timed_rep(&mut self, flow: &StroberFlow, traced: bool) -> Option<Rep> {
        let rep = self.bench.estimate_once(flow, self.path, traced);
        let what = format!("seed {:#x}", flow.config().seed);
        self.record(&what, rep, self.against_golden())
    }

    fn end_to_end(mut self) -> Result<Outcome, String> {
        let mut setup_s = Vec::new();
        let mut prepared = loop {
            let dir = self.opts.scratch.join(format!("setup-{}", setup_s.len()));
            let (prepared, times) = self.bench.cold_setup(&dir)?;
            setup_s.push(times.total_s());
            let enough = setup_s.len() >= SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SECONDS;
            if self.opts.smoke || enough || setup_s.len() == MAX_SETUPS {
                break prepared;
            }
        };
        let reference = self.reference(&mut prepared)?;

        // Rounds over the run's seeds, all sessions warm before the clock
        // starts. A workload whose estimates are long keeps to one seed
        // and repeats that more often.
        let rounds_that_fit = self.opts.seconds / (reference.wall_s * SEEDS_PER_RUN as f64);
        let seeds_timed = if rounds_that_fit >= ROUNDS_WORTH_SPLITTING {
            SEEDS_PER_RUN
        } else {
            1
        };
        let seeds: Vec<u64> = (0..seeds_timed)
            .map(|k| self.opts.seed.wrapping_add(k))
            .collect();
        let flows = seeds
            .iter()
            .map(|&seed| self.bench.warm_flow(&mut prepared, seed))
            .collect::<Result<Vec<_>, _>>()?;
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); flows.len()];
        let since = Instant::now();
        let mut rounds = 0;
        while keep_going(self.opts, &self.ops, rounds, since) {
            for (flow, walls) in flows.iter().zip(&mut walls) {
                if let Some(rep) = self.timed_rep(flow, false) {
                    walls.push(rep.wall_s);
                }
            }
            rounds += 1;
        }
        let wall = best_of_seeds(&walls).ok_or("no timed estimate finished")?;
        let (power_error_pct, ci_half_width_pct) = accuracy(
            reference.power_mw,
            reference.half_width_mw,
            self.golden.as_ref(),
        );
        let mut m = BTreeMap::new();
        m.insert("estimate_wall_s", wall);
        m.insert("target_cycles_per_s", reference.target_cycles as f64 / wall);
        m.insert("setup_s", med(&setup_s));
        m.insert("peak_rss_mb", peak_rss_mb()?);
        m.insert("power_error_pct", power_error_pct);
        m.insert("ci_half_width_pct", ci_half_width_pct);
        let detail = json!({
            "spec": self.bench.spec.id,
            "engine": flows[0].hub_engine_name(),
            "reps": rounds,
            "seeds": seeds,
            "walls_s": walls,
            "setups_s": setup_s,
            "reference": reference_detail(&reference),
        });
        Ok(self.ops.into_outcome(m, detail))
    }

    fn layers(mut self) -> Result<Outcome, String> {
        let (mut prepared, setup) = self
            .bench
            .traced_setup(&self.opts.scratch.join("traced-setup"))?;
        let reference = self.reference(&mut prepared)?;

        // Untraced and traced estimates of the same seed on one session,
        // swapping which goes first so neither always runs on the colder
        // caches. The layer table is the fastest traced estimate's, whole,
        // so its rows add up.
        let flow = self.bench.warm_flow(&mut prepared, self.opts.seed)?;
        let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut best: Option<Rep> = None;
        let since = Instant::now();
        let mut rounds = 0;
        while keep_going(self.opts, &self.ops, rounds, since) {
            for traced in [rounds % 2 == 1, rounds % 2 == 0] {
                let Some(rep) = self.timed_rep(&flow, traced) else {
                    continue;
                };
                if !traced {
                    plain_walls.push(rep.wall_s);
                    continue;
                }
                traced_walls.push(rep.wall_s);
                if best.as_ref().is_none_or(|b| rep.wall_s < b.wall_s) {
                    best = Some(rep);
                }
            }
            rounds += 1;
        }
        let best = best.ok_or("no traced estimate finished")?;

        let mut m = best.layers();
        m.extend(setup);
        if let Some(plain) = best_of(&plain_walls) {
            m.insert(
                "probe.trace_overhead_pct",
                (best.wall_s - plain) / plain * 100.0,
            );
        }
        let detail = json!({
            "spec": self.bench.spec.id,
            "engine": flow.hub_engine_name(),
            "reps": rounds,
            "seeds": [self.opts.seed],
            "traced_walls_s": traced_walls,
            "untraced_walls_s": plain_walls,
            "reference": reference_detail(&reference),
            "traced": reference_detail(&best),
            "spans": spans_detail(&best),
        });
        Ok(self.ops.into_outcome(m, detail))
    }
}

/// The fastest of a set of repetitions of the same work. The host adds
/// time to a repetition (a busy neighbour, a frequency dip) and never
/// takes any away, so the fastest is the one that says most about the
/// program; see the README for the measurements behind this choice.
pub(crate) fn best_of(seconds: &[f64]) -> Option<f64> {
    seconds.iter().copied().min_by(f64::total_cmp)
}

/// The mean over seeds of each seed's fastest repetition: best-of
/// within identical work, an average across differing work.
fn best_of_seeds(walls: &[Vec<f64>]) -> Option<f64> {
    let bests = walls
        .iter()
        .map(|w| best_of(w))
        .collect::<Option<Vec<f64>>>()?;
    Some(bests.iter().sum::<f64>() / bests.len() as f64)
}

fn reference_detail(rep: &Rep) -> Value {
    json!({
        "seed": rep.seed,
        "target_cycles": rep.target_cycles,
        "windows": rep.windows,
        "records": rep.records,
        "instret": rep.instret,
        "hub_cycles": rep.hub_cycles,
        "scan_overhead_cycles": rep.scan_overhead_cycles,
        "samples": rep.samples,
        "power_mw": rep.power_mw,
        "half_width_mw": rep.half_width_mw,
        "fingerprint": rep.fingerprint,
    })
}

fn spans_detail(rep: &Rep) -> Value {
    Value::Object(
        rep.spans
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    json!({"count": s.count, "total_s": s.total_s, "self_s": s.self_s}),
                )
            })
            .collect(),
    )
}
