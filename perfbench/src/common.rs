//! Seeded generation, sample accounting and the end-to-end metrics every
//! workload reports.

use std::time::Duration;

/// SplitMix64: seedable and reproducible on every platform. Every input
/// the benchmark generates (row draws, relabelings, deck orders, cold
/// request seeds) comes from one of these, keyed by the `--seed` flag.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5151_7A6B_3C2D_1E0F)
    }

    /// An independent stream for one consumer (a client, a pass).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// The median; `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, with the percentile and the sample count it was taken from.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    // Rank r (1-based) has n - r samples beyond it; the highest rank
    // with ten beyond is n - 10. Fewer than eleven samples: the maximum.
    let rank = if n > 10 { n - 10 } else { n };
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Why a request counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A request the benchmark built as valid was rejected as malformed,
    /// or a malformed line was not answered with a structured error.
    InvalidInput,
    /// The engine returned an error on valid input.
    ValidInputError,
    /// The answer failed verification.
    Verify,
    /// The daemon refused admission (`overloaded`).
    Overload,
    /// The daemon shed the job at dequeue (`deadline_expired`).
    Shed,
    /// No reply arrived.
    Timeout,
}

impl Failure {
    pub const ALL: [Failure; 6] = [
        Failure::InvalidInput,
        Failure::ValidInputError,
        Failure::Verify,
        Failure::Overload,
        Failure::Shed,
        Failure::Timeout,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Failure::InvalidInput => "invalid_input",
            Failure::ValidInputError => "valid_input_error",
            Failure::Verify => "verify",
            Failure::Overload => "overload",
            Failure::Shed => "shed",
            Failure::Timeout => "timeout",
        }
    }
}

/// What a successful request returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Answer {
    /// Objective F of a mapping answer (0 for a structured error).
    pub objective: u64,
    /// Minimality certificates offered: 1 for a monolithic answer, one
    /// per window for a stitched one, 0 for a structured error.
    pub certificates: u64,
    /// Of those, how many carry a proof.
    pub proved: u64,
    /// Whether this was a mapping answer (not an `invalid`-class error).
    pub mapping: bool,
}

/// One attempted request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: &'static str,
    /// The deck entry this request was drawn from, for workloads that
    /// repeat one deck pass after pass.
    pub slot: Option<usize>,
    pub latency_ms: f64,
    pub deadline: Option<Duration>,
    pub result: Result<Answer, Failure>,
}

impl Sample {
    /// Answered within its deadline plus the larger of 5% and 10 ms.
    /// Failures count as missing every latency limit.
    pub fn met_deadline(&self) -> bool {
        if self.result.is_err() {
            return false;
        }
        match self.deadline {
            None => true,
            Some(d) => {
                let d_ms = d.as_secs_f64() * 1e3;
                self.latency_ms <= d_ms + (0.05 * d_ms).max(10.0)
            }
        }
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub struct EndToEnd {
    pub maps_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail: Tail,
    pub added_cost: f64,
    pub proved_share: f64,
    pub deadline_met_share: f64,
    pub answered_share: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    /// `deck_passes` normalizes the Σ F: the objective summed over one
    /// pass of the workload's seeded deck, so runs that fit a different
    /// number of passes into their time stay comparable.
    pub fn from_samples(samples: &[Sample], wall_s: f64, deck_passes: f64, setup_s: f64) -> Self {
        let attempted = samples.len().max(1) as f64;
        // A failed request never answered: it ranks behind every success.
        let latencies: Vec<f64> = samples
            .iter()
            .map(|s| match s.result {
                Ok(_) => s.latency_ms,
                Err(_) => f64::INFINITY,
            })
            .collect();
        let answers: Vec<&Answer> = samples
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .collect();
        let certificates: u64 = answers.iter().map(|a| a.certificates).sum();
        let proved: u64 = answers.iter().map(|a| a.proved).sum();
        let mut latency_tail = tail(&latencies);
        // An unanswered request stands in as taking the whole run.
        if !latency_tail.value.is_finite() {
            latency_tail.value = wall_s * 1e3;
        }
        let mut latency_p50_ms = p50_ms(samples);
        if !latency_p50_ms.is_finite() {
            latency_p50_ms = wall_s * 1e3;
        }
        EndToEnd {
            maps_per_s: answers.len() as f64 / wall_s,
            latency_p50_ms,
            latency_tail,
            added_cost: answers.iter().map(|a| a.objective as f64).sum::<f64>() / deck_passes,
            proved_share: proved as f64 / certificates.max(1) as f64,
            deadline_met_share: samples.iter().filter(|s| s.met_deadline()).count() as f64
                / attempted,
            answered_share: answers.len() as f64 / attempted,
            setup_s,
        }
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("maps_per_s", self.maps_per_s),
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_tail_ms", self.latency_tail.value),
            ("added_cost", self.added_cost),
            ("proved_share", self.proved_share),
            ("deadline_met_share", self.deadline_met_share),
            ("answered_share", self.answered_share),
            ("setup_s", self.setup_s),
        ]
    }
}

/// The median request latency, by nearest rank (the sample at rank
/// ⌈n/2⌉). When the samples repeat a deck, each deck entry contributes
/// its mean latency over the passes: one entry's typical latency, which
/// neither blends two entries where the latencies of a mixed deck meet
/// nor flips between the modes of an entry whose engine race finishes
/// in one of two ways. Failed requests rank behind every success.
pub fn p50_ms(samples: &[Sample]) -> f64 {
    let latency = |s: &Sample| {
        if s.result.is_ok() {
            s.latency_ms
        } else {
            f64::INFINITY
        }
    };
    let lower_median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v.get(v.len().div_ceil(2).saturating_sub(1))
            .copied()
            .unwrap_or(0.0)
    };
    if samples.iter().any(|s| s.slot.is_none()) {
        return lower_median(samples.iter().map(latency).collect());
    }
    let mut by_slot: Vec<(usize, f64)> = samples
        .iter()
        .map(|s| (s.slot.expect("checked above"), latency(s)))
        .collect();
    by_slot.sort_by_key(|&(slot, _)| slot);
    lower_median(
        by_slot
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| group.iter().map(|&(_, l)| l).sum::<f64>() / group.len() as f64)
            .collect(),
    )
}

/// Failure counts by reason.
pub fn failure_counts(samples: &[Sample]) -> Vec<(&'static str, usize)> {
    Failure::ALL
        .iter()
        .map(|f| {
            let n = samples
                .iter()
                .filter(|s| s.result.err() == Some(*f))
                .count();
            (f.label(), n)
        })
        .collect()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
