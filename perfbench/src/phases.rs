//! Round-phase breakdown from the span journal `rfl_trace` already emits.
//!
//! Phases run in parallel (client spans on worker threads, prefetch and
//! hibernate waves on background threads), so summing span durations
//! over-counts. Every number here is taken from the per-round *union* of a
//! phase's intervals, clipped to the round's own span: the time during which
//! at least one span of that phase was open.

use crate::report::Metric;
use crate::stats::{clip, union_len, Interval};
use crate::workloads::{Episode, Workload};
use rfl_trace::SpanRecord;

/// Phases on the round's critical path.
pub const FOREGROUND: [&str; 9] = [
    "select",
    "broadcast",
    "delta_broadcast",
    "local_train",
    "upload",
    "fold",
    "aggregate",
    "delta_sync",
    "eval",
];

/// Phases the pipelined engine runs on background threads.
pub const BACKGROUND: [&str; 2] = ["prefetch", "hibernate"];

/// One round's phase accounting, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct RoundPhases {
    pub wall: u64,
    /// Union of each phase's intervals, indexed like [`FOREGROUND`] then
    /// [`BACKGROUND`].
    pub union: Vec<u64>,
    /// Time each foreground phase is the only foreground phase open (its
    /// union minus the intervals of the other foreground phases), indexed
    /// like [`FOREGROUND`].
    pub exclusive: Vec<u64>,
    /// Union of every phase span, foreground and background.
    pub covered: u64,
    /// Union of the foreground phase spans.
    pub covered_fg: u64,
    /// Summed `local_train` span durations (client-seconds of work).
    pub client_sum: u64,
    /// Busy time of the background waves launched in this round.
    pub prefetch_busy: u64,
    pub hibernate_busy: u64,
    pub prefetch_clients: u64,
    pub participants: u64,
    pub delta_broadcast_bytes: u64,
}

fn interval(r: &SpanRecord) -> Interval {
    (r.start_ns, r.start_ns + r.dur_ns)
}

/// Splits a span journal into per-round phase accounting.
pub fn analyze(spans: &[SpanRecord]) -> Vec<RoundPhases> {
    let kinds: Vec<&str> = FOREGROUND.iter().chain(&BACKGROUND).copied().collect();
    let by_kind: Vec<Vec<&SpanRecord>> = kinds
        .iter()
        .map(|k| spans.iter().filter(|r| r.kind == *k).collect())
        .collect();
    let mut rounds: Vec<&SpanRecord> = spans.iter().filter(|r| r.kind == "round").collect();
    rounds.sort_by_key(|r| r.start_ns);
    rounds
        .iter()
        .map(|round| {
            let window = interval(round);
            let clipped: Vec<Vec<Interval>> = by_kind
                .iter()
                .map(|rs| clip(&rs.iter().map(|r| interval(r)).collect::<Vec<_>>(), window))
                .collect();
            let union: Vec<u64> = clipped.iter().map(|iv| union_len(iv)).collect();
            let fg: Vec<Interval> = clipped[..FOREGROUND.len()].concat();
            let covered_fg = union_len(&fg);
            let exclusive = (0..FOREGROUND.len())
                .map(|k| {
                    let others: Vec<Interval> = (0..FOREGROUND.len())
                        .filter(|&j| j != k)
                        .flat_map(|j| clipped[j].iter().copied())
                        .collect();
                    covered_fg - union_len(&others)
                })
                .collect();
            let in_round = |kind: &str| {
                let i = kinds.iter().position(|k| *k == kind).expect("known kind");
                by_kind[i]
                    .iter()
                    .filter(move |r| r.round == round.round)
                    .copied()
            };
            let lt = FOREGROUND
                .iter()
                .position(|k| *k == "local_train")
                .expect("kind");
            RoundPhases {
                wall: round.dur_ns,
                covered: union_len(&clipped.concat()),
                covered_fg,
                client_sum: clipped[lt].iter().map(|(s, e)| e - s).sum(),
                prefetch_busy: in_round("prefetch").map(|r| r.dur_ns).sum(),
                hibernate_busy: in_round("hibernate").map(|r| r.dur_ns).sum(),
                prefetch_clients: in_round("prefetch")
                    .filter_map(|r| r.counter("clients"))
                    .sum(),
                participants: round.counter("participants").unwrap_or(0),
                delta_broadcast_bytes: in_round("delta_broadcast")
                    .filter_map(|r| r.counter("bytes"))
                    .sum(),
                union,
                exclusive,
            }
        })
        .collect()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The `federation.*`, `registry.*` and `comm.*` per-layer metrics of the
/// traced episodes. Phase times are means per round, so the phases of one
/// round add up to its wall time less the residual.
pub fn metrics(w: Workload, eps: &[&Episode]) -> Vec<Metric> {
    let rounds: Vec<RoundPhases> = eps.iter().flat_map(|e| analyze(&e.spans)).collect();
    let n = rounds.len().max(1) as f64;
    let total = |f: &dyn Fn(&RoundPhases) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let wall = total(&|r| r.wall);
    let idx = |k: &str| {
        FOREGROUND
            .iter()
            .chain(&BACKGROUND)
            .position(|p| *p == k)
            .expect("kind")
    };
    let per_round = |kind: &'static str| -> (f64, f64) {
        let i = idx(kind);
        let excl = if i < FOREGROUND.len() {
            total(&|r| r.exclusive[i])
        } else {
            0.0
        };
        (ms(total(&|r| r.union[i]) / n), ms(excl / n))
    };

    println!(
        "phase breakdown over {} traced rounds (mean per round; union of each phase's spans, \
         and the part no other foreground phase overlaps):",
        rounds.len()
    );
    println!(
        "  {:<16} {:>10} {:>10} {:>8}",
        "phase", "union ms", "own ms", "% wall"
    );
    for kind in FOREGROUND.iter().chain(&BACKGROUND) {
        let (u, own) = per_round(kind);
        println!(
            "  {:<16} {:>10.3} {:>10.3} {:>7.1}%",
            kind,
            u,
            own,
            100.0 * u / ms(wall / n)
        );
    }
    println!("  {:<16} {:>10.3}", "round wall", ms(wall / n));

    let phase = |name: &'static str, kind: &'static str| {
        let (u, own) = per_round(kind);
        Metric::exact(
            name,
            "ms",
            u,
            &format!(
                "mean per round of {} rounds; {own:.3} ms with no other foreground phase open",
                rounds.len()
            ),
        )
    };
    let threads = eps.first().map_or(1, |e| e.threads_budget) as f64;
    let lt = idx("local_train");
    let train_union = total(&|r| r.union[lt]);
    let residual = 1.0 - total(&|r| r.covered) / wall;
    let participants = total(&|r| r.participants);
    let comm_rounds: f64 = eps
        .iter()
        .map(|e| e.losses.len() as f64)
        .sum::<f64>()
        .max(1.0);
    let comm = |f: &dyn Fn(&Episode) -> u64| eps.iter().map(|e| f(e)).sum::<u64>() as f64;
    vec![
        phase("federation.local_train_ms", "local_train"),
        Metric::exact(
            "federation.train_idle_frac",
            "fraction",
            1.0 - total(&|r| r.client_sum) / (train_union * threads).max(1.0),
            &format!("1 − client span time ÷ (local_train union × {threads} threads)"),
        ),
        phase("federation.eval_ms", "eval"),
        phase("federation.delta_sync_ms", "delta_sync"),
        phase("federation.delta_broadcast_ms", "delta_broadcast"),
        Metric::exact(
            "federation.delta_broadcast_bytes",
            "bytes",
            total(&|r| r.delta_broadcast_bytes) / n,
            "mean per round, from the delta_broadcast span counters",
        ),
        phase("federation.broadcast_ms", "broadcast"),
        phase("federation.upload_ms", "upload"),
        phase("federation.fold_ms", "fold"),
        phase("federation.select_ms", "select"),
        phase("federation.aggregate_ms", "aggregate"),
        Metric::exact(
            "federation.residual_frac",
            "fraction",
            residual,
            &format!(
                "round wall no phase span covers; stated residual {} ({})",
                w.stated_residual(),
                if residual <= w.stated_residual() {
                    "within"
                } else {
                    "EXCEEDED"
                }
            ),
        ),
        Metric::exact(
            "registry.prefetch_ms",
            "ms",
            ms(total(&|r| r.prefetch_busy) / n),
            "background busy time per round",
        ),
        Metric::exact(
            "registry.hibernate_ms",
            "ms",
            ms(total(&|r| r.hibernate_busy) / n),
            "background busy time per round",
        ),
        Metric::exact(
            "registry.prefetch_wait_ms",
            "ms",
            ms(total(&|r| r.covered - r.covered_fg) / n),
            "round time covered only by background waves (the round waiting on them)",
        ),
        Metric::exact(
            "registry.prefetch_cover",
            "fraction",
            total(&|r| r.prefetch_clients) / participants.max(1.0),
            "clients materialized ahead by prefetch waves ÷ participants",
        ),
        Metric::exact(
            "registry.persisted_clients",
            "count",
            eps.iter().map(|e| e.persisted as f64).sum::<f64>() / eps.len().max(1) as f64,
            "hibernated clients after the last round, mean over traced episodes",
        ),
        Metric::exact(
            "comm.up_bytes",
            "bytes",
            comm(&|e| e.comm.upload_bytes()) / comm_rounds,
            "per round, metered",
        ),
        Metric::exact(
            "comm.down_bytes",
            "bytes",
            comm(&|e| e.comm.download_bytes()) / comm_rounds,
            "per round, metered",
        ),
        Metric::exact(
            "comm.delta_bytes",
            "bytes",
            comm(&|e| e.comm.delta_bytes()) / comm_rounds,
            "per round, metered (part of up + down)",
        ),
        Metric::exact(
            "comm.messages",
            "count",
            comm(&|e| e.comm.messages()) / comm_rounds,
            "per round",
        ),
        Metric::exact(
            "comm.dropped",
            "count",
            comm(&|e| e.faults.dropped),
            "dropped messages over the traced episodes",
        ),
        Metric::exact(
            "comm.retries",
            "count",
            comm(&|e| e.faults.retries),
            "retried messages over the traced episodes",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: &'static str, round: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            kind,
            label: None,
            round: Some(round),
            client: None,
            start_ns: start,
            dur_ns: dur,
            counters: vec![("participants", 4), ("clients", 3), ("bytes", 10)],
        }
    }

    #[test]
    fn unions_clip_to_the_round_and_count_overlap_once() {
        let spans = vec![
            span(1, "round", 0, 0, 100),
            // Two clients training in parallel: [10, 50) and [20, 60).
            span(2, "local_train", 0, 10, 40),
            span(3, "local_train", 0, 20, 40),
            // Fold encloses the upload.
            span(4, "fold", 0, 60, 20),
            span(5, "upload", 0, 62, 10),
            // A prefetch wave launched in round 0 runs past its end.
            span(6, "prefetch", 0, 70, 50),
            span(7, "round", 1, 130, 10),
            span(8, "eval", 1, 132, 4),
        ];
        let rounds = analyze(&spans);
        assert_eq!(rounds.len(), 2);
        let r0 = &rounds[0];
        let at = |k: &str| {
            FOREGROUND
                .iter()
                .chain(&BACKGROUND)
                .position(|p| *p == k)
                .unwrap()
        };
        assert_eq!(r0.wall, 100);
        assert_eq!(r0.union[at("local_train")], 50);
        assert_eq!(r0.client_sum, 80);
        assert_eq!(r0.union[at("fold")], 20);
        assert_eq!(r0.exclusive[at("fold")], 10);
        assert_eq!(r0.exclusive[at("upload")], 0);
        // Clipped to the round: [70, 100).
        assert_eq!(r0.union[at("prefetch")], 30);
        assert_eq!(r0.covered_fg, 70);
        // [10, 60) ∪ [60, 80) ∪ [70, 100) = 90 of 100.
        assert_eq!(r0.covered, 90);
        assert_eq!(r0.prefetch_busy, 50);
        assert_eq!(r0.prefetch_clients, 3);
        assert_eq!(r0.participants, 4);
        let r1 = &rounds[1];
        assert_eq!(r1.union[at("eval")], 4);
        assert_eq!(r1.union[at("prefetch")], 0);
        assert_eq!(r1.covered, 4);
    }
}
