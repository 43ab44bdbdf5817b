//! Open-loop load generator.
//!
//! A phase is a seeded Poisson schedule of operations. At most `senders`
//! threads claim operations in schedule order, sleep until each one's
//! due time, and run it; latency is timed from the due time, so a stall
//! also charges the requests queued behind it. Lateness (start − due)
//! and the backlog (operations due but not started) are reported as
//! the generator's own health. Failed operations count against the
//! attempts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due time, as an offset from the phase start.
    pub at: Duration,
    /// Whether the operation is an insert (otherwise a query).
    pub insert: bool,
}

/// A Poisson schedule at `rate` operations per second over `seconds`,
/// a fraction `insert_frac` of them inserts.
pub fn poisson(rate: f64, seconds: f64, insert_frac: f64, seed: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        let insert = rng.random::<f64>() < insert_frac;
        out.push(Planned {
            at: Duration::from_secs_f64(t),
            insert,
        });
    }
}

/// `n` operations all due at the phase start: the senders run them back
/// to back, which measures capacity (a closed loop of `senders` clients).
pub fn saturate(n: usize, insert_frac: f64, seed: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Planned {
            at: Duration::ZERO,
            insert: rng.random::<f64>() < insert_frac,
        })
        .collect()
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Operations never started because the phase's deadline passed.
    pub unsent: u64,
    /// Query latencies from the due time, ms.
    pub query_ms: Vec<f64>,
    /// Insert latencies from the due time, ms.
    pub insert_ms: Vec<f64>,
    /// Start − due, ms, per operation sent.
    pub late_ms: Vec<f64>,
    pub backlog_max: u64,
    /// Whether the backlog in the last quarter of the phase exceeded the
    /// first quarter's by more than the number of senders.
    pub backlog_grew: bool,
    /// Operations completed per second of phase wall time.
    pub completed_per_s: f64,
}

/// Runs `plan` with `senders` threads. `op(i, due)` performs operation
/// `i` (its request id is `i + 1`) and reports success; operations not
/// started `grace` after the schedule's last due time are skipped.
pub fn run<F>(plan: &[Planned], senders: usize, grace: Duration, op: F) -> Phase
where
    F: Fn(usize, Instant) -> Result<(), String> + Sync,
{
    struct Done {
        insert: bool,
        ok: bool,
        latency_ms: f64,
        late_ms: f64,
        backlog: u64,
        end: Instant,
    }
    let next = AtomicUsize::new(0);
    let unsent = AtomicU64::new(0);
    let done: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(2);
    let deadline = start + plan.last().map_or(Duration::ZERO, |p| p.at) + grace;
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(p) = plan.get(i) else { break };
                let due = start + p.at;
                let now = Instant::now();
                if now > deadline {
                    unsent.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                let began = Instant::now();
                let elapsed = began.saturating_duration_since(start);
                let due_by_now = plan.partition_point(|q| q.at <= elapsed);
                let backlog = due_by_now.saturating_sub(i + 1) as u64;
                let ok = op(i, due).is_ok();
                let end = Instant::now();
                let rec = Done {
                    insert: p.insert,
                    ok,
                    latency_ms: end.saturating_duration_since(due).as_secs_f64() * 1e3,
                    late_ms: began.saturating_duration_since(due).as_secs_f64() * 1e3,
                    backlog,
                    end,
                };
                done.lock().expect("a sender panicked").push((i, rec));
            });
        }
    });
    let mut done = done.into_inner().expect("a sender panicked");
    done.sort_by_key(|(i, _)| *i);
    let mut out = Phase {
        unsent: unsent.into_inner(),
        ..Phase::default()
    };
    let mut last_end = start;
    for (_, d) in &done {
        out.sent += 1;
        out.late_ms.push(d.late_ms);
        out.backlog_max = out.backlog_max.max(d.backlog);
        last_end = last_end.max(d.end);
        if d.ok {
            out.ok += 1;
            if d.insert {
                out.insert_ms.push(d.latency_ms);
            } else {
                out.query_ms.push(d.latency_ms);
            }
        } else {
            out.failed += 1;
        }
    }
    let quarter = done.len() / 4;
    if quarter > 0 {
        let mean_backlog = |xs: &[(usize, Done)]| {
            xs.iter().map(|(_, d)| d.backlog as f64).sum::<f64>() / xs.len() as f64
        };
        let first = mean_backlog(&done[..quarter]);
        let last = mean_backlog(&done[done.len() - quarter..]);
        out.backlog_grew = last > first + senders as f64;
    }
    let wall = last_end.saturating_duration_since(start).as_secs_f64();
    out.completed_per_s = if wall > 0.0 {
        out.ok as f64 / wall
    } else {
        0.0
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_near_rate() {
        let a = poisson(1000.0, 2.0, 0.1, 7);
        let b = poisson(1000.0, 2.0, 0.1, 7);
        assert_eq!(a.len(), b.len());
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        let inserts = a.iter().filter(|p| p.insert).count();
        assert!((100..300).contains(&inserts), "{inserts}");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn run_counts_every_outcome() {
        let plan = poisson(2000.0, 0.05, 0.5, 3);
        let phase = run(&plan, 2, Duration::from_secs(1), |i, _| {
            if i % 10 == 0 {
                Err("refused".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(phase.sent as usize, plan.len());
        assert_eq!(phase.ok + phase.failed, phase.sent);
        assert_eq!(phase.failed as usize, plan.len().div_ceil(10));
        assert_eq!(
            phase.query_ms.len() + phase.insert_ms.len(),
            phase.ok as usize
        );
    }
}
