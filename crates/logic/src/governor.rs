//! The cooperative execution governor.
//!
//! Hegner's complexity results (Theorems 2.3.4/2.3.6/2.3.9) bound each
//! BLU-C primitive in terms of `Length[Φ]`, but the clausal closures the
//! primitives call — [`crate::resolution::saturate`],
//! [`crate::prime_implicates`], [`crate::dpll`], `genmask` — are
//! worst-case exponential. A hostile input therefore hangs any
//! implementation that runs them to completion unconditionally. This
//! module makes every unbounded worklist *cooperative*: the loops charge
//! their work against a thread-local [`Budget`] and abort with a
//! structured [`ExecError`] the moment a resource is exhausted.
//!
//! # Cost model
//!
//! One **step** corresponds to roughly one literal visited, the unit of
//! the paper's `Length[Φ]` cost measure (§1.1): a subsumption probe
//! charges the length of the candidate compared, a resolution attempt
//! charges the combined length of the pair, a DPLL/counting node charges
//! the number of clauses scanned, and `genmask`'s truth-table strategy
//! charges its full `2^k · |Φ|` table up front (admission control: if the
//! budget cannot afford the table, it fails before building it). The
//! indexed entry points and their [`crate::reference`] twins charge the
//! same way, so a budget bounds either identically.
//!
//! # Mechanism
//!
//! [`govern`] installs the budget in thread-local storage, runs the
//! closure under [`std::panic::catch_unwind`], and uninstalls it on the
//! way out. Exhaustion inside a worklist raises `panic_any(ExecError)`,
//! which unwinds out of arbitrarily deep call chains without threading
//! `Result` through every signature; `govern` converts it back into
//! `Err(ExecError)`. Foreign panics (bugs, internal-invariant
//! violations) are *also* caught and surfaced as
//! [`ExecError::EnginePanic`] — governed sections are isolation
//! boundaries. The default panic hook is suppressed inside governed
//! sections so an aborted statement does not spray a backtrace; outside
//! them the previous hook runs unchanged.
//!
//! Ungoverned code pays one thread-local flag check per charge point and
//! never observes the governor.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use pwdb_metrics::counter;

/// The resource dimension that ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Abstract execution steps (≈ literals visited; see module docs).
    Steps,
    /// Live clauses resident in a single clause set under closure.
    LiveClauses,
    /// Wall-clock milliseconds since the budget was installed.
    WallClockMs,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Steps => write!(f, "steps"),
            Resource::LiveClauses => write!(f, "live-clauses"),
            Resource::WallClockMs => write!(f, "wall-clock-ms"),
        }
    }
}

/// A structured abort from a governed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A [`Budget`] resource was exhausted.
    BudgetExceeded {
        /// Which resource ran out.
        resource: Resource,
        /// How much had been spent when the check fired.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The [`CancelToken`] supplied with the limits was cancelled.
    Cancelled,
    /// The governed closure panicked for a reason other than the
    /// governor itself; the statement was isolated and rolled back.
    EnginePanic {
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded {
                resource,
                spent,
                limit,
            } => write!(
                f,
                "budget exceeded: {spent} {resource} spent, limit {limit}"
            ),
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::EnginePanic { message } => {
                write!(f, "engine panic during governed execution: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Resource limits for one governed execution. Every limit is optional;
/// the default budget is unlimited (the governor then only provides
/// cancellation and panic isolation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum abstract steps (≈ literals visited).
    pub max_steps: Option<u64>,
    /// Maximum live clauses in any single set under closure.
    pub max_live_clauses: Option<u64>,
    /// Maximum wall-clock time, polled cheaply every few thousand steps.
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget bounded only by step count.
    pub fn steps(max_steps: u64) -> Self {
        Budget {
            max_steps: Some(max_steps),
            ..Self::default()
        }
    }

    /// Adds a live-clause bound.
    pub fn with_live_clauses(mut self, max: u64) -> Self {
        self.max_live_clauses = Some(max);
        self
    }

    /// Adds a wall-clock bound.
    pub fn with_wall(mut self, max: Duration) -> Self {
        self.max_wall = Some(max);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some() || self.max_live_clauses.is_some() || self.max_wall.is_some()
    }
}

/// A shareable cancellation handle. Clones observe the same flag, so a
/// token can be handed to another thread (or a signal handler) to stop a
/// governed execution at its next poll point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; governed executions observe it at their
    /// next poll point and abort with [`ExecError::Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Everything a governed execution runs under: a [`Budget`] plus an
/// optional [`CancelToken`].
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// The resource budget.
    pub budget: Budget,
    /// Optional cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl Limits {
    /// Unlimited, uncancellable limits (pure panic isolation).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits carrying only the given budget.
    pub fn budget(budget: Budget) -> Self {
        Limits {
            budget,
            cancel: None,
        }
    }

    /// Adds a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Deadline/cancellation polls happen every `POLL_INTERVAL` charged
/// steps, keeping `Instant::now()` and the atomic load off the hot path.
const POLL_INTERVAL: u64 = 4096;

struct GovState {
    spent: Cell<u64>,
    next_poll: Cell<u64>,
    max_steps: u64,
    max_live: u64,
    started: Instant,
    max_wall: Option<Duration>,
    cancel: Option<CancelToken>,
}

thread_local! {
    /// Fast-path flag: `true` iff a governor is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Depth of nested governed sections (for panic-hook suppression).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static STATE: std::cell::RefCell<Option<GovState>> = const { std::cell::RefCell::new(None) };
    /// Steps spent by the most recently *completed* governed section.
    static LAST_SPENT: Cell<u64> = const { Cell::new(0) };
}

/// Installs a process-wide panic hook that stays silent for panics
/// raised inside governed sections (they are caught and converted to
/// [`ExecError`]s) and delegates to the previous hook otherwise.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if DEPTH.with(Cell::get) > 0 {
                return;
            }
            prev(info);
        }));
    });
}

/// Charges one step against the installed budget (no-op when
/// ungoverned).
#[inline]
pub fn step() {
    step_n(1);
}

/// Charges `n` steps against the installed budget (no-op when
/// ungoverned). Aborts the governed section via unwinding when the step
/// budget is exhausted; polls the wall clock and the cancel token every
/// [`POLL_INTERVAL`] steps.
#[inline]
pub fn step_n(n: u64) {
    if ACTIVE.with(Cell::get) {
        charge(n);
    }
}

/// Checks the live-clause count of a set under closure against the
/// budget (no-op when ungoverned).
#[inline]
pub fn on_live_clauses(len: usize) {
    if ACTIVE.with(Cell::get) {
        check_live(len as u64);
    }
}

/// Steps spent by the currently installed governor (0 when ungoverned).
pub fn steps_spent() -> u64 {
    STATE.with(|s| s.borrow().as_ref().map_or(0, |g| g.spent.get()))
}

/// Whether a governor is installed on this thread.
pub fn is_governed() -> bool {
    ACTIVE.with(Cell::get)
}

/// Steps spent by the most recently completed [`govern`] section on this
/// thread, whether it committed or aborted — the diagnostic surface
/// behind span/EXPLAIN `steps` annotations.
pub fn last_spent() -> u64 {
    LAST_SPENT.with(Cell::get)
}

#[cold]
fn exhausted(resource: Resource, spent: u64, limit: u64) -> ! {
    match resource {
        Resource::Steps => counter!("governor.exceeded.steps").inc(),
        Resource::LiveClauses => counter!("governor.exceeded.live_clauses").inc(),
        Resource::WallClockMs => counter!("governor.exceeded.wall_clock").inc(),
    }
    std::panic::panic_any(ExecError::BudgetExceeded {
        resource,
        spent,
        limit,
    })
}

/// Note: unwinding out of the `STATE.with` closure is fine — the
/// `RefCell` borrow is released as the stack unwinds past it, before
/// [`Guard::drop`] re-borrows during the same unwind.
fn charge(n: u64) {
    STATE.with(|s| {
        let state = s.borrow();
        let Some(g) = state.as_ref() else { return };
        let spent = g.spent.get().saturating_add(n);
        g.spent.set(spent);
        if spent > g.max_steps {
            exhausted(Resource::Steps, spent, g.max_steps);
        }
        if spent >= g.next_poll.get() {
            g.next_poll.set(spent + POLL_INTERVAL);
            if g.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                counter!("governor.cancelled").inc();
                std::panic::panic_any(ExecError::Cancelled);
            }
            if let Some(max) = g.max_wall {
                let elapsed = g.started.elapsed();
                if elapsed > max {
                    exhausted(
                        Resource::WallClockMs,
                        elapsed.as_millis() as u64,
                        max.as_millis() as u64,
                    );
                }
            }
        }
    });
}

fn check_live(len: u64) {
    STATE.with(|s| {
        let state = s.borrow();
        let Some(g) = state.as_ref() else { return };
        if len > g.max_live {
            exhausted(Resource::LiveClauses, len, g.max_live);
        }
    });
}

/// RAII installer: swaps the thread-local governor in on construction
/// and back out (restoring any outer governor) on drop, including during
/// unwinding.
struct Guard {
    prev: Option<GovState>,
    prev_active: bool,
}

impl Guard {
    fn install(limits: &Limits) -> Guard {
        install_quiet_hook();
        let state = GovState {
            spent: Cell::new(0),
            next_poll: Cell::new(POLL_INTERVAL.min(1)),
            max_steps: limits.budget.max_steps.unwrap_or(u64::MAX),
            max_live: limits.budget.max_live_clauses.unwrap_or(u64::MAX),
            started: Instant::now(),
            max_wall: limits.budget.max_wall,
            cancel: limits.cancel.clone(),
        };
        let prev = STATE.with(|s| s.borrow_mut().replace(state));
        let prev_active = ACTIVE.with(|a| a.replace(true));
        DEPTH.with(|d| d.set(d.get() + 1));
        Guard { prev, prev_active }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let spent = STATE.with(|s| {
            let prev = self.prev.take();
            let old = std::mem::replace(&mut *s.borrow_mut(), prev);
            old.map_or(0, |g| g.spent.get())
        });
        counter!("governor.steps").add(spent);
        LAST_SPENT.with(|l| l.set(spent));
        ACTIVE.with(|a| a.set(self.prev_active));
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` under `limits`, converting governor aborts and foreign
/// panics into structured errors.
///
/// The cancel token (if any) is checked once up front, then at every
/// poll point. Nesting is supported: the outer governor is restored on
/// exit, and the inner section's steps are *not* double-charged to the
/// outer budget (each governed section has its own meter).
pub fn govern<T>(limits: &Limits, f: impl FnOnce() -> T) -> Result<T, ExecError> {
    if let Some(token) = &limits.cancel {
        if token.is_cancelled() {
            counter!("governor.cancelled").inc();
            return Err(ExecError::Cancelled);
        }
    }
    let guard = Guard::install(limits);
    let result = catch_unwind(AssertUnwindSafe(f));
    drop(guard);
    match result {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<ExecError>() {
            Ok(err) => Err(*err),
            Err(payload) => {
                counter!("governor.panics_caught").inc();
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                Err(ExecError::EnginePanic { message })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_charges_are_noops() {
        assert!(!is_governed());
        step_n(u64::MAX);
        on_live_clauses(usize::MAX);
        assert_eq!(steps_spent(), 0);
    }

    #[test]
    fn step_budget_trips_with_exact_accounting() {
        let limits = Limits::budget(Budget::steps(10));
        let err = govern(&limits, || {
            for _ in 0..100 {
                step();
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Steps,
                spent: 11,
                limit: 10
            }
        );
    }

    #[test]
    fn within_budget_returns_value() {
        let limits = Limits::budget(Budget::steps(1000));
        let out = govern(&limits, || {
            step_n(999);
            42
        });
        assert_eq!(out, Ok(42));
        // The meter is uninstalled afterwards.
        assert!(!is_governed());
        assert_eq!(steps_spent(), 0);
    }

    #[test]
    fn live_clause_budget_trips() {
        let limits = Limits::budget(Budget::unlimited().with_live_clauses(5));
        let err = govern(&limits, || on_live_clauses(6)).unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::LiveClauses,
                spent: 6,
                limit: 5
            }
        );
        assert_eq!(govern(&limits, || on_live_clauses(5)), Ok(()));
    }

    #[test]
    fn wall_clock_budget_trips_at_poll() {
        let limits = Limits::budget(Budget::unlimited().with_wall(Duration::ZERO));
        let err = govern(&limits, || loop {
            step_n(POLL_INTERVAL);
        })
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::WallClockMs,
                ..
            }
        ));
    }

    #[test]
    fn cancel_token_aborts_at_poll_and_up_front() {
        let token = CancelToken::new();
        let limits = Limits::unlimited().with_cancel(token.clone());
        assert_eq!(govern(&limits, || step_n(10)), Ok(()));

        token.cancel();
        assert!(token.is_cancelled());
        // Checked up front without running the closure.
        assert_eq!(
            govern(&limits, || unreachable!()),
            Err::<(), _>(ExecError::Cancelled)
        );
        // A clone observes the same flag.
        assert!(limits
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled));
    }

    #[test]
    fn cancel_mid_run_from_poll_point() {
        let token = CancelToken::new();
        let limits = Limits::unlimited().with_cancel(token.clone());
        let err = govern(&limits, || {
            let mut i = 0u64;
            loop {
                step();
                i += 1;
                if i == 10 * POLL_INTERVAL {
                    token.cancel();
                }
            }
        })
        .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn foreign_panics_become_engine_panics() {
        let out: Result<(), _> = govern(&Limits::unlimited(), || panic!("boom {}", 7));
        assert_eq!(
            out,
            Err(ExecError::EnginePanic {
                message: "boom 7".into()
            })
        );
    }

    #[test]
    fn nested_governors_restore_outer_meter() {
        let outer = Limits::budget(Budget::steps(1_000_000));
        let out = govern(&outer, || {
            step_n(7);
            let inner = Limits::budget(Budget::steps(3));
            let r = govern(&inner, || step_n(50));
            assert!(matches!(r, Err(ExecError::BudgetExceeded { .. })));
            // Outer meter resumed with its own accounting intact.
            step_n(1);
            steps_spent()
        });
        assert_eq!(out, Ok(8));
    }

    #[test]
    fn display_forms() {
        let e = ExecError::BudgetExceeded {
            resource: Resource::Steps,
            spent: 11,
            limit: 10,
        };
        assert_eq!(e.to_string(), "budget exceeded: 11 steps spent, limit 10");
        assert_eq!(ExecError::Cancelled.to_string(), "execution cancelled");
        assert_eq!(Resource::LiveClauses.to_string(), "live-clauses");
        assert_eq!(Resource::WallClockMs.to_string(), "wall-clock-ms");
    }
}
