//! The repository's end-to-end benchmark, as a library the `eva-perfbench`
//! binary and its tests share.
//!
//! Everything here drives the simulator and the schedulers through
//! their public APIs; nothing inside the program is instrumented. The
//! untraced run measures what a user sees ([`drive::untraced_pass`]);
//! the traced run wraps each call into a layer in a span
//! ([`spans::SpanLog`]) and replays the recorded run's scheduling
//! rounds to split the scheduler's time across its phases
//! ([`replay::replay`]).

pub mod drive;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;
