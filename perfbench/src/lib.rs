//! The omn benchmark: three workloads timed from outside the library.
//!
//! [`workload`] holds one repetition of each workload; [`probe`] holds
//! the delegating timers that attribute a run's time to the contact
//! source and the refresh scheme. The `perfbench` binary loops
//! repetitions for a fixed time, checks every output, and prints the
//! metrics `BENCHMARK.json` names. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;
pub mod workload;
