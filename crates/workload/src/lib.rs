//! # pqos-workload
//!
//! Parallel workload substrate for the DSN 2005 *Probabilistic QoS
//! Guarantees* reproduction.
//!
//! * [`job`] — the job model (`vj`, `nj`, `ej`);
//! * [`log`] — arrival-ordered job logs and their Table-1 characteristics;
//! * [`swf`] — Standard Workload Format parsing/serialization, so real
//!   Parallel Workloads Archive logs can be replayed;
//! * [`synthetic`] — deterministic generators imitating the paper's NASA
//!   iPSC/860 and SDSC SP2 logs.
//!
//! # Examples
//!
//! ```
//! use pqos_workload::synthetic::{LogModel, SyntheticLog};
//!
//! let log = SyntheticLog::new(LogModel::NasaIpsc).jobs(1000).seed(1).build();
//! let stats = log.stats();
//! assert_eq!(stats.count, 1000);
//! assert!(stats.avg_nodes > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod log;
pub mod swf;
pub mod synthetic;
