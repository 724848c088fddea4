//! # Space-Time Memory (STM)
//!
//! A reimplementation of the channel abstraction of the *Stampede* run-time
//! system (Nikhil et al., LCPC 1998), which the paper *Scheduling Constrained
//! Dynamic Applications on Clusters* (SC 1999) uses as its communication
//! substrate.
//!
//! The key construct is the [`Channel`]: a location-transparent collection of
//! items indexed by [`Timestamp`]. Producer tasks attach *output connections*
//! and [`put`](OutputConn::put) items at explicit timestamps (at most one item
//! per timestamp, puts may arrive out of order). Consumer tasks attach *input
//! connections* and [`get`](InputConn::get) items either at a specific
//! timestamp or through a *wildcard* ([`TsSpec`]): the newest item, the
//! oldest, or the newest item not previously gotten over this connection.
//! This lets a slow downstream task skip ahead to the most recent frame while
//! a fast upstream task keeps producing — the loose temporal coupling that
//! gives the application class its pipeline parallelism.
//!
//! Items are reclaimed by a *virtual-time garbage collector*: each input
//! connection maintains a [`frontier`](InputConn::advance_frontier) below
//! which it promises never to request items, plus a set of explicitly
//! [`consume`](InputConn::consume)d timestamps. An item is reclaimed once
//! every attached input connection has either consumed it or moved its
//! frontier past it. A fixed schedule (the paper's §3.3) bounds the number of
//! live items per channel, which is why explicit scheduling "simplifies
//! garbage collection" and "solves the problem of flow control implicitly".
//!
//! ```
//! use stm::{Channel, Timestamp, TsSpec};
//!
//! let chan: Channel<String> = Channel::new("frames");
//! let out = chan.attach_output();
//! let inp = chan.attach_input();
//!
//! out.put(Timestamp(0), "frame-0".to_string()).unwrap();
//! out.put(Timestamp(1), "frame-1".to_string()).unwrap();
//!
//! let got = inp.try_get(TsSpec::Newest).unwrap();
//! assert_eq!(got.ts, Timestamp(1));
//! assert_eq!(&*got.value, "frame-1");
//!
//! // Consuming + advancing the frontier lets the GC reclaim both items.
//! inp.consume(Timestamp(1)).unwrap();
//! inp.advance_frontier(Timestamp(2));
//! assert_eq!(chan.len(), 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod channel;
mod connection;
mod error;
pub mod oracle;
mod stats;
mod store;
mod time;
mod wildcard;

pub use channel::{Channel, ChannelBuilder};
pub use connection::{GetOk, InputConn, OutputConn};
pub use error::{ConsumeError, GetError, GetMiss, MissReason, PutError, StmResult};
pub use stats::{ChannelSnapshot, ChannelStats};
pub use time::Timestamp;
pub use wildcard::TsSpec;
