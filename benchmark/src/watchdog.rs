//! A deadline per repetition: a hung run ends the process with a named
//! failure instead of hanging the benchmark. Two hangs were met while the
//! workloads were sized (see the README), so this is not hypothetical.
//!
//! The watchdog is one thread that sleeps on a channel; it never runs while
//! a repetition is being measured unless the repetition is already lost.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

enum Msg {
    Arm(String, Duration),
    Disarm,
}

pub struct Watchdog {
    tx: Option<Sender<Msg>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let (tx, rx) = channel::<Msg>();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                let mut armed: Option<(String, Duration)> = None;
                loop {
                    let msg = match &armed {
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                        Some((_, d)) => rx.recv_timeout(*d),
                    };
                    match msg {
                        Ok(Msg::Arm(what, d)) => armed = Some((what, d)),
                        Ok(Msg::Disarm) => armed = None,
                        Err(RecvTimeoutError::Disconnected) => return,
                        Err(RecvTimeoutError::Timeout) => {
                            let (what, d) = armed.take().unwrap_or_default();
                            crate::fail(&format!(
                                "WATCHDOG: a repetition of {what} did not finish within {:.1} s (4x its expected wall time); every frame of it counts as failed",
                                d.as_secs_f64()
                            ));
                        }
                    }
                }
            })
            .expect("spawn the watchdog thread at start-up");
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Start the clock on a repetition of `what`.
    pub fn arm(&self, what: &str, deadline: Duration) {
        self.send(Msg::Arm(what.to_string(), deadline));
    }

    /// The repetition finished in time.
    pub fn disarm(&self) {
        self.send(Msg::Disarm);
    }

    fn send(&self, msg: Msg) {
        if let Some(tx) = &self.tx {
            // The thread only exits when the sender is dropped.
            let _ = tx.send(msg);
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
