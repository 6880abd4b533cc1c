//! A handler panic inside a multi-worker engine run must surface from the
//! run with its own message instead of leaving the other workers waiting
//! at the round barrier.

use simcore::shard::{ShardCtx, ShardEngine, ShardLogic};
use simcore::time::SimTime;
use std::sync::mpsc;
use std::time::Duration;

/// Sends below the lookahead, which the engine rejects with a panic.
struct Bad;

impl ShardLogic for Bad {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), ctx: &mut ShardCtx<'_, ()>) {
        ctx.send(1, SimTime::from_micros(1.0), ());
    }
}

#[test]
fn handler_panic_at_two_workers_reaches_the_caller() {
    // The run happens on a helper thread so that a hang fails this test on
    // the timeout below instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            let mut engine = ShardEngine::new(vec![Bad, Bad], SimTime::from_micros(50.0));
            engine.schedule(0, SimTime::ZERO, ());
            engine.run_with(2);
        });
        let message = match outcome {
            Ok(()) => "the run returned".to_string(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "a panic without a message".to_string()),
        };
        let _ = tx.send(message);
    });
    let message = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a 2-worker run is still hung 30 s after its handler panicked");
    helper
        .join()
        .expect("the helper thread caught the run's panic");
    assert!(
        message.contains("below lookahead"),
        "unexpected outcome: {message}"
    );
}
