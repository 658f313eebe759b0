//! `seqavf-benchmark-server`: the server under test, which
//! `seqavf-benchmark` starts for its serve workloads. It is a binary of its
//! own so that only the server runs under the counting allocator.

use std::process::ExitCode;

use seqavf_benchmark::heap::Counting;
use seqavf_benchmark::server;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> ExitCode {
    match server::child_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seqavf-benchmark-server: {e}");
            ExitCode::FAILURE
        }
    }
}
