//! The repo benchmark. See `benchmark/README.md`.

mod layers;
mod measure;
mod spans;
mod stats;
mod suite;
mod sys;
mod workloads;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(suite::main(&args));
}
