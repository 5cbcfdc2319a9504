//! R3 fixture: the same `unwrap`, with its invariant annotated.

fn serve(result: Option<u32>) -> u32 {
    // lint: allow(no-panic-serving) -- fixture: the caller just checked is_some
    result.unwrap()
}
