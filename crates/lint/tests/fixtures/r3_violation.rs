//! R3 fixture: an `unwrap` on the serving path.

fn serve(result: Option<u32>) -> u32 {
    result.unwrap()
}
