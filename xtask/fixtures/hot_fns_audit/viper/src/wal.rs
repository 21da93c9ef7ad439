//! Fixture: R4's list audit. `append` and `replay` are defined here;
//! `retired` is left only inside the test module, so listing it is stale.

pub fn append(&self) -> Result<(), ()> {
    Ok(())
}

fn replay() {}

#[cfg(test)]
mod tests {
    fn retired() {}
}
