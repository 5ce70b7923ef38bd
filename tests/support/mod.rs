//! Code shared by the integration tests.

pub mod string_matcher;
