//! Offline stand-in for `serde`: the repo names the dependency and uses nothing from it.
