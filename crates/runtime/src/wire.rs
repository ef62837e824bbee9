//! The frame codec, re-exported from [`rcm_transport::wire`]: the
//! in-process links, the UDP/TCP links and the node binaries all share
//! one frame format by construction.

pub use rcm_transport::wire::*;
