//! Variable identifiers and the variable-name registry.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a real-world variable monitored by a Data Monitor.
///
/// The paper writes updates as `u(varname, seqno, value)`; `VarId` is the
/// `varname`. We use a compact integer id so updates stay `Copy` and
/// cheap to route in the simulator and runtime; human-readable names are
/// kept in a [`VarRegistry`].
///
/// ```rust
/// use rcm_core::VarId;
/// let x = VarId::new(0);
/// assert_eq!(x.index(), 0);
/// assert_eq!(x.to_string(), "v0");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from a raw index.
    pub const fn new(index: u32) -> Self {
        VarId(index)
    }

    /// Returns the raw index backing this id.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VarId {
    fn from(index: u32) -> Self {
        VarId(index)
    }
}

/// Bidirectional mapping between human-readable variable names (e.g.
/// `"reactor_x_temp"`) and compact [`VarId`]s.
///
/// Names are assigned ids in registration order. Registering the same
/// name twice returns the existing id, so a registry can be rebuilt
/// idempotently from configuration.
///
/// ```rust
/// use rcm_core::VarRegistry;
/// let mut reg = VarRegistry::new();
/// let x = reg.register("reactor_x");
/// let y = reg.register("reactor_y");
/// assert_ne!(x, y);
/// assert_eq!(reg.register("reactor_x"), x);
/// assert_eq!(reg.name(x), Some("reactor_x"));
/// assert_eq!(reg.lookup("reactor_y"), Some(y));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarRegistry {
    names: Vec<String>,
    by_name: HashMap<String, VarId>,
}

impl VarRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name`, returning its id; returns the existing id if the
    /// name is already registered.
    pub fn register(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VarId::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Returns the name registered for `id`, if any.
    pub fn name(&self, id: VarId) -> Option<&str> {
        self.names.get(id.index() as usize).map(String::as_str)
    }

    /// Returns the id registered for `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variables have been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (VarId::new(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut reg = VarRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let c = reg.register("c");
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn reregistration_is_idempotent() {
        let mut reg = VarRegistry::new();
        let a = reg.register("a");
        assert_eq!(reg.register("a"), a);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn lookup_misses_return_none() {
        let reg = VarRegistry::new();
        assert_eq!(reg.lookup("nope"), None);
        assert_eq!(reg.name(VarId::new(9)), None);
        assert!(reg.is_empty());
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut reg = VarRegistry::new();
        reg.register("x");
        reg.register("y");
        let pairs: Vec<_> = reg.iter().map(|(id, n)| (id.index(), n.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(VarId::new(17).to_string(), "v17");
        assert_eq!(VarId::from(17u32), VarId::new(17));
    }
}
