//! [`PermissionSet`]: a set of permissions in one 128-bit word.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

use crate::permission::{Permission, ALL};

// Every discriminant must fit the set and index its own registry entry,
// so bit `i` is `all_permissions()[i]` and bit order is `Permission`'s
// `Ord`.
const _: () = {
    let mut i = 0;
    while i < ALL.len() {
        assert!((ALL[i] as usize) < u128::BITS as usize);
        assert!(ALL[i] as usize == i);
        i += 1;
    }
};

/// The bits that stand for a registry permission.
const REGISTRY_BITS: u128 = if ALL.len() == u128::BITS as usize {
    u128::MAX
} else {
    (1 << ALL.len()) - 1
};

/// A set of permissions: bit `i` stands for
/// [`crate::all_permissions()`]`[i]`, the permission whose discriminant
/// is `i`. Every operation is one or two `u128` instructions, and
/// iteration runs in registry order, which is `Permission`'s `Ord`.
///
/// The complement ([`Not`]) also sets the bits past the registry; they
/// never name a permission, so iteration, [`PermissionSet::len`] and
/// [`PermissionSet::is_empty`] ignore them.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PermissionSet(u128);

impl PermissionSet {
    /// The empty set.
    pub const EMPTY: PermissionSet = PermissionSet(0);

    /// The one-member set of `permission`.
    #[inline]
    pub const fn of(permission: Permission) -> PermissionSet {
        PermissionSet(1 << permission as u32)
    }

    /// This set plus `permission` (the `const` form of
    /// [`PermissionSet::insert`]).
    #[inline]
    #[must_use]
    pub const fn with(self, permission: Permission) -> PermissionSet {
        PermissionSet(self.0 | PermissionSet::of(permission).0)
    }

    /// Adds `permission`.
    #[inline]
    pub fn insert(&mut self, permission: Permission) {
        *self = self.with(permission);
    }

    /// Whether `permission` is in the set.
    #[inline]
    pub const fn contains(self, permission: Permission) -> bool {
        self.0 & PermissionSet::of(permission).0 != 0
    }

    /// Whether the set names no permission.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 & REGISTRY_BITS == 0
    }

    /// The number of permissions in the set.
    #[inline]
    pub const fn len(self) -> usize {
        (self.0 & REGISTRY_BITS).count_ones() as usize
    }

    /// The members, in registry order.
    #[inline]
    pub fn iter(self) -> Iter {
        Iter(self.0 & REGISTRY_BITS)
    }
}

impl BitAnd for PermissionSet {
    type Output = PermissionSet;
    #[inline]
    fn bitand(self, rhs: PermissionSet) -> PermissionSet {
        PermissionSet(self.0 & rhs.0)
    }
}

impl BitOr for PermissionSet {
    type Output = PermissionSet;
    #[inline]
    fn bitor(self, rhs: PermissionSet) -> PermissionSet {
        PermissionSet(self.0 | rhs.0)
    }
}

impl Not for PermissionSet {
    type Output = PermissionSet;
    #[inline]
    fn not(self) -> PermissionSet {
        PermissionSet(!self.0)
    }
}

impl BitOrAssign for PermissionSet {
    #[inline]
    fn bitor_assign(&mut self, rhs: PermissionSet) {
        self.0 |= rhs.0;
    }
}

impl FromIterator<Permission> for PermissionSet {
    fn from_iter<I: IntoIterator<Item = Permission>>(iter: I) -> PermissionSet {
        let mut set = PermissionSet::EMPTY;
        set.extend(iter);
        set
    }
}

impl<'a> FromIterator<&'a Permission> for PermissionSet {
    fn from_iter<I: IntoIterator<Item = &'a Permission>>(iter: I) -> PermissionSet {
        iter.into_iter().copied().collect()
    }
}

impl Extend<Permission> for PermissionSet {
    fn extend<I: IntoIterator<Item = Permission>>(&mut self, iter: I) {
        for permission in iter {
            self.insert(permission);
        }
    }
}

impl<'a> Extend<&'a Permission> for PermissionSet {
    fn extend<I: IntoIterator<Item = &'a Permission>>(&mut self, iter: I) {
        self.extend(iter.into_iter().copied());
    }
}

impl IntoIterator for PermissionSet {
    type Item = Permission;
    type IntoIter = Iter;
    #[inline]
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl fmt::Debug for PermissionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The members of a [`PermissionSet`], in registry order.
#[derive(Debug, Clone)]
pub struct Iter(u128);

impl Iterator for Iter {
    type Item = Permission;

    #[inline]
    fn next(&mut self) -> Option<Permission> {
        if self.0 == 0 {
            return None;
        }
        let permission = ALL[self.0.trailing_zeros() as usize];
        self.0 &= self.0 - 1;
        Some(permission)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.0.count_ones() as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn iteration_is_registry_order_and_ord_order() {
        let all: PermissionSet = ALL.iter().copied().collect();
        assert_eq!(all.len(), ALL.len());
        assert!(all.iter().eq(ALL.iter().copied()));
        assert!(ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn complement_names_only_registry_permissions() {
        let camera = PermissionSet::of(Permission::Camera);
        let rest = !camera;
        assert_eq!(rest.len(), ALL.len() - 1);
        assert!(!rest.contains(Permission::Camera));
        assert!(rest.iter().all(|p| p != Permission::Camera));
        assert!((rest & camera).is_empty());
        assert!(!(!PermissionSet::EMPTY).is_empty());
    }

    #[test]
    fn agrees_with_btreeset() {
        let picks = [
            Permission::Microphone,
            Permission::Camera,
            Permission::Battery,
            Permission::Camera,
        ];
        let set: PermissionSet = picks.iter().collect();
        let tree: BTreeSet<Permission> = picks.iter().copied().collect();
        assert!(set.iter().eq(tree.iter().copied()));
        assert_eq!(set.len(), tree.len());
        assert_eq!(format!("{set:?}"), format!("{tree:?}"));
        let mut other = PermissionSet::EMPTY;
        other.insert(Permission::Geolocation);
        other |= set;
        assert_eq!(other.len(), 4);
        assert_eq!(
            other & PermissionSet::of(Permission::Geolocation),
            PermissionSet::EMPTY.with(Permission::Geolocation)
        );
    }
}
