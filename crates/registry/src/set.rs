//! [`PermissionSet`]: a set of permissions in one 128-bit word.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

use serde::de::{Error, Parser, RawStr};
use serde::{Deserialize, Serialize, Value};

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

    /// Adds `permission` as the next entry of a list in registry order:
    /// `false`, with the set unchanged, when a member at or past it is
    /// already in the set (a repeat, or an entry out of order). Every
    /// decoder of a stored set reads its members this way, so a decoded
    /// set re-encodes to the bytes it came from.
    #[inline]
    pub fn push_ordered(&mut self, permission: Permission) -> bool {
        let fits = self.0 >> permission as u32 == 0;
        if fits {
            self.insert(permission);
        }
        fits
    }

    /// Adds the member a decoded spec token names: the one strict rule of
    /// both JSON decode paths.
    #[inline]
    fn push_token(&mut self, token: RawStr<'_>) -> Result<(), Error> {
        match Permission::from_token_exact(token.bytes()) {
            Some(p) if self.push_ordered(p) => Ok(()),
            named => Err(token_error(named, token)),
        }
    }
}

/// Why a decoded token cannot join the set: it names no permission, or
/// one at or before a member already read.
#[cold]
fn token_error(named: Option<Permission>, token: RawStr<'_>) -> Error {
    match named {
        Some(p) => Error::new(format!(
            "feature token `{p}` repeated or out of registry order"
        )),
        // Only a miss, about to be shown, owes the UTF-8 check.
        None => token.validate().err().unwrap_or_else(|| {
            let text = String::from_utf8_lossy(token.bytes());
            Error::new(format!("unknown feature token `{text}`"))
        }),
    }
}

/// A set is recorded as the array of its members' spec tokens, in
/// registry order (`["camera","fullscreen"]`).
impl Serialize for PermissionSet {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(|p| Value::Str(p.token().into())).collect())
    }

    #[inline]
    fn write_json(&self, out: &mut String) {
        // Tokens are lowercase ASCII letters, digits and dashes: nothing
        // to escape, so the quoted form is the token verbatim.
        out.push('[');
        for (i, p) in self.iter().enumerate() {
            out.push_str(if i == 0 { "\"" } else { ",\"" });
            out.push_str(p.token());
            out.push('"');
        }
        out.push(']');
    }
}

/// Reads strictly: each entry must be a token exactly as
/// [`Permission::token`] writes it, in registry order, without repeats.
impl Deserialize for PermissionSet {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::expected("array", value))?;
        let mut set = PermissionSet::EMPTY;
        for item in items {
            let token = item
                .as_str()
                .ok_or_else(|| Error::expected("feature token string", item))?;
            set.push_token(RawStr::Text(token.into()))?;
        }
        Ok(set)
    }

    #[inline]
    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.expect_kind("array", "array")?;
        let mut set = PermissionSet::EMPTY;
        p.read_seq(|p| set.push_token(p.read_str_raw_kind("feature token string")?))?;
        Ok(set)
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

    fn read(json: &str) -> Result<PermissionSet, String> {
        let streaming = PermissionSet::read_json(&mut Parser::new(json.as_bytes()));
        let tree = Parser::new(json.as_bytes())
            .parse_value()
            .map_err(|e| e.to_string());
        let tree = tree.and_then(|v| PermissionSet::from_value(&v).map_err(|e| e.to_string()));
        assert_eq!(streaming.clone().map_err(|e| e.to_string()), tree, "{json}");
        tree
    }

    #[test]
    fn json_is_the_spec_tokens_in_registry_order() {
        let set = PermissionSet::EMPTY
            .with(Permission::PictureInPicture)
            .with(Permission::Camera);
        let mut json = String::new();
        set.write_json(&mut json);
        assert_eq!(json, r#"["camera","picture-in-picture"]"#);
        let mut via_value = String::new();
        serde::ser::write_value(&mut via_value, &set.to_value());
        assert_eq!(via_value, json);
        assert_eq!(read(&json), Ok(set));
        assert_eq!(read(" [ ] "), Ok(PermissionSet::EMPTY));
        let all: PermissionSet = ALL.iter().collect();
        json.clear();
        all.write_json(&mut json);
        assert_eq!(read(&json), Ok(all));
    }

    #[test]
    fn json_decode_is_strict_and_names_the_token() {
        let order = "feature token `camera` repeated or out of registry order";
        for (json, error) in [
            (r#"["bogus"]"#, "unknown feature token `bogus`"),
            (r#"["CAMERA"]"#, "unknown feature token `CAMERA`"),
            (r#"["camera","camera"]"#, order),
            (r#"["geolocation","camera"]"#, order),
            (r#"["\u0063amera","camera"]"#, order),
            (r#"[7]"#, "expected feature token string, found number"),
            (r#""camera""#, "expected array, found string"),
        ] {
            assert_eq!(read(json), Err(error.to_string()), "{json}");
        }
        let escaped = PermissionSet::of(Permission::Camera);
        assert_eq!(read(r#"["\u0063amera"]"#), Ok(escaped));
    }

    #[test]
    fn push_ordered_takes_only_members_past_the_last() {
        let mut set = PermissionSet::EMPTY;
        assert!(set.push_ordered(Permission::Camera));
        assert!(!set.push_ordered(Permission::Camera));
        assert!(!set.push_ordered(Permission::Battery));
        assert!(set.push_ordered(Permission::ChUaWow64));
        assert_eq!(set.len(), 2);
    }
}
