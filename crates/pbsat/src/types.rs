//! Variables and literals.

/// A Boolean variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Index into per-variable arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn pos(self) -> Lit {
        Lit::new(self, false)
    }

    /// The negative literal of this variable.
    #[inline]
    #[allow(clippy::should_implement_trait)] // `v.neg()` mirrors `v.pos()`; Neg-the-trait would be surprising on a Var
    pub fn neg(self) -> Lit {
        Lit::new(self, true)
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `2·var + neg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Literal of `var`, negated when `neg` is true.
    #[inline]
    pub fn new(var: Var, neg: bool) -> Lit {
        Lit(var.0 * 2 + neg as u32)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 / 2)
    }

    /// True for a negated literal.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index into per-literal arrays (watch lists, occurrence lists).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Truth value of this literal under an assignment of its variable.
    #[inline]
    pub fn eval(self, var_value: bool) -> bool {
        var_value != self.is_neg()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "~x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrips() {
        let v = Var(7);
        let p = v.pos();
        let n = v.neg();
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(!p.is_neg());
        assert!(n.is_neg());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
    }

    #[test]
    fn eval_respects_sign() {
        let v = Var(0);
        assert!(v.pos().eval(true));
        assert!(!v.pos().eval(false));
        assert!(!v.neg().eval(true));
        assert!(v.neg().eval(false));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Var(3).to_string(), "x3");
        assert_eq!(Var(3).pos().to_string(), "x3");
        assert_eq!(Var(3).neg().to_string(), "~x3");
    }
}
