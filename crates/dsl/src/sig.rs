//! Signal handles and their operator set.

use crate::ctx::Ctx;
use strober_rtl::{BinOp, NodeId, UnOp, Width};

/// A handle to a combinational value in a design under construction.
///
/// `Sig` supports Rust's arithmetic/logical operators (on references:
/// `&a + &b`) with hardware semantics — wrapping arithmetic, width-checked
/// operands — plus hardware-specific methods for slicing, extension,
/// comparison and multiplexing. All operators panic on width mismatches;
/// see the [crate-level documentation](crate) for the panics policy.
#[derive(Clone)]
pub struct Sig {
    pub(crate) ctx: Ctx,
    pub(crate) id: NodeId,
    pub(crate) width: Width,
}

impl std::fmt::Debug for Sig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sig({}, {})", self.id, self.width)
    }
}

impl Sig {
    /// The underlying IR node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The signal's width.
    pub fn width(&self) -> Width {
        self.width
    }

    fn bin(&self, op: BinOp, rhs: &Sig) -> Sig {
        let mut inner = self.ctx.inner.borrow_mut();
        let res = inner.design.binary(op, self.id, rhs.id);
        drop(inner);
        let id = self.ctx.lift(res);
        self.ctx.wrap(id)
    }

    fn un(&self, op: UnOp) -> Sig {
        let id = self.ctx.inner.borrow_mut().design.unary(op, self.id);
        self.ctx.wrap(id)
    }

    /// A literal of this signal's width (convenience for mixed expressions).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit.
    pub fn lit(&self, value: u64) -> Sig {
        self.ctx.lit(value, self.width)
    }

    // ---- comparisons -----------------------------------------------------

    /// Equality comparison, producing one bit.
    pub fn eq(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Eq, rhs)
    }

    /// Inequality comparison, producing one bit.
    pub fn neq(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Neq, rhs)
    }

    /// Unsigned less-than, producing one bit.
    pub fn ltu(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Ltu, rhs)
    }

    /// Unsigned less-or-equal, producing one bit.
    pub fn leu(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Leu, rhs)
    }

    /// Signed less-than, producing one bit.
    pub fn lts(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Lts, rhs)
    }

    /// Signed less-or-equal, producing one bit.
    pub fn les(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Les, rhs)
    }

    /// Equality against a literal, producing one bit.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit this signal's width.
    pub fn eq_lit(&self, value: u64) -> Sig {
        let l = self.lit(value);
        self.eq(&l)
    }

    // ---- arithmetic helpers ------------------------------------------------

    /// Addition with a literal.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit this signal's width.
    pub fn add_lit(&self, value: u64) -> Sig {
        let l = self.lit(value);
        self.bin(BinOp::Add, &l)
    }

    /// Unsigned division (division by zero yields all-ones; see
    /// [`BinOp::DivU`]).
    pub fn divu(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::DivU, rhs)
    }

    /// Unsigned remainder (remainder by zero yields the dividend; see
    /// [`BinOp::RemU`]).
    pub fn remu(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::RemU, rhs)
    }

    /// Wrapping multiplication (low word).
    pub fn mul(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Mul, rhs)
    }

    // ---- shifts -------------------------------------------------------------

    /// Logical left shift by a dynamic amount (same-width operands).
    pub fn shl(&self, amount: &Sig) -> Sig {
        self.bin(BinOp::Shl, amount)
    }

    /// Logical right shift by a dynamic amount (same-width operands).
    pub fn shr(&self, amount: &Sig) -> Sig {
        self.bin(BinOp::Shr, amount)
    }

    /// Arithmetic right shift by a dynamic amount (same-width operands).
    pub fn sra(&self, amount: &Sig) -> Sig {
        self.bin(BinOp::Sra, amount)
    }

    /// Logical left shift by a constant.
    pub fn shl_lit(&self, amount: u32) -> Sig {
        let l = self.lit(u64::from(amount) & self.width.mask());
        self.bin(BinOp::Shl, &l)
    }

    // ---- reductions ----------------------------------------------------------

    /// OR-reduction: 1 iff any bit is set.
    pub fn red_or(&self) -> Sig {
        self.un(UnOp::RedOr)
    }

    /// AND-reduction: 1 iff all bits are set.
    pub fn red_and(&self) -> Sig {
        self.un(UnOp::RedAnd)
    }

    /// XOR-reduction: parity.
    pub fn red_xor(&self) -> Sig {
        self.un(UnOp::RedXor)
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Sig {
        self.un(UnOp::Neg)
    }

    // ---- bit manipulation ------------------------------------------------------

    /// Bits `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn bits(&self, hi: u32, lo: u32) -> Sig {
        let mut inner = self.ctx.inner.borrow_mut();
        let res = inner.design.slice(self.id, hi, lo);
        drop(inner);
        let id = self.ctx.lift(res);
        self.ctx.wrap(id)
    }

    /// A single bit.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bit(&self, i: u32) -> Sig {
        self.bits(i, i)
    }

    /// Concatenation `{self, lo}` with `self` in the most significant bits.
    ///
    /// # Panics
    ///
    /// Panics if the result exceeds 64 bits.
    pub fn cat(&self, lo: &Sig) -> Sig {
        let mut inner = self.ctx.inner.borrow_mut();
        let res = inner.design.cat(self.id, lo.id);
        drop(inner);
        let id = self.ctx.lift(res);
        self.ctx.wrap(id)
    }

    /// Zero-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than this signal.
    pub fn zext(&self, width: Width) -> Sig {
        assert!(
            width.bits() >= self.width.bits(),
            "zext from {} to {width} would truncate",
            self.width
        );
        if width == self.width {
            return self.clone();
        }
        let pad = self.ctx.lit(
            0,
            Width::new(width.bits() - self.width.bits()).expect("nonzero pad"),
        );
        pad.cat(self)
    }

    /// Sign-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than this signal.
    pub fn sext(&self, width: Width) -> Sig {
        assert!(
            width.bits() >= self.width.bits(),
            "sext from {} to {width} would truncate",
            self.width
        );
        if width == self.width {
            return self.clone();
        }
        let sign = self.bit(self.width.bits() - 1);
        let mut pad = sign.clone();
        while pad.width.bits() < width.bits() - self.width.bits() {
            let take = (width.bits() - self.width.bits() - pad.width.bits()).min(pad.width.bits());
            let extra = pad.bits(take - 1, 0);
            pad = pad.cat(&extra);
        }
        pad.cat(self)
    }

    /// Truncates to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is wider than this signal.
    pub fn trunc(&self, width: Width) -> Sig {
        assert!(
            width.bits() <= self.width.bits(),
            "trunc from {} to {width} would extend",
            self.width
        );
        if width == self.width {
            return self.clone();
        }
        self.bits(width.bits() - 1, 0)
    }

    // ---- multiplexing -----------------------------------------------------------

    /// Two-way multiplexer: `self ? t : f`; `self` must be one bit.
    ///
    /// # Panics
    ///
    /// Panics on width errors.
    pub fn mux(&self, t: &Sig, f: &Sig) -> Sig {
        let mut inner = self.ctx.inner.borrow_mut();
        let res = inner.design.mux(self.id, t.id, f.id);
        drop(inner);
        let id = self.ctx.lift(res);
        self.ctx.wrap(id)
    }
}

macro_rules! binop_impl {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for &Sig {
            type Output = Sig;
            fn $method(self, rhs: &Sig) -> Sig {
                self.bin($op, rhs)
            }
        }

        impl std::ops::$trait for Sig {
            type Output = Sig;
            fn $method(self, rhs: Sig) -> Sig {
                (&self).bin($op, &rhs)
            }
        }

        impl std::ops::$trait<&Sig> for Sig {
            type Output = Sig;
            fn $method(self, rhs: &Sig) -> Sig {
                (&self).bin($op, rhs)
            }
        }

        impl std::ops::$trait<Sig> for &Sig {
            type Output = Sig;
            fn $method(self, rhs: Sig) -> Sig {
                self.bin($op, &rhs)
            }
        }
    };
}

binop_impl!(Add, add, BinOp::Add);
binop_impl!(Sub, sub, BinOp::Sub);
binop_impl!(BitAnd, bitand, BinOp::And);
binop_impl!(BitOr, bitor, BinOp::Or);
binop_impl!(BitXor, bitxor, BinOp::Xor);

impl std::ops::Not for &Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        self.un(UnOp::Not)
    }
}

impl std::ops::Not for Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        self.un(UnOp::Not)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    #[test]
    fn operators_build_nodes_with_expected_widths() {
        let ctx = Ctx::new("t");
        let a = ctx.input("a", w(8));
        let b = ctx.input("b", w(8));
        assert_eq!((&a + &b).width(), w(8));
        assert_eq!((&a - &b).width(), w(8));
        assert_eq!((&a & &b).width(), w(8));
        assert_eq!((&a | &b).width(), w(8));
        assert_eq!((&a ^ &b).width(), w(8));
        assert_eq!((!&a).width(), w(8));
        assert_eq!(a.eq(&b).width(), Width::BIT);
        assert_eq!(a.ltu(&b).width(), Width::BIT);
        assert_eq!(a.red_or().width(), Width::BIT);
    }

    #[test]
    fn extension_and_truncation() {
        let ctx = Ctx::new("t");
        let a = ctx.input("a", w(8));
        assert_eq!(a.zext(w(32)).width(), w(32));
        assert_eq!(a.sext(w(32)).width(), w(32));
        assert_eq!(a.trunc(w(4)).width(), w(4));
        assert_eq!(a.zext(w(8)).width(), w(8));
        assert_eq!(a.bits(7, 4).width(), w(4));
        assert_eq!(a.bit(0).width(), Width::BIT);
        assert_eq!(a.cat(&a).width(), w(16));
    }

    #[test]
    #[should_panic(expected = "would truncate")]
    fn zext_narrower_panics() {
        let ctx = Ctx::new("t");
        let a = ctx.input("a", w(8));
        let _ = a.zext(w(4));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let ctx = Ctx::new("t");
        let a = ctx.input("a", w(8));
        let b = ctx.input("b", w(4));
        let _ = &a + &b;
    }

    #[test]
    fn sext_wide_pad() {
        // Extending 1 bit to 64 exercises the pad-doubling loop.
        let ctx = Ctx::new("t");
        let a = ctx.input("a", Width::BIT);
        assert_eq!(a.sext(Width::W64).width(), Width::W64);
        assert_eq!(a.sext(w(2)).width(), w(2));
        assert_eq!(a.sext(w(33)).width(), w(33));
    }
}
