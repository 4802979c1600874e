//! Tape-to-Rust lowering for the JIT engine.
//!
//! Emits the optimized op tape as one straight-line Rust function of word
//! ops, with every constant, shift, mask and slot index baked into the
//! instruction stream and no per-op dispatch. Dataflow between ops runs
//! through SSA locals (so the compiled code keeps it in registers); only
//! the slots read outside `settle` — outputs, register next/enable slots,
//! memory write ports — are stored back to the flat value slab the
//! sequential settle loop in [`crate::tape`] maintains in full. Peeks of
//! any other slot reroute to the tree-walking recompute, exactly like
//! slots the optimizer removed. `strober-jit` compiles the emitted source with
//! `rustc --crate-type cdylib` and `dlopen`s the result; the exported
//! `strober_jit_settle` symbol has the exact signature of
//! [`crate::NativeSettle::settle`] flattened to C ABI (memories are
//! passed as `(ptr, len)` span pairs).
//!
//! Bit-identity with the interpreted tape is achieved by construction:
//! every emitted expression is a literal transcription of the matching
//! arm in the settle loop and of `UnOp::eval`/`BinOp::eval` in
//! `strober-rtl`, division-by-zero and out-of-range shift/address
//! semantics included. The golden suites and the fuzz oracle's `tape-jit`
//! lane hold this invariant under test.
//!
//! The emitted crate is `#![no_std]` (the body needs nothing but `core`
//! integer ops, and a dylib that links std is 4.3 MB instead of ~15 KB).
//! It also exports `strober_jit_sig() -> u64`, an FNV-1a hash of the crate
//! header and settle body. The simulator checks that hash against the
//! source it would generate for its own tape before attaching a native
//! engine, so a stale dylib (different design, different optimizer or
//! codegen revision) is rejected instead of silently producing wrong
//! bits.

use crate::tape::TapeOp;
use std::fmt::Write;
use strober_rtl::{BinOp, UnOp, Width};

/// Generated settle source plus its identity hash.
#[derive(Debug, Clone)]
pub struct JitSource {
    /// Complete Rust source for a `cdylib` crate exporting
    /// `strober_jit_settle` and `strober_jit_sig`.
    pub source: String,
    /// FNV-1a hash of the crate header, settle body and slab length, also
    /// returned by the compiled dylib's `strober_jit_sig`.
    pub sig: u64,
}

/// FNV-1a over the generated source; must match the dylib-side constant.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A slot read from the value slab.
fn v(slot: u32) -> String {
    format!("*v.add({slot})")
}

/// An operand read: the SSA local when a prior op in this settle already
/// defined the slot, the slab otherwise (constants and other values
/// initialized outside the tape). Keeping consumers on locals instead of
/// slab re-loads is what lets LLVM hold the dataflow in registers — with
/// thousands of stores in one straight-line block its store-to-load
/// forwarding gives up long before the end of the function.
fn r(slot: u32, defined: &[bool]) -> String {
    if defined[slot as usize] {
        format!("t{slot}")
    } else {
        v(slot)
    }
}

/// Transcribes `UnOp::eval` with width constants baked in.
fn un_expr(op: UnOp, a: &str, w: Width) -> String {
    let m = w.mask();
    match op {
        UnOp::Not => format!("!({a}) & {m:#x}"),
        UnOp::Neg => format!("({a}).wrapping_neg() & {m:#x}"),
        UnOp::RedAnd => format!("(({a}) == {m:#x}) as u64"),
        UnOp::RedOr => format!("(({a}) != 0) as u64"),
        UnOp::RedXor => format!("(({a}).count_ones() & 1) as u64"),
    }
}

/// Transcribes `BinOp::eval` with width constants baked in. `a` and `b`
/// are expression strings; block-bodied ops bind them once to keep
/// side-effect-free double evaluation out of the emitted code.
fn bin_expr(op: BinOp, a: &str, b: &str, w: Width) -> String {
    let m = w.mask();
    let bits = w.bits();
    // `sign_extend(x, w)`: shift to the top, arithmetic shift back.
    let s64 = 64 - bits;
    let sext = |x: &str| format!("(((({x}) << {s64}) as i64) >> {s64})");
    match op {
        BinOp::Add => format!("({a}).wrapping_add({b}) & {m:#x}"),
        BinOp::Sub => format!("({a}).wrapping_sub({b}) & {m:#x}"),
        BinOp::Mul => format!("({a}).wrapping_mul({b}) & {m:#x}"),
        BinOp::DivU => {
            format!("{{ let d = {b}; if d == 0 {{ {m:#x} }} else {{ (({a}) / d) & {m:#x} }} }}")
        }
        BinOp::RemU => {
            format!("{{ let d = {b}; if d == 0 {{ {a} }} else {{ (({a}) % d) & {m:#x} }} }}")
        }
        BinOp::And => format!("({a}) & ({b})"),
        BinOp::Or => format!("({a}) | ({b})"),
        BinOp::Xor => format!("({a}) ^ ({b})"),
        BinOp::Shl => {
            format!("{{ let s = {b}; if s >= {bits} {{ 0 }} else {{ (({a}) << s) & {m:#x} }} }}")
        }
        BinOp::Shr => {
            format!("{{ let s = {b}; if s >= {bits} {{ 0 }} else {{ ({a}) >> s }} }}")
        }
        BinOp::Sra => format!(
            "{{ let s = ({b}).min({}); (({} >> s) as u64) & {m:#x} }}",
            bits - 1,
            sext(a)
        ),
        BinOp::Eq => format!("(({a}) == ({b})) as u64"),
        BinOp::Neq => format!("(({a}) != ({b})) as u64"),
        BinOp::Ltu => format!("(({a}) < ({b})) as u64"),
        BinOp::Leu => format!("(({a}) <= ({b})) as u64"),
        BinOp::Lts => format!("({} < {}) as u64", sext(a), sext(b)),
        BinOp::Les => format!("({} <= {}) as u64", sext(a), sext(b)),
    }
}

/// A bounds-checked memory read: addresses beyond the depth read as zero,
/// exactly like the interpreted `MemRead` arm.
fn mem_read(mem: u32, addr_expr: &str) -> String {
    format!(
        "{{ let s = &*mems.add({mem}); let a = ({addr_expr}) as usize; \
         if a < s.len {{ *s.ptr.add(a) }} else {{ 0 }} }}"
    )
}

/// Everything the generated crate holds ahead of the settle body. The
/// body is integer arithmetic on `core` types only, so the crate is
/// `#![no_std]`: a dylib then carries its own code and nothing else
/// (13–20 KB for the bundled hubs, against 4.3 MB with std linked in).
/// `core` still wants a panic handler to exist; with `-C panic=abort` and
/// every division guarded in the emitted expressions it is unreachable.
const HEADER: &str = "\
// Generated by strober-sim codegen; do not edit.
#![no_std]
#![allow(unused_variables, unused_parens, clippy::all)]

#[panic_handler]
fn panic(_: &core::panic::PanicInfo<'_>) -> ! {
    loop {}
}

/// One memory array, passed as a raw span across the C ABI.
#[repr(C)]
pub struct MemSpan {
    pub ptr: *const u64,
    pub len: usize,
}

/// # Safety
/// `v` must point at the value slab this tape was compiled for
/// (length checked via `strober_jit_sig` at attach time); `inp`,
/// `regs` and `mems` must match the design's port/register/memory
/// counts.
#[no_mangle]
pub unsafe extern \"C\" fn strober_jit_settle(
    v: *mut u64,
    inp: *const u64,
    regs: *const u64,
    mems: *const MemSpan,
) {
";

/// Lowers a tape to the source of a `cdylib` crate exporting the native
/// settle entry point. `n_values` is the slot slab length; every slot
/// index the tape references is asserted to lie below it here, which is
/// what makes the raw-pointer writes in the emitted code sound.
/// `stored` flags the slots read outside `settle` (outputs, register
/// next/enable, memory ports): only those are written back to the slab,
/// everything else lives in SSA locals the whole function.
pub(crate) fn emit(tape: &[TapeOp], n_values: usize, stored: &[bool]) -> JitSource {
    assert_eq!(stored.len(), n_values, "stored mask must cover the slab");
    let mut reads = Vec::new();
    for op in tape {
        reads.clear();
        op.operands(&mut reads);
        reads.push(op.dst());
        for &slot in &reads {
            assert!(
                (slot as usize) < n_values,
                "tape slot {slot} out of range for slab of {n_values}"
            );
        }
    }
    // Every op binds an SSA local (`t<slot>`, shadowed on slot reuse);
    // only externally observed slots are also stored to the slab. The
    // local keeps consumers in registers, the store keeps the slab
    // correct where the clock edge and peeks read it. `defined` tracks
    // which slots already have a local this settle.
    let mut defined = vec![false; n_values];
    let mut source = String::from(HEADER);
    for op in tape {
        let d = &defined;
        let (dst, expr) = match *op {
            TapeOp::Input { dst, port } => (dst, format!("*inp.add({port})")),
            TapeOp::Unary { dst, op, a, w } => (dst, un_expr(op, &r(a, d), w)),
            TapeOp::Binary { dst, op, a, b, w } => (dst, bin_expr(op, &r(a, d), &r(b, d), w)),
            TapeOp::Mux { dst, sel, t, f } => (
                dst,
                format!(
                    "if {} != 0 {{ {} }} else {{ {} }}",
                    r(sel, d),
                    r(t, d),
                    r(f, d)
                ),
            ),
            TapeOp::Slice {
                dst,
                a,
                shift,
                mask,
            } => (dst, format!("({} >> {shift}) & {mask:#x}", r(a, d))),
            TapeOp::Cat { dst, hi, lo, shift } => {
                (dst, format!("({} << {shift}) | {}", r(hi, d), r(lo, d)))
            }
            TapeOp::RegOut { dst, reg } => (dst, format!("*regs.add({reg})")),
            TapeOp::MemRead { dst, mem, addr } => (dst, mem_read(mem, &r(addr, d))),
            TapeOp::BitAnd { dst, a, b } => (dst, format!("{} & {}", r(a, d), r(b, d))),
            TapeOp::BitOr { dst, a, b } => (dst, format!("{} | {}", r(a, d), r(b, d))),
            TapeOp::BitXor { dst, a, b } => (dst, format!("{} ^ {}", r(a, d), r(b, d))),
            TapeOp::CmpEq { dst, a, b } => (dst, format!("({} == {}) as u64", r(a, d), r(b, d))),
            TapeOp::NotMask { dst, a, mask } => (dst, format!("!{} & {mask:#x}", r(a, d))),
        };
        if stored[dst as usize] {
            let _ = writeln!(source, "    let t{dst} = {expr}; {} = t{dst};", v(dst));
        } else {
            let _ = writeln!(source, "    let t{dst} = {expr};");
        }
        defined[dst as usize] = true;
    }

    // The hash covers the crate header, the settle body and the slab
    // length: a codegen revision that changes only the header (as the
    // move to `#![no_std]` did) still retires every dylib built before
    // it, and two tapes that happen to emit the same ops over different
    // slab sizes (never expected, but cheap to defend against) still get
    // distinct ids.
    let sig = fnv1a(
        source
            .bytes()
            .chain(format!("n_values={n_values}").into_bytes()),
    );
    source.push_str("}\n\n#[no_mangle]\npub extern \"C\" fn strober_jit_sig() -> u64 {\n");
    let _ = writeln!(source, "    {sig:#x}");
    source.push_str("}\n");

    JitSource { source, sig }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_rtl::Width;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    #[test]
    fn bin_expr_matches_eval_on_edge_cases() {
        // Evaluate the emitted expression semantics by hand for the arms
        // with data-dependent control flow.
        let w8 = w(8);
        // DivU by zero yields the all-ones mask.
        assert_eq!(BinOp::DivU.eval(7, 0, w8), 0xff);
        // Shl past the width yields zero.
        assert_eq!(BinOp::Shl.eval(1, 8, w8), 0);
        // Sra clamps the shift and sign-extends.
        assert_eq!(BinOp::Sra.eval(0x80, 63, w8), 0xff);
        // The emitted strings bake those constants in.
        assert!(bin_expr(BinOp::DivU, "x", "y", w8).contains("0xff"));
        assert!(bin_expr(BinOp::Shl, "x", "y", w8).contains("s >= 8"));
        assert!(bin_expr(BinOp::Sra, "x", "y", w8).contains(".min(7)"));
    }

    #[test]
    fn emitted_source_exports_entry_points_and_stable_sig() {
        let tape = vec![
            TapeOp::Input { dst: 1, port: 0 },
            TapeOp::Binary {
                op: BinOp::Add,
                dst: 2,
                a: 1,
                b: 0,
                w: w(8),
            },
        ];
        let all = [true; 3];
        let one = emit(&tape, 3, &all);
        let two = emit(&tape, 3, &all);
        assert_eq!(one.sig, two.sig, "emission must be deterministic");
        assert!(one.source.contains("strober_jit_settle"));
        assert!(one.source.contains("strober_jit_sig"));
        assert!(one.source.contains("#![no_std]") && one.source.contains("#[panic_handler]"));
        assert!(one.source.contains(&format!("{:#x}", one.sig)));
        // Different slab length => different identity.
        assert_ne!(emit(&tape, 4, &[true; 4]).sig, one.sig);
        // A different stored-slot set changes the emitted body, hence
        // the identity: consumers must never attach across the two.
        assert_ne!(emit(&tape, 3, &[true, true, false]).sig, one.sig);
    }

    #[test]
    fn unstored_slots_keep_locals_only() {
        let tape = vec![
            TapeOp::Input { dst: 1, port: 0 },
            TapeOp::Binary {
                op: BinOp::Add,
                dst: 2,
                a: 1,
                b: 1,
                w: w(8),
            },
        ];
        let src = emit(&tape, 3, &[false, false, true]).source;
        // Slot 1 is internal: a local binding but no slab store.
        assert!(src.contains("let t1 ="));
        assert!(!src.contains("*v.add(1) = t1"));
        // Slot 2 is observed: local plus store.
        assert!(src.contains("*v.add(2) = t2"));
        // The consumer of slot 1 reads the local, not the slab.
        assert!(src.contains("(t1).wrapping_add(t1)"));
    }
}
