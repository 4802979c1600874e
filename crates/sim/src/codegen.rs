//! Tape-to-Rust lowering for the JIT engine.
//!
//! Emits the optimized op tape as one straight-line Rust function of word
//! ops, with every constant, shift, mask and slot index baked into the
//! instruction stream and no per-op dispatch — a constant slot is read as
//! a literal, never loaded from the slab, so LLVM folds it into its
//! users — followed by one line per
//! register that writes its next value — masked, enable baked in — into
//! the `rn` array the clock edge swaps in. Dataflow between ops runs
//! through SSA locals (so the compiled code keeps it in registers); only
//! the slots read outside `settle` — outputs and memory write ports — are
//! stored back to the flat value slab the sequential settle loop in
//! [`crate::tape`] maintains in full. Register next and enable slots are
//! consumed by the capture lines straight from their locals. Peeks of
//! any other slot reroute to the tree-walking recompute, exactly like
//! slots the optimizer removed. A second function, the memory commit of
//! the clock edge, follows: one statement per memory write port, in the
//! interpreter's order, reading the write-port slots the settle stored.
//! A third, the same text for every design, runs whole cycles: it calls
//! the settle, checks the run-time guard table, calls the commit and
//! swaps the register files, until a guard fires or its budget is spent.
//! `strober-jit` compiles the emitted source with
//! `rustc --crate-type cdylib` and `dlopen`s the result; the exported
//! `strober_jit_settle`, `strober_jit_commit` and `strober_jit_run`
//! symbols have the exact signatures of [`crate::NativeSettle::settle`],
//! [`crate::NativeSettle::commit`] and [`crate::NativeSettle::run`]
//! flattened to C ABI (memories are passed as `(ptr, len)` span pairs,
//! guards as a `(ptr, count)` table).
//!
//! Bit-identity with the interpreted tape is achieved by construction:
//! every emitted expression is a literal transcription of the matching
//! arm in the settle loop, of the register and memory-commit walks in
//! `Simulator::clock_edge` and of `UnOp::eval`/`BinOp::eval` in
//! `strober-rtl`, division-by-zero and out-of-range shift/address
//! semantics included. The golden suites and the fuzz oracle's `tape-jit`
//! lane hold this invariant under test.
//!
//! The emitted crate is `#![no_std]` (the body needs nothing but `core`
//! integer ops, and a dylib that links std is 4.3 MB instead of ~15 KB).
//! It also exports `strober_jit_sig() -> u64`, an FNV-1a hash of the crate
//! header, settle and commit bodies, run loop, slab length and register
//! count. The simulator checks that hash against the source it would
//! generate for its own tape before attaching a native engine, so a stale
//! dylib (different design, different optimizer or codegen revision, or
//! an entry point from before the commit or the run loop was native) is
//! rejected instead of silently producing wrong bits.

use crate::tape::{RegPlan, TapeOp, WritePlan};
use std::fmt::Write;
use strober_rtl::{BinOp, UnOp, Width};

/// Generated settle source plus its identity hash.
#[derive(Debug, Clone)]
pub struct JitSource {
    /// Complete Rust source for a `cdylib` crate exporting
    /// `strober_jit_settle`, `strober_jit_commit`, `strober_jit_run` and
    /// `strober_jit_sig`.
    pub source: String,
    /// FNV-1a hash of the crate header, settle and commit bodies, run
    /// loop, slab length and register count, also returned by the
    /// compiled dylib's `strober_jit_sig`.
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

/// A slot of the value slab. Generated code only ever stores to it: reads
/// go to SSA locals and constant literals (see [`operand`]).
fn v(slot: u32) -> String {
    format!("*v.add({slot})")
}

/// An operand read: the SSA local when a prior op in this settle already
/// defined the slot, the constant's value as a literal otherwise. Keeping
/// consumers on locals instead of slab re-loads is what lets LLVM hold
/// the dataflow in registers — with thousands of stores in one
/// straight-line block its store-to-load forwarding gives up long before
/// the end of the function — and baking constants in lets it fold them.
///
/// # Panics
///
/// Panics when `slot` is neither defined yet nor a constant slot: the
/// optimizer's single-assignment layout guarantees that never happens.
fn operand(slot: u32, defined: &[bool], consts: &[u64]) -> String {
    if defined[slot as usize] {
        format!("t{slot}")
    } else {
        let c = consts.get(slot as usize).unwrap_or_else(|| {
            panic!("slot {slot} is read before any op defines it and is not a constant")
        });
        format!("{c:#x}u64")
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

/// The memory commit, transcribed from the interpreted walk in
/// `Simulator::clock_edge`: one statement per write port, in plan order.
/// Nothing settle keeps in a local exists here, so an operand is the
/// constant's literal or a load of the slot settle stored (every
/// write-port slot is in `stored`). A port whose enable is a constant 0
/// never writes and is left out; a constant nonzero enable writes every
/// edge, so its statement has no branch.
fn emit_commit(source: &mut String, write_plans: &[WritePlan], consts: &[u64], stored: &[bool]) {
    let r = |slot: u32| match consts.get(slot as usize) {
        Some(c) => format!("{c:#x}u64"),
        None => {
            assert!(
                stored[slot as usize],
                "write-port slot {slot} is neither a constant nor stored by settle"
            );
            format!("*v.add({slot})")
        }
    };
    for plan in write_plans {
        let guard = match consts.get(plan.enable as usize) {
            Some(0) => continue,
            Some(_) => String::new(),
            None => format!("if {} != 0 ", r(plan.enable)),
        };
        let _ = writeln!(
            source,
            "    {guard}{{ let s = &*mems.add({}); let a = ({}) as usize; \
             if a < s.len {{ *s.ptr.add(a) = {}; }} }}",
            plan.mem,
            r(plan.addr),
            r(plan.data)
        );
    }
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
// Constants are baked in as literals, so a guarded shift or division can
// name an out-of-range amount or a zero divisor in the branch it never
// takes; the guard, not the lint, is what keeps it sound.
#![allow(arithmetic_overflow, unconditional_panic)]

#[panic_handler]
fn panic(_: &core::panic::PanicInfo<'_>) -> ! {
    loop {}
}

/// One memory array, passed as a raw span across the C ABI.
#[repr(C)]
pub struct MemSpan {
    pub ptr: *mut u64,
    pub len: usize,
}

/// Settles the tape this crate was generated from, then writes every
/// register's next value.
///
/// # Safety
///
/// The code indexes every pointer with constants and checks nothing but
/// memory addresses, so the caller guarantees, for the whole call:
/// - `v` is valid for writes of the value slab this source was generated
///   from: at least as many words as the slab length hashed into
///   `strober_jit_sig`, which the caller checks before the first call.
///   Every slot index below lies under that length. The code never reads
///   `v`: constants are literals and every other value is a local.
/// - `inp` is valid for reads of one word per input port of the design.
/// - `regs` and `rn` are each valid for one word per register of the
///   design (the count hashed into `strober_jit_sig`) and do not overlap.
///   `rn` is written once per register and never read.
/// - `mems` is valid for reads of one span per memory of the design, and
///   each span's `ptr` is valid for reads of `len` words. `len` is the
///   only bound a memory read trusts: an address at or past it reads as
///   zero, whatever the design declared. This function never writes a
///   memory.
/// - Nothing else writes to any of these while the call runs. Only `v`
///   and `rn` are written, and no pointer is kept after the return.
#[no_mangle]
pub unsafe extern \"C\" fn strober_jit_settle(
    v: *mut u64,
    inp: *const u64,
    regs: *const u64,
    mems: *const MemSpan,
    rn: *mut u64,
) {
    settle(v, inp, regs, mems, rn)
}

/// The body of `strober_jit_settle`, under its contract. Private, so that
/// `strober_jit_run` calls it directly rather than through the symbol
/// table, and out of line, so that it calls it rather than inlining a
/// second copy.
#[inline(never)]
unsafe fn settle(
    v: *mut u64,
    inp: *const u64,
    regs: *const u64,
    mems: *const MemSpan,
    rn: *mut u64,
) {
";

/// The memory commit that follows the settle body. It runs at the clock
/// edge, after a settle of the same state has stored every write port's
/// enable, address and data slot.
const COMMIT_HEADER: &str = "\
}

/// Commits the memory writes of one clock edge, port by port in the
/// interpreter's order, so a later port wins a same-address collision.
///
/// # Safety
///
/// - `v` is valid for reads of the value slab this source was generated
///   from, and a `strober_jit_settle` of the current state has stored it.
///   The code reads only the write-port slots that settle stores.
/// - `mems` is valid for reads of one span per memory of the design, and
///   each span's `ptr` is valid for writes of `len` words. `len` is the
///   only bound a write trusts: an address at or past it writes nothing.
/// - Nothing else reads or writes any of these while the call runs. Only
///   memory words below each `len` are written, and no pointer is kept
///   after the return.
#[no_mangle]
pub unsafe extern \"C\" fn strober_jit_commit(v: *const u64, mems: *const MemSpan) {
    commit(v, mems)
}

/// The body of `strober_jit_commit`, under its contract; private, so that
/// `strober_jit_run` calls it directly.
unsafe fn commit(v: *const u64, mems: *const MemSpan) {
";

/// The run loop that follows the commit body: whole cycles with the
/// inputs held, until a guard fires or the budget is spent. It is the same
/// text for every design; the guards arrive at run time, so one dylib
/// serves every host model.
const RUN: &str = "\
}

/// One run guard: the run stops before clocking a cycle in which slab
/// slot `slot` has any bit of `mask` set.
#[repr(C)]
pub struct Guard {
    pub slot: u64,
    pub mask: u64,
}

/// Clocks up to `budget` cycles with the inputs held, and returns how
/// many it clocked. Each cycle settles, stops if a guard fires, commits
/// the memory writes and swaps the register files: cycle `k` settles from
/// `regs` on even `k` and from `rn` on odd `k`, so after an odd count the
/// current registers are in `rn`.
///
/// # Safety
///
/// `strober_jit_settle`'s and `strober_jit_commit`'s contracts, for the
/// whole call, with `regs` and `rn` each valid for reads and writes of one
/// word per register, plus:
/// - `guards` is valid for reads of `n_guards` guards, and every guard's
///   `slot` lies below the slab length hashed into `strober_jit_sig`: the
///   code reads `v` at that slot unchecked, after the settle stored it.
/// - Nothing else reads or writes any of these while the call runs, and no
///   pointer is kept after the return.
#[no_mangle]
pub unsafe extern \"C\" fn strober_jit_run(
    v: *mut u64,
    inp: *const u64,
    regs: *mut u64,
    rn: *mut u64,
    mems: *const MemSpan,
    guards: *const Guard,
    n_guards: usize,
    budget: u64,
) -> u64 {
    let (mut cur, mut nxt) = (regs, rn);
    let mut ran = 0;
    while ran < budget {
        settle(v, inp, cur, mems, nxt);
        let mut g = 0;
        while g < n_guards {
            let guard = &*guards.add(g);
            if v.add(guard.slot as usize).read() & guard.mask != 0 {
                return ran;
            }
            g += 1;
        }
        commit(v, mems);
        core::mem::swap(&mut cur, &mut nxt);
        ran += 1;
    }
    ran
";

/// Lowers a tape to the source of a `cdylib` crate exporting the native
/// settle entry point. `n_values` is the slot slab length; every slot
/// index the tape and the register plans reference is asserted to lie
/// below it here, which is what makes the raw-pointer accesses in the
/// emitted code sound. `consts` holds the values of the leading constant
/// slots (see [`crate::opt`]): every read of one becomes a literal, so
/// the slab is only ever written. `stored` flags the slots read outside
/// `settle` (outputs, memory ports): only those are written back to the
/// slab, everything else lives in SSA locals the whole function.
/// `reg_plans` become the register-capture epilogue, one
/// `*rn.add(i) = …` per register, and `write_plans` the body of the
/// separate memory-commit function, one statement per port in plan order.
pub(crate) fn emit(
    tape: &[TapeOp],
    consts: &[u64],
    n_values: usize,
    stored: &[bool],
    reg_plans: &[RegPlan],
    write_plans: &[WritePlan],
) -> JitSource {
    assert_eq!(stored.len(), n_values, "stored mask must cover the slab");
    let mut reads = Vec::new();
    for op in tape {
        op.operands(&mut reads);
        reads.push(op.dst());
    }
    reads.extend(
        reg_plans
            .iter()
            .flat_map(|p| [Some(p.next), p.enable])
            .flatten(),
    );
    reads.extend(write_plans.iter().flat_map(|p| [p.enable, p.addr, p.data]));
    for &slot in &reads {
        assert!(
            (slot as usize) < n_values,
            "tape slot {slot} out of range for slab of {n_values}"
        );
    }
    // Every op binds an SSA local (`t<slot>`, shadowed on slot reuse);
    // only externally observed slots are also stored to the slab. The
    // local keeps consumers in registers, the store keeps the slab
    // correct where the clock edge and peeks read it. `defined` tracks
    // which slots already have a local this settle.
    let mut defined = vec![false; n_values];
    let mut source = String::from(HEADER);
    for op in tape {
        let r = |slot: u32| operand(slot, &defined, consts);
        let (dst, expr) = match *op {
            TapeOp::Input { dst, port } => (dst, format!("*inp.add({port})")),
            TapeOp::Unary { dst, op, a, w } => (dst, un_expr(op, &r(a), w)),
            TapeOp::Binary { dst, op, a, b, w } => (dst, bin_expr(op, &r(a), &r(b), w)),
            TapeOp::Mux { dst, sel, t, f } => (
                dst,
                format!("if {} != 0 {{ {} }} else {{ {} }}", r(sel), r(t), r(f)),
            ),
            TapeOp::Slice {
                dst,
                a,
                shift,
                mask,
            } => (dst, format!("({} >> {shift}) & {mask:#x}", r(a))),
            TapeOp::Cat { dst, hi, lo, shift } => {
                (dst, format!("({} << {shift}) | {}", r(hi), r(lo)))
            }
            TapeOp::RegOut { dst, reg } => (dst, format!("*regs.add({reg})")),
            TapeOp::MemRead { dst, mem, addr } => (dst, mem_read(mem, &r(addr))),
            TapeOp::BitAnd { dst, a, b } => (dst, format!("{} & {}", r(a), r(b))),
            TapeOp::BitOr { dst, a, b } => (dst, format!("{} | {}", r(a), r(b))),
            TapeOp::BitXor { dst, a, b } => (dst, format!("{} ^ {}", r(a), r(b))),
            TapeOp::CmpEq { dst, a, b } => (dst, format!("({} == {}) as u64", r(a), r(b))),
            TapeOp::NotMask { dst, a, mask } => (dst, format!("!{} & {mask:#x}", r(a))),
        };
        if stored[dst as usize] {
            let _ = writeln!(source, "    let t{dst} = {expr}; {} = t{dst};", v(dst));
        } else {
            let _ = writeln!(source, "    let t{dst} = {expr};");
        }
        defined[dst as usize] = true;
    }

    // Register capture: the interpreted `clock_edge` walk over the same
    // plans, transcribed. It reads only locals, constants and `regs`, so
    // it can run at the end of every settle — a second settle in one
    // cycle rewrites the same values. A register whose enable is a
    // constant 0 holds, so its capture is a copy.
    let r = |slot: u32| operand(slot, &defined, consts);
    for (i, plan) in reg_plans.iter().enumerate() {
        let next = format!("{} & {:#x}", r(plan.next), plan.mask);
        let held = plan
            .enable
            .is_some_and(|en| !defined[en as usize] && consts.get(en as usize) == Some(&0));
        let _ = match plan.enable {
            _ if held => writeln!(source, "    *rn.add({i}) = *regs.add({i});"),
            None => writeln!(source, "    *rn.add({i}) = {next};"),
            Some(en) => writeln!(
                source,
                "    *rn.add({i}) = if {} != 0 {{ {next} }} else {{ *regs.add({i}) }};",
                r(en)
            ),
        };
    }

    source.push_str(COMMIT_HEADER);
    emit_commit(&mut source, write_plans, consts, stored);
    source.push_str(RUN);

    // The hash covers the crate header, the settle and commit bodies, the
    // run loop, the slab length and the register count: a codegen
    // revision that changes only the header or the run loop (as the move
    // to `#![no_std]`, the `rn` argument, the writable spans and the run
    // loop did) still retires every dylib built before it, and two tapes
    // that happen to emit the same ops over different slab or
    // register-file sizes (never expected, but cheap to defend against)
    // still get distinct ids.
    let n_regs = reg_plans.len();
    let sig = fnv1a(
        source
            .bytes()
            .chain(format!("n_values={n_values} n_regs={n_regs}").into_bytes()),
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
        let one = emit(&tape, &[7], 3, &all, &[], &[]);
        let two = emit(&tape, &[7], 3, &all, &[], &[]);
        assert_eq!(one.sig, two.sig, "emission must be deterministic");
        assert!(one.source.contains("strober_jit_settle"));
        assert!(one.source.contains("strober_jit_sig"));
        assert!(one.source.contains("#![no_std]") && one.source.contains("#[panic_handler]"));
        assert!(one.source.contains(&format!("{:#x}", one.sig)));
        // Different slab length => different identity.
        assert_ne!(emit(&tape, &[7], 4, &[true; 4], &[], &[]).sig, one.sig);
        // A different stored-slot set changes the emitted body, hence
        // the identity: consumers must never attach across the two.
        assert_ne!(
            emit(&tape, &[7], 3, &[true, true, false], &[], &[]).sig,
            one.sig
        );
        // So does a constant's value: it is part of the code now.
        assert_ne!(emit(&tape, &[8], 3, &all, &[], &[]).sig, one.sig);
        // So does a register file: the entry point's `rn` has a length.
        let reg = RegPlan {
            next: 2,
            enable: None,
            mask: 0xff,
        };
        assert_ne!(emit(&tape, &[7], 3, &all, &[reg], &[]).sig, one.sig);
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
        let src = emit(&tape, &[0], 3, &[false, false, true], &[], &[]).source;
        // Slot 1 is internal: a local binding but no slab store.
        assert!(src.contains("let t1 ="));
        assert!(!src.contains("*v.add(1) = t1"));
        // Slot 2 is observed: local plus store.
        assert!(src.contains("*v.add(2) = t2"));
        // The consumer of slot 1 reads the local, not the slab.
        assert!(src.contains("(t1).wrapping_add(t1)"));
    }

    /// The settle and the commit function of a generated source.
    fn bodies(src: &str) -> (&str, &str) {
        let at = |f: &str| src.find(f).unwrap_or_else(|| panic!("{f} missing: {src}"));
        let (settle, commit, run) = (
            at("fn strober_jit_settle("),
            at("fn strober_jit_commit("),
            at("fn strober_jit_run("),
        );
        (&src[settle..commit], &src[commit..run])
    }

    #[test]
    fn the_run_loop_calls_settle_and_commit_and_reads_only_guard_slots() {
        let tape = vec![TapeOp::Input { dst: 1, port: 0 }];
        let src = emit(&tape, &[0], 2, &[false, true], &[], &[]).source;
        let at = |f: &str| src.find(f).unwrap_or_else(|| panic!("{f} missing: {src}"));
        let run = &src[at("fn strober_jit_run(")..at("fn strober_jit_sig(")];
        // One call each, to the private bodies the exported entry points
        // wrap, not an inlined copy of the settle.
        assert_eq!(run.matches("settle(v, inp, cur, mems, nxt);").count(), 1);
        assert_eq!(run.matches("commit(v, mems);").count(), 1);
        assert!(!run.contains("let t1 ="), "{run}");
        assert!(
            src.contains("    settle(v, inp, regs, mems, rn)\n}"),
            "{src}"
        );
        assert!(src.contains("    commit(v, mems)\n}"), "{src}");
        assert!(src.contains("#[inline(never)]\nunsafe fn settle("), "{src}");
        // The loop's one slab access is the guard read, after the settle
        // and before the commit; guards are not baked in.
        assert_eq!(run.matches("v.add(").count(), 1, "{run}");
        let (settled, read, commit) = (
            run.find("settle(").unwrap(),
            run.find("v.add(guard.slot as usize).read()").unwrap(),
            run.find("commit(").unwrap(),
        );
        assert!(settled < read && read < commit, "{run}");
        // Every design gets the same loop text.
        let other = emit(&[], &[5, 6], 2, &[false; 2], &[], &[]).source;
        let run_of = |s: &str| {
            s[s.find("fn strober_jit_run(").unwrap()..s.find("fn strober_jit_sig(").unwrap()]
                .to_owned()
        };
        assert_eq!(run_of(&other), run.to_owned());
    }

    /// Every `*v.add(k)` in `settle` is the target of a store of `t<k>`.
    fn slab_is_write_only(settle: &str) -> bool {
        settle.match_indices("*v.add(").all(|(at, _)| {
            let rest = &settle[at + "*v.add(".len()..];
            let slot = &rest[..rest.find(')').expect("closed")];
            rest[slot.len()..].starts_with(&format!(") = t{slot};"))
        })
    }

    /// Every `*v.add(k)` in `commit` is a read of a slot in `stored`.
    fn commit_reads_only_stored(commit: &str, stored: &[bool]) -> bool {
        commit.match_indices("*v.add(").all(|(at, _)| {
            let rest = &commit[at + "*v.add(".len()..];
            let close = rest.find(')').expect("closed");
            let slot: usize = rest[..close].parse().expect("a slot index");
            !rest[close..].starts_with(") =") && stored[slot]
        })
    }

    #[test]
    fn constants_are_literals_and_the_slab_is_only_written() {
        // Slots 0 and 1 are constants (3 and 0xf0); every op reads at
        // least one of them, and the register plans and the write port
        // read both.
        let tape = vec![
            TapeOp::Input { dst: 2, port: 0 },
            TapeOp::BitAnd { dst: 3, a: 2, b: 1 },
            TapeOp::Mux {
                dst: 4,
                sel: 3,
                t: 0,
                f: 1,
            },
            TapeOp::Binary {
                op: BinOp::Shl,
                dst: 5,
                a: 4,
                b: 0,
                w: w(8),
            },
        ];
        let plans = [
            RegPlan {
                next: 0,
                enable: Some(3),
                mask: 0xff,
            },
            RegPlan {
                next: 5,
                enable: Some(1),
                mask: 0xff,
            },
        ];
        let port = WritePlan {
            mem: 0,
            enable: 3,
            addr: 0,
            data: 5,
        };
        let stored = [false, false, true, true, true, true];
        let src = emit(&tape, &[3, 0xf0], 6, &stored, &plans, &[port]).source;
        let (settle, commit) = bodies(&src);
        assert!(src.contains("let t3 = t2 & 0xf0u64;"), "{src}");
        assert!(
            src.contains("if t3 != 0 { 0x3u64 } else { 0xf0u64 }"),
            "{src}"
        );
        assert!(src.contains("let s = 0x3u64;"), "{src}");
        assert!(
            src.contains("*rn.add(0) = if t3 != 0 { 0x3u64 & 0xff }"),
            "{src}"
        );
        assert!(
            src.contains("*rn.add(1) = if 0xf0u64 != 0 { t5 & 0xff }"),
            "{src}"
        );
        // Stores of the four ops, and no other access to the slab in the
        // settle; the commit reads the port's two stored slots, and its
        // constant address is a literal.
        assert_eq!(settle.matches("*v.add(").count(), 4, "{src}");
        assert!(slab_is_write_only(settle), "{src}");
        assert!(
            commit.contains("if *v.add(3) != 0 { let s = &*mems.add(0); let a = (0x3u64) as usize; if a < s.len { *s.ptr.add(a) = *v.add(5); } }"),
            "{src}"
        );
        assert_eq!(commit.matches("*v.add(").count(), 2, "{src}");
        assert!(commit_reads_only_stored(commit, &stored), "{src}");
    }

    #[test]
    fn a_lowered_design_never_reads_the_slab() {
        // A random design through the real optimizer: whatever constants
        // survive folding are literals in the generated code. The settle
        // never reads the slab; the commit reads it only at the
        // write-port slots the settle stores.
        let mut commits_reading = 0;
        for seed in 0..8 {
            let design = crate::rand_design::rand_design(seed, &Default::default());
            let sim = crate::Simulator::new(&design).unwrap();
            let src = sim.jit_source().source;
            let (settle, commit) = bodies(&src);
            assert!(slab_is_write_only(settle), "seed {seed}");
            assert!(
                commit_reads_only_stored(commit, &sim.stored_slots()),
                "seed {seed}"
            );
            commits_reading += usize::from(commit.contains("*v.add("));
        }
        assert!(commits_reading > 0, "some commit must read a stored slot");
    }

    #[test]
    fn commit_transcribes_write_ports_in_plan_order() {
        // Slots 0..3 are constants 0, 1 and 5; 3..6 are inputs, stored.
        let tape = vec![
            TapeOp::Input { dst: 3, port: 0 },
            TapeOp::Input { dst: 4, port: 1 },
            TapeOp::Input { dst: 5, port: 2 },
        ];
        let consts = [0, 1, 5];
        let stored = [false, false, false, true, true, true];
        let port = |mem, enable, addr, data| WritePlan {
            mem,
            enable,
            addr,
            data,
        };
        let plans = [
            port(0, 3, 4, 5), // data-dependent enable
            port(1, 1, 2, 4), // enable tied to 1, constant address
            port(0, 0, 4, 5), // enable tied to 0: never writes
            port(0, 1, 4, 3), // same memory and address as the first
        ];
        let src = emit(&tape, &consts, 6, &stored, &[], &plans).source;
        let (_, commit) = bodies(&src);
        let first = "    if *v.add(3) != 0 { let s = &*mems.add(0); let a = (*v.add(4)) as usize; \
                     if a < s.len { *s.ptr.add(a) = *v.add(5); } }\n";
        let second = "    { let s = &*mems.add(1); let a = (0x5u64) as usize; \
                      if a < s.len { *s.ptr.add(a) = *v.add(4); } }\n";
        let last = "    { let s = &*mems.add(0); let a = (*v.add(4)) as usize; \
                    if a < s.len { *s.ptr.add(a) = *v.add(3); } }\n";
        // A constant-1 enable has no branch, a constant-0 port emits
        // nothing, and the rest keep plan order, so the last port still
        // wins a same-address collision.
        let (a, b, c) = (commit.find(first), commit.find(second), commit.find(last));
        assert!(a.is_some() && b.is_some() && c.is_some(), "{commit}");
        assert!(a < b && b < c, "plan order: {commit}");
        assert_eq!(commit.matches("*s.ptr.add(a) = ").count(), 3, "{commit}");
        assert_eq!(commit.matches(" != 0").count(), 1, "{commit}");
        assert!(
            !commit.contains("0x0u64") && !commit.contains("0x1u64"),
            "{commit}"
        );
        assert!(commit_reads_only_stored(commit, &stored), "{commit}");

        // The commit is part of the code the signature covers.
        let sig = |plans: &[WritePlan]| emit(&tape, &consts, 6, &stored, &[], plans).sig;
        let base = sig(&plans);
        assert_ne!(sig(&plans[..3]), base, "a port removed");
        assert_ne!(
            sig(&[plans[3], plans[1], plans[0]]),
            base,
            "ports reordered"
        );
        assert_ne!(
            sig(&[plans[0], plans[1], plans[2], port(0, 1, 4, 5)]),
            base,
            "a port's data changed"
        );
        assert_ne!(sig(&[]), base, "no ports");
    }

    #[test]
    #[should_panic(expected = "slot 4 is read before any op defines it")]
    fn a_slot_read_before_its_op_is_rejected() {
        let tape = vec![
            TapeOp::BitOr { dst: 2, a: 1, b: 4 },
            TapeOp::Input { dst: 4, port: 0 },
        ];
        emit(&tape, &[0, 1], 5, &[false; 5], &[], &[]);
    }

    #[test]
    fn registers_capture_from_locals_with_and_without_enables() {
        let tape = vec![
            TapeOp::Input { dst: 2, port: 0 },
            TapeOp::Input { dst: 3, port: 1 },
            TapeOp::Binary {
                op: BinOp::Add,
                dst: 4,
                a: 2,
                b: 0,
                w: w(8),
            },
        ];
        let plans = [
            RegPlan {
                next: 4,
                enable: None,
                mask: 0xff,
            },
            RegPlan {
                next: 2,
                enable: Some(3),
                mask: 0xf,
            },
            // A register loaded from a constant slot takes the literal.
            RegPlan {
                next: 1,
                enable: None,
                mask: 0x3,
            },
            // A register whose enable is a constant 0 holds: a copy.
            RegPlan {
                next: 0,
                enable: Some(0),
                mask: 0xff,
            },
        ];
        let src = emit(&tape, &[0, 2], 5, &[false; 5], &plans, &[]).source;
        assert!(src.contains("rn: *mut u64"));
        assert!(src.contains("    *rn.add(0) = t4 & 0xff;"));
        assert!(src.contains("    *rn.add(1) = if t3 != 0 { t2 & 0xf } else { *regs.add(1) };"));
        assert!(src.contains("    *rn.add(2) = 0x2u64 & 0x3;"));
        assert!(src.contains("    *rn.add(3) = *regs.add(3);"));
        // Nothing touches the slab: capture reads the locals.
        assert!(!src.contains("*v.add("));
        // `rn` is written once per register and never read.
        assert_eq!(src.matches("rn.add(").count(), plans.len());
    }
}
